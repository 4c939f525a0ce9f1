//! Session replay: capture one victim session as a [`ReplayBundle`]
//! and prove a standalone re-run is the *same execution*.
//!
//! Forensics (PR 8) can name a victim session and the fault window
//! that killed it; this module makes the incident reproducible. A
//! bundle captures everything a session's execution is a function of —
//! the derived seed, the workload id, the shard/replica topology and
//! the fault-schedule slice intersecting the session — plus the campus
//! run's layered digest checkpoints. The campus runner re-runs the
//! session solo with instrumentation forced to maximum (trace sample
//! rate 1.0, unbounded flight ring, link telemetry rendered) and
//! compares the replayed [`DigestTrace`] layer by layer: a mismatch is
//! a hard error naming the first divergent layer, not a silent wrong
//! answer.
//!
//! The faithfulness invariant that makes "max instrumentation" safe:
//! neither the trace sampler (post-hoc keep/drop of an always-on
//! tracer) nor the flight-ring capacity (events never reach the
//! digest) influences the simulation, so cranking both is
//! digest-neutral by construction.

use crate::forensics::FaultWindow;
use std::fmt::Write as _;

/// SplitMix64 finalizer deriving student `i`'s session seed from the
/// campus base seed — the canonical definition, shared by the campus
/// runner and by forensic replay handles so a bundle's `(student,
/// seed)` pair can be recomputed anywhere.
pub fn derive_seed(base: u64, student: u64) -> u64 {
    let mut z = base ^ student.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a offset basis: the starting state of every [`fnv1a`] chain.
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Folds `bytes` into the FNV-1a state `h`, one byte at a time. The one
/// hash behind the session, campus and store-state digests: chaining
/// calls equals hashing the concatenation.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

/// The first layer at which a replayed session's digest left the
/// campus-recorded one. Layers are compared in fold order, so the
/// named layer is where the executions first disagree — everything
/// before it matched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Name of the first divergent digest layer.
    pub layer: String,
    /// The campus-recorded checkpoint at that layer.
    pub expected: u64,
    /// What the replay produced instead.
    pub got: u64,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "replay diverged at layer `{}`: expected {:#018x}, got {:#018x}",
            self.layer, self.expected, self.got
        )
    }
}

impl std::error::Error for Divergence {}

/// Ordered digest checkpoints, one per fold layer of a session digest
/// (`seed → courseware → media.N… → failure → bytes → session_us →
/// db_state`). Recording them costs one `(name, u64)` push per fold;
/// comparing two traces names the first divergent layer instead of
/// reporting an opaque final-digest mismatch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DigestTrace {
    layers: Vec<(String, u64)>,
}

impl DigestTrace {
    /// An empty trace.
    pub fn new() -> Self {
        DigestTrace::default()
    }

    /// Record the digest checkpoint after folding `layer`.
    pub fn record(&mut self, layer: impl Into<String>, digest: u64) {
        self.layers.push((layer.into(), digest));
    }

    /// The recorded layers, in fold order.
    pub fn layers(&self) -> &[(String, u64)] {
        &self.layers
    }

    /// The final checkpoint — the session digest itself, when the
    /// trace covers the whole fold.
    pub fn final_digest(&self) -> Option<u64> {
        self.layers.last().map(|(_, d)| *d)
    }

    /// Compare a replayed trace (`self`) against the campus-recorded
    /// `expected`, in layer order. On mismatch, names the first layer
    /// whose name or checkpoint differs; a layer-count mismatch (one
    /// execution folded more layers) is reported as `layer_count`.
    pub fn compare(&self, expected: &DigestTrace) -> Result<(), Divergence> {
        for (mine, theirs) in self.layers.iter().zip(&expected.layers) {
            if mine.0 != theirs.0 || mine.1 != theirs.1 {
                return Err(Divergence {
                    layer: theirs.0.clone(),
                    expected: theirs.1,
                    got: mine.1,
                });
            }
        }
        if self.layers.len() != expected.layers.len() {
            return Err(Divergence {
                layer: "layer_count".to_string(),
                expected: expected.layers.len() as u64,
                got: self.layers.len() as u64,
            });
        }
        Ok(())
    }

    /// The layers as a byte-stable JSON array:
    /// `[{"layer":"seed","digest":N},…]`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, (name, digest)) in self.layers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"layer\":\"{}\",\"digest\":{}}}",
                crate::trace::json_escape(name),
                digest
            );
        }
        out.push(']');
        out
    }
}

/// Everything needed to reconstruct one session out of a campus run:
/// the session spec, which workload it fetched, the shard/replica
/// topology it ran against, the fault-schedule slice intersecting it,
/// and the campus-recorded digest checkpoints the replay must
/// reproduce byte-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayBundle {
    /// Student index in the campus run.
    pub student: usize,
    /// The derived seed the session ran with.
    pub seed: u64,
    /// Workload id (index into the campus workload rotation).
    pub workload: usize,
    /// Shard groups in the session's store.
    pub shards: usize,
    /// Whether every shard ran a hot-standby replica.
    pub replica: bool,
    /// The campus-recorded session digest (final fold).
    pub digest: u64,
    /// Layer-by-layer digest checkpoints from the campus run.
    pub layers: DigestTrace,
    /// Whether the campus run retired the session anomalous.
    pub anomalous: bool,
    /// Whether the campus run retired the session failed.
    pub failed: bool,
    /// Declared fault windows intersecting the session's virtual span.
    pub faults: Vec<FaultWindow>,
}

impl ReplayBundle {
    /// Render the bundle as one versioned JSON object — the ready-to-
    /// run replay handle forensic bundles embed:
    /// `{"t":"replay","v":1,…}`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"t\":\"replay\",\"v\":1,\"student\":{},\"seed\":{},\"workload\":{},\
             \"shards\":{},\"replica\":{},\"digest\":{},\"anomalous\":{},\"failed\":{},\
             \"layers\":{},\"faults\":[",
            self.student,
            self.seed,
            self.workload,
            self.shards,
            self.replica,
            self.digest,
            self.anomalous,
            self.failed,
            self.layers.to_json()
        );
        for (i, f) in self.faults.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            f.write_json(&mut out);
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    #[test]
    fn derive_seed_is_stable_and_decorrelated() {
        assert_eq!(derive_seed(42, 7), derive_seed(42, 7));
        assert_ne!(derive_seed(42, 7), derive_seed(42, 8));
        assert_ne!(derive_seed(42, 7), derive_seed(43, 7));
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors_and_chains() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_F739_67E8);
        assert_eq!(
            fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar"),
            fnv1a(FNV_OFFSET, b"foobar")
        );
    }

    #[test]
    fn matching_traces_compare_clean() {
        let mut a = DigestTrace::new();
        a.record("seed", 1);
        a.record("bytes", 2);
        let b = a.clone();
        assert_eq!(a.compare(&b), Ok(()));
        assert_eq!(a.final_digest(), Some(2));
    }

    #[test]
    fn divergence_names_the_first_bad_layer() {
        let mut campus = DigestTrace::new();
        campus.record("seed", 1);
        campus.record("courseware", 2);
        campus.record("bytes", 3);
        let mut replay = DigestTrace::new();
        replay.record("seed", 1);
        replay.record("courseware", 9);
        replay.record("bytes", 3);
        let d = replay.compare(&campus).unwrap_err();
        assert_eq!(d.layer, "courseware");
        assert_eq!(d.expected, 2);
        assert_eq!(d.got, 9);
        assert!(d.to_string().contains("courseware"));
    }

    #[test]
    fn layer_count_mismatch_is_named() {
        let mut campus = DigestTrace::new();
        campus.record("seed", 1);
        campus.record("bytes", 2);
        let mut replay = DigestTrace::new();
        replay.record("seed", 1);
        let d = replay.compare(&campus).unwrap_err();
        assert_eq!(d.layer, "layer_count");
    }

    #[test]
    fn bundle_json_is_versioned_and_deterministic() {
        let mut layers = DigestTrace::new();
        layers.record("seed", 11);
        let b = ReplayBundle {
            student: 4,
            seed: derive_seed(42, 4),
            workload: 1,
            shards: 3,
            replica: true,
            digest: 11,
            layers,
            anomalous: true,
            failed: true,
            faults: vec![FaultWindow {
                label: "fault_storm.shard1".to_string(),
                shard: 1,
                onset: SimTime::from_millis(2),
                clear: None,
            }],
        };
        let json = b.to_json();
        assert_eq!(json, b.to_json());
        assert!(json.starts_with("{\"t\":\"replay\",\"v\":1,"));
        assert!(json.contains("\"student\":4"));
        assert!(json.contains("fault_storm.shard1"));
        assert!(json.contains("\"clear_us\":null"));
    }
}
