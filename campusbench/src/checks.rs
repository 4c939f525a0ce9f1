//! Output checks: the pinned campus digests, round-to-round agreement,
//! and the traced run's reproduction of the timed run's sessions.

use crate::workloads::DEFAULT_SEED;
use mits_core::{CampusWorkload, SessionReport};

/// Campus digests at [`DEFAULT_SEED`], one per workload at its
/// configured population. They change only when the simulated
/// observables change.
pub const PINNED_DIGESTS: [(&str, u64); 3] = [
    ("course_catalogue", 0x513f_71a8_7c5c_caf9),
    ("lossy_lecture", 0x4b75_822b_457e_c39f),
    ("shard_failover", 0x88db_4a4e_70de_2f3b),
];

/// The deterministic outcome of one session, as the benchmark keeps it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// Student index.
    pub student: usize,
    /// Bytes delivered to the student.
    pub bytes: u64,
    /// Simulated session time in microseconds.
    pub session_us: u64,
    /// The session died mid-run.
    pub failed: bool,
}

impl Outcome {
    /// The deterministic part of a campus session report.
    pub fn of(report: &SessionReport) -> Outcome {
        Outcome {
            student: report.student,
            bytes: report.bytes,
            session_us: report.session.as_micros(),
            failed: report.failed,
        }
    }
}

/// At [`DEFAULT_SEED`], `digest` must equal `workload`'s pinned value;
/// other seeds have no pin.
pub fn check_digest(workload: &str, seed: u64, digest: u64) -> Result<(), String> {
    if seed != DEFAULT_SEED {
        return Ok(());
    }
    match PINNED_DIGESTS.iter().find(|(name, _)| *name == workload) {
        Some(&(_, pinned)) if pinned == digest => Ok(()),
        Some(&(_, pinned)) => Err(format!(
            "{workload}: campus digest {digest:#018x} != pinned {pinned:#018x} at seed {seed}"
        )),
        None => Err(format!("{workload}: no pinned digest")),
    }
}

/// A repeated session must match the first execution's outcome
/// exactly.
pub fn check_reproduced(first: &Outcome, again: &Outcome) -> Result<(), String> {
    if first == again {
        Ok(())
    } else {
        Err(format!("session not reproduced: {first:?} then {again:?}"))
    }
}

/// Every later campus round must repeat the first round's digest and
/// every session outcome.
pub fn check_round(first: (u64, &[Outcome]), again: (u64, &[Outcome])) -> Result<(), String> {
    if first.0 != again.0 {
        return Err(format!(
            "campus digest {:#018x} then {:#018x}",
            first.0, again.0
        ));
    }
    if first.1.len() != again.1.len() {
        return Err(format!("{} sessions then {}", first.1.len(), again.1.len()));
    }
    first
        .1
        .iter()
        .zip(again.1)
        .try_for_each(|(a, b)| check_reproduced(a, b))
}

/// A completed session must have delivered at least its clips.
pub fn check_delivery(outcome: &Outcome, lesson: &CampusWorkload) -> Result<(), String> {
    let clips: u64 = lesson.media.iter().map(|m| m.data.len() as u64).sum();
    if outcome.failed || outcome.bytes >= clips {
        Ok(())
    } else {
        Err(format!(
            "student {} completed with {} bytes, below its {clips} clip bytes",
            outcome.student, outcome.bytes
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(student: usize) -> Outcome {
        Outcome {
            student,
            bytes: 140_000,
            session_us: 12_345,
            failed: false,
        }
    }

    #[test]
    fn the_pinned_digest_is_checked_only_at_the_default_seed() {
        for (name, pinned) in PINNED_DIGESTS {
            assert!(check_digest(name, DEFAULT_SEED, pinned).is_ok());
            assert!(check_digest(name, DEFAULT_SEED, pinned ^ 1).is_err());
            assert!(check_digest(name, DEFAULT_SEED + 1, pinned ^ 1).is_ok());
        }
        assert!(check_digest("unknown", DEFAULT_SEED, 0).is_err());
    }

    #[test]
    fn a_tampered_sample_is_not_reproduced() {
        let a = outcome(3);
        assert!(check_reproduced(&a, &a).is_ok());
        for b in [
            Outcome {
                bytes: a.bytes + 1,
                ..a
            },
            Outcome {
                session_us: a.session_us - 1,
                ..a
            },
            Outcome { failed: true, ..a },
            Outcome { student: 4, ..a },
        ] {
            assert!(check_reproduced(&a, &b).is_err(), "{b:?}");
        }
    }

    #[test]
    fn a_completed_session_must_deliver_its_clips() {
        let w = crate::workloads::Workload::generate("lossy_lecture", DEFAULT_SEED).unwrap();
        let lesson = w.lesson(0);
        let clips: u64 = lesson.media.iter().map(|m| m.data.len() as u64).sum();
        let done = Outcome {
            bytes: clips,
            ..outcome(0)
        };
        assert!(check_delivery(&done, lesson).is_ok());
        let short = Outcome {
            bytes: clips - 1,
            ..done
        };
        assert!(check_delivery(&short, lesson).is_err());
        let failed = Outcome {
            failed: true,
            ..short
        };
        assert!(check_delivery(&failed, lesson).is_ok());
    }

    #[test]
    fn a_round_must_repeat_the_first() {
        let first: Vec<Outcome> = (0..5).map(outcome).collect();
        let mut again = first.clone();
        assert!(check_round((9, &first), (9, &again)).is_ok());
        assert!(check_round((9, &first), (8, &again)).is_err());
        again[2].session_us += 1;
        assert!(check_round((9, &first), (9, &again)).is_err());
        assert!(check_round((9, &first), (9, &first[..4])).is_err());
    }
}
