//! The benchmark's workloads: seeded inputs plus the campus shape each
//! one runs with. Every input is a pure function of the workload seed;
//! the simulator sees only the generated courseware and configs.

use bytes::Bytes;
use mits_atm::{FaultPlan, LinkFaults};
use mits_core::{
    fault_storm_slos, sharded_workloads, Campus, CampusWorkload, FaultStorm, SystemConfig,
};
use mits_media::{MediaFormat, MediaId, MediaObject, VideoDims};
use mits_mheg::{ClassLibrary, GenericValue, MhegId};
use mits_sim::{derive_seed, SimDuration, SimTime, FLIGHT_RING_CAP};

/// The seed a run uses when none is given; the pinned campus digests
/// in [`crate::checks::PINNED_DIGESTS`] are taken at this seed.
pub const DEFAULT_SEED: u64 = 42;

/// A seed kept out of all tuning. A change that claims a gain confirms
/// it on this seed as well as on the seeds it was developed against.
pub const HELD_OUT_SEED: u64 = 20_261_017;

/// Workload names in the order the benchmark documents them.
pub const NAMES: [&str; 3] = ["course_catalogue", "lossy_lecture", "shard_failover"];

/// How every session of a workload sees the network and the store.
#[derive(Debug, Clone)]
pub enum Net {
    /// One shard, no faults.
    Calm,
    /// One shard, this independent per-cell loss on every link.
    Lossy(f64),
    /// Sharded store with one replica per shard under a fault storm.
    Storm(FaultStorm),
}

impl Net {
    /// Applies this network to a session's base config.
    pub fn configure(&self, base: SystemConfig) -> SystemConfig {
        match self {
            Net::Calm => base,
            Net::Lossy(p) => base.with_fault_plan(FaultPlan::uniform(LinkFaults::loss(*p))),
            Net::Storm(storm) => storm.apply(base),
        }
    }
}

/// One named workload with its generated inputs.
pub struct Workload {
    /// Workload name as given on the command line.
    pub name: &'static str,
    /// Students in one campus run.
    pub students: usize,
    /// Campus worker threads.
    pub threads: usize,
    /// The courseware rotation: student `i` fetches
    /// `lessons[i % lessons.len()]`.
    pub lessons: Vec<CampusWorkload>,
    /// Network and store shape of every session.
    pub net: Net,
}

impl Workload {
    /// Generates workload `name`'s inputs from `seed`; `None` for an
    /// unknown name.
    pub fn generate(name: &str, seed: u64) -> Option<Workload> {
        let mut rng = SplitMix64(seed);
        Some(match name {
            "course_catalogue" => Workload {
                name: "course_catalogue",
                students: 1000,
                threads: 1,
                lessons: course_catalogue(&mut rng),
                net: Net::Calm,
            },
            "lossy_lecture" => Workload {
                name: "lossy_lecture",
                students: 2000,
                threads: 1,
                lessons: vec![lecture(&mut rng)],
                net: Net::Lossy(2e-3),
            },
            "shard_failover" => Workload {
                name: "shard_failover",
                students: 3000,
                threads: 2,
                lessons: shard_lessons(&mut rng),
                net: Net::Storm(storm()),
            },
            _ => return None,
        })
    }

    /// The campus of `students` sessions this workload runs at `seed`.
    pub fn campus(&self, students: usize, seed: u64) -> Campus {
        let net = self.net.clone();
        let campus = Campus::new(students, seed)
            .threads(self.threads)
            .workloads(self.lessons.clone())
            .configure_sessions(move |_, base| net.configure(base));
        match &self.net {
            Net::Storm(storm) => campus
                .slos(fault_storm_slos(1.0 / storm.shards as f64))
                .fault_schedule(storm.schedule()),
            _ => campus,
        }
    }

    /// The config the campus runner gives `student`'s session, rebuilt
    /// from public pieces so a traced repeat runs the same session.
    pub fn session_config(&self, seed: u64, student: usize) -> SystemConfig {
        let base = SystemConfig::broadband(1)
            .with_seed(derive_seed(seed, student as u64))
            .with_flight_ring(FLIGHT_RING_CAP);
        self.net.configure(base)
    }

    /// The courseware `student` fetches.
    pub fn lesson(&self, student: usize) -> &CampusWorkload {
        &self.lessons[student % self.lessons.len()]
    }
}

/// 100 lessons in one catalogue. Each lesson is a container over four
/// value contents, so the catalogue holds 500 MHEG objects, and two
/// clips of 14–18 KiB. Every session publishes the whole catalogue and
/// fetches one lesson: a 5-object closure and its two clips. The seed
/// sets the texts, clip sizes and payloads, and which lesson each
/// student opens.
fn course_catalogue(rng: &mut SplitMix64) -> Vec<CampusWorkload> {
    const LESSONS: usize = 100;
    let mut lib = ClassLibrary::new(1);
    let mut lessons: Vec<(MhegId, Vec<MediaObject>)> = (0..LESSONS)
        .map(|k| {
            let values = (0..4)
                .map(|j| {
                    let text = rng.text(16, 48);
                    lib.value_content(&format!("lesson{k}.part{j}"), GenericValue::Str(text))
                })
                .collect();
            let root = lib.container(&format!("Lesson {k}"), values);
            let clips = (0..2)
                .map(|c| {
                    let bytes = rng.range(14 << 10, 18 << 10);
                    clip(
                        rng,
                        0x0A00_0000 + (k * 2 + c) as u64,
                        format!("lesson{k}-clip{c}.mpg"),
                        bytes,
                    )
                })
                .collect();
            (root, clips)
        })
        .collect();
    rng.shuffle(&mut lessons);
    let objects = lib.into_objects();
    lessons
        .into_iter()
        .map(|(root, media)| CampusWorkload {
            objects: objects.clone(),
            media,
            root,
        })
        .collect()
}

/// One lesson (a container over four value contents) and two 64 KiB
/// clips with seeded payloads.
fn lecture(rng: &mut SplitMix64) -> CampusWorkload {
    let mut lib = ClassLibrary::new(1);
    let values = (0..4)
        .map(|j| {
            let text = rng.text(16, 48);
            lib.value_content(&format!("lecture.part{j}"), GenericValue::Str(text))
        })
        .collect();
    let root = lib.container("Lecture", values);
    let media = (0..2)
        .map(|c| {
            clip(
                rng,
                0x0B00_0000 + c,
                format!("lecture-clip{c}.mpg"),
                64 << 10,
            )
        })
        .collect();
    CampusWorkload {
        objects: lib.into_objects(),
        media,
        root,
    }
}

/// `sharded_workloads(3, 2, 64 KiB)` with seeded clip payloads of
/// 63–65 KiB. Media ids, and so shard placement, are unchanged.
fn shard_lessons(rng: &mut SplitMix64) -> Vec<CampusWorkload> {
    let mut lessons = sharded_workloads(3, 2, 64 << 10);
    for lesson in &mut lessons {
        for m in &mut lesson.media {
            let bytes = rng.range(60 << 10, 64 << 10);
            *m = clip(rng, m.id.0, m.name.clone(), bytes);
        }
    }
    lessons
}

/// Shard 1's primary and standby crash at 2 ms and the shard's links
/// stay down until 500 ms, when the primary restarts and replays its
/// write-ahead log.
fn storm() -> FaultStorm {
    let mut storm = FaultStorm::new(3, 1, SimTime::from_millis(2), SimTime::from_millis(500));
    storm.restart_at = Some(SimTime::from_millis(500));
    storm
}

fn clip(rng: &mut SplitMix64, id: u64, name: String, bytes: usize) -> MediaObject {
    let mut data = Vec::with_capacity(bytes + 8);
    while data.len() < bytes {
        data.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    data.truncate(bytes);
    MediaObject::new(
        MediaId(id),
        name,
        MediaFormat::Mpeg,
        SimDuration::from_secs(1),
        VideoDims::new(160, 120),
        Bytes::from(data),
    )
}

/// SplitMix64: the benchmark's input generator.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    fn text(&mut self, min: usize, max: usize) -> String {
        let len = self.range(min, max);
        (0..len)
            .map(|_| (b'a' + (self.next_u64() % 26) as u8) as char)
            .collect()
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.range(0, i));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        for name in NAMES {
            let a = Workload::generate(name, 7).unwrap();
            let b = Workload::generate(name, 7).unwrap();
            let c = Workload::generate(name, 8).unwrap();
            let media = |w: &Workload| -> Vec<u64> {
                w.lessons
                    .iter()
                    .flat_map(|l| l.media.iter().map(|m| m.checksum))
                    .collect()
            };
            assert_eq!(media(&a), media(&b), "{name}");
            assert_ne!(media(&a), media(&c), "{name}");
        }
        assert!(Workload::generate("nope", 7).is_none());
    }

    #[test]
    fn the_catalogue_has_the_documented_shape() {
        let w = Workload::generate("course_catalogue", DEFAULT_SEED).unwrap();
        assert_eq!(w.lessons.len(), 100);
        let roots: std::collections::BTreeSet<_> = w.lessons.iter().map(|l| l.root).collect();
        assert_eq!(roots.len(), 100, "every lesson is a distinct root");
        for l in &w.lessons {
            assert_eq!(l.objects.len(), 500);
            assert_eq!(l.media.len(), 2);
            assert!(l
                .media
                .iter()
                .all(|m| (14 << 10..=18 << 10).contains(&m.data.len())));
        }
    }
}
