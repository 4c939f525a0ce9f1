//! Campus lifecycle integration tests: the determinism contract of the
//! memory-bounded runner across thread counts, its bounded merge
//! frontier, and retire-under-fault.
//!
//! The campus digest is the repo's best regression tripwire — it folds
//! every session's observables in student-index order, so any
//! scheduling leak (worker identity, completion order) shows up as a
//! digest mismatch between thread counts.

use bytes::Bytes;
use mits::core::{
    Campus, CampusRollup, CampusWorkload, ClientId, MitsSystem, ReportSink, SessionReport,
    SystemConfig,
};
use mits::db::RetryPolicy;
use mits::media::{MediaFormat, MediaId, MediaObject, VideoDims};
use mits::mheg::{ClassLibrary, GenericValue};
use mits::sim::{SimDuration, SimTime};

fn workload(clips: usize, clip_bytes: usize) -> CampusWorkload {
    let mut lib = ClassLibrary::new(1);
    let v = lib.value_content("v", GenericValue::Int(1));
    let root = lib.container("Course", vec![v]);
    let media = (0..clips)
        .map(|i| {
            let data: Vec<u8> = (0..clip_bytes)
                .map(|j| ((i * 13 + j * 5) % 251) as u8)
                .collect();
            MediaObject::new(
                MediaId(700 + i as u64),
                format!("clip{i}.mpg"),
                MediaFormat::Mpeg,
                SimDuration::from_secs(1),
                VideoDims::new(160, 120),
                Bytes::from(data),
            )
        })
        .collect();
    CampusWorkload {
        objects: lib.into_objects(),
        media,
        root,
    }
}

/// Determinism at 1k students: the digest, merged metrics and
/// sampled-trace bundle must be byte-identical on 1, 2 and 8 threads
/// (batches finish in any order; the frontier merge must hide it).
#[test]
fn thousand_students_are_deterministic_across_thread_counts() {
    let students = 1000;
    let w = workload(1, 2048);
    let base = Campus::new(students, 42)
        .threads(1)
        .workload(w.clone())
        .run()
        .unwrap();
    assert_eq!(base.students, students);
    assert_eq!(
        base.metrics.counter("campus.sessions"),
        Some(students as u64)
    );

    for threads in [2, 8] {
        let r = Campus::new(students, 42)
            .threads(threads)
            .workload(w.clone())
            .run()
            .unwrap();
        assert_eq!(base.digest, r.digest, "digest drifted at threads={threads}");
        assert_eq!(base.bytes, r.bytes);
        assert_eq!(
            base.metrics.to_json(),
            r.metrics.to_json(),
            "metrics drifted at threads={threads}"
        );
        assert_eq!(
            base.traces_jsonl(),
            r.traces_jsonl(),
            "traces drifted at threads={threads}"
        );
    }
}

/// Keeps the rollup a campus run ends with.
#[derive(Default)]
struct RollupSink(Option<CampusRollup>);

impl ReportSink for RollupSink {
    fn rollup(&mut self, rollup: &CampusRollup) {
        self.0 = Some(rollup.clone());
    }
}

/// Workers claim batches in index order, so the merge frontier parks
/// only batches finished while an earlier one is still running — not a
/// worker's whole span. On 4 threads the peak stays under half the
/// run's batches, and the results equal the 1-thread run's.
#[test]
fn merge_frontier_stays_small_on_four_threads() {
    let students: usize = 2000;
    let threads = 4;
    // The auto batch size: a quarter of a worker's share, at most 64.
    let batches = students.div_ceil((students / (threads * 4)).clamp(1, 64));
    let run = |threads: usize| {
        let mut sink = RollupSink::default();
        Campus::new(students, 42)
            .threads(threads)
            .workload(workload(1, 2048))
            .run_with(&mut sink)
            .unwrap();
        sink.0.expect("a completed run rolls up")
    };
    let serial = run(1);
    assert_eq!(serial.merge_backlog_max, 0, "one worker never parks");
    let wide = run(threads);
    assert_eq!(wide.threads, threads);
    assert!(
        wide.merge_backlog_max <= batches / 2,
        "{} of {batches} batches parked at peak",
        wide.merge_backlog_max
    );
    assert_eq!(serial.digest, wide.digest);
    assert_eq!(serial.metrics.to_json(), wide.metrics.to_json());
}

/// A session that dies mid-run (its database server crashes and never
/// restarts) still retires: the campus completes, the failure is
/// counted and folded into the digest, the dead session's trace is
/// tail-sampled — and all of it is thread-count invariant.
#[test]
fn crashed_session_retires_and_folds_into_the_rollup() {
    let w = workload(1, 2048);
    let campus = |threads: usize| {
        Campus::new(6, 77)
            .threads(threads)
            .workload(w.clone())
            .trace_sample_rate(0.0) // only tail sampling below
            .configure_sessions(|spec, config| {
                if spec.student == 3 {
                    // Student 3's server dies before the first fetch and
                    // never comes back; the bounded retry deadline turns
                    // that into a session failure instead of an endless
                    // ARQ storm.
                    config
                        .with_retry(
                            RetryPolicy::interactive().with_deadline(SimDuration::from_secs(2)),
                        )
                        .with_crash(SimTime::from_millis(1), 0)
                } else {
                    config
                }
            })
    };

    let base = campus(1).run().unwrap();
    assert_eq!(base.students, 6, "campus must complete despite the crash");
    assert_eq!(base.sessions_failed, 1);
    assert_eq!(base.metrics.counter("campus.sessions_failed"), Some(1));
    assert_eq!(base.metrics.counter("campus.sessions"), Some(6));
    assert_eq!(
        base.traces.len(),
        1,
        "the dead session must be tail-sampled"
    );
    assert_eq!(base.traces[0].student, 3);

    for threads in [2, 8] {
        let r = campus(threads).run().unwrap();
        assert_eq!(base.digest, r.digest, "threads={threads}");
        assert_eq!(base.metrics.to_json(), r.metrics.to_json());
        assert_eq!(base.traces_jsonl(), r.traces_jsonl());
        assert_eq!(r.sessions_failed, 1);
    }
}

/// The failure marker must reach the digest: a campus with the crash is
/// distinguishable from the same campus without it.
#[test]
fn failed_sessions_change_the_campus_digest() {
    let w = workload(1, 2048);
    let clean = Campus::new(4, 9)
        .threads(2)
        .workload(w.clone())
        .run()
        .unwrap();
    let faulty = Campus::new(4, 9)
        .threads(2)
        .workload(w.clone())
        .configure_sessions(|spec, config| {
            if spec.student == 2 {
                config
                    .with_retry(RetryPolicy::interactive().with_deadline(SimDuration::from_secs(2)))
                    .with_crash(SimTime::from_millis(1), 0)
            } else {
                config
            }
        })
        .run()
        .unwrap();
    assert_eq!(clean.sessions_failed, 0);
    assert_eq!(faulty.sessions_failed, 1);
    assert_ne!(clean.digest, faulty.digest);
}

/// A catalogue: `lessons` workloads over one shared object set, each
/// lesson a container of its own with one clip of its own — the shape
/// in which every lesson's published image holds the same objects.
fn catalogue(lessons: usize) -> Vec<CampusWorkload> {
    let mut lib = ClassLibrary::new(1);
    let roots: Vec<_> = (0..lessons)
        .map(|k| {
            let v = lib.value_content(&format!("lesson{k}.text"), GenericValue::Int(k as i64));
            lib.container(&format!("Lesson {k}"), vec![v])
        })
        .collect();
    let objects = lib.into_objects();
    roots
        .into_iter()
        .enumerate()
        .map(|(k, root)| {
            let mut w = workload(0, 0);
            w.objects = objects.clone();
            w.root = root;
            w.media = workload(1, 1024 + 97 * k).media;
            w.media[0].id = MediaId(900 + k as u64);
            w
        })
        .collect()
}

/// Sessions run over forks of one published image per lesson, built the
/// first time a student opens the lesson. Which worker builds an image,
/// and when, must not reach any result: with students both fewer and
/// more than lessons, the digest and merged metrics are identical on 1
/// and 2 threads.
#[test]
fn published_images_are_schedule_invariant_on_a_catalogue() {
    let lessons = catalogue(12);
    for students in [5, 40] {
        let run = |threads: usize| {
            Campus::new(students, 2026)
                .threads(threads)
                .workloads(lessons.clone())
                .run()
                .unwrap()
        };
        let base = run(1);
        assert_eq!(base.sessions_failed, 0);
        assert_eq!(
            base.metrics.counter("campus.sessions"),
            Some(students as u64)
        );
        let r = run(2);
        assert_eq!(base.digest, r.digest, "{students} students, threads=2");
        assert_eq!(base.metrics.to_json(), r.metrics.to_json());
    }
}

/// Sessions of one lesson may run over different store layouts; each
/// layout gets its own image, and the result is still schedule-invariant.
#[test]
fn images_are_keyed_by_store_layout() {
    let run = |threads: usize| {
        Campus::new(12, 3)
            .threads(threads)
            .workloads(catalogue(2))
            .configure_sessions(|spec, config| match spec.student % 3 {
                0 => config,
                1 => config.with_shards(3),
                _ => config.with_shards(3).with_replica(),
            })
            .run()
            .unwrap()
    };
    let base = run(1);
    assert_eq!(base.sessions_failed, 0);
    let r = run(2);
    assert_eq!(base.digest, r.digest);
    assert_eq!(base.metrics.to_json(), r.metrics.to_json());
}

/// Replay publishes the replayed student's lesson itself, so it is
/// faithful for a lesson no session of the replaying campus has opened.
#[test]
fn replay_is_faithful_for_a_lesson_not_yet_published() {
    struct Keep(usize, Option<SessionReport>);
    impl ReportSink for Keep {
        fn session(&mut self, r: &SessionReport) {
            if r.student == self.0 {
                self.1 = Some(r.clone());
            }
        }
    }
    let lessons = catalogue(12);
    let campus = || Campus::new(30, 7).threads(2).workloads(lessons.clone());
    // Student 29 opens lesson 5. A fresh campus that never ran has built
    // no image at all when it replays the captured session.
    let mut keep = Keep(29, None);
    campus().run_with(&mut keep).unwrap();
    let report = keep.1.expect("student 29 retired");
    let fresh = campus();
    let replayed = fresh.replay_bundle(&fresh.extract(&report)).unwrap();
    assert!(replayed.digest_match);
    assert_eq!(replayed.report.digest, report.digest);
    // A campus smaller than the catalogue replays too.
    let small = Campus::new(3, 7).threads(1).workloads(lessons.clone());
    let replayed = small.replay(2).unwrap();
    assert!(replayed.digest_match);
    assert_eq!(replayed.bundle.workload, 2);
}

/// An installed image is what publishing into the session would have
/// built, on one shard and on three shards with replicas; an image of
/// another store layout is refused.
#[test]
fn an_installed_image_equals_a_per_session_publish() {
    let lessons = catalogue(3);
    let w = &lessons[1];
    for config in [
        SystemConfig::broadband(1).with_seed(5),
        SystemConfig::broadband(1)
            .with_seed(5)
            .with_shards(3)
            .with_replica()
            .with_server_queue_limit(8),
    ] {
        let mut published = MitsSystem::build(&config).unwrap();
        published.load_doc(&w.objects, &w.media, w.root);
        let image = MitsSystem::publish_image(&config, &w.objects, &w.media, w.root).unwrap();
        let mut forked = MitsSystem::build(&config).unwrap();
        forked.install_image(&image).unwrap();
        for i in 0..published.server_count() {
            let (a, b) = (published.db_at(i), forked.db_at(i));
            assert_eq!(a.state_digest(), b.state_digest(), "server {i}");
            assert_eq!(a.wal_next_seq(), b.wal_next_seq(), "server {i}");
            assert_eq!(a.wal_device_len(), b.wal_device_len(), "server {i}");
            assert_eq!(a.overload_threshold(), b.overload_threshold());
            assert_eq!(a.is_shipping(), b.is_shipping(), "server {i}");
        }
        published.export_metrics();
        forked.export_metrics();
        assert_eq!(published.metrics.to_json(), forked.metrics.to_json());
        let (got, _) = forked.fetch_courseware(ClientId(0), w.root).unwrap();
        let (want, _) = published.fetch_courseware(ClientId(0), w.root).unwrap();
        assert_eq!(got, want);
    }
    let one_shard =
        MitsSystem::publish_image(&SystemConfig::broadband(1), &w.objects, &w.media, w.root)
            .unwrap();
    let mut sharded = MitsSystem::build(&SystemConfig::broadband(1).with_shards(3)).unwrap();
    assert!(sharded.install_image(&one_shard).is_err());
}
