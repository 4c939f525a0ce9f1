//! The traced run: each session repeated through the simulator's public
//! calls, in the order the campus runner makes them, with a host-time
//! span around every call into a layer.

use crate::checks::Outcome;
use crate::workloads::Workload;
use mits_core::{CampusWorkload, ClientId, MitsSystem};
use mits_db::{DbServer, Request, Response};
use mits_sim::SimDuration;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The layer spans of one session, children of its `campus.session`
/// span, in call order.
pub const LAYERS: [&str; 6] = [
    "core.build",
    "db.publish",
    "core.fetch",
    "db.state_digest",
    "sim.export",
    "core.teardown",
];

/// One host-time span. Spans of one session share `student`; `parent`
/// indexes the span that caused this one.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub student: usize,
    pub parent: Option<usize>,
    /// Nanoseconds since the log's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Spans kept in memory until the run ends.
pub struct SpanLog {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl SpanLog {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`SpanLog::close`].
    pub fn open(&mut self, name: &'static str, student: usize, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            student,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        student: usize,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, student, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Mean microseconds per distinct student of spans named `name`.
    pub fn mean_us(&self, name: &str) -> f64 {
        let per: Vec<f64> = self.totals(name).into_values().collect();
        crate::stats::ratio(per.iter().sum(), per.len() as f64)
    }

    /// Total microseconds of spans named `name`, per student.
    fn totals(&self, name: &str) -> BTreeMap<usize, f64> {
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *out.entry(s.student).or_insert(0.0) += s.micros();
        }
        out
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"student\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.student, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Repeats `student`'s session the way the campus runner runs it,
/// spanning each layer call. Returns the session's outcome; a fetched
/// object or clip that differs from the published input is an error.
pub fn traced_session(
    w: &Workload,
    seed: u64,
    student: usize,
    scratch: mits_core::system::SessionScratch,
    log: &mut SpanLog,
) -> Result<(Outcome, mits_core::system::SessionScratch), String> {
    let lesson = w.lesson(student);
    let config = w.session_config(seed, student);
    let session_span = log.open("campus.session", student, None);
    let parent = Some(session_span);
    let mut sys = log
        .span("core.build", student, parent, || {
            MitsSystem::build_with_scratch(&config, scratch)
        })
        .map_err(|e| format!("student {student}: build failed: {e}"))?;
    log.span("db.publish", student, parent, || {
        sys.load_doc(&lesson.objects, &lesson.media, lesson.root)
    });

    // The campus runner fetches under a root tracer span; request spans
    // travel on the wire, so the repeat opens the same root.
    let root = sys.tracer.root_span("campus.session", sys.now());
    sys.tracer.push_context(root);
    let fetched = log.span("core.fetch", student, parent, || fetch(&mut sys, lesson));
    let end_at = sys.now();
    sys.tracer.pop_context();
    sys.tracer.end(root, end_at);
    let (session, failed) = fetched?;
    let bytes = sys.bytes_to_client(ClientId(0));

    log.span("db.state_digest", student, parent, || {
        sys.db().state_digest()
    });
    log.span("sim.export", student, parent, || {
        sys.export_metrics();
        sys.metrics.snapshot()
    });
    let scratch = log.span("core.teardown", student, parent, || sys.into_scratch());
    log.close(session_span);
    Ok((
        Outcome {
            student,
            bytes,
            session_us: session.as_micros(),
            failed,
        },
        scratch,
    ))
}

/// The session's fetches in the campus runner's order: the courseware
/// closure, then every clip, stopping at the first failure. Returns the
/// simulated session time and whether the session failed; data that
/// arrives must equal what was published.
fn fetch(sys: &mut MitsSystem, lesson: &CampusWorkload) -> Result<(SimDuration, bool), String> {
    let student = ClientId(0);
    let (objects, mut session) = match sys.fetch_courseware(student, lesson.root) {
        Ok(got) => got,
        Err(_) => return Ok((SimDuration::ZERO, true)),
    };
    if !objects.iter().any(|o| o.id == lesson.root) {
        return Err(format!(
            "courseware closure lacks its root {:?}",
            lesson.root
        ));
    }
    for m in &lesson.media {
        match sys.fetch_content(student, m.id) {
            Ok((got, t)) => {
                if got.data != m.data {
                    return Err(format!("clip {:?} arrived altered", m.id));
                }
                session += t;
            }
            Err(_) => return Ok((session, true)),
        }
    }
    Ok((session, false))
}

/// Standalone database servers, one per lesson, loaded with the same
/// inputs the sessions publish; `db.serve` replays a session's reads
/// against them without the network.
#[derive(Default)]
pub struct ServeReplay {
    servers: BTreeMap<usize, DbServer>,
}

impl ServeReplay {
    /// Replays `student`'s `GetCourseware` and `GetContent` requests
    /// through `DbServer::handle` inside a `db.serve` span.
    pub fn replay(
        &mut self,
        w: &Workload,
        student: usize,
        log: &mut SpanLog,
    ) -> Result<(), String> {
        let index = student % w.lessons.len();
        let lesson = &w.lessons[index];
        let server = self.servers.entry(index).or_insert_with(|| {
            let db = DbServer::default();
            db.load_objects(lesson.objects.iter().cloned());
            db.load_media(lesson.media.iter().cloned());
            db
        });
        let requests: Vec<Request> = std::iter::once(Request::GetCourseware { root: lesson.root })
            .chain(
                lesson
                    .media
                    .iter()
                    .map(|m| Request::GetContent { media: m.id }),
            )
            .collect();
        let responses = log.span("db.serve", student, None, || {
            requests
                .iter()
                .map(|r| server.handle(r).0)
                .collect::<Vec<_>>()
        });
        match responses.iter().find(|r| matches!(r, Response::Err(_))) {
            Some(err) => Err(format!(
                "student {student}: standalone server answered {err:?}"
            )),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_means_are_per_student_totals() {
        let mut log = SpanLog::default();
        for (student, us) in [(0, 10), (0, 30), (1, 20)] {
            let id = log.open("core.fetch", student, None);
            log.spans[id].end_ns = log.spans[id].start_ns + us * 1000;
        }
        assert!((log.mean_us("core.fetch") - 30.0).abs() < 1e-9);
        assert_eq!(log.mean_us("absent"), 0.0);
        assert_eq!(log.to_jsonl().lines().count(), 3);
    }
}
