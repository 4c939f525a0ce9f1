//! A forked server against a freshly loaded one. A campus publishes each
//! lesson once and forks the result into every session, so a fork must
//! be indistinguishable from a server the session loaded itself, and a
//! write to a fork must never reach the server it was forked from or a
//! sibling fork.

use bytes::Bytes;
use mits_db::{
    DbServer, LogDevice, Request, RequestKind, Response, ServiceModel, SharedLogDevice, WalRecord,
};
use mits_media::{MediaFormat, MediaId, MediaObject, VideoDims};
use mits_mheg::{ClassLibrary, GenericValue, MhegId, MhegObject, ObjectInfo};
use mits_sim::{MetricsRegistry, SimDuration};

/// A server with the devices its journal and checkpoints live on.
struct Node {
    db: DbServer,
    wal: SharedLogDevice,
    snap: SharedLogDevice,
}

impl Node {
    /// A durable server loaded with the course, the way a session used to
    /// publish it.
    fn loaded() -> Node {
        let (wal, snap) = (SharedLogDevice::new(), SharedLogDevice::new());
        let db = DbServer::default().with_durability(Box::new(wal.clone()), Box::new(snap.clone()));
        let (objects, media, _) = course();
        db.load_objects(objects);
        db.load_media(media);
        Node { db, wal, snap }
    }

    /// A fork of this server over forks of its devices.
    fn fork(&self) -> Node {
        let (wal, snap) = (self.wal.fork(), self.snap.fork());
        let db = self.db.fork(Box::new(wal.clone()), Box::new(snap.clone()));
        Node { db, wal, snap }
    }

    /// Everything a session or an operator can observe of the server.
    fn observed(&self) -> Observed {
        let reg = MetricsRegistry::new();
        self.db.export_metrics(&reg, "db");
        Observed {
            digest: self.db.state_digest(),
            wal: self.wal.snapshot(),
            snap: self.snap.snapshot(),
            next_seq: self.db.wal_next_seq(),
            metrics: reg.to_json(),
        }
    }

    /// Recovery from a copy of this server's devices.
    fn recover(&self) -> (DbServer, u64) {
        let (db, report) = DbServer::recover(
            ServiceModel::default(),
            None,
            Box::new(SharedLogDevice::with_data(self.wal.snapshot())),
            Box::new(SharedLogDevice::with_data(self.snap.snapshot())),
        );
        (db, report.replayed_bytes())
    }
}

#[derive(Debug, PartialEq)]
struct Observed {
    digest: u64,
    wal: Vec<u8>,
    snap: Vec<u8>,
    next_seq: u64,
    metrics: String,
}

/// The course's objects, media and root container.
fn course() -> (Vec<MhegObject>, Vec<MediaObject>, MhegId) {
    let mut lib = ClassLibrary::new(1);
    let a = lib.value_content("a", GenericValue::Int(1));
    let b = lib.value_content("b", GenericValue::Str("two".into()));
    let scene = lib.composite("scene", vec![a, b], vec![], vec![]);
    let course = lib.container("ATM Course", vec![scene]);
    let mut objects = lib.into_objects();
    for o in &mut objects {
        if o.id == course {
            o.info = ObjectInfo::named("ATM Course").with_keywords(["telecom/atm", "networks"]);
        }
    }
    (objects, vec![clip(7, 6_000), clip(8, 3_000)], course)
}

fn root() -> MhegId {
    course().2
}

fn clip(id: u64, bytes: usize) -> MediaObject {
    MediaObject::new(
        MediaId(id),
        format!("clip{id}.mpg"),
        MediaFormat::Mpeg,
        SimDuration::from_secs(1),
        VideoDims::new(160, 120),
        Bytes::from(vec![id as u8; bytes]),
    )
}

/// One request of every kind, reads before writes.
fn every_request() -> Vec<Request> {
    let root = root();
    let mut fresh = ClassLibrary::new(2);
    let id = fresh.value_content("new", GenericValue::Int(9));
    let mut object = fresh.get(id).expect("built").clone();
    object.info.keywords = vec!["telecom/isdn".into()];
    let requests = vec![
        Request::ListDocs,
        Request::GetDoc {
            name: "ATM Course".into(),
        },
        Request::GetObject { id: root },
        Request::GetCourseware { root },
        Request::GetContent { media: MediaId(7) },
        Request::GetKeywordTree,
        Request::QueryKeyword {
            keyword: "telecom".into(),
            subtree: true,
        },
        Request::PutObject { object },
        Request::PutContent {
            media: clip(9, 1_000),
        },
    ];
    let mut kinds: Vec<RequestKind> = requests.iter().map(Request::kind).collect();
    kinds.sort();
    assert_eq!(kinds, RequestKind::ALL, "one request of every kind");
    requests
}

#[test]
fn a_fork_is_indistinguishable_from_a_fresh_load() {
    let fresh = Node::loaded();
    let template = Node::loaded();
    template.db.state_digest(); // the fork inherits the cached digest
    let fork = template.fork();
    assert_eq!(fork.observed(), fresh.observed());
    assert!(!fork.wal.snapshot().is_empty(), "the publish is journaled");
    for req in every_request() {
        let (want, want_cost) = fresh.db.handle(&req);
        let (got, got_cost) = fork.db.handle(&req);
        assert_eq!(got, want, "{:?}", req.kind());
        assert_eq!(got_cost, want_cost, "{:?}", req.kind());
        assert!(
            !matches!(got, Response::Err(_)),
            "{:?}: {got:?}",
            req.kind()
        );
        assert_eq!(fork.observed(), fresh.observed(), "after {:?}", req.kind());
    }
}

#[test]
fn process_settings_are_not_inherited() {
    let db = DbServer::default().with_overload_threshold(1);
    db.set_epoch(4);
    db.set_shipping(true);
    db.load_objects(course().0);
    let fork = db.fork(
        Box::new(SharedLogDevice::new()),
        Box::new(SharedLogDevice::new()),
    );
    assert_eq!(fork.overload_threshold(), None);
    assert_eq!(fork.epoch(), 0);
    assert!(!fork.is_shipping());
    assert!(
        !fork.is_durable(),
        "a fork of a volatile server stays volatile"
    );
    assert_eq!(fork.state_digest(), db.state_digest());
}

/// Applies one kind of write to `node`.
type Write = fn(&Node);

fn writes() -> Vec<(&'static str, Write)> {
    vec![
        ("put_object", |n| {
            let obj = n.db.objects.get(root()).expect("loaded");
            n.db.put_object(obj);
        }),
        ("remove_object", |n| {
            assert!(n.db.remove_object(root()));
        }),
        ("apply_shipped", |n| {
            let mut obj = n.db.objects.get(root()).expect("loaded");
            obj.info.version += 1;
            let payload = WalRecord::PutObject { object: obj }.encode();
            let frame = mits_db::encode_frame(n.db.wal_next_seq(), &payload);
            assert!(n.db.apply_shipped(&frame).expect("valid frame"));
        }),
        ("checkpoint", |n| {
            n.db.checkpoint().expect("durable");
        }),
        ("torn-tail truncation", |n| {
            // A crash tore the journal's last frame; recovery truncates
            // the tail off the fork's own device.
            let mut wal = n.wal.clone();
            let len = wal.len();
            wal.truncate_to(len - 3);
            let (db, report) = DbServer::recover(
                ServiceModel::default(),
                None,
                Box::new(n.wal.clone()),
                Box::new(n.snap.clone()),
            );
            assert!(report.torn_tail);
            assert!(n.wal.len() < len - 3, "torn frame truncated away");
            assert_ne!(db.state_digest(), n.db.state_digest());
        }),
    ]
}

#[test]
fn writes_to_a_fork_stay_in_that_fork() {
    for (name, write) in writes() {
        let template = Node::loaded();
        let before = template.observed();
        let fork = template.fork();
        let sibling = template.fork();
        write(&fork);
        assert_ne!(fork.observed(), before, "{name} changed the fork");
        assert_eq!(
            template.observed(),
            before,
            "{name} leaked into the template"
        );
        assert_eq!(sibling.observed(), before, "{name} leaked into a sibling");
        assert_eq!(
            template.db.handle(&Request::GetKeywordTree).0,
            sibling.db.handle(&Request::GetKeywordTree).0
        );
    }
}

#[test]
fn the_digest_cache_follows_every_write() {
    // Truncating the device leaves the running server's state alone.
    for (name, write) in writes().into_iter().filter(|(n, _)| !n.starts_with("torn")) {
        let fork = Node::loaded().fork();
        fork.db.state_digest();
        write(&fork);
        // A server rebuilt from the fork's devices holds what the fork
        // holds, and its digest is computed from scratch.
        let (rebuilt, _) = fork.recover();
        assert_eq!(fork.db.state_digest(), rebuilt.state_digest(), "{name}");
    }
}

#[test]
fn recovery_from_a_fork_matches_recovery_from_a_fresh_load() {
    let fresh = Node::loaded();
    let template = Node::loaded();
    let fork = template.fork();
    let (from_fresh, fresh_bytes) = fresh.recover();
    let (from_fork, fork_bytes) = fork.recover();
    assert_eq!(from_fork.state_digest(), from_fresh.state_digest());
    assert_eq!(from_fork.state_digest(), fresh.db.state_digest());
    assert_eq!(fork_bytes, fresh_bytes, "same recovery latency");
    assert!(fork_bytes > 0);
    // The same after both took a write and a checkpoint.
    for node in [&fresh, &fork] {
        let obj = node.db.objects.get(root()).expect("loaded");
        node.db.put_object(obj);
        node.db.checkpoint().expect("durable");
        node.db.remove_object(root());
    }
    let (from_fresh, fresh_bytes) = fresh.recover();
    let (from_fork, fork_bytes) = fork.recover();
    assert_eq!(from_fork.state_digest(), from_fresh.state_digest());
    assert_eq!(fork_bytes, fresh_bytes);
    assert_eq!(from_fork.wal_next_seq(), fork.db.wal_next_seq());
}
