//! Property tests for read-set-versioned cache invalidation soundness:
//! under generated interleavings of local reads, local/remote writes, and
//! chaotic sync deliveries (drops, reorderings, duplications — the E11
//! adversary), a cache hit never returns a response that differs from
//! fresh execution against the replica's current state.
//!
//! The cache is *allowed* to miss spuriously (extra invalidation is
//! harmless); what must never happen is a stale hit.

use edgstr_analysis::{EffectSummary, InitState, ReadUnit, ServerProcess, StateUnit};
use edgstr_core::CrdtBindings;
use edgstr_crdt::ActorId;
use edgstr_net::HttpRequest;
use edgstr_runtime::{
    resolve_reads, CacheKey, CrdtSet, ResponseCache, SetSyncMessage, SyncEndpoint,
};
use edgstr_telemetry::Telemetry;
use proptest::prelude::*;
use proptest::test_runner::TestCaseFailure;
use serde_json::json;

/// Small kv app exercising all three read-unit shapes: a row-keyed table
/// read (`/get`), a whole-table read (`/count`), and a global read
/// (`/hits`). `/put` upserts a row, touches a file, and mutates a global.
const APP: &str = r#"
    db.query("CREATE TABLE kv (k TEXT PRIMARY KEY, v INT)");
    db.query("INSERT INTO kv VALUES ('seed', 1)");
    var hits = 0;
    app.post("/put", function (req, res) {
        hits = hits + 1;
        db.query("DELETE FROM kv WHERE k = '" + req.body.k + "'");
        db.query("INSERT INTO kv VALUES ('" + req.body.k + "', " + req.body.v + ")");
        fs.writeFile("/latest.txt", req.body.k);
        res.send({ ok: hits });
    });
    app.get("/get", function (req, res) {
        var rows = db.query("SELECT v FROM kv WHERE k = '" + req.params.k + "'");
        res.send(rows);
    });
    app.get("/count", function (req, res) {
        var rows = db.query("SELECT COUNT(*) FROM kv");
        res.send(rows);
    });
    app.get("/hits", function (req, res) {
        res.send({ hits: hits });
    });
"#;

fn bindings() -> CrdtBindings {
    CrdtBindings::from_units([
        StateUnit::DbTable("kv".into()),
        StateUnit::File("/latest.txt".into()),
        StateUnit::Global("hits".into()),
    ])
}

fn init_state() -> InitState {
    let mut s = ServerProcess::from_source(APP).unwrap();
    s.init().unwrap();
    s.fs.write("/latest.txt", b"seed".to_vec());
    InitState::capture(&s)
}

fn make_node(actor: u64, init: &InitState) -> (ServerProcess, CrdtSet) {
    let mut s = ServerProcess::from_source(APP).unwrap();
    s.init().unwrap();
    init.restore(&mut s);
    let set = CrdtSet::initialize(ActorId(actor), &bindings(), init);
    (s, set)
}

/// What static analysis would derive for each read service — written by
/// hand here so the property isolates the *cache* layer, not the profiler.
fn summary_for(path: &str) -> EffectSummary {
    let reads = match path {
        "/get" => vec![ReadUnit::TableKeyed {
            table: "kv".into(),
            param: "k".into(),
        }],
        "/count" => vec![ReadUnit::Table("kv".into())],
        "/hits" => vec![ReadUnit::Global("hits".into())],
        other => panic!("no summary for {other}"),
    };
    EffectSummary {
        reads,
        writes: vec![],
        pure: true,
        cacheable: true,
    }
}

/// One step of a generated interleaving.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Upsert row `k{k}` at the edge.
    WriteEdge { k: u8, v: i8 },
    /// Upsert row `k{k}` at the cloud (only visible to the edge via sync).
    WriteCloud { k: u8, v: i8 },
    /// Row-keyed read at the edge, checked against the cache.
    ReadRow { k: u8 },
    /// Whole-table read at the edge, checked against the cache.
    ReadCount,
    /// Global read at the edge, checked against the cache.
    ReadHits,
    /// Perturb the edge→cloud sync queue.
    NetUp(NetEvent),
    /// Perturb the cloud→edge sync queue (the one that can stale the
    /// edge's cache).
    NetDown(NetEvent),
}

/// The E11 adversary's per-step action on the oldest in-flight message.
#[derive(Debug, Clone, Copy)]
enum NetEvent {
    Deliver,
    Drop,
    Duplicate,
    ReorderNewestFirst,
}

fn net_event() -> impl Strategy<Value = NetEvent> {
    prop_oneof![
        Just(NetEvent::Deliver),
        Just(NetEvent::Drop),
        Just(NetEvent::Duplicate),
        Just(NetEvent::ReorderNewestFirst),
    ]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..5, -9i8..9).prop_map(|(k, v)| Op::WriteEdge { k, v }),
        (0u8..5, -9i8..9).prop_map(|(k, v)| Op::WriteCloud { k, v }),
        (0u8..6).prop_map(|k| Op::ReadRow { k }),
        Just(Op::ReadCount),
        Just(Op::ReadHits),
        net_event().prop_map(Op::NetUp),
        net_event().prop_map(Op::NetDown),
    ]
}

/// Generate-and-perturb: enqueue a fresh delta from `src_set` via
/// `src_ep`, then let the adversary act on the queue, delivering into the
/// destination node when it chooses to.
fn perturb(
    queue: &mut Vec<SetSyncMessage>,
    event: NetEvent,
    dst_ep: &mut SyncEndpoint,
    dst_set: &mut CrdtSet,
    dst_srv: &mut ServerProcess,
) {
    match event {
        NetEvent::Deliver => {
            if !queue.is_empty() {
                let m = queue.remove(0);
                dst_ep.receive_owned(dst_set, dst_srv, m).unwrap();
            }
        }
        NetEvent::Drop => {
            if !queue.is_empty() {
                queue.remove(0);
            }
        }
        NetEvent::Duplicate => {
            if !queue.is_empty() {
                let m = queue.remove(0);
                dst_ep.receive(dst_set, dst_srv, &m).unwrap();
                dst_ep.receive(dst_set, dst_srv, &m).unwrap();
            }
        }
        NetEvent::ReorderNewestFirst => {
            if let Some(m) = queue.pop() {
                dst_ep.receive_owned(dst_set, dst_srv, m).unwrap();
            }
        }
    }
}

fn row_key(k: u8) -> String {
    if k == 5 {
        "seed".to_string()
    } else {
        format!("k{k}")
    }
}

/// The property's core move: look up the cache *before* executing, run the
/// service fresh, and require any hit to be bit-identical to the fresh
/// response; on a miss, fill with the read set's current version stamps.
fn checked_read(
    req: &HttpRequest,
    edge: &mut ServerProcess,
    edge_set: &CrdtSet,
    cache: &mut ResponseCache,
) -> Result<(), TestCaseFailure> {
    let key = CacheKey::for_request(req);
    let cached = cache.lookup(&key, &edge_set.versions);
    let fresh = edge.handle(req).unwrap().response;
    match cached {
        Some(hit) => prop_assert_eq!(
            &hit,
            &fresh,
            "stale cache hit for {} {:?}: cached {:?} != fresh {:?}",
            req.path,
            req.params,
            hit,
            fresh
        ),
        None => {
            let summary = summary_for(&req.path);
            let units = resolve_reads(&summary, req);
            cache.fill(key, &fresh, edge_set.versions.snapshot(&units));
        }
    }
    Ok(())
}

/// Regression (crash/rejoin soundness): a rejoined edge must never serve a
/// response cached by its pre-crash incarnation. The restarted replica's
/// version counters start over, so a surviving entry stamped by the old
/// epoch could revalidate against an unrelated post-restart state —
/// `crash_edge`/`restart_edge` must drop the cache with the process.
#[test]
fn rejoined_edge_never_serves_pre_crash_cached_responses() {
    use edgstr_core::{capture_and_transform, EdgStrConfig};
    use edgstr_runtime::{CachePolicy, ThreeTierOptions, ThreeTierSystem, Workload};
    use edgstr_sim::DeviceSpec;

    const NOTES_APP: &str = r#"
        db.query("CREATE TABLE notes (id INT PRIMARY KEY, text TEXT)");
        var written = 0;
        app.post("/note", function (req, res) {
            written = written + 1;
            db.query("INSERT INTO notes VALUES (" + req.body.id + ", '" + req.body.text + "')");
            res.send({ n: written });
        });
        app.get("/count", function (req, res) {
            var rows = db.query("SELECT COUNT(*) FROM notes");
            res.send(rows[0]);
        });
    "#;
    let capture = vec![
        HttpRequest::post("/note", json!({"id": 900, "text": "warm"}), vec![]),
        HttpRequest::get("/count", json!({})),
    ];
    let (report, _) = capture_and_transform(NOTES_APP, &capture, &EdgStrConfig::default()).unwrap();
    let note =
        |i: usize| HttpRequest::post("/note", json!({"id": i, "text": format!("t{i}")}), vec![]);
    let count = HttpRequest::get("/count", json!({}));
    // phase A caches /count after three writes (version stamp 3); phase B
    // adds three more writes, driving the rejoined replica's fresh
    // counters back to exactly the stale entry's stamp before reading —
    // the interleaving a surviving pre-crash entry would serve stale
    let phase_a = vec![note(1), note(2), note(3), count.clone(), count.clone()];
    let phase_b = vec![note(4), note(5), note(6), count];

    let run_phases = |cache: CachePolicy, crash_between: bool| {
        let mut sys = ThreeTierSystem::deploy(
            NOTES_APP,
            &report,
            &[DeviceSpec::rpi4()],
            ThreeTierOptions {
                cache,
                ..Default::default()
            },
        )
        .unwrap();
        let a = sys.run(&Workload::constant_rate(&phase_a, 10.0, phase_a.len()));
        if crash_between {
            sys.crash_edge(0);
            sys.restart_edge(0).unwrap();
        }
        let b =
            sys.run(&Workload::constant_rate(&phase_b, 10.0, phase_b.len()).shifted(a.makespan));
        (a, b)
    };

    let (ref_a, ref_b) = run_phases(CachePolicy::Off, false);
    let (hot_a, hot_b) = run_phases(CachePolicy::All, true);
    assert_eq!(hot_a.completed, phase_a.len());
    assert_eq!(hot_b.completed, phase_b.len());
    assert_eq!(
        ref_a.response_digest, hot_a.response_digest,
        "pre-crash cached phase must match uncached execution"
    );
    assert_eq!(
        ref_b.response_digest, hot_b.response_digest,
        "a rejoined edge served a pre-crash cached response"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary interleavings of edge writes, cloud writes, cached edge
    /// reads, and adversarial sync schedules never produce a stale hit —
    /// across row-keyed, whole-table, and global read units.
    #[test]
    fn cache_hits_always_match_fresh_execution(
        ops in prop::collection::vec(op(), 1..40),
    ) {
        let init = init_state();
        let (mut cloud, mut cloud_set) = make_node(1, &init);
        let (mut edge, mut edge_set) = make_node(2, &init);
        let mut e2c = SyncEndpoint::new();
        let mut c2e = SyncEndpoint::new();
        let mut up: Vec<SetSyncMessage> = Vec::new();
        let mut down: Vec<SetSyncMessage> = Vec::new();
        let mut cache = ResponseCache::new(1 << 20, &Telemetry::disabled());

        for o in &ops {
            match *o {
                Op::WriteEdge { k, v } => {
                    let req = HttpRequest::post(
                        "/put",
                        json!({"k": row_key(k), "v": v}),
                        vec![],
                    );
                    let out = edge.handle(&req).unwrap();
                    edge_set.absorb_outcome(&out, &edge);
                }
                Op::WriteCloud { k, v } => {
                    let req = HttpRequest::post(
                        "/put",
                        json!({"k": row_key(k), "v": v}),
                        vec![],
                    );
                    let out = cloud.handle(&req).unwrap();
                    cloud_set.absorb_outcome(&out, &cloud);
                }
                Op::ReadRow { k } => {
                    let req = HttpRequest::get("/get", json!({"k": row_key(k)}));
                    checked_read(&req, &mut edge, &edge_set, &mut cache)?;
                }
                Op::ReadCount => {
                    let req = HttpRequest::get("/count", json!({}));
                    checked_read(&req, &mut edge, &edge_set, &mut cache)?;
                }
                Op::ReadHits => {
                    let req = HttpRequest::get("/hits", json!({}));
                    checked_read(&req, &mut edge, &edge_set, &mut cache)?;
                }
                Op::NetUp(ev) => {
                    up.push(e2c.generate(&edge_set));
                    perturb(&mut up, ev, &mut c2e, &mut cloud_set, &mut cloud);
                }
                Op::NetDown(ev) => {
                    down.push(c2e.generate(&cloud_set));
                    perturb(&mut down, ev, &mut e2c, &mut edge_set, &mut edge);
                }
            }
        }

        // the link heals: stragglers flush (possibly reordered), then two
        // reliable rounds converge the replicas — cached reads must stay
        // sound throughout and agree across tiers at the end
        for m in down.drain(..).rev() {
            e2c.receive_owned(&mut edge_set, &mut edge, m).unwrap();
        }
        for m in up.drain(..).rev() {
            c2e.receive_owned(&mut cloud_set, &mut cloud, m).unwrap();
        }
        for _ in 0..2 {
            let u = e2c.generate(&edge_set);
            c2e.receive_owned(&mut cloud_set, &mut cloud, u).unwrap();
            let d = c2e.generate(&cloud_set);
            e2c.receive_owned(&mut edge_set, &mut edge, d).unwrap();
        }
        for req in [
            HttpRequest::get("/count", json!({})),
            HttpRequest::get("/hits", json!({})),
            HttpRequest::get("/get", json!({"k": "seed"})),
        ] {
            checked_read(&req, &mut edge, &edge_set, &mut cache)?;
            // converged: the edge's (possibly cached) view equals the cloud's
            let at_cloud = cloud.handle(&req).unwrap().response;
            let at_edge = edge.handle(&req).unwrap().response;
            prop_assert_eq!(at_edge, at_cloud);
        }
    }

    /// Remote-delivery-only variant: the cloud is the sole writer and the
    /// edge only reads. Every version bump the edge sees comes from
    /// `apply_remote` under an adversarial schedule, so this pins the
    /// tracked-apply → invalidation path specifically.
    #[test]
    fn chaotic_deliveries_invalidate_before_reads_go_stale(
        writes in prop::collection::vec((0u8..4, -9i8..9), 1..12),
        schedule in prop::collection::vec(net_event(), 1..24),
    ) {
        let init = init_state();
        let (mut cloud, mut cloud_set) = make_node(1, &init);
        let (mut edge, mut edge_set) = make_node(2, &init);
        let mut e2c = SyncEndpoint::new();
        let mut c2e = SyncEndpoint::new();
        let mut down: Vec<SetSyncMessage> = Vec::new();
        let mut cache = ResponseCache::new(1 << 20, &Telemetry::disabled());
        let mut w = writes.iter();

        for ev in &schedule {
            // interleave: one cloud write (if any remain), one queued delta,
            // one adversary action, then cached reads of every unit shape
            if let Some(&(k, v)) = w.next() {
                let req = HttpRequest::post(
                    "/put",
                    json!({"k": row_key(k), "v": v}),
                    vec![],
                );
                let out = cloud.handle(&req).unwrap();
                cloud_set.absorb_outcome(&out, &cloud);
            }
            down.push(c2e.generate(&cloud_set));
            perturb(&mut down, *ev, &mut e2c, &mut edge_set, &mut edge);
            for req in [
                HttpRequest::get("/get", json!({"k": "k0"})),
                HttpRequest::get("/count", json!({})),
                HttpRequest::get("/hits", json!({})),
            ] {
                checked_read(&req, &mut edge, &edge_set, &mut cache)?;
            }
        }
        // at least some traffic should have been servable from cache
        prop_assert!(cache.stats().hits + cache.stats().misses > 0);
    }
}
