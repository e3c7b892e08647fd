//! Property tests for the cloud master's durable log ([`DurableLog`]).
//!
//! A small HA cluster — a cloud master, three edges, an optional warm
//! standby and the durable log — runs random schedules of edge writes,
//! forwarded writes, sync rounds with dropped messages and compaction,
//! standby promotion, and standby-less master crash/recovery. After every
//! persist the log must:
//!
//! - recover to exactly the master's save image (`save()` bytes equal to
//!   `CrdtSet::load(actor, master.save())`);
//! - hold no more delta bytes than base bytes (the rebase rule);
//! - report the master's clock at that persist as its frontier.

use edgstr_analysis::{InitState, ServerProcess, StateUnit};
use edgstr_core::CrdtBindings;
use edgstr_crdt::ActorId;
use edgstr_net::HttpRequest;
use edgstr_runtime::{CrdtSet, DurableLog, SetClock, SyncEndpoint};
use edgstr_telemetry::Telemetry;
use proptest::prelude::*;
use proptest::test_runner::TestCaseFailure;
use serde_json::json;

/// A kv service replicating a table, a file and a global; few keys, so
/// concurrent writes to one row or the global conflict and merge.
const APP: &str = r#"
    db.query("CREATE TABLE kv (k TEXT PRIMARY KEY, v INT)");
    var hits = 0;
    app.post("/put", function (req, res) {
        hits = hits + 1;
        db.query("DELETE FROM kv WHERE k = '" + req.body.k + "'");
        db.query("INSERT INTO kv VALUES ('" + req.body.k + "', " + req.body.v + ")");
        fs.writeFile("/latest.txt", req.body.k);
        res.send({ ok: hits });
    });
"#;

const EDGES: usize = 3;

/// The actor every recovery probe loads under, so save images compare
/// byte for byte.
const PROBE: ActorId = ActorId(999);

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

/// A server process materialized from `set`.
struct Replica {
    server: ServerProcess,
    set: CrdtSet,
}

impl Replica {
    fn provision(init: &InitState, set: CrdtSet) -> Replica {
        let mut server = ServerProcess::from_source(APP).unwrap();
        server.init().unwrap();
        init.restore(&mut server);
        set.materialize_all(&mut server).unwrap();
        Replica { server, set }
    }

    fn write(&mut self, key: u8, v: u64) {
        let req = HttpRequest::post("/put", json!({"k": format!("k{key}"), "v": v}), vec![]);
        let out = self.server.handle(&req).unwrap();
        self.set.absorb_outcome(&out, &self.server);
    }
}

struct Standby {
    replica: Replica,
    /// The master's endpoint toward the standby (its ack clock is the
    /// durability frontier when a standby runs).
    master_link: SyncEndpoint,
    standby_link: SyncEndpoint,
}

/// One step of a generated schedule.
#[derive(Debug, Clone)]
enum Step {
    /// A write served at an edge replica.
    EdgeWrite { edge: usize, key: u8 },
    /// A write forwarded to the master: replicated and persisted before
    /// the ack.
    ForwardedWrite { key: u8 },
    /// One sync round; bit `i` of a mask drops edge `i`'s message in that
    /// direction.
    SyncRound {
        drop_up: u8,
        drop_down: u8,
        compact: bool,
    },
    /// The standby takes over (when one runs); the ex-master returns as
    /// the new standby.
    Promote,
    /// The master crashes and restarts from the durable log.
    CrashRecover,
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0..EDGES, 0u8..4).prop_map(|(edge, key)| Step::EdgeWrite { edge, key }),
        (0u8..4).prop_map(|key| Step::ForwardedWrite { key }),
        (0u8..8, 0u8..8, any::<bool>()).prop_map(|(drop_up, drop_down, compact)| {
            Step::SyncRound {
                drop_up,
                drop_down,
                compact,
            }
        }),
        (0u8..8, 0u8..8).prop_map(|(drop_up, drop_down)| Step::SyncRound {
            drop_up,
            drop_down,
            compact: true,
        }),
        Just(Step::Promote),
        Just(Step::CrashRecover),
    ]
}

struct Cluster {
    init: InitState,
    master: Replica,
    cloud_eps: Vec<SyncEndpoint>,
    edges: Vec<(Replica, SyncEndpoint)>,
    standby: Option<Standby>,
    log: DurableLog,
    next_actor: u64,
    writes: u64,
    persists: usize,
}

impl Cluster {
    fn new(with_standby: bool) -> Cluster {
        let init = init_state();
        let b = bindings();
        let master = Replica::provision(&init, CrdtSet::initialize(ActorId(1), &b, &init));
        let edges = (0..EDGES)
            .map(|i| {
                let set = CrdtSet::initialize(ActorId(2 + i as u64), &b, &init);
                (Replica::provision(&init, set), SyncEndpoint::new())
            })
            .collect();
        let log = DurableLog::new(&master.set, &Telemetry::disabled());
        let mut cluster = Cluster {
            init,
            master,
            cloud_eps: (0..EDGES).map(|_| SyncEndpoint::new()).collect(),
            edges,
            standby: None,
            log,
            next_actor: 2 + EDGES as u64,
            writes: 0,
            persists: 0,
        };
        if with_standby {
            cluster.provision_standby();
        }
        cluster
    }

    fn fresh_actor(&mut self) -> ActorId {
        self.next_actor += 1;
        ActorId(self.next_actor)
    }

    fn provision_standby(&mut self) {
        let actor = self.fresh_actor();
        let set = CrdtSet::load(actor, &bindings(), &self.master.set.save()).unwrap();
        let clock = set.clock();
        self.standby = Some(Standby {
            replica: Replica::provision(&self.init, set),
            master_link: SyncEndpoint {
                peer_clock: clock.clone(),
                ..SyncEndpoint::new()
            },
            standby_link: SyncEndpoint {
                peer_clock: clock,
                ..SyncEndpoint::new()
            },
        });
    }

    fn replicate_to_standby(&mut self) {
        if let Some(sb) = self.standby.as_mut() {
            let msg = sb.master_link.generate(&self.master.set);
            let r = &mut sb.replica;
            sb.standby_link
                .receive_owned(&mut r.set, &mut r.server, msg)
                .unwrap();
            let ack = sb.standby_link.generate(&r.set);
            let m = &mut self.master;
            sb.master_link
                .receive_owned(&mut m.set, &mut m.server, ack)
                .unwrap();
        }
    }

    /// What the failover target provably holds: the acks are capped here.
    fn durability_clock(&self) -> SetClock {
        match &self.standby {
            Some(sb) => sb.master_link.peer_clock.clone(),
            None => self.log.frontier().clone(),
        }
    }

    /// Append to the log and check the three invariants.
    fn persist(&mut self) -> Result<(), TestCaseFailure> {
        self.log.append(&self.master.set);
        self.persists += 1;
        let b = bindings();
        let recovered = self.log.recover(PROBE, &b).unwrap();
        let reference = CrdtSet::load(PROBE, &b, &self.master.set.save()).unwrap();
        prop_assert!(
            recovered.save() == reference.save(),
            "persist {}: recovery differs from a full save",
            self.persists
        );
        prop_assert!(
            self.log.log_bytes() <= self.log.base_bytes(),
            "persist {}: {} log bytes over a {}-byte base",
            self.persists,
            self.log.log_bytes(),
            self.log.base_bytes()
        );
        prop_assert_eq!(self.log.frontier(), &self.master.set.clock());
        Ok(())
    }

    fn sync_round(
        &mut self,
        drop_up: u8,
        drop_down: u8,
        compact: bool,
    ) -> Result<(), TestCaseFailure> {
        self.replicate_to_standby();
        let cap = self.durability_clock();
        for (i, (edge, to_cloud)) in self.edges.iter_mut().enumerate() {
            let up = to_cloud.generate(&edge.set);
            if drop_up & (1 << i) == 0 {
                let m = &mut self.master;
                self.cloud_eps[i]
                    .receive_owned(&mut m.set, &mut m.server, up)
                    .unwrap();
            }
            let mut down = self.cloud_eps[i].generate(&self.master.set);
            down.ack = down.ack.meet(&cap);
            if drop_down & (1 << i) == 0 {
                to_cloud
                    .receive_owned(&mut edge.set, &mut edge.server, down)
                    .unwrap();
            }
        }
        self.persist()?;
        if compact {
            let frontier = self
                .cloud_eps
                .iter()
                .fold(cap, |acc, ep| acc.meet(&ep.peer_clock));
            self.master.set.compact(&frontier);
            if let Some(sb) = self.standby.as_mut() {
                sb.replica.set.compact(&frontier);
            }
            for (edge, to_cloud) in &mut self.edges {
                edge.set.compact(&to_cloud.peer_clock);
            }
        }
        Ok(())
    }

    /// Every sync channel to the master restarts from scratch.
    fn rehome_edges(&mut self) {
        for ep in &mut self.cloud_eps {
            *ep = SyncEndpoint::new();
        }
    }

    fn apply(&mut self, step: &Step) -> Result<(), TestCaseFailure> {
        match *step {
            Step::EdgeWrite { edge, key } => {
                self.writes += 1;
                self.edges[edge].0.write(key, self.writes);
            }
            Step::ForwardedWrite { key } => {
                self.writes += 1;
                self.master.write(key, self.writes);
                self.replicate_to_standby();
                self.persist()?;
            }
            Step::SyncRound {
                drop_up,
                drop_down,
                compact,
            } => self.sync_round(drop_up, drop_down, compact)?,
            Step::Promote => {
                if let Some(sb) = self.standby.take() {
                    self.master = sb.replica;
                    self.rehome_edges();
                    self.persist()?;
                    self.provision_standby();
                }
            }
            Step::CrashRecover => {
                if self.standby.is_none() {
                    let actor = self.fresh_actor();
                    let set = self.log.recover(actor, &bindings()).unwrap();
                    self.master = Replica::provision(&self.init, set);
                    self.rehome_edges();
                }
            }
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random HA schedules: after every persist the durable log recovers
    /// the master's exact save image, stays within its base's size, and
    /// reports the master's clock as the durability frontier.
    #[test]
    fn durable_log_recovers_the_master_after_every_persist(
        with_standby in any::<bool>(),
        steps in prop::collection::vec(step(), 1..60),
    ) {
        let mut cluster = Cluster::new(with_standby);
        for s in &steps {
            cluster.apply(s)?;
        }
        // a final round persists whatever the schedule left unpersisted
        cluster.sync_round(0, 0, true)?;
    }
}

/// A long write-heavy run rebases repeatedly yet keeps every record small:
/// the O(delta) claim as a count.
#[test]
fn steady_writes_append_small_records_and_rebase() {
    let telemetry = Telemetry::recording();
    let mut cluster = Cluster::new(false);
    cluster.log = DurableLog::new(&cluster.master.set, &telemetry);
    let mut key = 0u8;
    for _ in 0..200 {
        for edge in 0..EDGES {
            key = (key + 1) % 4;
            cluster.apply(&Step::EdgeWrite { edge, key }).unwrap();
        }
        cluster.sync_round(0, 0, true).unwrap();
    }
    let Some(reg) = telemetry.registry() else {
        return; // telemetry compiled out
    };
    let bytes = |kind| {
        reg.counter("edgstr_ha_durable_bytes_total", &[("kind", kind)])
            .get()
    };
    let (base, delta) = (bytes("base"), bytes("delta"));
    let rebases = reg.counter("edgstr_ha_durable_rebases_total", &[]).get();
    assert!(rebases > 0, "200 rounds must outgrow the base");
    let per_round = delta / cluster.persists as u64;
    let base_each = base / (rebases + 1);
    assert!(
        per_round * 4 < base_each,
        "a round's record ({per_round} B) must be far below a base ({base_each} B)"
    );
}
