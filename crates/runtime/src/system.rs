//! End-to-end system drivers: the original two-tier (client ↔ cloud)
//! deployment and the EdgStr-generated three-tier (client ↔ edge ↔ cloud)
//! deployment, executed over virtual time.
//!
//! These drivers power every performance experiment: throughput vs WAN
//! speed (Fig. 7), latency (Table II), mobile energy (Fig. 8), cluster
//! scaling and elasticity (Fig. 9), and synchronization traffic (Fig. 10a).

use crate::balancer::{Autoscaler, BalanceStrategy, LoadBalancer};
use crate::cache::{
    effect_summaries, CachePolicy, CacheStats, ResponseCache, ServePlan, CACHE_HIT_CYCLES,
};
use crate::crdtset::{CrdtSet, SetClock, SyncEndpoint};
use crate::driver::{
    handle_profiled, has_effects, materialized, serve, Process, Provisioner, Replica, Role,
    RunRecorder,
};
pub use crate::driver::{FaultPolicy, MobilePower, RunStats, TimedRequest, Workload};
use crate::ha::{HaAction, HaPolicy, HaStats, HaSupervisor};
use crate::tiering::{LiveEdges, PlacementMode, PlacementPlane, PlacementStats, ScriptedDecision};
use edgstr_analysis::{EffectSummary, ReadUnit, ServerError, ServerProcess, StateUnit};
use edgstr_core::TransformationReport;
use edgstr_crdt::AdvanceMode;
use edgstr_lang::parse;
use edgstr_net::{CrashPlan, FaultPlan, HttpRequest, HttpResponse, LinkChannel, LinkSpec, Verb};
use edgstr_placement::Placement;
use edgstr_sim::{Clock, DetRng, Device, DeviceSpec, PowerState, SimDuration, SimTime};
use edgstr_telemetry::{Counter, SpanId, StmtProfiler, Telemetry, Tier};
use serde_json::Value as Json;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

// ---------------------------------------------------------------------------
// Two-tier (original client-cloud) driver
// ---------------------------------------------------------------------------

/// The original two-tier deployment: clients call the cloud over the WAN.
#[derive(Debug)]
pub struct TwoTierSystem {
    pub server: ServerProcess,
    pub device: Device,
    pub wan: LinkSpec,
    pub mobile: MobilePower,
    /// Observability sink; disabled by default and free when disabled.
    pub telemetry: Telemetry,
    wan_up: LinkChannel,
    wan_down: LinkChannel,
}

impl TwoTierSystem {
    /// Build from server source; runs the init phase.
    ///
    /// # Errors
    ///
    /// Propagates parse/init failures.
    pub fn new(source: &str, device: DeviceSpec, wan: LinkSpec) -> Result<Self, ServerError> {
        let mut server = ServerProcess::from_source(source)?;
        server.init()?;
        Ok(TwoTierSystem {
            server,
            device: Device::new(device),
            wan,
            mobile: MobilePower::default(),
            telemetry: Telemetry::disabled(),
            wan_up: LinkChannel::new(wan),
            wan_down: LinkChannel::new(wan),
        })
    }

    /// Execute `workload`, returning measurements.
    pub fn run(&mut self, workload: &Workload) -> RunStats {
        let telemetry = self.telemetry.clone();
        // Virtual-time driver: the run is clocked by the deterministic
        // simulation frontier, never by the host. The wall-clock sibling
        // lives in [`crate::parallel`].
        let mut rec = RunRecorder::with_clock(&telemetry, Clock::virtual_clock());
        let profiler = request_profiler(&telemetry);
        for tr in &workload.requests {
            let span = request_span(&telemetry, &tr.request, tr.at, None);
            let arrive = self.wan_up.send(tr.at, tr.request.size());
            let up = arrive - tr.at;
            match handle_profiled(&mut self.server, &tr.request, &profiler) {
                Ok(out) => {
                    let serve = telemetry.start_span("serve", Tier::Cloud, Some(span), arrive);
                    let (_, finish) = self.device.schedule_work(arrive, out.cycles);
                    telemetry.end_span(serve, finish);
                    let resp_bytes = out.response.size();
                    let done = self.wan_down.send(finish, resp_bytes);
                    rec.add_wan_request_bytes(tr.request.size() + resp_bytes);
                    let wait = finish - arrive;
                    let energy = self.mobile.request_energy_j(up, done - finish, wait);
                    rec.complete(&out.response, tr.at, done, energy);
                    telemetry.end_span(span, done);
                }
                Err(_) => {
                    rec.fail();
                    telemetry.event("request.failed", Tier::Cloud, Some(span), arrive, &[]);
                    telemetry.end_span(span, arrive);
                }
            }
        }
        let cloud_energy = self.device.energy_joules(rec.makespan());
        rec.finish(cloud_energy, 0.0)
    }
}

/// The shared per-statement profiler, when this run should profile.
fn request_profiler(telemetry: &Telemetry) -> Option<Rc<RefCell<StmtProfiler>>> {
    if telemetry.profiling_enabled() {
        telemetry.profiler()
    } else {
        None
    }
}

/// Open a client `request` span with verb/path (and routed-edge)
/// attributes in a single trace-log borrow; the attributes are built only
/// when telemetry is enabled, keeping the disabled path allocation-free.
fn request_span(
    telemetry: &Telemetry,
    request: &HttpRequest,
    at: SimTime,
    edge: Option<usize>,
) -> SpanId {
    if !telemetry.is_enabled() {
        return SpanId::NULL;
    }
    let mut attrs = vec![
        ("verb", Json::from(request.verb.as_str())),
        ("path", Json::from(request.path.as_str())),
    ];
    attrs.extend(edge.map(|i| ("edge", Json::from(i as u64))));
    telemetry.start_span_with("request", Tier::Client, None, at, attrs)
}

// ---------------------------------------------------------------------------
// Three-tier (EdgStr-transformed) driver
// ---------------------------------------------------------------------------

/// Multi-variant faulty-replica detection policy.
///
/// A sampled fraction of eligible replicated requests is shadow-executed
/// on a diversified second variant (the tree-walking engine, vs the
/// compiled primary) fed from the same CRDT state; response digests are
/// compared. A replica exceeding `mismatch_budget` mismatches is
/// quarantined: replaced by a fresh incarnation, provisioned as
/// [`ThreeTierSystem::restart_edge`] does.
#[derive(Debug, Clone)]
pub struct QuarantinePolicy {
    /// Fraction of eligible requests shadow-checked (0.0–1.0).
    pub check_fraction: f64,
    /// Mismatches tolerated before the replica is quarantined.
    pub mismatch_budget: u32,
    /// Seed for the check-sampling stream.
    pub seed: u64,
}

impl Default for QuarantinePolicy {
    fn default() -> Self {
        QuarantinePolicy {
            check_fraction: 0.25,
            mismatch_budget: 3,
            seed: 0x51A5,
        }
    }
}

/// Injected faulty VM variant: flips a bit in a replica's responses with a
/// seeded probability (the fault the multi-variant check is benched
/// against). Mutates the served response only — never the stored state.
#[derive(Debug, Clone)]
pub struct BitFlipCorruptor {
    rng: DetRng,
    flip_prob: f64,
    /// Responses corrupted so far.
    pub flips: u64,
}

impl BitFlipCorruptor {
    /// A corruptor flipping a bit in each response with `flip_prob`.
    pub fn new(seed: u64, flip_prob: f64) -> BitFlipCorruptor {
        BitFlipCorruptor {
            rng: DetRng::new(seed),
            flip_prob,
            flips: 0,
        }
    }

    /// Maybe corrupt one response; returns whether a bit was flipped.
    pub fn corrupt(&mut self, resp: &mut HttpResponse) -> bool {
        if !self.rng.chance(self.flip_prob) {
            return false;
        }
        let bit = self.rng.below(8) as u32;
        if !flip_first_int(&mut resp.body, bit) {
            resp.status ^= 1;
        }
        self.flips += 1;
        true
    }
}

/// Flip `bit` in the first integer leaf found in `v`, depth-first.
fn flip_first_int(v: &mut Json, bit: u32) -> bool {
    match v {
        Json::Number(n) => {
            if let Some(i) = n.as_i64() {
                *v = Json::from(i ^ (1i64 << bit));
                true
            } else {
                false
            }
        }
        Json::Array(items) => items.iter_mut().any(|item| flip_first_int(item, bit)),
        Json::Object(map) => map.values_mut().any(|item| flip_first_int(item, bit)),
        _ => false,
    }
}

/// One edge's circuit breaker over WAN forwarding.
#[derive(Debug, Default)]
struct Breaker {
    /// Consecutive forwarding failures.
    failures: u32,
    /// While `Some(t)`, the breaker is open until `t`.
    open_until: Option<SimTime>,
}

impl Breaker {
    /// See [`ThreeTierSystem::breaker_open`].
    fn is_open(&self, at: SimTime) -> bool {
        self.open_until.is_some_and(|until| at < until)
    }

    /// Count one forwarding failure; returns the failure count when it
    /// just opened a closed breaker.
    fn fail(&mut self, at: SimTime, policy: &FaultPolicy) -> Option<u32> {
        self.failures += 1;
        if self.failures < policy.breaker_threshold {
            return None;
        }
        let was_open = self.open_until.replace(at + policy.breaker_cooldown);
        was_open.is_none().then_some(self.failures)
    }
}

/// One deployed edge replica.
#[derive(Debug)]
pub struct EdgeReplica {
    pub server: ServerProcess,
    pub device: Device,
    pub crdts: CrdtSet,
    pub to_cloud: SyncEndpoint,
    /// The cloud master's end of this edge's channel: its `peer_clock` is
    /// what this edge has acknowledged.
    from_cloud: SyncEndpoint,
    /// Read-set-versioned response cache (validated against
    /// `crdts.versions` on every lookup).
    pub cache: ResponseCache,
    inflight: Vec<SimTime>,
    active: bool,
    crashed: bool,
    breaker: Breaker,
    /// Diversified shadow variant (tree-walking engine) for the
    /// multi-variant check, when a [`QuarantinePolicy`] is configured.
    shadow: Option<ServerProcess>,
    /// Injected response corruption (bench/test harness).
    corruptor: Option<BitFlipCorruptor>,
    /// Digest mismatches charged against the quarantine budget.
    shadow_mismatches: u32,
}

impl EdgeReplica {
    /// A live replica process on `device`, deployed or restarted. The
    /// device and its cache outlive a crash, but the cache is emptied: a
    /// fresh `CrdtSet`'s version counters restart at zero, and stale
    /// entries must not revalidate against them. Everything else belongs
    /// to the incarnation and starts clean — a closed breaker (the dead
    /// incarnation's open state would only delay recovery), no injected
    /// fault, a full mismatch budget.
    fn new(
        process: Process,
        shadow: Option<ServerProcess>,
        device: Device,
        mut cache: ResponseCache,
        mode: AdvanceMode,
    ) -> Self {
        cache.clear();
        EdgeReplica {
            server: process.server,
            device,
            crdts: process.crdts,
            to_cloud: SyncEndpoint::resuming(mode, process.resume.clone()),
            from_cloud: SyncEndpoint::resuming(mode, process.resume),
            cache,
            inflight: Vec::new(),
            active: true,
            crashed: false,
            breaker: Breaker::default(),
            shadow,
            corruptor: None,
            shadow_mismatches: 0,
        }
    }

    /// This edge's serving state for one request, with its shadow variant
    /// when `shadow` (the request was sampled for the multi-variant check).
    fn replica(&mut self, shadow: bool) -> Replica<'_> {
        Replica {
            server: &mut self.server,
            crdts: &mut self.crdts,
            cache: &mut self.cache,
            corruptor: self.corruptor.as_mut(),
            shadow: self.shadow.as_mut().filter(|_| shadow),
        }
    }

    /// Take the process down: it loses all volatile state and serves
    /// nothing further. Returns its acked prefix.
    pub(crate) fn crash(&mut self) -> SetClock {
        self.crashed = true;
        self.active = false;
        self.inflight.clear();
        // the cache dies with the process: a rejoined edge must never
        // serve responses stamped with pre-crash version vectors
        self.cache.clear();
        self.to_cloud.peer_clock.clone()
    }

    fn prune(&mut self, now: SimTime) {
        self.inflight.retain(|f| *f > now);
    }

    /// Current active connection count.
    pub fn connections(&self) -> usize {
        self.inflight.len()
    }

    /// Whether the replica is down (crashed, not merely parked).
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }
}

/// Each live edge's acked prefix: what the cloud acknowledged to it.
pub(crate) fn live_acked(edges: &[EdgeReplica]) -> Vec<SetClock> {
    let live = edges.iter().filter(|e| !e.crashed);
    live.map(|e| e.to_cloud.peer_clock.clone()).collect()
}

/// The live edges' clocks, for the placement plane's barriers and audit.
fn live_edges(edges: &[EdgeReplica]) -> LiveEdges {
    let live = edges.iter().filter(|e| !e.crashed);
    LiveEdges {
        clocks: live.map(|e| e.crdts.clock()).collect(),
        acked: live_acked(edges),
    }
}

/// Options for the three-tier deployment.
#[derive(Debug, Clone)]
pub struct ThreeTierOptions {
    pub lan: LinkSpec,
    pub wan: LinkSpec,
    pub balance: BalanceStrategy,
    /// `Some` enables elasticity (replica parking).
    pub autoscaler: Option<Autoscaler>,
    /// Background CRDT sync period.
    pub sync_interval: SimDuration,
    /// When true, state changes sync synchronously with each request
    /// (write-through ablation) instead of in the background.
    pub synchronous_sync: bool,
    /// `Some` injects faults: every WAN message (forwarded requests and
    /// sync deltas) consults the plan before delivery. Endpoint names are
    /// `"cloud"` and `"edge{i}"`.
    pub faults: Option<FaultPlan>,
    /// Retry/timeout/breaker policy for failure forwarding.
    pub policy: FaultPolicy,
    /// How sync endpoints track peer state. `OnAck` (default) regenerates
    /// dropped deltas; `Optimistic` is the pre-fix ablation that assumes
    /// delivery and diverges under loss.
    pub sync_advance: AdvanceMode,
    /// Fold fully-acknowledged history into snapshots after every sync
    /// round (default on), keeping resident change logs bounded under
    /// steady-state sync. Disable for the unbounded-history ablation.
    pub compaction: bool,
    /// Observability sink shared by the drivers, the sync daemon and the
    /// fault plan. Disabled by default and free when disabled.
    pub telemetry: Telemetry,
    /// Which services the response caches may serve (off by default — the
    /// exact baseline the cache is measured against).
    pub cache: CachePolicy,
    /// Per-replica LRU byte budget for cached responses.
    pub cache_budget_bytes: usize,
    /// `Some` schedules process crashes: edges always honor their events;
    /// cloud-master events additionally require `ha` (without an HA policy
    /// the master is not crashable, the pre-HA semantics).
    pub crashes: Option<CrashPlan>,
    /// `Some` enables the high-availability tier: warm standby, durable
    /// saves, ack capping, and deterministic failover.
    pub ha: Option<HaPolicy>,
    /// `Some` enables multi-variant shadow checking with quarantine.
    pub quarantine: Option<QuarantinePolicy>,
    /// Per-service tier placement: report-static (default, the
    /// pre-controller semantics), a pinned ablation, the autonomous
    /// controller, or a scripted replay.
    pub placement: PlacementMode,
}

impl Default for ThreeTierOptions {
    fn default() -> Self {
        ThreeTierOptions {
            lan: LinkSpec::edge_lan(),
            wan: LinkSpec::limited_cloud(),
            balance: BalanceStrategy::LeastConnections,
            autoscaler: None,
            sync_interval: SimDuration::from_secs(1),
            synchronous_sync: false,
            faults: None,
            policy: FaultPolicy::default(),
            sync_advance: AdvanceMode::OnAck,
            compaction: true,
            telemetry: Telemetry::disabled(),
            cache: CachePolicy::Off,
            cache_budget_bytes: 256 * 1024,
            crashes: None,
            ha: None,
            quarantine: None,
            placement: PlacementMode::default(),
        }
    }
}

impl ThreeTierOptions {
    /// Whether the fault plan drops the WAN message `from` → `to` at `at`.
    fn drops(&mut self, from: &str, to: &str, at: SimTime) -> bool {
        self.faults
            .as_mut()
            .is_some_and(|p| p.should_drop(from, to, at))
    }
}

/// The EdgStr-generated three-tier deployment.
#[derive(Debug)]
pub struct ThreeTierSystem {
    pub cloud: ServerProcess,
    pub cloud_device: Device,
    pub cloud_crdts: CrdtSet,
    pub edges: Vec<EdgeReplica>,
    pub options: ThreeTierOptions,
    balancer: LoadBalancer,
    /// Cloud-side response cache for forwarded requests.
    cloud_cache: ResponseCache,
    /// Per-service effect summaries from profiling — the cache's read/write
    /// sets. Shared so a run's serve plans can borrow it across `&mut self`
    /// calls.
    effects: Rc<BTreeMap<(Verb, String), EffectSummary>>,
    pub mobile: MobilePower,
    lan_up: LinkChannel,
    lan_down: LinkChannel,
    wan_up: LinkChannel,
    wan_down: LinkChannel,
    /// Jitter stream for retry backoff (forked from the policy seed).
    jitter: DetRng,
    /// Templates and actor ids for every later (re-)provisioning.
    provisioner: Provisioner,
    /// Sampling stream for the multi-variant check.
    shadow_rng: DetRng,
    ha: HaSupervisor,
    placement: PlacementPlane,
    /// Next background sync tick, persistent across [`ThreeTierSystem::run`]
    /// calls so multi-phase workloads never replay control-plane ticks at
    /// already-processed virtual times.
    next_sync: SimTime,
}

impl ThreeTierSystem {
    /// Deploy a transformation report: the cloud master runs the original
    /// program, each edge device runs the generated replica, and all
    /// replicas initialize from the shared snapshot (§III-G).
    ///
    /// # Errors
    ///
    /// Propagates server init failures.
    pub fn deploy(
        cloud_source: &str,
        report: &TransformationReport,
        edge_devices: &[DeviceSpec],
        mut options: ThreeTierOptions,
    ) -> Result<Self, ServerError> {
        // drops on the emulated network surface in the same trace as the
        // retries they cause
        if let Some(plan) = options.faults.as_mut() {
            plan.set_telemetry(options.telemetry.clone());
        }
        let cloud_program = parse(cloud_source).map_err(|e| ServerError::Parse(e.to_string()))?;
        let telemetry = &options.telemetry;
        let mut provisioner = Provisioner::new(cloud_program, report, telemetry);
        let master = provisioner.process(Role::Cloud, None)?;
        let mode = options.sync_advance;
        let mut edges = Vec::new();
        for spec in edge_devices {
            let process = provisioner.process(Role::Replica, None)?;
            let shadow = provisioner.shadow(options.quarantine.is_some())?;
            let cache = ResponseCache::new(options.cache_budget_bytes, telemetry);
            let device = Device::new(spec.clone());
            edges.push(EdgeReplica::new(process, shadow, device, cache, mode));
        }
        let ha = HaSupervisor::new(&options, &master.crdts, &mut provisioner)?;
        let effects = Rc::new(effect_summaries(report));
        let cloud_cache = ResponseCache::new(options.cache_budget_bytes, telemetry);
        let cloud_device = Device::new(DeviceSpec::cloud_server());
        let edge_cores = edges.iter().map(|e| f64::from(e.device.spec.cores)).sum();
        let placement = PlacementPlane::new(
            report,
            Rc::clone(&effects),
            &options,
            &master.crdts,
            &cloud_device.spec,
            edge_cores,
        );
        Ok(ThreeTierSystem {
            cloud: master.server,
            cloud_device,
            cloud_crdts: master.crdts,
            edges,
            balancer: LoadBalancer::new(options.balance),
            lan_up: LinkChannel::new(options.lan),
            lan_down: LinkChannel::new(options.lan),
            wan_up: LinkChannel::new(options.wan),
            wan_down: LinkChannel::new(options.wan),
            jitter: DetRng::new(options.policy.jitter_seed),
            provisioner,
            shadow_rng: DetRng::new(options.quarantine.as_ref().map_or(0, |q| q.seed)),
            ha,
            placement,
            next_sync: SimTime::ZERO + options.sync_interval,
            options,
            cloud_cache,
            effects,
            mobile: MobilePower::default(),
        })
    }

    /// The effective placement routing uses for `key` right now (pending
    /// transitions have not happened yet).
    pub fn placement_of(&self, key: &(Verb, String)) -> Placement {
        self.placement.placement_of(key)
    }

    /// Accumulated placement decisions and completed transitions.
    pub fn placement_stats(&self) -> &PlacementStats {
        self.placement.stats()
    }

    /// Transitions decided but still waiting on their clock barriers.
    pub fn pending_transition_count(&self) -> usize {
        self.placement.pending_count()
    }

    /// The decision schedule recorded so far — replayable verbatim as
    /// [`PlacementScript::decisions`][crate::PlacementScript] for a
    /// digest-parity reference run.
    pub fn decision_schedule(&self) -> Vec<ScriptedDecision> {
        self.placement.stats().decided.clone()
    }

    /// Lifetime hit/miss/eviction/invalidation counts aggregated over the
    /// cloud cache and every edge cache.
    pub fn cache_stats(&self) -> CacheStats {
        let mut s = self.cloud_cache.stats().clone();
        for e in &self.edges {
            s.absorb(e.cache.stats());
        }
        s
    }

    /// One bidirectional background sync round between every live edge and
    /// the cloud master at virtual time `at`; returns the WAN bytes spent
    /// (dropped messages still consume bandwidth). When a fault plan is
    /// configured, each direction of each exchange may be dropped; under
    /// the ack protocol the lost delta is simply regenerated next round.
    /// After the exchanges, fully-acknowledged history is folded into the
    /// snapshots (unless [`ThreeTierOptions::compaction`] is off).
    pub fn sync_round(&mut self, at: SimTime) -> usize {
        self.advance_ha(at);
        if self.ha.master_down() {
            // no master: nothing to exchange until promotion/recovery
            return 0;
        }
        let telemetry = self.options.telemetry.clone();
        let span = telemetry.start_span("sync.round", Tier::System, None, at);
        // intra-DC first: the standby ingests this round's state before any
        // acknowledgment goes out, so the durability frontier below already
        // reflects it
        self.ha.replicate(&mut self.cloud_crdts, &mut self.cloud);
        let cap = self.ha.durability_clock();
        let mut bytes = 0;
        for (i, edge) in self.edges.iter_mut().enumerate() {
            if edge.crashed {
                continue;
            }
            let edge_name = format!("edge{i}");
            // edge -> cloud (edge_state message)
            let msg = edge.to_cloud.generate(&edge.crdts);
            if !msg.changes.is_empty() {
                bytes += msg.wire_size();
                self.placement
                    .observe_sync(msg.wire_size() as u64, &msg.changes);
            }
            if !self.options.drops(&edge_name, "cloud", at) {
                let applied =
                    edge.from_cloud
                        .receive_owned(&mut self.cloud_crdts, &mut self.cloud, msg);
                materialized(&telemetry, applied);
            }
            // cloud -> edge (cloud_state message). Under HA the ack clock
            // is capped at the durability frontier: the edge may only
            // treat as acknowledged (and later compact) what the failover
            // target provably holds.
            let mut msg = edge.from_cloud.generate(&self.cloud_crdts);
            if let Some(cap) = &cap {
                msg.ack = msg.ack.meet(cap);
            }
            if !msg.changes.is_empty() {
                bytes += msg.wire_size();
                self.placement
                    .observe_sync(msg.wire_size() as u64, &msg.changes);
            }
            if !self.options.drops("cloud", &edge_name, at) {
                let applied = edge
                    .to_cloud
                    .receive_owned(&mut edge.crdts, &mut edge.server, msg);
                materialized(&telemetry, applied);
            }
        }
        // changes received this round reach the standby with the next
        // round's pre-ack replication; persist after the exchanges so
        // recovery resumes from this round's state, and before compaction
        // so the durable log never misses a change compaction folds
        self.ha.persist(&self.cloud_crdts);
        if self.options.compaction {
            let folded = self.compact_acked();
            if let Some(reg) = telemetry.registry() {
                reg.counter("edgstr_crdt_changes_folded_total", &[])
                    .add(folded as u64);
                reg.gauge("edgstr_crdt_resident_changes", &[])
                    .set(self.cloud_crdts.history_len() as f64);
                if folded > 0 {
                    telemetry.event(
                        "crdt.compact",
                        Tier::System,
                        Some(span),
                        at,
                        &[("folded", Json::from(folded as u64))],
                    );
                }
            }
        }
        self.placement
            .settle(at, &self.cloud_crdts, || live_edges(&self.edges));
        if telemetry.is_enabled() {
            telemetry.span_attr(span, "bytes", Json::from(bytes as u64));
        }
        telemetry.end_span(span, at);
        bytes
    }

    /// Fold fully-acknowledged history into snapshots on every live node;
    /// returns the number of changes dropped cluster-wide.
    ///
    /// The cloud's safe frontier is the pointwise minimum
    /// ([`crate::crdtset::SetClock::meet`]) of every live edge's ack clock:
    /// a change is folded only once *all* live peers have acknowledged it.
    /// Crashed edges are excluded from the meet — a restarted replica
    /// re-provisions from a save image ([`ThreeTierSystem::restart_edge`])
    /// instead of replaying history, so nothing it missed is ever needed
    /// again. Each edge's only sync peer is the cloud, so its frontier is
    /// the cloud's ack clock directly.
    pub fn compact_acked(&mut self) -> usize {
        let mut dropped = 0;
        let mut live = self
            .edges
            .iter()
            .filter(|e| !e.crashed)
            .map(|e| &e.from_cloud.peer_clock);
        if let Some(first) = live.next() {
            let mut frontier = live.fold(first.clone(), |acc, clock| acc.meet(clock));
            // under HA the master also keeps everything its failover
            // target might still need: a recovered/promoted cloud must be
            // able to re-serve the tail above the durability frontier
            if let Some(cap) = self.ha.durability_clock() {
                frontier = frontier.meet(&cap);
            }
            dropped += self.cloud_crdts.compact(&frontier);
            dropped += self.ha.compact_standby(&frontier);
        }
        for edge in self.edges.iter_mut().filter(|e| !e.crashed) {
            dropped += edge.crdts.compact(&edge.to_cloud.peer_clock);
        }
        dropped
    }

    /// Whether every live replica has observed exactly what the cloud
    /// master has (mutual clock domination — the strong-eventual-
    /// consistency convergence criterion).
    pub fn converged(&self) -> bool {
        let master = self.cloud_crdts.clock();
        self.edges.iter().filter(|e| !e.crashed).all(|e| {
            let c = e.crdts.clock();
            c.dominates(&master) && master.dominates(&c)
        })
    }

    /// Run sync rounds every `sync_interval` starting at `from` until the
    /// cluster converges or `max_rounds` is exhausted. Returns
    /// `Some((rounds_used, virtual_time))` on convergence.
    pub fn sync_until_converged(
        &mut self,
        from: SimTime,
        max_rounds: usize,
    ) -> Option<(usize, SimTime)> {
        let mut at = from;
        for round in 0..max_rounds {
            if self.converged() {
                return Some((round, at));
            }
            at += self.options.sync_interval;
            self.sync_round(at);
        }
        if self.converged() {
            return Some((max_rounds, at));
        }
        None
    }

    /// Crash an edge replica: it loses all volatile state, stops serving,
    /// and stops syncing until [`ThreeTierSystem::restart_edge`].
    pub fn crash_edge(&mut self, i: usize) {
        self.ha.crash_edge(&mut self.edges[i]);
    }

    /// Restart a crashed edge: a fresh server is provisioned from a save
    /// image under a brand-new actor id, so the replica rejoins without the
    /// cloud replaying its full change history — compaction may long since
    /// have folded the prefix the crashed incarnation was missing. Under
    /// HA the image is the durability frontier (the standby's state, else
    /// the durable log); without HA it is the cloud master's current save
    /// image. Both sync endpoints start acknowledged up to the image's
    /// clock; only changes after it travel on subsequent rounds.
    ///
    /// # Errors
    ///
    /// Propagates replica init failures.
    pub fn restart_edge(&mut self, i: usize) -> Result<(), ServerError> {
        let master = &self.cloud_crdts;
        let image = self
            .ha
            .recovery_image(&mut self.provisioner, |p| p.copy_of(master));
        let process = self.provisioner.process(Role::Replica, Some(image))?;
        let shadow = self.provisioner.shadow(self.options.quarantine.is_some())?;
        let mode = self.options.sync_advance;
        let EdgeReplica { device, cache, .. } = self.edges.remove(i);
        let edge = EdgeReplica::new(process, shadow, device, cache, mode);
        self.edges.insert(i, edge);
        self.ha.stats_mut().edge_restarts += 1;
        Ok(())
    }

    /// Restart + catch-up telemetry for a scheduled edge rejoin.
    fn rejoin_edge(&mut self, i: usize, at: SimTime) {
        self.restart_edge(i)
            .expect("replica template re-provisions cleanly");
        self.options.telemetry.event(
            "rejoin.catchup",
            Tier::Edge,
            None,
            at,
            &[("edge", Json::from(i as u64))],
        );
    }

    /// Apply every HA transition due at or before `now`, in time order
    /// ([`HaSupervisor::next_action`]).
    fn advance_ha(&mut self, now: SimTime) {
        while let Some(action) = self.ha.next_action(
            now,
            &mut self.edges,
            &self.cloud_crdts,
            &mut self.provisioner,
        ) {
            match action {
                HaAction::RejoinEdge(i, at) => self.rejoin_edge(i, at),
                HaAction::InstallMaster { master, rejoin, at } => {
                    // The new master has never spoken to the edges (what
                    // each edge acked was in the dead master's memory), so
                    // every sync channel restarts from scratch — resending
                    // the retained tail is idempotent — and the cloud
                    // cache, stamped with the dead master's version
                    // counters, is dropped.
                    (self.cloud, self.cloud_crdts) = *master;
                    let mode = self.options.sync_advance;
                    for e in &mut self.edges {
                        e.from_cloud = SyncEndpoint::resuming(mode, SetClock::default());
                    }
                    self.cloud_cache.clear();
                    for i in rejoin {
                        if self.edges[i].crashed {
                            self.rejoin_edge(i, at);
                        }
                    }
                }
            }
        }
    }

    /// Whether edge `idx`'s circuit breaker blocks WAN forwarding at `at`.
    /// After the cooldown the breaker is half-open: the next forward is the
    /// probe that closes it (success) or re-opens it (failure).
    pub fn breaker_open(&self, idx: usize, at: SimTime) -> bool {
        self.edges[idx].breaker.is_open(at)
    }

    /// Whether every state unit the request touches is CRDT-bound on the
    /// replica. Only then do primary and shadow observe identical state, so
    /// a digest mismatch can only mean a faulty variant — never a benign
    /// divergence on unreplicated state.
    fn shadow_checkable(&self, summary: &EffectSummary) -> bool {
        let b = self.provisioner.bindings();
        let read_ok = summary.reads.iter().all(|r| match r {
            ReadUnit::Table(t) | ReadUnit::TableKeyed { table: t, .. } => b.tables.contains(t),
            ReadUnit::File(f) => b.files.contains(f),
            ReadUnit::Global(g) => b.globals.contains(g),
        });
        let write_ok = summary.writes.iter().all(|w| match w {
            StateUnit::DbTable(t) => b.tables.contains(t),
            StateUnit::File(f) => b.files.contains(f),
            StateUnit::Global(g) => b.globals.contains(g),
        });
        read_ok && write_ok
    }

    /// Sample a request of service `summary` for the multi-variant check
    /// (at the quarantine policy's check fraction) and, when sampled,
    /// materialize edge `idx`'s current CRDT state into its diversified
    /// variant. The serve step then runs the shadow before the primary:
    /// both start from the same CRDT state, and the shadow's own state is
    /// rebuilt from scratch each check, so shadow execution never
    /// contaminates the serving replica.
    fn sample_shadow(&mut self, idx: usize, summary: Option<&EffectSummary>) -> bool {
        let Some(q) = self.options.quarantine.as_ref() else {
            return false;
        };
        let fraction = q.check_fraction;
        if !summary.is_some_and(|s| self.shadow_checkable(s)) || !self.shadow_rng.chance(fraction) {
            return false;
        }
        let edge = &mut self.edges[idx];
        let Some(shadow) = edge.shadow.as_mut() else {
            return false;
        };
        materialized(&self.options.telemetry, edge.crdts.materialize_all(shadow));
        true
    }

    /// Record one multi-variant comparison on edge `idx`; returns whether
    /// the edge just exhausted its mismatch budget and must be
    /// quarantined once the request completes.
    fn record_shadow_check(
        &mut self,
        idx: usize,
        mismatch: bool,
        span: SpanId,
        at: SimTime,
    ) -> bool {
        let stats = self.ha.stats_mut();
        stats.shadow_checks += 1;
        if !mismatch {
            return false;
        }
        stats.shadow_mismatches += 1;
        self.edges[idx].shadow_mismatches += 1;
        self.options.telemetry.event(
            "shadow.mismatch",
            Tier::System,
            Some(span),
            at,
            &[("edge", Json::from(idx as u64))],
        );
        let budget = self
            .options
            .quarantine
            .as_ref()
            .map_or(u32::MAX, |q| q.mismatch_budget);
        self.edges[idx].shadow_mismatches > budget
    }

    /// Quarantine edge `i`: replace the faulty incarnation with a freshly
    /// provisioned one ([`ThreeTierSystem::restart_edge`]) that serves
    /// nothing of the old one's, with a clean mismatch budget and no
    /// injected fault.
    fn quarantine_edge(&mut self, i: usize, at: SimTime) {
        self.options.telemetry.event(
            "quarantine.open",
            Tier::System,
            None,
            at,
            &[
                ("edge", Json::from(i as u64)),
                (
                    "mismatches",
                    Json::from(self.edges[i].shadow_mismatches as u64),
                ),
            ],
        );
        self.ha.stats_mut().quarantines.push((i, at));
        self.restart_edge(i)
            .expect("re-provisioning a quarantined replica must succeed");
    }

    /// Accumulated failure/recovery observations.
    pub fn ha_stats(&self) -> &HaStats {
        self.ha.stats()
    }

    /// Whether the cloud master is currently down.
    pub fn master_down(&self) -> bool {
        self.ha.master_down()
    }

    /// Inject the bit-flipping faulty VM variant into edge `i`'s serving
    /// path: each response is corrupted with `flip_prob`, deterministically
    /// from `seed`. Cleared when the replica is re-provisioned.
    pub fn inject_faulty_variant(&mut self, i: usize, flip_prob: f64, seed: u64) {
        self.edges[i].corruptor = Some(BitFlipCorruptor::new(seed, flip_prob));
    }

    /// Responses corrupted so far by edge `i`'s injected faulty variant.
    pub fn corrupted_responses(&self, i: usize) -> u64 {
        self.edges[i].corruptor.as_ref().map_or(0, |c| c.flips)
    }

    /// Prune finished connections and, under an autoscaler, park or unpark
    /// replicas to match the in-flight demand at `now`.
    fn autoscale(&mut self, now: SimTime, rec: &mut RunRecorder) {
        for e in self.edges.iter_mut() {
            e.prune(now);
        }
        let Some(scaler) = self.options.autoscaler else {
            return;
        };
        let inflight: usize = self.edges.iter().map(EdgeReplica::connections).sum();
        let desired = scaler.desired(inflight.max(1), self.edges.len());
        for (i, e) in self.edges.iter_mut().enumerate() {
            let (state, event) = if i < desired && !e.active && !e.crashed {
                (PowerState::Idle, "replica.unpark")
            } else if i >= desired && e.active && e.connections() == 0 {
                (PowerState::LowPower, "replica.park")
            } else {
                continue;
            };
            e.active = i < desired;
            e.device.set_power_state(state, now);
            let attrs = [("edge", Json::from(i as u64))];
            self.options
                .telemetry
                .event(event, Tier::Edge, None, now, &attrs);
        }
        rec.replica_sample(now, self.edges.iter().filter(|e| e.active).count());
    }

    /// The tail of every request served on edge `idx` — a cache hit or a
    /// local execution: note degraded mode under an open breaker, charge
    /// `cycles` on the edge device in a `serve` span, send the response
    /// down the LAN, hold the connection until it lands, and run the
    /// write-through sync round when configured. Returns the compute
    /// finish and the delivery time.
    fn respond_from_edge(
        &mut self,
        idx: usize,
        arrive: SimTime,
        cycles: u64,
        resp_size: usize,
        span: SpanId,
        rec: &mut RunRecorder,
    ) -> (SimTime, SimTime) {
        let telemetry = &self.options.telemetry;
        let edge = &mut self.edges[idx];
        if edge.breaker.is_open(arrive) {
            // still served locally; deltas queue until the WAN heals
            rec.degraded();
            telemetry.event("degraded.local_serve", Tier::Edge, Some(span), arrive, &[]);
        }
        let serve_span = telemetry.start_span("serve", Tier::Edge, Some(span), arrive);
        let (_, finish) = edge.device.schedule_work(arrive, cycles);
        telemetry.end_span(serve_span, finish);
        let done = self.lan_down.send(finish, resp_size);
        rec.add_lan_bytes(resp_size);
        edge.inflight.push(done);
        if self.options.synchronous_sync {
            rec.add_wan_sync_bytes(self.sync_round(finish));
        }
        (finish, done)
    }

    /// Forward one request to the cloud with bounded retries, exponential
    /// backoff and seeded jitter, under the run's fault plan and deadline.
    /// Returns `Some((time_back_at_edge, response, cloud_cycles))` on
    /// success, where a cloud cache hit charges [`CACHE_HIT_CYCLES`]. The
    /// cloud executes the request at most once: if only the response is
    /// lost, retries retransmit the response rather than re-running the
    /// handler (the proxy holds the connection, §II-B).
    fn forward_to_cloud(
        &mut self,
        idx: usize,
        request: &HttpRequest,
        arrive: SimTime,
        rec: &mut RunRecorder,
        span: SpanId,
        plan: &ServePlan<'_>,
    ) -> Option<(SimTime, HttpResponse, u64)> {
        let telemetry = self.options.telemetry.clone();
        let policy = self.options.policy.clone();
        let edge_name = format!("edge{idx}");
        let req_size = request.size();
        let deadline = arrive + policy.forward_deadline;
        // `Some` once the cloud has executed: (compute finish, response,
        // cycles)
        let mut executed: Option<(SimTime, HttpResponse, u64)> = None;
        let mut t = arrive;
        let mut attempt: u32 = 0;
        loop {
            // scheduled crashes/promotions that elapsed before this attempt
            self.advance_ha(t);
            // when there is a response to send: (send time, judge time)
            let response_leg = if let Some((finish, ..)) = &executed {
                // only the response was lost: retransmit it. The executed
                // marker and response travel with the replicated
                // connection state (the write itself was shipped to the
                // standby before the ack), so retransmission stalls while
                // the master is down and resumes after promotion instead
                // of re-running the handler.
                Some((t.max(*finish), t))
            } else {
                let cloud_arrive = self.wan_up.send(t, req_size);
                rec.add_wan_request_bytes(req_size);
                // The request is judged against the fault plan even while
                // the master is down so the per-link drop streams stay
                // aligned with a crash-free run; a dead master simply
                // never answers.
                if self.options.drops(&edge_name, "cloud", t) || self.ha.master_down() {
                    None
                } else {
                    // Cloud-side cache: a hit skips only the handler — the
                    // WAN message sequence (request judged above, response
                    // judged below) is identical to the execute path, so
                    // the fault plan's per-link streams stay aligned with
                    // the cache-off run.
                    let cloud_hit = plan
                        .cache
                        .as_ref()
                        .and_then(|p| self.cloud_cache.lookup(&p.key, &self.cloud_crdts.versions));
                    let (cycles, response) = match cloud_hit {
                        Some(response) => (CACHE_HIT_CYCLES, response),
                        None => {
                            let cloud = Replica {
                                server: &mut self.cloud,
                                crdts: &mut self.cloud_crdts,
                                cache: &mut self.cloud_cache,
                                corruptor: None,
                                shadow: None,
                            };
                            let Ok(served) = serve(cloud, request, plan, &None) else {
                                // application error: the WAN worked, no retry
                                self.edges[idx].breaker = Breaker::default();
                                return None;
                            };
                            if has_effects(&served.out) {
                                self.ha.secure_write(&mut self.cloud_crdts, &mut self.cloud);
                            }
                            (served.out.cycles, served.out.response)
                        }
                    };
                    let serve_span =
                        telemetry.start_span("serve", Tier::Cloud, Some(span), cloud_arrive);
                    let (_, finish) = self.cloud_device.schedule_work(cloud_arrive, cycles);
                    telemetry.end_span(serve_span, finish);
                    executed = Some((finish, response, cycles));
                    Some((finish, finish))
                }
            };
            if let (Some((send_at, judge_at)), Some((_, response, _))) = (response_leg, &executed) {
                let resp_size = response.size();
                let back = self.wan_down.send(send_at, resp_size);
                rec.add_wan_request_bytes(resp_size);
                if !self.options.drops("cloud", &edge_name, judge_at) && !self.ha.master_down() {
                    self.edges[idx].breaker = Breaker::default();
                    return executed.map(|(_, r, cycles)| (back, r, cycles));
                }
            }
            // this attempt failed in transit: back off, maybe retry
            let next = if attempt < policy.max_retries {
                let backoff_us = policy.backoff_base.0 << attempt;
                let jitter_us = self.jitter.below(policy.backoff_base.0.max(1));
                t + SimDuration(backoff_us + jitter_us)
            } else {
                t
            };
            if attempt >= policy.max_retries || next > deadline {
                rec.timed_out();
                telemetry.event("forward.timeout", Tier::Edge, Some(span), next, &[]);
                if let Some(failures) = self.edges[idx].breaker.fail(next, &policy) {
                    let failures = Json::from(u64::from(failures));
                    let attrs = [("edge", Json::from(idx as u64)), ("failures", failures)];
                    telemetry.event("breaker.open", Tier::Edge, None, next, &attrs);
                }
                return None;
            }
            attempt += 1;
            rec.retried();
            telemetry.event(
                "forward.retry",
                Tier::Edge,
                Some(span),
                next,
                &[("attempt", Json::from(attempt as u64))],
            );
            t = next;
        }
    }

    /// Execute `workload`, returning measurements.
    pub fn run(&mut self, workload: &Workload) -> RunStats {
        let telemetry = self.options.telemetry.clone();
        // Deterministic virtual clock, as in [`TwoTierSystem::run`].
        let mut rec = RunRecorder::with_clock(&telemetry, Clock::virtual_clock());
        let profiler = request_profiler(&telemetry);
        // serve plans borrow the summaries across `&mut self` calls
        let effects = Rc::clone(&self.effects);
        // Per-edge routing counters resolved once: the registry lookup
        // allocates a metric key, which is too hot for the request loop.
        let routed: Vec<Counter> = telemetry.registry().map_or_else(Vec::new, |reg| {
            (0..self.edges.len())
                .map(|i| reg.counter("edgstr_routed_total", &[("edge", &i.to_string())]))
                .collect()
        });
        for tr in &workload.requests {
            let now = tr.at;
            // background sync ticks that elapsed before this arrival; the
            // tick clock lives on the system so that back-to-back phase
            // runs continue the schedule instead of replaying old ticks
            while !self.options.synchronous_sync && self.next_sync <= now {
                let tick = self.next_sync;
                rec.add_wan_sync_bytes(self.sync_round(tick));
                self.placement
                    .tick(tick, &self.cloud_crdts, || live_edges(&self.edges));
                self.next_sync += self.options.sync_interval;
            }
            // scheduled crashes / restarts / promotions that elapsed
            self.advance_ha(now);
            self.autoscale(now, &mut rec);
            // route to an edge
            let connections: Vec<usize> = self.edges.iter().map(EdgeReplica::connections).collect();
            let active: Vec<bool> = self.edges.iter().map(|e| e.active).collect();
            let Some(idx) = self.balancer.pick(&connections, &active) else {
                rec.fail();
                let span = telemetry.start_span("request", Tier::Client, None, now);
                telemetry.event("request.unroutable", Tier::Client, Some(span), now, &[]);
                telemetry.end_span(span, now);
                continue;
            };
            // empty unless telemetry is enabled
            if let Some(c) = routed.get(idx) {
                c.inc();
            }
            let span = request_span(&telemetry, &tr.request, now, Some(idx));
            let req_size = tr.request.size();
            let lan_arrive = self.lan_up.send(now, req_size);
            let up = lan_arrive - now;
            rec.add_lan_bytes(req_size);
            let wake = self.edges[idx].device.wake_penalty();
            let arrive = lan_arrive + wake;
            let key = (tr.request.verb, tr.request.path.clone());
            let placement = self.placement.placement_of(&key);
            let local = placement == Placement::EdgeReplicate;
            let plan = ServePlan::resolve(&effects, self.options.cache, &key, &tr.request);
            // A forwarded service may be served from the edge cache only
            // when skipping the WAN round-trip cannot diverge from the
            // cache-off run: no read set, no writes (pure), and no fault
            // plan whose per-link streams the skipped messages would have
            // consumed. Under an explicit `EdgeCacheOnly` placement the
            // edge cache is consulted regardless — bounded staleness is
            // that placement's contract, and hits are still validated
            // against the edge's CRDT read-unit versions.
            let forward_skip_ok = !local
                && self.options.faults.is_none()
                && plan
                    .cache
                    .as_ref()
                    .is_some_and(|p| p.reads.is_empty() && p.pure);
            let cache_hit: Option<HttpResponse> =
                if local || forward_skip_ok || placement == Placement::EdgeCacheOnly {
                    plan.cache.as_ref().and_then(|p| {
                        let edge = &mut self.edges[idx];
                        edge.cache.lookup(&p.key, &edge.crdts.versions)
                    })
                } else {
                    None
                };
            // controller telemetry for this request: how it was served and
            // the compute it demanded
            let was_cache_hit = cache_hit.is_some();
            // Served on the edge: a cache hit, or the serve step when the
            // service is replicated here (a sampled shadow variant runs
            // first, from the same pre-request CRDT state). Anything else
            // is forwarded.
            let local_served = match cache_hit {
                Some(response) => Some((response, CACHE_HIT_CYCLES, None)),
                None if local => {
                    let shadow = self.sample_shadow(idx, plan.summary);
                    let replica = self.edges[idx].replica(shadow);
                    serve(replica, &tr.request, &plan, &profiler)
                        .ok()
                        .map(|s| (s.out.response, s.out.cycles, s.shadow_mismatch))
                }
                None => None,
            };
            let served_forwarded = local_served.is_none();
            // set when this request's digest mismatch exhausts the budget;
            // acted on after the response is recorded
            let mut quarantine = false;
            // `ready`: the response is ready to leave the edge
            let (ready, done, response, served_cycles) = if let Some((response, cycles, shadow)) =
                local_served
            {
                let (finish, done) =
                    self.respond_from_edge(idx, arrive, cycles, response.size(), span, &mut rec);
                quarantine = shadow
                    .is_some_and(|mismatch| self.record_shadow_check(idx, mismatch, span, finish));
                (finish, done, response, cycles)
            } else {
                // failure forwarding: the edge proxies the request to the
                // cloud master over the WAN (§II-B)
                rec.forwarded();
                if self.breaker_open(idx, arrive) {
                    // degraded mode: fail fast without a WAN attempt
                    rec.degraded();
                    rec.fail();
                    telemetry.event("degraded.fail_fast", Tier::Edge, Some(span), arrive, &[]);
                    telemetry.end_span(span, arrive);
                    continue;
                }
                let fwd = telemetry.start_span("forward", Tier::Edge, Some(span), arrive);
                let Some((back_at_edge, response, cycles)) =
                    self.forward_to_cloud(idx, &tr.request, arrive, &mut rec, fwd, &plan)
                else {
                    telemetry.end_span(fwd, arrive);
                    rec.fail();
                    telemetry.end_span(span, arrive);
                    continue;
                };
                telemetry.end_span(fwd, back_at_edge);
                let resp_size = response.size();
                let done = self.lan_down.send(back_at_edge, resp_size);
                rec.add_lan_bytes(resp_size);
                let edge = &mut self.edges[idx];
                edge.inflight.push(done);
                // cache-only placement fills pure responses stamped with
                // the edge-local read-unit versions, so sync-applied
                // remote writes invalidate them
                let fill = forward_skip_ok
                    || (placement == Placement::EdgeCacheOnly
                        && plan.cache.as_ref().is_some_and(|p| p.pure));
                if let Some(p) = plan.cache.as_ref().filter(|_| fill) {
                    let stamp = edge.crdts.versions.snapshot(&p.reads);
                    edge.cache.fill(p.key.clone(), &response, stamp);
                }
                (back_at_edge, done, response, cycles)
            };
            let wait = ready - arrive;
            let energy = self.mobile.request_energy_j(up, done - ready, wait);
            rec.complete(&response, tr.at, done, energy);
            telemetry.end_span(span, done);
            let edge = &self.edges[idx].device.spec;
            let (hit, fwd) = (was_cache_hit, served_forwarded);
            self.placement
                .observe(&key, edge, hit, fwd, served_cycles, wait);
            if quarantine {
                self.quarantine_edge(idx, done);
            }
        }
        // final flush so replicas converge (fault-free runs need at most
        // two rounds: deltas out, acks back)
        let flush_at = rec.makespan();
        rec.add_wan_sync_bytes(self.sync_round(flush_at));
        rec.add_wan_sync_bytes(self.sync_round(flush_at + self.options.sync_interval));
        let cloud_energy = self.cloud_device.energy_joules(rec.makespan());
        let edge_energy = self
            .edges
            .iter()
            .map(|e| e.device.energy_joules(rec.makespan()))
            .sum();
        rec.finish(cloud_energy, edge_energy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheKey;
    use edgstr_core::{capture_and_transform, EdgStrConfig};
    use serde_json::json;

    const APP: &str = r#"
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

    fn transformed() -> edgstr_core::TransformationReport {
        let reqs = vec![
            HttpRequest::post("/note", json!({"id": 900, "text": "warm"}), vec![]),
            HttpRequest::get("/count", json!({})),
        ];
        capture_and_transform(APP, &reqs, &EdgStrConfig::default())
            .unwrap()
            .0
    }

    fn unique_note(i: usize) -> HttpRequest {
        HttpRequest::post("/note", json!({"id": i, "text": format!("t{i}")}), vec![])
    }

    #[test]
    fn two_tier_runs_workload() {
        let mut sys =
            TwoTierSystem::new(APP, DeviceSpec::cloud_server(), LinkSpec::limited_cloud()).unwrap();
        let reqs: Vec<HttpRequest> = (0..20).map(unique_note).collect();
        let wl = Workload::constant_rate(&reqs, 10.0, 20);
        let stats = sys.run(&wl);
        assert_eq!(stats.completed, 20);
        assert!(stats.latency.mean().unwrap() > SimDuration::from_millis(100));
        assert!(stats.client_energy_j > 0.0);
        assert!(stats.wan_request_bytes > 0);
    }

    #[test]
    fn three_tier_serves_locally_and_syncs() {
        let report = transformed();
        let mut sys = ThreeTierSystem::deploy(
            APP,
            &report,
            &[DeviceSpec::rpi4(), DeviceSpec::rpi3()],
            ThreeTierOptions::default(),
        )
        .unwrap();
        let reqs: Vec<HttpRequest> = (0..20).map(unique_note).collect();
        let wl = Workload::constant_rate(&reqs, 10.0, 20);
        let stats = sys.run(&wl);
        assert_eq!(stats.completed, 20);
        assert_eq!(stats.forwarded, 0, "replicated service must run locally");
        assert!(
            stats.wan_sync_bytes > 0,
            "background sync must ship changes"
        );
        assert_eq!(stats.wan_request_bytes, 0, "no request traffic on the WAN");
        // all replicas and cloud converge on the notes table
        let cloud_rows = sys.cloud_crdts.tables["notes"].len();
        for e in &sys.edges {
            assert_eq!(e.crdts.tables["notes"].len(), cloud_rows);
        }
        assert!(cloud_rows >= 20);
    }

    #[test]
    fn cache_serves_repeated_reads_and_invalidates_on_write() {
        let report = transformed();
        let mut sys = ThreeTierSystem::deploy(
            APP,
            &report,
            &[DeviceSpec::rpi4()],
            ThreeTierOptions {
                cache: CachePolicy::All,
                ..ThreeTierOptions::default()
            },
        )
        .unwrap();
        let count = HttpRequest::get("/count", json!({}));
        let reqs = vec![
            count.clone(),
            count.clone(),
            count.clone(),
            unique_note(1),
            count.clone(),
            count.clone(),
        ];
        let wl = Workload::constant_rate(&reqs, 10.0, reqs.len());
        let stats = sys.run(&wl);
        assert_eq!(stats.completed, reqs.len());
        let cs = sys.cache_stats();
        // gets 2+3 and 5 hit; the write invalidates the entry before 4
        assert_eq!(cs.hits, 3);
        assert_eq!(cs.invalidations, 1);
        assert!(cs.misses >= 2);
    }

    #[test]
    fn cached_responses_are_bit_identical_to_uncached() {
        let report = transformed();
        let mut reqs = Vec::new();
        for i in 0..10 {
            reqs.push(unique_note(i));
            reqs.push(HttpRequest::get("/count", json!({})));
            reqs.push(HttpRequest::get("/count", json!({})));
        }
        let wl = Workload::constant_rate(&reqs, 40.0, reqs.len());
        let run = |policy: CachePolicy| {
            let mut sys = ThreeTierSystem::deploy(
                APP,
                &report,
                &[DeviceSpec::rpi4()],
                ThreeTierOptions {
                    cache: policy,
                    ..ThreeTierOptions::default()
                },
            )
            .unwrap();
            let stats = sys.run(&wl);
            (stats, sys.cache_stats())
        };
        let (off, off_cs) = run(CachePolicy::Off);
        let (all, all_cs) = run(CachePolicy::All);
        assert_eq!(off_cs.hits + off_cs.misses, 0, "Off must not touch caches");
        assert!(all_cs.hits > 0, "repeated reads must hit");
        assert_eq!(off.completed, all.completed);
        assert_eq!(
            off.response_digest, all.response_digest,
            "cached responses must be bit-identical to uncached execution"
        );
    }

    #[test]
    fn three_tier_beats_two_tier_on_slow_wan() {
        let report = transformed();
        let slow_wan = LinkSpec::from_kbps_ms(200.0, 800.0);
        let mut two = TwoTierSystem::new(APP, DeviceSpec::cloud_server(), slow_wan).unwrap();
        let reqs: Vec<HttpRequest> = (0..30).map(unique_note).collect();
        let wl = Workload::constant_rate(&reqs, 20.0, 30);
        let two_stats = two.run(&wl);
        let mut three = ThreeTierSystem::deploy(
            APP,
            &report,
            &[DeviceSpec::rpi4()],
            ThreeTierOptions {
                wan: slow_wan,
                ..Default::default()
            },
        )
        .unwrap();
        let three_stats = three.run(&wl);
        assert!(
            three_stats.latency.mean().unwrap() < two_stats.latency.mean().unwrap(),
            "edge must win under a degraded WAN: {:?} vs {:?}",
            three_stats.latency.mean(),
            two_stats.latency.mean()
        );
    }

    #[test]
    fn failure_forwarding_reaches_cloud() {
        let report = transformed();
        let mut sys = ThreeTierSystem::deploy(
            APP,
            &report,
            &[DeviceSpec::rpi4()],
            ThreeTierOptions::default(),
        )
        .unwrap();
        // break the edge's database host calls
        sys.edges[0]
            .server
            .inject_failures(vec!["db.query".to_string()]);
        let reqs: Vec<HttpRequest> = (0..5).map(unique_note).collect();
        let wl = Workload::constant_rate(&reqs, 5.0, 5);
        let stats = sys.run(&wl);
        assert_eq!(stats.completed, 5);
        assert_eq!(stats.forwarded, 5, "all requests must be forwarded");
        assert!(stats.wan_request_bytes > 0);
        // the cloud applied the writes
        assert!(sys.cloud_crdts.tables["notes"].len() >= 5);
    }

    #[test]
    fn autoscaler_parks_replicas_under_light_load() {
        let report = transformed();
        let mut sys = ThreeTierSystem::deploy(
            APP,
            &report,
            &[
                DeviceSpec::rpi3(),
                DeviceSpec::rpi3(),
                DeviceSpec::rpi4(),
                DeviceSpec::rpi4(),
            ],
            ThreeTierOptions {
                autoscaler: Some(Autoscaler::default()),
                ..Default::default()
            },
        )
        .unwrap();
        // light load: 2 rps
        let reqs: Vec<HttpRequest> = (0..40).map(unique_note).collect();
        let wl = Workload::constant_rate(&reqs, 2.0, 40);
        let stats = sys.run(&wl);
        assert_eq!(stats.completed, 40);
        let min_active = stats.replica_samples.iter().map(|(_, n)| *n).min().unwrap();
        assert_eq!(min_active, 1, "light load should park down to one replica");
        // parked replicas draw less energy than a hypothetical always-on set
        assert!(stats.edge_energy_j > 0.0);
    }

    #[test]
    fn workload_generators_produce_expected_counts() {
        let reqs = vec![HttpRequest::get("/count", json!({}))];
        let wl = Workload::constant_rate(&reqs, 100.0, 50);
        assert_eq!(wl.len(), 50);
        assert!(wl.requests[49].at > wl.requests[0].at);
        let wl = Workload::phases(&reqs, &[(10.0, 1.0), (50.0, 1.0)]);
        assert!(wl.len() >= 58 && wl.len() <= 62, "got {}", wl.len());
    }

    #[test]
    fn workload_shift_moves_every_arrival() {
        let reqs = vec![HttpRequest::get("/count", json!({}))];
        let wl = Workload::constant_rate(&reqs, 10.0, 5)
            .shifted(edgstr_sim::SimTime::from_secs_f64(100.0));
        assert!(wl.requests[0].at >= edgstr_sim::SimTime::from_secs_f64(100.0));
        assert!(wl.requests[4].at > wl.requests[0].at);
    }

    #[test]
    fn mobile_power_integrates_components() {
        let m = MobilePower::default();
        let j = m.request_energy_j(
            SimDuration::from_secs(2),
            SimDuration::from_secs(1),
            SimDuration::from_secs(10),
        );
        let expected = m.tx_w * 2.0 + m.rx_w * 1.0 + m.wait_w * 10.0;
        assert!((j - expected).abs() < 1e-9);
    }

    /// Acceptance: a cloud + 2-edge cluster under 20% WAN loss converges
    /// within a bounded number of sync rounds, deterministically from the
    /// fault seed, because ack-driven endpoints regenerate dropped deltas.
    #[test]
    fn lossy_cluster_converges_within_bounded_rounds() {
        let report = transformed();
        let mut faults = FaultPlan::new(0x2025_0805);
        faults.set_default_loss(edgstr_net::LossModel::uniform(0.20));
        let mut sys = ThreeTierSystem::deploy(
            APP,
            &report,
            &[DeviceSpec::rpi4(), DeviceSpec::rpi3()],
            ThreeTierOptions {
                faults: Some(faults),
                ..Default::default()
            },
        )
        .unwrap();
        let reqs: Vec<HttpRequest> = (0..30).map(unique_note).collect();
        let wl = Workload::constant_rate(&reqs, 10.0, 30);
        let stats = sys.run(&wl);
        assert_eq!(stats.completed, 30, "replicated writes serve locally");
        let (rounds, _) = sys
            .sync_until_converged(stats.makespan, 50)
            .expect("cluster must converge within 50 rounds at 20% loss");
        assert!(rounds <= 50);
        let cloud_rows = sys.cloud_crdts.tables["notes"].to_json();
        for e in &sys.edges {
            assert_eq!(e.crdts.tables["notes"].to_json(), cloud_rows);
        }
        assert!(sys.cloud_crdts.tables["notes"].len() >= 30);
    }

    /// Pre-fix ablation at system level: the same lossy cluster with
    /// optimistic clock advancement never recovers the dropped deltas.
    #[test]
    fn optimistic_sync_diverges_under_loss() {
        let report = transformed();
        let mut faults = FaultPlan::new(0x2025_0805);
        faults.set_default_loss(edgstr_net::LossModel::uniform(0.20));
        let mut sys = ThreeTierSystem::deploy(
            APP,
            &report,
            &[DeviceSpec::rpi4(), DeviceSpec::rpi3()],
            ThreeTierOptions {
                faults: Some(faults),
                sync_advance: AdvanceMode::Optimistic,
                ..Default::default()
            },
        )
        .unwrap();
        let reqs: Vec<HttpRequest> = (0..30).map(unique_note).collect();
        let wl = Workload::constant_rate(&reqs, 10.0, 30);
        let stats = sys.run(&wl);
        assert_eq!(
            sys.sync_until_converged(stats.makespan, 50),
            None,
            "optimistic advancement must leave the cluster diverged"
        );
    }

    /// Lossy failure forwarding: retransmission with backoff recovers
    /// dropped WAN messages, and the retry counter records the cost.
    #[test]
    fn forwarding_retries_recover_wan_loss() {
        let report = transformed();
        let mut faults = FaultPlan::new(17);
        faults.set_default_loss(edgstr_net::LossModel::uniform(0.30));
        let mut sys = ThreeTierSystem::deploy(
            APP,
            &report,
            &[DeviceSpec::rpi4()],
            ThreeTierOptions {
                faults: Some(faults),
                policy: FaultPolicy {
                    max_retries: 6,
                    ..Default::default()
                },
                ..Default::default()
            },
        )
        .unwrap();
        // break the edge's database so every request forwards over the WAN
        sys.edges[0]
            .server
            .inject_failures(vec!["db.query".to_string()]);
        let reqs: Vec<HttpRequest> = (0..10).map(unique_note).collect();
        let wl = Workload::constant_rate(&reqs, 5.0, 10);
        let stats = sys.run(&wl);
        assert_eq!(stats.forwarded, 10);
        assert!(stats.retries > 0, "30% loss must force retransmissions");
        assert_eq!(stats.completed + stats.failed, 10);
        assert!(
            stats.completed >= 8,
            "retries should recover most requests, got {}",
            stats.completed
        );
    }

    /// A full partition makes forwarding time out; after enough
    /// consecutive failures the circuit breaker opens and later requests
    /// fail fast in degraded mode without touching the WAN.
    #[test]
    fn breaker_opens_under_partition_and_degrades() {
        let report = transformed();
        let mut faults = FaultPlan::new(23);
        faults.partition(
            "edge0",
            "cloud",
            SimTime::ZERO,
            SimTime::from_secs_f64(3600.0),
        );
        let mut sys = ThreeTierSystem::deploy(
            APP,
            &report,
            &[DeviceSpec::rpi4()],
            ThreeTierOptions {
                faults: Some(faults),
                ..Default::default()
            },
        )
        .unwrap();
        sys.edges[0]
            .server
            .inject_failures(vec!["db.query".to_string()]);
        let reqs: Vec<HttpRequest> = (0..10).map(unique_note).collect();
        let wl = Workload::constant_rate(&reqs, 5.0, 10);
        let stats = sys.run(&wl);
        assert_eq!(stats.failed, 10, "nothing completes across a partition");
        assert!(
            stats.timed_out >= sys.options.policy.breaker_threshold as usize,
            "enough timeouts to trip the breaker, got {}",
            stats.timed_out
        );
        assert!(
            stats.degraded > 0,
            "post-trip requests must fail fast in degraded mode"
        );
        assert!(
            stats.timed_out + stats.degraded == 10,
            "every failure is either a timeout or a fast-fail: {} + {}",
            stats.timed_out,
            stats.degraded
        );
    }

    /// Degraded mode still serves replicated requests locally while the
    /// breaker is open, queuing deltas until the WAN heals.
    #[test]
    fn replicated_requests_serve_locally_while_breaker_open() {
        let report = transformed();
        let mut faults = FaultPlan::new(29);
        faults.partition(
            "edge0",
            "cloud",
            SimTime::ZERO,
            SimTime::from_secs_f64(3600.0),
        );
        let mut sys = ThreeTierSystem::deploy(
            APP,
            &report,
            &[DeviceSpec::rpi4()],
            ThreeTierOptions {
                faults: Some(faults),
                ..Default::default()
            },
        )
        .unwrap();
        // trip the breaker through the public failure path: a broken edge
        // db forces forwards, and the partition times them out
        sys.edges[0]
            .server
            .inject_failures(vec!["db.query".to_string()]);
        let trip: Vec<HttpRequest> = (100..103).map(unique_note).collect();
        let stats = sys.run(&Workload::constant_rate(&trip, 2.0, 3));
        assert!(stats.timed_out >= 3);
        // heal the edge server; replicated requests now serve locally in
        // degraded mode while the breaker is still open
        sys.edges[0].server.inject_failures(Vec::new());
        let reqs: Vec<HttpRequest> = (0..5).map(unique_note).collect();
        let stats = sys.run(&Workload::constant_rate(&reqs, 5.0, 5));
        assert_eq!(stats.completed, 5, "local service continues degraded");
        assert!(stats.degraded >= 1, "degraded local serves are counted");
        // deltas queued at the edge: the cloud is still missing them
        assert!(!sys.converged());
    }

    /// Crash/restart: a restarted replica re-initializes from the cloud
    /// master under a fresh actor id and rejoins sync cleanly.
    #[test]
    fn crashed_edge_rejoins_from_cloud_master() {
        let report = transformed();
        let mut sys = ThreeTierSystem::deploy(
            APP,
            &report,
            &[DeviceSpec::rpi4(), DeviceSpec::rpi3()],
            ThreeTierOptions::default(),
        )
        .unwrap();
        let reqs: Vec<HttpRequest> = (0..20).map(unique_note).collect();
        let stats = sys.run(&Workload::constant_rate(&reqs, 10.0, 20));
        assert_eq!(stats.completed, 20);
        let old_actor = sys.edges[0].crdts.actor();

        sys.crash_edge(0);
        assert!(sys.edges[0].is_crashed());
        // the survivor keeps serving while edge 0 is down
        let more: Vec<HttpRequest> = (200..210).map(unique_note).collect();
        let stats = sys.run(&Workload::constant_rate(&more, 10.0, 10).shifted(stats.makespan));
        assert_eq!(stats.completed, 10);

        sys.restart_edge(0).unwrap();
        assert_ne!(
            sys.edges[0].crdts.actor(),
            old_actor,
            "restart must not reuse the crashed incarnation's actor id"
        );
        // fresh replica starts from the snapshot, then catches up fully
        let (rounds, _) = sys
            .sync_until_converged(stats.makespan, 10)
            .expect("restarted replica must converge");
        assert!(rounds <= 10);
        assert_eq!(
            sys.edges[0].crdts.tables["notes"].to_json(),
            sys.cloud_crdts.tables["notes"].to_json()
        );
        assert!(sys.edges[0].crdts.tables["notes"].len() >= 30);
    }

    /// Steady-state compaction: under continuous writes with periodic
    /// sync, the resident change history on the cloud master stays bounded
    /// by the sync/ack lag instead of growing with the write count, while
    /// the cluster still converges to the full table.
    #[test]
    fn steady_state_sync_keeps_resident_history_bounded() {
        let peak_history = |compaction: bool| {
            let report = transformed();
            let mut sys = ThreeTierSystem::deploy(
                APP,
                &report,
                &[DeviceSpec::rpi4(), DeviceSpec::rpi3()],
                ThreeTierOptions {
                    compaction,
                    ..Default::default()
                },
            )
            .unwrap();
            let mut peak = 0usize;
            let mut t = SimTime::ZERO;
            for batch in 0..20usize {
                let reqs: Vec<HttpRequest> =
                    (batch * 10..batch * 10 + 10).map(unique_note).collect();
                let stats = sys.run(&Workload::constant_rate(&reqs, 20.0, 10).shifted(t));
                t = stats.makespan;
                peak = peak.max(sys.cloud_crdts.history_len());
            }
            sys.sync_until_converged(t, 10)
                .expect("steady-state cluster must converge");
            assert!(sys.cloud_crdts.tables["notes"].len() >= 200);
            peak
        };
        let bounded = peak_history(true);
        let unbounded = peak_history(false);
        assert!(
            unbounded >= 200,
            "without compaction history grows with the write count: {unbounded}"
        );
        assert!(
            bounded * 4 < unbounded,
            "compaction must bound resident history: peak {bounded} vs {unbounded}"
        );
    }

    #[test]
    fn two_tier_failed_requests_counted_not_recorded() {
        let mut sys =
            TwoTierSystem::new(APP, DeviceSpec::cloud_server(), LinkSpec::limited_cloud()).unwrap();
        // duplicate primary keys: every second insert fails at the server
        let req = unique_note(1);
        let wl = Workload::constant_rate(std::slice::from_ref(&req), 10.0, 3);
        let stats = sys.run(&wl);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.failed, 2);
        assert_eq!(stats.latency.len(), 1);
    }

    /// After the cooldown the breaker is half-open: the next forward is a
    /// probe, and its success closes the breaker immediately.
    #[test]
    fn breaker_half_open_probe_closes_on_success() {
        let report = transformed();
        // partition only during [0, 20s): the breaker trips inside the
        // window, and a post-window probe finds the WAN healed
        let mut faults = FaultPlan::new(31);
        faults.partition(
            "edge0",
            "cloud",
            SimTime::ZERO,
            SimTime::from_secs_f64(20.0),
        );
        let mut sys = ThreeTierSystem::deploy(
            APP,
            &report,
            &[DeviceSpec::rpi4()],
            ThreeTierOptions {
                faults: Some(faults),
                ..Default::default()
            },
        )
        .unwrap();
        sys.edges[0]
            .server
            .inject_failures(vec!["db.query".to_string()]);
        let trip: Vec<HttpRequest> = (0..4).map(unique_note).collect();
        let stats = sys.run(&Workload::constant_rate(&trip, 2.0, 4));
        assert!(
            sys.breaker_open(0, stats.makespan),
            "timeouts across the partition must open the breaker"
        );
        // well past the partition and the cooldown: half-open probes
        // forward again, succeed, and close the breaker
        let probe: Vec<HttpRequest> = (50..53).map(unique_note).collect();
        let stats =
            sys.run(&Workload::constant_rate(&probe, 2.0, 3).shifted(SimTime::from_secs_f64(25.0)));
        assert_eq!(stats.completed, 3, "probes must get through a healed WAN");
        assert!(!sys.breaker_open(0, stats.makespan));
    }

    /// Satellite fix: a restarted edge gets a fresh breaker — the open
    /// state belonged to the dead incarnation.
    #[test]
    fn restart_edge_resets_breaker_state() {
        let report = transformed();
        let mut faults = FaultPlan::new(37);
        faults.partition(
            "edge0",
            "cloud",
            SimTime::ZERO,
            SimTime::from_secs_f64(3600.0),
        );
        let mut sys = ThreeTierSystem::deploy(
            APP,
            &report,
            &[DeviceSpec::rpi4()],
            ThreeTierOptions {
                faults: Some(faults),
                ..Default::default()
            },
        )
        .unwrap();
        sys.edges[0]
            .server
            .inject_failures(vec!["db.query".to_string()]);
        let trip: Vec<HttpRequest> = (0..4).map(unique_note).collect();
        let stats = sys.run(&Workload::constant_rate(&trip, 2.0, 4));
        assert!(sys.breaker_open(0, stats.makespan));
        sys.crash_edge(0);
        sys.restart_edge(0).unwrap();
        assert!(
            !sys.breaker_open(0, stats.makespan),
            "a restarted process must not inherit the dead incarnation's breaker"
        );
    }

    /// Satellite: a scheduled crash + restart landing between sync ticks —
    /// with compaction folding history every round — must neither deadlock
    /// nor double-apply deltas, and the cluster reconverges.
    #[test]
    fn scheduled_restart_mid_sync_rounds_converges_without_double_apply() {
        let report = transformed();
        let mut crashes = CrashPlan::new(5);
        crashes.crash(
            "edge0",
            SimTime::from_secs_f64(1.5),
            SimTime::from_secs_f64(3.5),
        );
        let mut sys = ThreeTierSystem::deploy(
            APP,
            &report,
            &[DeviceSpec::rpi4(), DeviceSpec::rpi3()],
            ThreeTierOptions {
                crashes: Some(crashes),
                ..Default::default()
            },
        )
        .unwrap();
        let reqs: Vec<HttpRequest> = (0..30).map(unique_note).collect();
        let stats = sys.run(&Workload::constant_rate(&reqs, 10.0, 30));
        let hs = sys.ha_stats();
        assert_eq!(hs.edge_crashes, 1);
        assert_eq!(hs.edge_restarts, 1);
        let (rounds, _) = sys
            .sync_until_converged(stats.makespan, 20)
            .expect("cluster must reconverge after the scheduled restart");
        assert!(rounds <= 20);
        let cloud_rows = sys.cloud_crdts.tables["notes"].to_json();
        for e in &sys.edges {
            assert_eq!(e.crdts.tables["notes"].to_json(), cloud_rows);
        }
        // edge0's unsynced pre-crash writes died with the process; nothing
        // may be applied twice (every surviving id appears exactly once —
        // the PK table would otherwise conflict) and the survivor's share
        // plus everything synced before the crash is present
        let n = sys.cloud_crdts.tables["notes"].len();
        assert!((20..=30).contains(&n), "unexpected row count {n}");
    }

    /// Tentpole: master crash → deterministic standby promotion →
    /// reconvergence, with every acknowledged write surviving.
    #[test]
    fn master_failover_promotes_standby_and_loses_no_acked_write() {
        let report = transformed();
        let mut crashes = CrashPlan::new(9);
        crashes.crash(
            "cloud",
            SimTime::from_secs_f64(2.0),
            SimTime::from_secs_f64(5.0),
        );
        let mut sys = ThreeTierSystem::deploy(
            APP,
            &report,
            &[DeviceSpec::rpi4(), DeviceSpec::rpi3()],
            ThreeTierOptions {
                crashes: Some(crashes),
                ha: Some(HaPolicy::default()),
                ..Default::default()
            },
        )
        .unwrap();
        let reqs: Vec<HttpRequest> = (0..40).map(unique_note).collect();
        let stats = sys.run(&Workload::constant_rate(&reqs, 10.0, 40));
        assert_eq!(
            stats.completed, 40,
            "replicated writes serve through the outage"
        );
        let (rounds, _) = sys
            .sync_until_converged(stats.makespan.max(SimTime::from_secs_f64(6.0)), 30)
            .expect("cluster must reconverge on the promoted master");
        assert!(rounds <= 30);
        assert!(!sys.master_down());
        let hs = sys.ha_stats();
        assert_eq!(hs.master_crashes, 1);
        assert_eq!(hs.failovers, 1);
        assert_eq!(
            hs.recovery_times(),
            vec![SimDuration::from_millis(500)],
            "promotion happens exactly at crash + detect_delay"
        );
        // zero acked-write loss: the promoted master's final clock covers
        // everything any replica was ever told was acknowledged
        let final_clock = sys.cloud_crdts.clock();
        assert!(!hs.acked_snapshots.is_empty());
        for snap in &hs.acked_snapshots {
            assert!(final_clock.dominates(snap), "acked write lost in failover");
        }
        assert!(sys.cloud_crdts.tables["notes"].len() >= 40);
    }

    /// Without a standby the master restarts from the durable log: the
    /// cluster reconverges on the recovered master, every acked write
    /// survives, and the log's telemetry stays out of `RunStats`.
    #[test]
    fn standby_less_master_recovers_from_durable_log() {
        let report = transformed();
        let run = |telemetry: Telemetry| {
            let mut crashes = CrashPlan::new(9);
            crashes.crash(
                "cloud",
                SimTime::from_secs_f64(2.0),
                SimTime::from_secs_f64(3.0),
            );
            let mut sys = ThreeTierSystem::deploy(
                APP,
                &report,
                &[DeviceSpec::rpi4(), DeviceSpec::rpi3()],
                ThreeTierOptions {
                    crashes: Some(crashes),
                    ha: Some(HaPolicy {
                        standby: false,
                        ..HaPolicy::default()
                    }),
                    telemetry,
                    ..Default::default()
                },
            )
            .unwrap();
            let reqs: Vec<HttpRequest> = (0..40).map(unique_note).collect();
            let stats = sys.run(&Workload::constant_rate(&reqs, 10.0, 40));
            (sys, stats)
        };
        let telemetry = Telemetry::recording();
        let (mut sys, stats) = run(telemetry.clone());
        assert_eq!(stats.completed, 40);
        sys.sync_until_converged(stats.makespan.max(SimTime::from_secs_f64(4.0)), 30)
            .expect("cluster must reconverge on the recovered master");
        assert!(!sys.master_down());
        let hs = sys.ha_stats();
        assert_eq!(hs.master_crashes, 1);
        assert_eq!(hs.failovers, 0);
        assert_eq!(hs.durable_recoveries, 1);
        assert_eq!(hs.recovery_times(), vec![SimDuration::from_millis(1000)]);
        let final_clock = sys.cloud_crdts.clock();
        assert!(!hs.acked_snapshots.is_empty());
        for snap in &hs.acked_snapshots {
            assert!(final_clock.dominates(snap), "acked write lost in recovery");
        }
        // 40 run inserts plus the capture warm-up row
        assert_eq!(sys.cloud_crdts.tables["notes"].len(), 41);
        if let Some(reg) = telemetry.registry() {
            let bytes = |kind| {
                reg.counter("edgstr_ha_durable_bytes_total", &[("kind", kind)])
                    .get()
            };
            assert!(bytes("base") > 0 && bytes("delta") > 0);
            let rebases = reg.counter("edgstr_ha_durable_rebases_total", &[]).get();
            assert!(rebases >= 1, "the recovered master rebases the log");
        }
        let (_, quiet) = run(Telemetry::disabled());
        assert_eq!(
            stats, quiet,
            "durable-log telemetry must not touch RunStats"
        );
    }

    /// Without a standby, a crashed edge restarts from the durable log:
    /// the cluster reconverges, every acked write survives, and telemetry
    /// leaves `RunStats` untouched.
    #[test]
    fn durable_only_edge_restart_reconverges() {
        let report = transformed();
        let run = |telemetry: Telemetry| {
            let mut crashes = CrashPlan::new(11);
            crashes.crash(
                "edge1",
                SimTime::from_secs_f64(1.5),
                SimTime::from_secs_f64(3.5),
            );
            let mut sys = ThreeTierSystem::deploy(
                APP,
                &report,
                &[DeviceSpec::rpi4(), DeviceSpec::rpi3()],
                ThreeTierOptions {
                    crashes: Some(crashes),
                    ha: Some(HaPolicy {
                        standby: false,
                        ..HaPolicy::default()
                    }),
                    telemetry,
                    ..Default::default()
                },
            )
            .unwrap();
            let reqs: Vec<HttpRequest> = (0..40).map(unique_note).collect();
            let stats = sys.run(&Workload::constant_rate(&reqs, 10.0, 40));
            (sys, stats)
        };
        let (mut sys, stats) = run(Telemetry::recording());
        assert_eq!(sys.ha_stats().edge_crashes, 1);
        assert_eq!(sys.ha_stats().edge_restarts, 1);
        sys.sync_until_converged(stats.makespan, 20)
            .expect("cluster must reconverge after the restart");
        let cloud_rows = sys.cloud_crdts.tables["notes"].to_json();
        for e in &sys.edges {
            assert_eq!(e.crdts.tables["notes"].to_json(), cloud_rows);
        }
        let final_clock = sys.cloud_crdts.clock();
        let snapshots = &sys.ha_stats().acked_snapshots;
        assert!(!snapshots.is_empty());
        for snap in snapshots {
            assert!(final_clock.dominates(snap), "acked write lost in restart");
        }
        let (_, quiet) = run(Telemetry::disabled());
        assert_eq!(stats, quiet, "telemetry must not touch RunStats");
    }

    /// Forwarded writes replicate to the standby before the client sees
    /// the ack, so a master crash right after cannot lose them.
    #[test]
    fn forwarded_writes_survive_master_failover() {
        let report = transformed();
        let mut crashes = CrashPlan::new(13);
        crashes.kill("cloud", SimTime::from_secs_f64(2.0));
        let mut sys = ThreeTierSystem::deploy(
            APP,
            &report,
            &[DeviceSpec::rpi4()],
            ThreeTierOptions {
                crashes: Some(crashes),
                ha: Some(HaPolicy::default()),
                policy: FaultPolicy {
                    max_retries: 8,
                    ..Default::default()
                },
                ..Default::default()
            },
        )
        .unwrap();
        // break the edge database so every request forwards over the WAN
        sys.edges[0]
            .server
            .inject_failures(vec!["db.query".to_string()]);
        let reqs: Vec<HttpRequest> = (0..20).map(unique_note).collect();
        let stats = sys.run(&Workload::constant_rate(&reqs, 5.0, 20));
        assert_eq!(
            stats.completed, 20,
            "retries must ride out the detection window"
        );
        assert_eq!(sys.ha_stats().failovers, 1);
        assert!(!sys.master_down());
        // every acked forward is on the post-failover master
        assert!(
            sys.cloud_crdts.tables["notes"].len() >= stats.completed,
            "an acked forwarded write vanished in the failover"
        );
    }

    /// Multi-variant check: the injected bit-flipping variant is caught
    /// within its mismatch budget and quarantined; healthy replicas are
    /// never falsely quarantined.
    #[test]
    fn quarantine_catches_faulty_variant_without_false_positives() {
        let report = transformed();
        let policy = QuarantinePolicy {
            check_fraction: 1.0,
            mismatch_budget: 2,
            seed: 7,
        };
        let reqs: Vec<HttpRequest> = (0..40).map(unique_note).collect();
        let wl = Workload::constant_rate(&reqs, 10.0, 40);

        let mut sys = ThreeTierSystem::deploy(
            APP,
            &report,
            &[DeviceSpec::rpi4(), DeviceSpec::rpi3()],
            ThreeTierOptions {
                quarantine: Some(policy.clone()),
                ..Default::default()
            },
        )
        .unwrap();
        sys.inject_faulty_variant(0, 0.9, 0xBAD);
        sys.run(&wl);
        let hs = sys.ha_stats();
        assert!(hs.shadow_checks > 0);
        assert!(
            hs.shadow_mismatches > u64::from(policy.mismatch_budget),
            "the faulty variant must burn through its budget"
        );
        assert!(
            !hs.quarantines.is_empty(),
            "faulty replica must be quarantined"
        );
        assert!(
            hs.quarantines.iter().all(|(i, _)| *i == 0),
            "only the faulty replica may be quarantined: {:?}",
            hs.quarantines
        );
        // the replacement VM is healthy: the injected fault died with the
        // quarantined incarnation
        assert_eq!(sys.corrupted_responses(0), 0);

        // control: the same cluster with no injected fault never
        // quarantines — compiled and tree-walking variants are
        // bit-identical on every checked request
        let mut clean = ThreeTierSystem::deploy(
            APP,
            &report,
            &[DeviceSpec::rpi4(), DeviceSpec::rpi3()],
            ThreeTierOptions {
                quarantine: Some(policy),
                ..Default::default()
            },
        )
        .unwrap();
        clean.run(&wl);
        let hs = clean.ha_stats();
        assert!(hs.shadow_checks > 0);
        assert_eq!(
            hs.shadow_mismatches, 0,
            "healthy replicas must never mismatch"
        );
        assert!(hs.quarantines.is_empty(), "zero false quarantines required");
    }

    /// The serve step corrupts after absorb and before fill: a faulty
    /// variant absorbs its write intact, then caches — and keeps serving —
    /// exactly the corrupted response it produced.
    #[test]
    fn faulty_variant_caches_its_corrupted_response() {
        const SEED: u64 = 0xF1F;
        let report = transformed();
        let mut sys = ThreeTierSystem::deploy(
            APP,
            &report,
            &[DeviceSpec::rpi4()],
            ThreeTierOptions {
                cache: CachePolicy::All,
                ..Default::default()
            },
        )
        .unwrap();
        sys.inject_faulty_variant(0, 1.0, SEED);
        let count = HttpRequest::get("/count", json!({}));
        let mut reqs = vec![unique_note(1)];
        reqs.extend(std::iter::repeat_n(count.clone(), 5));
        let wl = Workload::constant_rate(&reqs, 10.0, reqs.len());
        let stats = sys.run(&wl);
        assert_eq!(stats.completed, reqs.len());
        // only executions are corrupted: the write and the first read
        assert_eq!(sys.corrupted_responses(0), 2);
        assert_eq!(
            sys.edges[0].crdts.tables["notes"].to_json(),
            sys.cloud_crdts.tables["notes"].to_json(),
            "the write's state change is absorbed intact"
        );
        let edge = &mut sys.edges[0];
        assert_eq!(edge.cache.stats().hits, 4, "repeated reads hit");
        let cached = edge
            .cache
            .lookup(&CacheKey::for_request(&count), &edge.crdts.versions)
            .expect("the read stays cached");
        let fresh = edge.server.handle(&count).unwrap().response;
        assert_ne!(cached, fresh, "the cache holds the corrupted response");
        // replay the corruptor: the write's response, then the first read's
        let mut replay = BitFlipCorruptor::new(SEED, 1.0);
        replay.corrupt(&mut HttpResponse::ok(json!({})));
        let mut corrupted = fresh;
        replay.corrupt(&mut corrupted);
        assert_eq!(cached, corrupted);
    }

    // --- tier placement controller ---

    use crate::tiering::PlacementScript;
    use edgstr_placement::PlacementPolicy;

    fn note_key() -> (Verb, String) {
        (Verb::Post, "/note".to_string())
    }

    /// A policy that demotes the write service on its first closed window:
    /// any sync byte exceeds the ceiling, confirmation is immediate and
    /// the cooldown is zero.
    fn demote_fast_policy() -> PlacementPolicy {
        PlacementPolicy {
            min_requests: 1,
            confirm_windows: 1,
            cooldown: SimDuration::from_secs(0),
            sync_bytes_per_write_ceiling: 1.0,
            ..PlacementPolicy::default()
        }
    }

    #[test]
    fn pinned_cloud_forwards_everything() {
        let report = transformed();
        let mut sys = ThreeTierSystem::deploy(
            APP,
            &report,
            &[DeviceSpec::rpi4()],
            ThreeTierOptions {
                placement: PlacementMode::Pinned(Placement::CloudPin),
                ..Default::default()
            },
        )
        .unwrap();
        let reqs: Vec<HttpRequest> = (0..20).map(unique_note).collect();
        let wl = Workload::constant_rate(&reqs, 10.0, 20);
        let stats = sys.run(&wl);
        assert_eq!(stats.completed, 20);
        assert_eq!(stats.forwarded, 20, "cloud-pinned services must forward");
        assert!(stats.wan_request_bytes > 0);
        assert_eq!(sys.placement_of(&note_key()), Placement::CloudPin);
        assert_eq!(sys.placement_stats().promotes, 0);
        assert_eq!(sys.placement_stats().demotes, 0);
    }

    #[test]
    fn cache_only_placement_serves_pure_reads_from_edge_cache() {
        let report = transformed();
        let deploy = |placement| {
            ThreeTierSystem::deploy(
                APP,
                &report,
                &[DeviceSpec::rpi4()],
                ThreeTierOptions {
                    placement,
                    cache: CachePolicy::All,
                    ..Default::default()
                },
            )
            .unwrap()
        };
        let mut reqs = vec![unique_note(1)];
        for _ in 0..10 {
            reqs.push(HttpRequest::get("/count", json!({})));
        }
        let wl = Workload::constant_rate(&reqs, 20.0, reqs.len());
        let mut sys = deploy(PlacementMode::Pinned(Placement::EdgeCacheOnly));
        let stats = sys.run(&wl);
        assert_eq!(stats.completed, 11);
        // the POST and the first GET forward; every later GET is an edge
        // cache hit validated against the edge's CRDT read-unit versions
        assert_eq!(stats.forwarded, 2);
        assert!(sys.cache_stats().hits >= 9);
        // no write lands between the GETs, so the cached responses are
        // bit-identical to a cloud-pinned run
        let mut pinned = deploy(PlacementMode::Pinned(Placement::CloudPin));
        let pinned_stats = pinned.run(&wl);
        assert_eq!(stats.response_digest, pinned_stats.response_digest);
    }

    #[test]
    fn adaptive_demotes_chatty_write_service_without_losing_writes() {
        let report = transformed();
        let mut sys = ThreeTierSystem::deploy(
            APP,
            &report,
            &[DeviceSpec::rpi4(), DeviceSpec::rpi3()],
            ThreeTierOptions {
                placement: PlacementMode::Adaptive(demote_fast_policy()),
                ..Default::default()
            },
        )
        .unwrap();
        let reqs: Vec<HttpRequest> = (0..40).map(unique_note).collect();
        let wl = Workload::constant_rate(&reqs, 10.0, 40);
        let stats = sys.run(&wl);
        assert_eq!(stats.completed, 40);
        assert_eq!(
            sys.placement_of(&note_key()),
            Placement::CloudPin,
            "a write service whose sync traffic exceeds the ceiling demotes"
        );
        let ps = sys.placement_stats();
        assert!(ps.demotes >= 1);
        assert!(!ps.transitions.is_empty());
        assert!(stats.forwarded > 0, "post-demotion writes must forward");
        // zero acked-write loss: after convergence the master dominates
        // every transition-time acked prefix and holds every write
        sys.sync_until_converged(stats.makespan, 50)
            .expect("cluster must converge");
        let master = sys.cloud_crdts.clock();
        for snap in &sys.placement_stats().acked_snapshots {
            assert!(master.dominates(snap), "acked write lost across demotion");
        }
        // 40 run inserts plus the capture warm-up row
        assert_eq!(sys.cloud_crdts.tables["notes"].len(), 41);
    }

    #[test]
    fn scripted_round_trip_demotes_then_promotes_without_losing_writes() {
        let report = transformed();
        let script = PlacementScript {
            pinned: None,
            decisions: vec![
                ScriptedDecision {
                    at: SimTime(1_000_000),
                    service: note_key(),
                    to: Placement::CloudPin,
                },
                ScriptedDecision {
                    at: SimTime(3_000_000),
                    service: note_key(),
                    to: Placement::EdgeReplicate,
                },
            ],
        };
        let mut sys = ThreeTierSystem::deploy(
            APP,
            &report,
            &[DeviceSpec::rpi4(), DeviceSpec::rpi3()],
            ThreeTierOptions {
                placement: PlacementMode::Scripted(script),
                ..Default::default()
            },
        )
        .unwrap();
        let reqs: Vec<HttpRequest> = (0..60).map(unique_note).collect();
        let wl = Workload::constant_rate(&reqs, 10.0, 60);
        let stats = sys.run(&wl);
        assert_eq!(stats.completed, 60);
        let ps = sys.placement_stats();
        assert_eq!(ps.demotes, 1);
        assert_eq!(ps.promotes, 1);
        assert_eq!(ps.transitions.len(), 2);
        assert!(
            stats.forwarded > 0 && stats.forwarded < 60,
            "only the cloud-pinned phase forwards, got {}",
            stats.forwarded
        );
        assert_eq!(sys.placement_of(&note_key()), Placement::EdgeReplicate);
        sys.sync_until_converged(stats.makespan, 50)
            .expect("cluster must converge");
        let master = sys.cloud_crdts.clock();
        for snap in &sys.placement_stats().acked_snapshots {
            assert!(master.dominates(snap), "acked write lost in round trip");
        }
        // 60 run inserts plus the capture warm-up row
        assert_eq!(sys.cloud_crdts.tables["notes"].len(), 61);
    }

    /// The E18 digest-parity contract: replaying an adaptive run's
    /// recorded decision schedule reproduces the run bit-for-bit.
    #[test]
    fn adaptive_run_replays_to_identical_digest() {
        let report = transformed();
        let mut reqs: Vec<HttpRequest> = (0..40).map(unique_note).collect();
        for _ in 0..10 {
            reqs.push(HttpRequest::get("/count", json!({})));
        }
        let wl = Workload::constant_rate(&reqs, 10.0, reqs.len());
        let deploy = |placement| {
            ThreeTierSystem::deploy(
                APP,
                &report,
                &[DeviceSpec::rpi4(), DeviceSpec::rpi3()],
                ThreeTierOptions {
                    placement,
                    ..Default::default()
                },
            )
            .unwrap()
        };
        let mut adaptive = deploy(PlacementMode::Adaptive(demote_fast_policy()));
        let a = adaptive.run(&wl);
        let schedule = adaptive.decision_schedule();
        assert!(!schedule.is_empty(), "the policy must have decided");
        let mut replay = deploy(PlacementMode::Scripted(PlacementScript {
            pinned: None,
            decisions: schedule,
        }));
        let r = replay.run(&wl);
        assert_eq!(a.response_digest, r.response_digest);
        assert_eq!(a.completed, r.completed);
        assert_eq!(a.forwarded, r.forwarded);
        assert_eq!(a.makespan, r.makespan);
        assert_eq!(
            adaptive.placement_stats().transitions.len(),
            replay.placement_stats().transitions.len()
        );
    }

    #[test]
    fn placement_telemetry_exports_gauges_and_events() {
        let report = transformed();
        let telemetry = Telemetry::recording();
        let mut sys = ThreeTierSystem::deploy(
            APP,
            &report,
            &[DeviceSpec::rpi4()],
            ThreeTierOptions {
                placement: PlacementMode::Adaptive(demote_fast_policy()),
                telemetry: telemetry.clone(),
                ..Default::default()
            },
        )
        .unwrap();
        let reqs: Vec<HttpRequest> = (0..40).map(unique_note).collect();
        let wl = Workload::constant_rate(&reqs, 10.0, 40);
        sys.run(&wl);
        let prom = telemetry.export_prometheus();
        for gauge in [
            "edgstr_placement_state",
            "edgstr_service_read_ratio",
            "edgstr_service_state_bytes",
        ] {
            assert!(prom.contains(gauge), "missing {gauge} in:\n{prom}");
        }
        let trace = telemetry.export_trace_jsonl();
        assert!(trace.contains("placement.pin"), "initial pins must trace");
        assert!(trace.contains("placement.demote"), "demotion must trace");
    }
}
