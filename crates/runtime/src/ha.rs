//! The high-availability supervisor (DESIGN.md §10): the warm standby, the
//! durable log, the crash schedule and failover. It is the one module that
//! knows where a re-provisioned process resumes from — the standby's
//! image, else the durable log, else a fallback — and what acks are capped
//! at. Crash-schedule events it cannot apply alone — an edge restart, a
//! new master — come back to the system as `HaAction`s.

use crate::crdtset::{CrdtSet, SetClock, SyncEndpoint};
use crate::driver::{materialized, Provisioner, Role};
use crate::durable::DurableLog;
use crate::system::{live_acked, EdgeReplica, ThreeTierOptions};
use edgstr_analysis::{ServerError, ServerProcess};
use edgstr_crdt::AdvanceMode;
use edgstr_net::{CrashEvent, CrashKind};
use edgstr_sim::{SimDuration, SimTime};
use edgstr_telemetry::{Telemetry, Tier};
use serde_json::Value as Json;

/// High-availability policy for the cloud master (§failure & recovery).
///
/// With a warm standby, the master replicates every sync delta (and every
/// forwarded write) to a second cloud replica over the reliable intra-DC
/// link before the round's acknowledgments go out; a deterministic health
/// monitor promotes the standby `detect_delay` after a master crash.
/// `ack_capping` is the zero-acked-write-loss mechanism: acknowledgment
/// clocks sent to the edges are capped at the durability frontier (what
/// the standby — or the durable log — provably holds), so no
/// replica ever compacts state the failover target could be missing.
#[derive(Debug, Clone)]
pub struct HaPolicy {
    /// Run a warm-standby cloud replica and promote it on master crash.
    pub standby: bool,
    /// Health-monitor detection delay between master crash and promotion.
    pub detect_delay: SimDuration,
    /// Keep a durable log of the master (the recovery source when no
    /// standby is configured): a base image plus one append-only delta
    /// record per sync round and per forwarded write, each holding only
    /// what the master gained since the previous record. The log rebases
    /// onto a fresh image once its records outgrow the base, so
    /// persisting costs O(delta) amortized (see [`DurableLog`]).
    pub durable_saves: bool,
    /// Cap acks at the durability frontier. Disabling this is the unsafe
    /// ablation: acked writes can vanish when the master dies.
    pub ack_capping: bool,
}

impl Default for HaPolicy {
    fn default() -> Self {
        HaPolicy {
            standby: true,
            detect_delay: SimDuration::from_millis(500),
            durable_saves: true,
            ack_capping: true,
        }
    }
}

/// Accumulated failure/recovery observations across a system's lifetime.
#[derive(Debug, Clone, Default)]
pub struct HaStats {
    /// Edge processes crashed (scheduled or manual).
    pub edge_crashes: u32,
    /// Edge processes restarted and re-provisioned.
    pub edge_restarts: u32,
    /// Cloud-master crashes observed.
    pub master_crashes: u32,
    /// Standby promotions performed.
    pub failovers: u32,
    /// Master recoveries from the durable log (no standby).
    pub durable_recoveries: u32,
    /// `(crash, recovered)` times for each completed master outage.
    pub outages: Vec<(SimTime, SimTime)>,
    /// Shadow executions compared against the primary.
    pub shadow_checks: u64,
    /// Digest mismatches observed across all replicas.
    pub shadow_mismatches: u64,
    /// `(edge index, time)` of each quarantine.
    pub quarantines: Vec<(usize, SimTime)>,
    /// Ack clocks snapshotted at every crash (each edge's acked prefix at
    /// its own crash; every live edge's acked prefix at a master crash).
    /// The zero-acked-write-loss audit: the final converged master clock
    /// must dominate every snapshot.
    pub acked_snapshots: Vec<SetClock>,
}

impl HaStats {
    /// Total master unavailability across completed outages.
    pub fn master_downtime(&self) -> SimDuration {
        SimDuration(self.outages.iter().map(|(c, r)| r.since(*c).0).sum())
    }

    /// Recovery time of each completed master outage.
    pub fn recovery_times(&self) -> Vec<SimDuration> {
        self.outages.iter().map(|(c, r)| r.since(*c)).collect()
    }
}

/// The warm-standby cloud replica and its intra-DC replication channel.
#[derive(Debug)]
struct CloudStandby {
    server: ServerProcess,
    crdts: CrdtSet,
    /// Master-side endpoint: its `peer_clock` is what the standby has
    /// acknowledged — the durability frontier under [`HaPolicy`].
    master_link: SyncEndpoint,
    /// Standby-side endpoint.
    standby_link: SyncEndpoint,
}

impl CloudStandby {
    /// A standby resuming from `image` (a copy of the master), or fresh at
    /// the init snapshot.
    fn provision(prov: &mut Provisioner, image: Option<CrdtSet>) -> Result<Self, ServerError> {
        let p = prov.process(Role::Cloud, image)?;
        Ok(CloudStandby {
            master_link: SyncEndpoint::resuming(AdvanceMode::OnAck, p.resume.clone()),
            standby_link: SyncEndpoint::resuming(AdvanceMode::OnAck, p.resume),
            server: p.server,
            crdts: p.crdts,
        })
    }
}

/// A due crash-schedule transition the system must apply.
pub(crate) enum HaAction {
    /// Restart crashed edge `.0` at `.1`.
    RejoinEdge(usize, SimTime),
    /// Make a promoted standby or a recovered process the master, then
    /// rejoin the edges whose restart waited for it.
    InstallMaster {
        master: Box<(ServerProcess, CrdtSet)>,
        rejoin: Vec<usize>,
        at: SimTime,
    },
}

/// Failover state: standby, durable log, crash schedule, master health.
#[derive(Debug)]
pub(crate) struct HaSupervisor {
    /// `None` without an HA tier: the master is then not crashable.
    policy: Option<HaPolicy>,
    standby: Option<CloudStandby>,
    durable: Option<DurableLog>,
    /// `Some` while the master is down (sync rounds no-op and forwards
    /// fail until promotion or durable recovery): the latest master crash
    /// event, where the outage [`HaStats::outages`] records starts.
    down_since: Option<SimTime>,
    /// Scheduled promotion time (master crash + detect delay).
    pending_promotion: Option<SimTime>,
    /// Time-ordered crash schedule drained by
    /// [`HaSupervisor::next_action`].
    crash_events: Vec<CrashEvent>,
    crash_cursor: usize,
    /// Edge restarts that arrived while the master was down; rejoined at
    /// the next promotion/recovery.
    deferred_restarts: Vec<usize>,
    stats: HaStats,
    telemetry: Telemetry,
}

impl HaSupervisor {
    /// The deploy-time HA tier for `master`: a warm standby and a durable
    /// log when the HA policy asks for them.
    pub(crate) fn new(
        options: &ThreeTierOptions,
        master: &CrdtSet,
        prov: &mut Provisioner,
    ) -> Result<Self, ServerError> {
        let (policy, telemetry) = (options.ha.clone(), &options.telemetry);
        let standby = match &policy {
            Some(p) if p.standby => Some(CloudStandby::provision(prov, None)?),
            _ => None,
        };
        let durable = policy
            .as_ref()
            .filter(|p| p.durable_saves)
            .map(|_| DurableLog::new(master, telemetry));
        Ok(HaSupervisor {
            policy,
            standby,
            durable,
            down_since: None,
            pending_promotion: None,
            crash_events: options
                .crashes
                .as_ref()
                .map(|p| p.events().to_vec())
                .unwrap_or_default(),
            crash_cursor: 0,
            deferred_restarts: Vec::new(),
            stats: HaStats::default(),
            telemetry: telemetry.clone(),
        })
    }

    pub(crate) fn stats(&self) -> &HaStats {
        &self.stats
    }

    /// Crash `edge`, snapshotting its acked prefix for the write-loss
    /// audit.
    pub(crate) fn crash_edge(&mut self, edge: &mut EdgeReplica) {
        self.stats.edge_crashes += 1;
        self.stats.acked_snapshots.push(edge.crash());
    }

    /// Where edge restarts and the multi-variant check record
    /// their outcomes.
    pub(crate) fn stats_mut(&mut self) -> &mut HaStats {
        &mut self.stats
    }

    pub(crate) fn master_down(&self) -> bool {
        self.down_since.is_some()
    }

    /// The durability frontier under ack capping: what the failover target
    /// (standby, else durable log) provably holds. `None` disables
    /// capping (no HA, or the unsafe ablation).
    pub(crate) fn durability_clock(&self) -> Option<SetClock> {
        if !self.policy.as_ref()?.ack_capping {
            return None;
        }
        match (&self.standby, &self.durable) {
            (Some(sb), _) => Some(sb.master_link.peer_clock.clone()),
            (None, log) => log.as_ref().map(|log| log.frontier().clone()),
        }
    }

    /// The state a re-provisioned process resumes from, under a new actor:
    /// the durability frontier's holder — the standby's image, else the
    /// durable log — else `fallback` (a copy of the live master for an
    /// edge; the init snapshot for a master, losing everything since
    /// deploy). An image ahead of the frontier would bake unacked changes
    /// into a fresh snapshot, where a post-failover master could never
    /// recover them as changes; anything between the frontier and the
    /// master's head reaches the process through sync.
    pub(crate) fn recovery_image(
        &self,
        prov: &mut Provisioner,
        fallback: impl FnOnce(&mut Provisioner) -> CrdtSet,
    ) -> CrdtSet {
        match (&self.standby, &self.durable) {
            (Some(sb), _) => prov.copy_of(&sb.crdts),
            (None, Some(log)) => {
                let actor = prov.actor();
                log.recover(actor, prov.bindings())
                    .expect("durable log must replay")
            }
            (None, None) => fallback(prov),
        }
    }

    /// One reliable intra-DC replication exchange: master delta to the
    /// standby, standby acknowledgment back. Advances the durability
    /// frontier ([`HaSupervisor::durability_clock`]).
    pub(crate) fn replicate(&mut self, master: &mut CrdtSet, server: &mut ServerProcess) {
        if let Some(sb) = self.standby.as_mut() {
            let msg = sb.master_link.generate(master);
            let applied = sb
                .standby_link
                .receive_owned(&mut sb.crdts, &mut sb.server, msg);
            materialized(&self.telemetry, applied);
            let ack = sb.standby_link.generate(&sb.crdts);
            let applied = sb.master_link.receive_owned(master, server, ack);
            materialized(&self.telemetry, applied);
        }
    }

    /// Append the master's progress to the durable log (when the policy
    /// keeps one) — the recovery source for a standby-less restart.
    pub(crate) fn persist(&mut self, master: &CrdtSet) {
        if let Some(log) = self.durable.as_mut() {
            log.append(master);
        }
    }

    /// A client-acked forwarded write must survive failover: under HA it
    /// reaches the standby and the durable log before the ack returns.
    pub(crate) fn secure_write(&mut self, master: &mut CrdtSet, server: &mut ServerProcess) {
        if self.policy.is_some() {
            self.replicate(master, server);
            self.persist(master);
        }
    }

    /// Fold the standby's history up to `frontier`; returns the changes
    /// dropped.
    pub(crate) fn compact_standby(&mut self, frontier: &SetClock) -> usize {
        self.standby
            .as_mut()
            .map_or(0, |sb| sb.crdts.compact(frontier))
    }

    /// The next crash-schedule event (or pending promotion) due at or
    /// before `now`, in time order. Transitions internal to the HA tier
    /// are applied here; the rest come back as an [`HaAction`] the caller
    /// applies before asking again. Called from the run loop, sync rounds,
    /// and each forward attempt so transitions take effect exactly at
    /// their virtual times.
    pub(crate) fn next_action(
        &mut self,
        now: SimTime,
        edges: &mut [EdgeReplica],
        master: &CrdtSet,
        prov: &mut Provisioner,
    ) -> Option<HaAction> {
        loop {
            let next_crash = self
                .crash_events
                .get(self.crash_cursor)
                .filter(|e| e.at <= now)
                .map(|e| e.at);
            let promo = self.pending_promotion.filter(|t| *t <= now);
            let action = match (next_crash, promo) {
                (Some(c), Some(p)) if p <= c => self.promote(p),
                (Some(_), _) => {
                    let ev = self.crash_events[self.crash_cursor].clone();
                    self.crash_cursor += 1;
                    self.apply_crash_event(&ev, edges, master, prov)
                }
                (None, Some(p)) => self.promote(p),
                (None, None) => return None,
            };
            if action.is_some() {
                return action;
            }
        }
    }

    fn apply_crash_event(
        &mut self,
        ev: &CrashEvent,
        edges: &mut [EdgeReplica],
        master: &CrdtSet,
        prov: &mut Provisioner,
    ) -> Option<HaAction> {
        if ev.node == "cloud" {
            // without an HA policy the master is not crashable
            let (detect_delay, keeps_standby) =
                self.policy.as_ref().map(|p| (p.detect_delay, p.standby))?;
            match ev.kind {
                CrashKind::Down => {
                    // a repeated crash while down only moves the outage start
                    if self.down_since.replace(ev.at).is_some() {
                        return None;
                    }
                    self.stats.master_crashes += 1;
                    // audit point: everything the old master ever acked is
                    // bounded by what the edges saw — snapshot it
                    self.stats.acked_snapshots.extend(live_acked(edges));
                    self.telemetry
                        .event("crash.cloud", Tier::Cloud, None, ev.at, &[]);
                    if self.standby.is_some() {
                        // deterministic health monitor: promote after the
                        // detection delay
                        self.pending_promotion = Some(ev.at + detect_delay);
                    }
                }
                // no standby was available: recover from the durable log
                // (or cold-start from init)
                CrashKind::Up if self.master_down() => return Some(self.recover(ev.at, prov)),
                // a standby was already promoted; the returning process
                // becomes the new standby
                CrashKind::Up if keeps_standby => self.provision_standby(ev.at, master, prov),
                CrashKind::Up => {}
            }
            return None;
        }
        let i = ev
            .node
            .strip_prefix("edge")
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|i| *i < edges.len())?;
        match ev.kind {
            CrashKind::Down if !edges[i].is_crashed() => {
                self.crash_edge(&mut edges[i]);
                let attrs = [("edge", Json::from(i as u64))];
                self.telemetry
                    .event("crash.edge", Tier::Edge, None, ev.at, &attrs);
                None
            }
            // nothing to provision from while the master is down; rejoin
            // at the next promotion/recovery
            CrashKind::Up if edges[i].is_crashed() && self.master_down() => {
                self.deferred_restarts.push(i);
                None
            }
            CrashKind::Up if edges[i].is_crashed() => Some(HaAction::RejoinEdge(i, ev.at)),
            _ => None,
        }
    }

    /// Promote the warm standby to master: edges re-home to it on their
    /// next sync round / forward retry.
    fn promote(&mut self, at: SimTime) -> Option<HaAction> {
        self.pending_promotion = None;
        let sb = self.standby.take()?;
        self.persist(&sb.crdts);
        self.stats.failovers += 1;
        self.telemetry.event(
            "failover.promote",
            Tier::Cloud,
            None,
            at,
            &[("failovers", Json::from(self.stats.failovers as u64))],
        );
        Some(self.installed(sb.server, sb.crdts, at))
    }

    /// Recover a standby-less master from the durable log (or, with
    /// durable saves disabled — the ablation — cold-start from the init
    /// snapshot, losing everything since deploy). The recovered master is
    /// a new incarnation, so its first persist rebases the log.
    fn recover(&mut self, at: SimTime, prov: &mut Provisioner) -> HaAction {
        let image = self.recovery_image(prov, Provisioner::initial_state);
        let process = prov
            .process(Role::Cloud, Some(image))
            .expect("cloud init re-runs cleanly");
        self.stats.durable_recoveries += 1;
        self.telemetry
            .event("failover.recover", Tier::Cloud, None, at, &[]);
        self.installed(process.server, process.crdts, at)
    }

    /// Close the open outage and hand the new master over.
    fn installed(&mut self, server: ServerProcess, crdts: CrdtSet, at: SimTime) -> HaAction {
        // a master back before its detection delay was recovered already
        if let Some(crashed_at) = self.down_since.take() {
            self.stats.outages.push((crashed_at, at));
        }
        HaAction::InstallMaster {
            master: Box::new((server, crdts)),
            rejoin: std::mem::take(&mut self.deferred_restarts),
            at,
        }
    }

    /// Provision a fresh warm standby from the current master's save image
    /// (the returning ex-master process after a failover).
    fn provision_standby(&mut self, at: SimTime, master: &CrdtSet, prov: &mut Provisioner) {
        let image = prov.copy_of(master);
        let standby =
            CloudStandby::provision(prov, Some(image)).expect("cloud init re-runs cleanly");
        self.standby = Some(standby);
        self.telemetry
            .event("standby.provision", Tier::Cloud, None, at, &[]);
    }
}
