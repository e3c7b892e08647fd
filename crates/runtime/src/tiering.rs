//! Per-service tier placement wired into the three-tier runtime.
//!
//! The decision logic lives in `edgstr-placement`; this module holds the
//! runtime-facing plumbing: the placement *mode* configured on
//! [`crate::ThreeTierOptions`], the scripted-replay schedule format, the
//! safe mid-run transition machinery (clock-domination barriers), and the
//! accumulated stats the E18 bench audits.
//!
//! ## Transition safety
//!
//! Placement flips never take effect at the decision instant. A
//! **promotion** to [`Placement::EdgeReplicate`] provisions from the
//! continuously-replicated CRDT state and *warms from the sync stream*:
//! it completes only once every live edge's clock dominates the cloud
//! clock snapshotted at decision time, so the first locally-served
//! request observes at least everything the cloud had decided on. A
//! **demotion** out of `EdgeReplicate` drains: the service keeps serving
//! locally until the cloud clock dominates every live edge's
//! decision-time clock — every unsynced delta has been folded to the
//! cloud — and only then falls back to forward-with-cache. (In-flight
//! requests complete atomically in the virtual-time driver, so request
//! draining is implied.) Because barrier completion is a pure function of
//! the deterministic sync schedule, a recorded decision schedule replayed
//! via [`PlacementMode::Scripted`] flips at identical virtual times and
//! reproduces bit-identical response digests.
//!
//! `PlacementPlane` owns all placement state: the effective placements,
//! the controller or script that changes them, and the pending
//! transitions. It never sees an edge replica — barrier checks take the
//! live clocks as arguments.

use crate::crdtset::{CrdtSet, SetChanges, SetClock};
use crate::system::ThreeTierOptions;
use edgstr_analysis::{EffectSummary, StateUnit};
use edgstr_core::TransformationReport;
use edgstr_net::Verb;
use edgstr_placement::{
    Observation, Placement, PlacementController, PlacementPolicy, ServiceKey, StaticSignals,
};
use edgstr_sim::{DeviceSpec, SimDuration, SimTime};
use edgstr_telemetry::{Registry, Telemetry, Tier};
use serde_json::Value as Json;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

/// How the deployment assigns per-service placements.
#[derive(Debug, Clone, Default)]
pub enum PlacementMode {
    /// The pre-controller semantics: services the transformation report
    /// replicates serve at the edge, everything else forwards. The
    /// default, and byte-for-byte identical to the pre-placement runtime.
    #[default]
    ReportStatic,
    /// Every service pinned to one placement (ablation cells). A pin to
    /// `EdgeReplicate` is clamped per service to the best placement it
    /// supports: cache-only when the report did not replicate it but its
    /// profile is cacheable, cloud otherwise.
    Pinned(Placement),
    /// The autonomous controller: decisions from static effect signals
    /// plus sliding telemetry windows, re-deciding at every sync tick.
    Adaptive(PlacementPolicy),
    /// Replay a recorded decision schedule (digest-parity reference runs).
    Scripted(PlacementScript),
}

/// A pinned-or-replayed placement schedule.
#[derive(Debug, Clone, Default)]
pub struct PlacementScript {
    /// Initial placement override for every service (`None` starts from
    /// the report-static assignment, as the adaptive controller does).
    pub pinned: Option<Placement>,
    /// Time-ordered decisions to replay.
    pub decisions: Vec<ScriptedDecision>,
}

/// One recorded (or replayed) placement decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScriptedDecision {
    pub at: SimTime,
    pub service: (Verb, String),
    pub to: Placement,
}

/// Why a transition has not taken effect yet.
#[derive(Debug, Clone)]
pub enum TransitionBarrier {
    /// No state hand-off needed: applies at the next barrier check.
    Immediate,
    /// Promotion warm-up: every live edge clock must dominate this cloud
    /// snapshot before local serving starts.
    EdgesDominate(SetClock),
    /// Demotion drain: the cloud clock must dominate each of these edge
    /// snapshots (all unsynced deltas folded) before forwarding starts.
    CloudDominates(Vec<SetClock>),
}

/// A decided transition waiting on its barrier.
#[derive(Debug, Clone)]
pub struct PendingTransition {
    pub service: (Verb, String),
    pub from: Placement,
    pub to: Placement,
    pub decided_at: SimTime,
    pub reason: String,
    pub barrier: TransitionBarrier,
}

/// A completed transition.
#[derive(Debug, Clone)]
pub struct TransitionRecord {
    pub service: (Verb, String),
    pub from: Placement,
    pub to: Placement,
    pub decided_at: SimTime,
    pub completed_at: SimTime,
    pub reason: String,
}

/// Accumulated placement activity across a system's lifetime.
#[derive(Debug, Clone, Default)]
pub struct PlacementStats {
    /// Every effective decision, in decision order — replayable verbatim
    /// as [`PlacementScript::decisions`].
    pub decided: Vec<ScriptedDecision>,
    /// Completed transitions with their barrier-crossing times.
    pub transitions: Vec<TransitionRecord>,
    /// Rank-increasing transitions (toward the edge).
    pub promotes: u32,
    /// Rank-decreasing transitions (toward the cloud).
    pub demotes: u32,
    /// Ack clocks snapshotted at every completed transition (each live
    /// edge's acked prefix). The zero-acked-write-loss audit: the final
    /// converged master clock must dominate every snapshot.
    pub acked_snapshots: Vec<SetClock>,
}

/// The live edges' clocks at one instant.
pub(crate) struct LiveEdges {
    /// Each live edge's CRDT clock (transition barriers).
    pub(crate) clocks: Vec<SetClock>,
    /// Each live edge's acked prefix (the write-loss audit).
    pub(crate) acked: Vec<SetClock>,
}

/// Per-service placement state and the control plane that changes it.
#[derive(Debug)]
pub(crate) struct PlacementPlane {
    /// Services the transformation report replicated.
    replicated: BTreeSet<ServiceKey>,
    /// Effective per-service placement; routing consults this on every
    /// request. Under the default [`PlacementMode::ReportStatic`] it is
    /// exactly the report's replicated set (replicated → `EdgeReplicate`,
    /// everything else → `CloudPin`).
    placements: BTreeMap<ServiceKey, Placement>,
    /// The autonomous controller ([`PlacementMode::Adaptive`] only).
    controller: Option<PlacementController>,
    /// Decided transitions waiting on their clock-domination barriers.
    pending: Vec<PendingTransition>,
    /// Scripted decision schedule, time-ordered, with a replay cursor.
    script: Vec<ScriptedDecision>,
    script_cursor: usize,
    stats: PlacementStats,
    effects: Rc<BTreeMap<ServiceKey, EffectSummary>>,
    /// The controller's forward-cost model: the cloud's compute and the
    /// WAN round trip.
    cloud: DeviceSpec,
    wan_rtt: SimDuration,
    telemetry: Telemetry,
}

impl PlacementPlane {
    /// The deploy-time assignment: every profiled or replicated service
    /// gets an explicit placement under `options.placement`, and `placement.pin`
    /// events and gauges record it.
    pub(crate) fn new(
        report: &TransformationReport,
        effects: Rc<BTreeMap<ServiceKey, EffectSummary>>,
        options: &ThreeTierOptions,
        master: &CrdtSet,
        cloud: &DeviceSpec,
        edge_cores: f64,
    ) -> Self {
        let replicated: BTreeSet<ServiceKey> = report.replica.replicated.iter().cloned().collect();
        let service_keys: BTreeSet<ServiceKey> = effects
            .keys()
            .cloned()
            .chain(replicated.iter().cloned())
            .collect();
        let pin = match &options.placement {
            PlacementMode::Pinned(p) => Some(*p),
            PlacementMode::Scripted(script) => script.pinned,
            PlacementMode::ReportStatic | PlacementMode::Adaptive(_) => None,
        };
        let placements = service_keys
            .iter()
            .map(|key| {
                let replicable = replicated.contains(key);
                let p = match pin {
                    Some(p) => clamp_placement(p, replicable, effects.get(key)),
                    None if replicable => Placement::EdgeReplicate,
                    None => Placement::CloudPin,
                };
                (key.clone(), p)
            })
            .collect::<BTreeMap<_, _>>();
        let controller = match &options.placement {
            PlacementMode::Adaptive(policy) => {
                // offered-demand utilization is measured against the
                // cluster's aggregate edge compute
                let mut c = PlacementController::new(policy.clone(), edge_cores.max(1.0));
                for key in &service_keys {
                    let replicable = replicated.contains(key);
                    let signals = match effects.get(key) {
                        Some(s) => StaticSignals::from_summary(
                            s,
                            replicable,
                            service_state_bytes(master, s),
                        ),
                        None => StaticSignals {
                            replicable,
                            ..StaticSignals::default()
                        },
                    };
                    c.register(key.clone(), signals, placements[key]);
                }
                Some(c)
            }
            _ => None,
        };
        let mut script = match &options.placement {
            PlacementMode::Scripted(s) => s.decisions.clone(),
            _ => Vec::new(),
        };
        script.sort_by_key(|d| d.at);
        // `placement.pin` events and initial placement gauges
        let telemetry = options.telemetry.clone();
        for (key, p) in placements.iter().filter(|_| telemetry.is_enabled()) {
            telemetry.event(
                "placement.pin",
                Tier::System,
                None,
                SimTime::ZERO,
                &[
                    ("service", Json::from(service_label(key))),
                    ("to", Json::from(p.as_str())),
                ],
            );
        }
        if let Some(reg) = telemetry.registry() {
            for (key, p) in &placements {
                state_gauge(&reg, key, *p);
            }
        }
        PlacementPlane {
            replicated,
            placements,
            controller,
            pending: Vec::new(),
            script,
            script_cursor: 0,
            stats: PlacementStats::default(),
            effects,
            cloud: cloud.clone(),
            wan_rtt: SimDuration(options.wan.latency.0 * 2),
            telemetry,
        }
    }

    /// The effective placement routing uses for `key` right now.
    pub(crate) fn placement_of(&self, key: &ServiceKey) -> Placement {
        self.placements
            .get(key)
            .copied()
            .unwrap_or(Placement::CloudPin)
    }

    pub(crate) fn stats(&self) -> &PlacementStats {
        &self.stats
    }

    pub(crate) fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Control-plane step at a sync tick: replay due scripted decisions,
    /// run the adaptive controller over the windows that just closed, then
    /// apply any transition whose barrier is met.
    pub(crate) fn tick(&mut self, at: SimTime, master: &CrdtSet, live: impl Fn() -> LiveEdges) {
        while let Some(d) = self
            .script
            .get(self.script_cursor)
            .filter(|d| d.at <= at)
            .cloned()
        {
            self.script_cursor += 1;
            self.begin_transition(d.service, d.to, d.at, "scripted", master, &live);
        }
        let decisions = match self.controller.as_mut() {
            Some(c) => c.tick(at),
            None => Vec::new(),
        };
        for d in decisions {
            self.begin_transition(d.service, d.to, d.at, d.reason.as_str(), master, &live);
        }
        if self.controller.is_some() {
            self.publish_gauges(master);
        }
        self.settle(at, master, live);
    }

    /// Queue one placement transition. A decision made while an earlier
    /// transition of the same service is still draining chains off that
    /// transition's target, preserving per-service FIFO order.
    fn begin_transition(
        &mut self,
        service: ServiceKey,
        to: Placement,
        at: SimTime,
        reason: &str,
        master: &CrdtSet,
        live: &impl Fn() -> LiveEdges,
    ) {
        let to = clamp_placement(
            to,
            self.replicated.contains(&service),
            self.effects.get(&service),
        );
        let from = self
            .pending
            .iter()
            .rev()
            .find(|t| t.service == service)
            .map(|t| t.to)
            .unwrap_or_else(|| self.placement_of(&service));
        if from == to {
            return;
        }
        self.stats.decided.push(ScriptedDecision {
            at,
            service: service.clone(),
            to,
        });
        let barrier = if to == Placement::EdgeReplicate {
            // promotion warm-up: local serving starts only once every live
            // edge has observed at least this cloud snapshot
            TransitionBarrier::EdgesDominate(master.clock())
        } else if from == Placement::EdgeReplicate {
            // demotion drain: keep serving locally until the cloud holds
            // every edge delta that existed at decision time
            TransitionBarrier::CloudDominates(live().clocks)
        } else {
            TransitionBarrier::Immediate
        };
        self.pending.push(PendingTransition {
            service,
            from,
            to,
            decided_at: at,
            reason: reason.to_string(),
            barrier,
        });
    }

    /// Apply every pending transition whose barrier is met, in decision
    /// order per service (a later transition never overtakes an earlier
    /// one that is still draining).
    pub(crate) fn settle(&mut self, at: SimTime, master: &CrdtSet, live: impl Fn() -> LiveEdges) {
        if self.pending.is_empty() {
            return;
        }
        let cloud_clock = master.clock();
        let live = live();
        let mut blocked: BTreeSet<ServiceKey> = BTreeSet::new();
        let mut i = 0;
        while i < self.pending.len() {
            let t = &self.pending[i];
            let ready = !blocked.contains(&t.service)
                && match &t.barrier {
                    TransitionBarrier::Immediate => true,
                    TransitionBarrier::EdgesDominate(snap) => {
                        live.clocks.iter().all(|c| c.dominates(snap))
                    }
                    TransitionBarrier::CloudDominates(snaps) => {
                        snaps.iter().all(|s| cloud_clock.dominates(s))
                    }
                };
            if ready {
                let t = self.pending.remove(i);
                self.complete_transition(t, at, &live.acked);
            } else {
                blocked.insert(self.pending[i].service.clone());
                i += 1;
            }
        }
    }

    /// Flip the effective placement, record the transition, snapshot the
    /// acked prefixes for the write-loss audit, and emit telemetry.
    fn complete_transition(&mut self, t: PendingTransition, at: SimTime, acked: &[SetClock]) {
        self.placements.insert(t.service.clone(), t.to);
        let promote = t.to.rank() > t.from.rank();
        if promote {
            self.stats.promotes += 1;
        } else {
            self.stats.demotes += 1;
        }
        // audit point for zero acked-write loss: the final converged
        // master clock must dominate every live edge's acked prefix as it
        // stood at the flip
        self.stats.acked_snapshots.extend_from_slice(acked);
        let telemetry = &self.telemetry;
        if telemetry.is_enabled() {
            telemetry.event(
                if promote {
                    "placement.promote"
                } else {
                    "placement.demote"
                },
                Tier::System,
                None,
                at,
                &[
                    ("service", Json::from(service_label(&t.service))),
                    ("from", Json::from(t.from.as_str())),
                    ("to", Json::from(t.to.as_str())),
                    ("reason", Json::from(t.reason.clone())),
                ],
            );
            if let Some(reg) = telemetry.registry() {
                state_gauge(&reg, &t.service, t.to);
            }
        }
        self.stats.transitions.push(TransitionRecord {
            service: t.service,
            from: t.from,
            to: t.to,
            decided_at: t.decided_at,
            completed_at: at,
            reason: t.reason,
        });
    }

    /// Per-service controller gauges: effective placement rank, window
    /// read ratio, and live state-byte footprint.
    fn publish_gauges(&self, master: &CrdtSet) {
        let (Some(reg), Some(c)) = (self.telemetry.registry(), self.controller.as_ref()) else {
            return;
        };
        for (key, _, summary) in c.snapshot() {
            state_gauge(&reg, &key, self.placement_of(&key));
            let label = service_label(&key);
            reg.gauge("edgstr_service_read_ratio", &[("service", &label)])
                .set(summary.read_ratio);
            let state_bytes = self
                .effects
                .get(&key)
                .map_or(0, |s| service_state_bytes(master, s));
            reg.gauge("edgstr_service_state_bytes", &[("service", &label)])
                .set(state_bytes as f64);
        }
    }

    /// Feed one completed request served via `edge` into the adaptive
    /// controller's window, with matched actual/estimated costs for both
    /// serving paths. The local-demand estimate is always the *unloaded*
    /// edge compute time, so post-demotion utilization keeps reflecting
    /// offered demand rather than queueing feedback.
    pub(crate) fn observe(
        &mut self,
        key: &ServiceKey,
        edge: &DeviceSpec,
        cache_hit: bool,
        forwarded: bool,
        cycles: u64,
        wait: SimDuration,
    ) {
        let Some(c) = self.controller.as_mut() else {
            return;
        };
        let write = self.effects.get(key).is_some_and(|s| !s.pure);
        let local_est = edge.service_time(cycles).0;
        let forward_est = self.wan_rtt.0 + self.cloud.service_time(cycles).0;
        let (local_us, forward_us) = if forwarded {
            (local_est, wait.0)
        } else {
            (wait.0, forward_est)
        };
        c.observe(
            key,
            Observation {
                write,
                cache_hit,
                local_us,
                forward_us,
                local_demand_us: local_est,
            },
        );
    }

    /// Split one sync message's wire bytes across the services that write
    /// the units it carries (equal share per writer), at change-count
    /// granularity — the controller's per-service sync-traffic signal.
    pub(crate) fn observe_sync(&mut self, msg_bytes: u64, changes: &SetChanges) {
        let Some(c) = self.controller.as_mut() else {
            return;
        };
        let total = changes.len() as u64;
        if total == 0 {
            return;
        }
        // the services writing a unit `unit` accepts, once per such write
        let effects = &self.effects;
        let writers = |unit: &dyn Fn(&StateUnit) -> bool| {
            let mut out = Vec::new();
            for (key, summary) in effects.iter() {
                out.extend(summary.writes.iter().filter(|w| unit(w)).map(|_| key));
            }
            out
        };
        let mut share_out = |writers: Vec<&ServiceKey>, changed: usize| {
            let per = msg_bytes * changed as u64 / total / writers.len().max(1) as u64;
            if per > 0 {
                for w in writers {
                    c.observe_sync_bytes(w, per);
                }
            }
        };
        for (table, ch) in &changes.tables {
            share_out(
                writers(&|u| matches!(u, StateUnit::DbTable(t) if t == table)),
                ch.len(),
            );
        }
        // file and global changes are not split per unit on the wire; their
        // byte share goes once to every service writing any unit of that kind
        if !changes.files.is_empty() {
            let files: BTreeSet<_> = writers(&|u| matches!(u, StateUnit::File(_)))
                .into_iter()
                .collect();
            share_out(files.into_iter().collect(), changes.files.len());
        }
        if !changes.globals.is_empty() {
            let globals: BTreeSet<_> = writers(&|u| matches!(u, StateUnit::Global(_)))
                .into_iter()
                .collect();
            share_out(globals.into_iter().collect(), changes.globals.len());
        }
    }
}

/// Telemetry label for a service key: `"GET /path"`.
fn service_label(key: &ServiceKey) -> String {
    format!("{} {}", key.0, key.1)
}

/// Publish `p` as `key`'s `edgstr_placement_state` gauge (its rank).
fn state_gauge(reg: &Registry, key: &ServiceKey, p: Placement) {
    let label = service_label(key);
    reg.gauge("edgstr_placement_state", &[("service", &label)])
        .set(f64::from(p.rank()));
}

/// Clamp a requested placement to what the service supports:
/// `EdgeReplicate` needs the report to have replicated the service;
/// otherwise the best remaining placement is cache-only (when the profile
/// is cacheable) or the cloud.
fn clamp_placement(
    requested: Placement,
    replicable: bool,
    summary: Option<&EffectSummary>,
) -> Placement {
    match requested {
        Placement::EdgeReplicate if !replicable => {
            if summary.is_some_and(|s| s.cacheable) {
                Placement::EdgeCacheOnly
            } else {
                Placement::CloudPin
            }
        }
        p => p,
    }
}

/// Byte footprint of a service's write set in the given CRDT state (the
/// `edgstr_service_state_bytes` gauge and the controller's static
/// state-footprint signal).
fn service_state_bytes(crdts: &CrdtSet, summary: &EffectSummary) -> u64 {
    let mut bytes = 0u64;
    for w in &summary.writes {
        bytes += match w {
            StateUnit::DbTable(t) => crdts
                .tables
                .get(t)
                .map_or(0, |t| t.to_json().to_string().len() as u64),
            StateUnit::File(f) => crdts.files.size(f).unwrap_or(0),
            StateUnit::Global(g) => match crdts.globals.to_json() {
                Json::Object(m) => m.get(g).map_or(0, |v| v.to_string().len() as u64),
                _ => 0,
            },
        };
    }
    bytes
}
