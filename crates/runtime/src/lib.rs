//! # edgstr-runtime — the three-tier runtime EdgStr deploys
//!
//! Implements §III-F/G and §IV-D of the paper:
//!
//! - [`CrdtSet`] — the CRDT wiring connecting service state changes to
//!   `CRDT-Table` / `CRDT-Files` / `CRDT-JSON` update operations, plus
//!   materialization of remote changes back into the local database, file
//!   system and globals;
//! - [`SyncEndpoint`] — the bidirectional `cloud_state` / `edge_state`
//!   channel with delta shipping and traffic accounting (Fig. 5b);
//! - [`LoadBalancer`] / [`Autoscaler`] — least-connections balancing and
//!   elasticity with low-power replica parking (§IV-D);
//! - [`TwoTierSystem`] / [`ThreeTierSystem`] — virtual-time drivers for
//!   the original client-cloud deployment and the EdgStr-generated
//!   client-edge-cloud deployment, including failure forwarding to the
//!   cloud master;
//! - [`DurableLog`] — the cloud master's O(delta) durable log (base image
//!   plus append-only delta records), the standby-less recovery source.

pub mod balancer;
pub mod cache;
pub mod crdtset;
pub mod driver;
pub mod durable;
pub mod parallel;
pub mod system;
pub mod tiering;

pub use balancer::{Autoscaler, BalanceStrategy, LoadBalancer};
pub use cache::{
    bump_static_global_writes, resolve_reads, CacheKey, CachePolicy, CacheStats, ResponseCache,
    UnitKey, UnitVersions, CACHE_HIT_CYCLES,
};
pub use crdtset::{CrdtSet, SetChanges, SetClock, SetSyncMessage, SyncEndpoint};
pub use driver::{FaultPolicy, MobilePower, RunRecorder, RunStats, TimedRequest, Workload};
pub use durable::DurableLog;
pub use parallel::{ParallelOptions, ParallelRunStats, ParallelSystem, ReplicaSeed, FAILED_DIGEST};
pub use system::{
    BitFlipCorruptor, EdgeReplica, HaPolicy, HaStats, QuarantinePolicy, ThreeTierOptions,
    ThreeTierSystem, TwoTierSystem,
};
pub use tiering::{
    PendingTransition, PlacementMode, PlacementScript, PlacementStats, ScriptedDecision,
    TransitionBarrier, TransitionRecord,
};
// Decision-logic types re-exported so runtime consumers need not depend on
// `edgstr-placement` directly.
pub use edgstr_placement::{
    desired_placement, Decision, DecisionReason, Observation, Placement, PlacementController,
    PlacementPolicy, StaticSignals, WindowSummary,
};
