//! The serving workloads (`read_hot`, `write_sync`): set-up, the timed
//! phase and the output checks, all through the runtime's own
//! `ThreeTierSystem`.

use crate::gen::AppStream;
use crate::metrics::E2e;
use crate::stats::{crdt_digest, secs};
use edgstr_apps::{all_apps, SubjectApp};
use edgstr_core::{capture_and_transform, EdgStrConfig, TransformationReport};
use edgstr_runtime::{
    BalanceStrategy, CachePolicy, HaPolicy, ThreeTierOptions, ThreeTierSystem, TimedRequest,
    Workload,
};
use edgstr_sim::{DeviceSpec, SimDuration, SimTime};
use std::time::Instant;

/// Virtual length of one sync interval — one `run()` call per app.
pub const INTERVAL: SimDuration = SimDuration(1_000_000);
/// Prologue arrival rate per app (requests per virtual second).
pub const PROLOGUE_RPS: f64 = 200.0;
/// Intervals of the first pass replayed with the cache off to check that
/// every cached response equals a fresh execution.
const CACHE_OFF_CHECK_INTERVALS: usize = 20;

/// One serving workload's deployment and stream shape.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    pub edges: usize,
    pub cache: CachePolicy,
    pub ha: bool,
    /// Share of the stream that is reads (GET services).
    pub read_frac: f64,
    /// Entities per app that the prologue creates and reads address.
    pub universe: usize,
    /// Arrivals per app in each one-second interval.
    pub rps: f64,
    /// Sync intervals one pass serves.
    pub pass_intervals: usize,
}

/// Routing and cache work dominate: 95% Zipf reads on 2 edges.
pub const READ_HOT: ServeSpec = ServeSpec {
    edges: 2,
    cache: CachePolicy::All,
    ha: false,
    read_frac: 0.95,
    universe: 16,
    rps: 60.0,
    pass_intervals: 30,
};

/// CRDT absorb, sync and the HA path dominate: unique-key writes on 4
/// edges with a warm standby and durable saves, over pre-seeded tables.
pub const WRITE_SYNC: ServeSpec = ServeSpec {
    edges: 4,
    cache: CachePolicy::All,
    ha: true,
    read_frac: 0.0,
    universe: 96,
    rps: 16.0,
    pass_intervals: 30,
};

/// Transform one subject app from its sample requests.
pub fn transform_app(app: &SubjectApp) -> Result<TransformationReport, String> {
    let config = EdgStrConfig {
        app_name: app.name.to_string(),
        ..Default::default()
    };
    capture_and_transform(&app.source, &app.service_requests, &config)
        .map(|(report, _)| report)
        .map_err(|e| format!("{}: transform failed: {e}", app.name))
}

/// Runtime options of a serving workload: clean WAN, 1 s sync, compaction
/// on, round-robin routing so every edge serves and syncs.
fn options(spec: &ServeSpec, cache: CachePolicy) -> ThreeTierOptions {
    ThreeTierOptions {
        balance: BalanceStrategy::RoundRobin,
        sync_interval: INTERVAL,
        compaction: true,
        cache,
        ha: spec.ha.then(HaPolicy::default),
        ..Default::default()
    }
}

/// Deploy `report` on `edges` rpi4 edge devices.
pub fn deploy(
    app: &SubjectApp,
    report: &TransformationReport,
    edges: usize,
    options: ThreeTierOptions,
) -> Result<ThreeTierSystem, String> {
    ThreeTierSystem::deploy(
        &app.source,
        report,
        &vec![DeviceSpec::rpi4(); edges],
        options,
    )
    .map_err(|e| format!("{}: deploy failed: {e}", app.name))
}

/// Requests spaced `1 / rps` apart starting at `start`.
pub fn spaced(requests: Vec<edgstr_net::HttpRequest>, start: SimTime, rps: f64) -> Workload {
    let gap = SimDuration::from_secs_f64(1.0 / rps);
    let mut at = start;
    let requests = requests
        .into_iter()
        .map(|request| {
            at += gap;
            TimedRequest { at, request }
        })
        .collect();
    Workload { requests }
}

/// One app's deployed system and its request stream.
pub struct AppSystem {
    pub app: SubjectApp,
    pub report: TransformationReport,
    pub sys: ThreeTierSystem,
    pub stream: AppStream,
    /// Virtual start of the next interval.
    pub clock: SimTime,
    /// Response digest of the prologue run.
    pub prologue_digest: u64,
}

impl AppSystem {
    /// The next interval's arrivals: `rps` requests at seeded bursty
    /// offsets inside `[clock, clock + INTERVAL)`.
    pub fn next_interval(&mut self, rps: f64) -> Workload {
        let n = (rps * INTERVAL.as_secs_f64()).round() as usize;
        let start = self.clock;
        let requests = self
            .stream
            .arrivals(n, INTERVAL.0)
            .into_iter()
            .map(|offset| TimedRequest {
                at: SimTime(start.0 + offset),
                request: self.stream.next_request(),
            })
            .collect();
        self.clock = start + INTERVAL;
        Workload { requests }
    }
}

/// One pass's interval workloads, per interval and app, drawn from the
/// seeded streams of `systems`.
pub fn pass_rounds(systems: &mut [AppSystem], spec: &ServeSpec) -> Vec<Vec<Workload>> {
    (0..spec.pass_intervals)
        .map(|_| {
            systems
                .iter_mut()
                .map(|a| a.next_interval(spec.rps))
                .collect()
        })
        .collect()
}

/// Seed of app `i`'s stream.
pub fn app_seed(seed: u64, i: usize) -> u64 {
    edgstr_sim::rng::splitmix64(seed ^ (0x5EED_0000 + i as u64))
}

/// Run a fresh deployment's key-universe prologue and sync it to
/// convergence.
fn seed_system(
    app: SubjectApp,
    report: TransformationReport,
    mut sys: ThreeTierSystem,
    spec: &ServeSpec,
    seed: u64,
    i: usize,
) -> Result<AppSystem, String> {
    let stream = AppStream::new(
        &app,
        &report,
        spec.read_frac,
        spec.universe,
        app_seed(seed, i),
    );
    let prologue = spaced(stream.prologue(), SimTime::ZERO, PROLOGUE_RPS);
    let stats = sys.run(&prologue);
    if stats.failed > 0 {
        return Err(format!(
            "{}: {} prologue writes failed",
            app.name, stats.failed
        ));
    }
    let (_, at) = sys
        .sync_until_converged(stats.makespan, 32)
        .ok_or_else(|| format!("{}: no convergence after the prologue", app.name))?;
    // the stream opens on the first interval boundary after convergence
    let clock = SimTime((at.0 / INTERVAL.0 + 1) * INTERVAL.0);
    Ok(AppSystem {
        app,
        report,
        sys,
        stream,
        clock,
        prologue_digest: stats.response_digest,
    })
}

/// Transform, deploy and seed every app. Pushes one capture→deploy sample
/// per app into `transform_ms`.
pub fn setup(
    spec: &ServeSpec,
    seed: u64,
    transform_ms: &mut Vec<f64>,
) -> Result<Vec<AppSystem>, String> {
    let mut out = Vec::new();
    for (i, app) in all_apps().into_iter().enumerate() {
        let t = Instant::now();
        let report = transform_app(&app)?;
        let sys = deploy(&app, &report, spec.edges, options(spec, spec.cache))?;
        transform_ms.push(secs(t) * 1e3);
        out.push(seed_system(app, report, sys, spec, seed, i)?);
    }
    Ok(out)
}

/// Fresh seeded deployments of the same transformed apps.
fn redeploy(
    systems: Vec<AppSystem>,
    spec: &ServeSpec,
    cache: CachePolicy,
    seed: u64,
) -> Result<Vec<AppSystem>, String> {
    systems
        .into_iter()
        .enumerate()
        .map(|(i, a)| {
            let sys = deploy(&a.app, &a.report, spec.edges, options(spec, cache))?;
            seed_system(a.app, a.report, sys, spec, seed, i)
        })
        .collect()
}

/// Serve passes until `seconds` have passed, then check the outputs. A
/// pass sets up from scratch (transform, deploy, prologue, convergence;
/// `setup_s` is the median over passes) and then serves the same
/// `spec.pass_intervals` intervals, so state does not grow from pass to
/// pass and every pass measures the same work.
pub fn run(name: &str, spec: &ServeSpec, seed: u64, seconds: f64) -> E2e {
    let mut e = E2e::default();
    let mut systems: Vec<AppSystem> = Vec::new();
    // the pass's interval workloads, per interval and app
    let mut rounds: Vec<Vec<Workload>> = Vec::new();
    // response digests of the first pass, per interval and app
    let mut digests: Vec<Vec<u64>> = Vec::new();
    let phase = Instant::now();
    while e.passes == 0 || secs(phase) < seconds {
        drop(std::mem::take(&mut systems));
        let t = Instant::now();
        systems = match setup(spec, seed, &mut e.transform_ms) {
            Ok(s) => s,
            Err(err) => return e.fatal(err),
        };
        e.setup_s.push(secs(t));
        if rounds.is_empty() {
            // every pass's seeded deployment starts at the same clock, so
            // the first pass's intervals serve all of them
            rounds = pass_rounds(&mut systems, spec);
        }
        for round in &rounds {
            let mut round_digests = Vec::new();
            for (a, wl) in systems.iter_mut().zip(round) {
                let t = Instant::now();
                let mut stats = a.sys.run(wl);
                e.record_run(wl.len(), secs(t), &mut stats);
                round_digests.push(stats.response_digest);
            }
            if e.passes == 0 {
                digests.push(round_digests);
            }
        }
        e.passes += 1;
    }
    if e.failed > 0 {
        e.problems.push(format!(
            "{name}: {} requests failed on a clean WAN",
            e.failed
        ));
    }
    check_converged(&mut systems, &mut e);
    if spec.cache != CachePolicy::Off {
        check_cache_off(spec, seed, systems, &rounds, &digests, &mut e);
    }
    e
}

/// The prologue and the first pass on cache-off deployments must return
/// byte-identical responses: a cache hit always equals fresh execution.
fn check_cache_off(
    spec: &ServeSpec,
    seed: u64,
    cached: Vec<AppSystem>,
    rounds: &[Vec<Workload>],
    digests: &[Vec<u64>],
    e: &mut E2e,
) {
    let prologue: Vec<u64> = cached.iter().map(|a| a.prologue_digest).collect();
    let mut off = match redeploy(cached, spec, CachePolicy::Off, seed) {
        Ok(s) => s,
        Err(err) => {
            e.problems.push(format!("cache-off set-up: {err}"));
            return;
        }
    };
    for (a, digest) in off.iter().zip(prologue) {
        if a.prologue_digest != digest {
            e.problems.push(format!(
                "{}: prologue responses differ with the cache off",
                a.app.name
            ));
        }
    }
    let checked = rounds.iter().zip(digests).take(CACHE_OFF_CHECK_INTERVALS);
    for (k, (round, round_digests)) in checked.enumerate() {
        for ((a, wl), digest) in off.iter_mut().zip(round).zip(round_digests) {
            if a.sys.run(wl).response_digest != *digest {
                e.problems.push(format!(
                    "{}: interval {k} responses differ with the cache off",
                    a.app.name
                ));
            }
        }
    }
}

/// After draining, every replica converges to the master's replicated
/// state and the master still holds everything it ever acknowledged.
fn check_converged(systems: &mut [AppSystem], e: &mut E2e) {
    for a in systems.iter_mut() {
        let name = a.app.name;
        if a.sys.sync_until_converged(a.clock, 32).is_none() || !a.sys.converged() {
            e.problems
                .push(format!("{name}: replicas did not converge after the drain"));
            continue;
        }
        let master = crdt_digest(&a.sys.cloud_crdts);
        for (i, edge) in a.sys.edges.iter().enumerate() {
            if crdt_digest(&edge.crdts) != master {
                e.problems.push(format!(
                    "{name}: edge{i} state digest differs from the master"
                ));
            }
        }
        let final_clock = a.sys.cloud_crdts.clock();
        let acked = a
            .sys
            .edges
            .iter()
            .map(|edge| &edge.to_cloud.peer_clock)
            .chain(a.sys.ha_stats().acked_snapshots.iter());
        if acked.into_iter().any(|c| !final_clock.dominates(c)) {
            e.problems.push(format!(
                "{name}: an acknowledged write is missing on the master"
            ));
        }
    }
}
