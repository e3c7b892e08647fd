//! Traced runs: per-layer host time from outside the program.
//!
//! Each traced run replays its workload through the layers' public calls,
//! in the order the runtime makes them, and wraps every call in a span
//! ([`crate::trace`]):
//!
//! - `transform` repeats `transform()`'s steps (capture, parse, replay,
//!   profile, generate) plus `deploy`, and checks that the generated
//!   replica source equals `transform()`'s own. The datalog step runs
//!   inside `profile_service`, so it is timed as a separate call on traces
//!   the benchmark records itself.
//! - `read_hot` / `write_sync` drive one cloud, the edges and (with HA)
//!   the standby through `ServerProcess::handle`, the response cache, the
//!   CRDT set and the sync endpoints, as `ThreeTierSystem::run` and
//!   `sync_round` do. The same stream also runs through the runtime
//!   untraced, so the report shows the replay's cache hit ratio and sync
//!   bytes beside the runtime's. `read_hot` also times `ParallelSystem::run`
//!   on the same kind of stream.
//!
//! Every traced run reports coverage (layer self time over traced wall
//! time) and tracing overhead (traced over untraced wall time of the same
//! replay). End-to-end numbers never come from these runs.

use crate::gen::AppStream;
use crate::metrics::Metric;
use crate::pipeline::EDGES;
use crate::serve::{self, app_seed, spaced, AppSystem, ServeSpec, INTERVAL};
use crate::stats::secs;
use crate::trace::{Agg, Tracer};
use edgstr_analysis::fuzz::{fuzz_request, request_atoms, response_atoms, FuzzDictionary};
use edgstr_analysis::trace::Tracer as ExecTracer;
use edgstr_analysis::{
    facts::TraceRun, profile_service, AnalysisFacts, EffectSummary, InitState, ServerProcess,
    StateUnit,
};
use edgstr_apps::{all_apps, SubjectApp};
use edgstr_core::{generate_replica, CrdtBindings, EdgStrConfig, TransformationReport};
use edgstr_crdt::ActorId;
use edgstr_net::{HttpRequest, HttpResponse, TrafficCapture, Verb};
use edgstr_runtime::{
    bump_static_global_writes, resolve_reads, CacheKey, CachePolicy, CrdtSet, ParallelOptions,
    ParallelSystem, ResponseCache, SetClock, SyncEndpoint, ThreeTierOptions, UnitKey, Workload,
};
use edgstr_sim::SimTime;
use edgstr_telemetry::Telemetry;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Where the span exports go, relative to the checkout root.
const OUT_DIR: &str = "perfbench/out";
/// Share of `--seconds` the two untraced pipeline blocks take together;
/// the two traced blocks repeat as many passes.
const UNTRACED_SHARE: f64 = 0.2;
/// Replicas of the parallel executor pass (one worker thread).
const PARALLEL_REPLICAS: usize = 8;
/// Stream requests per app of the parallel executor pass.
const PARALLEL_REQUESTS: usize = 2048;

/// The per-layer metrics, in `BENCHMARK.json` order, with units. Every
/// traced run reports all of them; a layer a workload bypasses reads 0.
pub const LAYER_METRICS: [(&str, &str); 40] = [
    ("lang.parse_us", "us"),
    ("analysis.capture_us", "us"),
    ("analysis.replay_us", "us"),
    ("analysis.profile_us", "us"),
    ("analysis.profile_runs", "count"),
    ("datalog.facts_us", "us"),
    ("template.generate_us", "us"),
    ("runtime.deploy_us", "us"),
    ("route.plan_ns", "ns"),
    ("cache.lookup_ns", "ns"),
    ("cache.fill_ns", "ns"),
    ("cache.hit_ratio", "ratio"),
    ("cache.invalidations", "count"),
    ("vm.handle_us", "us"),
    ("vm.cycles", "count"),
    ("vm.exec_ratio", "ratio"),
    ("crdt.absorb_us", "us"),
    ("sync.generate_us", "us"),
    ("sync.size_us", "us"),
    ("sync.receive_us", "us"),
    ("sync.msg_bytes", "bytes"),
    ("sync.materialize_useful_ratio", "ratio"),
    ("sync.compact_us", "us"),
    ("crdt.resident_changes", "count"),
    ("ha.replicate_us", "us"),
    ("ha.save_us", "us"),
    ("ha.save_kb", "KB"),
    ("parallel.serve_ms", "ms"),
    ("parallel.build_flush_ms", "ms"),
    ("parallel.delta_msgs", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.spans", "count"),
    ("fidelity.cache_hit_ratio_replay", "ratio"),
    ("fidelity.cache_hit_ratio_runtime", "ratio"),
    ("fidelity.sync_kb_replay", "KB"),
    ("fidelity.sync_kb_runtime", "KB"),
    ("fidelity.wall_ratio", "ratio"),
    ("fidelity.replica_source_match", "ratio"),
    ("trace.wall_s", "s"),
];

/// Result of a traced run.
pub struct Traced {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub problems: Vec<String>,
    pub notes: Vec<String>,
}

/// Per-layer values being assembled for one traced run.
#[derive(Default)]
struct Layers {
    values: BTreeMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    notes: Vec<String>,
}

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Mean self time per call of span `span`, divided by `scale` ns.
    fn per_call(
        &mut self,
        agg: &BTreeMap<&'static str, Agg>,
        metric: &'static str,
        span: &str,
        scale: f64,
    ) {
        if let Some(a) = agg.get(span) {
            self.set(metric, a.self_ns as f64 / a.calls.max(1) as f64 / scale);
        }
    }

    /// Coverage, span count and the span exports of `tracer`.
    fn finish_trace(&mut self, tracer: &Tracer, traced_wall: f64, untraced_wall: f64, stem: &str) {
        self.set("trace.wall_s", traced_wall);
        self.set(
            "trace.coverage",
            tracer.layer_self_ns() as f64 / 1e9 / traced_wall.max(1e-9),
        );
        self.set("trace.overhead", traced_wall / untraced_wall.max(1e-9));
        self.set("trace.spans", tracer.spans().len() as f64);
        let agg = tracer.aggregate();
        for (name, a) in &agg {
            self.notes.push(format!(
                "span {name:<22} calls {:>8}  self {:>10.3} ms  total {:>10.3} ms",
                a.calls,
                a.self_ns as f64 / 1e6,
                a.total_ns as f64 / 1e6
            ));
        }
        match tracer.export(Path::new(OUT_DIR), stem) {
            Ok(paths) => self
                .notes
                .push(format!("spans written to {}", paths.join(", "))),
            Err(e) => self.notes.push(format!("span export skipped: {e}")),
        }
    }

    fn into_traced(self) -> Traced {
        let metrics = LAYER_METRICS
            .iter()
            .map(|(name, unit)| (*name, self.values.get(name).copied().unwrap_or(0.0), *unit))
            .collect();
        Traced {
            attempted: self.attempted.max(1),
            failed: self.failed,
            metrics,
            problems: self.problems,
            notes: self.notes,
        }
    }
}

/// Run the traced replay of workload `name`.
pub fn run(name: &str, seed: u64, seconds: f64) -> Traced {
    let mut layers = Layers::default();
    match name {
        "transform" => trace_pipeline(seed, seconds, &mut layers),
        "read_hot" => {
            trace_serve(name, &serve::READ_HOT, seed, &mut layers);
            trace_parallel(seed, &mut layers);
        }
        _ => trace_serve(name, &serve::WRITE_SYNC, seed, &mut layers),
    }
    layers.into_traced()
}

// ---------------------------------------------------------------------------
// pipeline

/// Traces of one service's base and fuzzed executions, recorded the way
/// `profile_service` records them, as input for a separately timed
/// datalog call.
fn service_traces(
    server: &mut ServerProcess,
    init: &InitState,
    request: &HttpRequest,
    fuzz_iters: usize,
) -> Option<(TraceRun, Vec<TraceRun>)> {
    let run = |server: &mut ServerProcess, req: &HttpRequest| {
        let mut tracer = ExecTracer::new();
        let out = server.handle_traced(req, &mut tracer);
        server.rollback_checkpoint();
        server.db.restore(&init.db);
        server.fs.restore(&init.fs);
        out.ok().map(|out| TraceRun {
            trace: tracer.into_trace(),
            param_atoms: request_atoms(req),
            response_atoms: response_atoms(&out.response.body),
        })
    };
    init.restore(server);
    server.begin_checkpoint();
    let base = run(server, request).or_else(|| {
        let alt = fuzz_request(request, 997, &mut FuzzDictionary::default());
        run(server, &alt)
    });
    let fuzz: Vec<TraceRun> = (1..=fuzz_iters)
        .filter_map(|i| {
            let fz = fuzz_request(request, i, &mut FuzzDictionary::default());
            run(server, &fz)
        })
        .collect();
    server.end_checkpoint();
    init.restore(server);
    base.map(|b| (b, fuzz))
}

/// One app through the pipeline's public calls, each wrapped in a span.
/// Returns the generated replica source.
fn traced_transform(
    t: &mut Tracer,
    app: &SubjectApp,
    runs: &mut (u64, u64),
) -> Result<String, String> {
    let config = EdgStrConfig {
        app_name: app.name.to_string(),
        ..Default::default()
    };
    let err = |e: &dyn std::fmt::Display| format!("{}: {e}", app.name);
    // capture: drive the original server and record its traffic
    let cap = t.open("analysis.capture");
    let program = t
        .time("lang.parse", || edgstr_lang::parse(&app.source))
        .map_err(|e| err(&e))?;
    let mut original = ServerProcess::from_program(program);
    original.init().map_err(|e| err(&e))?;
    let mut capture = TrafficCapture::new();
    for req in &app.service_requests {
        let out = original.handle(req).map_err(|e| err(&e))?;
        capture.record(req, &out.response);
    }
    t.close(cap);
    // transform(): parse + normalize, replay to a live checkpoint
    let program = t
        .time("lang.parse", || {
            edgstr_lang::parse(&app.source).map(|p| edgstr_lang::normalize(&p))
        })
        .map_err(|e| err(&e))?;
    let (mut server, init) = t
        .time("analysis.replay", || {
            let mut server = ServerProcess::from_program(program);
            server.init()?;
            for e in capture.exchanges() {
                let req = HttpRequest {
                    verb: e.verb,
                    path: e.path.clone(),
                    params: e.params.clone(),
                    body: e.body.clone(),
                };
                let _ = server.handle(&req);
            }
            let init = InitState::capture(&server);
            Ok::<_, edgstr_analysis::ServerError>((server, init))
        })
        .map_err(|e| err(&e))?;
    let observations = capture.observe_services();
    let mut services = Vec::new();
    for obs in &observations {
        let request = obs.sample_request();
        let profile = t.time("analysis.profile", || {
            profile_service(&mut server, &init, &request, config.fuzz_iters)
        });
        // the datalog step again, as its own call on the same traces
        let inputs = t.time("facts_inputs", || {
            service_traces(&mut server, &init, &request, config.fuzz_iters)
        });
        if let Some((base, fuzz)) = inputs {
            runs.0 += 1;
            runs.1 += 1 + fuzz.len() as u64;
            let program = &server.program;
            t.time("datalog.facts", || {
                let facts = AnalysisFacts::build(program, &base, &fuzz);
                let ee = facts.entry_exit(program);
                ee.is_some().then(|| facts.slice(ee.as_ref()))
            });
        }
        services.push((obs.verb, obs.path.clone(), profile.ok()));
    }
    // consult (accept-all) and generate, as transform() does
    let source = t
        .time("template.generate", || {
            let accepted = |p: &edgstr_analysis::ServiceProfile| {
                config.policy.accepts_all(&p.state_units) && p.extracted.is_some()
            };
            let extracted: Vec<_> = services
                .iter()
                .filter_map(|(_, _, p)| {
                    p.as_ref()
                        .filter(|p| accepted(p))
                        .and_then(|p| p.extracted.clone())
                })
                .collect();
            let forwarded: Vec<(Verb, String)> = services
                .iter()
                .filter(|(_, _, p)| !p.as_ref().is_some_and(accepted))
                .map(|(v, path, _)| (*v, path.clone()))
                .collect();
            let bindings = CrdtBindings::from_units(
                services
                    .iter()
                    .filter_map(|(_, _, p)| p.as_ref().filter(|p| accepted(p)))
                    .flat_map(|p| p.state_units.iter().cloned()),
            );
            generate_replica(&config.app_name, &extracted, forwarded, bindings, init)
        })
        .map_err(|e| err(&e))?;
    Ok(source.source)
}

fn trace_pipeline(seed: u64, seconds: f64, layers: &mut Layers) {
    let apps = all_apps();
    // transform()'s own output, the reference for the replay
    let reports: Vec<TransformationReport> = match apps.iter().map(serve::transform_app).collect() {
        Ok(r) => r,
        Err(e) => {
            layers.failed += 1;
            layers.problems.push(e);
            return;
        }
    };
    let mut rng = edgstr_sim::DetRng::new(seed);
    // untraced: capture_and_transform + deploy per app
    let untraced_pass = |problems: &mut Vec<String>| {
        for app in &apps {
            let built = serve::transform_app(app)
                .and_then(|r| serve::deploy(app, &r, EDGES, ThreeTierOptions::default()));
            if let Err(e) = built {
                problems.push(e);
            }
        }
    };
    // the first untraced block sets the pass count; then ABBA (untraced,
    // traced, traced, untraced) so a drift in host speed cancels out of the
    // overhead ratio
    let mut passes = 0;
    let first = Instant::now();
    while passes == 0 || secs(first) < seconds * UNTRACED_SHARE / 2.0 {
        untraced_pass(&mut layers.problems);
        passes += 1;
    }
    let mut untraced = secs(first);
    let mut t = Tracer::new();
    let mut runs = (0u64, 0u64);
    let mut matches = 0u64;
    let traced_t = Instant::now();
    for _ in 0..2 * passes {
        let mut order: Vec<usize> = (0..apps.len()).collect();
        rng.shuffle(&mut order);
        let pass = t.open("pass");
        for i in order {
            let app = &apps[i];
            t.set_request(i as u64 + 1);
            let span = t.open("app");
            layers.attempted += 1;
            match traced_transform(&mut t, app, &mut runs) {
                Ok(source) if source == reports[i].replica.source => matches += 1,
                Ok(_) => {
                    layers.failed += 1;
                    layers.problems.push(format!(
                        "{}: replayed replica differs from transform()'s",
                        app.name
                    ));
                }
                Err(e) => {
                    layers.failed += 1;
                    layers.problems.push(e);
                }
            }
            let deployed = t.time("runtime.deploy", || {
                serve::deploy(app, &reports[i], EDGES, ThreeTierOptions::default())
            });
            if let Err(e) = deployed {
                layers.problems.push(e);
            }
            t.close(span);
        }
        t.close(pass);
    }
    let traced = secs(traced_t);
    let last = Instant::now();
    for _ in 0..passes {
        untraced_pass(&mut layers.problems);
    }
    untraced += secs(last);
    // the separately timed datalog call is extra work, not tracing cost
    let agg = t.aggregate();
    let extra_ns: u64 = ["facts_inputs", "datalog.facts"]
        .iter()
        .filter_map(|n| agg.get(n))
        .map(|a| a.total_ns)
        .sum();
    layers.per_call(&agg, "lang.parse_us", "lang.parse", 1e3);
    layers.per_call(&agg, "analysis.capture_us", "analysis.capture", 1e3);
    layers.per_call(&agg, "analysis.replay_us", "analysis.replay", 1e3);
    layers.per_call(&agg, "analysis.profile_us", "analysis.profile", 1e3);
    layers.per_call(&agg, "datalog.facts_us", "datalog.facts", 1e3);
    layers.per_call(&agg, "template.generate_us", "template.generate", 1e3);
    layers.per_call(&agg, "runtime.deploy_us", "runtime.deploy", 1e3);
    layers.set(
        "analysis.profile_runs",
        runs.1 as f64 / runs.0.max(1) as f64,
    );
    layers.set(
        "fidelity.replica_source_match",
        matches as f64 / layers.attempted.max(1) as f64,
    );
    layers.notes.push(format!(
        "{} passes each way (ABBA); traced {traced:.3} s (of which {:.3} s separately timed datalog) vs untraced {untraced:.3} s",
        2 * passes,
        extra_ns as f64 / 1e9
    ));
    layers.finish_trace(&t, traced, untraced, &format!("transform-seed{seed}"));
    layers.set(
        "trace.overhead",
        (traced - extra_ns as f64 / 1e9) / untraced.max(1e-9),
    );
}

// ---------------------------------------------------------------------------
// serving and sync

/// Cache participation of one request, resolved as the runtime does.
struct Plan {
    key: CacheKey,
    reads: Vec<UnitKey>,
    globals_clean: bool,
}

fn plan(policy: CachePolicy, summary: Option<&EffectSummary>, req: &HttpRequest) -> Option<Plan> {
    if policy == CachePolicy::Off {
        return None;
    }
    let summary = summary?;
    if !summary.cacheable || (policy == CachePolicy::ReadOnlyServices && !summary.pure) {
        return None;
    }
    Some(Plan {
        key: CacheKey::for_request(req),
        reads: resolve_reads(summary, req),
        globals_clean: !summary
            .writes
            .iter()
            .any(|w| matches!(w, StateUnit::Global(_))),
    })
}

struct Edge {
    server: ServerProcess,
    crdts: CrdtSet,
    to_cloud: SyncEndpoint,
    cache: ResponseCache,
}

struct Standby {
    server: ServerProcess,
    crdts: CrdtSet,
    master_link: SyncEndpoint,
    standby_link: SyncEndpoint,
}

/// Counters the replay keeps beside its spans.
#[derive(Default)]
struct Counts {
    requests: u64,
    failed: u64,
    hits: u64,
    misses: u64,
    executed: u64,
    cycles: u64,
    sync_bytes: u64,
    messages: u64,
    rows_changed: u64,
    rows_rewritten: u64,
    saves: u64,
    save_bytes: u64,
    resident: Vec<usize>,
}

/// A benchmark-owned three-tier cluster built from a transformation
/// report: one cloud, the edges, and the standby when HA is on.
struct Cluster {
    cloud: ServerProcess,
    cloud_crdts: CrdtSet,
    cloud_eps: Vec<SyncEndpoint>,
    cloud_cache: ResponseCache,
    edges: Vec<Edge>,
    standby: Option<Standby>,
    durable: bool,
    effects: BTreeMap<(Verb, String), EffectSummary>,
    policy: CachePolicy,
    rr_cursor: usize,
    next_sync: SimTime,
    counts: Counts,
}

impl Cluster {
    /// Build the cluster as `ThreeTierSystem::deploy` does.
    fn build(
        app: &SubjectApp,
        report: &TransformationReport,
        spec: &ServeSpec,
    ) -> Result<Cluster, String> {
        let err = |e: &dyn std::fmt::Display| format!("{}: {e}", app.name);
        let init = &report.replica.init;
        let bindings = &report.replica.bindings;
        let telemetry = Telemetry::disabled();
        let budget = ThreeTierOptions::default().cache_budget_bytes;
        let mut cloud = ServerProcess::from_source(&app.source).map_err(|e| err(&e))?;
        cloud.init().map_err(|e| err(&e))?;
        init.restore(&mut cloud);
        let mut edges = Vec::new();
        for i in 0..spec.edges {
            let mut server = ServerProcess::from_program(report.replica.program.clone());
            server.init().map_err(|e| err(&e))?;
            init.restore(&mut server);
            edges.push(Edge {
                server,
                crdts: CrdtSet::initialize(ActorId(2 + i as u64), bindings, init),
                to_cloud: SyncEndpoint::new(),
                cache: ResponseCache::new(budget, &telemetry),
            });
        }
        let standby = if spec.ha {
            let mut server = ServerProcess::from_source(&app.source).map_err(|e| err(&e))?;
            server.init().map_err(|e| err(&e))?;
            init.restore(&mut server);
            Some(Standby {
                server,
                crdts: CrdtSet::initialize(ActorId(2 + spec.edges as u64), bindings, init),
                master_link: SyncEndpoint::new(),
                standby_link: SyncEndpoint::new(),
            })
        } else {
            None
        };
        let effects = report
            .services
            .iter()
            .filter_map(|s| {
                s.profile
                    .as_ref()
                    .map(|p| ((s.verb, s.path.clone()), p.effects.clone()))
            })
            .collect();
        Ok(Cluster {
            cloud,
            cloud_crdts: CrdtSet::initialize(ActorId(1), bindings, init),
            cloud_eps: (0..spec.edges).map(|_| SyncEndpoint::new()).collect(),
            cloud_cache: ResponseCache::new(budget, &telemetry),
            edges,
            standby,
            durable: spec.ha,
            effects,
            policy: spec.cache,
            rr_cursor: 0,
            next_sync: SimTime::ZERO + INTERVAL,
            counts: Counts::default(),
        })
    }

    /// Serve one request: route, cache, execute, absorb, fill — the edge
    /// path of `ThreeTierSystem::run`, with failure forwarding to the cloud.
    fn serve(&mut self, t: &mut Tracer, req: &HttpRequest) -> Option<HttpResponse> {
        self.counts.requests += 1;
        // round-robin, as `LoadBalancer` picks with every edge active
        self.rr_cursor += 1;
        let idx = self.rr_cursor % self.edges.len();
        let key = (req.verb, req.path.clone());
        let summary = self.effects.get(&key);
        let policy = self.policy;
        let plan = t.time("route.plan", || plan(policy, summary, req));
        let edge = &mut self.edges[idx];
        if let Some(p) = &plan {
            let hit = t.time("cache.lookup", || {
                edge.cache.lookup(&p.key, &edge.crdts.versions)
            });
            if hit.is_some() {
                self.counts.hits += 1;
                return hit;
            }
            self.counts.misses += 1;
        }
        match t.time("vm.handle", || edge.server.handle(req)) {
            Ok(out) => {
                self.counts.executed += 1;
                self.counts.cycles += out.cycles;
                t.time("crdt.absorb", || {
                    edge.crdts.absorb_outcome(&out, &edge.server);
                    if policy != CachePolicy::Off {
                        bump_static_global_writes(&mut edge.crdts.versions, summary);
                    }
                });
                if let Some(p) = plan {
                    let effect_free = out.row_effects.is_empty()
                        && out.file_writes.is_empty()
                        && out.global_writes.is_empty()
                        && p.globals_clean;
                    if effect_free {
                        t.time("cache.fill", || {
                            let stamp = edge.crdts.versions.snapshot(&p.reads);
                            edge.cache.fill(p.key, &out.response, stamp);
                        });
                    }
                }
                Some(out.response)
            }
            Err(_) => self.forward(t, req, plan),
        }
    }

    /// Failure forwarding: the cloud path of `forward_to_cloud` on a clean
    /// WAN (no retries).
    fn forward(
        &mut self,
        t: &mut Tracer,
        req: &HttpRequest,
        plan: Option<Plan>,
    ) -> Option<HttpResponse> {
        let span = t.open("forward");
        let summary = self.effects.get(&(req.verb, req.path.clone()));
        let hit = plan.as_ref().and_then(|p| {
            t.time("cache.lookup", || {
                self.cloud_cache.lookup(&p.key, &self.cloud_crdts.versions)
            })
        });
        let out = match hit {
            Some(resp) => Some(resp),
            None => match t.time("vm.handle", || self.cloud.handle(req)) {
                Ok(out) => {
                    self.counts.executed += 1;
                    self.counts.cycles += out.cycles;
                    t.time("crdt.absorb", || {
                        self.cloud_crdts.absorb_outcome(&out, &self.cloud);
                        if self.policy != CachePolicy::Off {
                            bump_static_global_writes(&mut self.cloud_crdts.versions, summary);
                        }
                    });
                    let effectful = !out.row_effects.is_empty()
                        || !out.file_writes.is_empty()
                        || !out.global_writes.is_empty();
                    if let Some(p) = plan.filter(|p| !effectful && p.globals_clean) {
                        t.time("cache.fill", || {
                            let stamp = self.cloud_crdts.versions.snapshot(&p.reads);
                            self.cloud_cache.fill(p.key, &out.response, stamp);
                        });
                    }
                    if effectful && self.standby.is_some() {
                        self.replicate(t);
                        self.persist(t);
                    }
                    Some(out.response)
                }
                Err(_) => None,
            },
        };
        t.close(span);
        if out.is_none() {
            self.counts.failed += 1;
        }
        out
    }

    /// Master → standby delta and the standby's acknowledgment.
    fn replicate(&mut self, t: &mut Tracer) {
        if let Some(sb) = self.standby.as_mut() {
            let (cloud_crdts, cloud) = (&mut self.cloud_crdts, &mut self.cloud);
            t.time("ha.replicate", || {
                let msg = sb.master_link.generate(cloud_crdts);
                sb.standby_link
                    .receive_owned(&mut sb.crdts, &mut sb.server, msg);
                let ack = sb.standby_link.generate(&sb.crdts);
                sb.master_link.receive_owned(cloud_crdts, cloud, ack);
            });
        }
    }

    /// The durable save image of the master.
    fn persist(&mut self, t: &mut Tracer) {
        if self.durable {
            let image = t.time("ha.save", || {
                (self.cloud_crdts.save(), self.cloud_crdts.clock())
            });
            self.counts.saves += 1;
            self.counts.save_bytes += image.0.len() as u64;
        }
    }

    /// Apply `msg` at a receiver, counting rows changed against rows the
    /// materialization rewrites into SQL.
    fn receive(
        t: &mut Tracer,
        counts: &mut Counts,
        ep: &mut SyncEndpoint,
        set: &mut CrdtSet,
        server: &mut ServerProcess,
        msg: edgstr_runtime::SetSyncMessage,
    ) {
        let touched: Vec<String> = msg.changes.tables.keys().cloned().collect();
        counts.rows_changed += msg
            .changes
            .tables
            .values()
            .map(|cs| cs.len() as u64)
            .sum::<u64>();
        t.time("sync.receive", || ep.receive_owned(set, server, msg));
        // materialization replaces every row of each touched table
        counts.rows_rewritten += touched
            .iter()
            .filter_map(|n| server.db.table(n))
            .map(|tb| tb.rows.len() as u64)
            .sum::<u64>();
    }

    /// One bidirectional sync round, as `ThreeTierSystem::sync_round`.
    fn round(&mut self, t: &mut Tracer) {
        let span = t.open("round");
        self.replicate(t);
        let cap: Option<SetClock> = self
            .standby
            .as_ref()
            .map(|sb| sb.master_link.peer_clock.clone());
        for (i, edge) in self.edges.iter_mut().enumerate() {
            let msg = t.time("sync.generate", || edge.to_cloud.generate(&edge.crdts));
            if !msg.changes.is_empty() {
                self.counts.sync_bytes += t.time("sync.size", || msg.wire_size()) as u64;
                self.counts.messages += 1;
            }
            Self::receive(
                t,
                &mut self.counts,
                &mut self.cloud_eps[i],
                &mut self.cloud_crdts,
                &mut self.cloud,
                msg,
            );
            let mut msg = t.time("sync.generate", || {
                self.cloud_eps[i].generate(&self.cloud_crdts)
            });
            if let Some(cap) = &cap {
                msg.ack = msg.ack.meet(cap);
            }
            if !msg.changes.is_empty() {
                self.counts.sync_bytes += t.time("sync.size", || msg.wire_size()) as u64;
                self.counts.messages += 1;
            }
            Self::receive(
                t,
                &mut self.counts,
                &mut edge.to_cloud,
                &mut edge.crdts,
                &mut edge.server,
                msg,
            );
        }
        self.persist(t);
        t.time("sync.compact", || self.compact(cap.as_ref()));
        self.counts.resident.push(self.cloud_crdts.history_len());
        t.close(span);
    }

    /// `ThreeTierSystem::compact_acked` with every edge live.
    fn compact(&mut self, cap: Option<&SetClock>) {
        let mut clocks = self.cloud_eps.iter().map(|ep| &ep.peer_clock);
        if let Some(first) = clocks.next() {
            let mut frontier = clocks.fold(first.clone(), |acc, c| acc.meet(c));
            if let Some(cap) = cap {
                frontier = frontier.meet(cap);
            }
            self.cloud_crdts.compact(&frontier);
            if let Some(sb) = self.standby.as_mut() {
                sb.crdts.compact(&frontier);
            }
        }
        for edge in &mut self.edges {
            edge.crdts.compact(&edge.to_cloud.peer_clock);
        }
    }

    fn converged(&self) -> bool {
        let master = self.cloud_crdts.clock();
        self.edges.iter().all(|e| {
            let c = e.crdts.clock();
            c.dominates(&master) && master.dominates(&c)
        })
    }

    /// One `run()` call: the sync ticks due before each arrival, the
    /// arrivals, and the two flush rounds at the end.
    fn run(&mut self, t: &mut Tracer, wl: &Workload, next_req: &mut u64) {
        for tr in &wl.requests {
            while self.next_sync <= tr.at {
                t.set_request(0);
                self.round(t);
                self.next_sync += INTERVAL;
            }
            *next_req += 1;
            t.set_request(*next_req);
            let span = t.open("request");
            self.serve(t, &tr.request);
            t.close(span);
        }
        t.set_request(0);
        self.round(t);
        self.round(t);
    }

    fn cache_invalidations(&self) -> u64 {
        self.edges
            .iter()
            .map(|e| e.cache.stats().invalidations)
            .sum::<u64>()
            + self.cloud_cache.stats().invalidations
    }
}

/// The runtime's own run of one pass, untraced.
struct RuntimePass {
    /// The pass's interval workloads, per interval and app.
    rounds: Vec<Vec<Workload>>,
    /// The seeded systems the pass ran on.
    systems: Vec<AppSystem>,
    wall: f64,
    hits: u64,
    misses: u64,
    sync_bytes: u64,
}

fn runtime_pass(spec: &ServeSpec, seed: u64) -> Result<RuntimePass, String> {
    let mut scratch = Vec::new();
    let mut systems = serve::setup(spec, seed, &mut scratch)?;
    let before: Vec<_> = systems.iter().map(|a| a.sys.cache_stats()).collect();
    let rounds = serve::pass_rounds(&mut systems, spec);
    let mut sync_bytes = 0u64;
    let mut wall = 0.0;
    for round in &rounds {
        for (a, wl) in systems.iter_mut().zip(round) {
            let t = Instant::now();
            let stats = a.sys.run(wl);
            wall += secs(t);
            sync_bytes += stats.wan_sync_bytes as u64;
            if stats.failed > 0 {
                return Err(format!("{}: {} requests failed", a.app.name, stats.failed));
            }
        }
    }
    let (mut hits, mut misses) = (0, 0);
    for (a, b) in systems.iter().zip(&before) {
        let s = a.sys.cache_stats();
        hits += s.hits - b.hits;
        misses += s.misses - b.misses;
    }
    Ok(RuntimePass {
        rounds,
        systems,
        wall,
        hits,
        misses,
        sync_bytes,
    })
}

/// Replay every app's prologue (untraced spans are dropped) and then the
/// pass's interval workloads (per interval and app); returns the cluster
/// per app and the wall time of the interval phase.
fn replay_pass(
    systems: &[AppSystem],
    rounds: &[Vec<Workload>],
    spec: &ServeSpec,
    seed: u64,
    t: &mut Tracer,
) -> Result<(Vec<Cluster>, f64), String> {
    let mut clusters = Vec::new();
    for (i, a) in systems.iter().enumerate() {
        let mut c = Cluster::build(&a.app, &a.report, spec)?;
        let stream = AppStream::new(
            &a.app,
            &a.report,
            spec.read_frac,
            spec.universe,
            app_seed(seed, i),
        );
        let prologue = spaced(stream.prologue(), SimTime::ZERO, serve::PROLOGUE_RPS);
        let mut scratch = Tracer::disabled();
        let mut ids = 0;
        c.run(&mut scratch, &prologue, &mut ids);
        let mut rounds = 0;
        while !c.converged() && rounds < 32 {
            c.round(&mut scratch);
            rounds += 1;
        }
        c.counts = Counts::default();
        clusters.push(c);
    }
    let mut next_req = 0;
    let wall_t = Instant::now();
    for round in rounds {
        let span = t.open("interval");
        for (c, wl) in clusters.iter_mut().zip(round) {
            c.run(t, wl, &mut next_req);
        }
        t.close(span);
    }
    Ok((clusters, secs(wall_t)))
}

fn trace_serve(name: &str, spec: &ServeSpec, seed: u64, layers: &mut Layers) {
    let rt = match runtime_pass(spec, seed) {
        Ok(r) => r,
        Err(e) => {
            layers.failed += 1;
            layers.problems.push(e);
            return;
        }
    };
    // ABBA: untraced, traced, traced, untraced, so a drift in host speed
    // during the run cancels out of the overhead ratio
    let mut t = Tracer::new();
    let mut untraced_wall = 0.0;
    let mut traced_wall = 0.0;
    let mut clusters = Vec::new();
    for traced in [false, true, true, false] {
        let mut off = Tracer::disabled();
        let tracer = if traced { &mut t } else { &mut off };
        match replay_pass(&rt.systems, &rt.rounds, spec, seed, tracer) {
            Ok((c, wall)) if traced => {
                traced_wall += wall;
                clusters = c;
            }
            Ok((_, wall)) => untraced_wall += wall,
            Err(e) => {
                layers.failed += 1;
                layers.problems.push(e);
                return;
            }
        }
    }
    let mut c = Counts::default();
    let mut invalidations = 0;
    for cl in &clusters {
        let k = &cl.counts;
        c.requests += k.requests;
        c.failed += k.failed;
        c.hits += k.hits;
        c.misses += k.misses;
        c.executed += k.executed;
        c.cycles += k.cycles;
        c.sync_bytes += k.sync_bytes;
        c.messages += k.messages;
        c.rows_changed += k.rows_changed;
        c.rows_rewritten += k.rows_rewritten;
        c.saves += k.saves;
        c.save_bytes += k.save_bytes;
        c.resident.extend(&k.resident);
        invalidations += cl.cache_invalidations();
    }
    for (cl, a) in clusters.iter().zip(&rt.systems) {
        if !cl.converged() {
            layers
                .problems
                .push(format!("{}: replay did not converge", a.app.name));
        }
    }
    layers.attempted += c.requests;
    layers.failed += c.failed;
    let agg = t.aggregate();
    layers.per_call(&agg, "route.plan_ns", "route.plan", 1.0);
    layers.per_call(&agg, "cache.lookup_ns", "cache.lookup", 1.0);
    layers.per_call(&agg, "cache.fill_ns", "cache.fill", 1.0);
    layers.per_call(&agg, "vm.handle_us", "vm.handle", 1e3);
    layers.per_call(&agg, "crdt.absorb_us", "crdt.absorb", 1e3);
    layers.per_call(&agg, "sync.generate_us", "sync.generate", 1e3);
    layers.per_call(&agg, "sync.size_us", "sync.size", 1e3);
    layers.per_call(&agg, "sync.receive_us", "sync.receive", 1e3);
    layers.per_call(&agg, "sync.compact_us", "sync.compact", 1e3);
    layers.per_call(&agg, "ha.replicate_us", "ha.replicate", 1e3);
    layers.per_call(&agg, "ha.save_us", "ha.save", 1e3);
    let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    let replay_hit = ratio(c.hits, c.hits + c.misses);
    layers.set("cache.hit_ratio", replay_hit);
    layers.set("cache.invalidations", invalidations as f64);
    layers.set("vm.cycles", c.cycles as f64);
    layers.set("vm.exec_ratio", ratio(c.executed, c.requests));
    layers.set("sync.msg_bytes", ratio(c.sync_bytes, c.messages));
    layers.set(
        "sync.materialize_useful_ratio",
        ratio(c.rows_changed, c.rows_rewritten),
    );
    layers.set(
        "crdt.resident_changes",
        c.resident.iter().sum::<usize>() as f64 / c.resident.len().max(1) as f64,
    );
    layers.set("ha.save_kb", ratio(c.save_bytes, c.saves) / 1024.0);
    layers.set("fidelity.cache_hit_ratio_replay", replay_hit);
    layers.set(
        "fidelity.cache_hit_ratio_runtime",
        ratio(rt.hits, rt.hits + rt.misses),
    );
    layers.set("fidelity.sync_kb_replay", c.sync_bytes as f64 / 1024.0);
    layers.set("fidelity.sync_kb_runtime", rt.sync_bytes as f64 / 1024.0);
    // two untraced replays against the runtime's one pass
    layers.set(
        "fidelity.wall_ratio",
        untraced_wall / 2.0 / rt.wall.max(1e-9),
    );
    layers.notes.push(format!(
        "{} intervals x {} apps; runtime {:.3} s per pass; replay untraced {untraced_wall:.3} s, traced {traced_wall:.3} s (two passes each, ABBA)",
        rt.rounds.len(),
        rt.systems.len(),
        rt.wall
    ));
    layers.finish_trace(
        &t,
        traced_wall,
        untraced_wall,
        &format!("{name}-seed{seed}"),
    );
}

/// `ParallelSystem::run` twice on a 95%-read stream per app (prologue
/// repeated once per replica, as the executor routes request `i` to
/// replica `i mod R` and never syncs cloud → edge mid-run). Responses must
/// repeat exactly and the run must converge.
fn trace_parallel(seed: u64, layers: &mut Layers) {
    let mut serve_ms = Vec::new();
    let mut build_ms = Vec::new();
    let mut deltas = Vec::new();
    for (i, app) in all_apps().iter().enumerate() {
        let report = match serve::transform_app(app) {
            Ok(r) => r,
            Err(e) => {
                layers.problems.push(e);
                continue;
            }
        };
        let mut stream = AppStream::new(
            app,
            &report,
            0.95,
            serve::READ_HOT.universe,
            app_seed(seed, i),
        );
        let mut requests: Vec<HttpRequest> = stream
            .prologue()
            .into_iter()
            .flat_map(|r| std::iter::repeat_n(r, PARALLEL_REPLICAS))
            .collect();
        requests.extend((0..PARALLEL_REQUESTS).map(|_| stream.next_request()));
        let sys = ParallelSystem::new(
            &app.source,
            &report,
            ParallelOptions {
                replicas: PARALLEL_REPLICAS,
                workers: 1,
                cache: CachePolicy::All,
                ..ParallelOptions::default()
            },
        );
        let mut first: Option<Vec<u64>> = None;
        for _ in 0..2 {
            let t = Instant::now();
            let stats = sys.run(&requests);
            let wall = secs(t) * 1e3;
            let elapsed = stats.elapsed.as_millis_f64();
            serve_ms.push(elapsed);
            build_ms.push(wall - elapsed);
            deltas.push(stats.delta_messages as f64);
            layers.attempted += requests.len() as u64;
            layers.failed += stats.failed as u64;
            if !stats.converged {
                layers
                    .problems
                    .push(format!("{}: parallel run did not converge", app.name));
            }
            match &first {
                None => first = Some(stats.per_request_digests),
                Some(d) if *d != stats.per_request_digests => {
                    layers.problems.push(format!(
                        "{}: parallel responses differ between passes",
                        app.name
                    ));
                }
                Some(_) => {}
            }
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    layers.notes.push(format!(
        "parallel pass: {PARALLEL_REPLICAS} replicas, 1 worker + the cloud fold thread, {threads} hardware threads"
    ));
    layers.set("parallel.serve_ms", mean(&serve_ms));
    layers.set("parallel.build_flush_ms", mean(&build_ms));
    layers.set("parallel.delta_msgs", mean(&deltas));
}
