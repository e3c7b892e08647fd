//! The `transform` workload: repeated capture → transform → generate →
//! deploy passes over all seven subject apps.
//!
//! After each deploy the fresh system serves its app's regression
//! requests once (one `run()` call), which gives the serving metrics of a
//! cold deployment; the pipeline metrics (`transform_ms_*`) exclude it.

use crate::gen::bursty_offsets;
use crate::metrics::E2e;
use crate::serve::{deploy, transform_app};
use crate::stats::secs;
use edgstr_analysis::{InitState, ServerProcess};
use edgstr_apps::{all_apps, SubjectApp};
use edgstr_core::TransformationReport;
use edgstr_net::HttpResponse;
use edgstr_runtime::{ThreeTierOptions, TimedRequest, Workload};
use edgstr_sim::{DetRng, SimDuration, SimTime};
use std::time::Instant;

/// Edge devices every pass deploys to.
pub const EDGES: usize = 4;
/// How many times a run builds the regression references; `setup_s` is
/// the median.
const SETUPS: usize = 5;
/// Mean arrival rate of the post-deploy regression stream.
const SMOKE_RPS: f64 = 50.0;

/// The original program's answers to one app's regression requests, each
/// from a fresh copy of the transformation's init snapshot.
struct Reference {
    app: SubjectApp,
    responses: Vec<HttpResponse>,
}

/// Run `requests` on `server`, each from the `init` state; `Err` names
/// the first request the program rejects.
fn answers(
    server: &mut ServerProcess,
    init: &TransformationReport,
    app: &SubjectApp,
) -> Result<Vec<HttpResponse>, String> {
    init.replica.init.restore(server);
    let reset = InitState::capture(server);
    app.regression_requests
        .iter()
        .map(|req| {
            reset.restore(server);
            server
                .handle(req)
                .map(|out| out.response)
                .map_err(|e| format!("{}: {} {}: {e}", app.name, req.verb, req.path))
        })
        .collect()
}

/// The original program's regression answers for every app.
fn references() -> Result<Vec<Reference>, String> {
    all_apps()
        .into_iter()
        .map(|app| {
            let report = transform_app(&app)?;
            let mut original =
                ServerProcess::from_source(&app.source).map_err(|e| e.to_string())?;
            original.init().map_err(|e| e.to_string())?;
            let responses = answers(&mut original, &report, &app)?;
            Ok(Reference { app, responses })
        })
        .collect()
}

/// E10's check: the generated replica answers every regression request
/// exactly like the original.
fn regression_check(reference: &Reference, report: &TransformationReport) -> Result<(), String> {
    let app = &reference.app;
    let mut replica = ServerProcess::from_program(report.replica.program.clone());
    replica
        .init()
        .map_err(|e| format!("{}: replica init: {e}", app.name))?;
    let got = answers(&mut replica, report, app)?;
    match got
        .iter()
        .zip(&reference.responses)
        .position(|(a, b)| a != b)
    {
        None => Ok(()),
        Some(i) => Err(format!(
            "{}: replica diverges on regression request {i} ({} {})",
            app.name, app.regression_requests[i].verb, app.regression_requests[i].path
        )),
    }
}

/// The regression requests at seeded bursty arrivals, spread over the
/// time `SMOKE_RPS` would take.
fn smoke_stream(app: &SubjectApp, rng: &mut DetRng) -> Workload {
    let n = app.regression_requests.len();
    let span = SimDuration::from_secs_f64(n as f64 / SMOKE_RPS);
    let requests = bursty_offsets(rng, n, span.0)
        .into_iter()
        .zip(&app.regression_requests)
        .map(|(at, request)| TimedRequest {
            at: SimTime(at),
            request: request.clone(),
        })
        .collect();
    Workload { requests }
}

/// Build the regression references `SETUPS` times, then run passes until
/// `seconds` of host time have passed.
pub fn run(seed: u64, seconds: f64) -> E2e {
    let mut e = E2e::default();
    let mut refs = Vec::new();
    for _ in 0..SETUPS {
        let t = Instant::now();
        refs = match references() {
            Ok(r) => r,
            Err(err) => return e.fatal(err),
        };
        e.setup_s.push(secs(t));
    }
    let mut rng = DetRng::new(seed);
    let mut sources: Vec<Option<String>> = vec![None; refs.len()];
    let phase = Instant::now();
    while secs(phase) < seconds {
        let mut order: Vec<usize> = (0..refs.len()).collect();
        rng.shuffle(&mut order);
        for i in order {
            let reference = &refs[i];
            let app = &reference.app;
            e.attempted += 1;
            let t = Instant::now();
            let built = transform_app(app)
                .and_then(|r| deploy(app, &r, EDGES, ThreeTierOptions::default()).map(|s| (r, s)));
            let elapsed = secs(t);
            let (report, mut sys) = match built {
                Ok(b) => b,
                Err(err) => {
                    e.failed += 1;
                    e.problems.push(err);
                    continue;
                }
            };
            e.transform_ms.push(elapsed * 1e3);
            // the pipeline is deterministic: every pass must generate the
            // same replica, and the first pass's replica must pass E10
            match &sources[i] {
                Some(src) if *src != report.replica.source => {
                    e.failed += 1;
                    e.problems.push(format!(
                        "{}: replica source changed between passes",
                        app.name
                    ));
                }
                Some(_) => {}
                None => {
                    if let Err(err) = regression_check(reference, &report) {
                        e.failed += 1;
                        e.problems.push(err);
                    }
                    sources[i] = Some(report.replica.source.clone());
                }
            }
            let wl = smoke_stream(app, &mut rng);
            let t = Instant::now();
            let mut stats = sys.run(&wl);
            e.record_run(wl.len(), secs(t), &mut stats);
        }
        e.passes += 1;
    }
    e
}
