//! Seeded request generator with a key-universe prologue.
//!
//! Reads are Zipf-keyed over a small universe of entities; the prologue
//! creates every entity of that universe first, so each generated read
//! addresses a key that was written earlier (by the prologue, or by the
//! captured traffic the transformation replayed into the init snapshot).
//! Writes carry keys no earlier request used.

use edgstr_analysis::ReadUnit;
use edgstr_apps::SubjectApp;
use edgstr_core::TransformationReport;
use edgstr_net::{HttpRequest, Verb};
use edgstr_sim::DetRng;
use serde_json::Value as Json;

/// Parameters the apps use as entity keys.
const KEY_FIELDS: [&str; 4] = ["id", "device", "vehicle", "name"];
/// Zipf exponent for read popularity.
const ZIPF_S: f64 = 1.1;
/// Universe ranks are salted past any id the apps seed at init.
const SALT_BASE: i64 = 1000;
/// Unique write keys start past every universe rank.
const UNIQUE_BASE: i64 = 1_000_000;
/// Mean requests per arrival burst.
const BURST_MEAN: u64 = 8;
/// Mean gap between the requests of one burst, virtual microseconds.
const BURST_GAP_US: f64 = 20.0;

/// Inverse-CDF Zipf sampler over ranks `0..n`.
#[derive(Debug, Clone)]
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 1..=n {
            total += 1.0 / (k as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut DetRng) -> usize {
        let u = rng.unit_f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// A key value derived from the template's own value and `salt`: integers
/// become `salt`, strings get a `-<salt>` suffix.
fn salted(template: &Json, salt: i64) -> Json {
    match template.as_str() {
        Some(s) => Json::from(format!("{s}-{salt}")),
        None => Json::from(salt),
    }
}

/// `req` with every key field present replaced by its salted value.
fn with_keys(req: &HttpRequest, salt: i64) -> HttpRequest {
    let mut out = req.clone();
    if let Json::Object(m) = &mut out.params {
        for field in KEY_FIELDS {
            if let Some(v) = m.get_mut(field) {
                *v = salted(v, salt);
            }
        }
    }
    out
}

/// Key-field values a request addresses, as `(field, value)` pairs.
fn request_keys(req: &HttpRequest) -> Vec<(String, Json)> {
    KEY_FIELDS
        .iter()
        .filter_map(|f| req.params.get(f).map(|v| (f.to_string(), v.clone())))
        .collect()
}

/// A read template and whether its key may vary over the universe. A
/// read whose effect summary names concrete files stays on its template
/// key: the transformation binds exactly the files it observed, so a
/// file under another name would never replicate between edges.
#[derive(Debug, Clone)]
struct ReadTemplate {
    request: HttpRequest,
    keyed: bool,
}

/// The seeded request stream of one app.
#[derive(Debug, Clone)]
pub struct AppStream {
    reads: Vec<ReadTemplate>,
    writes: Vec<HttpRequest>,
    universe: usize,
    /// Template slots (`Ok(read index)` / `Err(write index)`) in the exact
    /// read/write proportions; shuffled per deal by the seeded RNG.
    deck: Vec<Result<usize, usize>>,
    dealt: usize,
    zipf: Zipf,
    rng: DetRng,
    next_unique: i64,
}

impl AppStream {
    /// Build the stream of `app`: `read_frac` of the requests are
    /// Zipf-keyed reads over `universe` entities, the rest writes with
    /// keys no earlier request used. GET services are the reads, every
    /// other verb is a write. The mix is stratified: each deck of requests
    /// holds every template in fixed proportions, and the seed decides
    /// the order, the keys and the arrival times.
    pub fn new(
        app: &SubjectApp,
        report: &TransformationReport,
        read_frac: f64,
        universe: usize,
        seed: u64,
    ) -> AppStream {
        let reads: Vec<ReadTemplate> = app
            .service_requests
            .iter()
            .filter(|r| r.verb == Verb::Get)
            .map(|r| {
                let file_backed = report
                    .services
                    .iter()
                    .find(|s| s.verb == r.verb && s.path == r.path)
                    .and_then(|s| s.profile.as_ref())
                    .is_some_and(|p| {
                        p.effects
                            .reads
                            .iter()
                            .any(|u| matches!(u, ReadUnit::File(_)))
                    });
                ReadTemplate {
                    request: r.clone(),
                    keyed: !file_backed && !request_keys(r).is_empty(),
                }
            })
            .collect();
        let writes: Vec<HttpRequest> = app
            .service_requests
            .iter()
            .filter(|r| r.verb != Verb::Get)
            .cloned()
            .collect();
        // every read template `20 * read_frac * W` times and every write
        // template `20 * (1 - read_frac) * R` times: exactly `read_frac`
        // reads per deck, in steps of 5%
        let (r, w) = (reads.len(), writes.len());
        let read_copies = if w == 0 {
            1
        } else {
            (20.0 * read_frac).round() as usize * w
        };
        let write_copies = if r == 0 {
            1
        } else {
            (20.0 * (1.0 - read_frac)).round() as usize * r
        };
        let deck = (0..r)
            .flat_map(|i| std::iter::repeat_n(Ok(i), read_copies))
            .chain((0..w).flat_map(|i| std::iter::repeat_n(Err(i), write_copies)))
            .collect::<Vec<_>>();
        let dealt = deck.len();
        AppStream {
            reads,
            writes,
            universe: universe.max(1),
            deck,
            dealt,
            zipf: Zipf::new(universe.max(1), ZIPF_S),
            rng: DetRng::new(seed),
            next_unique: UNIQUE_BASE,
        }
    }

    /// Writes that create every entity of the key universe: for each rank,
    /// every write service that carries a key field, with all its key
    /// fields set to the rank's value. Read keys are derived the same way
    /// from the read templates, so both sides agree on every value.
    pub fn prologue(&self) -> Vec<HttpRequest> {
        let keyed_writes: Vec<&HttpRequest> = self
            .writes
            .iter()
            .filter(|w| !request_keys(w).is_empty())
            .collect();
        let mut out = Vec::with_capacity(self.universe * keyed_writes.len());
        for rank in 0..self.universe {
            let mut values: Vec<(String, Json)> = Vec::new();
            for r in self.reads.iter().filter(|r| r.keyed) {
                for (field, v) in request_keys(&r.request) {
                    if !values.iter().any(|(f, _)| *f == field) {
                        values.push((field, salted(&v, SALT_BASE + rank as i64)));
                    }
                }
            }
            for w in &keyed_writes {
                let mut req = with_keys(w, SALT_BASE + rank as i64);
                if let Json::Object(m) = &mut req.params {
                    for (field, v) in &values {
                        if m.contains_key(field) {
                            m.insert(field.clone(), v.clone());
                        }
                    }
                }
                out.push(req);
            }
        }
        out
    }

    /// The next request of the stream.
    pub fn next_request(&mut self) -> HttpRequest {
        if self.dealt == self.deck.len() {
            self.rng.shuffle(&mut self.deck);
            self.dealt = 0;
        }
        let slot = self.deck[self.dealt];
        self.dealt += 1;
        match slot {
            Ok(i) => {
                let t = &self.reads[i];
                let rank = self.zipf.sample(&mut self.rng);
                if t.keyed {
                    with_keys(&t.request, SALT_BASE + rank as i64)
                } else {
                    t.request.clone()
                }
            }
            Err(i) => {
                self.next_unique += 1;
                with_keys(&self.writes[i], self.next_unique)
            }
        }
    }

    /// `n` seeded arrival offsets in `[0, span_us)`; see [`bursty_offsets`].
    pub fn arrivals(&mut self, n: usize, span_us: u64) -> Vec<u64> {
        bursty_offsets(&mut self.rng, n, span_us)
    }
}

/// `n` seeded arrival offsets in `[0, span_us)`, sorted. Clients arrive in
/// bursts (flash crowds): each burst holds 1 to `2 * BURST_MEAN - 1`
/// requests (uniform), starts at a uniform offset, and spaces its requests
/// `BURST_GAP_US` apart on average. Requests of a burst queue behind each
/// other on the shared edge LAN, so virtual latency depends on the seed,
/// not only on the kind of request. The count is fixed, so the host work
/// of a span does not vary with the seed, and burst sizes are bounded so
/// one seed's largest burst cannot dominate the latency tail.
pub fn bursty_offsets(rng: &mut DetRng, n: usize, span_us: u64) -> Vec<u64> {
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let size = 1 + rng.below(2 * BURST_MEAN - 1) as usize;
        let mut at = rng.below(span_us.max(1));
        for _ in 0..size.min(n - out.len()) {
            out.push(at.min(span_us.saturating_sub(1)));
            at += (-rng.unit_f64().max(1e-12).ln() * BURST_GAP_US) as u64;
        }
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgstr_apps::all_apps;
    use edgstr_core::{capture_and_transform, EdgStrConfig};
    use std::collections::BTreeSet;

    fn transformed() -> Vec<(SubjectApp, TransformationReport)> {
        all_apps()
            .into_iter()
            .map(|app| {
                let config = EdgStrConfig {
                    app_name: app.name.to_string(),
                    ..Default::default()
                };
                let (report, _) =
                    capture_and_transform(&app.source, &app.service_requests, &config).unwrap();
                (app, report)
            })
            .collect()
    }

    #[test]
    fn same_seed_same_stream() {
        for (app, report) in transformed() {
            let mut a = AppStream::new(&app, &report, 0.95, 16, 7);
            let mut b = AppStream::new(&app, &report, 0.95, 16, 7);
            let mut c = AppStream::new(&app, &report, 0.95, 16, 8);
            assert_eq!(a.prologue(), b.prologue());
            let sa: Vec<_> = (0..500).map(|_| a.next_request()).collect();
            let sb: Vec<_> = (0..500).map(|_| b.next_request()).collect();
            let sc: Vec<_> = (0..500).map(|_| c.next_request()).collect();
            assert_eq!(sa, sb, "{}: same seed, different stream", app.name);
            assert_ne!(sa, sc, "{}: seed does not reach the stream", app.name);
        }
    }

    #[test]
    fn prologue_covers_every_read_key() {
        for (app, report) in transformed() {
            let mut s = AppStream::new(&app, &report, 0.95, 16, 11);
            // keys written before the stream starts: the captured traffic
            // (replayed into the init snapshot) and the prologue
            let written: BTreeSet<(String, String)> = app
                .service_requests
                .iter()
                .filter(|r| r.verb != Verb::Get)
                .chain(s.prologue().iter())
                .flat_map(request_keys)
                .map(|(f, v)| (f, v.to_string()))
                .collect();
            let mut keyed_reads = 0;
            for _ in 0..2000 {
                let r = s.next_request();
                if r.verb != Verb::Get {
                    continue;
                }
                for (f, v) in request_keys(&r) {
                    keyed_reads += 1;
                    assert!(
                        written.contains(&(f.clone(), v.to_string())),
                        "{}: {} {} reads {f}={v}, never written",
                        app.name,
                        r.verb,
                        r.path
                    );
                }
            }
            if ["bookworm", "geo-tracker", "text-analyzer"].contains(&app.name) {
                assert!(keyed_reads > 0, "{}: no keyed reads generated", app.name);
            }
        }
    }

    #[test]
    fn bursty_offsets_fill_the_span() {
        let mut rng = DetRng::new(9);
        let offs = bursty_offsets(&mut rng, 500, 1_000_000);
        assert_eq!(offs.len(), 500);
        assert!(offs.windows(2).all(|w| w[0] <= w[1]));
        assert!(offs.iter().all(|&o| o < 1_000_000));
        // bursts: many arrivals sit within 100 us of the previous one
        let close = offs.windows(2).filter(|w| w[1] - w[0] < 100).count();
        assert!(close > 250, "{close}");
    }

    #[test]
    fn read_share_is_exact_per_deck() {
        for (app, report) in transformed() {
            let mut s = AppStream::new(&app, &report, 0.95, 16, 5);
            let deck = s.deck.len();
            let reads = (0..deck * 3)
                .filter(|_| s.next_request().verb == Verb::Get)
                .count();
            assert_eq!(
                reads * 20,
                deck * 3 * 19,
                "{}: read share is not 95%",
                app.name
            );
        }
    }

    #[test]
    fn unique_writes_never_repeat_a_key() {
        for (app, report) in transformed() {
            let mut s = AppStream::new(&app, &report, 0.0, 16, 3);
            let mut seen = BTreeSet::new();
            for _ in 0..300 {
                let w = s.next_request();
                assert_ne!(w.verb, Verb::Get);
                for (f, v) in request_keys(&w) {
                    assert!(
                        seen.insert((w.path.clone(), f, v.to_string())),
                        "{}: key repeats",
                        app.name
                    );
                }
            }
        }
    }
}
