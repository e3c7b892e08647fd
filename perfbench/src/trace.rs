//! In-memory host-time spans for the traced replays.
//!
//! A span carries a name, start, end, parent and request id. Spans whose
//! name contains a `.` time one public call of a layer (`vm.handle`,
//! `sync.generate`, ...); the others (`interval`, `request`, `round`, ...)
//! only structure the tree. Self time is a span's duration minus its
//! children's. Spans are kept in memory and exported when the run ends:
//! as JSONL, and as collapsed stacks in the `StmtProfiler` folded format
//! (`frame;frame;frame value`, here weighted by self nanoseconds).

use serde_json::json;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Parent index of a root span.
const ROOT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    /// Request id, 0 outside a request.
    pub req: u64,
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

/// Per-name aggregate: calls, total and self nanoseconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct Agg {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Whether `name` times a layer's public call (vs structuring the tree).
fn is_layer(name: &str) -> bool {
    name.contains('.')
}

/// Span recorder with an explicit open-span stack.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    req: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            req: 0,
        }
    }

    /// A tracer that records nothing (the untraced baseline).
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Spans opened from now on carry request id `req` (0: none).
    pub fn set_request(&mut self, req: u64) {
        self.req = req;
    }

    /// Open a span under the innermost open span.
    pub fn open(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(ROOT);
        }
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(ROOT);
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent,
            req: self.req,
        });
        self.stack.push(id);
        SpanId(id)
    }

    /// Close `id` (and anything still open inside it).
    pub fn close(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        while let Some(top) = self.stack.pop() {
            self.spans[top as usize].end_ns = now;
            if top == id.0 {
                break;
            }
        }
    }

    /// Time `f` as one span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Calls, total and self time per span name.
    pub fn aggregate(&self) -> BTreeMap<&'static str, Agg> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let total = s.end_ns.saturating_sub(s.start_ns);
            let a = out.entry(s.name).or_default();
            a.calls += 1;
            a.total_ns += total;
            a.self_ns += total.saturating_sub(child_ns[i]);
        }
        out
    }

    /// Sum of layer self times, nanoseconds.
    pub fn layer_self_ns(&self) -> u64 {
        self.aggregate()
            .iter()
            .filter(|(name, _)| is_layer(name))
            .map(|(_, a)| a.self_ns)
            .sum()
    }

    /// One JSON object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = (s.parent != ROOT).then_some(s.parent);
            let line = json!({
                "id": i,
                "name": s.name,
                "start_ns": s.start_ns,
                "end_ns": s.end_ns,
                "parent": parent,
                "req": s.req,
            });
            let _ = writeln!(out, "{line}");
        }
        out
    }

    /// Collapsed stacks weighted by self nanoseconds, one line per
    /// distinct root-to-span path.
    pub fn to_folded(&self) -> String {
        let mut paths: Vec<String> = Vec::with_capacity(self.spans.len());
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut weights: BTreeMap<String, u64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            // parents precede children, so the parent's path is known
            let path = if s.parent == ROOT {
                s.name.to_string()
            } else {
                format!("{};{}", paths[s.parent as usize], s.name)
            };
            let self_ns = s
                .end_ns
                .saturating_sub(s.start_ns)
                .saturating_sub(child_ns[i]);
            *weights.entry(path.clone()).or_default() += self_ns;
            paths.push(path);
        }
        let mut out = String::new();
        for (path, ns) in weights {
            let _ = writeln!(out, "{path} {ns}");
        }
        out
    }

    /// Write the JSONL and folded exports as `<stem>.spans.jsonl` and
    /// `<stem>.folded` under `dir`; returns the paths written.
    pub fn export(&self, dir: &std::path::Path, stem: &str) -> std::io::Result<Vec<String>> {
        std::fs::create_dir_all(dir)?;
        let jsonl = dir.join(format!("{stem}.spans.jsonl"));
        let folded = dir.join(format!("{stem}.folded"));
        std::fs::write(&jsonl, self.to_jsonl())?;
        std::fs::write(&folded, self.to_folded())?;
        Ok(vec![
            jsonl.display().to_string(),
            folded.display().to_string(),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_folds_by_path() {
        let mut t = Tracer::new();
        let outer = t.open("interval");
        t.set_request(7);
        t.time("vm.handle", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close(outer);
        let agg = t.aggregate();
        let vm = agg["vm.handle"];
        let iv = agg["interval"];
        assert_eq!(vm.calls, 1);
        assert!(vm.self_ns >= 2_000_000);
        assert_eq!(iv.self_ns, iv.total_ns - vm.total_ns);
        assert_eq!(t.layer_self_ns(), vm.self_ns);
        let folded = t.to_folded();
        assert!(folded.contains("interval;vm.handle "), "{folded}");
        let jsonl = t.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[1].contains("\"req\":7"), "{}", lines[1]);
        assert!(lines[1].contains("\"parent\":0"), "{}", lines[1]);
    }
}
