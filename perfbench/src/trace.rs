//! Spans recorded by the benchmark around its calls into the program.
//!
//! Every span has a name, a start and an end (ns since the tracer was
//! made), its parent span and the id of the operation it belongs to
//! (one launch, one tuned program, one request). Spans stay in memory
//! and are written out as JSON lines when the run ends. A disabled
//! tracer records nothing; an enabled one times its own recording, which
//! gives the traced run's overhead.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub op: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<(u64, Option<u64>, u64, String, u64)>,
    next_id: u64,
    /// Time spent recording, so a traced run can state its overhead.
    cost_ns: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
            next_id: 1,
            cost_ns: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its id (0 while disabled).
    pub fn begin(&mut self, name: &str, parent: Option<u64>, op: u64) -> u64 {
        if !self.enabled {
            return 0;
        }
        let t0 = Instant::now();
        let id = self.next_id;
        self.next_id += 1;
        let start = self.now_ns();
        self.open.push((id, parent, op, name.to_string(), start));
        self.cost_ns += t0.elapsed().as_nanos() as u64;
        id
    }

    /// Close the span `begin` returned.
    pub fn end(&mut self, id: u64) {
        if id == 0 {
            return;
        }
        let t0 = Instant::now();
        let end_ns = self.now_ns();
        if let Some(pos) = self.open.iter().rposition(|o| o.0 == id) {
            let (id, parent, op, name, start_ns) = self.open.swap_remove(pos);
            self.spans.push(Span {
                id,
                parent,
                op,
                name,
                start_ns,
                end_ns,
            });
        }
        self.cost_ns += t0.elapsed().as_nanos() as u64;
    }

    /// Nanoseconds spent recording spans so far.
    pub fn cost_ns(&self) -> u64 {
        self.cost_ns
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(
        &mut self,
        name: &str,
        parent: Option<u64>,
        op: u64,
        f: impl FnOnce(&mut Tracer, u64) -> T,
    ) -> T {
        let id = self.begin(name, parent, op);
        let out = f(self, id);
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time (ms) of every closed span, grouped by name: the span's
    /// duration minus the part of it that its child spans cover.
    pub fn self_ms(&self) -> BTreeMap<String, Vec<f64>> {
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        let by_id: BTreeMap<u64, &Span> = self.spans.iter().map(|s| (s.id, s)).collect();
        for s in &self.spans {
            if let Some(p) = s.parent.and_then(|p| by_id.get(&p)) {
                let lo = s.start_ns.max(p.start_ns);
                let hi = s.end_ns.min(p.end_ns);
                *child_ns.entry(p.id).or_default() += hi.saturating_sub(lo);
            }
        }
        let mut out: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for s in &self.spans {
            let own =
                (s.end_ns - s.start_ns).saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            out.entry(s.name.clone())
                .or_default()
                .push(own as f64 / 1e6);
        }
        out
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                f,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.op,
                s.name.replace('\\', "\\\\").replace('"', "\\\""),
                s.start_ns,
                s.end_ns
            )?;
        }
        f.flush()
    }
}

/// Traced ÷ untraced wall time of a phase that took `wall_s` with
/// tracing on and spent `cost_ns` of it recording spans.
pub fn overhead_ratio(wall_s: f64, cost_ns: u64) -> f64 {
    wall_s / (wall_s - cost_ns as f64 / 1e9).max(1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.span("outer", None, 1, |t, id| {
            t.span("inner", Some(id), 1, |_, _| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let s = t.self_ms();
        assert!(s["inner"][0] >= 20.0);
        assert!(s["outer"][0] < 20.0);
        assert_eq!(t.spans().len(), 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.span("x", None, 1, |_, id| assert_eq!(id, 0));
        assert!(t.spans().is_empty());
    }
}
