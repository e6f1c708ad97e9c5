//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around calls into the
//! program's public functions. Each span has a name, a group id shared by
//! every span of one request or generation, its own id, its parent, and
//! start/end offsets from a common epoch. Self time — a span's duration
//! minus the time its children cover — is folded per name as spans close,
//! so aggregation never needs the full span list; a bounded prefix of the
//! spans is kept for writing out at the end.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Spans kept for writing out; later spans still count in the per-name
/// aggregates.
const RETAINED_SPANS: usize = 50_000;

/// One closed span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Layer name, e.g. `core.evaluate`.
    pub name: &'static str,
    /// Request or generation id shared by related spans.
    pub group: u64,
    /// This span's id.
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// Start, in nanoseconds since the tracer epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer epoch.
    pub end_ns: u64,
}

#[derive(Debug)]
struct Open {
    name: &'static str,
    group: u64,
    id: u64,
    parent: Option<u64>,
    start_ns: u64,
    child_ns: u64,
}

/// Per-name aggregate: every closed span's duration and self time.
#[derive(Debug, Default, Clone)]
pub struct Layer {
    /// Durations in nanoseconds.
    pub total_ns: Vec<u64>,
    /// Self times in nanoseconds.
    pub self_ns: Vec<u64>,
}

/// A span recorder. A disabled tracer runs the wrapped code and records
/// nothing, so the untraced path pays one branch per call site.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: u64,
    forks: u64,
    stack: Vec<Open>,
    retained: Vec<SpanRecord>,
    dropped: u64,
    layers: BTreeMap<&'static str, Layer>,
}

impl Tracer {
    /// A tracer on `epoch`; span ids start at `id_base` so tracers of
    /// different threads never share an id.
    pub fn new(enabled: bool, epoch: Instant, id_base: u64) -> Tracer {
        Tracer {
            enabled,
            epoch,
            next_id: id_base,
            forks: 0,
            stack: Vec::new(),
            retained: Vec::new(),
            dropped: 0,
            layers: BTreeMap::new(),
        }
    }

    /// `true` when spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A tracer for another thread on the same epoch, with an id range of
    /// its own.
    pub fn fork(&mut self) -> Tracer {
        self.forks += 1;
        Tracer::new(self.enabled, self.epoch, self.next_id + (self.forks << 40))
    }

    /// A fresh group id for the spans of one request.
    pub fn new_group(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    fn offset_ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        group: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.stack.last().map(|o| o.id);
        let start_ns = self.offset_ns(Instant::now());
        self.stack.push(Open {
            name,
            group,
            id,
            parent,
            start_ns,
            child_ns: 0,
        });
        let out = f(self);
        let end_ns = self.offset_ns(Instant::now());
        let open = self.stack.pop().expect("span stack is balanced");
        self.close(open, end_ns);
        out
    }

    /// Records a span measured elsewhere (a round trip timed by a client)
    /// under the currently open span, if any.
    pub fn record(&mut self, name: &'static str, group: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let id = self.next_id;
        self.next_id += 1;
        let open = Open {
            name,
            group,
            id,
            parent: self.stack.last().map(|o| o.id),
            start_ns: self.offset_ns(start),
            child_ns: 0,
        };
        let end_ns = self.offset_ns(end);
        self.close(open, end_ns);
    }

    fn close(&mut self, open: Open, end_ns: u64) {
        let total = end_ns.saturating_sub(open.start_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += total;
        }
        let layer = self.layers.entry(open.name).or_default();
        layer.total_ns.push(total);
        layer.self_ns.push(total.saturating_sub(open.child_ns));
        if self.retained.len() < RETAINED_SPANS {
            self.retained.push(SpanRecord {
                name: open.name,
                group: open.group,
                id: open.id,
                parent: open.parent,
                start_ns: open.start_ns,
                end_ns,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Folds another tracer's spans (e.g. a client thread's) into this one.
    pub fn absorb(&mut self, other: Tracer) {
        for (name, layer) in other.layers {
            let mine = self.layers.entry(name).or_default();
            mine.total_ns.extend(layer.total_ns);
            mine.self_ns.extend(layer.self_ns);
        }
        let room = RETAINED_SPANS.saturating_sub(self.retained.len());
        let kept = other.retained.len().min(room);
        self.dropped += other.dropped + (other.retained.len() - kept) as u64;
        self.retained.extend(other.retained.into_iter().take(kept));
    }

    /// The aggregate of one layer (empty when it never ran).
    pub fn layer(&self, name: &str) -> Layer {
        self.layers.get(name).cloned().unwrap_or_default()
    }

    /// Sum of one layer's self times, in seconds.
    pub fn self_s(&self, name: &str) -> f64 {
        self.layers
            .get(name)
            .map_or(0.0, |l| l.self_ns.iter().sum::<u64>() as f64 / 1e9)
    }

    /// Writes the retained spans as JSON lines.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.retained {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"group\":{},\"span\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.group, s.id, parent, s.start_ns, s.end_ns
            )?;
        }
        if self.dropped > 0 {
            writeln!(out, "{{\"dropped_spans\":{}}}", self.dropped)?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_parents_link() {
        let mut t = Tracer::new(true, Instant::now(), 0);
        t.span("outer", 7, |t| {
            t.span("inner", 7, |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let outer = t.layer("outer");
        let inner = t.layer("inner");
        assert_eq!(outer.total_ns.len(), 1);
        assert!(outer.total_ns[0] >= inner.total_ns[0]);
        assert_eq!(outer.self_ns[0], outer.total_ns[0] - inner.total_ns[0]);
        let spans = &t.retained;
        let (inner_rec, outer_rec) = (&spans[0], &spans[1]);
        assert_eq!(inner_rec.parent, Some(outer_rec.id));
        assert_eq!(outer_rec.parent, None);
        assert!(spans.iter().all(|s| s.group == 7));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now(), 0);
        let v = t.span("x", 1, |_| 41 + 1);
        assert_eq!(v, 42);
        assert!(t.layer("x").total_ns.is_empty());
    }

    #[test]
    fn absorb_merges_layers() {
        let epoch = Instant::now();
        let mut a = Tracer::new(true, epoch, 0);
        let mut b = a.fork();
        a.span("x", 1, |_| ());
        b.span("x", 2, |_| ());
        b.record("rtt", 2, epoch, Instant::now());
        a.absorb(b);
        assert_eq!(a.layer("x").total_ns.len(), 2);
        assert_eq!(a.layer("rtt").total_ns.len(), 1);
    }
}
