//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer. Run, phase, cell and stage spans are kept one by
//! one; per-DRAM-cycle spans are folded where they are taken into one
//! count/sum/max per (run, layer), so memory stays bounded however long
//! a run is. A span's self time is its duration minus what its child
//! spans and folds cover. Nothing is written until the pass has ended.

use std::fmt::Write as _;
use std::time::Instant;

/// One individually kept span.
pub struct Span {
    /// Enclosing span, if any.
    pub parent: Option<usize>,
    /// Run or cell this span belongs to.
    pub run: u32,
    /// Layer-qualified name.
    pub name: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
}

/// Per-cycle spans of one (run, layer), folded.
#[derive(Clone, Copy, Default)]
pub struct Fold {
    /// Spans folded in.
    pub count: u64,
    /// Sum of their durations.
    pub sum_ns: u64,
    /// Longest one.
    pub max_ns: u64,
}

impl Fold {
    /// Folds in one span of `ns`.
    #[inline]
    pub fn add(&mut self, ns: u64) {
        self.count += 1;
        self.sum_ns += ns;
        self.max_ns = self.max_ns.max(ns);
    }

    /// The fold without the clock read each of its spans contains:
    /// spans taken as differences of successive clock readings each
    /// include one reading, `clock_ns` long.
    pub fn net_of_clock(self, clock_ns: f64) -> Fold {
        Fold {
            count: self.count,
            sum_ns: self
                .sum_ns
                .saturating_sub((self.count as f64 * clock_ns) as u64),
            max_ns: self.max_ns.saturating_sub(clock_ns as u64),
        }
    }
}

/// The recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    folds: Vec<(usize, &'static str, Fold)>,
}

impl Tracer {
    /// An empty recorder; its clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            folds: Vec::new(),
        }
    }

    /// Nanoseconds since the recorder was created.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// What one [`Tracer::now_ns`] call costs, in ns: the smallest mean
    /// over five batches of back-to-back readings.
    pub fn clock_cost_ns(&self) -> f64 {
        const READS: u64 = 20_000;
        (0..5)
            .map(|_| {
                let start = self.now_ns();
                for _ in 0..READS {
                    std::hint::black_box(self.now_ns());
                }
                (self.now_ns() - start) as f64 / (READS + 1) as f64
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// Opens a span under the innermost open one and returns its id.
    pub fn open(&mut self, name: &'static str, run: u32) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            parent: self.open.last().copied(),
            run,
            name,
            start_ns: now,
            end_ns: now,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Closes the innermost open span (which must be `id`) and returns
    /// its duration in ns.
    pub fn close(&mut self, id: usize) -> u64 {
        let now = self.now_ns();
        debug_assert_eq!(self.open.last(), Some(&id), "spans close innermost first");
        self.open.retain(|&o| o != id);
        let span = &mut self.spans[id];
        span.end_ns = now;
        now - span.start_ns
    }

    /// Runs `f` inside a span and returns its result.
    pub fn scope<R>(&mut self, name: &'static str, run: u32, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, run);
        let out = f();
        self.close(id);
        out
    }

    /// Attaches a fold of per-cycle spans to the span `parent`.
    pub fn add_fold(&mut self, parent: usize, name: &'static str, fold: Fold) {
        self.folds.push((parent, name, fold));
    }

    /// Spans recorded, folded ones included.
    pub fn span_count(&self) -> u64 {
        self.spans.len() as u64 + self.folds.iter().map(|(_, _, f)| f.count).sum::<u64>()
    }

    /// Duration of span `id` in ns.
    pub fn duration_ns(&self, id: usize) -> u64 {
        self.spans[id].end_ns - self.spans[id].start_ns
    }

    /// Self time of span `id`: its duration minus its child spans and
    /// folds.
    pub fn self_ns(&self, id: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        let folded: u64 = self
            .folds
            .iter()
            .filter(|(p, _, _)| *p == id)
            .map(|(_, _, f)| f.sum_ns)
            .sum();
        self.duration_ns(id).saturating_sub(children + folded)
    }

    /// Total seconds under `name`, kept spans and folds together.
    pub fn total_s(&self, name: &str) -> f64 {
        let kept: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        let folded: u64 = self
            .folds
            .iter()
            .filter(|(_, n, _)| *n == name)
            .map(|(_, _, f)| f.sum_ns)
            .sum();
        (kept + folded) as f64 / 1e9
    }

    /// Number of kept spans and folded spans under `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).count() as u64
            + self
                .folds
                .iter()
                .filter(|(_, n, _)| *n == name)
                .map(|(_, _, f)| f.count)
                .sum::<u64>()
    }

    /// Durations in ns of the kept spans under `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// One JSON line per kept span, then one per fold.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"run\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.run, s.name, s.start_ns, s.end_ns
            );
        }
        for (parent, name, f) in &self.folds {
            let _ = writeln!(
                out,
                "{{\"fold\":\"{name}\",\"parent\":{parent},\"run\":{},\"count\":{},\"sum_ns\":{},\"max_ns\":{}}}",
                self.spans[*parent].run, f.count, f.sum_ns, f.max_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children_and_folds() {
        let mut t = Tracer::new();
        let run = t.open("run", 7);
        let child = t.open("child", 7);
        t.close(child);
        t.close(run);
        // Pin the clock readings so the arithmetic is exact.
        t.spans[run].start_ns = 0;
        t.spans[run].end_ns = 1_000;
        t.spans[child].start_ns = 100;
        t.spans[child].end_ns = 400;
        let mut f = Fold::default();
        f.add(50);
        f.add(150);
        t.add_fold(run, "layer", f);
        assert_eq!(t.self_ns(run), 1_000 - 300 - 200);
        assert_eq!(t.self_ns(child), 300);
        assert_eq!(t.span_count(), 4);
        assert_eq!(t.count("layer"), 2);
        assert!((t.total_s("layer") - 200e-9).abs() < 1e-15);
        assert_eq!(t.to_jsonl().lines().count(), 3);
    }

    #[test]
    fn clock_readings_come_out_of_a_fold() {
        let mut f = Fold::default();
        f.add(100);
        f.add(300);
        let net = f.net_of_clock(25.0);
        assert_eq!((net.count, net.sum_ns, net.max_ns), (2, 350, 275));
        assert_eq!(f.net_of_clock(1e6).sum_ns, 0, "never below zero");
        assert!(Tracer::new().clock_cost_ns() > 0.0);
    }
}
