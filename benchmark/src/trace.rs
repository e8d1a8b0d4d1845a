//! The harness's own spans, recorded around public calls into the
//! program under test.
//!
//! A span is `(name, start, end, parent, request/round id)`. Spans stay
//! in memory; per-name totals are folded as spans close, and the raw
//! records can be written out once the run ends ([`Tracer::write_csv`]).
//! A span's *self time* is its duration minus the part its children
//! cover, so the self times of a tree add up to the root's duration.
//!
//! One `Tracer` belongs to one thread; a two-thread workload keeps one
//! per thread.

use std::io::Write;
use std::time::Instant;

/// Time source of a tracer: the wall clock, or a hand-driven clock so
/// the self-time arithmetic is testable with exact numbers.
#[derive(Debug)]
enum Clock {
    Wall(Instant),
    Manual(u64),
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanRecord {
    pub name: &'static str,
    /// Index of the parent in the record list; `u32::MAX` for roots.
    pub parent: u32,
    /// Request line or round the span belongs to.
    pub unit: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotal {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl NameTotal {
    /// Mean duration in the given unit (`ns_per` nanoseconds each).
    pub fn mean(&self, ns_per: f64) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / ns_per
        }
    }
}

/// Per-name totals, in first-seen order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Totals(Vec<(&'static str, NameTotal)>);

impl Totals {
    fn slot(&mut self, name: &'static str) -> &mut NameTotal {
        // Pointer equality first: span names are a handful of literals.
        let at = self
            .0
            .iter()
            .position(|(n, _)| std::ptr::eq(*n, name) || *n == name);
        match at {
            Some(i) => &mut self.0[i].1,
            None => {
                self.0.push((name, NameTotal::default()));
                &mut self.0.last_mut().expect("just pushed").1
            }
        }
    }

    pub fn get(&self, name: &str) -> NameTotal {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, t)| *t)
            .unwrap_or_default()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, NameTotal)> + '_ {
        self.0.iter().copied()
    }
}

struct Open {
    record: u32,
    children_ns: u64,
}

pub struct Tracer {
    clock: Clock,
    stack: Vec<Open>,
    records: Vec<SpanRecord>,
    totals: Totals,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer::with_clock(Clock::Wall(Instant::now()))
    }

    /// A tracer whose clock only moves through [`Tracer::advance`].
    pub fn manual() -> Tracer {
        Tracer::with_clock(Clock::Manual(0))
    }

    fn with_clock(clock: Clock) -> Tracer {
        Tracer {
            clock,
            stack: Vec::new(),
            records: Vec::new(),
            totals: Totals::default(),
        }
    }

    fn now_ns(&self) -> u64 {
        match &self.clock {
            Clock::Wall(origin) => origin.elapsed().as_nanos() as u64,
            Clock::Manual(ns) => *ns,
        }
    }

    /// Move a manual clock forward; the wall clock ignores it.
    pub fn advance(&mut self, ns: u64) {
        if let Clock::Manual(now) = &mut self.clock {
            *now += ns;
        }
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, unit: u32) {
        let parent = self.stack.last().map_or(u32::MAX, |o| o.record);
        let record = self.records.len() as u32;
        let start_ns = self.now_ns();
        self.records.push(SpanRecord {
            name,
            parent,
            unit,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(Open {
            record,
            children_ns: 0,
        });
    }

    /// Close the innermost open span; returns its duration.
    pub fn exit(&mut self) -> u64 {
        let end_ns = self.now_ns();
        let open = self.stack.pop().expect("exit without a matching enter");
        let rec = &mut self.records[open.record as usize];
        rec.end_ns = end_ns;
        let dur = end_ns - rec.start_ns;
        let name = rec.name;
        if let Some(parent) = self.stack.last_mut() {
            parent.children_ns += dur;
        }
        let slot = self.totals.slot(name);
        slot.count += 1;
        slot.total_ns += dur;
        slot.self_ns += dur.saturating_sub(open.children_ns);
        dur
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, unit: u32, f: impl FnOnce() -> T) -> (T, u64) {
        self.enter(name, unit);
        let out = f();
        (out, self.exit())
    }

    pub fn totals(&self) -> &Totals {
        &self.totals
    }

    pub fn records(&self) -> &[SpanRecord] {
        &self.records
    }

    /// Durations (ns) of every closed span named `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.records
            .iter()
            .filter(|r| r.name == name)
            .map(|r| (r.end_ns - r.start_ns) as f64)
            .collect()
    }

    /// One line per span: `id,parent,name,unit,start_ns,end_ns`
    /// (`parent` is empty for roots; ids are line numbers from 0).
    pub fn write_csv(&self, out: &mut impl Write, thread: &str) -> std::io::Result<()> {
        for (id, r) in self.records.iter().enumerate() {
            let parent = if r.parent == u32::MAX {
                String::new()
            } else {
                r.parent.to_string()
            };
            writeln!(
                out,
                "{thread},{id},{parent},{},{},{},{}",
                r.name, r.unit, r.start_ns, r.end_ns
            )?;
        }
        Ok(())
    }
}

/// Run `f` inside a span when tracing, bare otherwise.
pub fn span_if<T>(
    tr: &mut Option<Tracer>,
    name: &'static str,
    unit: u32,
    f: impl FnOnce() -> T,
) -> T {
    match tr {
        Some(tr) => tr.span(name, unit, f).0,
        None => f(),
    }
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

/// What recording one span costs on this machine right now, ns: the
/// fastest of a few batches of empty spans on a wall-clock tracer.
pub fn span_cost_ns() -> f64 {
    const BATCH: usize = 100_000;
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let mut tr = Tracer::new();
        let t0 = Instant::now();
        for unit in 0..BATCH {
            tr.enter("bench.span_cost", unit as u32);
            tr.exit();
        }
        best = best.min(t0.elapsed().as_nanos() as f64 / BATCH as f64);
        std::hint::black_box(tr.records().len());
    }
    best
}

/// Share of `wall_ns` no layer span accounts for: one minus the summed
/// self time of every span that is not the workload root.
pub fn unattributed_share(totals: &Totals, root: &str, wall_ns: u64) -> f64 {
    let attributed: u64 = totals
        .iter()
        .filter(|(n, _)| *n != root)
        .map(|(_, t)| t.self_ns)
        .sum();
    1.0 - attributed as f64 / wall_ns.max(1) as f64
}
