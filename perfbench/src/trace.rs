//! In-memory span recording for the traced run.
//!
//! Each span holds its name, start, end, parent and the id of the input
//! frame it served. Spans stay in memory until the run ends, then go to
//! a JSON-lines file. A span's self time is its duration minus the part
//! of its interval that its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `core.evaluate`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start: u64,
    /// End, ns since the tracer's origin.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The input frame (or run) this span served.
    pub frame: u64,
}

/// Per-name aggregate of a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Spans with this name.
    pub count: u64,
    /// Summed durations, ns.
    pub total: u64,
    /// Summed self times, ns.
    pub self_time: u64,
}

/// Records nested spans on one thread. A tracer made with
/// [`Tracer::off`] records nothing and only tells the time.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    frame: u64,
    on: bool,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// Starts a tracer; span times count from now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            frame: 0,
            on: true,
        }
    }

    /// A tracer that records no spans, for the untraced runs.
    pub fn off() -> Self {
        Tracer {
            on: false,
            ..Tracer::new()
        }
    }

    /// Nanoseconds since the origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Tags spans opened from now on with `frame`.
    pub fn set_frame(&mut self, frame: u64) {
        self.frame = frame;
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start = self.now();
        let parent = self.open.last().copied();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            frame: self.frame,
        });
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let now = self.now();
        if let Some(idx) = self.open.pop() {
            self.spans[idx].end = now;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Adds a closed child span of the innermost open span, for a stage
    /// whose duration the program measured itself.
    pub fn child(&mut self, name: &'static str, start: u64, duration: u64) {
        if !self.on {
            return;
        }
        self.spans.push(Span {
            name,
            start,
            end: start + duration,
            parent: self.open.last().copied(),
            frame: self.frame,
        });
    }

    /// Start of the innermost open span.
    pub fn open_start(&self) -> u64 {
        self.open.last().map_or(0, |&i| self.spans[i].start)
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"frame\":{}}}",
                s.name, s.start, s.end, s.frame
            );
        }
        std::fs::write(path, out)
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                let b = b.min(s.end);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

/// Sums durations and self times per span name.
pub fn by_layer(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total += s.end - s.start;
        e.self_time += own;
    }
    out
}

/// The per-layer table: self time and share of `wall_ns` per layer, and
/// the remainder no span accounts for.
pub fn render_table(layers: &BTreeMap<&'static str, LayerTime>, wall_ns: u64) -> String {
    let mut rows: Vec<(&str, LayerTime)> = layers.iter().map(|(k, v)| (*k, *v)).collect();
    rows.sort_by(|a, b| b.1.self_time.cmp(&a.1.self_time).then(a.0.cmp(b.0)));
    let share = |ns: u64| 100.0 * ns as f64 / wall_ns.max(1) as f64;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<28} {:>9} {:>12} {:>12} {:>7}",
        "layer", "spans", "total_ms", "self_ms", "share"
    );
    let mut accounted = 0u64;
    for (name, t) in rows {
        accounted += t.self_time;
        let _ = writeln!(
            out,
            "{:<28} {:>9} {:>12.3} {:>12.3} {:>6.1}%",
            name,
            t.count,
            t.total as f64 / 1e6,
            t.self_time as f64 / 1e6,
            share(t.self_time)
        );
    }
    let rest = wall_ns.saturating_sub(accounted);
    let _ = writeln!(
        out,
        "{:<28} {:>9} {:>12} {:>12.3} {:>6.1}%",
        "(unaccounted)",
        "",
        "",
        rest as f64 / 1e6,
        share(rest)
    );
    let _ = write!(
        out,
        "{:<28} {:>9} {:>12.3}",
        "(wall)",
        "",
        wall_ns as f64 / 1e6
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            frame: 0,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 70, Some(0)),
            span("a.inner", 12, 20, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 12, 30, 8]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("root", 100, 200, None),
            span("x", 90, 130, Some(0)),
            span("y", 120, 150, Some(0)),
            span("z", 190, 260, Some(0)),
        ];
        // Covered: [100,150) and [190,200) = 60.
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn layers_sum_self_time_and_table_shows_the_remainder() {
        let spans = vec![
            span("frame", 0, 100, None),
            span("eval", 10, 90, Some(0)),
            span("frame", 200, 250, None),
            span("eval", 200, 240, Some(2)),
        ];
        let layers = by_layer(&spans);
        assert_eq!(
            layers["frame"],
            LayerTime {
                count: 2,
                total: 150,
                self_time: 30
            }
        );
        assert_eq!(layers["eval"].self_time, 120);
        let table = render_table(&layers, 400);
        assert!(table.contains("(unaccounted)"), "{table}");
        // 400 wall - 150 in spans = 250 ns unaccounted, 62.5%.
        assert!(table.contains("62.5%"), "{table}");
    }

    #[test]
    fn tracer_nests_and_tags_frames() {
        let mut t = Tracer::new();
        t.set_frame(3);
        t.begin("outer");
        let start = t.open_start();
        t.child("stage", start, 5);
        t.span("inner", || ());
        t.end();
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert!(s.iter().all(|x| x.frame == 3));
        assert!(s[0].end >= s[2].end);
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let mut t = Tracer::off();
        t.begin("outer");
        t.child("stage", 0, 5);
        assert_eq!(t.span("inner", || 7), 7);
        t.end();
        assert!(t.spans().is_empty());
    }
}
