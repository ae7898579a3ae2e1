//! Host-time spans recorded at layer boundaries, and the self-time arithmetic
//! over them.
//!
//! Every recorder of one simulation reads the same [`Clock`], so intervals
//! recorded on different lane threads share one time base. Spans stay in
//! memory until the benchmark ends and writes them out.

use loki_bench::report::Json;
use std::time::Instant;

/// A monotonic clock shared by the recorders of one simulation.
#[derive(Clone, Copy, Debug)]
pub struct Clock(Instant);

impl Clock {
    /// A clock whose zero is now.
    pub fn start() -> Self {
        Clock(Instant::now())
    }

    /// Nanoseconds since the clock started.
    pub fn now_ns(self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).expect("a benchmark run lasts under 584 years")
    }
}

/// A half-open host-time interval `[start, end)` in clock nanoseconds.
pub type Interval = (u64, u64);

/// Length of an interval in nanoseconds.
pub fn duration_ns((start, end): Interval) -> u64 {
    end.saturating_sub(start)
}

/// Nanoseconds of `[lo, hi)` covered by the union of `intervals`, each
/// clipped to that window. Overlapping intervals — lane threads calling
/// their controllers at the same time — count once.
pub fn covered_ns((lo, hi): Interval, intervals: &[Interval]) -> u64 {
    let mut clipped: Vec<Interval> = intervals
        .iter()
        .map(|&(start, end)| (start.max(lo), end.min(hi)))
        .filter(|&(start, end)| start < end)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut run: Option<Interval> = None;
    for (start, end) in clipped {
        run = match run {
            Some((run_start, run_end)) if start <= run_end => Some((run_start, run_end.max(end))),
            Some(done) => {
                total += duration_ns(done);
                Some((start, end))
            }
            None => Some((start, end)),
        };
    }
    total + run.map_or(0, duration_ns)
}

/// Self time of a span: its duration minus the part its children cover.
pub fn self_ns(span: Interval, children: &[Interval]) -> u64 {
    duration_ns(span) - covered_ns(span, children)
}

/// Summed durations: the busy time of a layer whose calls may overlap.
pub fn busy_ns(intervals: &[Interval]) -> u64 {
    intervals.iter().copied().map(duration_ns).sum()
}

/// One recorded span. Spans of one simulation share `sim`.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub sim: u32,
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The spans of one benchmark run, in recording order.
#[derive(Debug, Default)]
pub struct SpanLog {
    spans: Vec<Span>,
}

impl SpanLog {
    /// Record a span and return its id.
    pub fn push(
        &mut self,
        sim: u32,
        parent: Option<u32>,
        name: &'static str,
        (start_ns, end_ns): Interval,
    ) -> u32 {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span {
            sim,
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a JSON array of `{sim, id, parent, name, start_ns, end_ns}`.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    let mut obj = Json::object();
                    obj.push("sim", u64::from(s.sim).into())
                        .push("id", u64::from(s.id).into())
                        .push(
                            "parent",
                            s.parent.map_or(Json::Null, |p| u64::from(p).into()),
                        )
                        .push("name", s.name.into())
                        .push("start_ns", s.start_ns.into())
                        .push("end_ns", s.end_ns.into());
                    obj
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disjoint_children_subtract_in_full() {
        assert_eq!(self_ns((0, 100), &[(10, 20), (30, 50)]), 70);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two lanes call their controllers at the same time under jobs=2:
        // [10, 40) and [20, 60) cover [10, 60), 50 ns, not 70.
        assert_eq!(covered_ns((0, 100), &[(20, 60), (10, 40)]), 50);
        assert_eq!(self_ns((0, 100), &[(20, 60), (10, 40)]), 50);
        // Busy time still sums both calls.
        assert_eq!(busy_ns(&[(20, 60), (10, 40)]), 70);
    }

    #[test]
    fn nested_and_touching_children_merge() {
        let children = [(10, 50), (20, 30), (50, 60), (70, 70)];
        assert_eq!(covered_ns((0, 100), &children), 50);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        assert_eq!(self_ns((10, 20), &[(0, 15), (18, 40)]), 3);
        assert_eq!(self_ns((10, 20), &[(30, 40)]), 10);
    }

    #[test]
    fn span_ids_follow_recording_order() {
        let mut log = SpanLog::default();
        let root = log.push(7, None, "run", (0, 10));
        let child = log.push(7, Some(root), "engine", (2, 8));
        assert_eq!((root, child), (0, 1));
        assert_eq!(log.spans()[1].parent, Some(0));
        let json = log.to_json().render();
        assert!(json.contains("\"name\": \"engine\""));
        assert!(json.contains("\"parent\": null"));
    }
}
