//! The deep-observability layer: log-bucketed latency histograms, deterministic
//! sampled query tracing, and engine self-profiling.
//!
//! Everything in this module is *observation-only*: nothing here consumes RNG
//! draws, schedules events, or perturbs the `(time, seq)` dispatch order, so
//! enabling any of it leaves the simulated results bit-identical (pinned by the
//! determinism goldens and the trace-identity tests).
//!
//! # Histograms
//!
//! [`Histogram`] is an HDR-style log-linear histogram over microsecond values
//! with a **fixed bucket layout** (compile-time constants, independent of the
//! data): values below 2^[`HIST_SUB_BITS`] land in exact unit buckets, larger
//! values in `2^HIST_SUB_BITS` sub-buckets per power of two (≤ ~3% relative
//! error). Because the layout never adapts, merging histograms is exact
//! element-wise integer addition — lane merges and seed aggregation commute
//! with recording. Each histogram stores only its occupied range of the layout
//! (lowest to highest occupied bucket), so an empty one costs no allocation and
//! a per-interval window of 20 ms – 5 s latencies holds at most ~300 buckets.
//!
//! # Query tracing
//!
//! [`LaneTracer`] samples every Nth root arrival of a lane (a seed-stable,
//! RNG-free decision on the lane-local arrival index, so `jobs = N` runs trace
//! exactly the roots serial runs trace) and records a [`Span`] tree across the
//! root's whole life: the frontend hop, per-hop queue wait, batch execution,
//! network transfers, rescue/requeue events, and the terminal completion or
//! drop. [`TraceLog::to_chrome_json`] exports the merged log as Chrome
//! trace-event JSON loadable in Perfetto (`loki run <scenario> --trace out.json`).
//!
//! # Self-profiling
//!
//! [`PhaseProfile`] holds host seconds and exact event counts per engine
//! phase (arrival ingest, delivery, batch completion, controller plan ticks,
//! routing ticks, metrics flushes, swaps, plus the cluster-level
//! market/elastic/rebalance phases), gated by [`ObserveConfig::profile`] so
//! the profiler costs one branch per event when off. When on, a stratified
//! sampler counts every event but times only the rare phases' events and one
//! in [`SAMPLE_PERIOD`] of the frequent phases', so under 2% of events are
//! timed; the seconds of the frequent phases are estimates.

use crate::types::SimTime;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Observability configuration carried by [`crate::SimConfig`]. The default —
/// histograms on, tracing and profiling off — adds no timer calls and no trace
/// allocations to the hot path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObserveConfig {
    /// Trace every Nth root arrival per lane (`0` disables tracing). The
    /// decision uses the lane-local arrival index — never the RNG — so the
    /// sampled set is identical across `jobs` values and unchanged runs.
    pub trace_sample: u64,
    /// Profile the engine's phases per lane (plus the cluster phases on the
    /// driver): exact event counts, and host seconds estimated from timing
    /// every rare event (control, routing, metrics, swap, cluster) and one in
    /// [`SAMPLE_PERIOD`] of each frequent phase (arrival, delivery, batch).
    /// Off by default. The counts are exact; the seconds are estimates. On a
    /// 2-core KVM Xeon host profiling adds about 5% CPU time to a
    /// million-arrival run; timing every event instead nearly doubles it.
    pub profile: bool,
    /// Record latency histograms (end-to-end, per task, per worker class).
    /// On by default — recording is a couple of array increments per query,
    /// which the 1M-arrival bench guard pins as inside its wall budget.
    pub histograms: bool,
    /// Record the timeline layer: the structured cluster event journal
    /// ([`crate::journal::Journal`]) plus per-metrics-interval windowed
    /// latency histograms ([`crate::SimResult::window`]). Off by default.
    /// Observation-only like everything else here: journal recording happens
    /// at hooks that already exist (it consumes no RNG draws and schedules no
    /// events), and the windowed recorder is a second histogram recorded in
    /// parallel with the whole-run one, swapped out at each interval flush —
    /// so the per-interval deltas re-merge *exactly* to the run histogram.
    /// Each closed interval keeps only the buckets its latencies occupy
    /// (8 B per bucket, a few hundred buckets at most for typical SLOs; an
    /// interval with no completions allocates nothing).
    pub timeline: bool,
}

impl Default for ObserveConfig {
    fn default() -> Self {
        Self {
            trace_sample: 0,
            profile: false,
            histograms: true,
            timeline: false,
        }
    }
}

/// Sub-bucket resolution of the log-linear layout: `2^HIST_SUB_BITS`
/// sub-buckets per power of two (values below that are exact).
pub const HIST_SUB_BITS: u32 = 5;
const SUB: u64 = 1 << HIST_SUB_BITS;
/// Total buckets of the fixed layout (covers the full `u64` range).
pub const HIST_BUCKETS: usize = (64 - HIST_SUB_BITS as usize + 1) * SUB as usize;

/// Bucket index of a microsecond value under the fixed log-linear layout.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros() as u64;
        let shift = msb - HIST_SUB_BITS as u64;
        let group = shift + 1;
        let sub = (v >> shift) & (SUB - 1);
        (group * SUB + sub) as usize
    }
}

/// Lower bound (inclusive) of a bucket, i.e. the smallest value mapping to it.
pub fn bucket_low(index: usize) -> u64 {
    let index = index as u64;
    if index < SUB {
        index
    } else {
        let group = index / SUB;
        let sub = index % SUB;
        (SUB + sub) << (group - 1)
    }
}

/// An HDR-style log-linear histogram over microsecond values with a fixed
/// bucket layout, so merges are exact integer additions.
///
/// Only the occupied range of the layout is stored: `counts[i]` is bucket
/// `lo + i`, from the lowest to the highest occupied bucket. The range is
/// fixed by the data, so two histograms of the same values compare equal
/// whatever order they were recorded or merged in. An empty histogram
/// allocates nothing; a typical latency stream occupies a few hundred of the
/// layout's [`HIST_BUCKETS`] buckets (a few KB; the full layout is 15 KB).
/// Recording inside the stored range is a subtract, a compare and an
/// increment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    /// Layout index of `counts[0]` (0 while empty).
    lo: usize,
    counts: Vec<u64>,
    total: u64,
    /// Sum of the recorded values, wrapping past `u64::MAX` (a sum of ~584k
    /// simulated years; reachable only with edge values near `u64::MAX`).
    sum_us: u64,
    min_us: u64,
    max_us: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram. Allocates nothing until the first value is
    /// recorded; the stored range then grows to cover exactly the occupied
    /// buckets.
    pub fn new() -> Self {
        Self {
            lo: 0,
            counts: Vec::new(),
            total: 0,
            sum_us: 0,
            min_us: u64::MAX,
            max_us: 0,
        }
    }

    /// Record one microsecond value.
    #[inline]
    pub fn record(&mut self, us: u64) {
        let index = bucket_index(us);
        match self.counts.get_mut(index.wrapping_sub(self.lo)) {
            Some(c) => *c += 1,
            None => self.record_outside(index),
        }
        self.total += 1;
        self.sum_us = self.sum_us.wrapping_add(us);
        if us < self.min_us {
            self.min_us = us;
        }
        if us > self.max_us {
            self.max_us = us;
        }
    }

    /// Count one value in a bucket outside the stored range, widening the
    /// range to reach it.
    #[cold]
    #[inline(never)]
    fn record_outside(&mut self, index: usize) {
        self.widen(index, index);
        self.counts[index - self.lo] += 1;
    }

    /// Widen the stored range to cover buckets `lo..=hi` (zero-filled).
    fn widen(&mut self, lo: usize, hi: usize) {
        if self.counts.is_empty() {
            self.lo = lo;
            self.counts.resize(hi - lo + 1, 0);
            return;
        }
        if lo < self.lo {
            self.counts
                .splice(0..0, std::iter::repeat_n(0, self.lo - lo));
            self.lo = lo;
        }
        if hi >= self.lo + self.counts.len() {
            self.counts.resize(hi - self.lo + 1, 0);
        }
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Whether anything has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Exact mean of the recorded values in milliseconds (0 when empty; the
    /// sum wraps if the values add up past `u64::MAX` µs).
    pub fn mean_ms(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.total as f64 / 1_000.0
        }
    }

    /// The exact largest recorded value in microseconds (0 when empty).
    pub fn max_us(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.max_us
        }
    }

    /// The quantile value in microseconds: the lower bound of the first bucket
    /// whose cumulative count reaches `ceil(q * count)` (HDR's "lowest
    /// equivalent value" convention — exact for values below 2^[`HIST_SUB_BITS`],
    /// ≤ ~3% below the true value otherwise). Returns 0 when empty.
    pub fn percentile_us(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut cumulative = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cumulative += c;
            if cumulative >= rank {
                return bucket_low(self.lo + i);
            }
        }
        self.max_us
    }

    /// [`Histogram::percentile_us`] in milliseconds.
    pub fn percentile_ms(&self, q: f64) -> f64 {
        self.percentile_us(q) as f64 / 1_000.0
    }

    /// Merge another histogram into this one. Exact: the result is
    /// bit-identical to a histogram that recorded both value streams.
    pub fn merge(&mut self, other: &Histogram) {
        if !other.counts.is_empty() {
            self.widen(other.lo, other.lo + other.counts.len() - 1);
            let offset = other.lo - self.lo;
            for (a, b) in self.counts[offset..].iter_mut().zip(&other.counts) {
                *a += b;
            }
        }
        self.total += other.total;
        self.sum_us = self.sum_us.wrapping_add(other.sum_us);
        self.min_us = self.min_us.min(other.min_us);
        self.max_us = self.max_us.max(other.max_us);
    }

    /// The `[p50, p90, p99, p999]` milliseconds vector reports print.
    pub fn percentiles_ms(&self) -> [f64; 4] {
        [
            self.percentile_ms(0.50),
            self.percentile_ms(0.90),
            self.percentile_ms(0.99),
            self.percentile_ms(0.999),
        ]
    }
}

/// The latency histograms of one run (or one pipeline lane of a multi run),
/// all in microseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyStats {
    /// End-to-end latency of served (on-time or late) root queries.
    pub e2e: Histogram,
    /// Time at each task per processed query: queue wait plus batch execution,
    /// indexed by task.
    pub per_task: Vec<Histogram>,
    /// The same per-query task times, bucketed by the executing worker's
    /// class (one entry for fixed fleets; catalog order for elastic fleets).
    pub per_class: Vec<Histogram>,
}

impl LatencyStats {
    /// Empty stats for `num_tasks` tasks and `num_classes` worker classes
    /// (each histogram allocates on its first recorded value).
    pub fn new(num_tasks: usize, num_classes: usize) -> Self {
        Self {
            e2e: Histogram::new(),
            per_task: (0..num_tasks).map(|_| Histogram::new()).collect(),
            per_class: (0..num_classes.max(1)).map(|_| Histogram::new()).collect(),
        }
    }

    /// Merge another lane's stats into this one (exact; tasks/classes beyond
    /// this side's layout are appended).
    pub fn merge(&mut self, other: &LatencyStats) {
        self.e2e.merge(&other.e2e);
        for (i, h) in other.per_task.iter().enumerate() {
            if i < self.per_task.len() {
                self.per_task[i].merge(h);
            } else {
                self.per_task.push(h.clone());
            }
        }
        for (i, h) in other.per_class.iter().enumerate() {
            if i < self.per_class.len() {
                self.per_class[i].merge(h);
            } else {
                self.per_class.push(h.clone());
            }
        }
    }
}

/// What one [`Span`] measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpanKind {
    /// Frontend → first-task worker network hop.
    Frontend,
    /// Wait in a worker's queue until its batch started.
    Queue,
    /// Batch execution on a worker.
    Exec,
    /// Upstream worker → downstream worker network hop.
    Hop,
    /// Zero-length marker: opportunistic rerouting rescued this query.
    Reroute,
    /// Zero-length marker: the query was re-homed after its worker was
    /// reclaimed or revoked.
    Requeue,
    /// Zero-length terminal marker: a branch of the root was dropped.
    Drop,
    /// Zero-length terminal marker: the root completed (all sinks done).
    Complete,
}

impl SpanKind {
    /// Stable lowercase name used in trace exports.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Frontend => "frontend",
            SpanKind::Queue => "queue",
            SpanKind::Exec => "exec",
            SpanKind::Hop => "hop",
            SpanKind::Reroute => "reroute",
            SpanKind::Requeue => "requeue",
            SpanKind::Drop => "drop",
            SpanKind::Complete => "complete",
        }
    }
}

/// Sentinel for "no worker / no task" span coordinates.
pub const NO_ID: u32 = u32::MAX;

/// One recorded interval (or zero-length marker) in a sampled root's life.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Span {
    /// What the interval measures.
    pub kind: SpanKind,
    /// Interval start, simulated µs.
    pub start_us: SimTime,
    /// Interval end, simulated µs (equal to `start_us` for markers).
    pub end_us: SimTime,
    /// Pipeline task the span belongs to ([`NO_ID`] for root-level spans).
    pub task: u32,
    /// Worker the span executed on ([`NO_ID`] when not worker-bound).
    pub worker: u32,
}

/// Per-kind duration attribution along the chain that ended a sampled root —
/// the critical-path summary of one trace.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CriticalPath {
    /// Total critical-path duration, µs (≤ the measured end-to-end latency).
    pub total_us: SimTime,
    /// Of `total_us`: queue-wait time.
    pub queue_us: SimTime,
    /// Of `total_us`: batch-execution time.
    pub exec_us: SimTime,
    /// Of `total_us`: network-transfer time (frontend + inter-worker hops).
    pub network_us: SimTime,
}

/// The full recorded life of one sampled root query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RootTrace {
    /// Pipeline lane the root arrived on.
    pub lane: u32,
    /// Lane-local arrival index of the root (the sampling key).
    pub arrival_index: u64,
    /// Root arrival time, simulated µs.
    pub arrival_us: SimTime,
    /// Completion or drop time, simulated µs (`arrival_us` while in flight).
    pub end_us: SimTime,
    /// Whether the root was dropped (any branch lost).
    pub dropped: bool,
    /// Recorded spans, in event-processing order (deterministic).
    pub spans: Vec<Span>,
}

impl RootTrace {
    /// Measured end-to-end latency of this root, µs.
    pub fn latency_us(&self) -> SimTime {
        self.end_us.saturating_sub(self.arrival_us)
    }

    /// Walk the span chain backwards from the last-finishing interval span
    /// (each span starts where its predecessor ended — the data plane leaves
    /// no gaps) and attribute its duration by kind. `total_us` can be smaller
    /// than [`RootTrace::latency_us`] when the chain breaks (e.g. a requeued
    /// query restarts its wait), never larger.
    pub fn critical_path(&self) -> CriticalPath {
        let mut cp = CriticalPath::default();
        let intervals: Vec<&Span> = self
            .spans
            .iter()
            .filter(|s| s.end_us > s.start_us)
            .collect();
        let Some(mut current) = intervals
            .iter()
            .enumerate()
            .max_by_key(|(i, s)| (s.end_us, usize::MAX - i))
            .map(|(_, s)| **s)
        else {
            return cp;
        };
        loop {
            let d = current.end_us - current.start_us;
            cp.total_us += d;
            match current.kind {
                SpanKind::Queue => cp.queue_us += d,
                SpanKind::Exec => cp.exec_us += d,
                SpanKind::Frontend | SpanKind::Hop => cp.network_us += d,
                _ => {}
            }
            if current.start_us <= self.arrival_us {
                break;
            }
            let Some(prev) = intervals.iter().find(|s| s.end_us == current.start_us) else {
                break;
            };
            current = **prev;
        }
        cp
    }
}

/// The per-lane trace recorder. Lives inside a lane's state so span recording
/// needs no cross-lane coordination: a root's whole tree executes inside one
/// lane, and lanes merge in index order at the end of the run — identical for
/// every `jobs` value.
#[derive(Debug)]
pub struct LaneTracer {
    /// Trace every Nth root arrival (≥ 1).
    pub sample_every: u64,
    /// All sampled roots of this lane, in arrival order.
    pub roots: Vec<RootTrace>,
}

impl LaneTracer {
    /// A tracer sampling every `sample_every`-th root arrival.
    pub fn new(sample_every: u64) -> Self {
        Self {
            sample_every: sample_every.max(1),
            roots: Vec::new(),
        }
    }

    /// Whether the root with lane-local arrival index `index` is sampled.
    #[inline]
    pub fn samples(&self, index: u64) -> bool {
        index.is_multiple_of(self.sample_every)
    }

    /// Start a trace for a sampled root; returns its slot for [`RootState`]
    /// to carry.
    pub fn begin_root(&mut self, lane: u32, arrival_index: u64, arrival_us: SimTime) -> u32 {
        let slot = self.roots.len() as u32;
        self.roots.push(RootTrace {
            lane,
            arrival_index,
            arrival_us,
            end_us: arrival_us,
            dropped: false,
            spans: Vec::with_capacity(8),
        });
        slot
    }

    /// Append a span to a sampled root.
    #[inline]
    pub fn span(&mut self, slot: u32, span: Span) {
        self.roots[slot as usize].spans.push(span);
    }

    /// Close a sampled root's trace at its completion or drop time.
    pub fn finish(&mut self, slot: u32, end_us: SimTime, dropped: bool) {
        let root = &mut self.roots[slot as usize];
        root.end_us = end_us;
        root.dropped = dropped;
    }
}

/// The merged trace of a whole run: every lane's sampled roots, in lane order
/// then arrival order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceLog {
    /// All sampled roots.
    pub roots: Vec<RootTrace>,
}

impl TraceLog {
    /// Total spans across all sampled roots.
    pub fn num_spans(&self) -> usize {
        self.roots.iter().map(|r| r.spans.len()).sum()
    }

    /// Export as Chrome trace-event JSON (the `traceEvents` array format that
    /// Perfetto and `chrome://tracing` load). Each span becomes a complete
    /// (`"ph": "X"`) event with `ts`/`dur` in microseconds, `pid` = lane and
    /// `tid` = worker; each root additionally gets an umbrella event carrying
    /// the critical-path summary in `args`.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        for (ri, root) in self.roots.iter().enumerate() {
            let cp = root.critical_path();
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\":\"root#{ri}\",\"cat\":\"root\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":{},\"tid\":0,\"args\":{{\"arrival_index\":{},\"latency_us\":{},\
                 \"critical_path_us\":{},\"critical_queue_us\":{},\"critical_exec_us\":{},\
                 \"critical_network_us\":{},\"dropped\":{}}}}}",
                root.arrival_us,
                root.latency_us().max(1),
                root.lane,
                root.arrival_index,
                root.latency_us(),
                cp.total_us,
                cp.queue_us,
                cp.exec_us,
                cp.network_us,
                root.dropped
            );
            for span in &root.spans {
                let tid = if span.worker == NO_ID {
                    0
                } else {
                    span.worker + 1
                };
                let _ = write!(
                    out,
                    ",{{\"name\":\"{}\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                     \"pid\":{},\"tid\":{},\"args\":{{\"root\":{ri},\"task\":{}}}}}",
                    span.kind.name(),
                    span.start_us,
                    span.end_us - span.start_us,
                    root.lane,
                    tid,
                    if span.task == NO_ID {
                        -1
                    } else {
                        span.task as i64
                    },
                );
            }
        }
        out.push_str("]}");
        out
    }
}

/// Number of profiled engine phases: the seven lane phases of a shard's
/// dispatch loop, then the three cluster phases of the driver.
pub const PHASES: usize = 10;
/// Number of lane-side phases (the first [`LANE_PHASES`] of [`PHASE_NAMES`]).
pub const LANE_PHASES: usize = 7;
/// Phase names in index order, matching [`PhaseProfile::seconds`],
/// [`PhaseProfile::events`] and [`PhaseProfile::timed`].
pub const PHASE_NAMES: [&str; PHASES] = [
    "arrival",
    "delivery",
    "batch",
    "control",
    "routing",
    "metrics",
    "swap",
    "market",
    "elastic",
    "rebalance",
];

/// A profiled engine phase (index into the [`PHASE_NAMES`] order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Phase {
    Arrival,
    Delivery,
    Batch,
    Control,
    Routing,
    Metrics,
    Swap,
    Market,
    Elastic,
    Rebalance,
}

/// The profiler times one event in this many of each frequent phase
/// (arrival, delivery, batch): the first, then every `SAMPLE_PERIOD`-th.
/// Every event of the other phases is timed — they are rare and their costs
/// vary too much from one event to the next to sample.
pub const SAMPLE_PERIOD: u64 = 64;

/// Estimated host seconds per engine phase, with exact event counts,
/// accumulated when [`ObserveConfig::profile`] is on. Lane phases accumulate
/// inside each shard's dispatch loop; the cluster phases on the driver thread
/// at epoch barriers. Surfaced next to `lane_wall_s`/`barrier_wait_s`.
///
/// The `events` counts are exact and deterministic (identical for every
/// `jobs` value). The seconds are estimates: a frequent phase times one event
/// in [`SAMPLE_PERIOD`] and scales its sampled seconds by `events / timed`;
/// the rare phases time every event, so their seconds are measured. A lane
/// event's sample runs from its dispatch to the next event's, so the loop's
/// own source selection and pop are charged to the event before and the lane
/// phases add up to the dispatch loop's time. Each sample has the cost of one
/// empty timer pair, measured in place, subtracted; those costs are reported
/// apart, in `timer_s`.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct PhaseProfile {
    /// Root-arrival ingest (frontend routing included).
    pub arrival_s: f64,
    /// Query delivery and dispatch (queue admission, batch starts).
    pub delivery_s: f64,
    /// Batch completion: accuracy propagation, drop policies, fan-out routing.
    pub batch_s: f64,
    /// Controller plan ticks (Resource Manager + plan application).
    pub control_s: f64,
    /// Controller routing ticks (Load Balancer + table install).
    pub routing_s: f64,
    /// Metrics-interval flushes.
    pub metrics_s: f64,
    /// Model-swap completions on lane-owned workers (a swap finishing on a
    /// worker no lane owns does no lane work and is not profiled).
    pub swap_s: f64,
    /// Cluster: market ticks and revocation deadlines.
    pub market_s: f64,
    /// Cluster: elastic ticks and boot completions.
    pub elastic_s: f64,
    /// Cluster: arbiter repartitions.
    pub rebalance_s: f64,
    /// Events per phase, in [`PHASE_NAMES`] order. Exact: the lane phases of
    /// a lane sum to its `events_processed`.
    pub events: [u64; PHASES],
    /// Events per phase whose host time was measured, in [`PHASE_NAMES`]
    /// order: `events` for the rare phases, `⌈events / SAMPLE_PERIOD⌉` for
    /// the frequent ones.
    pub timed: [u64; PHASES],
    /// Host seconds of timer cost subtracted from the samples: one empty
    /// timer pair per timed event. Part of no phase — the profiler's own
    /// overhead inside the loop.
    pub timer_s: f64,
}

impl PhaseProfile {
    /// Estimated seconds per phase, in [`PHASE_NAMES`] order.
    pub fn seconds(&self) -> [f64; PHASES] {
        [
            self.arrival_s,
            self.delivery_s,
            self.batch_s,
            self.control_s,
            self.routing_s,
            self.metrics_s,
            self.swap_s,
            self.market_s,
            self.elastic_s,
            self.rebalance_s,
        ]
    }

    fn seconds_mut(&mut self) -> [&mut f64; PHASES] {
        [
            &mut self.arrival_s,
            &mut self.delivery_s,
            &mut self.batch_s,
            &mut self.control_s,
            &mut self.routing_s,
            &mut self.metrics_s,
            &mut self.swap_s,
            &mut self.market_s,
            &mut self.elastic_s,
            &mut self.rebalance_s,
        ]
    }

    /// Sum of the lane-side phases (what a shard's `lane_wall_s` decomposes
    /// into, up to dispatch-merge overhead).
    pub fn lane_total_s(&self) -> f64 {
        self.seconds()[..LANE_PHASES].iter().sum()
    }

    /// Estimated host nanoseconds per event of the phase at `index` (in
    /// [`PHASE_NAMES`] order); 0 for a phase with no events.
    pub fn ns_per_event(&self, index: usize) -> f64 {
        per(self.seconds()[index] * 1e9, self.events[index])
    }

    /// Measured cost of one empty timer pair, ns (0 when nothing was timed).
    pub fn timer_ns(&self) -> f64 {
        per(self.timer_s * 1e9, self.timed.iter().sum())
    }

    /// Accumulate another profile into this one: seconds, counts and timer
    /// cost all add.
    pub fn merge(&mut self, other: &PhaseProfile) {
        for (a, b) in self.seconds_mut().into_iter().zip(other.seconds()) {
            *a += b;
        }
        for (a, b) in self.events.iter_mut().zip(other.events) {
            *a += b;
        }
        for (a, b) in self.timed.iter_mut().zip(other.timed) {
            *a += b;
        }
        self.timer_s += other.timer_s;
    }
}

/// `total / count`, or 0 when `count` is 0.
fn per(total: f64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

/// The stratified phase sampler behind a [`PhaseProfile`]: counts every
/// event, times every rare one and one in [`SAMPLE_PERIOD`] of each frequent
/// phase (chosen by the phase's own event count, so the timed set is
/// deterministic and needs no RNG), and subtracts the timer's own cost from
/// each sample.
#[derive(Debug, Default)]
pub(crate) struct PhaseSampler {
    /// Per phase: the sum of its samples, each less its timer cost.
    net_s: [f64; PHASES],
    events: [u64; PHASES],
    timed: [u64; PHASES],
    /// Sum of the timer costs subtracted from the samples.
    timer_s: f64,
}

/// A running sample: its start, and the cost of one empty timer pair
/// measured just before it, in place (a pair measured once at start-up, in
/// a tight loop, read some 20% below the cost inside the dispatch loop).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Stamp {
    start: std::time::Instant,
    pair_s: f64,
}

impl Stamp {
    /// Start a sample.
    #[inline]
    pub(crate) fn now() -> Self {
        let before = std::time::Instant::now();
        let start = std::time::Instant::now();
        Self {
            start,
            pair_s: (start - before).as_secs_f64(),
        }
    }
}

impl PhaseSampler {
    /// Count one event of `phase`, and start a sample when the event is due
    /// for timing (close it with [`PhaseSampler::end`]).
    #[inline]
    pub(crate) fn begin(&mut self, phase: Phase) -> Option<Stamp> {
        let i = phase as usize;
        let n = self.events[i];
        self.events[i] = n + 1;
        (phase > Phase::Batch || n.is_multiple_of(SAMPLE_PERIOD)).then(Stamp::now)
    }

    /// Close a sample [`PhaseSampler::begin`] started for `phase`.
    #[inline]
    pub(crate) fn end(&mut self, phase: Phase, stamp: Stamp) {
        self.add_sample(phase, stamp.start.elapsed().as_secs_f64(), stamp.pair_s);
    }

    /// Count one event of `phase` that was timed from `stamp` to now.
    pub(crate) fn record(&mut self, phase: Phase, stamp: Stamp) {
        self.events[phase as usize] += 1;
        self.end(phase, stamp);
    }

    fn add_sample(&mut self, phase: Phase, elapsed_s: f64, pair_s: f64) {
        let i = phase as usize;
        self.timed[i] += 1;
        self.net_s[i] += elapsed_s - pair_s;
        self.timer_s += pair_s;
    }

    /// The profile this sampler estimates: each phase's net sampled seconds
    /// (clamped at zero) scaled by `events / timed`.
    pub(crate) fn profile(&self) -> PhaseProfile {
        let mut p = PhaseProfile {
            events: self.events,
            timed: self.timed,
            timer_s: self.timer_s,
            ..PhaseProfile::default()
        };
        for (i, s) in p.seconds_mut().into_iter().enumerate() {
            *s = per(
                self.net_s[i].max(0.0) * self.events[i] as f64,
                self.timed[i],
            );
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_is_exact_below_the_linear_cutoff() {
        for v in 0..SUB {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_low(v as usize), v);
        }
    }

    #[test]
    fn bucket_boundaries_are_monotone_and_self_consistent() {
        // Every bucket's lower bound maps back into the bucket, boundaries are
        // strictly increasing, and adjacent buckets meet with no gaps: the
        // value just below a bucket's lower bound belongs to the previous one.
        let mut prev_low = None;
        for idx in 0..HIST_BUCKETS {
            let low = bucket_low(idx);
            assert_eq!(bucket_index(low), idx, "low({idx}) must map back");
            if let Some(p) = prev_low {
                assert!(low > p, "bounds must increase at {idx}");
                assert_eq!(bucket_index(low - 1), idx - 1, "no gap below {idx}");
            }
            prev_low = Some(low);
        }
        // Power-of-two boundaries land on fresh buckets with exact bounds.
        for shift in HIST_SUB_BITS..63 {
            let v = 1u64 << shift;
            assert_eq!(bucket_low(bucket_index(v)), v);
        }
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn relative_error_is_bounded_by_the_sub_bucket_resolution() {
        for &v in &[100u64, 1_000, 12_345, 1_000_000, 87_654_321] {
            let low = bucket_low(bucket_index(v));
            assert!(low <= v);
            let error = (v - low) as f64 / v as f64;
            assert!(error <= 1.0 / SUB as f64, "error {error} too big for {v}");
        }
    }

    #[test]
    fn percentiles_are_exact_for_small_values() {
        let mut h = Histogram::new();
        for v in 1..=20u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 20);
        assert_eq!(h.percentile_us(0.50), 10);
        assert_eq!(h.percentile_us(0.90), 18);
        assert_eq!(h.percentile_us(1.0), 20);
        assert_eq!(h.max_us(), 20);
        assert!((h.mean_ms() - 10.5 / 1000.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_of_empty_histogram_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.percentile_us(0.99), 0);
        assert_eq!(h.max_us(), 0);
        assert_eq!(h.mean_ms(), 0.0);
        assert!(h.is_empty());
    }

    #[test]
    fn merge_is_exact() {
        // A histogram that recorded both streams is bit-identical to the
        // merge of two histograms that recorded one stream each.
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut both = Histogram::new();
        for i in 0..5_000u64 {
            let v = i * 37 % 1_000_000;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            both.record(v);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged, both);
        // Merge order does not matter either.
        let mut reversed = b.clone();
        reversed.merge(&a);
        assert_eq!(reversed, both);
    }

    #[test]
    fn latency_stats_merge_appends_unknown_tasks() {
        let mut a = LatencyStats::new(2, 1);
        let mut b = LatencyStats::new(3, 1);
        a.e2e.record(100);
        b.e2e.record(200);
        b.per_task[2].record(5);
        a.merge(&b);
        assert_eq!(a.e2e.count(), 2);
        assert_eq!(a.per_task.len(), 3);
        assert_eq!(a.per_task[2].count(), 1);
    }

    /// The dense reference the stored-range histogram must agree with: one
    /// counter per bucket of the full layout.
    struct DenseHistogram {
        counts: Vec<u64>,
        total: u64,
    }

    impl DenseHistogram {
        fn of(values: &[u64]) -> Self {
            let mut counts = vec![0; HIST_BUCKETS];
            for &v in values {
                counts[bucket_index(v)] += 1;
            }
            Self {
                counts,
                total: values.len() as u64,
            }
        }

        fn percentile_us(&self, q: f64) -> u64 {
            if self.total == 0 {
                return 0;
            }
            let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
            let mut cumulative = 0;
            for (i, &c) in self.counts.iter().enumerate() {
                cumulative += c;
                if cumulative >= rank {
                    return bucket_low(i);
                }
            }
            unreachable!("the ranks sum to the total")
        }
    }

    fn recorded(values: &[u64]) -> Histogram {
        let mut h = Histogram::new();
        for &v in values {
            h.record(v);
        }
        h
    }

    /// Values on and around the layout's edges: the linear cutoff, powers of
    /// two, and the top of the `u64` range.
    fn edge_values() -> Vec<u64> {
        let mut values = vec![0, 31, 32, 33, u64::MAX];
        for k in 1..64 {
            let p = 1u64 << k;
            values.extend([p - 1, p, p + 1]);
        }
        values
    }

    /// A seeded stream over `lo..hi` µs, log-uniform so every power of two in
    /// the range gets values.
    fn seeded_stream(seed: u64, len: usize, lo: u64, hi: u64) -> Vec<u64> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (lo_ln, hi_ln) = ((lo as f64).ln(), (hi as f64).ln());
        (0..len)
            .map(|_| (rng.gen_range(lo_ln..hi_ln).exp() as u64).clamp(lo, hi - 1))
            .collect()
    }

    const QUANTILES: [f64; 9] = [0.0, 0.001, 0.1, 0.5, 0.9, 0.99, 0.999, 0.9999, 1.0];

    #[test]
    fn stored_range_percentiles_match_the_dense_layout() {
        let mut streams = vec![edge_values()];
        for seed in 0..4 {
            streams.push(seeded_stream(seed, 5_000, 1, 1 << 40));
            let mut with_edges = seeded_stream(100 + seed, 2_000, 20_000, 5_000_000);
            with_edges.extend(edge_values());
            streams.push(with_edges);
        }
        for values in &streams {
            let h = recorded(values);
            let dense = DenseHistogram::of(values);
            for q in QUANTILES {
                assert_eq!(h.percentile_us(q), dense.percentile_us(q), "q = {q}");
            }
            assert_eq!(h.count(), values.len() as u64);
            assert_eq!(h.max_us(), *values.iter().max().unwrap());
            // The stored range is exactly the lowest to the highest occupied
            // bucket of the dense layout.
            let first = dense.counts.iter().position(|&c| c > 0).unwrap();
            let last = dense.counts.iter().rposition(|&c| c > 0).unwrap();
            assert_eq!(h.lo, first);
            assert_eq!(h.counts, dense.counts[first..=last]);
        }
    }

    #[test]
    fn recording_order_does_not_change_the_histogram() {
        for seed in 0..4 {
            let mut values = seeded_stream(seed, 3_000, 1, 1 << 30);
            values.extend(edge_values());
            let forward = recorded(&values);
            values.reverse();
            assert_eq!(recorded(&values), forward);
            values.sort_unstable();
            assert_eq!(recorded(&values), forward);
        }
    }

    #[test]
    fn merge_of_any_two_ranges_equals_recording_both() {
        let low = seeded_stream(1, 1_000, 10, 1_000);
        let high = seeded_stream(2, 1_000, 100_000, 10_000_000);
        let wide = seeded_stream(3, 1_000, 5, 50_000_000);
        let mid = seeded_stream(4, 1_000, 500, 200_000);
        let cases: [(&[u64], &[u64]); 6] = [
            (&[], &low),   // into an empty histogram
            (&low, &[]),   // an empty histogram in
            (&low, &high), // disjoint
            (&high, &low), // disjoint, other side
            (&low, &mid),  // overlapping
            (&wide, &mid), // nested
        ];
        for (a, b) in cases {
            let mut merged = recorded(a);
            merged.merge(&recorded(b));
            let both: Vec<u64> = a.iter().chain(b).copied().collect();
            assert_eq!(merged, recorded(&both));
            // Nested the other way round: the outer range merged into the inner.
            let mut reversed = recorded(b);
            reversed.merge(&recorded(a));
            assert_eq!(reversed, recorded(&both));
        }
    }

    #[test]
    fn an_empty_histogram_allocates_nothing() {
        let h = Histogram::default();
        assert_eq!(h.counts.capacity(), 0);
        // Merging two empty histograms keeps them allocation-free.
        let mut merged = Histogram::new();
        merged.merge(&h);
        assert_eq!(merged.counts.capacity(), 0);
        assert_eq!(merged, Histogram::new());
    }

    #[test]
    fn a_window_of_latencies_stores_a_few_hundred_buckets() {
        // One metrics interval of served latencies between 20 ms and 5 s.
        let values = seeded_stream(7, 10_000, 20_000, 5_000_000);
        let h = recorded(&values);
        assert!(h.counts.len() <= 320, "{} buckets", h.counts.len());
    }

    #[test]
    fn tracer_samples_every_nth_index() {
        let t = LaneTracer::new(100);
        assert!(t.samples(0));
        assert!(!t.samples(1));
        assert!(!t.samples(99));
        assert!(t.samples(100));
        // sample_every = 0 clamps to 1 (trace everything) instead of dividing
        // by zero.
        let t = LaneTracer::new(0);
        assert!(t.samples(7));
    }

    fn span(kind: SpanKind, start: SimTime, end: SimTime) -> Span {
        Span {
            kind,
            start_us: start,
            end_us: end,
            task: 0,
            worker: 1,
        }
    }

    #[test]
    fn critical_path_chains_contiguous_spans() {
        let mut tracer = LaneTracer::new(1);
        let slot = tracer.begin_root(0, 0, 1_000);
        tracer.span(slot, span(SpanKind::Frontend, 1_000, 3_000));
        tracer.span(slot, span(SpanKind::Queue, 3_000, 4_000));
        tracer.span(slot, span(SpanKind::Exec, 4_000, 9_000));
        // A parallel sibling branch that finished earlier: not on the path.
        tracer.span(slot, span(SpanKind::Exec, 4_000, 6_000));
        tracer.finish(slot, 9_000, false);
        let root = &tracer.roots[0];
        assert_eq!(root.latency_us(), 8_000);
        let cp = root.critical_path();
        assert_eq!(cp.total_us, 8_000);
        assert_eq!(cp.network_us, 2_000);
        assert_eq!(cp.queue_us, 1_000);
        assert_eq!(cp.exec_us, 5_000);
        assert!(cp.total_us <= root.latency_us());
    }

    #[test]
    fn chrome_export_is_wellformed_and_names_every_span() {
        let mut tracer = LaneTracer::new(1);
        let slot = tracer.begin_root(0, 0, 0);
        tracer.span(slot, span(SpanKind::Frontend, 0, 2_000));
        tracer.span(slot, span(SpanKind::Exec, 2_000, 5_000));
        tracer.finish(slot, 5_000, false);
        let log = TraceLog {
            roots: tracer.roots,
        };
        assert_eq!(log.num_spans(), 2);
        let json = log.to_chrome_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"frontend\""));
        assert!(json.contains("\"name\":\"exec\""));
        assert!(json.contains("\"critical_path_us\":5000"));
        // Balanced braces/brackets — the export must parse.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn phase_profile_merges_element_wise() {
        let mut a = PhaseProfile {
            arrival_s: 1.0,
            batch_s: 2.0,
            events: [10, 0, 5, 0, 0, 0, 0, 0, 0, 0],
            timed: [1, 0, 1, 0, 0, 0, 0, 0, 0, 0],
            timer_s: 0.25,
            ..Default::default()
        };
        let b = PhaseProfile {
            arrival_s: 0.5,
            market_s: 3.0,
            events: [6, 0, 0, 0, 0, 0, 0, 2, 0, 0],
            timed: [1, 0, 0, 0, 0, 0, 0, 2, 0, 0],
            timer_s: 0.5,
            ..Default::default()
        };
        a.merge(&b);
        assert!((a.arrival_s - 1.5).abs() < 1e-12);
        assert!((a.market_s - 3.0).abs() < 1e-12);
        assert!((a.lane_total_s() - 3.5).abs() < 1e-12);
        assert_eq!(a.events, [16, 0, 5, 0, 0, 0, 0, 2, 0, 0]);
        assert_eq!(a.timed, [2, 0, 1, 0, 0, 0, 0, 2, 0, 0]);
        assert!((a.timer_s - 0.75).abs() < 1e-12);
        // Timer cost per timed event: 0.75 s over 5 timed events.
        assert!((a.timer_ns() - 0.15e9).abs() < 1e-3);
    }

    #[test]
    fn sampler_times_rare_phases_always_and_frequent_ones_one_in_the_period() {
        let mut s = PhaseSampler::default();
        let timed = |s: &mut PhaseSampler, phase, n| {
            (0..n).filter(|_| s.begin(phase).is_some()).count() as u64
        };
        // The first event, then every SAMPLE_PERIOD-th.
        assert_eq!(
            timed(&mut s, Phase::Delivery, 200),
            200u64.div_ceil(SAMPLE_PERIOD)
        );
        assert_eq!(timed(&mut s, Phase::Arrival, 1), 1);
        assert_eq!(timed(&mut s, Phase::Control, 7), 7);
        assert_eq!(timed(&mut s, Phase::Swap, 3), 3);
        let p = s.profile();
        assert_eq!(p.events[Phase::Delivery as usize], 200);
        assert_eq!(p.events[Phase::Control as usize], 7);
    }

    #[test]
    fn sampler_scales_samples_by_events_over_timed() {
        let mut s = PhaseSampler::default();
        for _ in 0..10 {
            let _ = s.begin(Phase::Arrival);
        }
        // One timed arrival: 3 us, of which 1 us was the timer pair's cost.
        s.add_sample(Phase::Arrival, 3e-6, 1e-6);
        let p = s.profile();
        let i = Phase::Arrival as usize;
        assert_eq!((p.events[i], p.timed[i]), (10, 1));
        assert!((p.arrival_s - 2e-5).abs() < 1e-15, "{}", p.arrival_s);
        assert!((p.ns_per_event(i) - 2_000.0).abs() < 1e-6);
        assert!((p.timer_s - 1e-6).abs() < 1e-15);
    }

    #[test]
    fn timer_cost_subtraction_clamps_at_zero() {
        let mut s = PhaseSampler::default();
        // A sample shorter than the timer's own cost.
        let _ = s.begin(Phase::Routing);
        s.add_sample(Phase::Routing, 1e-8, 5e-8);
        let p = s.profile();
        assert_eq!(p.routing_s, 0.0);
        let i = Phase::Routing as usize;
        assert_eq!((p.events[i], p.timed[i]), (1, 1));
        assert!((p.timer_s - 5e-8).abs() < 1e-18);
    }

    #[test]
    fn empty_profile_reports_zeros_not_nan() {
        let p = PhaseSampler::default().profile();
        assert_eq!(p, PhaseProfile::default());
        assert_eq!(p.lane_total_s(), 0.0);
        assert_eq!(p.timer_ns(), 0.0);
        for i in 0..PHASES {
            assert_eq!(p.ns_per_event(i), 0.0);
        }
    }
}
