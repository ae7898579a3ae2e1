//! The benchmark's metrics — names, units, and how each is computed from the
//! executions of one run.
//!
//! End-to-end host times are process CPU time, every thread, averaged over a
//! run's simulated days from each day's median: on a shared virtual machine
//! the hypervisor takes the CPU away for a share of wall time that drifts
//! from minute to minute (steal time), and CPU time leaves that out.
//! Per-layer host times are wall-time medians over a traced run's
//! executions, so their spans nest on one clock. Simulated metrics pool
//! the simulated days of every seed of the run: query counts add up, and a
//! latency percentile is the geometric mean over the days of each day's
//! percentile. (A percentile of the merged days would be set by the rare
//! day whose tail runs for tens of seconds; a median over the days sits in
//! the gap between a day's bulk and its tail episodes and jumps.)

use crate::spans::{duration_ns, self_ns, Interval};
use crate::workload::{Execution, Layers, Outcome, Workload};
use loki_sim::trace::{bucket_index, bucket_low};
use loki_sim::Histogram;

/// End-to-end metrics, printed with `--trace 0`: name and unit.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("arrivals_per_cpu_s", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("slo_violation_ratio", "ratio"),
    ("system_accuracy", "ratio"),
    ("sim_p50_ms", "ms"),
    ("sim_p999_ms", "ms"),
    ("cost_usd", "usd"),
];

/// Per-layer metrics, printed with `--trace 1`: name and unit.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("workload.busy_s", "s"),
    ("workload.arrivals", "count"),
    ("workload.ns_per_arrival", "ns"),
    ("setup.self_s", "s"),
    ("controller.plan.calls", "count"),
    ("controller.plan.emitted", "count"),
    ("controller.plan.busy_s", "s"),
    ("controller.routing.calls", "count"),
    ("controller.routing.emitted", "count"),
    ("controller.routing.busy_s", "s"),
    ("controller.routing.cache_hits", "count"),
    ("controller.routing.cache_consults", "count"),
    ("controller.share", "ratio"),
    ("arbiter.partition.calls", "count"),
    ("arbiter.partition.emitted", "count"),
    ("arbiter.partition.share", "ratio"),
    ("arbiter.rebalances", "count"),
    ("arbiter.migrations", "count"),
    ("provisioner.decide.calls", "count"),
    ("provisioner.decide.acting", "count"),
    ("provisioner.decide.share", "ratio"),
    ("engine.self_s", "s"),
    ("engine.events", "count"),
    ("engine.ns_per_event", "ns"),
    ("engine.lane_wall_s.max", "s"),
    ("engine.lane_wall_s.sum", "s"),
    ("engine.barrier_wait_share", "ratio"),
    ("engine.parallel_speedup", "ratio"),
    ("observe.overhead_ratio", "ratio"),
    ("observe.trace_spans", "count"),
    ("observe.journal_events", "count"),
    ("report.busy_s", "s"),
    ("report.bytes", "bytes"),
    ("bench.trace_overhead_ratio", "ratio"),
];

/// One measured metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Whether a metric name is well formed: `[A-Za-z0-9_.-]+`, starting with
/// a letter or digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Median of a sample; NaN for an empty one.
pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// A latency percentile in ms, interpolated by rank within its histogram
/// bucket. The histogram reports a bucket's lower bound, which reads the same
/// for every day whose percentile falls in that ~3%-wide bucket.
pub fn interpolated_percentile_ms(h: &Histogram, q: f64) -> f64 {
    let n = h.count();
    if n == 0 {
        return f64::NAN;
    }
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    // The bucket lower bound of the value at rank `r` (1-based).
    let at = |r: u64| h.percentile_us((r as f64 - 0.5) / n as f64);
    let low = at(rank);
    let (mut first, mut hi) = (1, rank);
    while first < hi {
        let mid = (first + hi) / 2;
        if at(mid) < low {
            first = mid + 1;
        } else {
            hi = mid;
        }
    }
    let (mut lo, mut last) = (rank, n);
    while lo < last {
        let mid = (lo + last).div_ceil(2);
        if at(mid) > low {
            last = mid - 1;
        } else {
            lo = mid;
        }
    }
    let width = bucket_low(bucket_index(low) + 1) - low;
    let within = ((rank - first) as f64 + 0.5) / (last - first + 1) as f64;
    (low as f64 + within * width as f64) / 1000.0
}

/// Geometric mean of a sample of positive values; NaN for an empty one.
pub fn geometric_mean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

fn median_of(execs: &[Execution], f: impl Fn(&Execution) -> f64) -> f64 {
    median(execs.iter().map(f))
}

/// Attach units, in the order of `table`; every metric of the table must be
/// given, in that order.
fn with_units(table: &[(&'static str, &'static str)], values: Vec<(&str, f64)>) -> Vec<Metric> {
    assert_eq!(table.len(), values.len(), "one value per metric");
    table
        .iter()
        .zip(values)
        .map(|(&(name, unit), (given, value))| {
            assert_eq!(name, given, "metrics in table order");
            Metric { name, unit, value }
        })
        .collect()
}

/// The simulated days of a run, one per seed: query counts and accuracy add
/// up; latency percentiles are taken per day.
#[derive(Clone, Debug, Default)]
pub struct Pooled {
    pub arrivals: u64,
    /// Late plus dropped queries.
    pub violations: u64,
    accuracy_sum: f64,
    accuracy_count: u64,
    p50_ms: Vec<f64>,
    p999_ms: Vec<f64>,
    cost_usd: f64,
    seeds: u64,
}

impl Pooled {
    pub fn add(&mut self, workload: Workload, outcome: &Outcome) {
        let s = &outcome.summary;
        self.arrivals += s.total_arrivals;
        self.violations += s.total_late + s.total_dropped;
        for m in &outcome.intervals {
            self.accuracy_sum += m.accuracy_sum;
            self.accuracy_count += m.accuracy_count;
        }
        if let Some(e2e) = &outcome.e2e {
            self.p50_ms.push(interpolated_percentile_ms(e2e, 0.5));
            self.p999_ms.push(interpolated_percentile_ms(e2e, 0.999));
        }
        self.cost_usd += workload.cost_usd(outcome);
        self.seeds += 1;
    }
}

/// The end-to-end metrics of an untraced run; `by_day` holds the executions
/// of each simulated day. A host time is a mean over the days of the day's
/// median, so every day weighs the same however often the run repeated it.
pub fn end_to_end(by_day: &[Vec<Execution>], pooled: &Pooled, peak_rss_mb: f64) -> Vec<Metric> {
    let day_sum =
        |f: fn(&Execution) -> f64| -> f64 { by_day.iter().map(|day| median_of(day, f)).sum() };
    let days = by_day.len() as f64;
    let arrivals: u64 = by_day.iter().map(|day| day[0].arrivals).sum();
    with_units(
        &END_TO_END,
        vec![
            ("setup_s", day_sum(|e| e.cpu_setup_s) / days),
            (
                "arrivals_per_cpu_s",
                arrivals as f64 / day_sum(|e| e.cpu_run_s),
            ),
            ("cpu_s", day_sum(|e| e.cpu_s) / days),
            ("peak_rss_mb", peak_rss_mb),
            (
                "slo_violation_ratio",
                pooled.violations as f64 / pooled.arrivals as f64,
            ),
            (
                "system_accuracy",
                pooled.accuracy_sum / pooled.accuracy_count as f64,
            ),
            ("sim_p50_ms", geometric_mean(&pooled.p50_ms)),
            ("sim_p999_ms", geometric_mean(&pooled.p999_ms)),
            ("cost_usd", pooled.cost_usd / pooled.seeds as f64),
        ],
    )
}

fn layers(e: &Execution) -> &Layers {
    e.layers.as_ref().expect("a traced execution has layers")
}

/// The engine run call less the controller, arbiter and provisioner calls
/// inside it, in seconds.
pub fn engine_self_s(layers: &Layers) -> f64 {
    let children: Vec<Interval> = [
        &layers.plan,
        &layers.routing,
        &layers.partition,
        &layers.decide,
    ]
    .into_iter()
    .flat_map(|log| log.intervals.iter().copied())
    .collect();
    self_ns(layers.engine, &children) as f64 * 1e-9
}

fn secs(interval: Interval) -> f64 {
    duration_ns(interval) as f64 * 1e-9
}

/// The per-layer metrics of a traced run: `plain` are untraced executions
/// of the same seed, `traced` the traced ones, `sinks_off` traced with
/// every observation sink off, and `serial` traced at `jobs=1` (empty for a
/// workload without lanes).
pub fn per_layer(
    plain: &[Execution],
    traced: &[Execution],
    sinks_off: &[Execution],
    serial: &[Execution],
) -> Vec<Metric> {
    let first = &traced[0];
    let l = layers(first);
    let count = |n: u64| n as f64;
    let busy = |f: fn(&Layers) -> f64| median_of(traced, |e| f(layers(e)));
    let engine_self = busy(engine_self_s);
    let workload_busy = busy(|l| secs(l.workload));
    let lane_sum =
        |e: &Execution, f: fn(&(f64, f64)) -> f64| e.lane_walls.iter().map(f).sum::<f64>();
    // The untraced leg runs on one thread, as the traced `jobs=1` leg does.
    let traced_one_thread = if serial.is_empty() { traced } else { serial };
    let parallel_speedup = if serial.is_empty() {
        1.0
    } else {
        median_of(serial, |e| e.run_s) / median_of(traced, |e| e.run_s)
    };
    with_units(
        &PER_LAYER,
        vec![
            ("workload.busy_s", workload_busy),
            ("workload.arrivals", count(first.arrivals)),
            (
                "workload.ns_per_arrival",
                workload_busy * 1e9 / first.arrivals as f64,
            ),
            ("setup.self_s", busy(|l| secs(l.setup) - secs(l.workload))),
            ("controller.plan.calls", count(l.plan.calls)),
            ("controller.plan.emitted", count(l.plan.emitted)),
            ("controller.plan.busy_s", busy(|l| l.plan.busy_s())),
            ("controller.routing.calls", count(l.routing.calls)),
            ("controller.routing.emitted", count(l.routing.emitted)),
            ("controller.routing.busy_s", busy(|l| l.routing.busy_s())),
            (
                "controller.routing.cache_hits",
                count(first.routing_cache.1),
            ),
            (
                "controller.routing.cache_consults",
                count(first.routing_cache.0),
            ),
            (
                "controller.share",
                median_of(traced, |e| {
                    let l = layers(e);
                    (l.plan.busy_s() + l.routing.busy_s()) / secs(l.engine)
                }),
            ),
            ("arbiter.partition.calls", count(l.partition.calls)),
            ("arbiter.partition.emitted", count(l.partition.emitted)),
            (
                "arbiter.partition.share",
                busy(|l| l.partition.busy_s() / secs(l.engine)),
            ),
            ("arbiter.rebalances", count(first.outcome.rebalances)),
            ("arbiter.migrations", count(first.outcome.migrations)),
            ("provisioner.decide.calls", count(l.decide.calls)),
            ("provisioner.decide.acting", count(l.decide.emitted)),
            (
                "provisioner.decide.share",
                busy(|l| l.decide.busy_s() / secs(l.engine)),
            ),
            ("engine.self_s", engine_self),
            ("engine.events", count(first.events)),
            (
                "engine.ns_per_event",
                engine_self * 1e9 / first.events as f64,
            ),
            (
                "engine.lane_wall_s.max",
                median_of(traced, |e| {
                    e.lane_walls.iter().map(|w| w.0).fold(0.0, f64::max)
                }),
            ),
            (
                "engine.lane_wall_s.sum",
                median_of(traced, |e| lane_sum(e, |w| w.0)),
            ),
            (
                "engine.barrier_wait_share",
                median_of(traced, |e| lane_sum(e, |w| w.1) / lane_sum(e, |w| w.0)),
            ),
            ("engine.parallel_speedup", parallel_speedup),
            (
                "observe.overhead_ratio",
                engine_self / median_of(sinks_off, |e| engine_self_s(layers(e))),
            ),
            ("observe.trace_spans", count(first.trace_spans)),
            ("observe.journal_events", count(first.journal_events)),
            ("report.busy_s", busy(|l| secs(l.report))),
            ("report.bytes", count(first.report_bytes)),
            (
                "bench.trace_overhead_ratio",
                median_of(traced_one_thread, |e| e.wall_s) / median_of(plain, |e| e.wall_s),
            ),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(name, _)| *name)
            .collect();
        for name in &names {
            assert!(valid_name(name), "bad metric name {name:?}");
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn name_check_rejects_bad_names() {
        for bad in ["", ".lead", "sp ace", "slash/name", "ü", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?} accepted");
        }
        assert!(valid_name("engine.lane_wall_s.max"));
        assert!(valid_name("0-ok_name"));
    }

    #[test]
    fn median_handles_odd_and_even_samples() {
        assert_eq!(median([3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median([4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median([]).is_nan());
        assert!((geometric_mean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert!(geometric_mean(&[]).is_nan());
    }

    #[test]
    fn percentiles_interpolate_within_their_bucket() {
        // 1000 values in the bucket [98_304, 100_352) µs.
        let mut h = Histogram::default();
        for i in 0..1000 {
            h.record(98_304 + i * 2);
        }
        assert_eq!(h.percentile_ms(0.5), 98.304);
        assert_eq!(h.percentile_ms(0.999), 98.304);
        let p50 = interpolated_percentile_ms(&h, 0.5);
        let p999 = interpolated_percentile_ms(&h, 0.999);
        // Rank 500 of 1000 sits 499.5/1000 of the way through the bucket.
        assert!((p50 - (98.304 + 0.4995 * 2.048)).abs() < 1e-9, "{p50}");
        assert!(p50 < p999 && p999 < 100.352, "{p999}");
        // A percentile in another bucket starts from that bucket's bound.
        h.record(500_000);
        h.record(500_000);
        let top = interpolated_percentile_ms(&h, 0.999);
        assert!((h.percentile_ms(0.999)..h.percentile_ms(0.999) * 1.04).contains(&top));
        assert!(interpolated_percentile_ms(&Histogram::default(), 0.5).is_nan());
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let text = include_str!("../../BENCHMARK.json");
        for (table, key) in [
            (&END_TO_END[..], "end_to_end"),
            (&PER_LAYER[..], "per_layer"),
        ] {
            let section = &text[text.find(&format!("\"{key}\"")).expect("section present")..];
            let section = &section[..section.find(']').expect("section closes")];
            let listed = section.matches("\"name\"").count();
            assert_eq!(listed, table.len(), "{key} lists {listed} metrics");
            for (name, unit) in table {
                let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(section.contains(&entry), "{key} lacks {entry}");
            }
        }
    }
}
