//! The `loki` CLI: one binary for the whole evaluation harness.
//!
//! ```text
//! loki list   [--json]                                  # registered scenarios
//! loki run    <scenario> [key=value …] [--json] [--jobs N]
//! loki sweep  <scenario> [axis=v1,v2,…] [key=value …] [--json] [--csv] [--jobs N] [--serial]
//! loki report [out=PATH] [skip_large=1] [skip_stress=1] [--jobs N]
//! ```
//!
//! `run` executes one scenario with its kind-specific executor (the former
//! `fig*`/`ablation_*`/`capacity_table` binaries); `sweep` enumerates a grid over
//! the controller/slo/peak/cluster/links/seed axes and fans the points out across
//! cores, reporting cross-seed mean/stddev per axis point (with a `--csv` emitter
//! for figure plotting); `report` refreshes `BENCH_sim.json`. Unknown keys and
//! unparsable values exit with a clear error (exit code 2) instead of being
//! silently ignored.

use loki_bench::figures::{self, ScenarioReport};
use loki_bench::report::{self, Json};
use loki_bench::runner::Runner;
use loki_bench::scenario::{self, Scenario, ScenarioKind};
use loki_bench::sweep::Sweep;
use std::fmt::Write as _;

const USAGE: &str = "loki — the Loki evaluation harness

USAGE:
  loki list   [--json]                                 list registered scenarios
  loki run    <scenario> [key=value ...] [--json] [--jobs N] [--trace PATH] [--timeline PATH]
  loki sweep  <scenario> [axis=v1,v2,...] [key=value ...] [--json] [--csv] [--jobs N] [--serial]
  loki report [out=PATH] [runs=N] [skip_large=1] [skip_stress=1] [--jobs N]
  loki help

Config keys: cluster, slo, duration, peak, base, seed, bucket, drain, runs,
jobs (engine lane threads for multi-pipeline scenarios; bit-identical),
links (uniform, two-tier, edge-split), elastic (fixed, static-peak,
static-mean, autoscale), classes (uniform, mixed), spot (true/false),
revoke (spot revocations per worker-hour), stockout (probability),
provisioner (reactive, forecast), route (accuracy, link-aware),
trace (sample every Nth root query; 0 = off), profile (engine phase
timers, true/false), hist (latency histograms, default true), timeline
(cluster event journal + windowed histogram deltas, true/false).

`run --trace PATH` executes the scenario's canonical point with tracing on
(trace=100 unless overridden) and writes Chrome trace-event JSON to PATH —
load it in Perfetto (ui.perfetto.dev) or chrome://tracing.
`run --timeline PATH` executes the canonical point with timeline=true and
writes the windowed time-series export: JSON (interval rows interleaved with
journal events, plus the SLO burn analysis) to PATH and the flat per-interval
CSV next to it (.json swapped for .csv). Timeline files record simulated time
only and are byte-identical for every jobs= value.
Sweep axes (comma-separated lists): controllers, slo, peak, cluster, links,
route, elastic, spot, revoke, stockout, provisioner, jobs, seed.
Multi-seed sweeps report cross-seed mean/stddev per axis point; --csv emits one
flat CSV (stat=point|mean|stddev) ready for plotting.
See EXPERIMENTS.md for the invocation reproducing each paper figure.";

fn fail(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!("run `loki help` for usage");
    std::process::exit(2);
}

/// Flags shared by `run` and `sweep`.
struct Flags {
    json: bool,
    csv: bool,
    jobs: Option<usize>,
    serial: bool,
    /// Output path for Chrome trace-event JSON (`run` only).
    trace: Option<String>,
    /// Output path for the windowed timeline export (`run` only).
    timeline: Option<String>,
    /// Remaining `key=value` operands.
    kv: Vec<String>,
}

fn parse_flags(args: &[String]) -> Flags {
    let mut flags = Flags {
        json: false,
        csv: false,
        jobs: None,
        serial: false,
        trace: None,
        timeline: None,
        kv: Vec::new(),
    };
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--json" => flags.json = true,
            "--csv" => flags.csv = true,
            "--serial" => flags.serial = true,
            "--jobs" => {
                let Some(value) = iter.next() else {
                    fail("--jobs requires a value");
                };
                match value.parse::<usize>() {
                    Ok(n) if n >= 1 => flags.jobs = Some(n),
                    _ => fail(&format!("invalid --jobs value {value:?}")),
                }
            }
            "--trace" => {
                let Some(value) = iter.next() else {
                    fail("--trace requires an output path");
                };
                flags.trace = Some(value.clone());
            }
            "--timeline" => {
                let Some(value) = iter.next() else {
                    fail("--timeline requires an output path");
                };
                flags.timeline = Some(value.clone());
            }
            other if other.starts_with("--") => fail(&format!("unknown flag {other:?}")),
            other => flags.kv.push(other.to_string()),
        }
    }
    flags
}

fn runner_from_flags(flags: &Flags) -> Runner {
    if flags.serial {
        Runner::serial()
    } else if let Some(jobs) = flags.jobs {
        Runner::with_jobs(jobs)
    } else {
        Runner::auto()
    }
}

fn lookup_scenario(name: &str) -> &'static Scenario {
    scenario::find(name).unwrap_or_else(|| {
        fail(&format!(
            "unknown scenario {name:?}; `loki list` shows the registry"
        ))
    })
}

fn cmd_list(args: &[String]) {
    let flags = parse_flags(args);
    if flags.csv {
        fail("--csv is only available for sweep");
    }
    if flags.trace.is_some() {
        fail("--trace is only available for run");
    }
    if flags.timeline.is_some() {
        fail("--timeline is only available for run");
    }
    if !flags.kv.is_empty() {
        fail(&format!("list takes no operands, got {:?}", flags.kv));
    }
    if flags.json {
        let rows = scenario::REGISTRY
            .iter()
            .map(|sc| {
                let cfg = sc.config();
                // The default sweep grid: what `loki sweep <name>` enumerates
                // before any axis is widened — scripts drive sweeps from this.
                let sweep = Sweep::for_scenario(sc, cfg.clone());
                let mut axes = Json::object();
                axes.push(
                    "controllers",
                    Json::Arr(sweep.controllers.iter().map(|c| c.name().into()).collect()),
                )
                .push(
                    "slo",
                    Json::Arr(sweep.slo_ms.iter().map(|&v| v.into()).collect()),
                )
                .push(
                    "peak",
                    Json::Arr(sweep.peak_qps.iter().map(|&v| v.into()).collect()),
                )
                .push(
                    "cluster",
                    Json::Arr(sweep.cluster_size.iter().map(|&v| v.into()).collect()),
                )
                .push(
                    "links",
                    Json::Arr(sweep.links.iter().map(|l| l.name().into()).collect()),
                )
                .push(
                    "route",
                    Json::Arr(sweep.route.iter().map(|r| r.label().into()).collect()),
                )
                .push(
                    "elastic",
                    Json::Arr(sweep.elastic.iter().map(|m| m.name().into()).collect()),
                )
                .push(
                    "jobs",
                    Json::Arr(sweep.jobs.iter().map(|&v| v.into()).collect()),
                )
                .push(
                    "seed",
                    Json::Arr(sweep.seed.iter().map(|&v| Json::UInt(v)).collect()),
                );
                let mut obj = Json::object();
                obj.push("name", sc.name.into())
                    .push("title", sc.title.into())
                    .push("kind", format!("{:?}", sc.kind).into())
                    .push("pipeline", sc.pipeline.name().into())
                    .push("trace", sc.trace.name().into())
                    .push("axes", axes)
                    .push("config", figures::config_json(&cfg));
                obj
            })
            .collect();
        let mut out = Json::object();
        out.push("scenarios", Json::Arr(rows));
        print!("{}", out.render());
        return;
    }
    let mut out = String::new();
    let _ = writeln!(out, "{:<22} {:<20} title", "scenario", "kind");
    for sc in scenario::REGISTRY {
        let _ = writeln!(
            out,
            "{:<22} {:<20} {}",
            sc.name,
            format!("{:?}", sc.kind),
            sc.title
        );
    }
    print!("{out}");
}

fn cmd_run(args: &[String]) {
    let flags = parse_flags(args);
    if flags.csv {
        fail("--csv is only available for sweep");
    }
    let Some((name, overrides)) = flags.kv.split_first() else {
        fail("run requires a scenario name");
    };
    let sc = lookup_scenario(name);
    let mut cfg = sc.config();
    if let Err(message) = cfg.apply_overrides(overrides.iter().map(String::as_str)) {
        fail(&message);
    }
    if flags.trace.is_some() && flags.timeline.is_some() {
        fail("--trace and --timeline are mutually exclusive");
    }
    if let Some(path) = &flags.trace {
        cmd_run_traced(sc, cfg, path, &flags);
        return;
    }
    if let Some(path) = &flags.timeline {
        cmd_run_timeline(sc, cfg, path, &flags);
        return;
    }
    let runner = runner_from_flags(&flags);
    let report = figures::run_scenario(sc, &cfg, &runner);
    emit(&report, flags.json);
}

/// `run --trace PATH`: execute the scenario's canonical point once with query
/// tracing enabled and write the Chrome trace-event JSON to `path`. Skips the
/// kind-specific executor — the trace is the deliverable, not the figure.
fn cmd_run_traced(sc: &Scenario, mut cfg: loki_bench::ExperimentConfig, path: &str, flags: &Flags) {
    if cfg.trace_sample == 0 {
        cfg.trace_sample = 100;
    }
    let runner = runner_from_flags(flags);
    let mut results = runner.run(vec![scenario::scenario_point(sc, &cfg)]);
    let point = results.remove(0);
    let Some(trace) = &point.result.trace else {
        fail("run produced no trace (simulation recorded zero sampled roots)");
    };
    if let Err(err) = std::fs::write(path, trace.to_chrome_json()) {
        fail(&format!("cannot write trace to {path:?}: {err}"));
    }
    let s = &point.result.summary;
    if flags.json {
        let mut obj = Json::object();
        obj.push("scenario", sc.name.into())
            .push("trace_path", path.into())
            .push("trace_sample", cfg.trace_sample.into())
            .push("roots", Json::UInt(trace.roots.len() as u64))
            .push("spans", Json::UInt(trace.num_spans() as u64))
            .push("p50_ms", s.p50_ms.into())
            .push("p99_ms", s.p99_ms.into());
        print!("{}", obj.render());
    } else {
        println!(
            "traced {}: {} sampled roots, {} spans (every {}th arrival) -> {}",
            sc.name,
            trace.roots.len(),
            trace.num_spans(),
            cfg.trace_sample,
            path
        );
        println!(
            "latency_ms p50 {:.1}  p90 {:.1}  p99 {:.1}  p999 {:.1}",
            s.p50_ms, s.p90_ms, s.p99_ms, s.p999_ms
        );
        println!("open in Perfetto (ui.perfetto.dev) or chrome://tracing");
    }
}

/// Sibling CSV path of a `--timeline` JSON path: swap a `.json` suffix for
/// `.csv`, else append `.csv`.
fn timeline_csv_path(path: &str) -> String {
    match path.strip_suffix(".json") {
        Some(stem) => format!("{stem}.csv"),
        None => format!("{path}.csv"),
    }
}

/// `run --timeline PATH`: execute the scenario's canonical point once with the
/// timeline channel on and write the windowed time-series export — JSON at
/// PATH (interval rows interleaved with journal events + the burn analysis)
/// and the flat per-interval CSV next to it. Skips the kind-specific executor:
/// the timeline is the deliverable, not the figure.
fn cmd_run_timeline(
    sc: &Scenario,
    mut cfg: loki_bench::ExperimentConfig,
    path: &str,
    flags: &Flags,
) {
    cfg.timeline = true;
    let runner = runner_from_flags(flags);
    let mut results = runner.run(vec![scenario::scenario_point(sc, &cfg)]);
    let point = results.remove(0);
    let json = loki_bench::timeline::timeline_json(sc.name, &point);
    if let Err(err) = std::fs::write(path, &json) {
        fail(&format!("cannot write timeline to {path:?}: {err}"));
    }
    let csv_path = timeline_csv_path(path);
    let csv = loki_bench::timeline::timeline_csv(&point);
    if let Err(err) = std::fs::write(&csv_path, &csv) {
        fail(&format!("cannot write timeline to {csv_path:?}: {err}"));
    }
    let events = point.result.journal.as_ref().map_or(0, |j| j.len());
    let intervals = point.result.intervals.len();
    let lanes = point.per_pipeline.len().max(1);
    if flags.json {
        let mut obj = Json::object();
        obj.push("scenario", sc.name.into())
            .push("timeline_path", path.into())
            .push("timeline_csv_path", csv_path.as_str().into())
            .push("intervals", Json::UInt(intervals as u64))
            .push("lanes", Json::UInt(lanes as u64))
            .push("journal_events", Json::UInt(events as u64));
        if let Some(burn) = &point.burn {
            obj.push("burn_episodes", Json::UInt(burn.episodes.len() as u64))
                .push("budget_consumed", burn.budget_consumed.into())
                .push("worst_burn_rate", burn.worst_burn_rate.into());
        }
        print!("{}", obj.render());
    } else {
        println!(
            "timeline {}: {} intervals x {} lane(s), {} journal events -> {} (+ {})",
            sc.name, intervals, lanes, events, path, csv_path
        );
        if let Some(burn) = &point.burn {
            println!(
                "slo budget: {:.1}% consumed, worst burn rate {:.2}x, {} episode(s)",
                burn.budget_consumed * 100.0,
                burn.worst_burn_rate,
                burn.episodes.len()
            );
            for ep in &burn.episodes {
                println!(
                    "  [{:.0}s..{:.0}s] {}: peak {:.1}x, {} bad queries ({:.1}% of budget) — {}",
                    ep.start_s,
                    ep.end_s,
                    ep.cause.name(),
                    ep.peak_burn_rate,
                    ep.bad_queries,
                    ep.budget_consumed_pct,
                    ep.evidence
                );
            }
        }
    }
}

fn cmd_sweep(args: &[String]) {
    let flags = parse_flags(args);
    if flags.json && flags.csv {
        fail("--json and --csv are mutually exclusive");
    }
    if flags.trace.is_some() {
        fail("--trace is only available for run");
    }
    if flags.timeline.is_some() {
        fail("--timeline is only available for run");
    }
    let Some((name, operands)) = flags.kv.split_first() else {
        fail("sweep requires a scenario name");
    };
    let sc = lookup_scenario(name);
    let mut cfg = sc.config();
    let mut axes: Vec<(String, String)> = Vec::new();
    for arg in operands {
        let Some((key, value)) = arg.split_once('=') else {
            fail(&format!("expected key=value, got {arg:?}"));
        };
        match key {
            // Axis keys accept comma-separated lists and are applied to the grid.
            "controllers" | "controller" | "slo" | "peak" | "cluster" | "links" | "route"
            | "elastic" | "spot" | "revoke" | "stockout" | "provisioner" | "jobs" | "seed" => {
                axes.push((key.to_string(), value.to_string()));
            }
            // Everything else is a base-config override.
            _ => {
                if let Err(message) = cfg.set(key, value) {
                    fail(&message);
                }
            }
        }
    }
    let mut sweep = Sweep::for_scenario(sc, cfg.clone());
    for (axis, values) in &axes {
        if let Err(message) = sweep.set_axis(axis, values) {
            fail(&message);
        }
    }
    if sweep.is_empty() {
        fail("sweep grid is empty");
    }
    let runner = runner_from_flags(&flags);
    eprintln!(
        "sweep {}: {} points across {} worker thread(s)",
        sc.name,
        sweep.len(),
        runner.jobs.min(sweep.len())
    );
    let points = sweep.points();
    let results = runner.run(points.clone());
    let multi_seed = sweep.seed.len() > 1;

    if flags.csv {
        print!("{}", report::sweep_csv(sc.name, &points, &results));
        return;
    }
    if flags.json {
        let mut out = Json::object();
        out.push("scenario", sc.name.into())
            .push("config", figures::config_json(&cfg))
            .push("jobs", runner.jobs.into())
            .push(
                "points",
                Json::Arr(
                    results
                        .iter()
                        .map(|point| {
                            let mut obj = Json::object();
                            obj.push("label", point.label.as_str().into())
                                .push("wall_s", point.wall_s.into())
                                .push("summary", figures::summary_json(&point.result.summary));
                            if let Some(cost) = &point.cost {
                                obj.push("cost", figures::cost_json(cost));
                            }
                            if let Some(burn) = &point.burn {
                                obj.push("burn", loki_bench::timeline::burn_json(burn));
                            }
                            if let Some(p) = &point.result.profile {
                                obj.push("profile", figures::profile_json(p));
                            }
                            if !point.per_pipeline.is_empty() {
                                obj.push(
                                    "pipelines",
                                    Json::Arr(
                                        point
                                            .per_pipeline
                                            .iter()
                                            .map(|lane| {
                                                let mut entry = Json::object();
                                                entry.push("name", lane.name.as_str().into()).push(
                                                    "summary",
                                                    figures::summary_json(&lane.summary),
                                                );
                                                entry
                                            })
                                            .collect(),
                                    ),
                                );
                            }
                            obj
                        })
                        .collect(),
                ),
            );
        if multi_seed {
            out.push(
                "aggregates",
                Json::Arr(
                    report::aggregate_sweep(&points, &results)
                        .iter()
                        .map(|agg| {
                            let mut obj = Json::object();
                            obj.push("label", agg.label.as_str().into()).push(
                                "seeds",
                                Json::Arr(agg.seeds.iter().map(|&s| Json::UInt(s)).collect()),
                            );
                            for (i, metric) in report::SWEEP_METRICS.iter().enumerate() {
                                obj.push(&format!("{metric}_mean"), agg.mean[i].into())
                                    .push(&format!("{metric}_stddev"), agg.stddev[i].into());
                            }
                            obj
                        })
                        .collect(),
                ),
            );
        }
        print!("{}", out.render());
        return;
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<40} {:>10} {:>10} {:>8} {:>8} {:>10} {:>10} {:>8} {:>9}",
        "point",
        "arrivals",
        "on_time",
        "late",
        "dropped",
        "slo_viol",
        "accuracy",
        "budget%",
        "max_burn"
    );
    // SLO error-budget columns: fraction of the (1 - slo_target) budget the
    // run consumed, and the worst fast-window burn rate (see loki_sim::burn).
    let burn_cols = |burn: Option<&loki_sim::BurnReport>| match burn {
        Some(b) => (
            format!("{:.1}", b.budget_consumed * 100.0),
            format!("{:.2}", b.worst_burn_rate),
        ),
        None => (String::from("-"), String::from("-")),
    };
    for point in &results {
        let s = &point.result.summary;
        let (budget, worst) = burn_cols(point.burn.as_ref());
        let _ = writeln!(
            out,
            "{:<40} {:>10} {:>10} {:>8} {:>8} {:>10.4} {:>10.4} {:>8} {:>9}",
            point.label,
            s.total_arrivals,
            s.total_on_time,
            s.total_late,
            s.total_dropped,
            s.slo_violation_ratio,
            s.system_accuracy,
            budget,
            worst
        );
        // Multi-pipeline points: one indented row per pipeline on the cluster.
        for lane in &point.per_pipeline {
            let s = &lane.summary;
            let (budget, worst) = burn_cols(lane.burn.as_ref());
            let _ = writeln!(
                out,
                "{:<40} {:>10} {:>10} {:>8} {:>8} {:>10.4} {:>10.4} {:>8} {:>9}",
                format!("  └ {}", lane.name),
                s.total_arrivals,
                s.total_on_time,
                s.total_late,
                s.total_dropped,
                s.slo_violation_ratio,
                s.system_accuracy,
                budget,
                worst
            );
        }
    }
    if multi_seed {
        let _ = writeln!(
            out,
            "\ncross-seed aggregates (mean ± stddev per axis point):"
        );
        let _ = writeln!(
            out,
            "{:<34} {:>7} {:>22} {:>22} {:>20}",
            "axis point", "seeds", "slo_viol", "accuracy", "on_time"
        );
        for agg in report::aggregate_sweep(&points, &results) {
            // SWEEP_METRICS indices: 0 = on_time, 6 = slo_violation_ratio,
            // 7 = system_accuracy (see report::SWEEP_METRICS for the full order).
            let _ = writeln!(
                out,
                "{:<34} {:>7} {:>12.4} ± {:>7.4} {:>12.4} ± {:>7.4} {:>11.1} ± {:>6.1}",
                agg.label,
                agg.seeds.len(),
                agg.mean[6],
                agg.stddev[6],
                agg.mean[7],
                agg.stddev[7],
                agg.mean[0],
                agg.stddev[0],
            );
        }
    }
    print!("{out}");
}

fn cmd_report(args: &[String]) {
    let flags = parse_flags(args);
    if flags.json || flags.csv {
        fail("report is always JSON; drop --json/--csv");
    }
    if flags.trace.is_some() {
        fail("--trace is only available for run");
    }
    if flags.timeline.is_some() {
        fail("--timeline is only available for run");
    }
    let mut out_path = "BENCH_sim.json".to_string();
    let mut skip_large = false;
    let mut skip_stress = false;
    let mut min_runs = 1usize;
    for arg in &flags.kv {
        let Some((key, value)) = arg.split_once('=') else {
            fail(&format!("expected key=value, got {arg:?}"));
        };
        match key {
            "out" => out_path = value.to_string(),
            "skip_large" => skip_large = value == "1" || value == "true",
            "skip_stress" => skip_stress = value == "1" || value == "true",
            // Fairness floor: every scenario runs at least this many times and
            // reports its best wall, so fast and slow configs get equal treatment.
            "runs" => match value.parse::<usize>() {
                Ok(n) if n >= 1 => min_runs = n,
                _ => fail(&format!("invalid runs value {value:?} (want a count >= 1)")),
            },
            _ => fail(&format!(
                "unknown report key {key:?} (known: out, runs, skip_large, skip_stress)"
            )),
        }
    }
    // Serial by default so per-scenario wall-clocks stay undistorted; --jobs opts in.
    let runner = if let Some(jobs) = flags.jobs {
        Runner::with_jobs(jobs)
    } else {
        Runner::serial()
    };
    // Engine lane threads used for the parallel leg of multi-pipeline entries.
    const PARALLEL_JOBS: usize = 4;
    let mut entries = Vec::new();
    for name in [
        "traffic_300qps_30s",
        "traffic_1m_arrivals",
        "traffic_hetnet",
        "multi_traffic_social",
        "multi_zipf_16",
        "elastic_diurnal",
        "spot_diurnal",
        "stress_diurnal_day",
    ] {
        if skip_large && name != "traffic_300qps_30s" {
            continue;
        }
        if skip_stress && name == "stress_diurnal_day" {
            continue;
        }
        let sc = lookup_scenario(name);
        let mut cfg = sc.config();
        cfg.runs = cfg.runs.max(min_runs);
        let runs = cfg.runs.max(1);
        if matches!(sc.kind, ScenarioKind::MultiPipeline(..)) {
            // Multi-pipeline scenarios exercise the sharded engine: time the same
            // point with one lane thread and with PARALLEL_JOBS. Summaries are
            // bit-identical across the two legs; only wall-clock differs.
            let mut serial_cfg = cfg.clone();
            serial_cfg.jobs = 1;
            let mut parallel_cfg = cfg.clone();
            parallel_cfg.jobs = PARALLEL_JOBS;
            eprintln!("running {name} ({runs} run(s), jobs=1)...");
            let serial = runner.run(vec![scenario::scenario_point(sc, &serial_cfg)]);
            eprintln!("running {name} ({runs} run(s), jobs={PARALLEL_JOBS})...");
            let parallel = runner.run(vec![scenario::scenario_point(sc, &parallel_cfg)]);
            let host_cores = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1);
            let mut entry = figures::throughput_entry_json(name, runs, &serial[0]);
            entry
                .push("serial_wall_s", serial[0].wall_s.into())
                .push("parallel_wall_s", parallel[0].wall_s.into())
                .push("jobs", PARALLEL_JOBS.into())
                .push(
                    "parallel_speedup",
                    (serial[0].wall_s / parallel[0].wall_s).into(),
                )
                .push("host_cores", host_cores.into());
            // On a single-core host lanes cannot run concurrently, so the
            // jobs>1 leg only demonstrates bit-identity; its wall-clock ratio
            // is scheduling noise, not a speedup measurement.
            if host_cores == 1 {
                eprintln!(
                    "note: single-core host; {name} parallel_speedup is identity-only \
                     (bit-identity check, not a performance measurement)"
                );
                entry.push(
                    "parallel_speedup_note",
                    "identity-only: single-core host, lanes cannot run concurrently".into(),
                );
            }
            entries.push(entry);
        } else {
            eprintln!("running {name} ({runs} run(s))...");
            let results = runner.run(vec![scenario::scenario_point(sc, &cfg)]);
            entries.push(figures::throughput_entry_json(name, runs, &results[0]));
        }
    }
    let mut json = Json::object();
    json.push("benchmark", "simulator_throughput".into())
        .push("scenarios", Json::Arr(entries));
    let rendered = json.render();
    if let Err(error) = std::fs::write(&out_path, &rendered) {
        fail(&format!("cannot write {out_path}: {error}"));
    }
    eprintln!("wrote {out_path}");
    print!("{rendered}");
}

fn emit(report: &ScenarioReport, json: bool) {
    if json {
        print!("{}", report.json.render());
    } else {
        print!("{}", report.text);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        None => {
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
        Some((command, rest)) => match command.as_str() {
            "list" => cmd_list(rest),
            "run" => cmd_run(rest),
            "sweep" => cmd_sweep(rest),
            "report" => cmd_report(rest),
            "help" | "--help" | "-h" => println!("{USAGE}"),
            other => fail(&format!("unknown command {other:?}")),
        },
    }
}
