//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one benchmark workload for about `--seconds` seconds from the
//! benchmark seed `--seed`, checks the simulated outputs, and prints every
//! metric by name and unit. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the end-to-end ones, measured without decorators; with
//! `--trace 1` they are the per-layer ones, from a traced run. The full
//! result, with the host and (traced runs) the recorded spans, is written to
//! `.bench_out/` in the working directory. Exits 1 when a check fails.

use loki_bench::report::Json;
use perfbench::check::{identical, outcome_conserves};
use perfbench::host::{peak_rss_mb, Host};
use perfbench::measure::{self, Metric, Pooled};
use perfbench::spans::SpanLog;
use perfbench::workload::{execute, Execution, Layers, Leg, Workload};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str =
    "usage: perfbench --workload <steady_1m|zipf16_shared|spot_observed> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .ok_or_else(|| bad("expected seconds"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// What one run measured and checked.
struct RunResult {
    metrics: Vec<Metric>,
    /// Simulated root queries of the run's distinct simulations.
    attempted: u64,
    /// Failed checks.
    errors: Vec<String>,
    executions: usize,
    spans: SpanLog,
}

/// The untraced run: cycle through the run's simulation seeds (one simulated
/// day each) until every seed ran, one seed ran again, and `seconds` have
/// passed. Every repeat must reproduce its seed's first outcome exactly.
fn plain_run(workload: Workload, seed: u64, seconds: f64, out_dir: &Path) -> RunResult {
    let seeds = perfbench::sim_seeds(seed, workload.seeds_per_run());
    let start = Instant::now();
    let mut by_day: Vec<Vec<Execution>> = vec![Vec::new(); seeds.len()];
    let mut executions = 0;
    let mut errors = Vec::new();
    let mut peak = None;
    while executions <= seeds.len() || start.elapsed().as_secs_f64() < seconds {
        let k = executions % seeds.len();
        let exec = execute(workload, seeds[k], Leg::Plain, Some(out_dir));
        if executions == 0 {
            // The peak of a process that ran the workload once, as a `loki
            // run` user's does; later executions add only allocator history.
            peak = peak_rss_mb();
        }
        errors.extend(outcome_conserves(&exec.outcome).err());
        if let Some(expected) = by_day[k].first() {
            let label = format!("seed {} repeat", seeds[k]);
            errors.extend(identical(&label, &expected.outcome, &exec.outcome).err());
        }
        by_day[k].push(exec);
        executions += 1;
    }
    println!(
        "wall_s {} s (median host wall time per execution, steal time included)",
        number(measure::median(by_day.iter().flatten().map(|e| e.wall_s)))
    );
    let mut pooled = Pooled::default();
    for day in &by_day {
        pooled.add(workload, &day[0].outcome);
    }
    let peak = peak.unwrap_or_else(|| {
        errors.push("peak RSS unavailable (no /proc/self/status)".to_string());
        0.0
    });
    RunResult {
        metrics: measure::end_to_end(&by_day, &pooled, peak),
        attempted: pooled.arrivals,
        errors,
        executions,
        spans: SpanLog::default(),
    }
}

/// The traced run: on the run's first simulation seed, interleave the
/// untraced leg, the traced leg, the traced sinks-off leg and — for a
/// workload with lanes — the traced `jobs=1` leg, rotating their order each
/// round, for at least three rounds and `seconds`. Every leg must reproduce
/// the traced outcome (less the sinks' output on the sinks-off leg).
fn traced_run(workload: Workload, seed: u64, seconds: f64, out_dir: &Path) -> RunResult {
    let sim_seed = perfbench::sim_seeds(seed, 1)[0];
    let mut legs = vec![Leg::Plain, Leg::Traced, Leg::SinksOff];
    if workload.has_lanes() {
        legs.push(Leg::Serial);
    }
    let mut by_leg: Vec<Vec<Execution>> = vec![Vec::new(); legs.len()];
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < 3 || start.elapsed().as_secs_f64() < seconds {
        for i in 0..legs.len() {
            let slot = (i + rounds) % legs.len();
            by_leg[slot].push(execute(workload, sim_seed, legs[slot], Some(out_dir)));
        }
        rounds += 1;
    }
    let [plain, traced, sinks_off, serial @ ..] = &by_leg[..] else {
        unreachable!("at least three legs")
    };
    let serial = serial.first().map_or(&[][..], Vec::as_slice);

    let mut errors = Vec::new();
    let reference = &traced[0].outcome;
    for (leg, execs) in legs.iter().zip(&by_leg) {
        for exec in execs {
            errors.extend(outcome_conserves(&exec.outcome).err());
            let label = format!("{leg:?} leg against the traced run");
            let check = if *leg == Leg::SinksOff {
                identical(
                    &label,
                    &reference.without_sinks(),
                    &exec.outcome.without_sinks(),
                )
            } else {
                identical(&label, reference, &exec.outcome)
            };
            errors.extend(check.err());
        }
    }
    // Spans of one simulation per traced leg, kept in memory until the end.
    let mut spans = SpanLog::default();
    for (sim, exec) in [&traced[0], &sinks_off[0]]
        .into_iter()
        .chain(serial.first())
        .enumerate()
    {
        record_spans(&mut spans, sim as u32, exec);
    }
    // Every decorated call must nest inside its engine run.
    let nested = |l: &Layers| {
        [&l.plan, &l.routing, &l.partition, &l.decide]
            .iter()
            .flat_map(|log| &log.intervals)
            .all(|&(start, end)| l.engine.0 <= start && end <= l.engine.1)
    };
    if !by_leg
        .iter()
        .flatten()
        .filter_map(|e| e.layers.as_ref())
        .all(nested)
    {
        errors.push("a decorated call lies outside its engine run".to_string());
    }
    RunResult {
        metrics: measure::per_layer(plain, traced, sinks_off, serial),
        attempted: reference.summary.total_arrivals,
        errors,
        executions: by_leg.iter().map(Vec::len).sum(),
        spans,
    }
}

/// Record the spans of one traced execution: the run, its set-up (with the
/// workload generation inside), the engine run (with every decorated call
/// inside) and the report.
fn record_spans(log: &mut SpanLog, sim: u32, exec: &Execution) {
    let Some(l) = &exec.layers else { return };
    let root = log.push(sim, None, "run", l.root);
    let setup = log.push(sim, Some(root), "setup", l.setup);
    log.push(sim, Some(setup), "workload", l.workload);
    let engine = log.push(sim, Some(root), "engine", l.engine);
    for (name, calls) in [
        ("controller.plan", &l.plan),
        ("controller.routing", &l.routing),
        ("arbiter.partition", &l.partition),
        ("provisioner.decide", &l.decide),
    ] {
        for &interval in &calls.intervals {
            log.push(sim, Some(engine), name, interval);
        }
    }
    log.push(sim, Some(root), "report", l.report);
}

/// Format a value with all its digits (shortest round-trip form).
fn number(value: f64) -> String {
    format!("{value:?}")
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let metrics: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root = Path::new(".");
    let out_dir = root.join(".bench_out");
    if let Err(err) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: cannot create {}: {err}", out_dir.display());
        return ExitCode::from(2);
    }
    let host = Host::probe(root);
    let name = args.workload.name();
    println!(
        "perfbench workload={name} seed={} seconds={} trace={}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "host cores={} cpu={:?} rustc={:?} git={}",
        host.cores, host.cpu_model, host.rustc, host.git_revision
    );

    let start = Instant::now();
    let mut run = if args.trace {
        traced_run(args.workload, args.seed, args.seconds, &out_dir)
    } else {
        plain_run(args.workload, args.seed, args.seconds, &out_dir)
    };
    let elapsed_s = start.elapsed().as_secs_f64();
    for m in &run.metrics {
        if !m.value.is_finite() {
            run.errors.push(format!("{} is not finite", m.name));
        }
    }
    let correct = run.errors.is_empty();
    // Late and dropped queries are modelled outcomes, reported as
    // `slo_violation_ratio`; a query fails when its simulation fails a check.
    let failed = if correct { 0 } else { run.attempted };
    for err in &run.errors {
        eprintln!("perfbench: check failed: {err}");
    }
    println!("executions {} in {elapsed_s:.1} s", run.executions);
    for m in &run.metrics {
        println!("{:<36} {:>18} {}", m.name, number(m.value), m.unit);
    }

    let mut report = Json::object();
    let mut metrics = Json::object();
    for m in &run.metrics {
        let mut entry = Json::object();
        entry
            .push("value", m.value.into())
            .push("unit", m.unit.into());
        metrics.push(m.name, entry);
    }
    report
        .push("workload", name.into())
        .push("seed", args.seed.into())
        .push("seconds", args.seconds.into())
        .push("trace", args.trace.into())
        .push("host", host.to_json())
        .push("executions", run.executions.into())
        .push("elapsed_s", elapsed_s.into())
        .push("correct", correct.into())
        .push("attempted", run.attempted.into())
        .push("failed", failed.into())
        .push(
            "errors",
            Json::Arr(run.errors.iter().map(|e| e.as_str().into()).collect()),
        )
        .push("metrics", metrics)
        .push("spans", run.spans.to_json());
    let path = out_dir.join(format!(
        "{name}-seed{}-trace{}.json",
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(err) = std::fs::write(&path, report.render()) {
        eprintln!("perfbench: cannot write {}: {err}", path.display());
    }

    println!(
        "{}",
        result_line(correct, run.attempted, failed, &run.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
