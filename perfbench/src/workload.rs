//! The benchmark's workloads, and one timed execution of a workload: set-up,
//! engine run and report, driven only through the workspace's public APIs.
//!
//! An execution mirrors what `loki run <scenario>` does for the scenario's
//! canonical point (Loki-greedy controllers, default drop policy), split at
//! the layer boundaries so each part can be timed from here.

use crate::host::process_cpu_ns;
use crate::spans::{duration_ns, Clock, Interval};
use crate::timed::{CallLog, TimedArbiter, TimedController, TimedPolicy};
use loki_bench::figures::summary_json;
use loki_bench::scenario::{self, AnyController, MultiSpec, MultiStats, PipelineSummary};
use loki_bench::scenario::{PointResult, RunPoint, Scenario};
use loki_bench::{timeline, ElasticMode, ExperimentConfig};
use loki_core::ControllerStats;
use loki_sim::{
    analyze_burn, BurnConfig, Controller, CostSummary, Histogram, IntervalMetrics, MultiPipeline,
    MultiSimConfig, MultiSimResult, MultiSimulation, RunSummary, Simulation,
};
use loki_workload::{generate_arrivals, ArrivalProcess, Trace};
use std::path::Path;

/// A named benchmark workload: one registered scenario point plus the knobs
/// the workload fixes on top of the scenario's defaults.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `traffic_1m_arrivals`: constant 2000 QPS on 100 fixed workers, about
    /// one million arrivals, default sinks (latency histograms on).
    Steady1m,
    /// `multi_zipf_16`: 16 Zipf-popularity tenants on 64 shared workers
    /// under the contended Resource Manager, lanes on two threads (on one in
    /// the end-to-end leg).
    Zipf16Shared,
    /// `spot_diurnal`: an autoscaled spot fleet over a diurnal day, with
    /// every observation sink on and the timeline export written.
    SpotObserved,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Steady1m,
        Workload::Zipf16Shared,
        Workload::SpotObserved,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Steady1m => "steady_1m",
            Workload::Zipf16Shared => "zipf16_shared",
            Workload::SpotObserved => "spot_observed",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn scenario(self) -> &'static Scenario {
        let name = match self {
            Workload::Steady1m => "traffic_1m_arrivals",
            Workload::Zipf16Shared => "multi_zipf_16",
            Workload::SpotObserved => "spot_diurnal",
        };
        scenario::find(name).expect("the workload's scenario is registered")
    }

    /// Simulated days (simulation seeds) one run pools. Simulated metrics
    /// vary from seed to seed, the p999 tail most, so a run reports them
    /// over many independent days of the point.
    pub fn seeds_per_run(self) -> usize {
        match self {
            Workload::Steady1m => 8,
            Workload::Zipf16Shared => 96,
            Workload::SpotObserved => 48,
        }
    }

    /// Whether the workload serves several pipelines whose lanes can run on
    /// separate threads.
    pub fn has_lanes(self) -> bool {
        self.scenario().multi_spec().is_some()
    }

    /// The workload's configuration for one simulation seed and leg.
    pub fn config(self, seed: u64, leg: Leg) -> ExperimentConfig {
        let mut cfg = self.scenario().config();
        cfg.seed = seed;
        match self {
            Workload::Steady1m => {}
            Workload::Zipf16Shared => cfg.jobs = 2,
            Workload::SpotObserved => {
                cfg.trace_sample = 100;
                cfg.timeline = true;
                cfg.profile = true;
                cfg.hist = true;
            }
        }
        match leg {
            Leg::Traced => {}
            Leg::SinksOff => {
                cfg.trace_sample = 0;
                cfg.timeline = false;
                cfg.profile = false;
                cfg.hist = false;
            }
            Leg::Plain | Leg::Serial => cfg.jobs = 1,
        }
        cfg
    }

    /// Fleet cost of one simulated run in dollars: the simulator's billing on
    /// an elastic fleet; on a fixed fleet, which the simulator does not bill,
    /// the fleet's size rented at its class's hourly price for the simulated
    /// duration.
    pub fn cost_usd(self, outcome: &Outcome) -> f64 {
        match &outcome.cost {
            Some(cost) => cost.total_dollars,
            None => {
                let cfg = self.scenario().config();
                let price = loki_bench::fleet_catalog(&cfg).classes[0].price_per_hour;
                cfg.cluster_size as f64 * price * outcome.summary.duration_s / 3600.0
            }
        }
    }
}

/// Which variant of a workload one execution runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Leg {
    /// The workload with no decorators and every lane on the calling thread
    /// (`jobs=1`): the end-to-end measurement. Its host metrics are CPU
    /// time, which a second lane thread cannot shorten; on a shared virtual
    /// machine two threads' CPU time also grew with the host's load while
    /// one thread's did not (see `README.md`).
    Plain,
    /// The workload with a timing decorator around every layer.
    Traced,
    /// Traced, with every observation sink off.
    SinksOff,
    /// Traced, with every lane on the calling thread (`jobs=1`).
    Serial,
}

impl Leg {
    pub fn traced(self) -> bool {
        self != Leg::Plain
    }
}

/// Everything simulated that an execution produces: it must repeat exactly
/// for a seed, whatever the leg's host-side settings.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    /// The whole-run summary (the cluster aggregate for multi-pipeline runs).
    pub summary: RunSummary,
    /// Per-pipeline summaries (empty for single-pipeline runs).
    pub lanes: Vec<RunSummary>,
    pub intervals: Vec<IntervalMetrics>,
    /// Fleet billing (elastic runs only).
    pub cost: Option<CostSummary>,
    /// End-to-end latency of served queries (latency histograms on only).
    pub e2e: Option<Histogram>,
    pub rebalances: u64,
    pub migrations: u64,
    /// FNV-1a digest of the emitted report bytes (summary JSON, and the
    /// timeline export when the workload writes it).
    pub report_digest: u64,
}

impl Outcome {
    /// The outcome less what the observation sinks produce: what a run with
    /// every sink off must reproduce exactly.
    pub fn without_sinks(&self) -> Outcome {
        let strip = |s: &RunSummary| RunSummary {
            p50_ms: 0.0,
            p90_ms: 0.0,
            p99_ms: 0.0,
            p999_ms: 0.0,
            ..s.clone()
        };
        Outcome {
            summary: strip(&self.summary),
            lanes: self.lanes.iter().map(strip).collect(),
            e2e: None,
            report_digest: 0,
            ..self.clone()
        }
    }
}

/// Host-time intervals and call logs of a traced execution.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    /// The whole execution: set-up, engine run and report.
    pub root: Interval,
    /// Graph, trace, arrivals, controllers and `Simulation::new`.
    pub setup: Interval,
    /// Trace build and arrival generation, inside `setup`.
    pub workload: Interval,
    /// The engine's run call.
    pub engine: Interval,
    /// Burn analysis, summary JSON and timeline export.
    pub report: Interval,
    /// Controller calls of every pipeline, inside `engine`.
    pub plan: CallLog,
    pub routing: CallLog,
    /// Arbiter calls (multi-pipeline runs), inside `engine`.
    pub partition: CallLog,
    /// Provisioner calls (elastic runs), inside `engine`.
    pub decide: CallLog,
}

/// One timed execution of a workload.
#[derive(Clone, Debug)]
pub struct Execution {
    pub outcome: Outcome,
    /// Root queries generated (all pipelines).
    pub arrivals: u64,
    /// Discrete events the engine processed.
    pub events: u64,
    /// The engine's run call.
    pub run_s: f64,
    /// Set-up plus engine run plus report.
    pub wall_s: f64,
    /// Process CPU time, every thread, of the set-up, of the engine's run
    /// call, and of set-up plus run plus report.
    pub cpu_setup_s: f64,
    pub cpu_run_s: f64,
    pub cpu_s: f64,
    pub report_bytes: u64,
    /// Spans of the sampled query traces.
    pub trace_spans: u64,
    /// Events of the cluster journal.
    pub journal_events: u64,
    /// Per-lane `(lane_wall_s, barrier_wait_s)`; a single-pipeline run is
    /// one lane whose wall time is the engine run call.
    pub lane_walls: Vec<(f64, f64)>,
    /// Routing-table cache `(consults, hits)` summed over controllers.
    pub routing_cache: (u64, u64),
    /// Layer intervals and call logs (traced legs only).
    pub layers: Option<Layers>,
}

/// The controller type an execution runs: the program's own, or the same
/// wrapped in a timing decorator.
trait Probe: Controller + Sized {
    const TRACED: bool;
    fn wrap(controller: AnyController, clock: Clock) -> Self;
    fn stats(&self) -> Option<&ControllerStats>;
    fn logs(self) -> Option<(CallLog, CallLog)>;
}

impl Probe for AnyController {
    const TRACED: bool = false;

    fn wrap(controller: AnyController, _clock: Clock) -> Self {
        controller
    }

    fn stats(&self) -> Option<&ControllerStats> {
        self.controller_stats()
    }

    fn logs(self) -> Option<(CallLog, CallLog)> {
        None
    }
}

impl Probe for TimedController<AnyController> {
    const TRACED: bool = true;

    fn wrap(controller: AnyController, clock: Clock) -> Self {
        TimedController::new(controller, clock)
    }

    fn stats(&self) -> Option<&ControllerStats> {
        self.inner().controller_stats()
    }

    fn logs(self) -> Option<(CallLog, CallLog)> {
        Some((self.plan, self.routing))
    }
}

/// Run one execution of `workload` at `seed`. When `out_dir` is given, a
/// workload that exports its timeline writes it there.
pub fn execute(workload: Workload, seed: u64, leg: Leg, out_dir: Option<&Path>) -> Execution {
    let cfg = workload.config(seed, leg);
    let point = scenario::scenario_point(workload.scenario(), &cfg);
    let out_dir = out_dir.filter(|_| cfg.timeline);
    match (&point.multi, leg.traced()) {
        (None, false) => run_single::<AnyController>(&point, out_dir),
        (None, true) => run_single::<TimedController<AnyController>>(&point, out_dir),
        (Some(spec), false) => run_multi::<AnyController>(&point, spec, out_dir),
        (Some(spec), true) => run_multi::<TimedController<AnyController>>(&point, spec, out_dir),
    }
}

/// Clock readings at the layer boundaries of one execution.
struct Marks {
    start: u64,
    /// Trace build and arrival generation, inside set-up.
    workload: Interval,
    setup_end: u64,
    engine_end: u64,
    end: u64,
    /// Process CPU time at `start`, `setup_end`, `engine_end` and `end`.
    cpu: [u64; 4],
}

fn run_single<P: Probe>(point: &RunPoint, out_dir: Option<&Path>) -> Execution {
    let clock = Clock::start();
    let cfg = &point.cfg;
    let start = clock.now_ns();
    let cpu_start = process_cpu_ns();
    let graph = point.pipeline.build(cfg.slo_ms);
    let workload_start = clock.now_ns();
    let trace = point.build_trace();
    let arrivals = generate_arrivals(&trace, ArrivalProcess::Poisson, cfg.seed);
    let workload_end = clock.now_ns();
    let links = cfg.links.to_model();
    let mut config = loki_bench::sim_config(cfg, &trace);
    config.elastic = loki_bench::elastic_sim_config(cfg, graph.num_tasks(), trace.mean_qps());
    let interval_s = config.metrics_interval_s;
    let controller = P::wrap(
        point
            .controller
            .build(&graph, point.drop_policy, &links, cfg.route),
        clock,
    );
    let policy = (cfg.elastic == ElasticMode::Autoscale)
        .then(|| loki_bench::provisioner_policy(cfg, graph.num_tasks(), trace.mean_qps()));
    let mut sim = Simulation::new(&graph, config, controller);
    let setup_end = clock.now_ns();
    let cpu_setup_end = process_cpu_ns();

    let (result, decide) = match (policy, P::TRACED) {
        (Some(policy), true) => {
            let mut timed = TimedPolicy::new(policy, clock);
            let result = sim.run_elastic(&arrivals, &mut timed);
            (result, timed.decide)
        }
        (Some(mut policy), false) => (sim.run_elastic(&arrivals, &mut *policy), CallLog::default()),
        (None, _) => (sim.run(&arrivals), CallLog::default()),
    };
    let engine_end = clock.now_ns();
    let cpu_engine_end = process_cpu_ns();

    let controller = sim.into_controller();
    let routing_cache = cache_counts(controller.stats());
    let burn = analyze_burn(
        &result.intervals,
        interval_s,
        result.journal.as_ref(),
        &BurnConfig::default(),
    );
    let point_result = PointResult {
        label: point.label.clone(),
        cost: result.cost.clone(),
        result,
        wall_s: duration_ns((setup_end, engine_end)) as f64 * 1e-9,
        arrivals: arrivals.len(),
        controller_stats: controller.stats().cloned(),
        per_pipeline: Vec::new(),
        multi_stats: None,
        burn: Some(burn),
    };
    let report = emit_report(&point_result, out_dir);
    let marks = Marks {
        start,
        workload: (workload_start, workload_end),
        setup_end,
        engine_end,
        end: clock.now_ns(),
        cpu: [cpu_start, cpu_setup_end, cpu_engine_end, process_cpu_ns()],
    };

    let layers = controller.logs().map(|(plan, routing)| Layers {
        plan,
        routing,
        decide,
        ..Layers::default()
    });
    // One lane, run on the calling thread, that never waits at a barrier.
    let lane_walls = vec![(duration_ns((setup_end, engine_end)) as f64 * 1e-9, 0.0)];
    finish(
        point_result,
        &marks,
        report,
        routing_cache,
        lane_walls,
        layers,
    )
}

fn run_multi<P: Probe>(point: &RunPoint, spec: &MultiSpec, out_dir: Option<&Path>) -> Execution {
    let clock = Clock::start();
    let cfg = &point.cfg;
    let start = clock.now_ns();
    let cpu_start = process_cpu_ns();
    let graphs: Vec<_> = spec
        .lanes
        .iter()
        .map(|lane| lane.pipeline.build(cfg.slo_ms * lane.slo_scale))
        .collect();
    let workload_start = clock.now_ns();
    let traces: Vec<Trace> = spec
        .lanes
        .iter()
        .map(|lane| {
            lane.trace.build(
                loki_bench::trace_seed(lane.trace, cfg.seed),
                cfg.duration_s,
                cfg.base_qps * lane.demand_share,
                cfg.peak_qps * lane.demand_share,
            )
        })
        .collect();
    // Lane 0 keeps the experiment seed; later lanes perturb it, as the
    // harness does, so co-served frontends do not share an arrival pattern.
    let arrivals: Vec<Vec<f64>> = traces
        .iter()
        .enumerate()
        .map(|(i, trace)| {
            generate_arrivals(
                trace,
                ArrivalProcess::Poisson,
                cfg.seed.wrapping_add(i as u64 * 7919),
            )
        })
        .collect();
    let workload_end = clock.now_ns();
    let total_arrivals: usize = arrivals.iter().map(Vec::len).sum();
    let offered: Vec<f64> = traces.iter().map(Trace::mean_qps).collect();
    let total_tasks: usize = graphs.iter().map(|g| g.num_tasks()).sum();
    let offered_total: f64 = offered.iter().sum();
    let links = cfg.links.to_model();
    let mut config = loki_bench::sim_config(cfg, &traces[0]);
    config.initial_demand_hint = None;
    config.elastic = loki_bench::elastic_sim_config(cfg, total_tasks, offered_total);
    let mut sim: MultiSimulation<'_, P> = MultiSimulation::new(MultiSimConfig {
        sim: config,
        jobs: cfg.jobs.max(1),
    });
    for (((lane, graph), trace), lane_arrivals) in
        spec.lanes.iter().zip(&graphs).zip(&traces).zip(arrivals)
    {
        sim.add_pipeline(MultiPipeline {
            name: lane.name.clone(),
            graph,
            controller: P::wrap(
                point
                    .controller
                    .build(graph, point.drop_policy, &links, cfg.route),
                clock,
            ),
            arrivals_s: lane_arrivals,
            initial_demand_hint: Some(trace.qps_at(0).max(1.0)),
        });
    }
    let arbiter = spec.mode.arbiter(&offered);
    let policy = (cfg.elastic == ElasticMode::Autoscale)
        .then(|| loki_bench::provisioner_policy(cfg, total_tasks, offered_total));
    let setup_end = clock.now_ns();
    let cpu_setup_end = process_cpu_ns();

    let (outcome, partition, decide) = if P::TRACED {
        let mut arbiter = TimedArbiter::new(arbiter, clock);
        let mut policy = policy.map(|p| TimedPolicy::new(p, clock));
        let outcome = match policy.as_mut() {
            Some(policy) => sim.run_elastic(&mut arbiter, policy),
            None => sim.run(&mut arbiter),
        };
        let decide = policy.map(|p| p.decide).unwrap_or_default();
        (outcome, arbiter.partition, decide)
    } else {
        let mut arbiter = arbiter;
        let outcome = match policy {
            Some(mut policy) => sim.run_elastic(&mut *arbiter, &mut *policy),
            None => sim.run(&mut *arbiter),
        };
        (outcome, CallLog::default(), CallLog::default())
    };
    let engine_end = clock.now_ns();
    let cpu_engine_end = process_cpu_ns();

    let controllers: Vec<P> = sim
        .into_pipelines()
        .into_iter()
        .map(|p| p.controller)
        .collect();
    let point_result = multi_point_result(
        point,
        &outcome,
        &controllers,
        total_arrivals,
        duration_ns((setup_end, engine_end)) as f64 * 1e-9,
    );
    let report = emit_report(&point_result, out_dir);
    let marks = Marks {
        start,
        workload: (workload_start, workload_end),
        setup_end,
        engine_end,
        end: clock.now_ns(),
        cpu: [cpu_start, cpu_setup_end, cpu_engine_end, process_cpu_ns()],
    };

    let routing_cache = controllers
        .iter()
        .map(|c| cache_counts(c.stats()))
        .fold((0, 0), |(a, b), (c, d)| (a + c, b + d));
    let lane_walls = outcome
        .pipelines
        .iter()
        .map(|p| (p.lane_wall_s, p.barrier_wait_s))
        .collect();
    let mut layers = P::TRACED.then(|| Layers {
        partition,
        decide,
        ..Layers::default()
    });
    for (plan, routing) in controllers.into_iter().filter_map(Probe::logs) {
        let layers = layers
            .as_mut()
            .expect("traced controllers imply traced layers");
        layers.plan.absorb(plan);
        layers.routing.absorb(routing);
    }
    let mut execution = finish(
        point_result,
        &marks,
        report,
        routing_cache,
        lane_walls,
        layers,
    );
    execution.events = outcome.total_events;
    execution.outcome.rebalances = outcome.rebalances;
    execution.outcome.migrations = outcome.migrations;
    execution.outcome.lanes = outcome
        .pipelines
        .iter()
        .map(|p| p.result.summary.clone())
        .collect();
    execution
}

/// The harness's view of a multi-pipeline run: the cluster aggregate plus
/// each lane's summary and burn analysis against the shared journal.
fn multi_point_result<P: Probe>(
    point: &RunPoint,
    outcome: &MultiSimResult,
    controllers: &[P],
    arrivals: usize,
    wall_s: f64,
) -> PointResult {
    let result = outcome.aggregate(point.cfg.cluster_size);
    let interval_s = outcome.metrics_interval_s;
    let burn = |intervals: &[IntervalMetrics]| {
        analyze_burn(
            intervals,
            interval_s,
            outcome.journal.as_ref(),
            &BurnConfig::default(),
        )
    };
    PointResult {
        label: point.label.clone(),
        cost: outcome.cost.clone(),
        burn: Some(burn(&result.intervals)),
        result,
        wall_s,
        arrivals,
        controller_stats: None,
        per_pipeline: outcome
            .pipelines
            .iter()
            .zip(controllers)
            .map(|(p, controller)| PipelineSummary {
                name: p.name.clone(),
                summary: p.result.summary.clone(),
                lane_wall_s: p.lane_wall_s,
                barrier_wait_s: p.barrier_wait_s,
                controller_stats: controller.stats().cloned(),
                profile: p.result.profile,
                intervals: p.result.intervals.clone(),
                window: p.result.window.clone(),
                burn: Some(burn(&p.result.intervals)),
            })
            .collect(),
        multi_stats: Some(MultiStats {
            arbiter: outcome.arbiter.clone(),
            rebalances: outcome.rebalances,
            migrations: outcome.migrations,
        }),
    }
}

impl CallLog {
    /// Append another log's calls (the same method on another pipeline).
    fn absorb(&mut self, other: CallLog) {
        self.calls += other.calls;
        self.emitted += other.emitted;
        self.intervals.extend(other.intervals);
    }
}

fn cache_counts(stats: Option<&ControllerStats>) -> (u64, u64) {
    stats.map_or((0, 0), |s| {
        (s.routing_cache_consults as u64, s.routing_cache_hits as u64)
    })
}

/// Emit what a `loki run` user receives: the summary JSON of the run and of
/// each pipeline, and — when `out_dir` is given — the timeline export (JSON
/// and CSV) written there. Returns the bytes emitted and their digest.
fn emit_report(point: &PointResult, out_dir: Option<&Path>) -> (u64, u64) {
    let mut texts = vec![summary_json(&point.result.summary).render()];
    texts.extend(
        point
            .per_pipeline
            .iter()
            .map(|lane| summary_json(&lane.summary).render()),
    );
    if let Some(dir) = out_dir {
        let json = timeline::timeline_json(&point.label, point);
        let csv = timeline::timeline_csv(point);
        for (ext, text) in [("json", &json), ("csv", &csv)] {
            let path = dir.join(format!("{}.timeline.{ext}", point.label));
            std::fs::write(&path, text)
                .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        }
        texts.push(json);
        texts.push(csv);
    }
    let bytes = texts.iter().map(|t| t.len() as u64).sum();
    (bytes, fnv1a(texts.iter().map(String::as_bytes)))
}

/// FNV-1a over a sequence of byte strings.
fn fnv1a<'a>(parts: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for part in parts {
        for &byte in part {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

fn finish(
    point: PointResult,
    marks: &Marks,
    (report_bytes, report_digest): (u64, u64),
    routing_cache: (u64, u64),
    lane_walls: Vec<(f64, f64)>,
    layers: Option<Layers>,
) -> Execution {
    let secs = |interval: Interval| duration_ns(interval) as f64 * 1e-9;
    let result = point.result;
    Execution {
        arrivals: point.arrivals as u64,
        events: result.summary.events_processed,
        run_s: secs((marks.setup_end, marks.engine_end)),
        wall_s: secs((marks.start, marks.end)),
        cpu_setup_s: secs((marks.cpu[0], marks.cpu[1])),
        cpu_run_s: secs((marks.cpu[1], marks.cpu[2])),
        cpu_s: secs((marks.cpu[0], marks.cpu[3])),
        report_bytes,
        trace_spans: result.trace.as_ref().map_or(0, |t| t.num_spans() as u64),
        journal_events: result.journal.as_ref().map_or(0, |j| j.len() as u64),
        lane_walls,
        routing_cache,
        layers: layers.map(|layers| Layers {
            root: (marks.start, marks.end),
            setup: (marks.start, marks.setup_end),
            workload: marks.workload,
            engine: (marks.setup_end, marks.engine_end),
            report: (marks.engine_end, marks.end),
            ..layers
        }),
        outcome: Outcome {
            e2e: result.latency.map(|l| l.e2e),
            summary: result.summary,
            lanes: Vec::new(),
            intervals: result.intervals,
            cost: point.cost,
            rebalances: 0,
            migrations: 0,
            report_digest,
        },
    }
}
