//! Multi-pipeline serving on one shared cluster.
//!
//! The paper's evaluation serves one pipeline per cluster and names contended
//! multi-pipeline serving as future work (Section 7). This module supplies the
//! missing cluster level: a [`MultiSimulation`] drives several pipelines — each
//! with its own frontend (arrival stream), controller, routing tables, metrics,
//! and latency budgets — through one engine run over one shared worker fleet
//! and one event scheduler, and a [`ResourceArbiter`] decides how the fleet is
//! *partitioned* across the pipelines. Each pipeline's controller only ever
//! sees its partition (a capacity-scoped [`crate::ObservedState`] whose
//! `cluster_size` is the partition size), so the per-pipeline Loki planner
//! runs unchanged underneath the arbiter.
//!
//! The arbiter policy lives above this crate (the demand/SLO-weighted
//! `ResourceManager` in `loki-core` implements [`ResourceArbiter`]);
//! [`StaticPartition`] provides the fixed-share baselines (even split, oracle
//! split) the contended manager is evaluated against.

use crate::elastic::ElasticPolicy;
use crate::engine::{Engine, EngineError, LaneInput, SimResult};
use crate::metrics::{CostSummary, IntervalMetrics, RunSummary};
use crate::types::{Controller, SimConfig};
use loki_pipeline::PipelineGraph;

/// What a [`ResourceArbiter`] observes at each rebalance tick. All slices are
/// indexed by pipeline, in registration order.
#[derive(Debug, Clone)]
pub struct ArbiterObservation<'a> {
    /// Current simulated time in seconds.
    pub now_s: f64,
    /// Total workers in the shared cluster.
    pub cluster_size: usize,
    /// Current partition: workers owned per pipeline (may sum to less than
    /// `cluster_size` when workers sit in the free pool).
    pub partition: &'a [usize],
    /// Per-pipeline demand estimates (QPS) — the same provisioning estimates
    /// the pipelines' own controllers compute, or the initial demand hints at
    /// time zero.
    pub demand_qps: &'a [f64],
    /// Per-pipeline end-to-end latency SLOs (ms).
    pub slo_ms: &'a [f64],
    /// Per-pipeline task counts — the minimum viable footprint of a pipeline
    /// (one worker per task), below which a grant serves nothing.
    pub num_tasks: &'a [usize],
    /// Per-pipeline total queued queries across the partition (a pressure
    /// signal demand estimates lag behind).
    pub queued: &'a [usize],
}

/// A cluster-level resource arbiter: owns the worker fleet and decides how
/// many workers each registered pipeline holds. The engine invokes it once
/// before the first event (with demand hints) and then at every rebalance
/// tick; worker moves it requests become scheduled events (queue drain,
/// model-unload cooldown) rather than instantaneous teleports.
pub trait ResourceArbiter {
    /// Name used in reports.
    fn name(&self) -> &str;

    /// Seconds between rebalance ticks (the arbiter's epoch length).
    fn rebalance_interval_s(&self) -> f64 {
        10.0
    }

    /// Desired worker counts per pipeline, or `None` to keep the current
    /// partition. Entries must match the pipeline count; the engine trims
    /// over-subscribed targets to the physical cluster.
    fn partition(&mut self, observation: &ArbiterObservation<'_>) -> Option<Vec<usize>>;

    /// A short label for *why* the last [`ResourceArbiter::partition`] call
    /// returned the target it did, journaled with the rebalance event when
    /// `observe.timeline` is on. Purely observational — defaulted to `None`
    /// so existing arbiters need no change.
    fn decision_reason(&self) -> Option<&'static str> {
        None
    }
}

/// Largest-remainder apportionment of `total` workers over non-negative
/// `weights`. Zero-weight entries get zero workers; an all-zero weight vector
/// falls back to an even split. Deterministic: remainder ties go to the lower
/// index.
pub fn apportion(weights: &[f64], total: usize) -> Vec<usize> {
    if weights.is_empty() {
        return Vec::new();
    }
    let sum: f64 = weights.iter().filter(|w| w.is_finite() && **w > 0.0).sum();
    if sum <= 0.0 {
        let even = vec![1.0; weights.len()];
        return apportion(&even, total);
    }
    let mut counts = Vec::with_capacity(weights.len());
    let mut remainders: Vec<(usize, f64)> = Vec::with_capacity(weights.len());
    let mut assigned = 0usize;
    for (i, &w) in weights.iter().enumerate() {
        let w = if w.is_finite() && w > 0.0 { w } else { 0.0 };
        let quota = total as f64 * w / sum;
        let floor = quota as usize;
        counts.push(floor);
        assigned += floor;
        // Zero-weight pipelines never receive remainder workers.
        remainders.push((i, if w > 0.0 { quota - floor as f64 } else { -1.0 }));
    }
    // Hand the leftover workers to the largest fractional remainders.
    remainders.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    let mut leftover = total.saturating_sub(assigned);
    for (i, remainder) in remainders {
        if leftover == 0 {
            break;
        }
        if remainder < 0.0 {
            continue;
        }
        counts[i] += 1;
        leftover -= 1;
    }
    counts
}

/// A fixed-share arbiter: partitions the cluster proportionally to static
/// shares once and never moves a worker again. `even` is the naive 50/50
/// baseline; `with_shares` with the true offered loads is the oracle split.
#[derive(Debug, Clone)]
pub struct StaticPartition {
    label: String,
    shares: Vec<f64>,
}

impl StaticPartition {
    /// An even split across `pipelines`.
    pub fn even(pipelines: usize) -> Self {
        Self {
            label: "static-even".to_string(),
            shares: vec![1.0; pipelines],
        }
    }

    /// A split proportional to `shares` (e.g. the known offered load per
    /// pipeline — the oracle the contended manager is compared against).
    pub fn with_shares(label: impl Into<String>, shares: Vec<f64>) -> Self {
        Self {
            label: label.into(),
            shares,
        }
    }
}

impl ResourceArbiter for StaticPartition {
    fn name(&self) -> &str {
        &self.label
    }

    fn partition(&mut self, observation: &ArbiterObservation<'_>) -> Option<Vec<usize>> {
        let target = apportion(&self.shares, observation.cluster_size);
        // Static: after the initial grant the target always matches the
        // current partition, and the engine treats a no-op target as "keep".
        (target != observation.partition).then_some(target)
    }
}

/// One pipeline registered with a [`MultiSimulation`]: its graph, controller,
/// arrival trace, and initial demand hint (the multi-pipeline analogue of
/// [`SimConfig::initial_demand_hint`]).
///
/// Generic over the controller type so callers that need the controller back
/// after the run (e.g. to read its runtime statistics through
/// [`MultiSimulation::into_pipelines`]) can register a concrete type; the
/// default `Box<dyn Controller>` keeps heterogeneous registrations working.
pub struct MultiPipeline<'a, C: Controller + 'a = Box<dyn Controller + 'a>> {
    /// Label used in per-pipeline results and reports.
    pub name: String,
    /// The pipeline to serve.
    pub graph: &'a PipelineGraph,
    /// The pipeline's serving controller (it only ever sees the pipeline's
    /// partition of the cluster).
    pub controller: C,
    /// Root-query arrival times in seconds: finite, non-negative and
    /// non-decreasing (a run rejects any other trace with
    /// [`EngineError::InvalidArrivals`]). The engine borrows this trace; it
    /// never copies it.
    pub arrivals_s: Vec<f64>,
    /// Demand hint handed to the controller at its first control tick and to
    /// the arbiter for the initial partition.
    pub initial_demand_hint: Option<f64>,
}

/// One pipeline's outcome within a multi-pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineResult {
    /// The pipeline's registration label.
    pub name: String,
    /// The pipeline's per-interval metrics and whole-run summary. Interval
    /// `cluster_size` is the pipeline's partition size at the interval end, so
    /// utilization is measured against granted capacity.
    pub result: SimResult,
    /// Wall-clock seconds this pipeline's execution shard spent processing
    /// events (host time, not simulated time — excluded from determinism
    /// comparisons).
    pub lane_wall_s: f64,
    /// Estimated wall-clock seconds this shard spent waiting on slower shards
    /// at epoch barriers (zero when the shard was the epoch's slowest; a load
    /// imbalance signal for the sharded parallel engine).
    pub barrier_wait_s: f64,
}

/// The outcome of a multi-pipeline run.
#[derive(Debug, Clone)]
pub struct MultiSimResult {
    /// Per-pipeline results, in registration order.
    pub pipelines: Vec<PipelineResult>,
    /// The arbiter that partitioned the cluster.
    pub arbiter: String,
    /// Total events processed, including cluster-level rebalance ticks (the
    /// per-pipeline summaries count only their own events).
    pub total_events: u64,
    /// Rebalance ticks that moved at least one worker.
    pub rebalances: u64,
    /// Workers moved across pipelines over the whole run.
    pub migrations: u64,
    /// Cluster-level fleet cost (elastic runs only; the fleet is shared, so
    /// cost lives here and on the [`MultiSimResult::aggregate`] result, not
    /// on the per-pipeline ones).
    pub cost: Option<CostSummary>,
    /// Cluster-driver self-profile (rebalance/elastic/market phases) —
    /// `Some` only when `observe.profile` was on. Per-lane dispatch phases
    /// live on the individual [`PipelineResult`]s; [`MultiSimResult::aggregate`]
    /// merges both into one profile.
    pub profile: Option<crate::trace::PhaseProfile>,
    /// The merged cluster event journal — `Some` only when `observe.timeline`
    /// was on. Cluster-level (one journal for the shared fleet);
    /// [`MultiSimResult::aggregate`] clones it onto the aggregate result.
    pub journal: Option<crate::journal::Journal>,
    /// The run's metrics-interval length in seconds, carried so aggregation
    /// can reconstruct durations from interval counts.
    pub metrics_interval_s: f64,
}

impl MultiSimResult {
    /// Cluster-level aggregate of the per-pipeline results: totals summed,
    /// accuracy weighted by served queries, intervals summed element-wise.
    /// Each aggregate interval's `cluster_size` is the sum of the lanes'
    /// granted warm capacity at that interval — for a fixed fleet that equals
    /// the physical cluster, and for an elastic fleet it tracks the billed
    /// fleet over time, so utilization stays measured against what was
    /// actually rented. `cluster_size` is only the fallback for intervals no
    /// lane reported. The aggregate's `events_processed` includes
    /// cluster-level events.
    pub fn aggregate(&self, cluster_size: usize) -> SimResult {
        let rows = self
            .pipelines
            .iter()
            .map(|p| p.result.intervals.len())
            .max()
            .unwrap_or(0);
        let mut intervals: Vec<IntervalMetrics> = Vec::with_capacity(rows);
        for row in 0..rows {
            let mut agg = IntervalMetrics::default();
            let mut granted = 0usize;
            for p in &self.pipelines {
                let Some(m) = p.result.intervals.get(row) else {
                    continue;
                };
                agg.start_s = m.start_s;
                agg.arrivals += m.arrivals;
                agg.completed_on_time += m.completed_on_time;
                agg.completed_late += m.completed_late;
                agg.dropped += m.dropped;
                agg.dropped_deadline += m.dropped_deadline;
                agg.dropped_reclaimed += m.dropped_reclaimed;
                agg.dropped_revoked += m.dropped_revoked;
                agg.accuracy_sum += m.accuracy_sum;
                agg.accuracy_count += m.accuracy_count;
                agg.rerouted += m.rerouted;
                agg.active_workers += m.active_workers;
                granted += m.cluster_size;
            }
            agg.cluster_size = if granted > 0 { granted } else { cluster_size };
            intervals.push(agg);
        }
        let name = format!("multi({})", self.arbiter);
        let mut summary = RunSummary::from_intervals(&name, &intervals, self.metrics_interval_s);
        summary.events_processed = self.total_events;
        // Latency histograms merge exactly (fixed bucket layout), so the
        // aggregate percentiles are the true cluster-level percentiles, not an
        // average of per-pipeline ones.
        let mut latency: Option<crate::trace::LatencyStats> = None;
        for p in &self.pipelines {
            if let Some(l) = &p.result.latency {
                match &mut latency {
                    Some(agg) => agg.merge(l),
                    None => latency = Some(l.clone()),
                }
            }
        }
        if let Some(l) = &latency {
            [
                summary.p50_ms,
                summary.p90_ms,
                summary.p99_ms,
                summary.p999_ms,
            ] = l.e2e.percentiles_ms();
        }
        // Sampled traces concatenate in registration order (each root records
        // its lane, so provenance survives the merge).
        let mut roots = Vec::new();
        for p in &self.pipelines {
            if let Some(t) = &p.result.trace {
                roots.extend(t.roots.iter().cloned());
            }
        }
        let trace = (!roots.is_empty()).then_some(crate::trace::TraceLog { roots });
        // Lane dispatch phases plus the cluster driver's phases, merged.
        let mut profile = self.profile;
        for p in &self.pipelines {
            if let Some(lane) = &p.result.profile {
                profile.get_or_insert_with(Default::default).merge(lane);
            }
        }
        // Windowed histograms merge element-wise across lanes (same fixed
        // bucket layout), row-aligned with the aggregate intervals.
        let mut window: Option<Vec<crate::trace::Histogram>> = None;
        for p in &self.pipelines {
            if let Some(rows) = &p.result.window {
                let agg = window.get_or_insert_with(Vec::new);
                if agg.len() < rows.len() {
                    agg.resize_with(rows.len(), crate::trace::Histogram::default);
                }
                for (into, row) in agg.iter_mut().zip(rows) {
                    into.merge(row);
                }
            }
        }
        SimResult {
            intervals,
            summary,
            cost: self.cost.clone(),
            latency,
            trace,
            profile,
            window,
            journal: self.journal.clone(),
        }
    }
}

/// Configuration of a multi-pipeline run: the shared-cluster [`SimConfig`]
/// plus the execution-parallelism knob. `From<SimConfig>` gives the serial
/// default (`jobs = 1`), so existing `MultiSimulation::new(sim_config)` call
/// sites keep working unchanged.
#[derive(Debug, Clone)]
pub struct MultiSimConfig {
    /// The shared-cluster simulation configuration.
    pub sim: SimConfig,
    /// Worker threads for lane execution between rebalance epochs. `1` runs
    /// every lane inline on the calling thread; `> 1` runs lanes on a bounded
    /// scoped pool ([`crate::par::par_map`]). The simulated results are
    /// bit-identical for every value (pinned by the parallel-identity tests);
    /// only wall-clock time changes.
    pub jobs: usize,
}

impl From<SimConfig> for MultiSimConfig {
    fn from(sim: SimConfig) -> Self {
        Self { sim, jobs: 1 }
    }
}

/// A simulation of several pipelines sharing one cluster under a
/// [`ResourceArbiter`]. The engine's scheduling core is the same one the
/// single-pipeline [`crate::Simulation`] uses; a two-pipeline run where one
/// pipeline has zero demand (and thus a zero-worker partition) is bit-identical
/// to the single-pipeline run of the other.
pub struct MultiSimulation<'a, C: Controller + 'a = Box<dyn Controller + 'a>> {
    config: MultiSimConfig,
    pipelines: Vec<MultiPipeline<'a, C>>,
}

impl<'a, C: Controller + 'a> MultiSimulation<'a, C> {
    /// Create an empty multi-pipeline simulation from a [`MultiSimConfig`] (or
    /// a bare [`SimConfig`], which runs serial). `initial_demand_hint` is
    /// ignored — each registered pipeline carries its own hint.
    pub fn new(config: impl Into<MultiSimConfig>) -> Self {
        Self {
            config: config.into(),
            pipelines: Vec::new(),
        }
    }

    /// Register a pipeline. Registration order is the index order every
    /// arbiter observation and result vector uses.
    pub fn add_pipeline(&mut self, pipeline: MultiPipeline<'a, C>) -> &mut Self {
        pipeline
            .graph
            .validate()
            .expect("pipeline graph must be valid");
        self.pipelines.push(pipeline);
        self
    }

    /// Number of registered pipelines.
    pub fn num_pipelines(&self) -> usize {
        self.pipelines.len()
    }

    /// Run to completion under `arbiter`. Panics (with the rendered
    /// [`EngineError`]) on invalid arrivals or an engine invariant violation;
    /// use [`MultiSimulation::try_run`] to handle that as a value.
    pub fn run(&mut self, arbiter: &mut dyn ResourceArbiter) -> MultiSimResult {
        self.try_run(arbiter)
            .unwrap_or_else(|error| panic!("{error}"))
    }

    /// Like [`MultiSimulation::run`], but surfaces invalid arrivals and engine
    /// invariant violations as a structured [`EngineError`].
    pub fn try_run(
        &mut self,
        arbiter: &mut dyn ResourceArbiter,
    ) -> Result<MultiSimResult, EngineError> {
        self.try_run_inner(arbiter, None)
    }

    /// Run with an [`ElasticPolicy`] scaling the shared fleet under the
    /// arbiter (requires [`SimConfig::elastic`]): boots land in the free pool
    /// and the next rebalance apportions them, so the partition size changes
    /// between arbiter epochs. Panics on an engine invariant violation.
    pub fn run_elastic(
        &mut self,
        arbiter: &mut dyn ResourceArbiter,
        policy: &mut dyn ElasticPolicy,
    ) -> MultiSimResult {
        self.try_run_elastic(arbiter, policy)
            .unwrap_or_else(|error| panic!("{error}"))
    }

    /// Like [`MultiSimulation::run_elastic`], but surfaces invalid arrivals
    /// and engine invariant violations as a structured [`EngineError`].
    pub fn try_run_elastic(
        &mut self,
        arbiter: &mut dyn ResourceArbiter,
        policy: &mut dyn ElasticPolicy,
    ) -> Result<MultiSimResult, EngineError> {
        assert!(
            self.config.sim.elastic.is_some(),
            "an elastic policy needs SimConfig::elastic"
        );
        self.try_run_inner(arbiter, Some(policy))
    }

    fn try_run_inner(
        &mut self,
        arbiter: &mut dyn ResourceArbiter,
        policy: Option<&mut dyn ElasticPolicy>,
    ) -> Result<MultiSimResult, EngineError> {
        assert!(
            !self.pipelines.is_empty(),
            "register at least one pipeline before running"
        );
        let mut inputs: Vec<LaneInput<'_>> = Vec::with_capacity(self.pipelines.len());
        let mut controllers: Vec<&mut dyn Controller> = Vec::with_capacity(self.pipelines.len());
        let mut names: Vec<String> = Vec::with_capacity(self.pipelines.len());
        for pipeline in &mut self.pipelines {
            inputs.push(LaneInput {
                graph: pipeline.graph,
                arrivals_s: &pipeline.arrivals_s,
                initial_demand_hint: pipeline.initial_demand_hint,
            });
            controllers.push(&mut pipeline.controller);
            names.push(pipeline.name.clone());
        }
        let mut engine = Engine::new(&self.config.sim, inputs)?;
        let results = engine.run(&mut controllers, Some(arbiter), policy, self.config.jobs)?;
        let timings = engine.lane_timings();
        Ok(MultiSimResult {
            pipelines: names
                .into_iter()
                .zip(results)
                .zip(timings)
                .map(
                    |((name, result), (lane_wall_s, barrier_wait_s))| PipelineResult {
                        name,
                        result,
                        lane_wall_s,
                        barrier_wait_s,
                    },
                )
                .collect(),
            arbiter: arbiter.name().to_string(),
            total_events: engine.global_events(),
            rebalances: engine.rebalances(),
            migrations: engine.migrations(),
            cost: engine.take_cost(),
            profile: engine.take_cluster_profile(),
            journal: engine.take_journal(),
            metrics_interval_s: self.config.sim.metrics_interval_s,
        })
    }

    /// Consume the simulation and return the registered pipelines (useful to
    /// inspect controller internals — e.g. per-lane `ControllerStats` — after
    /// a run).
    pub fn into_pipelines(self) -> Vec<MultiPipeline<'a, C>> {
        self.pipelines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apportion_is_proportional_and_exact() {
        assert_eq!(apportion(&[1.0, 1.0], 20), vec![10, 10]);
        assert_eq!(apportion(&[3.0, 1.0], 20), vec![15, 5]);
        assert_eq!(apportion(&[1100.0, 183.0], 20), vec![17, 3]);
        // Zero weight gets zero workers; the rest absorbs everything.
        assert_eq!(apportion(&[300.0, 0.0], 20), vec![20, 0]);
        // All-zero weights fall back to an even split.
        assert_eq!(apportion(&[0.0, 0.0, 0.0], 9), vec![3, 3, 3]);
        // Remainders distribute by largest fraction, ties to the lower index.
        assert_eq!(apportion(&[1.0, 1.0, 1.0], 10), vec![4, 3, 3]);
        let counts = apportion(&[0.7, 0.2, 0.1], 7);
        assert_eq!(counts.iter().sum::<usize>(), 7);
        // NaN/negative weights are treated as zero, not propagated.
        assert_eq!(apportion(&[f64::NAN, 2.0], 4), vec![0, 4]);
        assert_eq!(apportion(&[-3.0, 2.0], 4), vec![0, 4]);
        assert_eq!(apportion(&[], 4), Vec::<usize>::new());
    }

    #[test]
    fn static_partition_grants_once_then_keeps() {
        let mut arbiter = StaticPartition::even(2);
        assert_eq!(arbiter.name(), "static-even");
        let observation = ArbiterObservation {
            now_s: 0.0,
            cluster_size: 10,
            partition: &[0, 0],
            demand_qps: &[100.0, 100.0],
            slo_ms: &[250.0, 250.0],
            num_tasks: &[2, 2],
            queued: &[0, 0],
        };
        assert_eq!(arbiter.partition(&observation), Some(vec![5, 5]));
        let settled = ArbiterObservation {
            partition: &[5, 5],
            ..observation
        };
        assert_eq!(arbiter.partition(&settled), None);

        let mut oracle = StaticPartition::with_shares("oracle", vec![3.0, 1.0]);
        assert_eq!(oracle.partition(&settled), Some(vec![8, 2]));
    }
}
