//! The Load Balancer: the `MostAccurateFirst` request-routing algorithm (Algorithm 1)
//! and the backup tables used by opportunistic rerouting (Section 5).
//!
//! `MostAccurateFirst` walks the pipeline graph in topological order and, for every
//! task, saturates its workers in non-increasing order of single-model accuracy: the
//! estimated demand is poured into the most accurate worker until its profiled capacity
//! is full, then into the next one, and so on. Because end-to-end pipeline accuracy is
//! monotone in the single-model accuracies, giving every node the most accurate worker
//! available for its traffic maximizes end-to-end accuracy for the given allocation.
//!
//! Workers left with spare capacity afterwards are advertised in per-task *backup
//! tables*; the data plane consults them when a query falls behind its latency budget
//! (opportunistic rerouting, Section 5.2).
//!
//! # Plan emission
//!
//! [`MostAccurateFirst::emit`] builds the engine's dense [`CompiledPlan`] in
//! place through [`loki_sim::PlanBuilder`] — no `HashMap` intermediate, with
//! the per-task worker groups and all table scratch reused across refreshes.
//! Under [`RouteMode::Accuracy`] the emitted plan samples bit-identically to
//! lowering the legacy [`RoutingPlan`] built by
//! [`MostAccurateFirst::build_routing`] (kept as the reference
//! implementation, pinned by the round-trip test in
//! `crates/core/tests/plan_roundtrip.rs`). Under [`RouteMode::LinkAware`]
//! equal-accuracy candidates (replicas of the same variant) are re-ordered by
//! the actual hop delay from the run's [`LinkDelayModel`] before each
//! saturation pass, so demand prefers network-local replicas on heterogeneous
//! interconnects without ever sacrificing accuracy-first ordering.
//!
//! Emission also reports [`PlannerWarning`]s for demand that reaches a task
//! with no routable workers — traffic the engine can only drop — instead of
//! leaving those tasks silently unroutable.

use crate::perf::{self, FanoutOverrides};
use loki_pipeline::{PipelineGraph, TaskId, VariantId};
use loki_sim::{
    BackupWorker, CompiledPlan, LinkDelayModel, PlanBuilder, RouteMode, RoutingPlan, WorkerId,
    WorkerView,
};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A structured planner warning: estimated demand reaches `task` but no
/// routable worker serves it, so the engine's only recourse is the
/// queue-length fallback over an empty set — i.e. dropping. Surfaced through
/// `ControllerStats::routing_warnings` instead of failing silently.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlannerWarning {
    /// The pipeline task with traffic but no routable workers.
    pub task: usize,
    /// Estimated demand (QPS) that reaches the task and cannot be routed.
    pub demand_qps: f64,
}

/// The `MostAccurateFirst` routing-table builder.
///
/// Stateful: one instance lives inside a controller and reuses its grouping,
/// saturation, and alias-table scratch across routing refreshes.
#[derive(Debug, Default)]
pub struct MostAccurateFirst {
    builder: PlanBuilder,
    /// Per-task worker groups (dense by task index), reused across emissions.
    by_task: Vec<Vec<WorkerState>>,
    /// Snapshot of one task's upstream workers: `(id, variant, incoming)`.
    upstream_scratch: Vec<(WorkerId, VariantId, f64)>,
    /// Saturation output scratch: `(worker, routed)`.
    assign_scratch: Vec<(WorkerId, f64)>,
    /// Normalized-table scratch handed to the plan builder.
    table_scratch: Vec<(WorkerId, f64)>,
    /// Backup-list scratch (filtered, exec-ascending).
    backup_scratch: Vec<BackupWorker>,
    /// Per-task demand that could not be routed in the last emission.
    unrouted_scratch: Vec<f64>,
    warnings: Vec<PlannerWarning>,
}

/// Map a NaN (degenerate profile) to `-inf` so `f64::total_cmp` sorts it below
/// every real value — `total_cmp` alone ranks NaN *above* `+inf`, which would
/// hand a degenerate worker all the traffic; `partial_cmp(..).unwrap()`, the
/// previous comparator, panicked outright.
#[inline]
fn nan_last(value: f64) -> f64 {
    if value.is_nan() {
        f64::NEG_INFINITY
    } else {
        value
    }
}

/// Companion of [`nan_last`] for ascending sorts: NaN maps to `+inf` so a
/// degenerate execution time is never advertised as the fastest backup.
#[inline]
fn nan_slowest(value: f64) -> f64 {
    if value.is_nan() {
        f64::INFINITY
    } else {
        value
    }
}

/// Internal per-worker routing state.
#[derive(Debug, Clone)]
struct WorkerState {
    id: WorkerId,
    variant: VariantId,
    accuracy: f64,
    capacity: f64,
    capacity_left: f64,
    incoming: f64,
    exec_time_ms: f64,
}

impl MostAccurateFirst {
    /// Emit a compiled routing plan with accuracy-first candidate ordering:
    /// the historical behaviour, sampling bit-identically to lowering
    /// [`MostAccurateFirst::build_routing`]'s plan.
    pub fn emit(
        &mut self,
        graph: &PipelineGraph,
        workers: &[WorkerView],
        demand_qps: f64,
        fanout: &FanoutOverrides,
    ) -> CompiledPlan {
        self.emit_with_route(
            graph,
            workers,
            demand_qps,
            fanout,
            RouteMode::Accuracy,
            &LinkDelayModel::Uniform,
            0.0,
        )
    }

    /// Emit a compiled routing plan. `route` selects the candidate ordering;
    /// under [`RouteMode::LinkAware`], `links` (with `uniform_ms` as the
    /// uniform-model hop delay) supplies the per-hop delays that break
    /// equal-accuracy ties toward network-local replicas.
    #[allow(clippy::too_many_arguments)]
    pub fn emit_with_route(
        &mut self,
        graph: &PipelineGraph,
        workers: &[WorkerView],
        demand_qps: f64,
        fanout: &FanoutOverrides,
        route: RouteMode,
        links: &LinkDelayModel,
        uniform_ms: f64,
    ) -> CompiledPlan {
        let num_tasks = graph.num_tasks();
        self.warnings.clear();
        self.group_by_task(graph, workers, num_tasks);

        self.builder.begin(num_tasks);

        // Frontend: pour the root demand into the root task's workers.
        let root = graph.root().index();
        let mut routed_any = false;
        if let Some(states) = self.by_task.get_mut(root) {
            if route == RouteMode::LinkAware {
                states.sort_by(|a, b| {
                    nan_last(b.accuracy)
                        .total_cmp(&nan_last(a.accuracy))
                        .then(
                            links
                                .frontend_worker_hop_ms(a.id, uniform_ms)
                                .total_cmp(&links.frontend_worker_hop_ms(b.id, uniform_ms)),
                        )
                        .then(a.id.cmp(&b.id))
                });
            }
            Self::saturate_into(states, demand_qps, &mut self.assign_scratch);
            for &(id, routed) in &self.assign_scratch {
                if routed > 0.0 {
                    self.builder.push_frontend(id, routed);
                    routed_any = true;
                }
            }
        }
        if demand_qps > 1e-9 && !routed_any {
            self.warnings.push(PlannerWarning {
                task: root,
                demand_qps,
            });
        }

        // Walk tasks in topological order, assigning each worker's outgoing
        // traffic to downstream workers most-accurate-first.
        self.unrouted_scratch.clear();
        self.unrouted_scratch.resize(num_tasks, 0.0);
        for task_id in graph.topological_order() {
            let t = task_id.index();
            let children = &graph.task(task_id).children;
            if children.is_empty() {
                continue;
            }
            self.upstream_scratch.clear();
            if let Some(states) = self.by_task.get(t) {
                self.upstream_scratch
                    .extend(states.iter().map(|s| (s.id, s.variant, s.incoming)));
            }
            for i in 0..self.upstream_scratch.len() {
                let (worker_id, variant, incoming) = self.upstream_scratch[i];
                for edge in children {
                    let child = edge.child.index();
                    let outgoing = incoming * perf::fanout(graph, variant, edge.child, fanout);
                    let Some(child_states) = self.by_task.get_mut(child) else {
                        continue;
                    };
                    // Link-aware: among equal-accuracy candidates, prefer the
                    // cheapest hop from *this* upstream worker. Exact-equality
                    // tie-break (accuracy first) keeps the comparator a strict
                    // weak order and leaves cross-variant ordering untouched.
                    if route == RouteMode::LinkAware && child_states.len() > 1 {
                        child_states.sort_by(|a, b| {
                            nan_last(b.accuracy)
                                .total_cmp(&nan_last(a.accuracy))
                                .then(
                                    links
                                        .worker_hop_ms(worker_id, t, a.id, child, uniform_ms)
                                        .total_cmp(
                                            &links.worker_hop_ms(
                                                worker_id, t, b.id, child, uniform_ms,
                                            ),
                                        ),
                                )
                                .then(a.id.cmp(&b.id))
                        });
                    }
                    Self::saturate_into(child_states, outgoing, &mut self.assign_scratch);
                    let total: f64 = self.assign_scratch.iter().map(|(_, r)| r).sum();
                    if total <= 0.0 {
                        if outgoing > 1e-9 {
                            self.unrouted_scratch[child] += outgoing;
                        }
                        continue;
                    }
                    self.table_scratch.clear();
                    self.table_scratch.extend(
                        self.assign_scratch
                            .iter()
                            .filter(|(_, r)| *r > 0.0)
                            .map(|(id, r)| (*id, r / total)),
                    );
                    self.builder
                        .set_downstream(worker_id, child, &self.table_scratch);
                }
            }
        }
        for (task, &unrouted) in self.unrouted_scratch.iter().enumerate() {
            if unrouted > 1e-9 {
                self.warnings.push(PlannerWarning {
                    task,
                    demand_qps: unrouted,
                });
            }
        }

        // Per-task default tables (used for queries whose upstream worker has
        // no specific entry, e.g. right after a re-allocation): proportional
        // to capacity. Backup tables: leftover capacity per task, pushed
        // exec-ascending (the builder's stable accuracy sort keeps that order
        // among ties).
        for t in 0..num_tasks {
            let states = &self.by_task[t];
            if states.is_empty() {
                continue;
            }
            self.table_scratch.clear();
            self.table_scratch
                .extend(states.iter().map(|s| (s.id, s.capacity.max(1e-9))));
            self.builder.set_default(t, &self.table_scratch);

            self.backup_scratch.clear();
            self.backup_scratch
                .extend(
                    states
                        .iter()
                        .filter(|s| s.capacity_left > 1e-6)
                        .map(|s| BackupWorker {
                            worker: s.id,
                            exec_time_ms: s.exec_time_ms,
                            accuracy: s.accuracy,
                        }),
                );
            self.backup_scratch.sort_by(|a, b| {
                nan_slowest(a.exec_time_ms).total_cmp(&nan_slowest(b.exec_time_ms))
            });
            for &bw in &self.backup_scratch {
                self.builder.push_backup(t, bw);
            }
        }

        self.builder.finish()
    }

    /// Warnings from the most recent emission (tasks left unroutable).
    pub fn warnings(&self) -> &[PlannerWarning] {
        &self.warnings
    }

    /// Group `workers` by task into the reusable dense scratch, most accurate
    /// first (ties by id for determinism).
    fn group_by_task(&mut self, graph: &PipelineGraph, workers: &[WorkerView], num_tasks: usize) {
        self.by_task.resize_with(num_tasks, Vec::new);
        self.by_task.truncate(num_tasks);
        for states in self.by_task.iter_mut() {
            states.clear();
        }
        for w in workers {
            let Some(variant) = w.variant else { continue };
            if w.swapping {
                // A worker still loading its model has no usable capacity right
                // now; it will be picked up at the next routing refresh.
                continue;
            }
            let Some(states) = self.by_task.get_mut(variant.task) else {
                continue;
            };
            let profile = graph.variant(variant);
            let capacity = profile.throughput_qps(w.max_batch);
            states.push(WorkerState {
                id: w.id,
                variant,
                accuracy: profile.accuracy,
                capacity,
                capacity_left: capacity,
                incoming: 0.0,
                exec_time_ms: profile.batch_latency_ms(w.max_batch),
            });
        }
        for states in self.by_task.iter_mut() {
            states.sort_by(|a, b| {
                nan_last(b.accuracy)
                    .total_cmp(&nan_last(a.accuracy))
                    .then(a.id.cmp(&b.id))
            });
        }
    }

    /// Build routing tables for the current worker assignments and estimated demand.
    ///
    /// `demand_qps` is the estimated root arrival rate; `fanout` carries observed
    /// multiplicative factors (profiled values are used where no observation exists).
    ///
    /// The legacy `HashMap`-keyed reference implementation: production
    /// controllers emit [`CompiledPlan`]s directly via
    /// [`MostAccurateFirst::emit`]; this remains as the semantic reference the
    /// round-trip test pins emission against (and as a convenient
    /// introspectable form for unit tests).
    pub fn build_routing(
        graph: &PipelineGraph,
        workers: &[WorkerView],
        demand_qps: f64,
        fanout: &FanoutOverrides,
    ) -> RoutingPlan {
        // Group workers by task, sorted most-accurate-first (ties by id for
        // determinism).
        let mut by_task: HashMap<usize, Vec<WorkerState>> = HashMap::new();
        for w in workers {
            let Some(variant) = w.variant else { continue };
            if w.swapping {
                continue;
            }
            let profile = graph.variant(variant);
            let capacity = profile.throughput_qps(w.max_batch);
            by_task.entry(variant.task).or_default().push(WorkerState {
                id: w.id,
                variant,
                accuracy: profile.accuracy,
                capacity,
                capacity_left: capacity,
                incoming: 0.0,
                exec_time_ms: profile.batch_latency_ms(w.max_batch),
            });
        }
        for states in by_task.values_mut() {
            states.sort_by(|a, b| {
                nan_last(b.accuracy)
                    .total_cmp(&nan_last(a.accuracy))
                    .then(a.id.cmp(&b.id))
            });
        }

        let mut plan = RoutingPlan::default();

        // Frontend: pour the root demand into the root task's workers.
        let root = graph.root().index();
        if let Some(states) = by_task.get_mut(&root) {
            let mut assignments = Vec::new();
            Self::saturate_into(states, demand_qps, &mut assignments);
            for (id, routed) in assignments {
                if routed > 0.0 {
                    plan.frontend.push((id, routed));
                }
            }
        }

        // Walk tasks in topological order, assigning each worker's outgoing traffic to
        // downstream workers most-accurate-first.
        for task_id in graph.topological_order() {
            let t = task_id.index();
            let children: Vec<TaskId> = graph
                .task(task_id)
                .children
                .iter()
                .map(|e| e.child)
                .collect();
            if children.is_empty() {
                continue;
            }
            let upstream: Vec<(WorkerId, VariantId, f64)> = by_task
                .get(&t)
                .map(|states| {
                    states
                        .iter()
                        .map(|s| (s.id, s.variant, s.incoming))
                        .collect()
                })
                .unwrap_or_default();
            for (worker_id, variant, incoming) in upstream {
                for &child in &children {
                    let outgoing = incoming * perf::fanout(graph, variant, child, fanout);
                    let Some(child_states) = by_task.get_mut(&child.index()) else {
                        continue;
                    };
                    let mut assignments = Vec::new();
                    Self::saturate_into(child_states, outgoing, &mut assignments);
                    let total: f64 = assignments.iter().map(|(_, r)| r).sum();
                    if total <= 0.0 {
                        continue;
                    }
                    let table: Vec<(WorkerId, f64)> = assignments
                        .into_iter()
                        .filter(|(_, r)| *r > 0.0)
                        .map(|(id, r)| (id, r / total))
                        .collect();
                    plan.downstream.insert((worker_id, child.index()), table);
                }
            }
        }

        // Per-task default tables (used for queries whose upstream worker has no
        // specific entry, e.g. right after a re-allocation): proportional to capacity.
        for (task, states) in &by_task {
            let table: Vec<(WorkerId, f64)> = states
                .iter()
                .map(|s| (s.id, s.capacity.max(1e-9)))
                .collect();
            plan.downstream_default.insert(*task, table);
        }

        // Backup tables: leftover capacity per task, most accurate first.
        for (task, states) in &by_task {
            let mut backups: Vec<BackupWorker> = states
                .iter()
                .filter(|s| s.capacity_left > 1e-6)
                .map(|s| BackupWorker {
                    worker: s.id,
                    exec_time_ms: s.exec_time_ms,
                    accuracy: s.accuracy,
                })
                .collect();
            backups.sort_by(|a, b| {
                nan_slowest(a.exec_time_ms).total_cmp(&nan_slowest(b.exec_time_ms))
            });
            if !backups.is_empty() {
                plan.backup.insert(*task, backups);
            }
        }

        plan
    }

    /// Pour `demand` into the (accuracy-sorted) worker list, saturating each worker's
    /// remaining capacity in turn. Any demand exceeding the total remaining capacity is
    /// spread proportionally to total capacity so that overload degrades gracefully
    /// instead of leaving traffic unroutable. Writes `(worker, routed)` pairs into
    /// `out` (cleared first).
    fn saturate_into(states: &mut [WorkerState], demand: f64, out: &mut Vec<(WorkerId, f64)>) {
        out.clear();
        out.extend(states.iter().map(|s| (s.id, 0.0)));
        if demand <= 0.0 || states.is_empty() {
            return;
        }
        let mut remaining = demand;
        for (i, s) in states.iter_mut().enumerate() {
            if remaining <= 0.0 {
                break;
            }
            let routed = remaining.min(s.capacity_left);
            if routed > 0.0 {
                s.capacity_left -= routed;
                s.incoming += routed;
                out[i].1 += routed;
                remaining -= routed;
            }
        }
        if remaining > 1e-9 {
            let total_capacity: f64 = states.iter().map(|s| s.capacity).sum();
            if total_capacity > 0.0 {
                for (i, s) in states.iter_mut().enumerate() {
                    let share = remaining * s.capacity / total_capacity;
                    s.incoming += share;
                    out[i].1 += share;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loki_pipeline::zoo;

    fn view(id: usize, variant: VariantId, batch: u32) -> WorkerView {
        WorkerView {
            id: WorkerId(id),
            variant: Some(variant),
            max_batch: batch,
            queue_len: 0,
            swapping: false,
        }
    }

    #[test]
    fn frontend_prefers_most_accurate_worker() {
        let g = zoo::tiny_pipeline(100.0);
        // Two root-task workers: one accurate (a-large), one cheap (a-small).
        let workers = vec![
            view(0, VariantId::new(0, 0), 4), // a-small, acc 0.8
            view(1, VariantId::new(0, 1), 4), // a-large, acc 1.0
            view(2, VariantId::new(1, 1), 4),
        ];
        // Low demand: everything fits on the accurate worker.
        let plan = MostAccurateFirst::build_routing(&g, &workers, 10.0, &FanoutOverrides::new());
        let accurate_weight: f64 = plan
            .frontend
            .iter()
            .filter(|(w, _)| *w == WorkerId(1))
            .map(|(_, p)| *p)
            .sum();
        let cheap_weight: f64 = plan
            .frontend
            .iter()
            .filter(|(w, _)| *w == WorkerId(0))
            .map(|(_, p)| *p)
            .sum();
        assert!(accurate_weight > 0.0);
        assert!(
            cheap_weight.abs() < 1e-9,
            "cheap worker should get no traffic at low demand"
        );
    }

    #[test]
    fn overflow_spills_to_less_accurate_workers() {
        let g = zoo::tiny_pipeline(100.0);
        let workers = vec![
            view(0, VariantId::new(0, 0), 4),
            view(1, VariantId::new(0, 1), 4),
            view(2, VariantId::new(1, 1), 8),
        ];
        let accurate_capacity = g.variant(VariantId::new(0, 1)).throughput_qps(4);
        let demand = accurate_capacity * 1.5;
        let plan = MostAccurateFirst::build_routing(&g, &workers, demand, &FanoutOverrides::new());
        let cheap_weight: f64 = plan
            .frontend
            .iter()
            .filter(|(w, _)| *w == WorkerId(0))
            .map(|(_, p)| *p)
            .sum();
        assert!(
            cheap_weight > 0.0,
            "overflow should spill to the less accurate worker"
        );
    }

    #[test]
    fn downstream_tables_and_backups_exist() {
        let g = zoo::tiny_pipeline(100.0);
        let workers = vec![
            view(0, VariantId::new(0, 1), 4),
            view(1, VariantId::new(1, 1), 4),
            view(2, VariantId::new(1, 0), 4),
        ];
        let plan = MostAccurateFirst::build_routing(&g, &workers, 20.0, &FanoutOverrides::new());
        // The root worker must have a table for task 1.
        let table = plan
            .downstream
            .get(&(WorkerId(0), 1))
            .expect("routing table");
        let total: f64 = table.iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-9, "probabilities should sum to 1");
        // At 20 QPS the accurate downstream worker has leftover capacity -> backup.
        let backup = plan.backup.get(&1).expect("backup table");
        assert!(!backup.is_empty());
        // Default tables exist for both tasks.
        assert!(plan.downstream_default.contains_key(&0));
        assert!(plan.downstream_default.contains_key(&1));
    }

    #[test]
    fn traffic_pipeline_routes_both_branches() {
        let g = zoo::traffic_analysis_pipeline(250.0);
        let workers = vec![
            view(0, VariantId::new(0, 4), 4),
            view(1, VariantId::new(1, 7), 8),
            view(2, VariantId::new(1, 0), 8),
            view(3, VariantId::new(2, 3), 8),
        ];
        let plan = MostAccurateFirst::build_routing(&g, &workers, 50.0, &FanoutOverrides::new());
        assert!(plan.downstream.contains_key(&(WorkerId(0), 1)));
        assert!(plan.downstream.contains_key(&(WorkerId(0), 2)));
        // Car-classification traffic prefers the accurate B7 worker while it has
        // capacity.
        let table = &plan.downstream[&(WorkerId(0), 1)];
        let b7_share: f64 = table
            .iter()
            .filter(|(w, _)| *w == WorkerId(1))
            .map(|(_, p)| *p)
            .sum();
        assert!(b7_share > 0.5, "b7 share = {b7_share}");
    }

    #[test]
    fn nan_accuracy_from_a_degenerate_profile_does_not_panic() {
        use loki_pipeline::{LatencyProfile, ModelVariant, PipelineGraph};
        // A corrupted/degenerate profile can surface a NaN accuracy at runtime;
        // the router must keep working (NaNs sort last) instead of panicking on
        // `partial_cmp(..).unwrap()`.
        let mut bad = ModelVariant::new("bad", "fam", 0.5, LatencyProfile::new(2.0, 1.0), 1.0);
        bad.accuracy = f64::NAN;
        let good = ModelVariant::new("good", "fam", 0.9, LatencyProfile::new(2.0, 1.0), 1.0);
        let leaf = ModelVariant::new("leaf", "fam", 1.0, LatencyProfile::new(2.0, 1.0), 0.0);
        let mut g = PipelineGraph::new("degenerate", 100.0);
        let t0 = g.add_task("a", vec![bad, good]);
        let t1 = g.add_task("b", vec![leaf]);
        g.add_edge(t0, t1, 1.0);
        let workers = vec![
            view(0, VariantId::new(0, 0), 4), // NaN accuracy
            view(1, VariantId::new(0, 1), 4),
            view(2, VariantId::new(1, 0), 4),
        ];
        let plan = MostAccurateFirst::build_routing(&g, &workers, 5.0, &FanoutOverrides::new());
        // The well-profiled worker absorbs the low demand; the NaN one gets none.
        let weight = |w: usize| -> f64 {
            plan.frontend
                .iter()
                .filter(|(id, _)| *id == WorkerId(w))
                .map(|(_, p)| *p)
                .sum()
        };
        assert!(weight(1) > 0.0);
        assert!(weight(0).abs() < 1e-9, "NaN-profiled worker must sort last");
    }

    #[test]
    fn empty_cluster_produces_empty_plan() {
        let g = zoo::tiny_pipeline(100.0);
        let plan = MostAccurateFirst::build_routing(&g, &[], 100.0, &FanoutOverrides::new());
        assert!(plan.frontend.is_empty());
        assert!(plan.downstream.is_empty());
        assert!(plan.backup.is_empty());
    }

    #[test]
    fn observed_fanout_changes_downstream_distribution() {
        let g = zoo::tiny_pipeline(100.0);
        let workers = vec![
            view(0, VariantId::new(0, 1), 4),
            view(1, VariantId::new(1, 1), 1), // accurate but tiny capacity
            view(2, VariantId::new(1, 0), 8),
        ];
        // With a huge observed fan-out, the accurate downstream worker saturates and
        // more traffic shifts to the cheap one.
        let mut fanout = FanoutOverrides::new();
        fanout.insert((VariantId::new(0, 1), 1), 10.0);
        let plan_hi = MostAccurateFirst::build_routing(&g, &workers, 30.0, &fanout);
        let plan_lo = MostAccurateFirst::build_routing(&g, &workers, 30.0, &FanoutOverrides::new());
        let cheap_share = |plan: &RoutingPlan| -> f64 {
            plan.downstream[&(WorkerId(0), 1)]
                .iter()
                .filter(|(w, _)| *w == WorkerId(2))
                .map(|(_, p)| *p)
                .sum()
        };
        assert!(cheap_share(&plan_hi) > cheap_share(&plan_lo));
    }

    #[test]
    fn emission_warns_on_unroutable_tasks() {
        let g = zoo::tiny_pipeline(100.0);
        // Only root-task workers: everything pouring into task 1 is unroutable.
        let workers = vec![view(0, VariantId::new(0, 1), 4)];
        let mut lb = MostAccurateFirst::default();
        let _ = lb.emit(&g, &workers, 20.0, &FanoutOverrides::new());
        assert_eq!(lb.warnings().len(), 1);
        assert_eq!(lb.warnings()[0].task, 1);
        assert!(lb.warnings()[0].demand_qps > 0.0);

        // No workers at all: the root itself is unroutable.
        let _ = lb.emit(&g, &[], 20.0, &FanoutOverrides::new());
        assert_eq!(lb.warnings().len(), 1);
        assert_eq!(lb.warnings()[0].task, 0);

        // A fully covered pipeline emits no warnings.
        let covered = vec![
            view(0, VariantId::new(0, 1), 4),
            view(1, VariantId::new(1, 0), 8),
        ];
        let _ = lb.emit(&g, &covered, 5.0, &FanoutOverrides::new());
        assert!(lb.warnings().is_empty());
    }

    #[test]
    fn link_aware_prefers_local_replicas_among_equal_accuracy() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let g = zoo::tiny_pipeline(100.0);
        // Upstream worker 0 (class 0 under 2-way striping). Two replicas of the
        // SAME downstream variant: worker 2 (class 0, cheap hop) and worker 3
        // (class 1, expensive hop). Low demand fits entirely on one replica.
        let workers = vec![
            view(0, VariantId::new(0, 1), 4),
            view(2, VariantId::new(1, 1), 8),
            view(3, VariantId::new(1, 1), 8),
        ];
        let links = LinkDelayModel::PerWorkerClass {
            classes: 2,
            delay_ms: vec![0.2, 5.0, 5.0, 0.2],
            frontend_ms: vec![2.0, 2.0],
        };
        let mut lb = MostAccurateFirst::default();
        let plan = lb.emit_with_route(
            &g,
            &workers,
            5.0,
            &FanoutOverrides::new(),
            RouteMode::LinkAware,
            &links,
            2.0,
        );
        // All task-1 traffic from worker 0 lands on the same-class replica.
        let mut rng = StdRng::seed_from_u64(1);
        let t = plan.downstream_table(WorkerId(0), 1).expect("table");
        for _ in 0..200 {
            assert_eq!(t.sample(&mut rng), Some(WorkerId(2)));
        }

        // Accuracy mode with the same inputs ties by id, which also picks
        // worker 2 here — so flip the classes to show link-awareness actually
        // drives the choice: now worker 3 is the local one.
        let flipped = LinkDelayModel::PerWorkerClass {
            classes: 2,
            delay_ms: vec![5.0, 0.2, 0.2, 5.0],
            frontend_ms: vec![2.0, 2.0],
        };
        let plan = lb.emit_with_route(
            &g,
            &workers,
            5.0,
            &FanoutOverrides::new(),
            RouteMode::LinkAware,
            &flipped,
            2.0,
        );
        let t = plan.downstream_table(WorkerId(0), 1).expect("table");
        for _ in 0..200 {
            assert_eq!(t.sample(&mut rng), Some(WorkerId(3)));
        }
    }
}
