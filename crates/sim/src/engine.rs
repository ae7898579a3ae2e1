//! The discrete-event simulation engine: a sharded driver over per-lane shards.
//!
//! The engine owns the cluster state (the shared worker [`Fleet`], the owner map,
//! elastic-fleet accounting) and the *cluster-level* event queue (rebalance and
//! elastic ticks, boot completions, unload cooldowns of free workers). Everything
//! lane-local — the calendar queue of ticks and deliveries, the arrival cursor,
//! the batch-completion heap, routing, metrics — lives in one [`Shard`] per
//! pipeline (see `crate::shard`).
//!
//! # Sharded execution with an epoch-barrier merge
//!
//! Between two cluster events, lanes are data-independent: a warm worker is owned
//! by exactly one lane (`Engine::owner`), every routing path checks ownership
//! before touching a worker, and nothing else is shared. The driver exploits
//! that: it advances every shard up to the next cluster-event timestamp (the
//! *epoch barrier*), then — single-threaded — applies the cluster events
//! (repartitions, fleet scaling, boot completions) and merges the shards'
//! buffered retirements into the cluster accounting. With `jobs > 1` the shards
//! of one epoch run on separate worker threads (`crate::par::par_map`, the same
//! bounded scoped pool the bench harness uses); with `jobs = 1` they run inline
//! on the calling thread in lane order.
//!
//! **Parallel is bit-identical to serial.** Each shard draws event sequence
//! numbers from its own lane-salted counter, so a lane's internal event order —
//! the only order that affects its results — is independent of how lanes
//! interleave on wall-clock time. Cluster events at a barrier run before
//! same-timestamp lane events, in both modes. The bit-identity tests pin
//! `jobs ∈ {1, 2, 4}` against each other across seeds, and the single-lane
//! determinism goldens pin the sharded path against the historical global-heap
//! engine.
//!
//! # Hot-path architecture
//!
//! The engine is the substrate for every figure sweep, so its per-event cost is
//! kept allocation- and hash-free. Per lane (see `crate::shard` for details):
//! a generational [`Slab`](crate::slab::Slab) arena for root-request state, a
//! calendar-queue scheduler with O(1) amortized insert/pop, compiled per-link
//! delay tables, dense observability counters, Vose alias tables for O(1)
//! weighted routing (epoch-guarded against staleness), and reused scratch
//! buffers. Trace arrivals come from the caller's per-lane arrays, borrowed
//! (never copied) and validated once at construction, behind cursors;
//! batch completions (at most one per worker) live in per-lane min-heaps. Each
//! shard's dispatch loop merges its three sources by `(time, seq)`, exactly the
//! order a single heap would produce.
//!
//! Impossible-but-unchecked scheduler states surface as a structured
//! [`EngineError`] through [`Simulation::try_run`] instead of a bare `unwrap`
//! panic.
//!
//! Determinism is unchanged: all hot-path state is iterated in dense index
//! order, and every stochastic choice consumes draws from its lane's seeded RNG
//! (lane 0 uses `SimConfig::seed` exactly). `BENCH_sim.json` (regenerated by
//! `cargo run --release -p loki_bench --bin loki -- report`) tracks the
//! resulting throughput.

use crate::elastic::{ElasticAction, ElasticObservation, ElasticPolicy, WorkerClassCatalog};
use crate::journal::{Journal, JournalKind, CLUSTER_LANE};
use crate::metrics::{ClassCost, CostSummary, IntervalMetrics, RunSummary};
use crate::multi::{ArbiterObservation, ResourceArbiter};
use crate::par::par_map;
use crate::shard::{fallback_worker_for_task, Fleet, LaneCtx, LaneEvent, LaneState, Shard, FREE};
use crate::trace::{Phase, PhaseSampler, Stamp};
use crate::types::{ms_to_us, secs_to_us, Controller, Query, SimConfig, SimTime, WorkerId};
use crate::worker::{Lifecycle, Worker};
use loki_pipeline::PipelineGraph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU32, Ordering};

pub(crate) use crate::shard::LaneInput;

/// The result of one simulation run (one pipeline's view of it).
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Per-interval metrics (one entry per metrics interval).
    pub intervals: Vec<IntervalMetrics>,
    /// Whole-run summary.
    pub summary: RunSummary,
    /// Fleet cost accounting — `Some` only for elastic runs
    /// ([`SimConfig::elastic`]); cluster-level, so in a multi-pipeline run it
    /// appears on the aggregate result, not the per-pipeline ones.
    pub cost: Option<CostSummary>,
    /// Latency histograms (end-to-end, per task, per worker class) — `Some`
    /// unless `observe.histograms` was turned off.
    pub latency: Option<crate::trace::LatencyStats>,
    /// Sampled query traces — `Some` only when `observe.trace_sample > 0`.
    pub trace: Option<crate::trace::TraceLog>,
    /// Per-phase wall-clock self-profile of this lane's dispatch loop (plus,
    /// on single-pipeline runs, the driver's cluster phases) — `Some` only
    /// when `observe.profile` is on.
    pub profile: Option<crate::trace::PhaseProfile>,
    /// Per-interval end-to-end latency histogram deltas, index-aligned with
    /// `intervals` — `Some` only when `observe.timeline` is on. Each row is
    /// the exact histogram of the queries that finished inside that interval:
    /// merging every row reproduces `latency.e2e` bit-for-bit.
    pub window: Option<Vec<crate::trace::Histogram>>,
    /// The cluster event journal — `Some` only when `observe.timeline` is on.
    /// Cluster-level, so in a multi-pipeline run it appears on the aggregate
    /// result, not the per-pipeline ones.
    pub journal: Option<Journal>,
}

/// A structured engine invariant violation. The dispatch loop and root
/// bookkeeping guard their impossible-but-unchecked states with these instead
/// of bare `unwrap`s, so a scheduler-refactor regression reports what broke,
/// where in simulated time, and after how many events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineError {
    /// The dispatch loop selected an event source whose queue turned out empty.
    EmptyEventSource {
        /// Which source ("scheduler", "arrival", "batch").
        source: &'static str,
        /// Simulated time at the failure, µs.
        now_us: SimTime,
        /// Events processed before the failure.
        events_processed: u64,
    },
    /// A query referenced a root slab slot that no longer exists even though
    /// its `outstanding` count said sub-queries were still in flight.
    MissingRoot {
        /// The handler that tripped ("drop", "complete").
        context: &'static str,
        /// Simulated time at the failure, µs.
        now_us: SimTime,
    },
    /// A lane's arrival trace holds a time that is not finite, is negative,
    /// or is earlier than the one before it. Checked once when the run is
    /// built, before any event is processed.
    InvalidArrivals {
        /// The lane (pipeline registration index; 0 for a single pipeline).
        lane: usize,
        /// Index of the first offending arrival in that lane's trace.
        index: usize,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::EmptyEventSource {
                source,
                now_us,
                events_processed,
            } => write!(
                f,
                "engine invariant violated: {source} event source empty after being \
                 selected by the dispatch merge (now = {now_us} us, \
                 {events_processed} events processed)"
            ),
            EngineError::MissingRoot { context, now_us } => write!(
                f,
                "engine invariant violated: root state missing in the {context} \
                 handler while sub-queries were outstanding (now = {now_us} us)"
            ),
            EngineError::InvalidArrivals { lane, index } => write!(
                f,
                "invalid arrivals: lane {lane} index {index} is not finite, is negative, \
                 or is earlier than the arrival before it (arrival times must be \
                 finite, non-negative and non-decreasing)"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

/// A cluster-level event on the driver's queue: everything that must run at an
/// epoch barrier, single-threaded, because it can touch more than one lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum ClusterEvent {
    /// Repartition tick (only scheduled when an arbiter runs).
    Rebalance,
    /// Fleet-scaling tick (only scheduled when an elastic policy runs).
    ElasticTick,
    /// A provisioned worker finished booting: it turns warm, starts billing,
    /// and becomes claimable (elastic fleets only).
    BootDone(WorkerId),
    /// Model-unload cooldown of a worker that was in the free pool when it was
    /// released (a lane-owned worker's cooldown lives on its shard's queue).
    SwapDone(WorkerId),
    /// Cloud-market tick: draw spot revocations (only scheduled when a
    /// [`crate::MarketConfig`] with a nonzero revocation rate is attached).
    MarketTick,
    /// A revoked worker's grace period expired: abort any batch still running
    /// and force-retire the worker, re-queueing the lost queries.
    RevokeDeadline(WorkerId),
}

/// A simulation of one pipeline served by one controller on one cluster.
pub struct Simulation<'a, C: Controller> {
    graph: &'a PipelineGraph,
    config: SimConfig,
    controller: C,
}

impl<'a, C: Controller> Simulation<'a, C> {
    /// Create a simulation for a pipeline, cluster configuration, and controller.
    pub fn new(graph: &'a PipelineGraph, config: SimConfig, controller: C) -> Self {
        graph.validate().expect("pipeline graph must be valid");
        Self {
            graph,
            config,
            controller,
        }
    }

    /// Run the simulation over a list of root-query arrival times in seconds,
    /// which must be finite, non-negative and non-decreasing.
    ///
    /// Panics (with the rendered [`EngineError`]) on invalid arrivals or an
    /// engine invariant violation; use [`Simulation::try_run`] to handle that
    /// as a value.
    pub fn run(&mut self, arrivals_s: &[f64]) -> SimResult {
        self.try_run(arrivals_s)
            .unwrap_or_else(|error| panic!("{error}"))
    }

    /// Like [`Simulation::run`], but surfaces invalid arrivals and engine
    /// invariant violations as a structured [`EngineError`] instead of
    /// panicking.
    ///
    /// With [`SimConfig::elastic`] set, the fleet is built from the elastic
    /// initial spec and billed, but no scaling policy runs (a static fleet);
    /// use [`Simulation::try_run_elastic`] to drive the fleet with a policy.
    pub fn try_run(&mut self, arrivals_s: &[f64]) -> Result<SimResult, EngineError> {
        self.try_run_inner(arrivals_s, None)
    }

    /// Run with an [`ElasticPolicy`] scaling the worker fleet (requires
    /// [`SimConfig::elastic`]). Panics on an engine invariant violation.
    pub fn run_elastic(&mut self, arrivals_s: &[f64], policy: &mut dyn ElasticPolicy) -> SimResult {
        self.try_run_elastic(arrivals_s, policy)
            .unwrap_or_else(|error| panic!("{error}"))
    }

    /// Like [`Simulation::run_elastic`], but surfaces invalid arrivals and
    /// engine invariant violations as a structured [`EngineError`].
    pub fn try_run_elastic(
        &mut self,
        arrivals_s: &[f64],
        policy: &mut dyn ElasticPolicy,
    ) -> Result<SimResult, EngineError> {
        assert!(
            self.config.elastic.is_some(),
            "an elastic policy needs SimConfig::elastic"
        );
        self.try_run_inner(arrivals_s, Some(policy))
    }

    fn try_run_inner(
        &mut self,
        arrivals_s: &[f64],
        policy: Option<&mut dyn ElasticPolicy>,
    ) -> Result<SimResult, EngineError> {
        let lane = LaneInput {
            graph: self.graph,
            arrivals_s,
            initial_demand_hint: self.config.initial_demand_hint,
        };
        let mut engine = Engine::new(&self.config, vec![lane])?;
        let mut controllers: [&mut dyn Controller; 1] = [&mut self.controller];
        let mut results = engine.run(&mut controllers, None, policy, 1)?;
        let mut result = results.pop().expect("single-lane run yields one result");
        result.cost = engine.take_cost();
        result.journal = engine.take_journal();
        // Single-pipeline runs fold the driver's cluster phases into the one
        // lane's profile, so the whole run is accounted in one place.
        if let Some(cluster) = engine.take_cluster_profile() {
            result
                .profile
                .get_or_insert_with(Default::default)
                .merge(&cluster);
        }
        Ok(result)
    }

    /// Consume the simulation and return the controller (useful to inspect controller
    /// internals after a run).
    pub fn into_controller(self) -> C {
        self.controller
    }
}

pub(crate) struct Engine<'a> {
    config: &'a SimConfig,
    /// One execution shard per pipeline lane (see `crate::shard`).
    shards: Vec<Shard<'a>>,
    end_time_us: SimTime,

    /// Cluster-level events, ordered by `(time, seq)` — the epoch barriers.
    cluster: BinaryHeap<Reverse<(SimTime, u64, ClusterEvent)>>,
    /// Sequence counter for cluster events (ties resolve in schedule order).
    cseq: u64,
    /// Driver time: the timestamp of the last barrier processed.
    now: SimTime,
    /// Cluster events attributed to no lane (rebalance/elastic ticks, boot
    /// completions, free workers' unload cooldowns).
    cluster_events: u64,

    /// The shared worker fleet (interior mutability; see `crate::shard`).
    fleet: Fleet,
    /// Owning lane per worker (`FREE` = released, claimable by a rebalance).
    /// Atomic so shards can read it concurrently mid-epoch; all cross-lane
    /// writes happen at barriers on the driver thread.
    owner: Vec<AtomicU32>,

    /// Arbiter invocations that actually moved workers.
    rebalances: u64,
    /// Workers moved across lanes over the whole run.
    migrations: u64,

    /// Elastic-fleet state (lifecycle accounting, billing); `None` for fixed
    /// fleets.
    elastic: Option<ElasticState>,
    /// Cloud-market state (revocation RNG, price schedule, stockouts); `None`
    /// when no [`crate::MarketConfig`] is attached to the elastic config.
    market: Option<MarketState>,
    /// Whether a resource arbiter drives this run (booted workers then wait in
    /// the free pool for the next rebalance instead of joining lane 0).
    has_arbiter: bool,
    /// Whole-run cost summary, computed at the end of an elastic run.
    cost: Option<CostSummary>,
    /// Host-time attribution of the driver's barrier-time cluster handlers
    /// (rebalance, elastic, market) when `observe.profile` is on. Every
    /// cluster event is timed: they are rare.
    cluster_profile: Option<Box<PhaseSampler>>,
    /// The driver-side cluster event journal when `observe.timeline` is on.
    /// Recording is observation-only: no hook consumes RNG draws or schedules
    /// events, so a journaled run is bit-identical to an unjournaled one.
    journal: Option<Box<Journal>>,
    /// The last spot-price multiplier journaled (NaN before the first market
    /// tick), so `PriceStep` events record changes, not every tick.
    last_price: f64,
}

/// Engine-internal elastic-fleet bookkeeping: per-class lifecycle counters and
/// billed GPU-time, plus the busy-time window for the policy observation.
struct ElasticState {
    catalog: WorkerClassCatalog,
    max_fleet: usize,
    decide_interval_us: SimTime,
    /// Per class: boot delay in µs.
    boot_delay_us: Vec<SimTime>,
    /// Per class: billed warm GPU-microseconds (accrued at retirement and at
    /// the end of the run).
    class_gpu_us: Vec<u64>,
    /// Per class: multiplier-weighted billed microseconds — what dollars are
    /// computed from. Without a price schedule this equals `class_gpu_us`
    /// exactly (integer-valued f64 sums are exact far below 2^53), so
    /// flat-price runs bill bit-identically to the pre-market engine.
    class_weighted_us: Vec<f64>,
    /// Per class: workers provisioned over the run (initial fleet excluded).
    provisioned: Vec<u64>,
    /// Per class: workers retired over the run.
    retired: Vec<u64>,
    /// Per class: workers revoked by the market over the run.
    revocations: Vec<u64>,
    /// Per class: provision requests denied by capacity stockouts.
    stockouts: Vec<u64>,
    /// Per class: current warm workers.
    warm: Vec<usize>,
    /// Per class: workers still booting.
    provisioning: Vec<usize>,
    /// Per class: workers finishing their in-flight batches after a
    /// *voluntary* (policy-initiated) drain.
    draining: Vec<usize>,
    /// Per class: workers force-draining after a market revocation. Kept out
    /// of `draining` so [`ElasticObservation::draining`] — the signal the
    /// autoscaler's voluntary-drain/idle logic reads — never counts capacity
    /// the provider took away.
    revoked_draining: Vec<usize>,
    /// Per class: peak concurrent warm workers.
    peak_warm: Vec<usize>,
    /// Total fleet busy-time at the previous elastic tick (window baseline).
    prev_busy_us: u64,
    /// Time of the previous elastic tick.
    last_tick_us: SimTime,
    /// Peak concurrent warm workers across the whole fleet.
    peak_fleet: usize,
}

impl ElasticState {
    fn new(config: &crate::elastic::ElasticSimConfig) -> Self {
        let n = config.catalog.len();
        let mut warm = vec![0usize; n];
        for &(class, count) in &config.initial {
            warm[class] += count;
        }
        let total_warm: usize = warm.iter().sum();
        Self {
            boot_delay_us: config
                .catalog
                .classes
                .iter()
                .map(|c| secs_to_us(c.boot_delay_s))
                .collect(),
            max_fleet: config.max_fleet,
            decide_interval_us: secs_to_us(config.decide_interval_s),
            class_gpu_us: vec![0; n],
            class_weighted_us: vec![0.0; n],
            provisioned: vec![0; n],
            retired: vec![0; n],
            revocations: vec![0; n],
            stockouts: vec![0; n],
            peak_warm: warm.clone(),
            warm,
            provisioning: vec![0; n],
            draining: vec![0; n],
            revoked_draining: vec![0; n],
            prev_busy_us: 0,
            last_tick_us: 0,
            peak_fleet: total_warm,
            catalog: config.catalog.clone(),
        }
    }

    /// Bill one worker's warm interval `[from, to)` to its class: raw
    /// GPU-microseconds always, dollars through the market's price schedule
    /// for spot classes. Inverted/empty intervals bill nothing — a revoked
    /// worker's `billed_from_us` is set to `SimTime::MAX` so every later
    /// accrual on it is a no-op.
    fn accrue(
        &mut self,
        market: Option<&crate::MarketConfig>,
        class: usize,
        from: SimTime,
        to: SimTime,
    ) {
        if to <= from {
            return;
        }
        self.class_gpu_us[class] += to - from;
        self.class_weighted_us[class] += match market {
            Some(m) if self.catalog.classes[class].spot => m.weighted_us(from, to),
            _ => (to - from) as f64,
        };
    }
}

/// Engine-internal cloud-market state: the config plus the market's own RNG
/// stream (decorrelated from every lane stream) and precomputed intervals.
struct MarketState {
    config: crate::MarketConfig,
    rng: StdRng,
    check_interval_us: SimTime,
    deadline_us: SimTime,
}

/// Index of the first arrival that is not finite, is negative, or is earlier
/// than its predecessor (`None` for a valid trace).
fn first_invalid_arrival(arrivals_s: &[f64]) -> Option<usize> {
    let mut prev = 0.0;
    arrivals_s.iter().position(|&s| {
        let invalid = !(s.is_finite() && s >= prev);
        prev = s;
        invalid
    })
}

impl<'a> Engine<'a> {
    /// Build the engine over one input per lane, rejecting an invalid arrival
    /// trace before anything runs.
    pub(crate) fn new(
        config: &'a SimConfig,
        inputs: Vec<LaneInput<'a>>,
    ) -> Result<Self, EngineError> {
        assert!(!inputs.is_empty(), "engine needs at least one pipeline");
        assert!(
            inputs.len() < FREE as usize,
            "lane count fits the owner tag"
        );
        for (lane, input) in inputs.iter().enumerate() {
            if let Some(index) = first_invalid_arrival(input.arrivals_s) {
                return Err(EngineError::InvalidArrivals { lane, index });
            }
        }
        // Elastic fleets can grow to `max_fleet`; compile the link tables for
        // that capacity so provisioned workers index them safely.
        let fleet_cap = config
            .elastic
            .as_ref()
            .map(|e| e.max_fleet.max(e.initial_fleet()))
            .unwrap_or(config.cluster_size);
        let lanes: Vec<LaneState<'a>> = inputs
            .iter()
            .enumerate()
            .map(|(i, input)| LaneState::new(input, config, i, fleet_cap))
            .collect();
        let end_time_us = lanes
            .iter()
            .map(|l| l.arrivals_s.last().map_or(0, |&s| secs_to_us(s)) + secs_to_us(config.drain_s))
            .max()
            .expect("at least one lane");
        // Fixed fleets are `cluster_size` identical reference-class workers;
        // elastic fleets start from the initial spec (warm at time zero,
        // billed from time zero — the pre-warmed bootstrap assumption).
        let (workers, elastic) = match &config.elastic {
            Some(spec) => {
                spec.validate().expect("elastic config must be valid");
                let mut workers = Vec::with_capacity(spec.initial_fleet());
                for &(class, count) in &spec.initial {
                    for _ in 0..count {
                        let id = WorkerId(workers.len());
                        let mut w = Worker::new(id);
                        w.class = class as u32;
                        w.perf_scale = spec.catalog.classes[class].latency_scale;
                        workers.push(w);
                    }
                }
                (workers, Some(ElasticState::new(spec)))
            }
            None => (
                (0..config.cluster_size)
                    .map(|i| Worker::new(WorkerId(i)))
                    .collect(),
                None,
            ),
        };
        let market = config
            .elastic
            .as_ref()
            .and_then(|spec| spec.market.as_ref())
            .map(|m| MarketState {
                config: m.clone(),
                rng: StdRng::seed_from_u64(config.seed ^ crate::market::MARKET_RNG_SALT),
                check_interval_us: secs_to_us(m.check_interval_s),
                deadline_us: secs_to_us(m.revocation_deadline_s),
            });
        let (min_hop_ms, max_hop_ms) = config.link_delays.hop_range_ms(config.network_delay_ms);
        let (shift, num_buckets) = config
            .calendar
            .resolve_for_range(ms_to_us(min_hop_ms), ms_to_us(max_hop_ms));
        let fleet_len = workers.len();
        // Each shard seeds its own periodic events and first arrival from its
        // lane-local seq stream; the per-lane relative order (control tick,
        // routing tick, metrics tick, first arrival) matches the historical
        // global seeding exactly.
        let shards: Vec<Shard<'a>> = lanes
            .into_iter()
            .enumerate()
            .map(|(i, lane)| Shard::new(lane, i as u32, config, shift, num_buckets))
            .collect();
        Ok(Self {
            config,
            shards,
            end_time_us,
            cluster: BinaryHeap::new(),
            cseq: 0,
            now: 0,
            cluster_events: 0,
            fleet: Fleet::new(workers),
            owner: (0..fleet_len).map(|_| AtomicU32::new(FREE)).collect(),
            rebalances: 0,
            migrations: 0,
            elastic,
            market,
            has_arbiter: false,
            cost: None,
            cluster_profile: config
                .observe
                .profile
                .then(|| Box::new(PhaseSampler::default())),
            journal: config.observe.timeline.then(|| Box::new(Journal::new())),
            last_price: f64::NAN,
        })
    }

    /// Append one cluster-journal event at driver time (no-op with the
    /// journal off).
    fn journal_record(&mut self, lane: u32, kind: JournalKind) {
        if let Some(j) = self.journal.as_mut() {
            j.record(self.now, lane, kind);
        }
    }

    /// The merged cluster event journal (`None` unless `observe.timeline`):
    /// absorbs every lane's plan-install journal into the driver's and
    /// imposes the global deterministic order.
    pub(crate) fn take_journal(&mut self) -> Option<Journal> {
        let mut journal = *self.journal.take()?;
        for shard in self.shards.iter_mut() {
            if let Some(lane) = shard.lane.journal.take() {
                journal.merge_from(*lane);
            }
        }
        journal.finish();
        Some(journal)
    }

    /// The driver's cluster-phase profile (None unless `observe.profile`).
    pub(crate) fn take_cluster_profile(&mut self) -> Option<crate::trace::PhaseProfile> {
        self.cluster_profile.take().map(|p| p.profile())
    }

    pub(crate) fn rebalances(&self) -> u64 {
        self.rebalances
    }

    pub(crate) fn migrations(&self) -> u64 {
        self.migrations
    }

    /// All events processed over the run: the cluster-level ones plus every
    /// lane's own (including swap completions of workers nobody owned).
    pub(crate) fn global_events(&self) -> u64 {
        self.cluster_events
            + self
                .shards
                .iter()
                .map(|s| s.lane.events_processed + s.unowned_events)
                .sum::<u64>()
    }

    /// Per-lane `(wall_s, barrier_wait_s)` observability: wall-clock seconds
    /// each shard spent executing events, and the estimated seconds it spent
    /// waiting on slower shards at epoch barriers.
    pub(crate) fn lane_timings(&self) -> Vec<(f64, f64)> {
        self.shards
            .iter()
            .map(|s| (s.wall_s, s.barrier_wait_s))
            .collect()
    }

    fn push_cluster(&mut self, time: SimTime, event: ClusterEvent) {
        self.cseq += 1;
        self.cluster.push(Reverse((time, self.cseq, event)));
    }

    /// Apply the initial partition: contiguous blocks of workers per lane, in
    /// lane order. Workers beyond the partition sum stay `FREE`.
    fn init_partition(&mut self, sizes: &[usize]) {
        debug_assert_eq!(sizes.len(), self.shards.len());
        let mut next = 0usize;
        for (li, &count) in sizes.iter().enumerate() {
            let take = count.min(self.fleet.len().saturating_sub(next));
            for w in next..next + take {
                self.owner[w].store(li as u32, Ordering::Relaxed);
            }
            next += take;
        }
        self.rebuild_owned_lists();
        for shard in self.shards.iter_mut() {
            shard.lane.current.cluster_size = shard.lane.owned.len();
        }
    }

    /// A lane's warm (dispatchable) owned workers — the units partitions are
    /// measured in.
    fn lane_warm_count(&self, shard: &Shard<'_>) -> usize {
        shard
            .lane
            .owned
            .iter()
            .filter(|w| self.fleet.get(w.index()).accepts_dispatches())
            .count()
    }

    /// Rebuild every lane's `owned` list from the owner map.
    fn rebuild_owned_lists(&mut self) {
        for shard in self.shards.iter_mut() {
            shard.lane.owned.clear();
        }
        for (w, o) in self.owner.iter().enumerate() {
            let o = o.load(Ordering::Relaxed);
            if o != FREE {
                self.shards[o as usize].lane.owned.push(WorkerId(w));
            }
        }
    }

    /// Advance every shard to `bound` — on `jobs` worker threads when asked
    /// and useful, inline in lane order otherwise — then (back on one thread)
    /// account barrier waits and merge the shards' buffered retirements into
    /// the cluster's elastic accounting.
    fn run_shards_until(
        &mut self,
        bound: SimTime,
        jobs: usize,
        controllers: &mut [&mut dyn Controller],
    ) -> Result<(), EngineError> {
        let ctx = LaneCtx {
            config: self.config,
            fleet: &self.fleet,
            owner: &self.owner,
            end_time_us: self.end_time_us,
        };
        let shards = &mut self.shards;
        if jobs > 1 && shards.len() > 1 {
            let work: Vec<(&mut Shard<'a>, &mut dyn Controller)> = shards
                .iter_mut()
                .zip(controllers.iter_mut().map(|c| &mut **c))
                .collect();
            for outcome in par_map(work, jobs, |(shard, controller)| {
                shard.run_until(bound, &ctx, controller)
            }) {
                outcome?;
            }
        } else {
            for (shard, controller) in shards.iter_mut().zip(controllers.iter_mut()) {
                shard.run_until(bound, &ctx, &mut **controller)?;
            }
        }
        // Barrier-wait accounting: each shard waits (at most) for the slowest
        // shard of the epoch.
        let slowest = shards
            .iter()
            .map(|s| s.epoch_wall_s)
            .fold(0.0_f64, f64::max);
        for shard in shards.iter_mut() {
            shard.barrier_wait_s += (slowest - shard.epoch_wall_s).max(0.0);
        }
        // Merge mid-epoch retirements (drained workers whose last batch
        // completed inside a shard) into the cluster's elastic accounting, so
        // the next elastic tick observes exact lifecycle counts.
        let market = self.market.as_ref().map(|m| &m.config);
        let mut retired_events: Vec<(SimTime, u32, u32)> = Vec::new();
        for li in 0..self.shards.len() {
            if self.shards[li].retirements.is_empty() {
                continue;
            }
            let retirements = std::mem::take(&mut self.shards[li].retirements);
            if let Some(e) = self.elastic.as_mut() {
                for (worker, class, from_us, to_us) in retirements {
                    let class = class as usize;
                    // `from == MAX` marks a revoked worker: its billing
                    // already stopped (the accrual below is a no-op) and its
                    // lifecycle count lives in the revoked pool, invisible to
                    // the policy's voluntary-drain accounting.
                    if from_us == SimTime::MAX {
                        e.revoked_draining[class] -= 1;
                    } else {
                        e.draining[class] -= 1;
                    }
                    e.retired[class] += 1;
                    e.accrue(market, class, from_us, to_us);
                    if self.journal.is_some() {
                        retired_events.push((to_us, worker, class as u32));
                    }
                }
            }
        }
        // Journal the mid-epoch retirements at their own timestamps (the
        // driver's clock still reads the previous barrier here). Lanes merge
        // in index order on this one thread, so the recording sequence — the
        // sort tiebreaker for equal-time retirements — is independent of
        // `jobs`.
        if let Some(j) = self.journal.as_mut() {
            for (to_us, worker, class) in retired_events {
                j.record(to_us, CLUSTER_LANE, JournalKind::Retire { worker, class });
            }
        }
        Ok(())
    }

    /// Run the simulation: advance the shards epoch by epoch, applying cluster
    /// events at each barrier. Cluster events at a boundary run before
    /// same-timestamp lane events (shards stop *before* the barrier time),
    /// matching the schedule order of the historical single-heap engine.
    pub(crate) fn run(
        &mut self,
        controllers: &mut [&mut dyn Controller],
        mut arbiter: Option<&mut dyn ResourceArbiter>,
        mut provisioner: Option<&mut dyn ElasticPolicy>,
        jobs: usize,
    ) -> Result<Vec<SimResult>, EngineError> {
        assert_eq!(
            controllers.len(),
            self.shards.len(),
            "one controller per pipeline"
        );
        assert!(
            arbiter.is_some() || self.shards.len() == 1,
            "multi-pipeline runs need a resource arbiter"
        );
        assert!(
            provisioner.is_none() || self.elastic.is_some(),
            "an elastic policy needs SimConfig::elastic"
        );
        self.has_arbiter = arbiter.is_some();

        // Establish the initial partition before any event runs, so every
        // lane's first control tick sees its capacity-scoped worker set.
        match arbiter.as_mut() {
            Some(arb) => {
                let sizes = self.arbiter_partition(&mut **arb, true);
                let sizes =
                    sizes.unwrap_or_else(|| even_partition(self.shards.len(), self.fleet.len()));
                self.init_partition(&sizes);
                let first = secs_to_us(arb.rebalance_interval_s());
                if first <= self.end_time_us {
                    self.push_cluster(first, ClusterEvent::Rebalance);
                }
            }
            None => self.init_partition(&[self.fleet.len()]),
        }
        // Seed the fleet-scaling cadence. The first tick fires one interval
        // in: at time zero the initial fleet is the policy's starting point
        // and no observation window exists yet.
        if provisioner.is_some() {
            let first = self
                .elastic
                .as_ref()
                .expect("asserted above")
                .decide_interval_us;
            if first <= self.end_time_us {
                self.push_cluster(first, ClusterEvent::ElasticTick);
            }
        }
        // Seed the market's revocation process. Independent of whether a
        // provisioner runs: revocations are the provider's events, outside
        // any policy's control. A zero rate schedules nothing, keeping such
        // runs bit-identical to market-less ones.
        if let Some(m) = self.market.as_ref() {
            if m.config.revokes() {
                let first = m.check_interval_us;
                if first <= self.end_time_us {
                    self.push_cluster(first, ClusterEvent::MarketTick);
                }
            }
        }

        loop {
            let bound = self.cluster.peek().map(|&Reverse((t, _, _))| t);
            match bound {
                Some(t) if t <= self.end_time_us => {
                    // Advance every shard to the barrier, then apply all
                    // cluster events scheduled at it, in schedule order.
                    self.run_shards_until(t, jobs, controllers)?;
                    self.now = t;
                    for shard in self.shards.iter_mut() {
                        shard.now = t;
                    }
                    while let Some(&Reverse((ct, _, _))) = self.cluster.peek() {
                        if ct != t {
                            break;
                        }
                        let Reverse((_, _, event)) = self.cluster.pop().expect("peeked above");
                        let stamp = self.cluster_profile.is_some().then(Stamp::now);
                        let mut swap_lane = None;
                        match event {
                            ClusterEvent::Rebalance => {
                                self.cluster_events += 1;
                                if let Some(arb) = arbiter.as_mut() {
                                    self.on_rebalance(&mut **arb)?;
                                }
                            }
                            ClusterEvent::ElasticTick => {
                                self.cluster_events += 1;
                                if let Some(policy) = provisioner.as_mut() {
                                    self.on_elastic_tick(&mut **policy)?;
                                }
                            }
                            ClusterEvent::BootDone(worker) => {
                                self.cluster_events += 1;
                                self.on_boot_done(worker);
                            }
                            ClusterEvent::MarketTick => {
                                self.cluster_events += 1;
                                self.on_market_tick()?;
                            }
                            ClusterEvent::RevokeDeadline(worker) => {
                                self.cluster_events += 1;
                                self.on_revoke_deadline(worker)?;
                            }
                            ClusterEvent::SwapDone(worker) => {
                                // The worker was free when released but may
                                // have been claimed by a later rebalance.
                                let o = self.owner[worker.index()].load(Ordering::Relaxed);
                                if o == FREE {
                                    self.cluster_events += 1;
                                } else {
                                    self.shards[o as usize].lane.events_processed += 1;
                                    swap_lane = Some(o as usize);
                                }
                                self.kick(worker);
                            }
                        }
                        if let Some(stamp) = stamp {
                            let (sampler, phase) = match event {
                                ClusterEvent::Rebalance => {
                                    (self.cluster_profile.as_deref_mut(), Phase::Rebalance)
                                }
                                ClusterEvent::ElasticTick | ClusterEvent::BootDone(_) => {
                                    (self.cluster_profile.as_deref_mut(), Phase::Elastic)
                                }
                                ClusterEvent::MarketTick | ClusterEvent::RevokeDeadline(_) => {
                                    (self.cluster_profile.as_deref_mut(), Phase::Market)
                                }
                                // A swap on a worker a lane has claimed since
                                // is that lane's event, so its profile counts
                                // it; one on a free worker is no lane's event
                                // and does no lane work, so it is not profiled.
                                ClusterEvent::SwapDone(_) => (
                                    swap_lane.and_then(|o| self.shards[o].profile.as_deref_mut()),
                                    Phase::Swap,
                                ),
                            };
                            if let Some(sampler) = sampler {
                                sampler.record(phase, stamp);
                            }
                        }
                    }
                }
                // No cluster event left inside the horizon: run every shard to
                // the end of the simulation (events exactly at the end time
                // still run, as in the historical engine).
                _ => {
                    self.run_shards_until(self.end_time_us.saturating_add(1), jobs, controllers)?;
                    break;
                }
            }
        }

        // Anything still outstanding when the run ends counts as dropped.
        // Intervals close at the run-global last event time, as the
        // single-heap engine's did.
        let final_now = self
            .shards
            .iter()
            .map(|s| s.now)
            .fold(self.now, SimTime::max);
        for shard in self.shards.iter_mut() {
            let lane = &mut shard.lane;
            let current = &mut lane.current;
            let mut tracer = lane.tracer.as_deref_mut();
            lane.roots.drain_with(|state| {
                current.dropped += 1;
                // A root still in flight at run end keeps the cause of the
                // branch it already lost, if any; otherwise it simply ran out
                // of time.
                match state.drop_cause {
                    c if c == crate::shard::DropCause::Reclaimed as u8 => {
                        current.dropped_reclaimed += 1
                    }
                    c if c == crate::shard::DropCause::Revoked as u8 => {
                        current.dropped_revoked += 1
                    }
                    _ => current.dropped_deadline += 1,
                }
                if state.trace_slot != u32::MAX {
                    if let Some(t) = tracer.as_deref_mut() {
                        t.finish(state.trace_slot, final_now, true);
                    }
                }
            });
        }
        for shard in self.shards.iter_mut() {
            shard.flush_interval(&self.fleet, self.config.metrics_interval_s, final_now);
        }

        let mut out = Vec::with_capacity(self.shards.len());
        for (li, shard) in self.shards.iter_mut().enumerate() {
            let name = controllers[li].name().to_string();
            let mut summary = RunSummary::from_intervals(
                &name,
                &shard.lane.intervals,
                self.config.metrics_interval_s,
            );
            summary.events_processed = shard.lane.events_processed;
            let latency = shard.lane.hists.take().map(|b| *b);
            if let Some(l) = &latency {
                [
                    summary.p50_ms,
                    summary.p90_ms,
                    summary.p99_ms,
                    summary.p999_ms,
                ] = l.e2e.percentiles_ms();
            }
            out.push(SimResult {
                intervals: std::mem::take(&mut shard.lane.intervals),
                summary,
                cost: None,
                latency,
                trace: shard
                    .lane
                    .tracer
                    .take()
                    .map(|t| crate::trace::TraceLog { roots: t.roots }),
                profile: shard.profile.take().map(|p| p.profile()),
                window: self
                    .config
                    .observe
                    .timeline
                    .then(|| std::mem::take(&mut shard.lane.window_hists)),
                journal: None,
            });
        }
        self.finish_cost(&out);
        Ok(out)
    }

    /// Close out fleet billing at the end of an elastic run: every worker
    /// still warm or draining is billed through the end of the run, and the
    /// per-class GPU-time turns into the whole-run [`CostSummary`].
    fn finish_cost(&mut self, results: &[SimResult]) {
        let market = self.market.as_ref().map(|m| &m.config);
        let Some(e) = self.elastic.as_mut() else {
            return;
        };
        for w in self.fleet.iter() {
            if matches!(w.lifecycle, Lifecycle::Warm | Lifecycle::Draining) {
                let class = w.class as usize;
                let (from, to) = (w.billed_from_us, self.end_time_us);
                e.accrue(market, class, from, to);
            }
        }
        let served: u64 = results
            .iter()
            .map(|r| r.summary.total_on_time + r.summary.total_late)
            .sum();
        let mut per_class = Vec::with_capacity(e.catalog.len());
        let mut total_gpu_seconds = 0.0;
        let mut total_dollars = 0.0;
        let mut spot_dollars = 0.0;
        let mut ondemand_dollars = 0.0;
        for (i, class) in e.catalog.classes.iter().enumerate() {
            let gpu_seconds = crate::types::us_to_secs(e.class_gpu_us[i]);
            // Dollars come from the *weighted* microseconds so spot price
            // schedules bill through; without a schedule the two accumulators
            // are exactly equal and this reproduces the flat-price billing.
            let dollars = e.class_weighted_us[i] / 1e6 / 3600.0 * class.price_per_hour;
            total_gpu_seconds += gpu_seconds;
            total_dollars += dollars;
            if class.spot {
                spot_dollars += dollars;
            } else {
                ondemand_dollars += dollars;
            }
            per_class.push(ClassCost {
                class: class.name.clone(),
                gpu_seconds,
                dollars,
                peak_warm: e.peak_warm[i],
                provisioned: e.provisioned[i],
                retired: e.retired[i],
                spot: class.spot,
                revocations: e.revocations[i],
                stockouts: e.stockouts[i],
            });
        }
        self.cost = Some(CostSummary {
            per_class,
            total_gpu_seconds,
            total_dollars,
            served_queries: served,
            cost_per_1k_queries: if served == 0 {
                0.0
            } else {
                total_dollars / (served as f64 / 1000.0)
            },
            peak_fleet: e.peak_fleet,
            revocations: e.revocations.iter().sum(),
            stockouts: e.stockouts.iter().sum(),
            spot_dollars,
            ondemand_dollars,
        });
    }

    /// Take the whole-run cost summary (elastic runs only; `None` otherwise).
    pub(crate) fn take_cost(&mut self) -> Option<CostSummary> {
        self.cost.take()
    }

    /// Cumulative billed dollars through `now`, computed *read-only* for the
    /// journal's `CostSample` events: the per-class weighted time already
    /// accrued, plus each live worker's open warm interval, priced exactly as
    /// [`Engine::finish_cost`] prices closed ones. (A revoked worker's
    /// `billed_from_us` sentinel makes its open interval empty.)
    fn billed_dollars(&self, now: SimTime) -> f64 {
        let Some(e) = self.elastic.as_ref() else {
            return 0.0;
        };
        let market = self.market.as_ref().map(|m| &m.config);
        let mut weighted = e.class_weighted_us.clone();
        for w in self.fleet.iter() {
            if !matches!(w.lifecycle, Lifecycle::Warm | Lifecycle::Draining) {
                continue;
            }
            let (from, to) = (w.billed_from_us, now);
            if to <= from {
                continue;
            }
            let class = w.class as usize;
            weighted[class] += match market {
                Some(m) if e.catalog.classes[class].spot => m.weighted_us(from, to),
                _ => (to - from) as f64,
            };
        }
        weighted
            .iter()
            .zip(e.catalog.classes.iter())
            .map(|(us, class)| us / 1e6 / 3600.0 * class.price_per_hour)
            .sum()
    }

    // ---- cluster arbitration -----------------------------------------------------

    /// Ask the arbiter for a target partition. `initial` uses the demand hints
    /// (nothing has been observed yet).
    fn arbiter_partition(
        &mut self,
        arbiter: &mut dyn ResourceArbiter,
        initial: bool,
    ) -> Option<Vec<usize>> {
        // Partitions are reported (and targeted) in *warm* workers: a lane's
        // draining workers are leaving and must neither pad its share in the
        // arbiter's eyes nor count against a warm-sized target when the
        // partition is applied (for fixed fleets owned == warm).
        let partition: Vec<usize> = self
            .shards
            .iter()
            .map(|s| self.lane_warm_count(s))
            .collect();
        let demand_qps: Vec<f64> = self
            .shards
            .iter()
            .map(|s| {
                if initial {
                    s.lane.initial_demand_hint.unwrap_or(0.0)
                } else {
                    s.lane.demand_estimate()
                }
            })
            .collect();
        let slo_ms: Vec<f64> = self.shards.iter().map(|s| s.lane.slo_ms()).collect();
        let num_tasks: Vec<usize> = self.shards.iter().map(|s| s.lane.num_tasks).collect();
        let queued: Vec<usize> = self
            .shards
            .iter()
            .map(|s| {
                s.lane
                    .owned
                    .iter()
                    .map(|w| self.fleet.get(w.index()).queue_len())
                    .sum()
            })
            .collect();
        // The partitionable fleet is the warm workers — elastic fleets change
        // size between epochs (boots add capacity, drains remove it), and the
        // arbiter must tolerate that; for fixed fleets this is `cluster_size`.
        let usable = self.fleet.iter().filter(|w| w.accepts_dispatches()).count();
        let observation = ArbiterObservation {
            now_s: crate::types::us_to_secs(self.now),
            cluster_size: usable,
            partition: &partition,
            demand_qps: &demand_qps,
            slo_ms: &slo_ms,
            num_tasks: &num_tasks,
            queued: &queued,
        };
        let mut target = arbiter.partition(&observation)?;
        assert_eq!(
            target.len(),
            self.shards.len(),
            "arbiter must size every pipeline"
        );
        // Never exceed the physical cluster: trim the largest shares first.
        let mut total: usize = target.iter().sum();
        while total > usable {
            if let Some(max) = target.iter_mut().max() {
                *max -= 1;
                total -= 1;
            } else {
                break;
            }
        }
        Some(target)
    }

    fn on_rebalance(&mut self, arbiter: &mut dyn ResourceArbiter) -> Result<(), EngineError> {
        if let Some(target) = self.arbiter_partition(arbiter, false) {
            let moved = self.apply_partition(&target)?;
            if moved > 0 {
                self.rebalances += 1;
                self.migrations += moved as u64;
                self.journal_record(
                    CLUSTER_LANE,
                    JournalKind::Rebalance {
                        epoch: self.rebalances,
                        moved: moved as u64,
                        reason: arbiter.decision_reason(),
                    },
                );
            }
        }
        let next = self.now + secs_to_us(arbiter.rebalance_interval_s());
        if next <= self.end_time_us {
            self.push_cluster(next, ClusterEvent::Rebalance);
        }
        Ok(())
    }

    /// Move workers between lanes until the owned counts match `target`.
    /// Returns the number of workers that changed lanes.
    ///
    /// Shrinking lanes release idle capacity first (unassigned workers, then
    /// the assigned worker with the shortest queue, ties by index); released
    /// workers join the free pool, and growing lanes claim from it in lane
    /// order, ascending worker index. A released worker's queued queries are
    /// re-homed inside its old lane (or dropped if the lane has no server for
    /// the task left), and a worker that was hosting a model pays the
    /// model-unload cooldown (`SimConfig::model_swap_ms`) as a scheduled
    /// `SwapDone` event before its new lane can batch on it.
    ///
    /// Only workers with no in-flight batch are migrated: a moved worker's
    /// pending completion would otherwise fire inside the *old* lane's shard
    /// while the new lane batches on the worker — the one cross-lane coupling
    /// the epoch model cannot serialize. (Every mid-batch worker frees up by
    /// the next rebalance; its migration is deferred, not lost.)
    fn apply_partition(&mut self, target: &[usize]) -> Result<usize, EngineError> {
        // Warm counts, matching the units of the arbiter's target: a lane
        // holding draining workers is not over its target by their number,
        // and must not release warm capacity it is still entitled to.
        let current: Vec<usize> = self
            .shards
            .iter()
            .map(|s| self.lane_warm_count(s))
            .collect();
        if current == target {
            return Ok(0);
        }
        let owner_before: Vec<u32> = self
            .owner
            .iter()
            .map(|o| o.load(Ordering::Relaxed))
            .collect();
        // Phase 1: shrinking lanes release workers into the free pool.
        let mut orphans: Vec<(usize, Query)> = Vec::new();
        let mut swapped: Vec<(WorkerId, SimTime)> = Vec::new();
        let mut shrunk: Vec<usize> = Vec::new();
        for li in 0..self.shards.len() {
            if current[li] <= target[li] {
                continue;
            }
            let surplus = current[li] - target[li];
            // Rank owned workers: unassigned first, then by (queue length,
            // index) — migrate the idlest capacity, keep the busy servers.
            // Draining workers are not released (they are already leaving);
            // neither are workers mid-batch (see the method docs).
            let mut candidates: Vec<WorkerId> = self.shards[li]
                .lane
                .owned
                .iter()
                .copied()
                .filter(|w| {
                    let worker = self.fleet.get(w.index());
                    worker.accepts_dispatches() && !worker.has_in_flight()
                })
                .collect();
            candidates.sort_by_key(|w| {
                let worker = self.fleet.get(w.index());
                (
                    worker.assignment.is_some() as u8,
                    worker.queue_len(),
                    w.index(),
                )
            });
            for &w in candidates.iter().take(surplus) {
                let wi = w.index();
                let had_model = self.fleet.get(wi).assignment.is_some();
                for q in self.fleet.get_mut(wi).drain_queue() {
                    orphans.push((li, q));
                }
                self.fleet.get_mut(wi).unassign();
                if had_model && self.config.model_swap_ms > 0.0 {
                    // First-class reassignment event: the model-unload
                    // cooldown before any lane can batch on this worker. The
                    // event is scheduled after phase 2, once the worker's new
                    // owner (a claiming lane, or the free pool) is known.
                    let until = self.now + ms_to_us(self.config.model_swap_ms);
                    self.fleet.get_mut(wi).begin_swap(until);
                    swapped.push((w, until));
                }
                self.owner[wi].store(FREE, Ordering::Relaxed);
            }
            shrunk.push(li);
        }
        // Phase 2: growing lanes claim from the free pool, ascending index.
        // Only warm workers are claimable: booting, draining, and retired
        // slots carry the FREE tag but are not capacity.
        let mut pool: Vec<usize> = (0..self.fleet.len())
            .filter(|&w| {
                self.owner[w].load(Ordering::Relaxed) == FREE
                    && self.fleet.get(w).accepts_dispatches()
            })
            .collect();
        pool.sort_unstable();
        let mut pool = pool.into_iter();
        let mut grown: Vec<usize> = Vec::new();
        for li in 0..self.shards.len() {
            if current[li] >= target[li] {
                continue;
            }
            let mut need = target[li] - current[li];
            while need > 0 {
                let Some(w) = pool.next() else { break };
                self.owner[w].store(li as u32, Ordering::Relaxed);
                need -= 1;
            }
            grown.push(li);
        }
        // A migration is a worker whose owner actually changed over the whole
        // tick (released-and-reclaimed counts once; shrink-only targets that
        // park workers in the free pool still count their releases).
        let moved = owner_before
            .iter()
            .zip(self.owner.iter())
            .filter(|(before, after)| **before != after.load(Ordering::Relaxed))
            .count();
        // Journal every worker whose owner changed (`FREE` doubles as
        // `CLUSTER_LANE`: a release to the free pool reads as a migration to
        // the cluster, a claim as one from it).
        if self.journal.is_some() {
            for (w, &before) in owner_before.iter().enumerate() {
                let after = self.owner[w].load(Ordering::Relaxed);
                if before != after {
                    self.journal_record(
                        CLUSTER_LANE,
                        JournalKind::Migration {
                            worker: w as u32,
                            from_lane: before,
                            to_lane: after,
                        },
                    );
                }
            }
        }
        // Phase 3: refresh the affected lanes' views of their partitions.
        self.rebuild_owned_lists();
        for &li in shrunk.iter().chain(grown.iter()) {
            self.shards[li].lane.assignments_epoch += 1;
            self.shards[li].rebuild_workers_by_task(&self.fleet);
        }
        // Schedule the unload cooldowns now that owners are settled: a
        // claimed worker's completion belongs on its new lane's queue (so the
        // lane can batch the moment the cooldown ends), a still-free worker's
        // on the cluster queue.
        for (w, until) in swapped {
            let o = self.owner[w.index()].load(Ordering::Relaxed);
            if o == FREE {
                self.push_cluster(until, ClusterEvent::SwapDone(w));
            } else {
                self.shards[o as usize].push(until, LaneEvent::SwapDone(w));
            }
        }
        // Phase 4: re-home queries stranded on released workers.
        for (li, q) in orphans {
            match fallback_worker_for_task(&self.shards[li].lane, &self.fleet, q.task) {
                Some(worker) => {
                    let mut q = q;
                    q.enqueued_us = self.now;
                    self.shards[li].trace_marker(q.root, crate::trace::SpanKind::Requeue, worker);
                    self.fleet.get_mut(worker.index()).enqueue(q);
                    self.kick(worker);
                }
                None => {
                    self.shards[li].drop_root_child(q.root, crate::shard::DropCause::Reclaimed)?
                }
            }
        }
        Ok(moved)
    }

    // ---- elastic fleet -----------------------------------------------------------

    /// A fleet-scaling tick: build the policy observation (per-class fleet
    /// counts, per-pipeline demand/backlog/window-attainment, window busy
    /// fraction), apply the returned actions, and schedule the next tick.
    fn on_elastic_tick(&mut self, policy: &mut dyn ElasticPolicy) -> Result<(), EngineError> {
        // Window busy fraction: busy time accrued since the previous tick over
        // warm capacity. Batch time is credited at batch start, so clamp.
        let busy_total: u64 = self.fleet.iter().map(|w| w.busy_time_us).sum();
        let demand_qps: Vec<f64> = self
            .shards
            .iter()
            .map(|s| s.lane.demand_estimate())
            .collect();
        let queued: Vec<usize> = self
            .shards
            .iter()
            .map(|s| {
                s.lane
                    .owned
                    .iter()
                    .map(|w| self.fleet.get(w.index()).queue_len())
                    .sum()
            })
            .collect();
        let window_attainment: Vec<f64> = self
            .shards
            .iter_mut()
            .map(|s| {
                let l = &mut s.lane;
                let attainment = if l.window_finished == 0 {
                    1.0
                } else {
                    l.window_on_time as f64 / l.window_finished as f64
                };
                l.window_on_time = 0;
                l.window_finished = 0;
                attainment
            })
            .collect();
        let e = self.elastic.as_mut().expect("elastic tick without config");
        let window_us = self.now.saturating_sub(e.last_tick_us);
        let warm_total: usize = e.warm.iter().sum();
        let busy_fraction = if warm_total > 0 && window_us > 0 {
            (busy_total.saturating_sub(e.prev_busy_us) as f64
                / (warm_total as f64 * window_us as f64))
                .min(1.0)
        } else {
            0.0
        };
        e.prev_busy_us = busy_total;
        e.last_tick_us = self.now;

        let active = self
            .fleet
            .iter()
            .filter(|w| w.accepts_dispatches() && w.is_active())
            .count();
        let spot_price_multiplier = self
            .market
            .as_ref()
            .map(|m| m.config.multiplier_at(crate::types::us_to_secs(self.now)))
            .unwrap_or(1.0);
        let e = self.elastic.as_ref().expect("elastic tick without config");
        let observation = ElasticObservation {
            now_s: crate::types::us_to_secs(self.now),
            classes: &e.catalog.classes,
            warm: &e.warm,
            active,
            provisioning: &e.provisioning,
            draining: &e.draining,
            demand_qps: &demand_qps,
            queued: &queued,
            window_attainment: &window_attainment,
            busy_fraction,
            max_fleet: e.max_fleet,
            revocations: e.revocations.iter().sum(),
            stockouts: e.stockouts.iter().sum(),
            spot_price_multiplier,
        };
        let actions = policy.decide(&observation);
        let next = self.now + e.decide_interval_us;
        if self.journal.is_some() {
            // Sample the fleet and cumulative bill first (the tick's observed
            // state), then the policy's decisions with their stated reasons.
            let warm = warm_total as u32;
            let dollars = self.billed_dollars(self.now);
            self.journal_record(CLUSTER_LANE, JournalKind::CostSample { warm, dollars });
            let reasons = policy.last_reasons();
            for (i, action) in actions.iter().enumerate() {
                let (provision, class, count) = match *action {
                    ElasticAction::Provision { class, count } => (true, class, count),
                    ElasticAction::Drain { class, count } => (false, class, count),
                };
                self.journal_record(
                    CLUSTER_LANE,
                    JournalKind::AutoscaleDecision {
                        provision,
                        class: class as u32,
                        count: count as u32,
                        reason: reasons
                            .get(i)
                            .copied()
                            .unwrap_or(crate::elastic::DecisionReason::Unspecified),
                    },
                );
            }
        }
        for action in actions {
            match action {
                ElasticAction::Provision { class, count } => self.apply_provision(class, count),
                ElasticAction::Drain { class, count } => self.apply_drain(class, count)?,
            }
        }
        if next <= self.end_time_us {
            self.push_cluster(next, ClusterEvent::ElasticTick);
        }
        Ok(())
    }

    /// Start `count` workers of `class` booting; clamped to the fleet bound
    /// (live = provisioning + warm + draining; retired slots do not count).
    /// With a market attached, each requested *spot* worker may be denied by
    /// a capacity stockout before admission.
    fn apply_provision(&mut self, class: usize, count: usize) {
        {
            let e = self.elastic.as_ref().expect("provision without config");
            assert!(
                class < e.catalog.len(),
                "provision references class {class} outside the {}-class catalog",
                e.catalog.len()
            );
        }
        let requested = count;
        let mut count = count;
        if let (Some(m), Some(e)) = (self.market.as_mut(), self.elastic.as_mut()) {
            let p = m.config.stockout_probability;
            if p > 0.0 && e.catalog.classes[class].spot {
                let mut granted = 0usize;
                for _ in 0..count {
                    if m.rng.gen::<f64>() < p {
                        e.stockouts[class] += 1;
                    } else {
                        granted += 1;
                    }
                }
                count = granted;
            }
        }
        if requested > count {
            self.journal_record(
                CLUSTER_LANE,
                JournalKind::Stockout {
                    class: class as u32,
                    denied: (requested - count) as u32,
                },
            );
        }
        let e = self.elastic.as_mut().expect("provision without config");
        let live = self
            .fleet
            .iter()
            .filter(|w| w.lifecycle != Lifecycle::Retired)
            .count();
        let take = count.min(e.max_fleet.saturating_sub(live));
        let boot_delay = e.boot_delay_us[class];
        let perf_scale = e.catalog.classes[class].latency_scale;
        for _ in 0..take {
            let id = WorkerId(self.fleet.len());
            self.fleet
                .push(Worker::provisioning(id, class as u32, perf_scale));
            self.owner.push(AtomicU32::new(FREE));
            e.provisioning[class] += 1;
            e.provisioned[class] += 1;
            // Inline `push_cluster` (no method call: `e` holds a field borrow).
            self.cseq += 1;
            self.cluster.push(Reverse((
                self.now + boot_delay,
                self.cseq,
                ClusterEvent::BootDone(id),
            )));
        }
    }

    /// A provisioned worker finished booting: it turns warm and billing
    /// starts now — never before (pinned by the elasticity-invariant tests).
    /// Without an arbiter, lane 0 adopts it immediately; with one, it waits
    /// in the free pool for the next rebalance to claim it.
    fn on_boot_done(&mut self, worker: WorkerId) {
        let wi = worker.index();
        let class = {
            let w = self.fleet.get_mut(wi);
            debug_assert_eq!(w.lifecycle, Lifecycle::Provisioning);
            w.lifecycle = Lifecycle::Warm;
            w.billed_from_us = self.now;
            w.class as usize
        };
        let e = self.elastic.as_mut().expect("boot without config");
        e.provisioning[class] -= 1;
        e.warm[class] += 1;
        e.peak_warm[class] = e.peak_warm[class].max(e.warm[class]);
        let warm_total: usize = e.warm.iter().sum();
        e.peak_fleet = e.peak_fleet.max(warm_total);
        self.journal_record(
            CLUSTER_LANE,
            JournalKind::Boot {
                worker: wi as u32,
                class: class as u32,
            },
        );
        if !self.has_arbiter {
            self.owner[wi].store(0, Ordering::Relaxed);
            // Worker ids grow monotonically, so pushing keeps `owned` sorted.
            self.shards[0].lane.owned.push(worker);
            // No epoch bump: an unassigned worker appears in no routing table;
            // the lane's next control tick will see (and use) the capacity.
        }
    }

    /// Drain `count` warm workers of `class`: idlest first (unassigned, then
    /// shortest queue, ties by index). Queued queries are re-homed inside the
    /// owner lane; workers without an in-flight batch retire immediately, the
    /// rest at their batch completion (inside their owner's shard, buffered
    /// into `Shard::retirements` and merged at the next barrier).
    fn apply_drain(&mut self, class: usize, count: usize) -> Result<(), EngineError> {
        let e = self.elastic.as_ref().expect("drain without config");
        assert!(
            class < e.catalog.len(),
            "drain references class {class} outside the {}-class catalog",
            e.catalog.len()
        );
        let mut candidates: Vec<WorkerId> = self
            .fleet
            .iter()
            .filter(|w| w.lifecycle == Lifecycle::Warm && w.class == class as u32)
            .map(|w| w.id)
            .collect();
        candidates.sort_by_key(|w| {
            let worker = self.fleet.get(w.index());
            (
                worker.assignment.is_some() as u8,
                worker.queue_len(),
                w.index(),
            )
        });
        let mut orphans: Vec<(u32, Query)> = Vec::new();
        let mut touched: Vec<usize> = Vec::new();
        for &w in candidates.iter().take(count) {
            let wi = w.index();
            let lane = self.owner[wi].load(Ordering::Relaxed);
            let e = self.elastic.as_mut().expect("drain without config");
            e.warm[class] -= 1;
            e.draining[class] += 1;
            self.journal_record(
                CLUSTER_LANE,
                JournalKind::DrainStart {
                    worker: wi as u32,
                    class: class as u32,
                },
            );
            self.fleet.get_mut(wi).begin_drain();
            for q in self.fleet.get_mut(wi).drain_queue() {
                orphans.push((lane, q));
            }
            if lane != FREE && !touched.contains(&(lane as usize)) {
                touched.push(lane as usize);
            }
            if !self.fleet.get(wi).has_in_flight() {
                self.retire_worker(w);
            }
        }
        // Invalidate the touched lanes' routing state *before* re-homing, so
        // the fallback path cannot hand a query back to a draining worker.
        for &li in &touched {
            self.shards[li].lane.assignments_epoch += 1;
            self.shards[li].rebuild_workers_by_task(&self.fleet);
        }
        for (lane, q) in orphans {
            debug_assert_ne!(lane, FREE, "a free worker cannot hold queued queries");
            let li = lane as usize;
            match fallback_worker_for_task(&self.shards[li].lane, &self.fleet, q.task) {
                Some(target) => {
                    let mut q = q;
                    q.enqueued_us = self.now;
                    self.shards[li].trace_marker(q.root, crate::trace::SpanKind::Requeue, target);
                    self.fleet.get_mut(target.index()).enqueue(q);
                    self.kick(target);
                }
                None => {
                    self.shards[li].drop_root_child(q.root, crate::shard::DropCause::Reclaimed)?
                }
            }
        }
        Ok(())
    }

    /// Finish a drained worker at a barrier: stop billing, free its slot's
    /// ownership, and drop it from its lane's routing state. The slot itself
    /// is never reused, so `WorkerId`s stay stable for the whole run.
    /// (Mid-epoch retirements take the shard-local path instead.)
    fn retire_worker(&mut self, worker: WorkerId) {
        let wi = worker.index();
        let (class, billed_from) = {
            let w = self.fleet.get_mut(wi);
            debug_assert_eq!(w.lifecycle, Lifecycle::Draining);
            let class = w.class as usize;
            let billed_from = w.billed_from_us;
            w.lifecycle = Lifecycle::Retired;
            w.unassign();
            (class, billed_from)
        };
        let market = self.market.as_ref().map(|m| &m.config);
        let e = self.elastic.as_mut().expect("retire without config");
        if billed_from == SimTime::MAX {
            e.revoked_draining[class] -= 1;
        } else {
            e.draining[class] -= 1;
        }
        e.retired[class] += 1;
        e.accrue(market, class, billed_from, self.now);
        self.journal_record(
            CLUSTER_LANE,
            JournalKind::Retire {
                worker: wi as u32,
                class: class as u32,
            },
        );
        let lane = self.owner[wi].load(Ordering::Relaxed);
        if lane != FREE {
            self.owner[wi].store(FREE, Ordering::Relaxed);
            self.rebuild_owned_lists();
            self.shards[lane as usize].lane.assignments_epoch += 1;
            self.shards[lane as usize].rebuild_workers_by_task(&self.fleet);
        }
    }

    // ---- cloud market ------------------------------------------------------------

    /// A market tick: draw spot revocations. Warm spot-class workers are
    /// visited in ascending fleet index — a fixed order, so the draw sequence
    /// is a pure function of the seed — and each is revoked independently
    /// with the config's per-tick probability. Runs at an epoch barrier on
    /// the driver thread, so `jobs > 1` runs stay bit-identical.
    fn on_market_tick(&mut self) -> Result<(), EngineError> {
        if self.journal.is_some() {
            let multiplier = self
                .market
                .as_ref()
                .expect("market tick without market")
                .config
                .multiplier_at(crate::types::us_to_secs(self.now));
            // NaN-initialised, so the first tick records the starting price.
            if multiplier != self.last_price {
                self.last_price = multiplier;
                self.journal_record(CLUSTER_LANE, JournalKind::PriceStep { multiplier });
            }
        }
        let mut revoked: Vec<WorkerId> = Vec::new();
        let (deadline_us, interval_us) = {
            let e = self.elastic.as_ref().expect("market tick without elastic");
            let m = self.market.as_mut().expect("market tick without market");
            let p = m.config.revocation_probability();
            for w in self.fleet.iter() {
                if w.lifecycle == Lifecycle::Warm
                    && e.catalog.classes[w.class as usize].spot
                    && m.rng.gen::<f64>() < p
                {
                    revoked.push(w.id);
                }
            }
            (m.deadline_us, m.check_interval_us)
        };
        for w in revoked {
            self.revoke_worker(w, deadline_us)?;
        }
        let next = self.now + interval_us;
        if next <= self.end_time_us {
            self.push_cluster(next, ClusterEvent::MarketTick);
        }
        Ok(())
    }

    /// Revoke one warm spot worker: billing stops *now* (the warm interval is
    /// accrued and `billed_from_us` becomes the `SimTime::MAX` sentinel, so
    /// every later accrual on it is a no-op), queued queries are re-homed
    /// inside the owner lane, and the worker force-drains on the market's
    /// grace deadline. The lifecycle moves through the revoked pool — a
    /// provider event, never the policy's voluntary-drain accounting.
    fn revoke_worker(&mut self, worker: WorkerId, deadline_us: SimTime) -> Result<(), EngineError> {
        let wi = worker.index();
        let lane = self.owner[wi].load(Ordering::Relaxed);
        let (class, billed_from) = {
            let w = self.fleet.get_mut(wi);
            debug_assert_eq!(w.lifecycle, Lifecycle::Warm);
            (w.class as usize, w.billed_from_us)
        };
        // `lane` is the raw owner tag: `FREE` doubles as `CLUSTER_LANE`.
        self.journal_record(
            CLUSTER_LANE,
            JournalKind::Revocation {
                worker: wi as u32,
                class: class as u32,
                lane,
            },
        );
        let market = self.market.as_ref().map(|m| &m.config);
        let e = self.elastic.as_mut().expect("revocation without config");
        e.accrue(market, class, billed_from, self.now);
        e.warm[class] -= 1;
        e.revoked_draining[class] += 1;
        e.revocations[class] += 1;
        let orphans: Vec<Query> = {
            let w = self.fleet.get_mut(wi);
            w.billed_from_us = SimTime::MAX;
            w.begin_drain();
            w.drain_queue()
        };
        // Invalidate the lane's routing state *before* re-homing, so the
        // fallback path cannot hand a query back to the revoked worker.
        if lane != FREE {
            let li = lane as usize;
            self.shards[li].lane.assignments_epoch += 1;
            self.shards[li].rebuild_workers_by_task(&self.fleet);
        }
        for q in orphans {
            debug_assert_ne!(lane, FREE, "a free worker cannot hold queued queries");
            let li = lane as usize;
            match fallback_worker_for_task(&self.shards[li].lane, &self.fleet, q.task) {
                Some(target) => {
                    let mut q = q;
                    q.enqueued_us = self.now;
                    self.shards[li].trace_marker(q.root, crate::trace::SpanKind::Requeue, target);
                    self.fleet.get_mut(target.index()).enqueue(q);
                    self.kick(target);
                }
                None => {
                    self.shards[li].drop_root_child(q.root, crate::shard::DropCause::Revoked)?
                }
            }
        }
        if !self.fleet.get(wi).has_in_flight() {
            // Nothing running: the forced drain completes immediately.
            self.retire_worker(worker);
        } else {
            // Grace period: the in-flight batch may still complete (the
            // worker then retires through the normal drain path); at the
            // deadline whatever remains is aborted and lost.
            self.push_cluster(self.now + deadline_us, ClusterEvent::RevokeDeadline(worker));
        }
        Ok(())
    }

    /// A revoked worker's grace period expired. If its batch completed in
    /// time the worker already retired and this is a no-op; otherwise the
    /// batch is aborted — its unfinished work is *lost* — and the queries are
    /// re-queued at the head of a surviving worker's queue (they already
    /// waited their turn once). The stale batch-completion event left on the
    /// owner shard's heap fires harmlessly against the retired worker.
    fn on_revoke_deadline(&mut self, worker: WorkerId) -> Result<(), EngineError> {
        let wi = worker.index();
        if self.fleet.get(wi).lifecycle != Lifecycle::Draining {
            // The worker retired before the deadline: a clean revocation.
            self.journal_record(
                CLUSTER_LANE,
                JournalKind::RevokeGrace {
                    worker: wi as u32,
                    clean: true,
                    lost: 0,
                },
            );
            return Ok(());
        }
        debug_assert_eq!(
            self.fleet.get(wi).billed_from_us,
            SimTime::MAX,
            "revoke deadlines fire only for revoked workers"
        );
        let lane = self.owner[wi].load(Ordering::Relaxed);
        let mut lost: Vec<Query> = Vec::new();
        self.fleet.get_mut(wi).abort_batch_into(&mut lost, self.now);
        self.journal_record(
            CLUSTER_LANE,
            JournalKind::RevokeGrace {
                worker: wi as u32,
                clean: false,
                lost: lost.len() as u64,
            },
        );
        self.retire_worker(worker);
        if lost.is_empty() {
            return Ok(());
        }
        debug_assert_ne!(lane, FREE, "a mid-batch worker must be lane-owned");
        let li = lane as usize;
        // One batch serves one variant, so every lost query shares a task —
        // and therefore a fallback target.
        let task = lost[0].task;
        match fallback_worker_for_task(&self.shards[li].lane, &self.fleet, task) {
            Some(target) => {
                // Head-of-queue re-queue, reversed so the front-most lost
                // query ends up at the head: service order is preserved.
                for q in lost.into_iter().rev() {
                    self.shards[li].trace_marker(q.root, crate::trace::SpanKind::Requeue, target);
                    self.fleet.get_mut(target.index()).enqueue_front(q);
                }
                self.kick(target);
            }
            None => {
                for q in lost {
                    self.shards[li].drop_root_child(q.root, crate::shard::DropCause::Revoked)?;
                }
            }
        }
        Ok(())
    }

    /// Start the next queued batch on `worker` (barrier-time counterpart of
    /// `Shard::kick`); the completion goes onto the owner lane's heap.
    fn kick(&mut self, worker: WorkerId) {
        if let Some((finish, _)) = self.fleet.get_mut(worker.index()).try_start_batch(self.now) {
            let lane = self.owner[worker.index()].load(Ordering::Relaxed);
            debug_assert_ne!(lane, FREE, "a free worker cannot hold queued queries");
            self.shards[lane as usize].schedule_batch_completion(finish, worker);
        }
    }
}

/// An even worker split across `lanes` (largest remainder of equal weights):
/// the fallback partition when no arbiter preference exists.
fn even_partition(lanes: usize, cluster: usize) -> Vec<usize> {
    crate::multi::apportion(&vec![1.0; lanes], cluster)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calendar::CalendarGeometry;
    use crate::types::{
        AllocationPlan, DropPolicy, InstanceSpec, LinkDelayModel, ObservedState, RoutingPlan,
        SimConfig,
    };
    use loki_pipeline::{zoo, VariantId};
    use loki_workload::{generate_arrivals, generators, ArrivalProcess};
    use std::collections::HashMap;

    /// A fixed controller: a static allocation and uniform routing over all workers of
    /// each task; used to exercise the engine without any control-plane intelligence.
    struct StaticController {
        plan: AllocationPlan,
        planned: bool,
    }

    impl StaticController {
        fn new(plan: AllocationPlan) -> Self {
            Self {
                plan,
                planned: false,
            }
        }
    }

    impl Controller for StaticController {
        fn name(&self) -> &str {
            "static"
        }

        fn plan(&mut self, _observed: &ObservedState<'_>) -> Option<AllocationPlan> {
            if self.planned {
                None
            } else {
                self.planned = true;
                Some(self.plan.clone())
            }
        }

        fn routing(
            &mut self,
            observed: &ObservedState<'_>,
        ) -> Option<crate::routing::CompiledPlan> {
            let mut plan = RoutingPlan::default();
            let mut num_tasks = 0;
            for w in observed.workers {
                if let Some(v) = w.variant {
                    if v.task == 0 {
                        plan.frontend.push((w.id, 1.0));
                    }
                    plan.downstream_default
                        .entry(v.task)
                        .or_default()
                        .push((w.id, 1.0));
                    num_tasks = num_tasks.max(v.task + 1);
                }
            }
            Some(crate::routing::CompiledPlan::from_routing_plan(
                &plan, num_tasks,
            ))
        }
    }

    fn tiny_plan(replicas_a: usize, replicas_b: usize, batch: u32) -> AllocationPlan {
        AllocationPlan {
            instances: vec![
                InstanceSpec {
                    variant: VariantId::new(0, 1),
                    max_batch: batch,
                    count: replicas_a,
                },
                InstanceSpec {
                    variant: VariantId::new(1, 1),
                    max_batch: batch,
                    count: replicas_b,
                },
            ],
            latency_budgets_ms: HashMap::new(),
            drop_policy: DropPolicy::NoEarlyDropping,
        }
    }

    fn small_config(cluster: usize) -> SimConfig {
        SimConfig {
            cluster_size: cluster,
            network_delay_ms: 1.0,
            link_delays: LinkDelayModel::Uniform,
            calendar: CalendarGeometry::Auto,
            model_swap_ms: 0.0,
            control_interval_s: 5.0,
            routing_interval_s: 1.0,
            metrics_interval_s: 1.0,
            seed: 7,
            initial_demand_hint: Some(20.0),
            drain_s: 10.0,
            elastic: None,
            observe: Default::default(),
        }
    }

    #[test]
    fn underloaded_cluster_serves_everything_on_time() {
        let graph = zoo::tiny_pipeline(200.0);
        let trace = generators::constant(20, 20.0);
        let arrivals = generate_arrivals(&trace, ArrivalProcess::Uniform, 1);
        let mut sim = Simulation::new(
            &graph,
            small_config(8),
            StaticController::new(tiny_plan(2, 2, 4)),
        );
        let result = sim.run(&arrivals);
        assert_eq!(result.summary.total_arrivals, 400);
        assert_eq!(
            result.summary.total_on_time + result.summary.total_late + result.summary.total_dropped,
            400
        );
        assert!(
            result.summary.slo_violation_ratio < 0.02,
            "violations: {}",
            result.summary.slo_violation_ratio
        );
        // tiny pipeline max accuracy is 1.0 and the static plan uses the best variants
        assert!(result.summary.system_accuracy > 0.99);
    }

    #[test]
    fn overloaded_cluster_without_dropping_violates_slos() {
        let graph = zoo::tiny_pipeline(100.0);
        // one worker per task, demand far above capacity
        let trace = generators::constant(20, 400.0);
        let arrivals = generate_arrivals(&trace, ArrivalProcess::Uniform, 2);
        let mut sim = Simulation::new(
            &graph,
            small_config(2),
            StaticController::new(tiny_plan(1, 1, 4)),
        );
        let result = sim.run(&arrivals);
        assert!(
            result.summary.slo_violation_ratio > 0.5,
            "expected heavy violations, got {}",
            result.summary.slo_violation_ratio
        );
    }

    #[test]
    fn no_allocation_means_everything_is_dropped() {
        let graph = zoo::tiny_pipeline(100.0);
        let trace = generators::constant(5, 10.0);
        let arrivals = generate_arrivals(&trace, ArrivalProcess::Uniform, 3);
        let empty_plan = AllocationPlan::default();
        let mut sim = Simulation::new(&graph, small_config(4), StaticController::new(empty_plan));
        let result = sim.run(&arrivals);
        assert_eq!(result.summary.total_arrivals, 50);
        assert_eq!(result.summary.total_dropped, 50);
        assert_eq!(result.summary.total_on_time, 0);
        assert!((result.summary.slo_violation_ratio - 1.0).abs() < 1e-12);
    }

    #[test]
    fn simulation_is_deterministic_for_a_seed() {
        let graph = zoo::tiny_pipeline(150.0);
        let trace = generators::ramp(30, 10.0, 60.0);
        let arrivals = generate_arrivals(&trace, ArrivalProcess::Poisson, 5);
        let run = |seed: u64| {
            let mut cfg = small_config(6);
            cfg.seed = seed;
            let mut sim = Simulation::new(&graph, cfg, StaticController::new(tiny_plan(3, 3, 8)));
            sim.run(&arrivals).summary
        };
        let a = run(11);
        let b = run(11);
        assert_eq!(a.total_on_time, b.total_on_time);
        assert_eq!(a.total_late, b.total_late);
        assert_eq!(a.total_dropped, b.total_dropped);
        assert!((a.system_accuracy - b.system_accuracy).abs() < 1e-12);
        assert_eq!(a.events_processed, b.events_processed);
    }

    #[test]
    fn utilization_reflects_active_workers() {
        let graph = zoo::tiny_pipeline(200.0);
        let trace = generators::constant(10, 10.0);
        let arrivals = generate_arrivals(&trace, ArrivalProcess::Uniform, 4);
        let mut sim = Simulation::new(
            &graph,
            small_config(10),
            StaticController::new(tiny_plan(1, 1, 4)),
        );
        let result = sim.run(&arrivals);
        // only 2 of 10 workers are ever active
        assert_eq!(result.summary.max_active_workers, 2);
        assert!(result.summary.mean_utilization <= 0.2 + 1e-9);
    }

    #[test]
    fn accuracy_reflects_variant_choice() {
        let graph = zoo::tiny_pipeline(200.0);
        let trace = generators::constant(10, 10.0);
        let arrivals = generate_arrivals(&trace, ArrivalProcess::Uniform, 6);
        // use the *least* accurate variants
        let plan = AllocationPlan {
            instances: vec![
                InstanceSpec {
                    variant: VariantId::new(0, 0),
                    max_batch: 4,
                    count: 1,
                },
                InstanceSpec {
                    variant: VariantId::new(1, 0),
                    max_batch: 4,
                    count: 1,
                },
            ],
            latency_budgets_ms: HashMap::new(),
            drop_policy: DropPolicy::NoEarlyDropping,
        };
        let mut sim = Simulation::new(&graph, small_config(4), StaticController::new(plan));
        let result = sim.run(&arrivals);
        let expected = graph.min_accuracy();
        assert!(
            (result.summary.system_accuracy - expected).abs() < 1e-9,
            "accuracy {} vs expected {}",
            result.summary.system_accuracy,
            expected
        );
    }

    #[test]
    fn try_run_returns_ok_and_errors_render_with_context() {
        let graph = zoo::tiny_pipeline(200.0);
        let trace = generators::constant(5, 10.0);
        let arrivals = generate_arrivals(&trace, ArrivalProcess::Uniform, 1);
        let mut sim = Simulation::new(
            &graph,
            small_config(4),
            StaticController::new(tiny_plan(1, 1, 4)),
        );
        let result = sim.try_run(&arrivals).expect("healthy run must be Ok");
        assert_eq!(result.summary.total_arrivals, 50);

        // The structured errors carry the failing source/handler and the
        // simulated time, so a scheduler regression reports *where* it broke.
        let rendered = EngineError::EmptyEventSource {
            source: "scheduler",
            now_us: 1234,
            events_processed: 99,
        }
        .to_string();
        assert!(rendered.contains("scheduler"), "{rendered}");
        assert!(rendered.contains("1234"), "{rendered}");
        assert!(rendered.contains("99"), "{rendered}");
        let rendered = EngineError::MissingRoot {
            context: "complete",
            now_us: 77,
        }
        .to_string();
        assert!(rendered.contains("complete"), "{rendered}");
        assert!(rendered.contains("77"), "{rendered}");
    }

    #[test]
    fn invalid_arrival_traces_are_rejected_before_the_run() {
        let graph = zoo::tiny_pipeline(200.0);
        let run = |arrivals: &[f64]| {
            Simulation::new(
                &graph,
                small_config(4),
                StaticController::new(tiny_plan(1, 1, 4)),
            )
            .try_run(arrivals)
            .map(|r| r.summary.total_arrivals)
        };
        let invalid = |index| Err(EngineError::InvalidArrivals { lane: 0, index });
        // Each trace is rejected at its first offending index, before any
        // event runs.
        let reversed: Vec<f64> = (0..50).rev().map(|i| i as f64 * 0.1).collect();
        assert_eq!(run(&reversed), invalid(1));
        assert_eq!(run(&[0.5, f64::NAN, 1.0]), invalid(1));
        assert_eq!(run(&[-0.25, 0.5]), invalid(0));
        assert_eq!(run(&[0.5, 1.0, f64::INFINITY]), invalid(2));
        // Ties, a zero time and an empty trace are valid.
        assert_eq!(run(&[0.0, 0.5, 0.5, 1.0]), Ok(4));
        assert_eq!(run(&[]), Ok(0));

        let rendered = EngineError::InvalidArrivals { lane: 3, index: 17 }.to_string();
        assert!(rendered.contains("lane 3 index 17"), "{rendered}");

        // Multi-pipeline runs name the offending lane.
        let mut multi = crate::MultiSimulation::new(small_config(4));
        for arrivals in [vec![0.1, 0.2], vec![0.3, 0.2]] {
            multi.add_pipeline(crate::MultiPipeline {
                name: "p".to_string(),
                graph: &graph,
                controller: StaticController::new(tiny_plan(1, 1, 4)),
                arrivals_s: arrivals,
                initial_demand_hint: None,
            });
        }
        let error = multi
            .try_run(&mut crate::multi::StaticPartition::even(2))
            .map(|r| r.pipelines.len());
        assert_eq!(
            error,
            Err(EngineError::InvalidArrivals { lane: 1, index: 1 })
        );
    }

    #[test]
    fn heterogeneous_link_delays_reorder_deliveries() {
        // Two interconnect classes striped across the cluster: intra-class hops
        // are PCIe-fast, cross-class hops are 25x slower. Deliveries now leave
        // in an order a single-constant FIFO could not produce (short links
        // overtake long ones), so the same seed must yield a different — but
        // still internally consistent — execution than the uniform model.
        let graph = zoo::tiny_pipeline(150.0);
        let trace = generators::constant(20, 40.0);
        let arrivals = generate_arrivals(&trace, ArrivalProcess::Poisson, 12);
        let run = |link_delays: LinkDelayModel| {
            let mut cfg = small_config(8);
            cfg.link_delays = link_delays;
            let mut sim = Simulation::new(&graph, cfg, StaticController::new(tiny_plan(2, 2, 4)));
            sim.run(&arrivals).summary
        };
        let uniform = run(LinkDelayModel::Uniform);
        let hetnet = run(LinkDelayModel::PerWorkerClass {
            classes: 2,
            delay_ms: vec![0.2, 5.0, 5.0, 0.2],
            frontend_ms: vec![1.0, 1.0],
        });
        assert_eq!(uniform.total_arrivals, hetnet.total_arrivals);
        assert_eq!(
            hetnet.total_on_time + hetnet.total_late + hetnet.total_dropped,
            hetnet.total_arrivals
        );
        // The per-link schedule must actually change the execution: with every
        // hop at 1 ms the two runs would be identical, with mixed 0.2/5 ms
        // links the delivery order (and thus batch formation) shifts.
        assert_ne!(
            (
                uniform.total_on_time,
                uniform.total_late,
                uniform.events_processed
            ),
            (
                hetnet.total_on_time,
                hetnet.total_late,
                hetnet.events_processed
            ),
            "heterogeneous delays must reorder deliveries relative to the uniform model"
        );
        // Same model, same seed: still fully deterministic.
        let again = run(LinkDelayModel::PerWorkerClass {
            classes: 2,
            delay_ms: vec![0.2, 5.0, 5.0, 0.2],
            frontend_ms: vec![1.0, 1.0],
        });
        assert_eq!(again, hetnet);
    }

    #[test]
    fn per_edge_delay_on_the_critical_path_violates_slos() {
        // The tiny pipeline's single edge (task 0 -> task 1) crosses a 200 ms
        // interconnect while the SLO is 150 ms: every request that makes it
        // downstream blows its deadline, where the uniform model serves on time.
        let graph = zoo::tiny_pipeline(150.0);
        let trace = generators::constant(20, 20.0);
        let arrivals = generate_arrivals(&trace, ArrivalProcess::Uniform, 13);
        let run = |link_delays: LinkDelayModel| {
            let mut cfg = small_config(8);
            cfg.link_delays = link_delays;
            let mut sim = Simulation::new(&graph, cfg, StaticController::new(tiny_plan(2, 2, 4)));
            sim.run(&arrivals).summary
        };
        let uniform = run(LinkDelayModel::Uniform);
        let slow_edge = run(LinkDelayModel::PerEdge {
            frontend_ms: 1.0,
            default_ms: 1.0,
            edges: vec![((0, 1), 200.0)],
        });
        assert!(uniform.slo_violation_ratio < 0.05);
        assert!(
            slow_edge.slo_violation_ratio > 0.5,
            "a 200 ms edge under a 150 ms SLO must violate, got {}",
            slow_edge.slo_violation_ratio
        );
    }

    #[test]
    fn fanout_creates_downstream_load_in_branching_pipeline() {
        let graph = zoo::traffic_analysis_pipeline(400.0);
        let trace = generators::constant(15, 20.0);
        let arrivals = generate_arrivals(&trace, ArrivalProcess::Uniform, 9);
        // most accurate variants with plenty of replicas
        let plan = AllocationPlan {
            instances: vec![
                InstanceSpec {
                    variant: VariantId::new(0, 4),
                    max_batch: 4,
                    count: 3,
                },
                InstanceSpec {
                    variant: VariantId::new(1, 7),
                    max_batch: 4,
                    count: 4,
                },
                InstanceSpec {
                    variant: VariantId::new(2, 3),
                    max_batch: 4,
                    count: 3,
                },
            ],
            latency_budgets_ms: HashMap::new(),
            drop_policy: DropPolicy::NoEarlyDropping,
        };
        let mut sim = Simulation::new(&graph, small_config(10), StaticController::new(plan));
        let result = sim.run(&arrivals);
        assert!(result.summary.total_on_time > 0);
        // yolov5x multiplies by 2.0, so downstream work exists and completes; system
        // accuracy should be near the pipeline max (all best variants).
        assert!(
            result.summary.system_accuracy > 0.95 * graph.max_accuracy(),
            "accuracy {}",
            result.summary.system_accuracy
        );
        assert!(result.summary.slo_violation_ratio < 0.1);
    }
}
