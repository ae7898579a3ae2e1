//! Timing decorators for the program's public layer traits: [`Controller`],
//! [`ResourceArbiter`] and [`ElasticPolicy`].
//!
//! Each decorator forwards every trait method, the observational ones
//! (`last_reasons`, `decision_reason`) included, so a wrapped run journals and
//! simulates exactly what an unwrapped run does. Around the calls that do
//! work it records one host-time interval per call, the call count, and how
//! many calls produced output.

use crate::spans::{busy_ns, Clock, Interval};
use loki_sim::{
    AllocationPlan, ArbiterObservation, CompiledPlan, Controller, DecisionReason, ElasticAction,
    ElasticObservation, ElasticPolicy, ObservedState, ResourceArbiter,
};

/// The calls made through one trait method.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CallLog {
    /// Calls made.
    pub calls: u64,
    /// Calls that produced output: a plan, a routing table, a partition, or
    /// a non-empty list of fleet actions.
    pub emitted: u64,
    /// When each call ran, in call order.
    pub intervals: Vec<Interval>,
}

impl CallLog {
    fn time<R>(&mut self, clock: Clock, call: impl FnOnce() -> R, emitted: fn(&R) -> bool) -> R {
        let start = clock.now_ns();
        let out = call();
        let end = clock.now_ns();
        self.calls += 1;
        self.emitted += u64::from(emitted(&out));
        self.intervals.push((start, end));
        out
    }

    /// Summed host time of the calls, in seconds.
    pub fn busy_s(&self) -> f64 {
        busy_ns(&self.intervals) as f64 * 1e-9
    }
}

/// A [`Controller`] that times its `plan` and `routing` calls.
pub struct TimedController<C> {
    inner: C,
    clock: Clock,
    pub plan: CallLog,
    pub routing: CallLog,
}

impl<C> TimedController<C> {
    pub fn new(inner: C, clock: Clock) -> Self {
        Self {
            inner,
            clock,
            plan: CallLog::default(),
            routing: CallLog::default(),
        }
    }

    pub fn inner(&self) -> &C {
        &self.inner
    }
}

impl<C: Controller> Controller for TimedController<C> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn control_interval_s(&self) -> f64 {
        self.inner.control_interval_s()
    }

    fn routing_interval_s(&self) -> f64 {
        self.inner.routing_interval_s()
    }

    fn plan(&mut self, observed: &ObservedState<'_>) -> Option<AllocationPlan> {
        let inner = &mut self.inner;
        self.plan
            .time(self.clock, || inner.plan(observed), Option::is_some)
    }

    fn routing(&mut self, observed: &ObservedState<'_>) -> Option<CompiledPlan> {
        let inner = &mut self.inner;
        self.routing
            .time(self.clock, || inner.routing(observed), Option::is_some)
    }
}

/// A [`ResourceArbiter`] that times its `partition` calls.
pub struct TimedArbiter<A: ResourceArbiter + ?Sized> {
    inner: Box<A>,
    clock: Clock,
    pub partition: CallLog,
}

impl<A: ResourceArbiter + ?Sized> TimedArbiter<A> {
    pub fn new(inner: Box<A>, clock: Clock) -> Self {
        Self {
            inner,
            clock,
            partition: CallLog::default(),
        }
    }
}

impl<A: ResourceArbiter + ?Sized> ResourceArbiter for TimedArbiter<A> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn rebalance_interval_s(&self) -> f64 {
        self.inner.rebalance_interval_s()
    }

    fn partition(&mut self, observation: &ArbiterObservation<'_>) -> Option<Vec<usize>> {
        let inner = &mut self.inner;
        self.partition
            .time(self.clock, || inner.partition(observation), Option::is_some)
    }

    fn decision_reason(&self) -> Option<&'static str> {
        self.inner.decision_reason()
    }
}

/// An [`ElasticPolicy`] that times its `decide` calls. A call "emits" when it
/// returns at least one fleet action.
pub struct TimedPolicy<P: ElasticPolicy + ?Sized> {
    inner: Box<P>,
    clock: Clock,
    pub decide: CallLog,
}

impl<P: ElasticPolicy + ?Sized> TimedPolicy<P> {
    pub fn new(inner: Box<P>, clock: Clock) -> Self {
        Self {
            inner,
            clock,
            decide: CallLog::default(),
        }
    }
}

impl<P: ElasticPolicy + ?Sized> ElasticPolicy for TimedPolicy<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decide(&mut self, observation: &ElasticObservation<'_>) -> Vec<ElasticAction> {
        let inner = &mut self.inner;
        self.decide.time(
            self.clock,
            || inner.decide(observation),
            |actions| !actions.is_empty(),
        )
    }

    fn last_reasons(&mut self) -> Vec<DecisionReason> {
        self.inner.last_reasons()
    }
}
