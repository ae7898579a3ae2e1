//! The timing decorators must not change what the program simulates or
//! emits: a wrapped and an unwrapped run of `spot_observed` — the workload
//! that journals the provisioner's reasons and exports the timeline — give
//! identical simulated outcomes and identical timeline bytes.

use perfbench::check::{identical, outcome_conserves};
use perfbench::workload::{execute, Leg, Workload};
use std::path::PathBuf;

fn scratch_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn wrapped_and_unwrapped_spot_runs_are_identical() {
    let seed = perfbench::sim_seeds(1, 1)[0];
    let plain_dir = scratch_dir("decorators-plain");
    let traced_dir = scratch_dir("decorators-traced");
    let plain = execute(Workload::SpotObserved, seed, Leg::Plain, Some(&plain_dir));
    let traced = execute(Workload::SpotObserved, seed, Leg::Traced, Some(&traced_dir));

    assert!(plain.layers.is_none());
    let layers = traced.layers.as_ref().expect("traced run has layers");
    assert!(layers.plan.calls > 0 && layers.routing.calls > 0);
    assert!(layers.decide.calls > 0, "the provisioner was decorated");
    assert!(traced.journal_events > 0, "the journal recorded decisions");

    outcome_conserves(&plain.outcome).expect("plain run conserves queries");
    identical("traced against plain", &plain.outcome, &traced.outcome).expect("same outcome");
    for ext in ["json", "csv"] {
        let file = format!("spot_diurnal.timeline.{ext}");
        let a = std::fs::read(plain_dir.join(&file)).expect("plain timeline written");
        let b = std::fs::read(traced_dir.join(&file)).expect("traced timeline written");
        assert!(!a.is_empty());
        assert!(
            a == b,
            "timeline {ext} differs between wrapped and unwrapped runs"
        );
    }
}

#[test]
fn sinks_off_and_serial_legs_reproduce_the_simulation() {
    let seed = perfbench::sim_seeds(2, 1)[0];
    let traced = execute(Workload::Zipf16Shared, seed, Leg::Traced, None);
    let serial = execute(Workload::Zipf16Shared, seed, Leg::Serial, None);
    let sinks_off = execute(Workload::Zipf16Shared, seed, Leg::SinksOff, None);
    identical("jobs=1 against jobs=2", &traced.outcome, &serial.outcome).expect("same outcome");
    identical(
        "sinks off against sinks on",
        &traced.outcome.without_sinks(),
        &sinks_off.outcome.without_sinks(),
    )
    .expect("same outcome less the sinks");
    assert!(traced.outcome.e2e.is_some() && sinks_off.outcome.e2e.is_none());
    let layers = traced.layers.as_ref().expect("traced run has layers");
    assert!(layers.partition.calls > 0, "the arbiter was decorated");
    assert_eq!(traced.lane_walls.len(), 16);
}
