//! Correctness checks on simulated outcomes.
//!
//! Every execution must conserve queries: each arrival ends on time, late or
//! dropped, and every drop has exactly one cause. Executions of one seed must
//! agree exactly, whatever host-side settings (decorators, `jobs`, sinks)
//! they ran with.

use crate::workload::Outcome;
use loki_sim::RunSummary;

/// Check that `summary` conserves its queries.
pub fn conservation(label: &str, s: &RunSummary) -> Result<(), String> {
    let finished = s.total_on_time + s.total_late + s.total_dropped;
    if s.total_arrivals != finished {
        return Err(format!(
            "{label}: arrivals {} != on_time {} + late {} + dropped {}",
            s.total_arrivals, s.total_on_time, s.total_late, s.total_dropped
        ));
    }
    let causes = s.total_dropped_deadline + s.total_dropped_reclaimed + s.total_dropped_revoked;
    if s.total_dropped != causes {
        return Err(format!(
            "{label}: dropped {} != deadline {} + reclaimed {} + revoked {}",
            s.total_dropped,
            s.total_dropped_deadline,
            s.total_dropped_reclaimed,
            s.total_dropped_revoked
        ));
    }
    Ok(())
}

/// Check conservation on the run summary and on every pipeline's summary.
pub fn outcome_conserves(outcome: &Outcome) -> Result<(), String> {
    conservation("run", &outcome.summary)?;
    for (i, lane) in outcome.lanes.iter().enumerate() {
        conservation(&format!("pipeline {i}"), lane)?;
    }
    Ok(())
}

/// Check that two outcomes agree exactly, naming the first part that differs.
pub fn identical(label: &str, expected: &Outcome, got: &Outcome) -> Result<(), String> {
    let parts = [
        ("summary", expected.summary == got.summary),
        ("per-pipeline summaries", expected.lanes == got.lanes),
        ("interval series", expected.intervals == got.intervals),
        ("cost", expected.cost == got.cost),
        ("latency histogram", expected.e2e == got.e2e),
        (
            "rebalances/migrations",
            (expected.rebalances, expected.migrations) == (got.rebalances, got.migrations),
        ),
        ("report bytes", expected.report_digest == got.report_digest),
    ];
    match parts.iter().find(|(_, same)| !same) {
        Some((part, _)) => Err(format!("{label}: {part} differs")),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn balanced() -> RunSummary {
        RunSummary {
            total_arrivals: 100,
            total_on_time: 90,
            total_late: 4,
            total_dropped: 6,
            total_dropped_deadline: 3,
            total_dropped_reclaimed: 2,
            total_dropped_revoked: 1,
            ..RunSummary::default()
        }
    }

    #[test]
    fn a_balanced_summary_passes() {
        assert_eq!(conservation("run", &balanced()), Ok(()));
    }

    #[test]
    fn a_lost_query_is_rejected() {
        let bad = RunSummary {
            total_on_time: 89,
            ..balanced()
        };
        let err = conservation("run", &bad).unwrap_err();
        assert!(err.contains("arrivals 100"), "{err}");
    }

    #[test]
    fn a_drop_without_a_cause_is_rejected() {
        let bad = RunSummary {
            total_dropped_revoked: 0,
            ..balanced()
        };
        let err = conservation("run", &bad).unwrap_err();
        assert!(err.contains("dropped 6"), "{err}");
    }

    #[test]
    fn a_bad_pipeline_fails_the_outcome() {
        let outcome = Outcome {
            summary: balanced(),
            lanes: vec![
                balanced(),
                RunSummary {
                    total_late: 5,
                    ..balanced()
                },
            ],
            intervals: Vec::new(),
            cost: None,
            e2e: None,
            rebalances: 0,
            migrations: 0,
            report_digest: 0,
        };
        let err = outcome_conserves(&outcome).unwrap_err();
        assert!(err.starts_with("pipeline 1"), "{err}");
        let other = Outcome {
            report_digest: 1,
            ..outcome.clone()
        };
        assert_eq!(
            identical("repeat", &outcome, &other),
            Err("repeat: report bytes differs".to_string())
        );
        assert_eq!(identical("repeat", &outcome, &outcome.clone()), Ok(()));
    }
}
