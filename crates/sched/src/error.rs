//! Error type of the scheduler.

use crate::relax::{RelaxAction, Restraint};
use std::error::Error;
use std::fmt;
use std::time::Duration;

/// Which scheduling budget ran out (see [`SchedError::BudgetExhausted`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Budget {
    /// The pass-count budget (`SchedulerConfig::max_passes`).
    Passes(u32),
    /// The wall-clock budget (`SchedulerConfig::deadline`).
    Deadline(Duration),
}

impl fmt::Display for Budget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Budget::Passes(n) => write!(f, "{n} scheduling passes"),
            Budget::Deadline(d) => write!(f, "deadline of {d:?}"),
        }
    }
}

/// Errors reported by the scheduler.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum SchedError {
    /// The specification is over-constrained: no sequence of relaxation
    /// actions within the configured bounds produced a feasible schedule.
    Overconstrained {
        /// Latency reached when the scheduler gave up.
        latency: u32,
        /// Number of scheduling passes executed.
        passes: u32,
        /// Outstanding restraints of the last failed pass.
        restraints: Vec<Restraint>,
    },
    /// The loop body failed validation before scheduling.
    InvalidBody {
        /// The underlying error rendering.
        message: String,
    },
    /// The requested initiation interval is infeasible for the loop's
    /// recurrences (structural lower bound violated).
    InfeasibleIi {
        /// Requested initiation interval.
        requested: u32,
        /// Structural minimum implied by the DFG recurrences.
        minimum: u32,
    },
    /// A scheduling budget (pass count or wall-clock deadline) ran out while
    /// the relaxation loop still had applicable actions. Unlike
    /// [`SchedError::Overconstrained`] this is not a verdict on the spec —
    /// it is a guard against unbounded iteration, and it carries the partial
    /// diagnostics of the last failed pass so the caller can see where the
    /// search stood when it was cut off.
    BudgetExhausted {
        /// Which budget ran out.
        budget: Budget,
        /// Latency reached when the budget ran out.
        latency: u32,
        /// Number of scheduling passes executed.
        passes: u32,
        /// Outstanding restraints of the last failed pass.
        restraints: Vec<Restraint>,
        /// Relaxation actions applied before the budget ran out.
        actions: Vec<RelaxAction>,
    },
}

impl SchedError {
    /// The most negative per-operation slack among the restraints of a
    /// [`SchedError::Overconstrained`] verdict, in picoseconds — how far the
    /// worst operation missed the clock. `0.0` when the failure is not
    /// slack-driven (resource contention, SCC windows) and for every other
    /// error, [`SchedError::BudgetExhausted`] included: a budget cut-off is
    /// no verdict on the spec. A caller that wants to *degrade* instead of
    /// fail can re-run with the clock stretched by this amount.
    pub fn worst_slack_ps(&self) -> f64 {
        let SchedError::Overconstrained { restraints, .. } = self else {
            return 0.0;
        };
        restraints
            .iter()
            .filter_map(|r| match r {
                Restraint::NegativeSlack { slack_ps, .. } => Some(*slack_ps),
                _ => None,
            })
            .fold(0.0, f64::min)
    }
}

/// Writes `items` separated by `sep`.
fn join<T: fmt::Display>(f: &mut fmt::Formatter<'_>, items: &[T], sep: &str) -> fmt::Result {
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            f.write_str(sep)?;
        }
        write!(f, "{item}")?;
    }
    Ok(())
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::Overconstrained {
                latency,
                passes,
                restraints,
            } => {
                write!(
                    f,
                    "specification is overconstrained (gave up at latency {latency} after {passes} passes): "
                )?;
                join(f, restraints, "; ")
            }
            SchedError::InvalidBody { message } => write!(f, "invalid loop body: {message}"),
            SchedError::InfeasibleIi { requested, minimum } => write!(
                f,
                "initiation interval {requested} is below the recurrence-imposed minimum {minimum}"
            ),
            SchedError::BudgetExhausted {
                budget,
                latency,
                passes,
                restraints,
                actions,
            } => {
                write!(
                    f,
                    "scheduling budget exhausted ({budget}) at latency {latency} after {passes} pass(es)"
                )?;
                if !restraints.is_empty() {
                    f.write_str("; outstanding: ")?;
                    join(f, restraints, "; ")?;
                }
                if !actions.is_empty() {
                    f.write_str("; applied: ")?;
                    join(f, actions, ", ")?;
                }
                Ok(())
            }
        }
    }
}

impl Error for SchedError {}

impl From<hls_ir::IrError> for SchedError {
    fn from(e: hls_ir::IrError) -> Self {
        SchedError::InvalidBody {
            message: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_ir::OpId;

    #[test]
    fn display_nonempty() {
        let e = SchedError::Overconstrained {
            latency: 3,
            passes: 7,
            restraints: vec![
                Restraint::NegativeSlack {
                    op: OpId::from_raw(1),
                    slack_ps: -45.0,
                },
                Restraint::StateExhausted {
                    op: OpId::from_raw(2),
                },
            ],
        };
        assert_eq!(
            e.to_string(),
            format!(
                "specification is overconstrained (gave up at latency 3 after 7 passes): \
                 negative slack of -45 ps on {}; {} waits on a region-boundary value \
                 registered in the final state",
                OpId::from_raw(1),
                OpId::from_raw(2)
            )
        );
        assert_eq!(e.worst_slack_ps(), -45.0);
        let e = SchedError::InfeasibleIi {
            requested: 1,
            minimum: 3,
        };
        assert!(e.to_string().contains("minimum 3"));
    }

    #[test]
    fn budget_exhausted_renders_partial_diagnostics() {
        let e = SchedError::BudgetExhausted {
            budget: Budget::Passes(2),
            latency: 4,
            passes: 2,
            restraints: vec![Restraint::NegativeSlack {
                op: OpId::from_raw(1),
                slack_ps: -120.0,
            }],
            actions: vec![RelaxAction::AddState],
        };
        let s = e.to_string();
        assert!(
            s.starts_with("scheduling budget exhausted (2 scheduling passes) at latency 4"),
            "{s}"
        );
        assert!(s.contains("negative slack of -120 ps"), "{s}");
        assert!(s.contains("applied: add state"), "{s}");
        assert_eq!(e.worst_slack_ps(), 0.0, "a budget cut-off is no verdict");
    }

    #[test]
    fn budget_renders_the_historical_text() {
        assert_eq!(Budget::Passes(64).to_string(), "64 scheduling passes");
        assert_eq!(
            Budget::Deadline(Duration::from_millis(10)).to_string(),
            format!("deadline of {:?}", Duration::from_millis(10))
        );
    }
}
