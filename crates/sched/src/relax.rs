//! Restraints and the relaxation expert system (Section IV.B, last part).
//!
//! Every time a binding of an operation to an edge and/or a resource fails,
//! the pass scheduler issues a [`Restraint`]. When the whole pass fails, the
//! restraints are analyzed and weighted, every applicable [`RelaxAction`] is
//! scored by how many restraints it addresses minus its estimated cost, and
//! the best action is applied before the next pass.

use crate::config::SchedulerConfig;
use hls_ir::OpId;
use hls_tech::{ResourceInstanceId, ResourceType, TechLibrary};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;

/// A reason recorded when a binding attempt fails.
#[derive(Clone, Debug, PartialEq)]
pub enum Restraint {
    /// The operation cannot meet the clock on any available (or hypothetical
    /// fresh) resource in the states it is allowed to use.
    NegativeSlack {
        /// The failing operation.
        op: OpId,
        /// The best (least negative) slack observed, in picoseconds.
        slack_ps: f64,
    },
    /// Every compatible resource instance is busy in the allowed states.
    ResourceContention {
        /// The failing operation.
        op: OpId,
        /// The resource type that ran out of instances.
        ty: ResourceType,
    },
    /// Binding the operation would create a combinational cycle.
    CombCycle {
        /// The failing operation.
        op: OpId,
        /// The resource whose sharing would close the cycle.
        resource: ResourceInstanceId,
    },
    /// The operation belongs to a strongly connected component whose
    /// II-state window does not allow any feasible state.
    SccWindow {
        /// Index of the SCC (into the scheduler's SCC list).
        scc_index: usize,
        /// The failing operation.
        op: OpId,
    },
    /// The operation consumes a region-boundary value registered in the
    /// schedule's final state; the cut rule makes it ready only in a
    /// strictly later state, so only adding a state can help.
    StateExhausted {
        /// The failing operation.
        op: OpId,
    },
}

impl Restraint {
    /// The operation this restraint is attached to.
    pub fn op(&self) -> OpId {
        match self {
            Restraint::NegativeSlack { op, .. }
            | Restraint::ResourceContention { op, .. }
            | Restraint::CombCycle { op, .. }
            | Restraint::SccWindow { op, .. }
            | Restraint::StateExhausted { op } => *op,
        }
    }
}

impl fmt::Display for Restraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Restraint::NegativeSlack { op, slack_ps } => {
                write!(f, "negative slack of {slack_ps:.0} ps on {op}")
            }
            Restraint::ResourceContention { op, ty } => {
                write!(f, "no free {ty} instance for {op}")
            }
            Restraint::CombCycle { op, resource } => {
                write!(
                    f,
                    "binding {op} to {resource} would create a combinational cycle"
                )
            }
            Restraint::SccWindow { scc_index, op } => {
                write!(
                    f,
                    "operation {op} of SCC #{scc_index} cannot fit its pipeline stage window"
                )
            }
            Restraint::StateExhausted { op } => {
                write!(
                    f,
                    "{op} waits on a region-boundary value registered in the final state"
                )
            }
        }
    }
}

/// A corrective action applied between scheduling passes.
#[derive(Clone, Debug, PartialEq)]
pub enum RelaxAction {
    /// Add one state to the loop body (increase the latency / LI).
    AddState,
    /// Allocate `count` more instances of the given resource type: one
    /// while contention is local, a demand-sized batch when it is systemic
    /// or when the contention-with-timing deadlock escape fires, so large
    /// designs converge in a handful of relaxation passes instead of one
    /// pass per operation.
    AddResources {
        /// The type to add instances of.
        ty: ResourceType,
        /// How many instances to add (at least one).
        count: usize,
    },
    /// Move a whole SCC to the next pipeline stage (timing-driven kernel
    /// selection — the paper's key pipelining action).
    MoveScc {
        /// Index of the SCC to move.
        scc_index: usize,
    },
    /// Forbid a specific operation-to-resource binding (used to break
    /// combinational cycles).
    ForbidBinding {
        /// The operation.
        op: OpId,
        /// The resource it must not use.
        resource: ResourceInstanceId,
    },
}

impl fmt::Display for RelaxAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelaxAction::AddState => write!(f, "add state"),
            RelaxAction::AddResources { ty, count: 1 } => write!(f, "add resource {ty}"),
            RelaxAction::AddResources { ty, count } => {
                write!(f, "add {count} instances of resource {ty}")
            }
            RelaxAction::MoveScc { scc_index } => {
                write!(f, "move SCC #{scc_index} to the next stage")
            }
            RelaxAction::ForbidBinding { op, resource } => {
                write!(f, "forbid binding {op} → {resource}")
            }
        }
    }
}

/// Above this many distinct contended operations for one resource type, the
/// expert system stops one-at-a-time instance refinement and proposes a
/// demand-sized [`RelaxAction::AddResources`] batch instead. Small enough
/// that the hand-sized paper examples always stay on the historical
/// single-add path; a demand-sized batch for every type (no threshold)
/// changes the QoR of mid-size designs.
const BATCH_THRESHOLD: usize = 8;

/// Chooses the best relaxation action for a set of restraints.
///
/// Returns `None` when no applicable action addresses any restraint — the
/// specification is over-constrained.
pub fn choose_action(
    restraints: &[Restraint],
    config: &SchedulerConfig,
    lib: &TechLibrary,
    latency: u32,
    num_sccs: usize,
    scc_stage: &[u32],
    failed_ops: &[OpId],
) -> Option<RelaxAction> {
    // Hashed lookups keep a pass over N restraints linear; the scores they
    // produce are identical to the historical nested rescans.
    let failed: HashSet<OpId> = failed_ops.iter().copied().collect();
    let weight = |r: &Restraint| {
        if failed.contains(&r.op()) {
            2.0
        } else {
            1.0
        }
    };
    let slack_ops: HashSet<OpId> = restraints
        .iter()
        .filter_map(|r| match r {
            Restraint::NegativeSlack { op, .. } => Some(*op),
            _ => None,
        })
        .collect();

    let mut candidates: Vec<(RelaxAction, f64)> = Vec::new();

    // Add a state.
    if latency < config.max_latency {
        let gain: f64 = restraints
            .iter()
            .filter(|r| {
                matches!(
                    r,
                    Restraint::NegativeSlack { .. }
                        | Restraint::ResourceContention { .. }
                        | Restraint::StateExhausted { .. }
                )
            })
            .map(weight)
            .sum();
        if gain > 0.0 {
            candidates.push((RelaxAction::AddState, gain - 1.0));
        }
    }

    // Contention demand per resource type, merged at `name()` granularity
    // (class + operand widths) as the original expert system did; visiting
    // the demands in name order makes the candidate order — which breaks
    // score ties — deterministic. Each distinct type is named once, not once
    // per restraint. `pure_*` counts only the ops that do not also fail on
    // timing.
    struct Demand {
        name: String,
        ty: ResourceType,
        ops: usize,
        gain: f64,
        pure_ops: usize,
        pure_gain: f64,
    }
    let mut demand: Vec<Demand> = Vec::new();
    let mut demand_of_type: HashMap<&ResourceType, usize> = HashMap::new();
    let mut demand_of_name: HashMap<String, usize> = HashMap::new();
    let mut seen: HashSet<(usize, OpId)> = HashSet::new();
    for r in restraints {
        if let Restraint::ResourceContention { op, ty } = r {
            let di = *demand_of_type.entry(ty).or_insert_with(|| {
                let name = ty.name();
                *demand_of_name.entry(name.clone()).or_insert_with(|| {
                    demand.push(Demand {
                        name,
                        ty: ty.clone(),
                        ops: 0,
                        gain: 0.0,
                        pure_ops: 0,
                        pure_gain: 0.0,
                    });
                    demand.len() - 1
                })
            });
            let d = &mut demand[di];
            let new_op = usize::from(seen.insert((di, *op)));
            d.ops += new_op;
            d.gain += weight(r);
            if !slack_ops.contains(op) {
                d.pure_ops += new_op;
                d.pure_gain += weight(r);
            }
        }
    }
    demand.sort_by(|a, b| a.name.cmp(&b.name));
    let cost = |ty: &ResourceType| lib.area(ty) / 5000.0;

    // Add resources, one candidate per contended type with pure-contention
    // ops (adding hardware cannot fix negative slack). When contention is
    // systemic (more than [`BATCH_THRESHOLD`] distinct starving ops) the
    // candidate is a batch sized by demand — each instance offers one slot
    // per state, so `distinct / slots` instances cover the backlog —
    // instead of the one-at-a-time endgame refinement, which would need a
    // pass per op.
    let slots = config.ii_or(latency).max(1) as usize;
    for d in demand.iter().filter(|d| d.pure_ops > 0) {
        let count = if d.pure_ops <= BATCH_THRESHOLD {
            1
        } else {
            d.pure_ops.div_ceil(slots)
        };
        let action = RelaxAction::AddResources {
            ty: d.ty.clone(),
            count,
        };
        candidates.push((action, d.pure_gain - cost(&d.ty)));
    }

    // Move an SCC to the next stage (pipelined only). Deterministic
    // candidate order for the same reason as above.
    if config.pipeline.is_some() && config.allow_scc_move && num_sccs > 0 {
        let ii = config.ii_or(latency);
        let num_stages = latency.div_ceil(ii).max(1);
        // SCC indices with a recorded window failure per op, deduped in
        // first-appearance order: one linear sweep replaces the historical
        // restraints × SCCs × restraints rescan, with bit-identical sums
        // (each accumulator still receives the same terms in restraint
        // order).
        let mut window_sccs: HashMap<OpId, Vec<usize>> = HashMap::new();
        for r in restraints {
            if let Restraint::SccWindow { scc_index, op } = r {
                if *scc_index < num_sccs {
                    let list = window_sccs.entry(*op).or_default();
                    if !list.contains(scc_index) {
                        list.push(*scc_index);
                    }
                }
            }
        }
        let mut by_scc: BTreeMap<usize, f64> = BTreeMap::new();
        for r in restraints {
            match r {
                Restraint::SccWindow { scc_index, .. } => {
                    *by_scc.entry(*scc_index).or_insert(0.0) += weight(r) + 0.5;
                }
                Restraint::NegativeSlack { op, .. } => {
                    // negative slack on an op that belongs to an SCC also
                    // suggests moving that SCC
                    if let Some(list) = window_sccs.get(op) {
                        for &idx in list {
                            *by_scc.entry(idx).or_insert(0.0) += weight(r) * 0.5;
                        }
                    }
                }
                _ => {}
            }
        }
        for (scc_index, gain) in by_scc {
            let current = scc_stage.get(scc_index).copied().unwrap_or(0);
            if current + 1 < num_stages {
                candidates.push((RelaxAction::MoveScc { scc_index }, gain - 0.4));
            }
        }
    }

    // Forbid bindings that close combinational cycles.
    for r in restraints {
        if let Restraint::CombCycle { op, resource } = r {
            candidates.push((
                RelaxAction::ForbidBinding {
                    op: *op,
                    resource: *resource,
                },
                weight(r) - 0.2,
            ));
        }
    }

    // Deadlock escape: an operation can fail on contention *and* timing at
    // once when the sharing-induced input-mux delay eats the clock. The
    // contention/slack suppression above assumes hardware cannot fix
    // negative slack, but adding an instance lowers the share factor — and
    // with it the mux delay — so when no other action at all is applicable,
    // propose the hardware anyway instead of declaring the specification
    // over-constrained. Only reached when the normal candidate set is empty,
    // so no previously-succeeding relaxation sequence changes.
    // Every contended type is then slack-bound, so each one's demand
    // covers all of its ops.
    if candidates.is_empty() {
        for d in demand {
            let score = d.gain - cost(&d.ty);
            let action = RelaxAction::AddResources {
                ty: d.ty,
                count: d.ops,
            };
            candidates.push((action, score));
        }
    }

    candidates
        .into_iter()
        .filter(|(_, score)| *score > f64::NEG_INFINITY)
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(action, _)| action)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_tech::{ClockConstraint, ResourceClass};

    fn cfg_seq() -> SchedulerConfig {
        SchedulerConfig::sequential(ClockConstraint::from_period_ps(1600.0), 1, 3)
    }

    fn mul32() -> ResourceType {
        ResourceType::binary(ResourceClass::Multiplier, 32, 32, 32)
    }

    #[test]
    fn slack_plus_contention_prefers_adding_a_state() {
        // Mirrors the paper's first relaxation in Example 1: mul contention
        // and gt negative slack → add a state rather than a multiplier.
        let lib = TechLibrary::artisan_90nm_typical();
        let op1 = OpId::from_raw(1);
        let op2 = OpId::from_raw(2);
        let restraints = vec![
            Restraint::ResourceContention {
                op: op1,
                ty: mul32(),
            },
            Restraint::NegativeSlack {
                op: op1,
                slack_ps: -200.0,
            },
            Restraint::NegativeSlack {
                op: op2,
                slack_ps: -200.0,
            },
        ];
        let action = choose_action(&restraints, &cfg_seq(), &lib, 1, 0, &[], &[op1, op2])
            .expect("an action");
        assert_eq!(action, RelaxAction::AddState);
    }

    #[test]
    fn pure_contention_adds_a_resource_when_states_exhausted() {
        let lib = TechLibrary::artisan_90nm_typical();
        let op1 = OpId::from_raw(1);
        let restraints = vec![Restraint::ResourceContention {
            op: op1,
            ty: mul32(),
        }];
        // latency already at max → AddState unavailable
        let action =
            choose_action(&restraints, &cfg_seq(), &lib, 3, 0, &[], &[op1]).expect("an action");
        assert!(
            matches!(action, RelaxAction::AddResources { ty, count: 1 } if ty.class == ResourceClass::Multiplier)
        );
    }

    #[test]
    fn systemic_contention_adds_a_demand_sized_batch_above_the_threshold() {
        // Latency is at max with 3 slots: up to BATCH_THRESHOLD distinct
        // contended ops add one instance at a time; beyond it the batch
        // covers the backlog, ⌈distinct / slots⌉ instances.
        let lib = TechLibrary::artisan_90nm_typical();
        for (distinct, want) in [(5, 1), (9, 3)] {
            let ops: Vec<OpId> = (0..distinct).map(OpId::from_raw).collect();
            let restraints: Vec<Restraint> = ops
                .iter()
                .map(|&op| Restraint::ResourceContention { op, ty: mul32() })
                .collect();
            let action =
                choose_action(&restraints, &cfg_seq(), &lib, 3, 0, &[], &ops).expect("an action");
            assert_eq!(
                action,
                RelaxAction::AddResources {
                    ty: mul32(),
                    count: want
                },
                "{distinct} contended ops"
            );
        }
    }

    #[test]
    fn contention_with_slack_deadlock_escapes_with_a_batched_add() {
        let lib = TechLibrary::artisan_90nm_typical();
        let op1 = OpId::from_raw(1);
        let op2 = OpId::from_raw(2);
        // Both ops fail on contention *and* timing: the normal AddResources
        // source suppresses them and latency is at max, so without the
        // escape the specification would be declared over-constrained. The
        // escape proposes one instance per contended op in a single action.
        let restraints = vec![
            Restraint::ResourceContention {
                op: op1,
                ty: mul32(),
            },
            Restraint::NegativeSlack {
                op: op1,
                slack_ps: -120.0,
            },
            Restraint::ResourceContention {
                op: op2,
                ty: mul32(),
            },
            Restraint::NegativeSlack {
                op: op2,
                slack_ps: -120.0,
            },
        ];
        let action = choose_action(&restraints, &cfg_seq(), &lib, 3, 0, &[], &[op1, op2])
            .expect("an action");
        assert!(
            matches!(
                &action,
                RelaxAction::AddResources { ty, count: 2 }
                    if ty.class == ResourceClass::Multiplier
            ),
            "expected a 2-instance batch, got {action}"
        );
    }

    #[test]
    fn scc_window_failure_moves_the_scc_when_pipelined() {
        let lib = TechLibrary::artisan_90nm_typical();
        let cfg = SchedulerConfig::pipelined(ClockConstraint::from_period_ps(1600.0), 1, 4);
        let op = OpId::from_raw(3);
        let restraints = vec![
            Restraint::SccWindow { scc_index: 0, op },
            Restraint::NegativeSlack {
                op,
                slack_ps: -300.0,
            },
        ];
        let action = choose_action(&restraints, &cfg, &lib, 3, 1, &[], &[op]).expect("an action");
        assert_eq!(action, RelaxAction::MoveScc { scc_index: 0 });
    }

    #[test]
    fn scc_move_is_disabled_by_the_ablation_flag() {
        let lib = TechLibrary::artisan_90nm_typical();
        let cfg = SchedulerConfig::pipelined(ClockConstraint::from_period_ps(1600.0), 1, 4)
            .without_scc_move();
        let op = OpId::from_raw(3);
        let restraints = vec![Restraint::SccWindow { scc_index: 0, op }];
        let action = choose_action(&restraints, &cfg, &lib, 3, 1, &[], &[op]);
        assert!(!matches!(action, Some(RelaxAction::MoveScc { .. })));
    }

    #[test]
    fn comb_cycle_forbids_the_binding() {
        let lib = TechLibrary::artisan_90nm_typical();
        let op = OpId::from_raw(5);
        let res = ResourceInstanceId(0);
        let restraints = vec![Restraint::CombCycle { op, resource: res }];
        let action =
            choose_action(&restraints, &cfg_seq(), &lib, 3, 0, &[], &[op]).expect("an action");
        assert_eq!(action, RelaxAction::ForbidBinding { op, resource: res });
    }

    #[test]
    fn no_action_when_nothing_applies() {
        let lib = TechLibrary::artisan_90nm_typical();
        let action = choose_action(&[], &cfg_seq(), &lib, 3, 0, &[], &[]);
        assert!(action.is_none());
    }

    #[test]
    fn restraint_display_and_op() {
        let r = Restraint::NegativeSlack {
            op: OpId::from_raw(2),
            slack_ps: -150.0,
        };
        assert!(r.to_string().contains("-150"));
        assert_eq!(r.op(), OpId::from_raw(2));
        let a = RelaxAction::AddState;
        assert_eq!(a.to_string(), "add state");
        let one = RelaxAction::AddResources {
            ty: mul32(),
            count: 1,
        };
        assert_eq!(one.to_string(), format!("add resource {}", mul32()));
        let two = RelaxAction::AddResources {
            ty: mul32(),
            count: 2,
        };
        assert_eq!(
            two.to_string(),
            format!("add 2 instances of resource {}", mul32())
        );
    }
}
