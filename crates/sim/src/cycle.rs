//! Cycle-accurate simulation of a scheduled (and possibly pipelined) design.
//!
//! [`ScheduleSim`] steps a [`ScheduleDesc`] clock cycle by clock cycle:
//! iteration `k` is initiated every `cycles_per_iteration()` cycles (the
//! initiation interval for pipelined schedules, the full latency otherwise),
//! and an operation scheduled in control step `s` fires for iteration `k` at
//! cycle `k * cpi + s` — which for pipelined designs overlaps iterations
//! exactly the way the folded FSM with its `stage_valid` shift register does
//! in the emitted RTL.
//!
//! Storage is modelled per *(iteration, operation)*, i.e. with as many
//! register copies as the schedule needs values to survive stage overlap —
//! the allocation [`Datapath::from_schedule`] accounts for. Every input read
//! is checked against the producer's fire time, so a schedule that violates
//! a data dependence or inter-iteration causality fails the run with a
//! [`SimError::Causality`] instead of silently computing garbage.
//!
//! [`Datapath::from_schedule`]: hls_netlist::schedule::Datapath::from_schedule

use crate::error::SimError;
use crate::stimulus::Stimulus;
use hls_ir::eval::{eval_op, BitVal};
use hls_ir::{LinearBody, OpId, OpKind, PortId, Signal};
use hls_netlist::ScheduleDesc;
use std::collections::{BTreeMap, HashMap};

/// One predicate-passing port write with its timing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimedWrite {
    /// Clock cycle of the write.
    pub cycle: u64,
    /// Iteration the write belongs to.
    pub iteration: u32,
    /// Written port.
    pub port: PortId,
    /// Written value (canonical signed reading at the port width).
    pub value: i64,
}

/// What happened in one clock cycle.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CycleRecord {
    /// The cycle number.
    pub cycle: u64,
    /// Folded FSM state (the `state` register of the emitted RTL).
    pub fsm_state: u32,
    /// Iterations in flight as `(iteration, pipeline stage)` pairs.
    pub active: Vec<(u32, u32)>,
    /// Operations that fired, as `(iteration, op)` pairs.
    pub fired: Vec<(u32, OpId)>,
}

/// Full per-cycle trace of a simulated run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CycleTrace {
    /// Cycles per initiated iteration (II if pipelined, latency otherwise).
    pub cycles_per_iteration: u32,
    /// Per-cycle records, in time order.
    pub cycles: Vec<CycleRecord>,
    /// All predicate-passing writes, in time order.
    pub writes: Vec<TimedWrite>,
}

impl CycleTrace {
    /// The `(iteration, value)` write sequence of one port.
    pub fn port_writes(&self, port: PortId) -> Vec<(u32, i64)> {
        self.writes
            .iter()
            .filter(|w| w.port == port)
            .map(|w| (w.iteration, w.value))
            .collect()
    }

    /// The cycles at which `port` was written.
    pub fn write_cycles(&self, port: PortId) -> Vec<u64> {
        self.writes
            .iter()
            .filter(|w| w.port == port)
            .map(|w| w.cycle)
            .collect()
    }

    /// Steady-state intervals between consecutive writes of `port` —
    /// for a correctly folded pipeline every entry equals the initiation
    /// interval, i.e. the throughput is `1 / II`.
    pub fn write_intervals(&self, port: PortId) -> Vec<u64> {
        self.write_cycles(port)
            .windows(2)
            .map(|w| w[1] - w[0])
            .collect()
    }

    /// Renders the first `max_cycles` cycles as a small table (FSM state,
    /// active iteration/stage pairs, fired operations).
    pub fn render(&self, body: &LinearBody, max_cycles: usize) -> String {
        let mut out = String::from("cycle | state | active (it.stage) | fired\n");
        for rec in self.cycles.iter().take(max_cycles) {
            let active = rec
                .active
                .iter()
                .map(|(k, s)| format!("it{k}.s{s}"))
                .collect::<Vec<_>>()
                .join(" ");
            let fired = rec
                .fired
                .iter()
                .filter(|(_, op)| !body.dfg.op(*op).kind.is_free())
                .map(|(k, op)| format!("{}@it{k}", body.dfg.op(*op).display_name()))
                .collect::<Vec<_>>()
                .join(" ");
            out.push_str(&format!(
                "{:>5} | s{:<4} | {:<17} | {}\n",
                rec.cycle,
                rec.fsm_state + 1,
                active,
                fired
            ));
        }
        out
    }
}

/// Cycle-accurate simulator over a body and its schedule.
pub struct ScheduleSim<'a> {
    body: &'a LinearBody,
    desc: &'a ScheduleDesc,
    /// Ops per control step, in topological order (so same-state chaining
    /// evaluates producers first, like the combinational wires in the RTL).
    ops_by_state: Vec<Vec<OpId>>,
}

impl<'a> ScheduleSim<'a> {
    /// Prepares a simulator for `body` under `desc`.
    ///
    /// # Errors
    /// [`SimError::InvalidBody`] if the body fails validation.
    pub fn new(body: &'a LinearBody, desc: &'a ScheduleDesc) -> Result<Self, SimError> {
        body.validate()?;
        let order = body.dfg.topo_order()?;
        let pos: HashMap<OpId, usize> = order.iter().enumerate().map(|(i, &o)| (o, i)).collect();
        let mut ops_by_state: Vec<Vec<OpId>> = vec![Vec::new(); desc.num_states.max(1) as usize];
        for (id, s) in &desc.ops {
            if let Some(slot) = ops_by_state.get_mut(s.state as usize) {
                slot.push(*id);
            }
        }
        for slot in &mut ops_by_state {
            slot.sort_by_key(|id| pos.get(id).copied().unwrap_or(usize::MAX));
        }
        Ok(ScheduleSim {
            body,
            desc,
            ops_by_state,
        })
    }

    /// Runs one iteration per stimulus row and collects the cycle trace.
    ///
    /// # Errors
    /// [`SimError::Causality`] if an operation fires before an input (or a
    /// write's predicate condition) has been computed, plus the evaluation
    /// errors of the interpreter.
    pub fn run(&self, stimulus: &Stimulus) -> Result<CycleTrace, SimError> {
        let n_iters = stimulus.iterations();
        let n_ops = self.body.dfg.num_ops();
        let cpi = u64::from(self.desc.cycles_per_iteration());
        let latency = u64::from(self.desc.num_states.max(1));
        let fold = self.desc.fold_states();
        let total_cycles = if n_iters == 0 {
            0
        } else {
            (n_iters as u64 - 1) * cpi + latency
        };

        let mut values: Vec<Vec<Option<BitVal>>> = vec![vec![None; n_ops]; n_iters];
        let mut trace = CycleTrace {
            cycles_per_iteration: cpi as u32,
            cycles: Vec::with_capacity(total_cycles as usize),
            writes: Vec::new(),
        };

        for t in 0..total_cycles {
            let mut rec = CycleRecord {
                cycle: t,
                fsm_state: (t % u64::from(fold)) as u32,
                active: Vec::new(),
                fired: Vec::new(),
            };
            // iterations in flight at cycle t
            let first = t.saturating_sub(latency - 1).div_ceil(cpi);
            for k in first..=(t / cpi) {
                if k as usize >= n_iters {
                    break;
                }
                let local = (t - k * cpi) as u32;
                if local >= self.desc.num_states.max(1) {
                    continue;
                }
                rec.active.push((k as u32, local / fold));
                for &id in &self.ops_by_state[local as usize] {
                    self.fire(id, k as usize, t, stimulus, &mut values, &mut trace)?;
                    rec.fired.push((k as u32, id));
                }
            }
            trace.cycles.push(rec);
        }
        Ok(trace)
    }

    /// Fires `op` for iteration `k` at cycle `t`.
    fn fire(
        &self,
        id: OpId,
        k: usize,
        t: u64,
        stimulus: &Stimulus,
        values: &mut [Vec<Option<BitVal>>],
        trace: &mut CycleTrace,
    ) -> Result<(), SimError> {
        let op = self.body.dfg.op(id);
        let value = match &op.kind {
            OpKind::Read(p) => BitVal::new(stimulus.value(k, *p), op.width),
            OpKind::Call { name, .. } => {
                return Err(SimError::UnsupportedCall {
                    op: id,
                    name: name.clone(),
                })
            }
            OpKind::Pass if op.inputs.is_empty() => {
                if op.is_first_iter_anchor() {
                    BitVal::from_bits(u64::from(k == 0), 1)
                } else {
                    BitVal::zero(op.width)
                }
            }
            OpKind::Write(p) => {
                let v = self
                    .resolve(&op.inputs[0], id, k, t, values)?
                    .resize(op.width);
                // the predicate gates the observable write; its conditions
                // must have been computed by now
                let mut taken = true;
                if !op.predicate.is_true() {
                    let mut assignment: BTreeMap<OpId, bool> = BTreeMap::new();
                    for c in op.predicate.condition_ops() {
                        let cv = values[k][c.index()].ok_or(SimError::Causality {
                            op: id,
                            input: c,
                            iteration: k as u32,
                            cycle: t,
                        })?;
                        assignment.insert(c, cv.is_true());
                    }
                    taken = op.predicate.eval(&assignment);
                }
                if taken {
                    trace.writes.push(TimedWrite {
                        cycle: t,
                        iteration: k as u32,
                        port: *p,
                        value: v.as_i64(),
                    });
                }
                v
            }
            kind => {
                let mut inputs = Vec::with_capacity(op.inputs.len());
                for sig in &op.inputs {
                    inputs.push(self.resolve(sig, id, k, t, values)?);
                }
                eval_op(kind, op.width, &inputs)
                    .map_err(|source| SimError::Eval { op: id, source })?
            }
        };
        values[k][id.index()] = Some(value);
        Ok(())
    }

    /// Resolves an input signal for the consumer `of` executing iteration
    /// `k` at cycle `t`, checking that the producing operation has already
    /// fired.
    fn resolve(
        &self,
        sig: &Signal,
        of: OpId,
        k: usize,
        t: u64,
        values: &[Vec<Option<BitVal>>],
    ) -> Result<BitVal, SimError> {
        match sig.source {
            hls_ir::dfg::SignalSource::Const(v) => Ok(BitVal::new(v, sig.width)),
            hls_ir::dfg::SignalSource::Op(p) => {
                let d = sig.distance as usize;
                if d > k {
                    // reaches before the first iteration: reads zero, the
                    // same convention as the reference interpreter
                    return Ok(BitVal::zero(sig.width));
                }
                let kk = k - d;
                let raw = values[kk][p.index()].ok_or({
                    if self.desc.ops.contains_key(&p) {
                        SimError::Causality {
                            op: of,
                            input: p,
                            iteration: k as u32,
                            cycle: t,
                        }
                    } else {
                        SimError::Unscheduled { op: p }
                    }
                })?;
                // A loop-carried value travels through a register, which only
                // updates at the end of the producer's cycle: the producing
                // iteration must have fired *strictly before* this cycle.
                // (Lower iterations fire first within a cycle, so the value
                // store alone would hide this violation.)
                if d > 0 && self.desc.fire_cycle(p, kk as u64) == Some(t) {
                    return Err(SimError::Causality {
                        op: of,
                        input: p,
                        iteration: k as u32,
                        cycle: t,
                    });
                }
                Ok(raw.resize(sig.width))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Interpreter;
    use hls_frontend::designs;
    use hls_opt::linearize::prepare_innermost_loop;
    use hls_sched::{Scheduler, SchedulerConfig};
    use hls_tech::{ClockConstraint, TechLibrary};

    fn schedule(body: &LinearBody, config: SchedulerConfig) -> hls_netlist::ScheduleDesc {
        let lib = TechLibrary::artisan_90nm_typical();
        Scheduler::new(body, &lib, config)
            .run()
            .expect("schedulable")
            .desc
    }

    fn example1_body() -> LinearBody {
        let mut cdfg = designs::paper_example1_cdfg().expect("elab");
        prepare_innermost_loop(&mut cdfg).expect("prepare")
    }

    fn clk() -> ClockConstraint {
        ClockConstraint::from_period_ps(1600.0)
    }

    #[test]
    fn sequential_example1_matches_the_interpreter() {
        let body = example1_body();
        let desc = schedule(&body, SchedulerConfig::sequential(clk(), 1, 3));
        let stim = Stimulus::random(&body.dfg, 50, 11);
        let reference = Interpreter::new(&body).unwrap().run(&stim).unwrap();
        let cycle = ScheduleSim::new(&body, &desc).unwrap().run(&stim).unwrap();
        for (id, port) in body.dfg.iter_ports() {
            if port.direction == hls_ir::PortDirection::Output {
                assert_eq!(reference.port_writes(id), cycle.port_writes(id));
            }
        }
        // a 3-state sequential schedule writes once per 3 cycles
        let pixel = body
            .dfg
            .iter_ports()
            .find(|(_, p)| p.direction == hls_ir::PortDirection::Output)
            .map(|(id, _)| id)
            .unwrap();
        assert!(cycle.write_intervals(pixel).iter().all(|&d| d == 3));
    }

    #[test]
    fn pipelined_example1_sustains_the_initiation_interval() {
        let body = example1_body();
        let desc = schedule(&body, SchedulerConfig::pipelined(clk(), 2, 6));
        assert_eq!(desc.ii, Some(2));
        let stim = Stimulus::random(&body.dfg, 40, 5);
        let cycle = ScheduleSim::new(&body, &desc).unwrap().run(&stim).unwrap();
        let pixel = body
            .dfg
            .iter_ports()
            .find(|(_, p)| p.direction == hls_ir::PortDirection::Output)
            .map(|(id, _)| id)
            .unwrap();
        // steady-state throughput is exactly 1/II: one write every 2 cycles
        assert!(
            cycle.write_intervals(pixel).iter().all(|&d| d == 2),
            "intervals: {:?}",
            cycle.write_intervals(pixel)
        );
        let reference = Interpreter::new(&body).unwrap().run(&stim).unwrap();
        assert_eq!(reference.port_writes(pixel), cycle.port_writes(pixel));
    }

    #[test]
    fn trace_reports_pipeline_fill_and_fsm_states() {
        let body = example1_body();
        let desc = schedule(&body, SchedulerConfig::pipelined(clk(), 2, 6));
        let stim = Stimulus::random(&body.dfg, 8, 1);
        let trace = ScheduleSim::new(&body, &desc).unwrap().run(&stim).unwrap();
        // cycle 0: only iteration 0 in flight; once filled, two iterations
        // overlap (LI=3 over II=2 → 2 stages)
        assert_eq!(trace.cycles[0].active, vec![(0, 0)]);
        assert!(trace.cycles.iter().any(|r| r.active.len() == 2));
        // FSM folds to II states
        assert!(trace.cycles.iter().all(|r| r.fsm_state < 2));
        let rendered = trace.render(&body, 6);
        assert!(rendered.contains("cycle"), "{rendered}");
        assert!(rendered.contains("it0"), "{rendered}");
    }

    #[test]
    fn same_cycle_carried_read_is_a_causality_violation() {
        // II=1, LI=2: producer in state 1, a loop-carried (distance-1)
        // consumer in state 0. At cycle t the producing iteration t-1 fires
        // in the same cycle as the consuming iteration t — in hardware the
        // carried value sits in a register that only updates at the end of
        // the cycle, so this schedule must be rejected, not silently
        // resolved combinationally.
        use hls_ir::{Dfg, PortDirection, Signal};
        use hls_netlist::{ScheduleDesc, ScheduledOp};
        use std::collections::BTreeMap;
        let mut dfg = Dfg::new();
        let x = dfg.add_port("x", PortDirection::Input, 8);
        let y = dfg.add_port("y", PortDirection::Output, 8);
        let r = dfg.add_op(hls_ir::OpKind::Read(x), 8, vec![]);
        let a = dfg.add_op(
            hls_ir::OpKind::Add,
            8,
            vec![Signal::op_w(r, 8), Signal::constant(0, 8)],
        );
        let b = dfg.add_op(
            hls_ir::OpKind::Add,
            8,
            vec![Signal::op_w(a, 8), Signal::constant(1, 8)],
        );
        dfg.op_mut(a).inputs[1] = Signal::carried(b, 8, 1);
        let w = dfg.add_op(hls_ir::OpKind::Write(y), 8, vec![Signal::op_w(b, 8)]);
        let body = LinearBody::from_dfg("carried", dfg);
        let mut ops = BTreeMap::new();
        for (id, state) in [(r, 0), (a, 0), (b, 1), (w, 1)] {
            ops.insert(
                id,
                ScheduledOp {
                    op: id,
                    state,
                    resource: None,
                },
            );
        }
        let desc = ScheduleDesc {
            num_states: 2,
            ii: Some(1),
            ops,
            resources: hls_tech::ResourceSet::new(),
        };
        let stim = Stimulus::random(&body.dfg, 4, 2);
        let err = ScheduleSim::new(&body, &desc).unwrap().run(&stim);
        assert!(
            matches!(err, Err(SimError::Causality { .. })),
            "expected causality violation, got {err:?}"
        );
    }

    #[test]
    fn broken_schedule_is_caught_as_causality_violation() {
        let body = example1_body();
        let mut desc = schedule(&body, SchedulerConfig::sequential(clk(), 1, 3));
        // sabotage: move the port write before the multiplication feeding it
        let write = body
            .dfg
            .iter_ops()
            .find(|(_, op)| matches!(op.kind, OpKind::Write(_)))
            .map(|(id, _)| id)
            .unwrap();
        desc.ops.get_mut(&write).unwrap().state = 0;
        let stim = Stimulus::random(&body.dfg, 4, 9);
        // the write now samples its operand before the producer has fired
        let err = ScheduleSim::new(&body, &desc).unwrap().run(&stim);
        assert!(
            matches!(err, Err(SimError::Causality { .. })),
            "expected causality violation, got {err:?}"
        );
    }
}
