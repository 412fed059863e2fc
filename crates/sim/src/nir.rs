//! Cycle-accurate execution of a structural netlist ([`NirModule`]).
//!
//! Where [`ScheduleSim`](crate::ScheduleSim) executes the *schedule* and
//! [`BoundSim`](crate::BoundSim) the *binding*, [`NirSim`] executes the
//! lowered hardware itself: the combinational cells settle in topological
//! order every cycle, registers capture on enables, and the controller
//! (FSM counter, stage-valid fill, first-iteration one-hot) advances
//! exactly as the printed Verilog's always-blocks do. Running the same
//! stimulus through this engine and the reference interpreter is what
//! proves a lowering — and every rewrite pass applied after it — correct
//! by execution.
//!
//! [`NirSim::new`] compiles the module once: it levelizes the cells with
//! [`NirModule::comb_topo_order`], renumbers them into dense slots (the
//! constants and registers first, then the rest in topological order) and
//! emits one compact 16-byte instruction per non-static cell.
//! [`NirSim::run`] then evaluates that program in a straight loop over an
//! `i64` per slot, each value kept sign-extended at its producer's width,
//! so the `BitVal` reading `as_i64` is the slot itself and `is_true` is
//! `!= 0`.
//! [`NirSim::run_reference`] keeps the per-cell [`eval_op`] walk as the
//! oracle the compiled engine must match bit for bit.

use crate::cycle::{CycleRecord, CycleTrace, TimedWrite};
use crate::error::SimError;
use crate::stimulus::Stimulus;
use hls_ir::eval::{eval_op, BitVal};
use hls_ir::{CmpKind, PortId};
use hls_nir::{BinKind, Cell, CellId, CellKind, NirModule, UnKind};
use std::collections::VecDeque;

/// Dense opcode of a compiled instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Op {
    Input,
    Fsm,
    StageValid,
    FirstIter,
    /// `Output` and `Resize`: the operand at the result width.
    Copy,
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    Not,
    Neg,
    Mux,
    Slice,
}

/// One compiled cell. Instruction `i` of the program writes slot
/// `base + i`; its operands name earlier slots.
#[derive(Clone, Copy, Debug)]
struct Insn {
    op: Op,
    /// `64 - w` for the result's value width `w`: `(v << shift) >> shift`
    /// wraps `v` to `w` bits and sign-extends it.
    shift: u8,
    /// `Shl`/`Shr`: `64 - w` of the amount's producer, so the same shift
    /// pair reads the amount's unsigned bits. `Slice`: the low bit,
    /// clamped to 63. Otherwise 0.
    aux: u8,
    /// Operand slots; for `Input` the port and the read's state, for the
    /// controller bits the stage.
    a: u32,
    b: u32,
    c: u32,
}

/// A register: its slot, the slots of its data and enable, and its width.
#[derive(Clone, Copy, Debug)]
struct RegTap {
    slot: u32,
    data: u32,
    enable: u32,
    shift: u8,
}

/// A port write: the slot of the `Output` cell's value, its enable, port
/// and scheduled state.
#[derive(Clone, Copy, Debug)]
struct OutputTap {
    value: u32,
    enable: u32,
    port: u32,
    state: u32,
}

/// Cycle-accurate simulator over a structural netlist.
#[derive(Debug)]
pub struct NirSim<'a> {
    m: &'a NirModule,
    /// Slot values at reset: constants and register reset values in the
    /// first `base` slots, zero after them.
    init: Vec<i64>,
    /// Number of static slots (constants and registers).
    base: usize,
    /// One instruction per remaining cell, in topological order.
    program: Vec<Insn>,
    /// Registers, in arena order.
    regs: Vec<RegTap>,
    /// `Output` cells, in arena order (the order writes are recorded in).
    outputs: Vec<OutputTap>,
    /// One past the highest port an `Input` cell reads.
    ports: usize,
}

/// The width a cell's value carries, as [`eval_op`] produces it:
/// comparisons and controller bits are 1-bit values whatever the cell
/// declares, every other width clamps to `1..=64`.
fn value_width(cell: &Cell) -> u16 {
    match cell.kind {
        CellKind::Bin(BinKind::Cmp(_))
        | CellKind::StageValid { .. }
        | CellKind::FirstIter { .. } => 1,
        _ => cell.width.clamp(1, 64),
    }
}

fn shift_of(width: u16) -> u8 {
    (64 - width.clamp(1, 64)) as u8
}

/// Wraps `v` to `64 - shift` bits and sign-extends it back to 64.
fn sext(v: i64, shift: u8) -> i64 {
    (v << shift) >> shift
}

fn netlist_error(id: CellId, reason: impl Into<String>) -> SimError {
    SimError::Netlist {
        cell: id.index() as u32,
        reason: reason.into(),
    }
}

impl<'a> NirSim<'a> {
    /// Compiles `m` into a simulator program; fails on combinational cycles
    /// and on cells no simulation can evaluate.
    ///
    /// # Errors
    /// [`SimError::Netlist`] when the combinational cells cannot be
    /// topologically ordered, or a cell has the wrong number of operands,
    /// an operand outside the arena or a pipeline stage outside
    /// `0..stages`.
    pub fn new(m: &'a NirModule) -> Result<Self, SimError> {
        let n = m.num_cells();
        let stages = m.stages.max(1);
        for (id, cell) in m.iter_cells() {
            if cell.inputs.len() != cell.kind.arity() {
                return Err(netlist_error(
                    id,
                    format!(
                        "`{}` expects {} inputs, got {}",
                        cell.kind.mnemonic(),
                        cell.kind.arity(),
                        cell.inputs.len()
                    ),
                ));
            }
            if let Some(bad) = cell.inputs.iter().find(|i| i.index() >= n) {
                return Err(netlist_error(
                    id,
                    format!("operand {bad} is outside the netlist"),
                ));
            }
            if let CellKind::StageValid { stage } | CellKind::FirstIter { stage } = cell.kind {
                if stage >= stages {
                    return Err(netlist_error(id, format!("stage {stage} of {stages}")));
                }
            }
        }

        // Static slots: constants never change, registers change only at
        // the clock edge.
        let mut slot = vec![u32::MAX; n];
        let mut init = Vec::with_capacity(n);
        for (id, cell) in m.iter_cells() {
            if let CellKind::Const(v) | CellKind::Reg { init: v } = cell.kind {
                slot[id.index()] = init.len() as u32;
                init.push(sext(v, shift_of(cell.width)));
            }
        }
        let base = init.len();
        let order: Vec<CellId> = m
            .comb_topo_order()
            .into_iter()
            .filter(|id| slot[id.index()] == u32::MAX)
            .collect();
        for (i, id) in order.iter().enumerate() {
            slot[id.index()] = (base + i) as u32;
        }
        init.resize(n, 0);

        let mut program = Vec::with_capacity(order.len());
        let mut ports = 0;
        for &id in &order {
            let cell = m.cell(id);
            let own = slot[id.index()];
            if let Some(late) = cell.inputs.iter().find(|i| slot[i.index()] >= own) {
                return Err(netlist_error(
                    id,
                    format!("combinational cycle through {late}"),
                ));
            }
            if let CellKind::Input { port, .. } = cell.kind {
                ports = ports.max(port as usize + 1);
            }
            program.push(compile(m, cell, &slot));
        }
        let tap = |id: CellId, q: usize| slot[m.cell(id).inputs[q].index()];
        let regs = m
            .iter_cells()
            .filter(|(_, c)| c.kind.is_seq())
            .map(|(id, c)| RegTap {
                slot: slot[id.index()],
                data: tap(id, 0),
                enable: tap(id, 1),
                shift: shift_of(c.width),
            })
            .collect();
        let outputs = m
            .iter_cells()
            .filter_map(|(id, c)| match c.kind {
                CellKind::Output { port, state } => Some(OutputTap {
                    value: slot[id.index()],
                    enable: tap(id, 1),
                    port,
                    state,
                }),
                _ => None,
            })
            .collect();
        Ok(NirSim {
            m,
            init,
            base,
            program,
            regs,
            outputs,
            ports,
        })
    }

    /// Runs one iteration per stimulus row and collects the write trace.
    ///
    /// # Errors
    /// Never fails once [`NirSim::new`] has compiled the netlist; the
    /// `Result` matches [`NirSim::run_reference`].
    pub fn run(&self, stimulus: &Stimulus) -> Result<CycleTrace, SimError> {
        let n_iters = stimulus.iterations();
        let (cpi, total) = run_length(self.m, n_iters);
        let last = n_iters.saturating_sub(1);
        // Row k holds iteration k's value of every port an input reads.
        let ports = self.ports;
        let stim: Vec<i64> = (0..n_iters)
            .flat_map(|k| (0..ports).map(move |p| stimulus.value(k, PortId::from_raw(p as u32))))
            .collect();

        let mut vals = self.init.clone();
        let mut staged = vec![0i64; self.regs.len()];
        let mut ctl = Controller::new(self.m.stages.max(1) as usize);
        let mut trace = CycleTrace {
            cycles_per_iteration: cpi as u32,
            cycles: Vec::with_capacity(total as usize),
            writes: Vec::new(),
        };

        for t in 0..total {
            for (i, ins) in self.program.iter().enumerate() {
                let x = |s: u32| vals[s as usize];
                let v = match ins.op {
                    Op::Input => {
                        let state = u64::from(ins.b);
                        let k = if t < state {
                            0
                        } else {
                            (((t - state) / cpi) as usize).min(last)
                        };
                        stim[k * ports + ins.a as usize]
                    }
                    Op::Fsm => i64::from(ctl.fsm),
                    Op::StageValid => i64::from(ctl.stage_valid[ins.a as usize]),
                    Op::FirstIter => i64::from(ctl.first_iter[ins.a as usize]),
                    Op::Copy => x(ins.a),
                    Op::Add => x(ins.a).wrapping_add(x(ins.b)),
                    Op::Sub => x(ins.a).wrapping_sub(x(ins.b)),
                    Op::Mul => x(ins.a).wrapping_mul(x(ins.b)),
                    Op::Div => match x(ins.b) {
                        0 => 0,
                        d => x(ins.a).wrapping_div(d),
                    },
                    Op::Rem => match x(ins.b) {
                        0 => x(ins.a),
                        d => x(ins.a).wrapping_rem(d),
                    },
                    Op::And => x(ins.a) & x(ins.b),
                    Op::Or => x(ins.a) | x(ins.b),
                    Op::Xor => x(ins.a) ^ x(ins.b),
                    Op::Shl => {
                        let amount = ((x(ins.b) as u64) << ins.aux) >> ins.aux;
                        if amount >= 64 {
                            0
                        } else {
                            x(ins.a) << amount
                        }
                    }
                    Op::Shr => {
                        let amount = ((x(ins.b) as u64) << ins.aux) >> ins.aux;
                        x(ins.a) >> amount.min(63)
                    }
                    Op::Eq => i64::from(x(ins.a) == x(ins.b)),
                    Op::Ne => i64::from(x(ins.a) != x(ins.b)),
                    Op::Lt => i64::from(x(ins.a) < x(ins.b)),
                    Op::Le => i64::from(x(ins.a) <= x(ins.b)),
                    Op::Gt => i64::from(x(ins.a) > x(ins.b)),
                    Op::Ge => i64::from(x(ins.a) >= x(ins.b)),
                    Op::Not => !x(ins.a),
                    Op::Neg => x(ins.a).wrapping_neg(),
                    Op::Mux => {
                        if x(ins.a) != 0 {
                            x(ins.b)
                        } else {
                            x(ins.c)
                        }
                    }
                    Op::Slice => x(ins.a) >> ins.aux,
                };
                vals[self.base + i] = sext(v, ins.shift);
            }

            for o in &self.outputs {
                if vals[o.enable as usize] != 0 {
                    if let Some(iteration) = write_iteration(t, o.state, cpi, n_iters) {
                        trace.writes.push(TimedWrite {
                            cycle: t,
                            iteration,
                            port: PortId::from_raw(o.port),
                            value: vals[o.value as usize],
                        });
                    }
                }
            }

            // register captures (simultaneous, like one posedge)
            for (next, r) in staged.iter_mut().zip(&self.regs) {
                *next = if vals[r.enable as usize] != 0 {
                    sext(vals[r.data as usize], r.shift)
                } else {
                    vals[r.slot as usize]
                };
            }
            for (r, &v) in self.regs.iter().zip(&staged) {
                vals[r.slot as usize] = v;
            }

            trace.cycles.push(ctl.record(t));
            ctl.advance(cpi);
        }
        Ok(trace)
    }

    /// The reference walk [`NirSim::run`] must match bit for bit: every
    /// cycle evaluates each cell with [`eval_op`] over [`BitVal`]s, in a
    /// Kahn order of its own, and scans the arena for writes and captures.
    ///
    /// # Errors
    /// [`SimError::Netlist`] when a cell fails to evaluate or the cells
    /// cannot be ordered.
    pub fn run_reference(&self, stimulus: &Stimulus) -> Result<CycleTrace, SimError> {
        let m = self.m;
        let order = kahn_order(m)?;
        let n_iters = stimulus.iterations();
        let (cpi, total) = run_length(m, n_iters);

        let n = m.num_cells();
        let mut vals = vec![BitVal::zero(1); n];
        let mut regs: Vec<BitVal> = m
            .cells
            .iter()
            .map(|c| match c.kind {
                CellKind::Reg { init } => BitVal::new(init, c.width),
                _ => BitVal::zero(1),
            })
            .collect();
        let mut ctl = Controller::new(m.stages.max(1) as usize);

        let mut trace = CycleTrace {
            cycles_per_iteration: cpi as u32,
            cycles: Vec::with_capacity(total as usize),
            writes: Vec::new(),
        };

        for t in 0..total {
            // combinational settle
            for &id in &order {
                let cell = m.cell(id);
                let i = |q: usize| vals[cell.inputs[q].index()];
                let v = match &cell.kind {
                    CellKind::Const(v) => BitVal::new(*v, cell.width),
                    CellKind::Input { port, state } => {
                        let k = if t < u64::from(*state) {
                            0
                        } else {
                            (((t - u64::from(*state)) / cpi) as usize)
                                .min(n_iters.saturating_sub(1))
                        };
                        BitVal::new(stimulus.value(k, PortId::from_raw(*port)), cell.width)
                    }
                    CellKind::FsmState => BitVal::from_bits(u64::from(ctl.fsm), cell.width),
                    CellKind::StageValid { stage } => {
                        BitVal::from_bits(u64::from(ctl.stage_valid[*stage as usize]), 1)
                    }
                    CellKind::FirstIter { stage } => {
                        BitVal::from_bits(u64::from(ctl.first_iter[*stage as usize]), 1)
                    }
                    CellKind::Reg { .. } => regs[id.index()],
                    CellKind::Output { .. } => i(0).resize(cell.width),
                    CellKind::Bin(b) => {
                        eval_op(&b.op_kind(), cell.width, &[i(0), i(1)]).map_err(|e| {
                            SimError::Netlist {
                                cell: id.index() as u32,
                                reason: e.to_string(),
                            }
                        })?
                    }
                    CellKind::Un(u) => eval_op(&u.op_kind(), cell.width, &[i(0)]).map_err(|e| {
                        SimError::Netlist {
                            cell: id.index() as u32,
                            reason: e.to_string(),
                        }
                    })?,
                    CellKind::Mux { .. } => {
                        let chosen = if i(0).is_true() { i(1) } else { i(2) };
                        chosen.resize(cell.width)
                    }
                    CellKind::Slice { hi, lo } => eval_op(
                        &hls_ir::OpKind::Slice { hi: *hi, lo: *lo },
                        cell.width,
                        &[i(0)],
                    )
                    .map_err(|e| SimError::Netlist {
                        cell: id.index() as u32,
                        reason: e.to_string(),
                    })?,
                    CellKind::Resize => i(0).resize(cell.width),
                };
                vals[id.index()] = v;
            }

            // observable writes, in cell-id order within the cycle
            for (id, cell) in m.iter_cells() {
                let CellKind::Output { port, state } = cell.kind else {
                    continue;
                };
                // Every enabled write is recorded, not just writes landing
                // in the cell's scheduled slot: the emitted Verilog gates
                // the port register on the enable alone, so a mis-gated
                // enable must surface here as extra writes rather than be
                // masked by the schedule's timing. (For a correct lowering
                // the enable only fires in the scheduled slot, so the two
                // gatings coincide.)
                if vals[cell.inputs[1].index()].is_true() {
                    if let Some(iteration) = write_iteration(t, state, cpi, n_iters) {
                        trace.writes.push(TimedWrite {
                            cycle: t,
                            iteration,
                            port: PortId::from_raw(port),
                            value: vals[id.index()].as_i64(),
                        });
                    }
                }
            }

            // register captures (simultaneous, like one posedge)
            for (id, cell) in m.iter_cells() {
                if !cell.kind.is_seq() {
                    continue;
                }
                if vals[cell.inputs[1].index()].is_true() {
                    regs[id.index()] = vals[cell.inputs[0].index()].resize(cell.width);
                }
            }

            trace.cycles.push(ctl.record(t));
            ctl.advance(cpi);
        }
        Ok(trace)
    }
}

/// The instruction computing `cell`, whose operands sit in `slot`.
fn compile(m: &NirModule, cell: &Cell, slot: &[u32]) -> Insn {
    let x = |q: usize| slot[cell.inputs[q].index()];
    let mut ins = Insn {
        op: Op::Copy,
        shift: shift_of(value_width(cell)),
        aux: 0,
        a: 0,
        b: 0,
        c: 0,
    };
    match cell.kind {
        CellKind::Input { port, state } => {
            ins.op = Op::Input;
            ins.a = port;
            ins.b = state;
        }
        CellKind::FsmState => ins.op = Op::Fsm,
        CellKind::StageValid { stage } => {
            ins.op = Op::StageValid;
            ins.a = stage;
        }
        CellKind::FirstIter { stage } => {
            ins.op = Op::FirstIter;
            ins.a = stage;
        }
        CellKind::Output { .. } | CellKind::Resize => ins.a = x(0),
        CellKind::Un(u) => {
            ins.op = match u {
                UnKind::Not => Op::Not,
                UnKind::Neg => Op::Neg,
            };
            ins.a = x(0);
        }
        CellKind::Bin(b) => {
            ins.op = match b {
                BinKind::Add => Op::Add,
                BinKind::Sub => Op::Sub,
                BinKind::Mul => Op::Mul,
                BinKind::Div => Op::Div,
                BinKind::Rem => Op::Rem,
                BinKind::And => Op::And,
                BinKind::Or => Op::Or,
                BinKind::Xor => Op::Xor,
                BinKind::Shl => Op::Shl,
                BinKind::Shr => Op::Shr,
                BinKind::Cmp(CmpKind::Eq) => Op::Eq,
                BinKind::Cmp(CmpKind::Ne) => Op::Ne,
                BinKind::Cmp(CmpKind::Lt) => Op::Lt,
                BinKind::Cmp(CmpKind::Le) => Op::Le,
                BinKind::Cmp(CmpKind::Gt) => Op::Gt,
                BinKind::Cmp(CmpKind::Ge) => Op::Ge,
            };
            if matches!(b, BinKind::Shl | BinKind::Shr) {
                ins.aux = shift_of(value_width(m.cell(cell.inputs[1])));
            }
            ins.a = x(0);
            ins.b = x(1);
        }
        CellKind::Mux { .. } => {
            ins.op = Op::Mux;
            ins.a = x(0);
            ins.b = x(1);
            ins.c = x(2);
        }
        CellKind::Slice { hi, lo } => {
            // The field is `hi - lo + 1` bits read sign-extended, then
            // resized to the cell width: one wrap at the narrower of the two.
            let field = (u32::from(hi).saturating_sub(u32::from(lo)) + 1).min(64) as u16;
            ins.op = Op::Slice;
            ins.shift = shift_of(field.min(cell.width.clamp(1, 64)));
            ins.aux = lo.min(63) as u8;
            ins.a = x(0);
        }
        CellKind::Const(_) | CellKind::Reg { .. } => {
            unreachable!("constants and registers live in static slots")
        }
    }
    ins
}

/// Cycles per iteration and the cycle count that runs `n_iters` iterations
/// to completion: the last starts at `(n_iters - 1) * cpi` and takes the
/// unfolded schedule length.
fn run_length(m: &NirModule, n_iters: usize) -> (u64, u64) {
    let cpi = u64::from(m.fold_states.max(1));
    let latency = u64::from(m.num_states.max(1));
    let total = match n_iters {
        0 => 0,
        n => (n as u64 - 1) * cpi + latency,
    };
    (cpi, total)
}

/// The iteration an enabled write in unfolded state `state` belongs to at
/// cycle `t`, when it is one of the `n_iters` iterations run.
fn write_iteration(t: u64, state: u32, cpi: u64, n_iters: usize) -> Option<u32> {
    let s = u64::from(state);
    if t < s {
        return None;
    }
    let k = (t - s) / cpi;
    ((k as usize) < n_iters).then_some(k as u32)
}

/// The controller registers the printed Verilog keeps: the folded FSM
/// counter, the stage-valid fill register and the first-iteration one-hot.
struct Controller {
    fsm: u32,
    stage_valid: Vec<bool>,
    first_iter: Vec<bool>,
}

impl Controller {
    fn new(stages: usize) -> Self {
        let mut stage_valid = vec![false; stages];
        stage_valid[0] = true;
        let first_iter = stage_valid.clone();
        Controller {
            fsm: 0,
            stage_valid,
            first_iter,
        }
    }

    fn record(&self, cycle: u64) -> CycleRecord {
        CycleRecord {
            cycle,
            fsm_state: self.fsm,
            active: Vec::new(),
            fired: Vec::new(),
        }
    }

    /// One clock edge of a counter modulo `cpi`.
    fn advance(&mut self, cpi: u64) {
        if u64::from(self.fsm) + 1 >= cpi {
            self.fsm = 0;
            for g in (1..self.stage_valid.len()).rev() {
                self.stage_valid[g] = self.stage_valid[g - 1];
                self.first_iter[g] = self.first_iter[g - 1];
            }
            self.stage_valid[0] = true; // pipeline fill
            self.first_iter[0] = false; // iteration 0 moves down the pipe
        } else {
            self.fsm += 1;
        }
    }
}

/// Kahn's algorithm over the combinational edges: registers sample at the
/// edge, so they have none.
fn kahn_order(m: &NirModule) -> Result<Vec<CellId>, SimError> {
    let n = m.num_cells();
    let mut indeg = vec![0usize; n];
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (id, cell) in m.iter_cells() {
        if cell.kind.is_seq() {
            continue;
        }
        indeg[id.index()] = cell.inputs.len();
        for &input in &cell.inputs {
            adj[input.index()].push(id.index() as u32);
        }
    }
    let mut queue: VecDeque<u32> = (0..n as u32).filter(|&i| indeg[i as usize] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(i) = queue.pop_front() {
        order.push(CellId::from_raw(i));
        for &next in &adj[i as usize] {
            indeg[next as usize] -= 1;
            if indeg[next as usize] == 0 {
                queue.push_back(next);
            }
        }
    }
    if order.len() != n {
        let cell = (0..n as u32).find(|&i| indeg[i as usize] > 0).unwrap_or(0);
        return Err(SimError::Netlist {
            cell,
            reason: "combinational cycle".into(),
        });
    }
    Ok(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::differential;
    use crate::interp::Interpreter;
    use hls_bind::{bind, lower, RtlStyle};
    use hls_frontend::designs;
    use hls_ir::{LinearBody, PortDirection};
    use hls_nir::UnKind;
    use hls_opt::linearize::prepare_innermost_loop;
    use hls_sched::{Scheduler, SchedulerConfig};
    use hls_tech::{ClockConstraint, TechLibrary};

    fn example1() -> LinearBody {
        let mut cdfg = designs::paper_example1_cdfg().expect("elab");
        prepare_innermost_loop(&mut cdfg).expect("prepare")
    }

    fn schedule(body: &LinearBody, config: SchedulerConfig) -> hls_netlist::ScheduleDesc {
        let lib = TechLibrary::artisan_90nm_typical();
        Scheduler::new(body, &lib, config)
            .run()
            .expect("schedulable")
            .desc
    }

    fn clk() -> ClockConstraint {
        ClockConstraint::from_period_ps(1600.0)
    }

    #[test]
    fn netlist_simulation_matches_the_interpreter_across_microarchitectures() {
        let body = example1();
        for config in [
            SchedulerConfig::sequential(clk(), 1, 3),
            SchedulerConfig::pipelined(clk(), 2, 6),
            SchedulerConfig::pipelined(clk(), 1, 6),
        ] {
            let desc = schedule(&body, config);
            let bound = bind(&body, &desc).expect("bindable");
            for style in [RtlStyle::SharedFu, RtlStyle::PerOp] {
                let m = lower(&body, &desc, &bound, style).expect("lowerable");
                hls_nir::validate(&m).expect("valid netlist");
                let report = differential::random_check_nir(&body, &m, 100, 42).expect("bit-exact");
                assert_eq!(report.iterations, 100);
                assert!(report.writes_checked >= 100);
            }
        }
    }

    #[test]
    fn rewritten_netlists_stay_bit_exact() {
        let body = example1();
        let desc = schedule(&body, SchedulerConfig::sequential(clk(), 1, 3));
        let bound = bind(&body, &desc).expect("bindable");
        let mut m = lower(&body, &desc, &bound, RtlStyle::SharedFu).expect("lowerable");
        let report = hls_nir::optimize(&mut m);
        hls_nir::validate(&m).expect("still valid");
        assert!(report.mux_depth_after <= report.mux_depth_before);
        differential::random_check_nir(&body, &m, 100, 7).expect("bit-exact after rewrites");
    }

    #[test]
    fn pipelined_netlist_sustains_the_initiation_interval() {
        let body = example1();
        let desc = schedule(&body, SchedulerConfig::pipelined(clk(), 2, 6));
        let bound = bind(&body, &desc).expect("bindable");
        let m = lower(&body, &desc, &bound, RtlStyle::SharedFu).expect("lowerable");
        let stim = Stimulus::random(&body.dfg, 40, 5);
        let trace = NirSim::new(&m).unwrap().run(&stim).unwrap();
        let pixel = body
            .dfg
            .iter_ports()
            .find(|(_, p)| p.direction == PortDirection::Output)
            .map(|(id, _)| id)
            .unwrap();
        assert!(
            trace.write_intervals(pixel).iter().all(|&d| d == 2),
            "intervals: {:?}",
            trace.write_intervals(pixel)
        );
        let reference = Interpreter::new(&body).unwrap().run(&stim).unwrap();
        assert_eq!(reference.port_writes(pixel), trace.port_writes(pixel));
    }

    /// Attaches an always-enabled output port to each probe, runs `m` for
    /// two iterations under both engines, asserts their traces are
    /// identical and returns each probe's last written value (registers
    /// show what they captured at the first edge).
    fn settle(mut m: NirModule, probes: &[CellId]) -> Vec<i64> {
        use hls_ir::{Port, PortDirection};
        let en = m.push(CellKind::Const(1), 1, vec![]);
        for &probe in probes {
            let port = m.ports.len() as u32;
            let width = m.cell(probe).width;
            m.ports.push(Port {
                name: format!("probe{port}"),
                direction: PortDirection::Output,
                width,
            });
            m.push(CellKind::Output { port, state: 0 }, width, vec![probe, en]);
        }
        let stim = Stimulus::from_rows(vec![Default::default(); 2]);
        let sim = NirSim::new(&m).expect("compiles");
        let trace = sim.run(&stim).expect("runs");
        assert_eq!(trace, sim.run_reference(&stim).expect("reference runs"));
        (0..probes.len())
            .map(|p| {
                let writes = trace.port_writes(PortId::from_raw(p as u32));
                writes.last().expect("probe written").1
            })
            .collect()
    }

    #[test]
    fn fsm_states_past_127_read_sign_extended_at_8_bits() {
        use hls_ir::{CmpKind, Port, PortDirection};
        use hls_nir::BinKind;
        let mut m = NirModule::new("fsm138");
        m.fold_states = 138;
        m.num_states = 138;
        m.ports.push(Port {
            name: "s".into(),
            direction: PortDirection::Output,
            width: 16,
        });
        let fsm = m.push(CellKind::FsmState, 8, vec![]);
        let last = m.push(CellKind::Const(137), 8, vec![]);
        let en = m.push(CellKind::Bin(BinKind::Cmp(CmpKind::Eq)), 1, vec![fsm, last]);
        let wide = m.push(CellKind::Resize, 16, vec![fsm]);
        m.push(
            CellKind::Output {
                port: 0,
                state: 137,
            },
            16,
            vec![wide, en],
        );
        let stim = Stimulus::from_rows(vec![Default::default(); 2]);
        let sim = NirSim::new(&m).unwrap();
        let trace = sim.run(&stim).unwrap();
        assert_eq!(trace, sim.run_reference(&stim).unwrap());
        assert_eq!(
            trace.port_writes(PortId::from_raw(0)),
            vec![(0, 137 - 256), (1, 137 - 256)]
        );
        assert_eq!(trace.cycles.last().map(|c| c.fsm_state), Some(137));
    }

    #[test]
    fn a_comparison_is_a_one_bit_shift_amount() {
        use hls_ir::CmpKind;
        use hls_nir::BinKind;
        let mut m = NirModule::new("cmpshift");
        let one = m.push(CellKind::Const(1), 8, vec![]);
        let two = m.push(CellKind::Const(2), 8, vec![]);
        let lt = m.push(CellKind::Bin(BinKind::Cmp(CmpKind::Lt)), 1, vec![one, two]);
        // declared wider than its 1-bit value: still reads as amount 1
        let wide_lt = m.push(CellKind::Bin(BinKind::Cmp(CmpKind::Lt)), 8, vec![one, two]);
        let shl = m.push(CellKind::Bin(BinKind::Shl), 8, vec![one, lt]);
        let shl_wide = m.push(CellKind::Bin(BinKind::Shl), 8, vec![one, wide_lt]);
        let shr = m.push(CellKind::Bin(BinKind::Shr), 8, vec![two, lt]);
        assert_eq!(
            settle(m, &[lt, wide_lt, shl, shl_wide, shr]),
            vec![-1, -1, 2, 2, 1]
        );
    }

    #[test]
    fn shift_amounts_read_unsigned_at_the_producer_width() {
        use hls_nir::BinKind;
        let mut m = NirModule::new("shifts");
        let one = m.push(CellKind::Const(1), 16, vec![]);
        let neg8 = m.push(CellKind::Const(-8), 8, vec![]);
        let k64 = m.push(CellKind::Const(64), 8, vec![]);
        let k100 = m.push(CellKind::Const(100), 8, vec![]);
        let minus2_w4 = m.push(CellKind::Const(-2), 4, vec![]); // amount 14
        let minus1_w64 = m.push(CellKind::Const(-1), 64, vec![]); // amount 2^64 - 1
        let k63 = m.push(CellKind::Const(63), 8, vec![]);
        let one64 = m.push(CellKind::Const(1), 64, vec![]);
        let cells = [
            (BinKind::Shl, one, k64),
            (BinKind::Shl, one, minus2_w4),
            (BinKind::Shl, one, minus1_w64),
            (BinKind::Shr, neg8, k100),
            (BinKind::Shr, neg8, minus2_w4),
            (BinKind::Shr, neg8, minus1_w64),
            (BinKind::Shl, one64, k63),
        ];
        let probes: Vec<CellId> = cells
            .iter()
            .map(|&(op, a, b)| {
                let w = m.cell(a).width;
                m.push(CellKind::Bin(op), w, vec![a, b])
            })
            .collect();
        assert_eq!(
            settle(m, &probes),
            vec![0, 1 << 14, 0, -1, -1, -1, i64::MIN]
        );
    }

    #[test]
    fn slices_past_the_input_width_read_the_sign() {
        let mut m = NirModule::new("slices");
        let neg1 = m.push(CellKind::Const(-1), 8, vec![]);
        let one = m.push(CellKind::Const(1), 8, vec![]);
        let x7a = m.push(CellKind::Const(0x7A), 8, vec![]);
        let neg1_64 = m.push(CellKind::Const(-1), 64, vec![]);
        let probes = [
            m.push(CellKind::Slice { hi: 15, lo: 8 }, 8, vec![neg1]),
            m.push(CellKind::Slice { hi: 15, lo: 8 }, 8, vec![one]),
            m.push(CellKind::Slice { hi: 3, lo: 0 }, 8, vec![x7a]),
            m.push(CellKind::Slice { hi: 7, lo: 4 }, 4, vec![x7a]),
            m.push(CellKind::Slice { hi: 70, lo: 66 }, 5, vec![neg1_64]),
            m.push(CellKind::Slice { hi: 200, lo: 0 }, 64, vec![neg1_64]),
        ];
        assert_eq!(settle(m, &probes), vec![-1, 0, -6, 7, -1, -1]);
    }

    #[test]
    fn division_by_zero_and_overflow_are_defined() {
        use hls_nir::BinKind;
        let mut m = NirModule::new("div");
        let seven = m.push(CellKind::Const(-7), 32, vec![]);
        let zero = m.push(CellKind::Const(0), 32, vec![]);
        let min = m.push(CellKind::Const(i64::MIN), 64, vec![]);
        let minus1 = m.push(CellKind::Const(-1), 64, vec![]);
        let min8 = m.push(CellKind::Const(-128), 8, vec![]);
        let minus1_8 = m.push(CellKind::Const(-1), 8, vec![]);
        let cells = [
            (BinKind::Div, seven, zero, 32),
            (BinKind::Rem, seven, zero, 32),
            (BinKind::Div, min, minus1, 64),
            (BinKind::Rem, min, minus1, 64),
            (BinKind::Div, min8, minus1_8, 8),
            (BinKind::Div, min8, minus1_8, 16),
        ];
        let probes: Vec<CellId> = cells
            .iter()
            .map(|&(op, a, b, w)| m.push(CellKind::Bin(op), w, vec![a, b]))
            .collect();
        assert_eq!(settle(m, &probes), vec![0, -7, i64::MIN, 0, -128, 128]);
    }

    #[test]
    fn sixty_four_bit_cells_wrap_and_width_zero_clamps_to_one_bit() {
        use hls_nir::BinKind;
        let mut m = NirModule::new("wide");
        let max = m.push(CellKind::Const(i64::MAX), 64, vec![]);
        let two = m.push(CellKind::Const(2), 64, vec![]);
        let mul = m.push(CellKind::Bin(BinKind::Mul), 64, vec![max, two]);
        let add = m.push(CellKind::Bin(BinKind::Add), 64, vec![max, two]);
        let neg = m.push(CellKind::Un(UnKind::Neg), 64, vec![add]);
        let narrow = m.push(CellKind::Const(1), 0, vec![]);
        let widened = m.push(CellKind::Resize, 8, vec![narrow]);
        let en = m.push(CellKind::Const(1), 1, vec![]);
        let reg0 = m.push(CellKind::Reg { init: 3 }, 0, vec![widened, en]);
        let not0 = m.push(CellKind::Un(UnKind::Not), 0, vec![narrow]);
        // a register narrower than its data captures the wrapped value
        let x7a = m.push(CellKind::Const(0x7A), 8, vec![]);
        let reg4 = m.push(CellKind::Reg { init: 0 }, 4, vec![x7a, en]);
        let reg4_read = m.push(CellKind::Resize, 8, vec![reg4]);
        assert_eq!(
            settle(m, &[mul, add, neg, narrow, widened, reg0, not0, reg4_read]),
            vec![-2, i64::MIN + 1, i64::MAX, -1, -1, -1, 0, -6]
        );
    }

    #[test]
    fn a_combinational_cycle_is_rejected() {
        use hls_nir::{BinKind, Cell, NirModule};
        let mut m = NirModule::new("cyc");
        let c = m.push(CellKind::Const(1), 8, vec![]);
        let a = m.add_cell(Cell {
            kind: CellKind::Bin(BinKind::Add),
            width: 8,
            inputs: vec![CellId::from_raw(1), c],
            name: None,
        });
        assert_eq!(a.index(), 1);
        let err = NirSim::new(&m).unwrap_err();
        assert!(matches!(err, SimError::Netlist { .. }), "{err}");
    }
}
