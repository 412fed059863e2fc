//! Cell-level static timing analysis over a validated netlist.
//!
//! The analyzer replays the paper's Figure 8 delay model on the *lowered*
//! netlist instead of the scheduler's operation chains: every value launched
//! from a register (or a registered source such as an input port or a
//! controller bit) starts at the flip-flop clock-to-Q delay, combinational
//! cells add their Table 1 functional-unit delay, and every path ends at a
//! register or output-port endpoint with the flip-flop setup time.
//!
//! ## Steering trees are charged by fan-in, not by depth
//!
//! The lowering expresses an `n`-way sharing multiplexer as a chain of
//! 2-way [`CellKind::Mux`] cells. Physically that chain is one `mux_n`
//! (synthesis rebalances it into a tree), and the paper's model prices it as
//! such: `mux2` = 110 ps, `mux3` = 115 ps, ~5 ps per further tree level —
//! not 110 ps per chained element. The analyzer therefore computes each mux
//! subtree's *leaf fan-in* and charges [`ChainTiming::mux_tree_delay_ps`]
//! once at the point where the tree's value is consumed by a non-mux cell;
//! inner tree cells are transparent. A select the current state resolves
//! statically is a registered Moore output of the controller and launches at
//! clock-to-Q; a data-dependent select (a predicate computed this cycle)
//! contributes its full combinational arrival.
//!
//! ## The analysis is mode-aware: one pass per folded state
//!
//! In a shared-FU netlist the steering selects are `fsm == k` compares, so a
//! purely topological walk would chase *temporally false* paths: the
//! multiplier's state-2 result into the adder's state-3 steering arm looks
//! like one combinational path even though no single cycle exercises it.
//! The analyzer instead evaluates the control network once per folded state
//! (the state counter pinned to `k`, constants folded through the guard
//! logic), restricts every mux whose select is then statically known to its
//! selected arm, skips register/output endpoints whose enable is statically
//! false in that state, and reports each endpoint's worst arrival over all
//! states. Selects that stay unknown — stage-valid bits, data-dependent
//! predicates — keep both arms, which is the conservative direction.
//!
//! ## Each later state is evaluated incrementally
//!
//! The per-state semantics above are what [`analyze_timing_reference`]
//! computes literally: a full known-value walk and a full arrival walk per
//! state, O(states × cells). [`analyze_timing`] computes the same summary,
//! bit for bit, from one full walk for state 0 and an event-driven update
//! per later state. Everything state-invariant — topological order, mux
//! fan-in, every cell's delay, the fan-out lists, the endpoint list — is
//! computed once. Moving from state `k − 1` to `k` re-seeds only the state
//! counter; changed known values propagate through a worklist ordered by
//! topological rank, arrivals are re-evaluated only at muxes whose select
//! changed and downstream of a changed arrival, and only endpoints whose
//! data arrival or enable changed are re-checked. An endpoint that no event
//! reaches has the same arrival as in an earlier state, which cannot beat
//! its recorded worst. In a lowered netlist one step flips just the
//! `fsm == k − 1` and `fsm == k` decodes, so a later state costs the size
//! of those cones, not the size of the netlist.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use hls_ir::CmpKind;
use hls_netlist::ChainTiming;
use hls_nir::{BinKind, CellId, CellKind, NirModule, UnKind};

/// One cell on the critical path, with its contribution to the path delay.
#[derive(Clone, Debug, PartialEq)]
pub struct PathStep {
    /// The cell.
    pub cell: CellId,
    /// Display name (the lowering-assigned net name, or `%id`).
    pub name: String,
    /// Cell-kind mnemonic (`mul`, `mux`, `reg`, ...).
    pub kind: &'static str,
    /// Output width of the cell.
    pub width: u16,
    /// Steering-tree leaf fan-in (1 for non-mux cells; for a mux, the number
    /// of data leaves of the subtree rooted here).
    pub fanin: usize,
    /// Delay this step adds to the path, in picoseconds. Steps telescope:
    /// the sum of all increments equals the endpoint arrival.
    pub incr_ps: f64,
    /// Path arrival time at this step's output, in picoseconds.
    pub arrival_ps: f64,
}

/// One timing endpoint: a register or output-port cell where a
/// combinational path is captured.
#[derive(Clone, Debug, PartialEq)]
pub struct TimingEndpoint {
    /// The capturing cell.
    pub cell: CellId,
    /// Display name of the capturing cell.
    pub name: String,
    /// Total path delay into this endpoint (arrival + setup), picoseconds.
    pub delay_ps: f64,
    /// Slack against the clock; negative means a setup violation.
    pub slack_ps: f64,
}

/// Whole-netlist timing summary: worst slack, total negative slack and the
/// named critical path.
#[derive(Clone, Debug, PartialEq)]
pub struct TimingSummary {
    /// Clock period the slacks are measured against, picoseconds.
    pub clock_ps: f64,
    /// Worst negative slack — the smallest endpoint slack (positive when
    /// every path meets the clock).
    pub wns_ps: f64,
    /// Total negative slack: the sum of all negative endpoint slacks
    /// (0 when timing is met).
    pub tns_ps: f64,
    /// Every endpoint, sorted worst-slack first.
    pub endpoints: Vec<TimingEndpoint>,
    /// The worst path, launch to capture; empty when the netlist has no
    /// endpoints.
    pub critical_path: Vec<PathStep>,
}

impl TimingSummary {
    /// Delay of the worst path (0 when there are no endpoints).
    pub fn critical_delay_ps(&self) -> f64 {
        self.endpoints.first().map(|e| e.delay_ps).unwrap_or(0.0)
    }

    /// Whether every endpoint meets the clock.
    pub fn meets_clock(&self) -> bool {
        self.wns_ps >= 0.0
    }

    /// The critical path as a one-line `a -> b -> c` rendering.
    pub fn critical_path_names(&self) -> String {
        self.critical_path
            .iter()
            .map(|s| s.name.as_str())
            .collect::<Vec<_>>()
            .join(" -> ")
    }
}

/// Display name of a cell: its lowering-assigned name, or `%id`.
pub(crate) fn cell_name(m: &NirModule, id: CellId) -> String {
    m.cell(id).name.clone().unwrap_or_else(|| format!("{id}"))
}

/// The state-invariant shape of a validated netlist that both the
/// structural lints and the timing analysis walk: the combinational
/// topological order and each cell's steering-tree leaf fan-in. Built once
/// per netlist and shared.
pub(crate) struct CombGraph {
    /// [`NirModule::comb_topo_order`]: every combinational cell after its
    /// operands.
    pub(crate) order: Vec<CellId>,
    /// Steering-tree leaf fan-in per cell: 1 for non-mux cells; for a mux,
    /// the number of data leaves of the 2-way-mux subtree rooted at it (an
    /// arm that is itself a mux contributes its own fan-in, any other arm
    /// is one leaf).
    pub(crate) fanin: Vec<usize>,
}

impl CombGraph {
    pub(crate) fn new(m: &NirModule) -> Self {
        let order = m.comb_topo_order();
        let fanin = mux_fanins_in(m, &order);
        CombGraph { order, fanin }
    }
}

/// [`CombGraph::fanin`] of a module, computed over its own topological
/// order.
pub(crate) fn mux_fanins(m: &NirModule) -> Vec<usize> {
    mux_fanins_in(m, &m.comb_topo_order())
}

fn mux_fanins_in(m: &NirModule, order: &[CellId]) -> Vec<usize> {
    let mut fanin = vec![1usize; m.num_cells()];
    // Arena order is not topological, so walk the validated topo order.
    for &id in order {
        let cell = m.cell(id);
        if let CellKind::Mux { .. } = cell.kind {
            let arm = |x: CellId| match m.cell(x).kind {
                CellKind::Mux { .. } => fanin[x.index()],
                _ => 1,
            };
            fanin[id.index()] = arm(cell.inputs[1]) + arm(cell.inputs[2]);
        }
    }
    fanin
}

/// Statically-known cell values with the FSM state counter pinned to
/// `fsm_state` (or left free with `None`): constants, the counter itself,
/// and control logic folded over them. `None` per cell means unknown.
///
/// This deliberately covers only the shapes the lowering builds guards from
/// — `fsm == k` compares and `and`/`or`/`not` folds — plus enough mux/xor
/// propagation to chase a resolved select through derived control, and
/// width adapters ([`CellKind::Resize`]/[`CellKind::Slice`]) so that
/// rewrite-introduced re-widths on control nets stay transparent: a
/// resolved select threaded through a resize must still resolve, or the
/// rebalanced tree would pick up spurious `comb-fanin`/`dead-mux-arm`
/// findings the pre-rewrite netlist did not have.
pub(crate) fn known_values(m: &NirModule, fsm_state: Option<u64>) -> Vec<Option<u64>> {
    let mut known: Vec<Option<u64>> = vec![None; m.num_cells()];
    for id in m.comb_topo_order() {
        known[id.index()] = known_value(m, id, &known, fsm_state);
    }
    known
}

/// Masks `v` to its low `w` bits.
fn mask(v: u64, w: u16) -> u64 {
    if w >= 64 {
        v
    } else {
        v & ((1u64 << w) - 1)
    }
}

/// Values are stored masked at their cell's width; re-widening reads them
/// back signed, matching the evaluator's two's-complement model.
fn sext(v: u64, from: u16) -> u64 {
    if from == 0 || from >= 64 {
        return v;
    }
    if v & (1u64 << (from - 1)) != 0 {
        v | !((1u64 << from) - 1)
    } else {
        v
    }
}

/// One cell of [`known_values`]: its statically-known value from its
/// operands' entries in `known`.
fn known_value(
    m: &NirModule,
    id: CellId,
    known: &[Option<u64>],
    fsm_state: Option<u64>,
) -> Option<u64> {
    let cell = m.cell(id);
    let w = cell.width;
    let input = |k: usize| known[cell.inputs[k].index()];
    let input_width = |k: usize| m.cell(cell.inputs[k]).width;
    match &cell.kind {
        CellKind::Const(v) => Some(mask(*v as u64, w)),
        CellKind::FsmState => fsm_state.map(|s| mask(s, w)),
        // Timing is analyzed at steady-state occupancy: every pipeline
        // stage valid, so steering is governed by the folded state alone.
        // Paths that appear only under partial occupancy carry don't-care
        // values (the consumer's capture is stage-gated).
        CellKind::StageValid { .. } => Some(1),
        CellKind::Bin(BinKind::And) => match (input(0), input(1)) {
            (Some(0), _) | (_, Some(0)) => Some(0),
            (Some(a), Some(b)) => Some(a & b),
            _ => None,
        },
        CellKind::Bin(BinKind::Or) => match (input(0), input(1)) {
            (Some(a), _) if a == mask(u64::MAX, w) => Some(a),
            (_, Some(b)) if b == mask(u64::MAX, w) => Some(b),
            (Some(a), Some(b)) => Some(a | b),
            _ => None,
        },
        CellKind::Bin(BinKind::Xor) => match (input(0), input(1)) {
            (Some(a), Some(b)) => Some(a ^ b),
            _ => None,
        },
        CellKind::Bin(BinKind::Cmp(CmpKind::Eq)) => match (input(0), input(1)) {
            (Some(a), Some(b)) => Some(u64::from(a == b)),
            _ => None,
        },
        CellKind::Bin(BinKind::Cmp(CmpKind::Ne)) => match (input(0), input(1)) {
            (Some(a), Some(b)) => Some(u64::from(a != b)),
            _ => None,
        },
        CellKind::Un(UnKind::Not) => input(0).map(|a| mask(!a, w)),
        CellKind::Mux { .. } => match input(0) {
            Some(sel) => input(if sel != 0 { 1 } else { 2 }),
            None => None,
        },
        CellKind::Resize => input(0).map(|a| mask(sext(a, input_width(0)), w)),
        CellKind::Slice { lo, .. } => input(0).map(|a| {
            let wide = sext(a, input_width(0)) as i64;
            mask((wide >> (*lo).min(63)) as u64, w)
        }),
        _ => None,
    }
}

/// Comb cells on a failing cone: every combinational cell reachable
/// backwards from an endpoint with negative slack, stopping at sequential
/// and source cells (registers, ports, constants, controller bits — the
/// launch points of the next path segment). This is the eligibility mask
/// `hls_lint::optimize_timed` hands to the `hls_nir` timing rewrites so
/// that netlists, and netlist regions, that already meet the clock are
/// never churned.
pub fn critical_cells(m: &NirModule, summary: &TimingSummary) -> Vec<bool> {
    let mut mask = vec![false; m.num_cells()];
    let mut stack: Vec<CellId> = Vec::new();
    for ep in &summary.endpoints {
        if ep.slack_ps >= 0.0 {
            continue;
        }
        stack.extend(m.cell(ep.cell).inputs.iter().copied());
    }
    while let Some(id) = stack.pop() {
        let i = id.index();
        if mask[i] {
            continue;
        }
        let cell = m.cell(id);
        if cell.kind.is_seq() || cell.kind.is_source() {
            continue;
        }
        mask[i] = true;
        stack.extend(cell.inputs.iter().copied());
    }
    mask
}

/// One state's arrival-time pass: per cell, the arrival at its output
/// (`val`), the arrival before the mux-tree charge (`base`), and the worst
/// predecessor with the value it contributed (for path recovery).
struct TimingPass {
    val: Vec<f64>,
    pred: Vec<Option<CellId>>,
    pred_val: Vec<f64>,
}

fn timing_pass(
    m: &NirModule,
    timing: &mut ChainTiming,
    fanin: &[usize],
    known: &[Option<u64>],
) -> TimingPass {
    let n = m.num_cells();
    let launch = timing.register_arrival_ps();
    let mut val = vec![0.0f64; n];
    let mut base = vec![0.0f64; n];
    let mut pred: Vec<Option<CellId>> = vec![None; n];
    let mut pred_val = vec![0.0f64; n];

    for id in m.comb_topo_order() {
        let cell = m.cell(id);
        let i = id.index();
        if cell.kind.is_seq() || matches!(cell.kind, CellKind::Input { .. }) {
            // Registers and port samples launch from a flip-flop.
            val[i] = launch;
            base[i] = launch;
            continue;
        }
        if cell.kind.is_source() {
            // Controller bits are registers in the emitted RTL; constants
            // are static.
            let a = match cell.kind {
                CellKind::Const(_) => 0.0,
                _ => launch,
            };
            val[i] = a;
            base[i] = a;
            continue;
        }
        if let CellKind::Mux { .. } = cell.kind {
            // Candidate arrivals: the select, each *active* arm at its base
            // when the arm is an inner tree cell (its own tree charge is
            // subsumed by this root's fan-in charge). A select resolved by
            // the current state restricts the candidates to the selected
            // arm — the other arm is a different state's path — and counts
            // as a registered control line: per the paper's model the
            // steering decode is a Moore output of the controller, so it
            // launches at clock-to-Q rather than re-tracing the state
            // compare logic. Data-dependent selects (predicates computed
            // this cycle) keep their full combinational arrival.
            let sel = cell.inputs[0];
            let resolved = known[sel.index()].is_some();
            let sel_arrival = if resolved { launch } else { val[sel.index()] };
            let arms: &[CellId] = match known[sel.index()] {
                Some(s) => {
                    let picked = if s != 0 { 1 } else { 2 };
                    &cell.inputs[picked..=picked]
                }
                None => &cell.inputs[1..],
            };
            let mut best: Option<(CellId, f64)> = None;
            for &armed in arms {
                let v = match m.cell(armed).kind {
                    CellKind::Mux { .. } => base[armed.index()],
                    _ => val[armed.index()],
                };
                if best.map(|(_, b)| v > b).unwrap_or(true) {
                    best = Some((armed, v));
                }
            }
            let (mut bp, mut bv) = best.expect("muxes have at least one active arm");
            if sel_arrival > bv {
                (bp, bv) = (sel, sel_arrival);
            }
            base[i] = bv;
            val[i] = bv + timing.mux_tree_delay_ps(fanin[i], cell.width);
            // A winning *resolved* select has no meaningful predecessor
            // chain (its combinational decode is not what launches the
            // path), so the path starts here, at the control register.
            pred[i] = (bp != sel || !resolved).then_some(bp);
            pred_val[i] = bv;
            continue;
        }
        // Plain combinational cell (including Output sinks, whose own
        // "delay" is zero — the setup charge is added at the endpoint).
        let mut best: Option<(CellId, f64)> = None;
        for &input in &cell.inputs {
            let v = val[input.index()];
            if best.map(|(_, b)| v > b).unwrap_or(true) {
                best = Some((input, v));
            }
        }
        let in_widths: Vec<u16> = cell.inputs.iter().map(|&x| m.cell(x).width).collect();
        let delay = timing.cell_delay_ps(&cell.kind, &in_widths, cell.width);
        let (p, b) = best.unwrap_or((id, 0.0));
        val[i] = b + delay;
        base[i] = val[i];
        if p != id {
            pred[i] = Some(p);
            pred_val[i] = b;
        }
    }

    TimingPass {
        val,
        pred,
        pred_val,
    }
}

/// The capturing endpoint's worst input in one state's pass: every register
/// and output-port cell captures `max(data, enable)` plus the flip-flop
/// setup. The lowering registers producers directly (no register-input
/// mux), so no mux charge is added here.
fn endpoint_arrival(m: &NirModule, pass: &TimingPass, id: CellId) -> (Option<CellId>, f64) {
    let mut best: Option<(CellId, f64)> = None;
    for &input in &m.cell(id).inputs {
        let v = pass.val[input.index()];
        if best.map(|(_, b)| v > b).unwrap_or(true) {
            best = Some((input, v));
        }
    }
    match best {
        Some((p, arrival)) => (Some(p), arrival),
        None => (None, 0.0),
    }
}

/// Whether an endpoint can capture in the current state: its enable operand
/// is not statically false. Register and output cells carry the enable as
/// their second input.
fn endpoint_active(m: &NirModule, known: &[Option<u64>], id: CellId) -> bool {
    match m.cell(id).inputs.get(1) {
        Some(en) => known[en.index()] != Some(0),
        None => true,
    }
}

/// The analyzed states: one per folded state, or a single free pass for a
/// netlist without a folded controller (pipelined II=1 or fully
/// combinational).
fn analyzed_states(m: &NirModule) -> Vec<Option<u64>> {
    if m.fold_states > 1 {
        (0..m.fold_states).map(|k| Some(u64::from(k))).collect()
    } else {
        vec![None]
    }
}

/// Per endpoint cell: the worst (arrival, state index) over all states in
/// which the endpoint's enable can be true. `None` for non-endpoints and
/// for endpoints inactive in every state.
type WorstArrivals = Vec<Option<(f64, usize)>>;

/// Folds one state's endpoint arrival into the running worst. States are
/// visited in index order and only a strictly worse arrival replaces the
/// record, so the recorded state is the first to reach the worst arrival.
fn record_worst(worst: &mut Option<(f64, usize)>, arrival: f64, si: usize) {
    if worst.map(|(a, _)| arrival > a).unwrap_or(true) {
        *worst = Some((arrival, si));
    }
}

/// Runs the analysis. The module must be [`hls_nir::validate`]-clean;
/// combinational cycles would silently truncate the topological order.
///
/// Equal, bit for bit, to [`analyze_timing_reference`]; see the module
/// docs for how later states are evaluated incrementally.
pub fn analyze_timing(m: &NirModule, timing: &mut ChainTiming) -> TimingSummary {
    analyze_timing_in(m, &CombGraph::new(m), timing)
}

/// [`analyze_timing`] over an already-built [`CombGraph`] of `m`.
pub(crate) fn analyze_timing_in(
    m: &NirModule,
    graph: &CombGraph,
    timing: &mut ChainTiming,
) -> TimingSummary {
    let states = analyzed_states(m);
    let mut sta = IncrementalSta::new(m, graph, timing);
    sta.full_walk(states[0]);
    for (si, &st) in states.iter().enumerate().skip(1) {
        sta.advance(st, si);
    }
    let worst = sta.worst;
    summarize(m, timing, &graph.fanin, &states, &worst)
}

/// The literal per-state analysis [`analyze_timing`] is checked against:
/// for every folded state a full [`known_values`] walk and a full
/// arrival pass, O(states × cells). Kept as the oracle, in the same way
/// `hls_sched` keeps its monolithic `run_reference`.
pub fn analyze_timing_reference(m: &NirModule, timing: &mut ChainTiming) -> TimingSummary {
    let fanin = mux_fanins(m);
    let states = analyzed_states(m);
    let mut worst: WorstArrivals = vec![None; m.num_cells()];
    for (si, &st) in states.iter().enumerate() {
        let known = known_values(m, st);
        let pass = timing_pass(m, timing, &fanin, &known);
        for (id, cell) in m.iter_cells() {
            if !matches!(cell.kind, CellKind::Reg { .. } | CellKind::Output { .. }) {
                continue;
            }
            if !endpoint_active(m, &known, id) {
                continue;
            }
            let (_, arrival) = endpoint_arrival(m, &pass, id);
            record_worst(&mut worst[id.index()], arrival, si);
        }
    }
    summarize(m, timing, &fanin, &states, &worst)
}

/// Builds the summary from the per-endpoint worst arrivals: endpoints
/// sorted worst-slack first, WNS/TNS, and the critical path.
fn summarize(
    m: &NirModule,
    timing: &mut ChainTiming,
    fanin: &[usize],
    states: &[Option<u64>],
    worst: &WorstArrivals,
) -> TimingSummary {
    let setup = timing.setup_ps();
    let clock = timing.clock();
    let mut endpoints = Vec::new();
    for (id, cell) in m.iter_cells() {
        if !matches!(cell.kind, CellKind::Reg { .. } | CellKind::Output { .. }) {
            continue;
        }
        // An endpoint inactive in every state never captures; report it at
        // the setup floor rather than dropping it from the summary.
        let arrival = worst[id.index()].map(|(a, _)| a).unwrap_or(0.0);
        let delay = arrival + setup;
        endpoints.push(TimingEndpoint {
            cell: id,
            name: cell_name(m, id),
            delay_ps: delay,
            slack_ps: clock.slack_ps(delay),
        });
    }
    endpoints.sort_by(|a, b| {
        a.slack_ps
            .partial_cmp(&b.slack_ps)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cell.cmp(&b.cell))
    });

    let wns_ps = endpoints
        .first()
        .map(|e| e.slack_ps)
        .unwrap_or_else(|| clock.usable_period_ps());
    let tns_ps = endpoints.iter().map(|e| e.slack_ps.min(0.0)).sum::<f64>();

    // Recover the worst path by re-running the winning endpoint's state and
    // walking the recorded predecessors, carrying the value each link
    // actually contributed so increments telescope.
    let mut critical_path = Vec::new();
    if let Some(worst_ep) = endpoints.first() {
        let e = worst_ep.cell;
        let si = worst[e.index()].map(|(_, s)| s).unwrap_or(0);
        let known = known_values(m, states[si]);
        let pass = timing_pass(m, timing, fanin, &known);
        let (end_pred, _) = endpoint_arrival(m, &pass, e);
        let cell = m.cell(e);
        let mut cursor = end_pred.filter(|&p| p != e);
        let upstream = cursor.map(|p| pass.val[p.index()]).unwrap_or(0.0);
        critical_path.push(PathStep {
            cell: e,
            name: cell_name(m, e),
            kind: cell.kind.mnemonic(),
            width: cell.width,
            fanin: 1,
            incr_ps: worst_ep.delay_ps - upstream,
            arrival_ps: worst_ep.delay_ps,
        });
        let mut carried = upstream;
        while let Some(id) = cursor {
            let i = id.index();
            let cell = m.cell(id);
            let from = pass.pred[i].map(|_| pass.pred_val[i]).unwrap_or(0.0);
            critical_path.push(PathStep {
                cell: id,
                name: cell_name(m, id),
                kind: cell.kind.mnemonic(),
                width: cell.width,
                fanin: fanin[i],
                incr_ps: carried - from,
                arrival_ps: carried,
            });
            carried = from;
            cursor = pass.pred[i];
        }
        critical_path.reverse();
    }

    TimingSummary {
        clock_ps: clock.period_ps(),
        wns_ps,
        tns_ps,
        endpoints,
        critical_path,
    }
}

/// How a cell's arrival is formed; fixed for the whole analysis.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ArrivalClass {
    /// Registers, port samples, controller bits and constants: a fixed
    /// arrival (clock-to-Q, or 0 for a constant).
    Launch,
    /// A 2-way steering mux: its candidates depend on its select's known
    /// value in the current state.
    Mux,
    /// Any other combinational cell: its worst operand plus its delay.
    Plain,
}

/// Worklist flags per cell: which of its values the current state must
/// re-evaluate. A cell is queued exactly when its flags are non-zero.
const REEVAL_KNOWN: u8 = 1;
const REEVAL_ARRIVAL: u8 = 2;

/// The event-driven form of [`analyze_timing_reference`]'s per-state walk.
/// It holds one state's known values and arrivals at a time and moves them
/// to the next state by re-evaluating only what that state changes. Each
/// cell is evaluated with the reference's formula, operands in the same
/// order and ties broken by the same strict `>`, so every value is
/// bit-identical to the reference's for the same state.
struct IncrementalSta<'a> {
    m: &'a NirModule,
    order: &'a [CellId],
    /// Position of each cell in `order`: the worklist priority.
    rank: Vec<u32>,
    class: Vec<ArrivalClass>,
    /// Per class: the launch arrival, the mux tree's fan-in charge, or the
    /// plain cell's delay.
    fixed: Vec<f64>,
    launch: f64,
    /// Consumers of each cell (CSR: `fanout[fanout_start[i]..fanout_start[i + 1]]`).
    fanout_start: Vec<u32>,
    fanout: Vec<CellId>,
    /// Register and output-port cells, in arena order.
    endpoints: Vec<CellId>,
    is_endpoint: Vec<bool>,
    fsm_cells: Vec<CellId>,
    known: Vec<Option<u64>>,
    /// Arrival at each cell's output.
    val: Vec<f64>,
    /// A mux's arrival before its tree charge (equal to `val` otherwise).
    base: Vec<f64>,
    flags: Vec<u8>,
    queue: BinaryHeap<Reverse<u32>>,
    /// Endpoints whose data arrival or enable changed in this state.
    dirty: Vec<CellId>,
    is_dirty: Vec<bool>,
    worst: WorstArrivals,
    /// Cell evaluations (known value or arrival) so far.
    evaluations: usize,
}

impl<'a> IncrementalSta<'a> {
    fn new(m: &'a NirModule, graph: &'a CombGraph, timing: &mut ChainTiming) -> Self {
        let n = m.num_cells();
        let launch = timing.register_arrival_ps();
        let mut rank = vec![0u32; n];
        for (r, id) in graph.order.iter().enumerate() {
            rank[id.index()] = r as u32;
        }
        let mut class = Vec::with_capacity(n);
        let mut fixed = Vec::with_capacity(n);
        let mut endpoints = Vec::new();
        let mut is_endpoint = vec![false; n];
        let mut fsm_cells = Vec::new();
        let mut fanout_start = vec![0u32; n + 1];
        for (id, cell) in m.iter_cells() {
            let (c, f) = if cell.kind.is_seq() || matches!(cell.kind, CellKind::Input { .. }) {
                (ArrivalClass::Launch, launch)
            } else if let CellKind::Const(_) = cell.kind {
                (ArrivalClass::Launch, 0.0)
            } else if cell.kind.is_source() {
                (ArrivalClass::Launch, launch)
            } else if let CellKind::Mux { .. } = cell.kind {
                let charge = timing.mux_tree_delay_ps(graph.fanin[id.index()], cell.width);
                (ArrivalClass::Mux, charge)
            } else {
                let in_widths: Vec<u16> = cell.inputs.iter().map(|&x| m.cell(x).width).collect();
                let delay = timing.cell_delay_ps(&cell.kind, &in_widths, cell.width);
                (ArrivalClass::Plain, delay)
            };
            class.push(c);
            fixed.push(f);
            if matches!(cell.kind, CellKind::Reg { .. } | CellKind::Output { .. }) {
                endpoints.push(id);
                is_endpoint[id.index()] = true;
            }
            if let CellKind::FsmState = cell.kind {
                fsm_cells.push(id);
            }
            for &x in &cell.inputs {
                fanout_start[x.index() + 1] += 1;
            }
        }
        for i in 0..n {
            fanout_start[i + 1] += fanout_start[i];
        }
        let mut next = fanout_start.clone();
        let mut fanout = vec![CellId::from_raw(0); fanout_start[n] as usize];
        for (id, cell) in m.iter_cells() {
            for &x in &cell.inputs {
                fanout[next[x.index()] as usize] = id;
                next[x.index()] += 1;
            }
        }
        IncrementalSta {
            m,
            order: &graph.order,
            rank,
            class,
            fixed,
            launch,
            fanout_start,
            fanout,
            endpoints,
            is_endpoint,
            fsm_cells,
            known: vec![None; n],
            val: vec![0.0; n],
            base: vec![0.0; n],
            flags: vec![0; n],
            queue: BinaryHeap::new(),
            dirty: Vec::new(),
            is_dirty: vec![false; n],
            worst: vec![None; n],
            evaluations: 0,
        }
    }

    /// State 0: every known value, every arrival, every endpoint.
    fn full_walk(&mut self, state: Option<u64>) {
        for &id in self.order {
            let i = id.index();
            self.known[i] = known_value(self.m, id, &self.known, state);
            (self.val[i], self.base[i]) = self.arrival(id);
        }
        self.evaluations += 2 * self.order.len();
        for k in 0..self.endpoints.len() {
            self.check_endpoint(self.endpoints[k], 0);
        }
    }

    /// Moves from the previous state to `state` (index `si`): re-seeds the
    /// state counter, propagates what changes in topological order, then
    /// re-checks the endpoints the changes reached.
    fn advance(&mut self, state: Option<u64>, si: usize) {
        for k in 0..self.fsm_cells.len() {
            self.enqueue(self.fsm_cells[k], REEVAL_KNOWN);
        }
        while let Some(Reverse(r)) = self.queue.pop() {
            let id = self.order[r as usize];
            let i = id.index();
            let flags = std::mem::take(&mut self.flags[i]);
            if flags & REEVAL_KNOWN != 0 {
                self.evaluations += 1;
                let k = known_value(self.m, id, &self.known, state);
                if k != self.known[i] {
                    self.known[i] = k;
                    self.known_changed(id);
                }
            }
            if flags & REEVAL_ARRIVAL != 0 {
                self.evaluations += 1;
                let (v, b) = self.arrival(id);
                if v.to_bits() != self.val[i].to_bits() || b.to_bits() != self.base[i].to_bits() {
                    (self.val[i], self.base[i]) = (v, b);
                    self.arrival_changed(id);
                }
            }
        }
        for e in std::mem::take(&mut self.dirty) {
            self.is_dirty[e.index()] = false;
            self.check_endpoint(e, si);
        }
    }

    fn enqueue(&mut self, id: CellId, flag: u8) {
        let i = id.index();
        if self.flags[i] == 0 {
            self.queue.push(Reverse(self.rank[i]));
        }
        self.flags[i] |= flag;
    }

    fn mark_dirty(&mut self, e: CellId) {
        if !self.is_dirty[e.index()] {
            self.is_dirty[e.index()] = true;
            self.dirty.push(e);
        }
    }

    /// `id`'s known value changed: its combinational consumers' known
    /// values may change, a mux it selects re-picks its arms, and an
    /// endpoint it enables may switch on or off.
    fn known_changed(&mut self, id: CellId) {
        let m = self.m;
        let i = id.index();
        for k in self.fanout_start[i]..self.fanout_start[i + 1] {
            let u = self.fanout[k as usize];
            let consumer = m.cell(u);
            match self.class[u.index()] {
                ArrivalClass::Launch => {}
                ArrivalClass::Mux if consumer.inputs[0] == id => {
                    self.enqueue(u, REEVAL_KNOWN | REEVAL_ARRIVAL)
                }
                _ => self.enqueue(u, REEVAL_KNOWN),
            }
            if self.is_endpoint[u.index()] && consumer.inputs.get(1) == Some(&id) {
                self.mark_dirty(u);
            }
        }
    }

    /// `id`'s arrival changed: every combinational consumer re-evaluates
    /// its arrival and every endpoint it feeds is re-checked.
    fn arrival_changed(&mut self, id: CellId) {
        let i = id.index();
        for k in self.fanout_start[i]..self.fanout_start[i + 1] {
            let u = self.fanout[k as usize];
            if self.class[u.index()] != ArrivalClass::Launch {
                self.enqueue(u, REEVAL_ARRIVAL);
            }
            if self.is_endpoint[u.index()] {
                self.mark_dirty(u);
            }
        }
    }

    /// `(val, base)` of one cell under the current known values: the same
    /// computation as the reference's `timing_pass`, less its path
    /// bookkeeping.
    fn arrival(&self, id: CellId) -> (f64, f64) {
        let i = id.index();
        let cell = self.m.cell(id);
        match self.class[i] {
            ArrivalClass::Launch => (self.fixed[i], self.fixed[i]),
            ArrivalClass::Mux => {
                let sel = cell.inputs[0];
                let sel_known = self.known[sel.index()];
                let sel_arrival = match sel_known {
                    Some(_) => self.launch,
                    None => self.val[sel.index()],
                };
                let arms: &[CellId] = match sel_known {
                    Some(s) => {
                        let picked = if s != 0 { 1 } else { 2 };
                        &cell.inputs[picked..=picked]
                    }
                    None => &cell.inputs[1..],
                };
                let mut best: Option<f64> = None;
                for &armed in arms {
                    let v = match self.class[armed.index()] {
                        ArrivalClass::Mux => self.base[armed.index()],
                        _ => self.val[armed.index()],
                    };
                    if best.map(|b| v > b).unwrap_or(true) {
                        best = Some(v);
                    }
                }
                let mut bv = best.expect("muxes have at least one active arm");
                if sel_arrival > bv {
                    bv = sel_arrival;
                }
                (bv + self.fixed[i], bv)
            }
            ArrivalClass::Plain => {
                let v = self.worst_input(id).unwrap_or(0.0) + self.fixed[i];
                (v, v)
            }
        }
    }

    /// The latest arrival among `id`'s operands, first operand winning ties.
    fn worst_input(&self, id: CellId) -> Option<f64> {
        let mut best: Option<f64> = None;
        for &input in &self.m.cell(id).inputs {
            let v = self.val[input.index()];
            if best.map(|b| v > b).unwrap_or(true) {
                best = Some(v);
            }
        }
        best
    }

    fn check_endpoint(&mut self, e: CellId, si: usize) {
        if !endpoint_active(self.m, &self.known, e) {
            return;
        }
        let arrival = self.worst_input(e).unwrap_or(0.0);
        record_worst(&mut self.worst[e.index()], arrival, si);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_ir::{Port, PortDirection};
    use hls_nir::{validate, BinKind, Cell, NirModule};
    use hls_tech::{ClockConstraint, TechLibrary};

    fn timing(period: f64) -> (TechLibrary, ClockConstraint) {
        (
            TechLibrary::artisan_90nm_typical(),
            ClockConstraint::from_period_ps(period),
        )
    }

    fn named(
        m: &mut NirModule,
        kind: CellKind,
        width: u16,
        inputs: Vec<CellId>,
        name: &str,
    ) -> CellId {
        m.add_cell(Cell {
            kind,
            width,
            inputs,
            name: Some(name.to_string()),
        })
    }

    /// reg -> mul -> add -> reg: 40 + 930 + 350 + 40 = 1360 ps.
    #[test]
    fn chained_mul_add_matches_figure8_arithmetic() {
        let mut m = NirModule::new("chain");
        let en = m.push(CellKind::Const(1), 1, vec![]);
        let a = named(&mut m, CellKind::Reg { init: 0 }, 32, vec![], "a");
        m.cells[a.index()].inputs = vec![a, en];
        let b = named(&mut m, CellKind::Reg { init: 0 }, 32, vec![a, en], "b");
        let p = named(&mut m, CellKind::Bin(BinKind::Mul), 32, vec![a, b], "p");
        let s = named(&mut m, CellKind::Bin(BinKind::Add), 32, vec![p, b], "s");
        let r = named(&mut m, CellKind::Reg { init: 0 }, 32, vec![s, en], "r");
        validate(&m).expect("well-formed");
        let (lib, clock) = timing(1600.0);
        let mut t = ChainTiming::new(&lib, clock);
        let summary = analyze_timing(&m, &mut t);
        assert!(
            (summary.critical_delay_ps() - 1360.0).abs() < 0.1,
            "{summary:?}"
        );
        assert!((summary.wns_ps - 240.0).abs() < 0.1);
        assert_eq!(summary.tns_ps, 0.0);
        let worst = &summary.endpoints[0];
        assert_eq!(worst.cell, r);
        // the path names every cell, launch to capture
        let names: Vec<&str> = summary
            .critical_path
            .iter()
            .map(|s| s.name.as_str())
            .collect();
        assert!(names.ends_with(&["p", "s", "r"]), "{names:?}");
        // increments telescope to the endpoint delay
        let total: f64 = summary.critical_path.iter().map(|s| s.incr_ps).sum();
        assert!((total - worst.delay_ps).abs() < 1e-9);
        assert!(summary.critical_path_names().contains("->"));
    }

    /// A 4-leaf steering chain is one mux4 (120 ps), not three mux2s.
    #[test]
    fn steering_chains_are_charged_as_one_tree() {
        let mut m = NirModule::new("steer");
        let en = m.push(CellKind::Const(1), 1, vec![]);
        let sel = m.push(CellKind::Const(1), 1, vec![]);
        let mut leaves = Vec::new();
        for i in 0..4 {
            let r = named(
                &mut m,
                CellKind::Reg { init: 0 },
                32,
                vec![],
                &format!("l{i}"),
            );
            m.cells[r.index()].inputs = vec![r, en];
            leaves.push(r);
        }
        let m1 = m.push(
            CellKind::Mux { onehot: true },
            32,
            vec![sel, leaves[0], leaves[1]],
        );
        let m2 = m.push(CellKind::Mux { onehot: true }, 32, vec![sel, leaves[2], m1]);
        let m3 = m.push(CellKind::Mux { onehot: true }, 32, vec![sel, leaves[3], m2]);
        let cap = named(&mut m, CellKind::Reg { init: 0 }, 32, vec![m3, en], "cap");
        validate(&m).expect("well-formed");
        let fans = mux_fanins(&m);
        assert_eq!(fans[m1.index()], 2);
        assert_eq!(fans[m2.index()], 3);
        assert_eq!(fans[m3.index()], 4);
        let (lib, clock) = timing(1600.0);
        let mut t = ChainTiming::new(&lib, clock);
        let expected = t.register_arrival_ps() + t.mux_tree_delay_ps(4, 32) + t.setup_ps();
        let summary = analyze_timing(&m, &mut t);
        assert_eq!(summary.endpoints[0].cell, cap);
        assert!(
            (summary.critical_delay_ps() - expected).abs() < 0.1,
            "got {} want {expected}",
            summary.critical_delay_ps()
        );
        // depth-based charging would have been 40 + 3*110 + 40 = 410;
        // fan-in charging gives 40 + mux4 (115) + 40 = 195.
        assert!(summary.critical_delay_ps() < 210.0);
    }

    /// An output port is an endpoint; a tight clock produces negative slack.
    #[test]
    fn output_endpoints_and_negative_slack() {
        let mut m = NirModule::new("out");
        m.ports.push(Port {
            name: "y".into(),
            direction: PortDirection::Output,
            width: 32,
        });
        let en = m.push(CellKind::Const(1), 1, vec![]);
        let r = named(&mut m, CellKind::Reg { init: 0 }, 32, vec![], "r");
        m.cells[r.index()].inputs = vec![r, en];
        let p = named(&mut m, CellKind::Bin(BinKind::Mul), 32, vec![r, r], "p");
        m.push(CellKind::Output { port: 0, state: 0 }, 32, vec![p, en]);
        validate(&m).expect("well-formed");
        let (lib, clock) = timing(500.0);
        let mut t = ChainTiming::new(&lib, clock);
        let summary = analyze_timing(&m, &mut t);
        // 40 + 930 + 40 = 1010 ps against a 500 ps clock
        assert!((summary.critical_delay_ps() - 1010.0).abs() < 0.1);
        assert!((summary.wns_ps + 510.0).abs() < 0.1);
        assert!((summary.tns_ps + 510.0).abs() < 0.1);
        assert!(!summary.meets_clock());
    }

    /// A mux steered by an FSM-state compare only exposes each arm in the
    /// state that selects it, and an endpoint whose enable is false in a
    /// state ignores that state's arrivals — the cross-state "multiplier
    /// feeds next state's adder" path is temporally false and must not be
    /// reported. A data-dependent select keeps both arms (conservative).
    #[test]
    fn cross_state_false_paths_are_pruned() {
        let build = |data_dependent_select: bool| {
            let mut m = NirModule::new("modes");
            m.fold_states = 2;
            let fsm = m.push(CellKind::FsmState, 8, vec![]);
            let k0 = m.push(CellKind::Const(0), 8, vec![]);
            let eq0 = m.push(
                CellKind::Bin(BinKind::Cmp(hls_ir::CmpKind::Eq)),
                1,
                vec![fsm, k0],
            );
            let sel = if data_dependent_select {
                // an unresolvable mode bit: the analyzer must keep both arms
                m.push(CellKind::FirstIter { stage: 0 }, 1, vec![])
            } else {
                eq0
            };
            let r = named(&mut m, CellKind::Reg { init: 0 }, 32, vec![], "r");
            m.cells[r.index()].inputs = vec![r, eq0];
            let p = named(&mut m, CellKind::Bin(BinKind::Mul), 32, vec![r, r], "p");
            // state 0 selects the register, state 1 the multiplier — but the
            // capture register is enabled in state 0 only.
            let d = m.push(CellKind::Mux { onehot: false }, 32, vec![sel, r, p]);
            named(&mut m, CellKind::Reg { init: 0 }, 32, vec![d, eq0], "cap");
            validate(&m).expect("well-formed");
            m
        };
        let (lib, clock) = timing(1600.0);
        // resolved select: only state 0's reg -> mux2 -> cap path counts
        let pruned = analyze_timing(&build(false), &mut ChainTiming::new(&lib, clock));
        let mut t = ChainTiming::new(&lib, clock);
        let short = t.register_arrival_ps() + t.mux_tree_delay_ps(2, 32) + t.setup_ps();
        assert!(
            (pruned.critical_delay_ps() - short).abs() < 0.1,
            "got {} want {short}",
            pruned.critical_delay_ps()
        );
        // data-dependent select: the multiplier arm stays in
        let kept = analyze_timing(&build(true), &mut ChainTiming::new(&lib, clock));
        let long = t.register_arrival_ps()
            + t.cell_delay_ps(&CellKind::Bin(BinKind::Mul), &[32, 32], 32)
            + t.mux_tree_delay_ps(2, 32)
            + t.setup_ps();
        assert!(
            (kept.critical_delay_ps() - long).abs() < 0.1,
            "got {} want {long}",
            kept.critical_delay_ps()
        );
    }

    /// Runs the incremental analysis and the per-state reference on `m` and
    /// requires them to agree exactly; returns the summary.
    fn matches_reference(m: &NirModule, period: f64) -> TimingSummary {
        validate(m).expect("well-formed");
        let (lib, clock) = timing(period);
        let fast = analyze_timing(m, &mut ChainTiming::new(&lib, clock));
        let slow = analyze_timing_reference(m, &mut ChainTiming::new(&lib, clock));
        assert_eq!(fast, slow);
        fast
    }

    /// A folded controller with one `fsm == k` decode per state.
    fn fsm_decodes(m: &mut NirModule, states: u32) -> Vec<CellId> {
        m.fold_states = states;
        let fsm = m.push(CellKind::FsmState, 8, vec![]);
        (0..states)
            .map(|k| {
                let c = m.push(CellKind::Const(i64::from(k)), 8, vec![]);
                m.push(CellKind::Bin(BinKind::Cmp(CmpKind::Eq)), 1, vec![fsm, c])
            })
            .collect()
    }

    /// A free-running source register `r` and the multiplier `p = r * r`.
    fn reg_and_mul(m: &mut NirModule) -> (CellId, CellId) {
        let en = m.push(CellKind::Const(1), 1, vec![]);
        let r = named(m, CellKind::Reg { init: 0 }, 32, vec![], "r");
        m.cells[r.index()].inputs = vec![r, en];
        let p = named(m, CellKind::Bin(BinKind::Mul), 32, vec![r, r], "p");
        (r, p)
    }

    /// `(short, long)`: reg -> mux2 -> reg, and reg -> mul -> mux2 -> reg.
    fn mux_path_delays(period: f64) -> (f64, f64) {
        let (lib, clock) = timing(period);
        let mut t = ChainTiming::new(&lib, clock);
        let short = t.register_arrival_ps() + t.mux_tree_delay_ps(2, 32) + t.setup_ps();
        let mul = t.cell_delay_ps(&CellKind::Bin(BinKind::Mul), &[32, 32], 32);
        (short, short + mul)
    }

    /// An endpoint enabled in states 0 and 2 but not in 1 or 3 counts only
    /// its enabled states. Steered to the multiplier in states 1 and 3 it
    /// never sees that arm; steered to it in states 1 and 2 it must be
    /// re-checked when its enable turns back on in state 2, although its
    /// data arrival did not change from state 1, and the path is recovered
    /// from state 2.
    #[test]
    fn endpoint_enable_on_off_on_across_states() {
        let (_, long) = mux_path_delays(1600.0);
        for (steered, through_mul) in [([1usize, 3], false), ([1, 2], true)] {
            let mut m = NirModule::new("toggle");
            let eq = fsm_decodes(&mut m, 4);
            let (r, p) = reg_and_mul(&mut m);
            let en = m.push(CellKind::Bin(BinKind::Or), 1, vec![eq[0], eq[2]]);
            let sel = m.push(
                CellKind::Bin(BinKind::Or),
                1,
                vec![eq[steered[0]], eq[steered[1]]],
            );
            let d = m.push(CellKind::Mux { onehot: false }, 32, vec![sel, p, r]);
            named(&mut m, CellKind::Reg { init: 0 }, 32, vec![d, en], "cap");
            let s = matches_reference(&m, 1600.0);
            // the enable decode is the longest path when the multiplier
            // arm does not count
            assert_eq!(
                (s.critical_delay_ps() - long).abs() < 0.1,
                through_mul,
                "steered in states {steered:?}: {s:?}"
            );
            let named_mul = s.critical_path.iter().any(|st| st.name == "p");
            assert_eq!(named_mul, through_mul, "{}", s.critical_path_names());
        }
    }

    /// An always-enabled endpoint is re-checked when only its data arrival
    /// changes: the multiplier arm is steered in the last state only.
    #[test]
    fn endpoint_data_change_under_a_constant_enable() {
        let (_, long) = mux_path_delays(1600.0);
        let mut m = NirModule::new("data");
        let eq = fsm_decodes(&mut m, 3);
        let (r, p) = reg_and_mul(&mut m);
        let on = m.push(CellKind::Const(1), 1, vec![]);
        let d = m.push(CellKind::Mux { onehot: false }, 32, vec![eq[2], p, r]);
        named(&mut m, CellKind::Reg { init: 0 }, 32, vec![d, on], "cap");
        let s = matches_reference(&m, 1600.0);
        assert!((s.critical_delay_ps() - long).abs() < 0.1, "{s:?}");
    }

    /// A data-dependent (first-iteration) select stays unknown in every
    /// state, so both arms count wherever the endpoint captures; gated by a
    /// state decode it is known-false in the other states, and the select
    /// switches between known and unknown from state to state.
    #[test]
    fn data_dependent_select_in_a_multi_state_netlist() {
        let (_, long) = mux_path_delays(1600.0);
        for gate in [None, Some(1usize), Some(3)] {
            let mut m = NirModule::new("first");
            let eq = fsm_decodes(&mut m, 4);
            let (r, p) = reg_and_mul(&mut m);
            let first = m.push(CellKind::FirstIter { stage: 0 }, 1, vec![]);
            let sel = match gate {
                Some(k) => m.push(CellKind::Bin(BinKind::And), 1, vec![first, eq[k]]),
                None => first,
            };
            let d = m.push(CellKind::Mux { onehot: false }, 32, vec![sel, p, r]);
            named(&mut m, CellKind::Reg { init: 0 }, 32, vec![d, eq[3]], "cap");
            let s = matches_reference(&m, 1600.0);
            if gate == Some(1) {
                // unknown only in state 1, where `cap` does not capture
                assert!(s.critical_delay_ps() < long - 0.1, "{s:?}");
            } else {
                assert!(s.critical_delay_ps() >= long - 0.1, "{s:?}");
            }
        }
    }

    /// A select decoded through xor, not, resize and slice still resolves
    /// per state: `cap` captures only outside state 2, where the decode
    /// picks the register arm, so the multiplier arm never counts.
    #[test]
    fn select_decode_through_xor_not_resize_slice() {
        let (_, long) = mux_path_delays(1600.0);
        let mut m = NirModule::new("decode");
        let eq = fsm_decodes(&mut m, 4);
        let (r, p) = reg_and_mul(&mut m);
        let one = m.push(CellKind::Const(1), 1, vec![]);
        let ne = m.push(CellKind::Bin(BinKind::Xor), 1, vec![eq[2], one]);
        let back = m.push(CellKind::Un(UnKind::Not), 1, vec![ne]);
        let wide = m.push(CellKind::Resize, 8, vec![back]);
        let bit = m.push(CellKind::Slice { hi: 0, lo: 0 }, 1, vec![wide]);
        let d = m.push(CellKind::Mux { onehot: false }, 32, vec![bit, p, r]);
        named(&mut m, CellKind::Reg { init: 0 }, 32, vec![d, ne], "cap");
        let s = matches_reference(&m, 1600.0);
        assert!(s.critical_delay_ps() < long - 0.1, "{s:?}");
        assert!(s.critical_path.iter().all(|st| st.name != "p"), "{s:?}");
    }

    /// An endpoint no state enables is reported at the setup floor.
    #[test]
    fn endpoint_inactive_in_every_state() {
        let mut m = NirModule::new("never");
        let eq = fsm_decodes(&mut m, 3);
        let (_, p) = reg_and_mul(&mut m);
        let never = m.push(CellKind::Bin(BinKind::And), 1, vec![eq[0], eq[1]]);
        let cap = named(&mut m, CellKind::Reg { init: 0 }, 32, vec![p, never], "cap");
        let s = matches_reference(&m, 1600.0);
        let (lib, clock) = timing(1600.0);
        let setup = ChainTiming::new(&lib, clock).setup_ps();
        let ep = s
            .endpoints
            .iter()
            .find(|e| e.cell == cap)
            .expect("reported");
        assert_eq!(ep.delay_ps, setup);
    }

    /// Without a folded controller there is one free pass: the state
    /// counter is unknown, so a state-decoded select keeps both arms.
    #[test]
    fn single_state_netlists_get_one_free_pass() {
        let (_, long) = mux_path_delays(1600.0);
        for states in [0, 1] {
            let mut m = NirModule::new("free");
            let eq = fsm_decodes(&mut m, 2);
            m.fold_states = states;
            let (r, p) = reg_and_mul(&mut m);
            let d = m.push(CellKind::Mux { onehot: false }, 32, vec![eq[1], p, r]);
            named(&mut m, CellKind::Reg { init: 0 }, 32, vec![d, eq[0]], "cap");
            let s = matches_reference(&m, 1600.0);
            assert!((s.critical_delay_ps() - long).abs() < 0.1, "{s:?}");
        }
    }

    /// A netlist without registers or outputs has no endpoints and no path.
    #[test]
    fn netlists_without_endpoints() {
        let mut m = NirModule::new("comb");
        let eq = fsm_decodes(&mut m, 3);
        let a = m.push(CellKind::Const(3), 8, vec![]);
        let s = m.push(CellKind::Bin(BinKind::Add), 8, vec![a, a]);
        m.push(CellKind::Mux { onehot: false }, 8, vec![eq[1], s, a]);
        let summary = matches_reference(&m, 1600.0);
        assert!(summary.endpoints.is_empty());
        assert!(summary.critical_path.is_empty());
        assert_eq!(
            summary.wns_ps,
            ClockConstraint::from_period_ps(1600.0).usable_period_ps()
        );
        assert_eq!(summary.tns_ps, 0.0);
    }

    /// A later state re-evaluates the cells its state decodes reach, not
    /// the netlist: a long state-invariant adder chain is walked once.
    #[test]
    fn later_states_touch_only_the_changed_cones() {
        let states = 16;
        let mut m = NirModule::new("cones");
        let eq = fsm_decodes(&mut m, states);
        let (r, _) = reg_and_mul(&mut m);
        let mut acc = r;
        for _ in 0..200 {
            acc = m.push(CellKind::Bin(BinKind::Add), 32, vec![acc, r]);
        }
        named(
            &mut m,
            CellKind::Reg { init: 0 },
            32,
            vec![acc, eq[0]],
            "sum",
        );
        for (k, &e) in eq.iter().enumerate() {
            let d = m.push(CellKind::Mux { onehot: false }, 32, vec![e, acc, r]);
            named(
                &mut m,
                CellKind::Reg { init: 0 },
                32,
                vec![d, e],
                &format!("c{k}"),
            );
        }
        matches_reference(&m, 20_000.0);
        let (lib, clock) = timing(20_000.0);
        let graph = CombGraph::new(&m);
        let mut sta = IncrementalSta::new(&m, &graph, &mut ChainTiming::new(&lib, clock));
        sta.full_walk(Some(0));
        let full = sta.evaluations;
        for k in 1..states {
            sta.advance(Some(u64::from(k)), k as usize);
        }
        let per_state = (sta.evaluations - full) / (states as usize - 1);
        // the state counter's 16 compares, 2 flipped decodes and their
        // muxes, against 2 × ~270 cells for a full walk
        assert!(per_state * 10 < full, "{per_state} per state vs {full}");
    }

    /// The analysis is a pure function of the module.
    #[test]
    fn analysis_is_deterministic() {
        let mut m = NirModule::new("det");
        let en = m.push(CellKind::Const(1), 1, vec![]);
        let r = named(&mut m, CellKind::Reg { init: 0 }, 16, vec![], "r");
        m.cells[r.index()].inputs = vec![r, en];
        let s = named(&mut m, CellKind::Bin(BinKind::Add), 16, vec![r, r], "s");
        let _cap = named(&mut m, CellKind::Reg { init: 0 }, 16, vec![s, en], "cap");
        let (lib, clock) = timing(1600.0);
        let a = analyze_timing(&m, &mut ChainTiming::new(&lib, clock));
        let b = analyze_timing(&m, &mut ChainTiming::new(&lib, clock));
        assert_eq!(a, b);
    }
}
