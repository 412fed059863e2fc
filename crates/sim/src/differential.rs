//! Differential verification: the reference interpreter and the
//! cycle-accurate schedule simulator must agree bit-for-bit.
//!
//! The observable behaviour of a design is its sequence of predicate-passing
//! port writes. [`check`] runs the same stimulus through both engines and
//! compares, per output port, the full `(iteration, value)` write sequence.
//! Any disagreement — a wrong value, a missing or spurious write — is a bug
//! in the scheduler, the binder, the pipeliner or the semantics themselves,
//! reported with enough context to reproduce.

use crate::cycle::ScheduleSim;
use crate::error::{Engine, SimError};
use crate::interp::Interpreter;
use crate::stimulus::Stimulus;
use hls_ir::{LinearBody, PortDirection};
use hls_netlist::ScheduleDesc;
use hls_nir::NirModule;

/// Summary of a passing differential run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DifferentialReport {
    /// Iterations (input vectors) executed.
    pub iterations: u32,
    /// Output ports compared.
    pub ports: usize,
    /// Total writes compared bit-exactly.
    pub writes_checked: usize,
}

/// Runs `stimulus` through the interpreter and the cycle-accurate simulator
/// of `desc` and asserts bit-exact agreement of every output port's write
/// sequence.
///
/// # Errors
/// [`SimError::Mismatch`] / [`SimError::WriteCountMismatch`] on divergence,
/// plus any execution error of the two engines.
pub fn check(
    body: &LinearBody,
    desc: &ScheduleDesc,
    stimulus: &Stimulus,
) -> Result<DifferentialReport, SimError> {
    let timed = ScheduleSim::new(body, desc)?.run(stimulus)?;
    compare(body, stimulus, &timed, Engine::Schedule)
}

/// Runs `stimulus` through the interpreter and the **bound** cycle-accurate
/// simulator — shared functional units computing one steered value per
/// cycle — and asserts bit-exact agreement of every output port's write
/// sequence. Passing this check proves the binding's operand muxes and
/// steering correct by execution: a mis-steered unit would leak a wrong
/// value into an observable write.
///
/// # Errors
/// Same contract as [`check`], plus [`SimError::Steering`] when a shared
/// unit cannot settle combinationally.
pub fn check_bound(
    body: &LinearBody,
    desc: &ScheduleDesc,
    bound: &hls_bind::BoundDesign,
    stimulus: &Stimulus,
) -> Result<DifferentialReport, SimError> {
    let timed = crate::bound::BoundSim::new(body, desc, bound)?.run(stimulus)?;
    compare(body, stimulus, &timed, Engine::Bound)
}

/// Runs `stimulus` through the interpreter and the **netlist** simulator —
/// the lowered cell-level hardware, controller and register chains included —
/// and asserts bit-exact agreement of every output port's write sequence.
/// This is the deepest check in the flow: it executes the same object the
/// Verilog printer serializes, so passing it proves the lowering (and any
/// rewrite passes applied to the netlist) correct by execution.
///
/// # Errors
/// Same contract as [`check`], plus [`SimError::Netlist`] when the netlist
/// itself cannot be simulated.
pub fn check_nir(
    body: &LinearBody,
    netlist: &NirModule,
    stimulus: &Stimulus,
) -> Result<DifferentialReport, SimError> {
    let timed = crate::nir::NirSim::new(netlist)?.run(stimulus)?;
    compare(body, stimulus, &timed, Engine::Netlist)
}

/// Compares `engine`'s write trace against the reference interpreter.
fn compare(
    body: &LinearBody,
    stimulus: &Stimulus,
    timed: &crate::cycle::CycleTrace,
    engine: Engine,
) -> Result<DifferentialReport, SimError> {
    let reference = Interpreter::new(body)?.run(stimulus)?;
    let mut report = DifferentialReport {
        iterations: stimulus.iterations() as u32,
        ports: 0,
        writes_checked: 0,
    };
    for (port, decl) in body.dfg.iter_ports() {
        if decl.direction != PortDirection::Output {
            continue;
        }
        report.ports += 1;
        let expected = reference.port_writes(port);
        let actual = timed.port_writes(port);
        if expected.len() != actual.len() {
            return Err(SimError::WriteCountMismatch {
                engine,
                port,
                port_name: decl.name.clone(),
                expected: expected.len(),
                actual: actual.len(),
                replay: None,
            });
        }
        for (i, (e, a)) in expected.iter().zip(actual.iter()).enumerate() {
            if e != a {
                // The first diverging write's clock cycle in the timed
                // engine pins the failure on the waveform.
                let cycle = timed.write_cycles(port).get(i).copied();
                return Err(SimError::Mismatch {
                    engine,
                    port,
                    port_name: decl.name.clone(),
                    index: i,
                    iteration: e.0,
                    expected: e.1,
                    actual: a.1,
                    cycle,
                    replay: None,
                });
            }
            report.writes_checked += 1;
        }
    }
    Ok(report)
}

/// Convenience wrapper: [`check`] with `vectors` random input vectors.
/// Divergence errors carry the [`ReplayInfo`](crate::error::ReplayInfo)
/// needed to regenerate the failing stimulus.
///
/// # Errors
/// See [`check`].
pub fn random_check(
    body: &LinearBody,
    desc: &ScheduleDesc,
    vectors: usize,
    seed: u64,
) -> Result<DifferentialReport, SimError> {
    let stimulus = Stimulus::random(&body.dfg, vectors, seed);
    check(body, desc, &stimulus).map_err(|e| e.with_replay(replay(seed, vectors)))
}

/// Convenience wrapper: [`check_bound`] with `vectors` random input vectors.
/// Divergence errors carry the [`ReplayInfo`](crate::error::ReplayInfo)
/// needed to regenerate the failing stimulus.
///
/// # Errors
/// See [`check_bound`].
pub fn random_check_bound(
    body: &LinearBody,
    desc: &ScheduleDesc,
    bound: &hls_bind::BoundDesign,
    vectors: usize,
    seed: u64,
) -> Result<DifferentialReport, SimError> {
    let stimulus = Stimulus::random(&body.dfg, vectors, seed);
    check_bound(body, desc, bound, &stimulus).map_err(|e| e.with_replay(replay(seed, vectors)))
}

/// Convenience wrapper: [`check_nir`] with `vectors` random input vectors.
/// Divergence errors carry the [`ReplayInfo`](crate::error::ReplayInfo)
/// needed to regenerate the failing stimulus.
///
/// # Errors
/// See [`check_nir`].
pub fn random_check_nir(
    body: &LinearBody,
    netlist: &NirModule,
    vectors: usize,
    seed: u64,
) -> Result<DifferentialReport, SimError> {
    let stimulus = Stimulus::random(&body.dfg, vectors, seed);
    check_nir(body, netlist, &stimulus).map_err(|e| e.with_replay(replay(seed, vectors)))
}

fn replay(seed: u64, vectors: usize) -> crate::error::ReplayInfo {
    crate::error::ReplayInfo { seed, vectors }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_frontend::designs;
    use hls_opt::linearize::prepare_innermost_loop;
    use hls_sched::{Scheduler, SchedulerConfig};
    use hls_tech::{ClockConstraint, TechLibrary};

    fn example1() -> LinearBody {
        let mut cdfg = designs::paper_example1_cdfg().expect("elab");
        prepare_innermost_loop(&mut cdfg).expect("prepare")
    }

    fn desc(body: &LinearBody, config: SchedulerConfig) -> ScheduleDesc {
        let lib = TechLibrary::artisan_90nm_typical();
        Scheduler::new(body, &lib, config)
            .run()
            .expect("schedulable")
            .desc
    }

    #[test]
    fn example1_differential_passes_for_all_microarchitectures() {
        let body = example1();
        let clk = ClockConstraint::from_period_ps(1600.0);
        for config in [
            SchedulerConfig::sequential(clk, 1, 3),
            SchedulerConfig::pipelined(clk, 2, 6),
            SchedulerConfig::pipelined(clk, 1, 6),
        ] {
            let d = desc(&body, config);
            let report = random_check(&body, &d, 100, 42).expect("bit-exact");
            assert_eq!(report.iterations, 100);
            assert!(report.writes_checked >= 100);
        }
    }

    #[test]
    fn a_corrupted_binding_is_detected() {
        let body = example1();
        let clk = ClockConstraint::from_period_ps(1600.0);
        let mut d = desc(&body, SchedulerConfig::sequential(clk, 1, 3));
        // sabotage: delay the write by one state so it lands in a state the
        // FSM only reaches in the next iteration slot — the write sequence
        // shifts and the differential must notice
        let write = body
            .dfg
            .iter_ops()
            .find(|(_, op)| matches!(op.kind, hls_ir::OpKind::Write(_)))
            .map(|(id, _)| id)
            .unwrap();
        d.ops.get_mut(&write).unwrap().state = 0;
        let err = random_check(&body, &d, 10, 1).unwrap_err();
        assert!(
            matches!(err, SimError::Causality { .. } | SimError::Mismatch { .. }),
            "{err}"
        );
    }

    #[test]
    fn divergences_are_replayable() {
        // Corrupt the lowered netlist (flip the low bit of a coefficient
        // constant) and check the random harness pins the failure: the
        // exact stimulus arguments plus the first diverging cycle.
        let body = example1();
        let clk = ClockConstraint::from_period_ps(1600.0);
        let d = desc(&body, SchedulerConfig::sequential(clk, 1, 3));
        let bound = hls_bind::bind(&body, &d).expect("binds");
        let mut m =
            hls_bind::lower(&body, &d, &bound, hls_bind::RtlStyle::SharedFu).expect("lowers");
        let coeff = (0..m.num_cells() as u32)
            .map(hls_nir::CellId::from_raw)
            .find(|&c| {
                m.cell(c).width >= 8 && matches!(m.cell(c).kind, hls_nir::CellKind::Const(_))
            })
            .expect("example1 has coefficient constants");
        if let hls_nir::CellKind::Const(v) = &mut m.cells[coeff.index()].kind {
            *v ^= 1;
        }
        let err = random_check_nir(&body, &m, 10, 0xC0FFEE).unwrap_err();
        let replay = err.replay().expect("divergence carries replay info");
        assert_eq!(replay.seed, 0xC0FFEE);
        assert_eq!(replay.vectors, 10);
        if let SimError::Mismatch { cycle, .. } = &err {
            assert!(cycle.is_some(), "diverging cycle recorded");
        }
        assert!(
            matches!(
                err,
                SimError::Mismatch {
                    engine: Engine::Netlist,
                    ..
                } | SimError::WriteCountMismatch {
                    engine: Engine::Netlist,
                    ..
                }
            ),
            "{err:?}"
        );
        let rendered = err.to_string();
        assert!(rendered.contains("0xc0ffee"), "{rendered}");
        assert!(rendered.contains("netlist simulation"), "{rendered}");
        // the replay arguments reproduce the same failure deterministically
        let again = random_check_nir(&body, &m, 10, 0xC0FFEE).unwrap_err();
        assert_eq!(err, again);
    }
}
