//! Property tests for the structural netlist: random small programs go
//! through the full flow to a lowered [`NirModule`], and the netlist must
//! (a) survive a text round-trip structurally unchanged —
//! `text_parse(text_emit(n)) == n` — and (b) reach a rewrite fixpoint in one
//! `optimize` run (a second run changes nothing). Both properties are
//! checked before and after optimization, and the rewritten netlist must
//! stay differentially bit-exact against the reference interpreter. The
//! compiled netlist simulator must also equal its per-cell reference walk
//! on every netlist the flow produces, and on a corrupted one.

use hls::bind::{bind, lower, RtlStyle};
use hls::frontend::ast::{Behavior, BinOp, Expr};
use hls::frontend::BehaviorBuilder;
use hls::ir::CmpKind;
use hls::netlist::{text_emit, text_parse, validate};
use hls::opt::linearize::prepare_innermost_loop;
use hls::sched::{Scheduler, SchedulerConfig};
use hls::sim::{differential, CycleTrace, NirSim, Stimulus};
use hls::tech::{ClockConstraint, TechLibrary};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Builds a random behaviour (same shape as `prop_differential`): a few
/// variables, a straight-line body of assignments over random expressions,
/// a predicated region, a port write and a trailing wait.
fn random_behavior(seed: u64) -> Behavior {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = BehaviorBuilder::new(format!("nir{seed}"));
    b.port_in("p0", 16);
    b.port_in("p1", 8);
    b.port_out("out", 16);
    let n_vars = rng.gen_range(1usize..=3);
    let widths = [8u16, 16, 32];
    let vars: Vec<_> = (0..n_vars)
        .map(|i| {
            let w = widths[rng.gen_range(0usize..3)];
            let init = rng.gen_range(0u64..64) as i64 - 32;
            b.var(format!("v{i}"), w, init)
        })
        .collect();

    let leaf = |rng: &mut SmallRng, b: &BehaviorBuilder| -> Expr {
        match rng.gen_range(0u32..5) {
            0 => b.read_port("p0"),
            1 => b.read_port("p1"),
            2 | 3 => Expr::Var(vars[rng.gen_range(0usize..vars.len())]),
            _ => Expr::Const(rng.gen_range(0u64..512) as i64 - 256),
        }
    };
    let node = |rng: &mut SmallRng, a: Expr, c: Expr| -> Expr {
        match rng.gen_range(0u32..8) {
            0 => Expr::add(a, c),
            1 => Expr::sub(a, c),
            2 => Expr::mul(a, c),
            3 => Expr::Binary(BinOp::And, Box::new(a), Box::new(c)),
            4 => Expr::Binary(BinOp::Xor, Box::new(a), Box::new(c)),
            5 => Expr::shl(a, Expr::Const(rng.gen_range(0u64..12) as i64)),
            6 => Expr::shr(a, Expr::Const(rng.gen_range(0u64..12) as i64)),
            _ => Expr::select(Expr::cmp(CmpKind::Gt, a.clone(), Expr::Const(0)), a, c),
        }
    };

    let mut body = Vec::new();
    for _ in 0..rng.gen_range(2usize..6) {
        let var = vars[rng.gen_range(0usize..vars.len())];
        let l0 = leaf(&mut rng, &b);
        let l1 = leaf(&mut rng, &b);
        let mut e = node(&mut rng, l0, l1);
        if rng.gen_bool(0.5) {
            let l2 = leaf(&mut rng, &b);
            e = node(&mut rng, e, l2);
        }
        body.push(b.assign(var, e));
    }
    if rng.gen_bool(0.7) {
        let v = vars[rng.gen_range(0usize..vars.len())];
        let cond = Expr::cmp(
            CmpKind::Gt,
            Expr::Var(v),
            Expr::Const(rng.gen_range(0u64..16) as i64),
        );
        let l = leaf(&mut rng, &b);
        let r = leaf(&mut rng, &b);
        body.push(b.if_then_else(
            cond,
            vec![b.assign(v, Expr::mul(l, Expr::Const(3)))],
            vec![b.assign(v, Expr::add(r, Expr::Const(1)))],
        ));
    }
    body.push(b.write_port("out", Expr::Var(vars[rng.gen_range(0usize..vars.len())])));
    body.push(b.wait());
    let l = b.do_while(
        "main",
        body,
        Expr::cmp(CmpKind::Ne, b.read_port("p0"), Expr::Const(0)),
    );
    b.infinite_loop(vec![l]);
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    #[test]
    fn lowered_netlists_round_trip_and_rewrites_are_idempotent(
        seed in 0u64..10_000,
        pipelined in any::<bool>(),
        shared in any::<bool>(),
    ) {
        let behavior = random_behavior(seed);
        let mut cdfg = hls::frontend::elaborate(&behavior).expect("elaborates");
        let body = prepare_innermost_loop(&mut cdfg).expect("linearizes");
        let lib = TechLibrary::artisan_90nm_typical();
        let clock = ClockConstraint::from_period_ps(4200.0);
        let config = if pipelined {
            SchedulerConfig::pipelined(clock, 2, 24)
        } else {
            SchedulerConfig::sequential(clock, 1, 24)
        };
        let Ok(schedule) = Scheduler::new(&body, &lib, config).run() else {
            // an over-constrained random instance is acceptable
            return Ok(());
        };
        let bound = bind(&body, &schedule.desc)
            .map_err(|e| TestCaseError::fail(format!("seed {seed}: bind: {e}")))?;
        let style = if shared { RtlStyle::SharedFu } else { RtlStyle::PerOp };
        let mut m = lower(&body, &schedule.desc, &bound, style)
            .map_err(|e| TestCaseError::fail(format!("seed {seed}: lower: {e}")))?;
        validate(&m).map_err(|e| TestCaseError::fail(format!("seed {seed}: validate: {e}")))?;

        // text round-trip on the freshly lowered netlist
        let reparsed = text_parse(&text_emit(&m))
            .map_err(|e| TestCaseError::fail(format!("seed {seed}: parse: {e}")))?;
        prop_assert_eq!(&reparsed, &m);

        // rewrites reach a fixpoint in one run…
        let r1 = hls::netlist::optimize(&mut m);
        validate(&m).map_err(|e| TestCaseError::fail(format!("seed {seed}: post-opt: {e}")))?;
        prop_assert!(r1.mux_depth_after <= r1.mux_depth_before, "{:?}", r1);
        let fixpoint = m.clone();
        let r2 = hls::netlist::optimize(&mut m);
        prop_assert_eq!(&m, &fixpoint);
        prop_assert_eq!(r2.rebalanced, 0);
        prop_assert_eq!(r2.swept, 0);

        // …and the rewritten netlist still round-trips
        let reparsed = text_parse(&text_emit(&m))
            .map_err(|e| TestCaseError::fail(format!("seed {seed}: re-parse: {e}")))?;
        prop_assert_eq!(&reparsed, &m);

        // rewrites preserved observable behaviour
        differential::random_check_nir(&body, &m, 40, seed)
            .map_err(|e| TestCaseError::fail(format!("seed {seed}: differential: {e}")))?;
    }

    /// Netlists containing the timed-rewrite shapes — rebuilt balanced
    /// operator trees, strength-reduced shifts and retimed registers — keep
    /// the text-format contract `text_parse(text_emit(n)) == n` and stay
    /// differentially bit-exact. The passes run unmasked here to maximize
    /// how many of the new cell shapes land in the corpus.
    #[test]
    fn timed_rewrite_shapes_round_trip_and_stay_bit_exact(
        seed in 0u64..10_000,
        pipelined in any::<bool>(),
        shared in any::<bool>(),
    ) {
        let behavior = random_behavior(seed);
        let mut cdfg = hls::frontend::elaborate(&behavior).expect("elaborates");
        let body = prepare_innermost_loop(&mut cdfg).expect("linearizes");
        let lib = TechLibrary::artisan_90nm_typical();
        let clock = ClockConstraint::from_period_ps(4200.0);
        let config = if pipelined {
            SchedulerConfig::pipelined(clock, 2, 24)
        } else {
            SchedulerConfig::sequential(clock, 1, 24)
        };
        let Ok(schedule) = Scheduler::new(&body, &lib, config).run() else {
            return Ok(());
        };
        let bound = bind(&body, &schedule.desc)
            .map_err(|e| TestCaseError::fail(format!("seed {seed}: bind: {e}")))?;
        let style = if shared { RtlStyle::SharedFu } else { RtlStyle::PerOp };
        let mut m = lower(&body, &schedule.desc, &bound, style)
            .map_err(|e| TestCaseError::fail(format!("seed {seed}: lower: {e}")))?;
        hls::netlist::optimize(&mut m);

        let rebalanced = hls::nir::rebalance_operator_chains(&mut m, None);
        let reduced = hls::nir::strength_reduce_shifts(&mut m, None);
        let retimed = hls::nir::retime_registers(&mut m, None);
        hls::nir::normalize(&mut m);
        hls::nir::sweep(&mut m);
        validate(&m)
            .map_err(|e| TestCaseError::fail(format!("seed {seed}: post-timed: {e}")))?;
        let _ = (rebalanced, reduced, retimed);

        // the new cell shapes survive the text format unchanged
        let reparsed = text_parse(&text_emit(&m))
            .map_err(|e| TestCaseError::fail(format!("seed {seed}: parse: {e}")))?;
        prop_assert_eq!(&reparsed, &m);

        // and observable behaviour is untouched
        differential::random_check_nir(&body, &m, 40, seed)
            .map_err(|e| TestCaseError::fail(format!("seed {seed}: differential: {e}")))?;
    }

    /// The compiled `NirSim::run` equals `NirSim::run_reference` — every
    /// write and every cycle record — on random lowered netlists,
    /// sequential and II=2, shared-FU and per-op, before and after
    /// `optimize()`, after `optimize_timed()` at a 900 ps clock, and on a
    /// netlist whose first output is inverted, where both report the same
    /// divergence from the interpreter.
    #[test]
    fn compiled_nir_sim_equals_the_reference(
        seed in 0u64..10_000,
        pipelined in any::<bool>(),
        shared in any::<bool>(),
    ) {
        let behavior = random_behavior(seed);
        let mut cdfg = hls::frontend::elaborate(&behavior).expect("elaborates");
        let body = prepare_innermost_loop(&mut cdfg).expect("linearizes");
        let lib = TechLibrary::artisan_90nm_typical();
        let clock = ClockConstraint::from_period_ps(4200.0);
        let config = if pipelined {
            SchedulerConfig::pipelined(clock, 2, 24)
        } else {
            SchedulerConfig::sequential(clock, 1, 24)
        };
        let Ok(schedule) = Scheduler::new(&body, &lib, config).run() else {
            return Ok(());
        };
        let bound = bind(&body, &schedule.desc)
            .map_err(|e| TestCaseError::fail(format!("seed {seed}: bind: {e}")))?;
        let style = if shared { RtlStyle::SharedFu } else { RtlStyle::PerOp };
        let mut m = lower(&body, &schedule.desc, &bound, style)
            .map_err(|e| TestCaseError::fail(format!("seed {seed}: lower: {e}")))?;
        let stimulus = Stimulus::random(&body.dfg, 24, seed);
        let traces = |m: &hls::nir::NirModule| -> (CycleTrace, CycleTrace) {
            let sim = NirSim::new(m).expect("compiles");
            let fast = sim.run(&stimulus).expect("runs");
            let slow = sim.run_reference(&stimulus).expect("reference runs");
            (fast, slow)
        };

        let (fast, slow) = traces(&m);
        prop_assert!(fast == slow, "seed {}: lowered", seed);
        hls::netlist::optimize(&mut m);
        let (fast, slow) = traces(&m);
        prop_assert!(fast == slow, "seed {}: optimized", seed);
        hls::lint::optimize_timed(&mut m, &lib, ClockConstraint::from_period_ps(900.0));
        let (fast, slow) = traces(&m);
        prop_assert!(fast == slow, "seed {}: timed rewrites", seed);

        // Invert the data of the first output write: every write it makes
        // now differs from the interpreter's.
        let out = m
            .iter_cells()
            .find(|(_, c)| matches!(c.kind, hls::nir::CellKind::Output { .. }))
            .map(|(id, _)| id)
            .expect("the behaviour writes a port");
        let data = m.cell(out).inputs[0];
        let width = m.cell(data).width;
        let inverted = m.push(hls::nir::CellKind::Un(hls::nir::UnKind::Not), width, vec![data]);
        m.cells[out.index()].inputs[0] = inverted;
        let (fast, slow) = traces(&m);
        prop_assert!(fast == slow, "seed {}: corrupted", seed);
        let err = differential::check_nir(&body, &m, &stimulus)
            .expect_err("an inverted output diverges");
        prop_assert!(
            matches!(
                err,
                hls::sim::SimError::Mismatch { engine: hls::sim::Engine::Netlist, .. }
            ),
            "seed {}: {}",
            seed,
            err
        );
    }
}
