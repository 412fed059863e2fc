//! One synthesis request, driven either through the `hls` facade or stage
//! by stage with the same public calls, in the same order, as
//! `Synthesizer::attempt`.

use crate::trace::Tracer;
use hls::bind::RtlStyle;
use hls::frontend::{elaborate, Behavior};
use hls::ir::LinearBody;
use hls::lint::{Lint, LintConfig, LintContext, LintReport, Severity};
use hls::netlist::{emit_verilog, Datapath};
use hls::opt::linearize::prepare_innermost_loop;
use hls::sched::{SchedError, Scheduler, SchedulerConfig};
use hls::sim::differential::{random_check, random_check_bound, random_check_nir};
use hls::tech::{ClockConstraint, TechLibrary};
use hls::{RecoveryPolicy, SynthesisError, SynthesisResult, Synthesizer};
use std::borrow::Cow;

/// Stimulus seed of every differential check, as in `Synthesizer::attempt`.
const STIMULUS_SEED: u64 = 0x5EED;

/// What a request synthesizes: a behaviour (through the front-end and the
/// optimizer) or an already-linearized loop body.
pub enum Input {
    Behavior(Behavior),
    Body(LinearBody),
}

/// How a request is driven.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Route {
    /// `Synthesizer::new` / `Synthesizer::from_body` with the facade's own
    /// scheduler configuration; `recover` arms `RecoveryPolicy::standard()`.
    Facade { recover: bool },
    /// Stage by stage with region decomposition and a larger pass budget,
    /// the configuration `figure9_point` uses for its large points. The
    /// facade cannot express it.
    Regions { target_ops: usize, max_passes: u32 },
}

/// One synthesis request with its generated input.
pub struct Request {
    pub name: &'static str,
    pub input: Input,
    pub clock_ps: f64,
    pub min_latency: u32,
    pub max_latency: u32,
    pub ii: Option<u32>,
    /// Random vectors of each differential check.
    pub vectors: usize,
    pub route: Route,
}

impl Request {
    /// The scheduler configuration `Synthesizer::attempt` builds for the
    /// facade, plus region decomposition for [`Route::Regions`].
    fn scheduler_config(&self) -> SchedulerConfig {
        let clock = ClockConstraint::from_period_ps(self.clock_ps);
        let config = match self.ii {
            Some(ii) => SchedulerConfig::pipelined(clock, ii, self.max_latency),
            None => SchedulerConfig::sequential(clock, self.min_latency, self.max_latency),
        };
        match self.route {
            Route::Facade { .. } => config,
            Route::Regions {
                target_ops,
                max_passes,
            } => {
                let mut config = config.with_region_decomposition(target_ops);
                config.max_passes = max_passes;
                config
            }
        }
    }
}

/// Quality of result of a scheduled request. Deterministic: two runs of
/// the same code on the same input agree exactly.
#[derive(Clone, Debug, PartialEq)]
pub struct Qor {
    pub latency_cycles: u32,
    pub area: f64,
    pub power_uw: f64,
    /// Worst slack at the requested clock.
    pub wns_ps: f64,
    pub cells: usize,
    pub fus: usize,
    pub regs: usize,
    pub mux_inputs: usize,
    pub rtl_bytes: usize,
    pub rtl_hash: u64,
}

/// How a request ended.
#[derive(Clone, Debug, PartialEq)]
pub enum Outcome {
    /// A result that passed every correctness gate.
    Scheduled {
        qor: Qor,
        passes: u32,
        recovery_steps: usize,
        degraded: bool,
    },
    /// An expected scheduling error: a verdict on the request, not a
    /// failure of the program.
    Verdict { kind: &'static str, passes: u32 },
    /// A wrong or unverifiable result.
    Failed(String),
}

impl Outcome {
    pub fn describe(&self) -> String {
        match self {
            Outcome::Scheduled {
                qor,
                passes,
                recovery_steps,
                degraded,
            } => format!(
                "scheduled  latency {} passes {passes} recovery {recovery_steps}{} wns {:.1} ps cells {}",
                qor.latency_cycles,
                if *degraded { " (degraded)" } else { "" },
                qor.wns_ps,
                qor.cells
            ),
            Outcome::Verdict { kind, passes } => format!("verdict    {kind} after {passes} passes"),
            Outcome::Failed(why) => format!("FAILED     {why}"),
        }
    }
}

/// Work counted at the stage boundaries of a traced pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub sched_passes: u64,
    pub failed_passes: u64,
    pub cells_lowered: u64,
    pub timed_rounds: u64,
    pub rtl_bytes: u64,
    /// Final cells × folded states, summed over `lint::analyze` calls.
    pub lint_cell_states: f64,
    /// Cells × vectors × cycles per iteration, summed over
    /// `random_check_nir` calls.
    pub nir_cell_cycles: f64,
}

/// Runs a request untraced through the facade or, for [`Route::Regions`],
/// stage by stage.
pub fn run(req: &Request, lib: &TechLibrary) -> Outcome {
    match req.route {
        Route::Facade { recover } => facade(req, recover),
        Route::Regions { .. } => {
            stages(req, lib, &mut Tracer::new(false), &mut Counters::default())
        }
    }
}

/// Runs a request with a span around every public call. A request on the
/// recovery ladder is one `core.run` span around the facade.
pub fn run_traced(req: &Request, lib: &TechLibrary, t: &mut Tracer, c: &mut Counters) -> Outcome {
    match req.route {
        Route::Facade { recover: true } => t.call("core.run", || facade(req, true)),
        _ => stages(req, lib, t, c),
    }
}

/// The facade, followed by the gate checks on its result. The caller's
/// timing includes both; the checks take milliseconds on the facade's
/// designs.
fn facade(req: &Request, recover: bool) -> Outcome {
    macro_rules! configure {
        ($s:expr) => {{
            let mut s = $s
                .clock_ps(req.clock_ps)
                .latency_bounds(req.min_latency, req.max_latency)
                .verify(req.vectors);
            if let Some(ii) = req.ii {
                s = s.pipeline(ii);
            }
            if recover {
                s = s.recover(RecoveryPolicy::standard());
            }
            s.run()
        }};
    }
    let result = match &req.input {
        Input::Behavior(b) => configure!(Synthesizer::new(b.clone())),
        Input::Body(b) => configure!(Synthesizer::from_body(b.clone())),
    };
    match result {
        Ok(r) => gate_facade_result(&r),
        Err(SynthesisError::Scheduling(e)) => verdict(&e),
        Err(SynthesisError::RecoveryExhausted { last, .. }) => match *last {
            SynthesisError::Scheduling(e) => verdict(&e),
            other => Outcome::Failed(other.to_string()),
        },
        Err(e) => Outcome::Failed(e.to_string()),
    }
}

fn gate_facade_result(r: &SynthesisResult) -> Outcome {
    if let Err(e) = hls::nir::validate(&r.netlist) {
        return Outcome::Failed(format!("final netlist does not validate: {e}"));
    }
    if r.verification.is_none() {
        return Outcome::Failed("the differential checks did not run".into());
    }
    if let Some(why) = structural_deny(&r.lint) {
        return Outcome::Failed(why);
    }
    let stats = r.binding_stats();
    Outcome::Scheduled {
        qor: Qor {
            latency_cycles: r.schedule.latency,
            area: r.area,
            power_uw: r.power_uw,
            wns_ps: wns(&r.lint),
            cells: r.netlist.cells.len(),
            fus: stats.fu_count,
            regs: stats.register_count,
            mux_inputs: stats.mux_inputs,
            rtl_bytes: r.rtl.len(),
            rtl_hash: fnv1a(r.rtl.as_bytes()),
        },
        passes: r.schedule.passes,
        recovery_steps: r.recovery.len(),
        degraded: r.degraded,
    }
}

/// The flow of `Synthesizer::attempt`, one span per public call. Scheduling
/// errors are verdicts; an error of any later stage is a failure.
fn stages(req: &Request, lib: &TechLibrary, t: &mut Tracer, c: &mut Counters) -> Outcome {
    let body = match &req.input {
        Input::Body(b) => Cow::Borrowed(b),
        Input::Behavior(b) => {
            let mut cdfg = match t.call("frontend.elaborate", || elaborate(b)) {
                Ok(cdfg) => cdfg,
                Err(e) => return Outcome::Failed(format!("front-end: {e}")),
            };
            match t.call("opt.prepare", || prepare_innermost_loop(&mut cdfg)) {
                Ok(body) => Cow::Owned(body),
                Err(e) => return Outcome::Failed(format!("optimizer: {e}")),
            }
        }
    };
    let body = body.as_ref();
    let clock = ClockConstraint::from_period_ps(req.clock_ps);
    let config = req.scheduler_config();
    let scheduled = t.call_named(
        || Scheduler::new(body, lib, config).run(),
        |r| {
            if r.is_ok() {
                "sched.run"
            } else {
                "sched.failed"
            }
        },
    );
    let schedule = match scheduled {
        Ok(s) => s,
        Err(e) => {
            let outcome = verdict(&e);
            if let Outcome::Verdict { passes, .. } = outcome {
                c.failed_passes += u64::from(passes);
            }
            return outcome;
        }
    };
    c.sched_passes += u64::from(schedule.passes);
    let desc = &schedule.desc;
    let cpi = f64::from(desc.cycles_per_iteration());
    let vectors = req.vectors;
    let fail = |stage: &str, e: &dyn std::fmt::Display| Outcome::Failed(format!("{stage}: {e}"));

    if req.ii.is_some() {
        if let Err(e) = t.call("pipeline.fold", || {
            hls::pipeline::fold_schedule(body, &schedule)
        }) {
            return fail("pipeline folding", &e);
        }
    }
    let binding = match t.call("bind.bind", || hls::bind::bind(body, desc)) {
        Ok(b) => b,
        Err(e) => return fail("binder", &e),
    };
    let lowered = t.call("bind.lower", || {
        hls::bind::lower(body, desc, &binding, RtlStyle::SharedFu)
    });
    let mut netlist = match lowered {
        Ok(n) => n,
        Err(e) => return fail("lowering", &e),
    };
    c.cells_lowered += netlist.cells.len() as u64;
    let check_nir = |t: &mut Tracer, c: &mut Counters, n: &hls::nir::NirModule| {
        c.nir_cell_cycles += (n.cells.len() * vectors) as f64 * cpi;
        t.call("sim.check_nir", || {
            random_check_nir(body, n, vectors, STIMULUS_SEED)
        })
    };
    if let Err(e) = t.call("nir.validate", || hls::nir::validate(&netlist)) {
        return fail("lowered netlist", &e);
    }
    if let Err(e) = t.call("sim.check", || {
        random_check(body, desc, vectors, STIMULUS_SEED)
    }) {
        return fail("schedule differential", &e);
    }
    if let Err(e) = t.call("sim.check_bound", || {
        random_check_bound(body, desc, &binding, vectors, STIMULUS_SEED)
    }) {
        return fail("bound differential", &e);
    }
    if let Err(e) = check_nir(t, c, &netlist) {
        return fail("netlist differential", &e);
    }
    t.call("nir.rewrite", || hls::nir::optimize(&mut netlist));
    if let Err(e) = t.call("nir.validate", || hls::nir::validate(&netlist)) {
        return fail("rewritten netlist", &e);
    }
    if let Err(e) = check_nir(t, c, &netlist) {
        return fail("rewritten netlist differential", &e);
    }
    let timed = t.call("lint.timed_rewrite", || {
        hls::lint::optimize_timed_with(&mut netlist, lib, clock, hls::lint::MAX_ROUNDS)
    });
    c.timed_rounds += timed.rounds as u64;
    if timed.changed() {
        if let Err(e) = t.call("nir.validate", || hls::nir::validate(&netlist)) {
            return fail("timed netlist", &e);
        }
        if let Err(e) = check_nir(t, c, &netlist) {
            return fail("timed netlist differential", &e);
        }
    }
    let ctx = LintContext::new(lib, clock)
        .with_binding(&binding)
        .with_schedule(desc);
    c.lint_cell_states += (netlist.cells.len() as f64) * f64::from(desc.fold_states());
    let lint = t.call("lint.analyze", || {
        hls::lint::analyze(&netlist, &ctx, &LintConfig::default())
    });
    if let Some(why) = structural_deny(&lint) {
        return Outcome::Failed(why);
    }
    let (area, power_uw) = t.call("netlist.estimate", || {
        let slack_fraction = (schedule.min_slack_ps / clock.period_ps()).clamp(0.0, 0.9);
        let dp = Datapath::from_schedule(body, desc, lib, clock, slack_fraction);
        (dp.total_area(), dp.total_power_uw())
    });
    let rtl = t.call("netlist.emit", || emit_verilog(&netlist));
    c.rtl_bytes += rtl.len() as u64;
    let stats = binding.stats;
    Outcome::Scheduled {
        qor: Qor {
            latency_cycles: schedule.latency,
            area,
            power_uw,
            wns_ps: wns(&lint),
            cells: netlist.cells.len(),
            fus: stats.fu_count,
            regs: stats.register_count,
            mux_inputs: stats.mux_inputs,
            rtl_bytes: rtl.len(),
            rtl_hash: fnv1a(rtl.as_bytes()),
        },
        passes: schedule.passes,
        recovery_steps: 0,
        degraded: false,
    }
}

fn verdict(e: &SchedError) -> Outcome {
    let (kind, passes) = match e {
        SchedError::Overconstrained { passes, .. } => ("Overconstrained", *passes),
        SchedError::BudgetExhausted { passes, .. } => ("BudgetExhausted", *passes),
        SchedError::InfeasibleIi { .. } => ("InfeasibleIi", 0),
        other => return Outcome::Failed(format!("scheduler: {other}")),
    };
    Outcome::Verdict { kind, passes }
}

/// A deny-level finding other than a timing one: broken hardware.
fn structural_deny(lint: &LintReport) -> Option<String> {
    lint.diagnostics
        .iter()
        .find(|d| {
            d.severity == Severity::Deny
                && !matches!(d.lint, Lint::SetupViolation | Lint::RewriteRoundLimit)
        })
        .map(|d| format!("structural deny {}: {}", d.lint, d.message))
}

fn wns(lint: &LintReport) -> f64 {
    lint.timing.as_ref().map_or(0.0, |t| t.wns_ps)
}

/// 64-bit FNV-1a: a hash that is the same in every build and process.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}
