//! Benchmark of the synthesis flow, end to end and per layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path flowbench/Cargo.toml -- \
//!     --workload seq-10k --seed 1 --seconds 40 --trace 0
//! ```
//!
//! A run builds the workload's requests from the seed, then passes through
//! the request list repeatedly until `--seconds` would be exceeded (at least
//! once). With `--trace 0` it reports the end-to-end metrics of untraced
//! passes; with `--trace 1` it alternates untraced and traced passes and
//! reports the per-layer metrics and the tracing overhead. Every request
//! passes the correctness gate or counts as failed. The last line of
//! standard output is one JSON object.

mod flow;
mod trace;
mod workloads;

use flow::{Counters, Outcome, Request};
use hls::tech::TechLibrary;
use std::collections::BTreeMap;
use std::time::Instant;
use trace::Tracer;

/// Region workers: one, so that every timing is single-threaded.
const REGION_WORKERS: &str = "1";

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPEATS: usize = 25;

/// Where a traced run writes its spans, relative to the working directory.
const SPANS_FILE: &str = "flowbench-spans.json";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(key) = it.next() {
        let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
        map.insert(key, value);
    }
    let get = |k: &str| map.get(k).cloned().ok_or_else(|| format!("missing {k}"));
    let workload = get("--workload")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {:?}",
            workloads::NAMES
        ));
    }
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("flowbench: {e}");
            std::process::exit(2);
        }
    };
    // Read by `hls_sched::parallel::worker_count`; set before any thread
    // exists.
    std::env::set_var("HLS_EXPLORE_THREADS", REGION_WORKERS);
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("flowbench: {e}");
            std::process::exit(1);
        }
    }
}

/// One pass through the request list.
struct Pass {
    seconds: Vec<f64>,
    outcomes: Vec<Outcome>,
}

fn run(args: &Args) -> Result<String, String> {
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        let lib = TechLibrary::artisan_90nm_typical();
        let requests = workloads::build(&args.workload, args.seed).expect("name checked");
        setups.push(start.elapsed().as_secs_f64());
        built = Some((lib, requests));
    }
    let (lib, requests) = built.expect("set up at least once");
    let setup_s = median(&setups);

    let start = Instant::now();
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<(Pass, f64, trace::TracedPass)> = Vec::new();
    // Another round starts only if it would end within `--seconds` even at
    // the slowest round's pace.
    let mut slowest: f64 = 0.0;
    loop {
        let round = Instant::now();
        plain.push(untraced_pass(&requests, &lib));
        if args.trace {
            let t = Instant::now();
            let (pass, spans) = traced_pass(&requests, &lib);
            traced.push((pass, t.elapsed().as_secs_f64(), spans));
        }
        slowest = slowest.max(round.elapsed().as_secs_f64());
        if start.elapsed().as_secs_f64() + slowest > args.seconds {
            break;
        }
    }

    // Correctness: every request passes its gate, and every pass (traced
    // or not) reproduces the first pass's outcomes exactly.
    let reference = &plain[0].outcomes;
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let all_passes = plain.iter().chain(traced.iter().map(|(p, _, _)| p));
    for pass in all_passes {
        for (i, o) in pass.outcomes.iter().enumerate() {
            attempted += 1;
            let bad = matches!(o, Outcome::Failed(_)) || *o != reference[i];
            if bad {
                failed += 1;
                eprintln!("flowbench: {} failed: {}", requests[i].name, o.describe());
            }
        }
    }

    println!(
        "workload {} seed {} passes {} (traced {}) region workers {REGION_WORKERS}",
        args.workload,
        args.seed,
        plain.len(),
        traced.len()
    );
    for (i, (r, o)) in requests.iter().zip(reference).enumerate() {
        let seconds: Vec<f64> = plain.iter().map(|p| p.seconds[i]).collect();
        println!(
            "  {:<24} {:>9.3} s  {}",
            r.name,
            median(&seconds),
            o.describe()
        );
    }
    let pass_seconds: Vec<String> = plain
        .iter()
        .map(|p| format!("{:.3}", p.seconds.iter().sum::<f64>()))
        .collect();
    println!("  untraced pass seconds: {}", pass_seconds.join(" "));

    let mut correct = failed == 0;
    let metrics = if args.trace {
        if let Err(e) = check_span_accounting(&traced) {
            eprintln!("flowbench: span accounting: {e}");
            correct = false;
        }
        let passes: Vec<&[trace::Span]> = traced.iter().map(|(_, _, tp)| &tp.spans[..]).collect();
        std::fs::write(SPANS_FILE, trace::spans_json(&passes))
            .map_err(|e| format!("writing {SPANS_FILE}: {e}"))?;
        println!("  spans written to {SPANS_FILE}");
        per_layer(&requests, &plain, &traced)
    } else {
        end_to_end(&requests, reference, &plain, setup_s)?
    };
    for (name, (value, unit)) in &metrics {
        println!("  {name:<28} {value:>16.6} {unit}");
    }
    println!("  correct {correct}  attempted {attempted}  failed {failed}");
    Ok(result_json(correct, attempted, failed, &metrics))
}

fn untraced_pass(requests: &[Request], lib: &TechLibrary) -> Pass {
    let mut pass = Pass {
        seconds: Vec::new(),
        outcomes: Vec::new(),
    };
    for r in requests {
        let start = Instant::now();
        let outcome = flow::run(r, lib);
        pass.seconds.push(start.elapsed().as_secs_f64());
        pass.outcomes.push(outcome);
    }
    pass
}

fn traced_pass(requests: &[Request], lib: &TechLibrary) -> (Pass, trace::TracedPass) {
    let mut tracer = Tracer::new(true);
    let mut counters = Counters::default();
    let mut pass = Pass {
        seconds: Vec::new(),
        outcomes: Vec::new(),
    };
    for (id, r) in requests.iter().enumerate() {
        tracer.set_request(id as u32);
        let span = tracer.enter("request");
        let start = Instant::now();
        let outcome = flow::run_traced(r, lib, &mut tracer, &mut counters);
        pass.seconds.push(start.elapsed().as_secs_f64());
        tracer.exit(span);
        pass.outcomes.push(outcome);
    }
    (
        pass,
        trace::TracedPass {
            spans: tracer.take(),
            counters,
        },
    )
}

type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

fn end_to_end(
    requests: &[Request],
    outcomes: &[Outcome],
    passes: &[Pass],
    setup_s: f64,
) -> Result<Metrics, String> {
    let time_of = |pass: &Pass, want_result: bool| -> f64 {
        pass.seconds
            .iter()
            .zip(&pass.outcomes)
            .filter(|(_, o)| matches!(o, Outcome::Scheduled { .. }) == want_result)
            .filter(|(_, o)| !matches!(o, Outcome::Failed(_)))
            .fold(0.0, |total, (s, _)| total + s)
    };
    let synth: Vec<f64> = passes.iter().map(|p| time_of(p, true)).collect();
    let verdict: Vec<f64> = passes.iter().map(|p| time_of(p, false)).collect();
    // (clock, quality of result) of every scheduled request
    let qors: Vec<_> = requests
        .iter()
        .zip(outcomes)
        .filter_map(|(r, o)| match o {
            Outcome::Scheduled { qor, .. } => Some((r.clock_ps, qor)),
            _ => None,
        })
        .collect();
    let sum = |f: &dyn Fn(f64, &flow::Qor) -> f64| {
        qors.iter()
            .fold(0.0, |total, &(clock_ps, q)| total + f(clock_ps, q))
    };
    let mut m = Metrics::new();
    m.insert("synth_s", (median(&synth), "s"));
    m.insert("verdict_s", (median(&verdict), "s"));
    m.insert("setup_s", (setup_s, "s"));
    m.insert("peak_rss_mb", (peak_rss_mb()?, "MB"));
    m.insert(
        "latency_cycles",
        (sum(&|_, q| f64::from(q.latency_cycles)), "cycles"),
    );
    m.insert("area", (sum(&|_, q| q.area), "units"));
    m.insert("power_uw", (sum(&|_, q| q.power_uw), "uW"));
    m.insert(
        "critical_path_ps",
        (sum(&|clock_ps, q| clock_ps - q.wns_ps), "ps"),
    );
    m.insert("cells", (sum(&|_, q| q.cells as f64), "count"));
    m.insert("fus", (sum(&|_, q| q.fus as f64), "count"));
    m.insert("regs", (sum(&|_, q| q.regs as f64), "count"));
    m.insert("mux_inputs", (sum(&|_, q| q.mux_inputs as f64), "count"));
    m.insert(
        "scheduled_share",
        (qors.len() as f64 / requests.len() as f64, "ratio"),
    );
    Ok(m)
}

/// Every traced pass keeps the span accounting identities, and its
/// top-level request spans cover the pass but for the loop bookkeeping
/// between requests.
fn check_span_accounting(traced: &[(Pass, f64, trace::TracedPass)]) -> Result<(), String> {
    for (_, wall, tp) in traced {
        trace::check_accounting(&tp.spans)?;
        let top = trace::top_level_total(&tp.spans);
        if top > *wall || *wall - top > 0.01 * wall + 0.005 {
            return Err(format!("top-level spans cover {top} s of a {wall} s pass"));
        }
    }
    Ok(())
}

fn per_layer(
    requests: &[Request],
    plain: &[Pass],
    traced: &[(Pass, f64, trace::TracedPass)],
) -> Metrics {
    let untraced_total = median(
        &plain
            .iter()
            .map(|p| p.seconds.iter().sum())
            .collect::<Vec<_>>(),
    );
    let facade_s: Vec<Option<f64>> = requests
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let seconds: Vec<f64> = plain.iter().map(|p| p.seconds[i]).collect();
            matches!(r.route, flow::Route::Facade { .. }).then(|| median(&seconds))
        })
        .collect();
    let traced_total = median(&traced.iter().map(|(_, wall, _)| *wall).collect::<Vec<_>>());
    let per_pass: Vec<_> = traced
        .iter()
        .map(|(_, _, tp)| tp.layer_values(&facade_s))
        .collect();
    let mut m = Metrics::new();
    for (i, &(name, unit, _)) in per_pass[0].iter().enumerate() {
        let values: Vec<f64> = per_pass.iter().map(|v| v[i].2).collect();
        m.insert(name, (median(&values), unit));
    }
    let overhead = traced_total - untraced_total;
    let top = median(
        &traced
            .iter()
            .map(|(_, _, tp)| trace::top_level_total(&tp.spans))
            .collect::<Vec<_>>(),
    );
    println!(
        "  span accounting: top-level spans {top:.3} s, untraced pass {untraced_total:.3} s, \
         tracing overhead {overhead:.3} s"
    );
    m.insert("trace.overhead_s", (overhead, "s"));
    m
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The process's peak resident set (VmHWM), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, (value, unit))| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// JSON has no NaN or infinity; those never come out of a sound run.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}
