//! Runs the netlist analyzer over the repository's stock designs with a
//! deny-level timing configuration and writes one JSON report per design.
//!
//! CI runs this and uploads the reports as artifacts; locally:
//!
//! ```text
//! cargo run --release --example lint_report [out_dir]
//! ```
//!
//! Exits non-zero if any design fails to synthesize — with timing promoted
//! to deny, that includes any netlist whose critical path misses its clock.
use hls::designs::{fir_filter, moving_average, paper_example1};
use hls::explore::idct8_design;
use hls::ir::json::JsonWriter;
use hls::lint::{optimize_timed, LintConfig, TimingSummary};
use hls::tech::{ClockConstraint, TechLibrary};
use hls::{SynthesisResult, Synthesizer};

fn summary_json(w: &mut JsonWriter, s: &TimingSummary) {
    w.begin_object();
    w.key("clock_ps").float(s.clock_ps, 1);
    w.key("wns_ps").float(s.wns_ps, 1);
    w.key("tns_ps").float(s.tns_ps, 1);
    w.key("critical_ps").float(s.critical_delay_ps(), 1);
    w.key("endpoints").uint(s.endpoints.len() as u64);
    w.end_object();
}

/// Before/after timing of the timed-rewrite loop, at the design's own
/// clock (where a clean netlist records `rounds: 0` and identical
/// summaries) and at a probe clock tightened 50 ps below the stock
/// critical path (where the loop has to earn slack back).
fn timing_json(name: &str, result: &SynthesisResult) -> String {
    let lib = TechLibrary::artisan_90nm_typical();
    let stock = &result.timed_rewrites;
    let probe_clock = ClockConstraint::from_period_ps(stock.after.critical_delay_ps() - 50.0);
    let mut probed = result.netlist.clone();
    let probe = optimize_timed(&mut probed, &lib, probe_clock);
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("design").string(name);
    w.key("stock").begin_object();
    w.key("rounds").uint(stock.rounds as u64);
    summary_json(w.key("before"), &stock.before);
    summary_json(w.key("after"), &stock.after);
    w.end_object();
    w.key("tightened").begin_object();
    w.key("rounds").uint(probe.rounds as u64);
    w.key("rebalanced_ops").uint(probe.rebalanced_ops as u64);
    w.key("reduced_shifts").uint(probe.reduced_shifts as u64);
    w.key("retimed").uint(probe.retimed as u64);
    summary_json(w.key("before"), &probe.before);
    summary_json(w.key("after"), &probe.after);
    w.end_object();
    w.end_object();
    w.finish()
}

fn report(
    name: &str,
    result: Result<SynthesisResult, hls::SynthesisError>,
    out_dir: &std::path::Path,
) -> Result<(), Box<dyn std::error::Error>> {
    let result = result.map_err(|e| format!("{name}: {e}"))?;
    let timing = result.lint.timing.as_ref().expect("analysis ran");
    println!(
        "{name:<24} wns {:>8.1} ps  tns {:>8.1} ps  {:>2} warn  path: {}",
        timing.wns_ps,
        timing.tns_ps,
        result.lint.warn_count(),
        timing.critical_path_names()
    );
    std::fs::write(out_dir.join(format!("{name}.json")), result.lint.to_json())?;
    std::fs::write(
        out_dir.join(format!("{name}_timing.json")),
        timing_json(name, &result),
    )?;
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out_dir = std::path::PathBuf::from(
        std::env::args()
            .nth(1)
            .unwrap_or_else(|| "target/lint-reports".into()),
    );
    std::fs::create_dir_all(&out_dir)?;
    // Deny-level timing: a netlist that misses its clock fails the run.
    let deny = LintConfig::deny_timing();

    report(
        "example1_sequential",
        Synthesizer::new(paper_example1())
            .clock_ps(1600.0)
            .latency_bounds(1, 3)
            .lint_config(deny.clone())
            .run(),
        &out_dir,
    )?;
    report(
        "example1_ii2",
        Synthesizer::new(paper_example1())
            .clock_ps(1600.0)
            .latency_bounds(1, 6)
            .pipeline(2)
            .lint_config(deny.clone())
            .run(),
        &out_dir,
    )?;
    report(
        "moving_average_ii1",
        Synthesizer::new(moving_average(2, 16))
            .clock_ps(1600.0)
            .latency_bounds(1, 8)
            .pipeline(1)
            .lint_config(deny.clone())
            .run(),
        &out_dir,
    )?;
    report(
        "fir8_ii2",
        Synthesizer::new(fir_filter(&[3, -5, 7, 11, 11, 7, -5, 3], 16))
            .clock_ps(1600.0)
            .latency_bounds(1, 16)
            .pipeline(2)
            .lint_config(deny.clone())
            .run(),
        &out_dir,
    )?;
    report(
        "fir8_sequential",
        Synthesizer::new(fir_filter(&[3, -5, 7, 11, 11, 7, -5, 3], 16))
            .clock_ps(1600.0)
            .latency_bounds(1, 16)
            .lint_config(deny.clone())
            .run(),
        &out_dir,
    )?;
    report(
        "idct8_ii8",
        Synthesizer::from_body(idct8_design())
            .clock_ps(2000.0)
            .latency_bounds(1, 32)
            .pipeline(8)
            .lint_config(deny.clone())
            .run(),
        &out_dir,
    )?;
    report(
        "idct8_sequential",
        Synthesizer::from_body(idct8_design())
            .clock_ps(2000.0)
            .latency_bounds(1, 16)
            .lint_config(deny)
            .run(),
        &out_dir,
    )?;
    println!("reports written to {}", out_dir.display());
    Ok(())
}
