//! In-memory spans recorded around the benchmark's calls into each crate.
//!
//! A span is named `layer.function` after the crate and public function it
//! wraps. Spans are kept in memory for the whole traced pass and analysed
//! when it ends; nothing is written while a request runs.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `layer.function`, e.g. `lint.analyze`.
    pub name: &'static str,
    /// Seconds since the tracer was created.
    pub start: f64,
    /// Seconds since the tracer was created.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request the span belongs to.
    pub request: u32,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }

    /// The crate name: everything before the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records spans when enabled; with tracing off every call goes straight
/// through.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    /// Tags the spans that follow with a request id.
    pub fn set_request(&mut self, request: u32) {
        self.request = request;
    }

    /// Times `f` as a span named `name`.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.call_named(f, |_| name)
    }

    /// Times `f` and names the span from its result, so that a call that
    /// succeeded and one that failed land in different spans.
    pub fn call_named<T>(
        &mut self,
        f: impl FnOnce() -> T,
        name: impl FnOnce(&T) -> &'static str,
    ) -> T {
        if !self.enabled {
            return f();
        }
        let span = self.enter("");
        let value = f();
        self.spans[span].name = name(&value);
        self.exit(span);
        value
    }

    /// Opens a span that encloses the spans opened before its
    /// [`Tracer::exit`]. Returns its index.
    pub fn enter(&mut self, name: &'static str) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let now = self.now();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes the innermost open span, which must be `span`.
    pub fn exit(&mut self, span: usize) {
        if !self.enabled {
            return;
        }
        assert_eq!(self.open.pop(), Some(span), "spans close innermost first");
        self.spans[span].end = self.now();
    }

    /// Hands over the recorded spans, leaving the tracer empty.
    pub fn take(&mut self) -> Vec<Span> {
        assert!(self.open.is_empty(), "every span is closed");
        std::mem::take(&mut self.spans)
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            children[p].push((s.start.max(parent.start), s.end.min(parent.end)));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut covered)| s.duration() - union_length(&mut covered))
        .collect()
}

fn union_length(intervals: &mut [(f64, f64)]) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut reach = f64::NEG_INFINITY;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Sum of the durations of the spans without a parent.
pub fn top_level_total(spans: &[Span]) -> f64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::duration)
        .sum()
}

/// Checks the span accounting of one traced pass: spans are well formed and
/// nested inside their parents, no self time is negative, and the self
/// times add up to the top-level total, so every traced second is
/// attributed to exactly one span.
pub fn check_accounting(spans: &[Span]) -> Result<(), String> {
    const EPS: f64 = 1e-9;
    for (i, s) in spans.iter().enumerate() {
        if s.end < s.start {
            return Err(format!("span {i} `{}` ends before it starts", s.name));
        }
        if let Some(p) = s.parent {
            let parent = spans
                .get(p)
                .filter(|_| p < i)
                .ok_or_else(|| format!("span {i} `{}` has no earlier parent {p}", s.name))?;
            if s.start < parent.start - EPS || s.end > parent.end + EPS {
                return Err(format!(
                    "span {i} `{}` leaves its parent `{}`",
                    s.name, parent.name
                ));
            }
        }
    }
    let selfs = self_times(spans);
    if let Some((i, t)) = selfs.iter().enumerate().find(|(_, &t)| t < -EPS) {
        return Err(format!(
            "span {i} `{}` has negative self time {t}",
            spans[i].name
        ));
    }
    let attributed: f64 = selfs.iter().sum();
    let top = top_level_total(spans);
    if (attributed - top).abs() > EPS * spans.len().max(1) as f64 {
        return Err(format!(
            "self times add up to {attributed} s, top-level spans to {top} s"
        ));
    }
    Ok(())
}

/// The spans of every traced pass as one JSON array, one object per span.
/// `parent` indexes the same pass's spans; a request is identified by its
/// pass and its request id.
pub fn spans_json(passes: &[&[Span]]) -> String {
    let lines: Vec<String> = passes
        .iter()
        .enumerate()
        .flat_map(|(pass, spans)| {
            spans.iter().enumerate().map(move |(i, s)| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "  {{\"pass\": {pass}, \"index\": {i}, \"name\": \"{}\", \"start\": {:?}, \"end\": {:?}, \"parent\": {parent}, \"request\": {}}}",
                    s.name, s.start, s.end, s.request
                )
            })
        })
        .collect();
    format!("[\n{}\n]\n", lines.join(",\n"))
}

/// The spans and counters of one traced pass.
pub struct TracedPass {
    pub spans: Vec<Span>,
    pub counters: crate::flow::Counters,
}

impl TracedPass {
    /// Every per-layer metric but the tracing overhead: name, unit and
    /// value in this pass. `facade_s[r]` is the untraced time of request `r`
    /// when it went through the facade: what that takes beyond the
    /// request's stage spans is `core.unattributed_s` (facade glue and the
    /// recovery ladder).
    pub fn layer_values(&self, facade_s: &[Option<f64>]) -> Vec<(&'static str, &'static str, f64)> {
        let mut self_time: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (span, t) in self.spans.iter().zip(self_times(&self.spans)) {
            *self_time.entry(span.name).or_default() += t;
        }
        let time = |name: &str| self_time.get(name).copied().unwrap_or(0.0);
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let mut unattributed = facade_s.iter().flatten().fold(0.0, |total, s| total + s);
        for s in &self.spans {
            let of_facade = facade_s
                .get(s.request as usize)
                .is_some_and(Option::is_some);
            if of_facade && s.parent.is_some() && s.layer() != "core" {
                unattributed -= s.duration();
            }
        }
        let c = &self.counters;
        let passes = c.sched_passes as f64;
        vec![
            ("sched.run_s", "s", time("sched.run")),
            ("sched.passes", "count", passes),
            ("sched.failed_s", "s", time("sched.failed")),
            ("sched.failed_passes", "count", c.failed_passes as f64),
            (
                "sched.useful_pass_ratio",
                "ratio",
                ratio(passes, passes + c.failed_passes as f64),
            ),
            ("lint.analyze_s", "s", time("lint.analyze")),
            ("lint.timed_rewrite_s", "s", time("lint.timed_rewrite")),
            ("lint.timed_rounds", "count", c.timed_rounds as f64),
            (
                "lint.ns_per_cell_state",
                "ns",
                ratio(time("lint.analyze") * 1e9, c.lint_cell_states),
            ),
            ("sim.check_s", "s", time("sim.check")),
            ("sim.check_bound_s", "s", time("sim.check_bound")),
            ("sim.check_nir_s", "s", time("sim.check_nir")),
            (
                "sim.nir_ns_per_cell_cycle",
                "ns",
                ratio(time("sim.check_nir") * 1e9, c.nir_cell_cycles),
            ),
            ("frontend.elaborate_s", "s", time("frontend.elaborate")),
            ("opt.prepare_s", "s", time("opt.prepare")),
            ("core.unattributed_s", "s", unattributed),
            ("pipeline.fold_s", "s", time("pipeline.fold")),
            ("bind.bind_s", "s", time("bind.bind")),
            ("bind.lower_s", "s", time("bind.lower")),
            ("nir.validate_s", "s", time("nir.validate")),
            ("nir.rewrite_s", "s", time("nir.rewrite")),
            ("nir.cells_lowered", "count", c.cells_lowered as f64),
            ("netlist.estimate_s", "s", time("netlist.estimate")),
            ("netlist.emit_s", "s", time("netlist.emit")),
            ("netlist.rtl_bytes", "bytes", c.rtl_bytes as f64),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = vec![
            span("core.request", 0.0, 10.0, None),
            span("sched.run", 1.0, 4.0, Some(0)),
            span("lint.analyze", 5.0, 6.5, Some(0)),
            span("core.request", 10.0, 12.0, None),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![10.0 - 3.0 - 1.5, 3.0, 1.5, 2.0]);
        assert_eq!(top_level_total(&spans), 12.0);
        check_accounting(&spans).expect("consistent");
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        let spans = vec![
            span("core.request", 0.0, 10.0, None),
            span("a.x", 1.0, 5.0, Some(0)),
            span("b.y", 3.0, 7.0, Some(0)),
            span("c.z", 9.0, 12.0, Some(0)),
        ];
        // children cover [1, 7] and the clipped [9, 10]
        assert_eq!(self_times(&spans)[0], 10.0 - 6.0 - 1.0);
    }

    #[test]
    fn accounting_rejects_a_child_outside_its_parent() {
        let spans = vec![
            span("core.request", 0.0, 2.0, None),
            span("sched.run", 1.0, 3.0, Some(0)),
        ];
        assert!(check_accounting(&spans).is_err());
        let inverted = vec![span("sched.run", 2.0, 1.0, None)];
        assert!(check_accounting(&inverted).is_err());
    }

    #[test]
    fn tracer_nests_and_names_spans_from_results() {
        let mut t = Tracer::new(true);
        t.set_request(7);
        let outer = t.enter("core.request");
        let r: Result<u32, ()> = t.call_named(
            || Err(()),
            |r| {
                if r.is_ok() {
                    "sched.run"
                } else {
                    "sched.failed"
                }
            },
        );
        assert!(r.is_err());
        t.call("lint.analyze", || ());
        t.exit(outer);
        let spans = t.take();
        let names: Vec<_> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["core.request", "sched.failed", "lint.analyze"]);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.request == 7));
        assert_eq!(spans[1].layer(), "sched");
        check_accounting(&spans).expect("consistent");
    }

    #[test]
    fn spans_are_written_one_object_each() {
        let spans = vec![
            span("request", 0.0, 2.0, None),
            span("sched.run", 0.5, 1.5, Some(0)),
        ];
        assert_eq!(
            spans_json(&[&spans]),
            "[\n  {\"pass\": 0, \"index\": 0, \"name\": \"request\", \"start\": 0.0, \"end\": 2.0, \"parent\": null, \"request\": 0},\n  {\"pass\": 0, \"index\": 1, \"name\": \"sched.run\", \"start\": 0.5, \"end\": 1.5, \"parent\": 0, \"request\": 0}\n]\n"
        );
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let outer = t.enter("core.request");
        assert_eq!(t.call("sched.run", || 3), 3);
        t.exit(outer);
        assert!(t.take().is_empty());
    }
}
