//! Pareto-front extraction over exploration points.

/// One implementation point of a design-space exploration.
#[derive(Clone, Debug, PartialEq)]
pub struct ExplorationPoint {
    /// Human-readable label, e.g. `"Pipelined 32 @ 3.2ns"`.
    pub label: String,
    /// Micro-architecture family (one curve of Figure 10/11).
    pub family: String,
    /// Delay: the inverse of throughput, `II × Tclk`, in nanoseconds.
    pub delay_ns: f64,
    /// Area in library units.
    pub area: f64,
    /// Power in microwatts.
    pub power_uw: f64,
    /// Clock period used, ps.
    pub clock_ps: f64,
    /// Loop latency (LI) in cycles.
    pub latency_cycles: u32,
    /// Initiation interval in cycles (equals the latency when sequential).
    pub ii_cycles: u32,
    /// Bound functional units (counted from the binding, not estimated).
    pub fu_count: usize,
    /// Bound datapath registers.
    pub register_count: usize,
    /// Total data inputs over the binding's physical operand muxes.
    pub mux_inputs: usize,
}

/// Returns the subset of points that are Pareto-optimal in (delay, area):
/// no other point is at least as good in both and strictly better in one.
pub fn pareto_front(points: &[ExplorationPoint]) -> Vec<ExplorationPoint> {
    let mut front: Vec<ExplorationPoint> = Vec::new();
    for p in points {
        let dominated = points.iter().any(|q| {
            (q.delay_ns <= p.delay_ns && q.area <= p.area)
                && (q.delay_ns < p.delay_ns || q.area < p.area)
        });
        if !dominated {
            front.push(p.clone());
        }
    }
    front.sort_by(|a, b| {
        a.delay_ns
            .partial_cmp(&b.delay_ns)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    front.dedup_by(|a, b| a.delay_ns == b.delay_ns && a.area == b.area);
    front
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(label: &str, delay: f64, area: f64) -> ExplorationPoint {
        ExplorationPoint {
            label: label.into(),
            family: "t".into(),
            delay_ns: delay,
            area,
            power_uw: 1.0,
            clock_ps: 1000.0,
            latency_cycles: 1,
            ii_cycles: 1,
            fu_count: 1,
            register_count: 1,
            mux_inputs: 0,
        }
    }

    #[test]
    fn dominated_points_are_removed() {
        let points = vec![
            pt("a", 1.0, 10.0),
            pt("b", 2.0, 5.0),
            pt("c", 2.0, 12.0),
            pt("d", 3.0, 20.0),
        ];
        let front = pareto_front(&points);
        let labels: Vec<_> = front.iter().map(|p| p.label.as_str()).collect();
        assert_eq!(labels, vec!["a", "b"]);
    }

    #[test]
    fn single_point_is_its_own_front() {
        let points = vec![pt("only", 1.0, 1.0)];
        assert_eq!(pareto_front(&points).len(), 1);
    }

    #[test]
    fn duplicate_points_collapse_to_one_front_entry() {
        // Exact duplicates do not dominate each other (neither is strictly
        // better), so both survive dominance filtering; the front must still
        // report the (delay, area) coordinate only once.
        let points = vec![
            pt("a", 1.0, 10.0),
            pt("a_dup", 1.0, 10.0),
            pt("b", 2.0, 5.0),
        ];
        let front = pareto_front(&points);
        assert_eq!(front.len(), 2);
        let coords: Vec<_> = front.iter().map(|p| (p.delay_ns, p.area)).collect();
        assert_eq!(coords, vec![(1.0, 10.0), (2.0, 5.0)]);
    }

    #[test]
    fn all_identical_points_yield_a_single_entry() {
        let points = vec![pt("x", 3.0, 3.0), pt("y", 3.0, 3.0), pt("z", 3.0, 3.0)];
        assert_eq!(pareto_front(&points).len(), 1);
    }

    #[test]
    fn equal_coordinate_dominance_is_strict() {
        // Same delay, worse area: dominated. Same delay, same area: kept.
        let points = vec![pt("good", 1.0, 5.0), pt("worse_area", 1.0, 7.0)];
        let front = pareto_front(&points);
        assert_eq!(front.len(), 1);
        assert_eq!(front[0].label, "good");
    }

    #[test]
    fn empty_input_gives_empty_front() {
        assert!(pareto_front(&[]).is_empty());
    }

    #[test]
    fn front_is_sorted_by_delay() {
        let points = vec![
            pt("slow", 9.0, 1.0),
            pt("fast", 1.0, 9.0),
            pt("mid", 5.0, 5.0),
        ];
        let front = pareto_front(&points);
        assert!(front.windows(2).all(|w| w[0].delay_ns <= w[1].delay_ns));
        assert_eq!(front.len(), 3);
    }
}
