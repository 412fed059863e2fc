//! The three workloads, each an explicit list of requests. Every request
//! states its own design, seed, clock, mode and latency bounds; nothing is
//! derived from its position in the list.

use crate::flow::{Input, Request, Route};
use hls::designs::{fir_filter, moving_average, paper_example1};
use hls::explore::{idct8_design, synthetic_design, DesignClass};

pub const NAMES: [&str; 3] = ["seq-10k", "pipe-10k", "explore-mix"];

/// The large points' scheduler configuration (`figure9_point`): regions of
/// about 600 ops and a 4096-pass budget.
const REGIONS: Route = Route::Regions {
    target_ops: 600,
    max_passes: 4096,
};
const FACADE: Route = Route::Facade { recover: false };

/// Vectors per differential check on the 10k-op designs. Netlist simulation
/// costs cells × vectors × states, so this is kept small.
const VECTORS_10K: usize = 1;
/// Vectors per differential check in `explore-mix`.
const VECTORS_MIX: usize = 16;

/// The seed of one generated design: the workload seed mixed with a salt
/// that each request names explicitly.
fn design_seed(seed: u64, salt: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt
}

/// FIR coefficients of magnitude 2..=15 with random signs: never 0 or ±1,
/// which the optimizer would fold away.
fn fir_taps(seed: u64, n: usize) -> Vec<i64> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            // splitmix64
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let magnitude = 2 + (z % 14) as i64;
            if z & (1 << 40) == 0 {
                magnitude
            } else {
                -magnitude
            }
        })
        .collect()
}

fn filter_10k(seed: u64, salt: u64) -> Input {
    Input::Body(synthetic_design(
        DesignClass::Filter,
        10_000,
        design_seed(seed, salt),
    ))
}

/// Builds a workload's requests from the workload seed, or `None` for an
/// unknown name.
pub fn build(name: &str, seed: u64) -> Option<Vec<Request>> {
    Some(match name {
        "seq-10k" => seq_10k(seed),
        "pipe-10k" => pipe_10k(seed),
        "explore-mix" => explore_mix(seed),
        _ => return None,
    })
}

/// A 10k-op filter, sequential, with a latency window of 128..160 states.
/// The scheduler starts at 128 and stops after a few added states (132 to
/// 141 over the seeds tried), so every seed folds to about the same number
/// of states; an open 48..192 window ends anywhere from 134 to 188 states,
/// and signoff cost scales with them. A second request at 1200 ps, below
/// what the multipliers can meet, walks the latency from 128 to 256 states
/// and ends in a scheduling verdict. It runs second so that it finds the
/// heap the first request grew: run first, its time varied twice as much
/// from run to run.
fn seq_10k(seed: u64) -> Vec<Request> {
    let request = |name, clock_ps, max_latency| Request {
        name,
        input: filter_10k(seed, 0x10),
        clock_ps,
        min_latency: 128,
        max_latency,
        ii: None,
        vectors: VECTORS_10K,
        route: REGIONS,
    };
    vec![
        request("filter10k-seq-2200ps", 2200.0, 160),
        request("filter10k-seq-1200ps", 1200.0, 256),
    ]
}

/// Two 10k-op filters pipelined at II=4. The scheduler walks the latency
/// up from II+1 one state per pass, and how far it walks depends on the
/// deepest generated kernel, so a pass synthesizes several designs to
/// average that out. Each design is requested at 2200 ps, then at 1200 ps
/// with at most 16 states, which ends in a scheduling verdict.
fn pipe_10k(seed: u64) -> Vec<Request> {
    let request = |name, salt, clock_ps, max_latency| Request {
        name,
        input: filter_10k(seed, salt),
        clock_ps,
        min_latency: 1,
        max_latency,
        ii: Some(4),
        vectors: VECTORS_10K,
        route: REGIONS,
    };
    vec![
        request("filter10k-a-ii4", 0x20, 2200.0, 192),
        request("filter10k-a-ii4-1200ps", 0x20, 1200.0, 16),
        request("filter10k-b-ii4", 0x21, 2200.0, 192),
        request("filter10k-b-ii4-1200ps", 0x21, 1200.0, 16),
    ]
}

/// A designer's request list through the facade: the paper designs (the
/// FIR taps drawn from the workload seed), one request on the recovery
/// ladder, and the Figure 9 mid-size requests with the design seeds Figure 9
/// gives them. Three of those end in the facade's 64-pass budget, and two
/// are followed by the designer's relaxed retry on the same design.
/// Synthetic designs are not drawn from the workload seed here: on the
/// facade's monolithic 64-pass scheduler their outcome flips between
/// scheduled and failed from one seed to the next.
fn explore_mix(seed: u64) -> Vec<Request> {
    let fir8 = fir_taps(design_seed(seed, 0x8), 8);
    let fir64 = fir_taps(design_seed(seed, 0x64), 64);
    let facade = |name, input, clock_ps, min_latency, max_latency, ii| Request {
        name,
        input,
        clock_ps,
        min_latency,
        max_latency,
        ii,
        vectors: VECTORS_MIX,
        route: FACADE,
    };
    let synthetic = |class, ops, seed| Input::Body(synthetic_design(class, ops, seed));
    let behavior = Input::Behavior;
    let idct8 = || Input::Body(idct8_design());
    use DesignClass::{Fft, ImageKernel};
    vec![
        facade(
            "example1-seq",
            behavior(paper_example1()),
            1600.0,
            1,
            3,
            None,
        ),
        facade(
            "example1-ii2",
            behavior(paper_example1()),
            1600.0,
            1,
            6,
            Some(2),
        ),
        facade(
            "movavg-ii1",
            behavior(moving_average(2, 16)),
            1600.0,
            1,
            8,
            Some(1),
        ),
        facade(
            "fir8-seq",
            behavior(fir_filter(&fir8, 16)),
            1600.0,
            1,
            16,
            None,
        ),
        facade(
            "fir8-ii2",
            behavior(fir_filter(&fir8, 16)),
            1600.0,
            1,
            16,
            Some(2),
        ),
        facade(
            "fir64-seq",
            behavior(fir_filter(&fir64, 16)),
            1600.0,
            48,
            96,
            None,
        ),
        facade("idct8-seq", idct8(), 2000.0, 1, 16, None),
        facade("idct8-ii8", idct8(), 2000.0, 1, 32, Some(8)),
        Request {
            route: Route::Facade { recover: true },
            ..facade("idct8-1200ps-recover", idct8(), 1200.0, 1, 16, None)
        },
        facade(
            "fft450-seq-1600ps",
            synthetic(Fft, 450, 46),
            1600.0,
            1,
            24,
            None,
        ),
        facade(
            "img600-ii2",
            synthetic(ImageKernel, 600, 47),
            2200.0,
            1,
            24,
            Some(2),
        ),
        facade(
            "fft1000-ii2",
            synthetic(Fft, 1000, 49),
            2200.0,
            1,
            24,
            Some(2),
        ),
        facade(
            "fft1000-seq-le48",
            synthetic(Fft, 1000, 49),
            2200.0,
            1,
            48,
            None,
        ),
        facade(
            "img1250-seq-1600ps",
            synthetic(ImageKernel, 1250, 50),
            1600.0,
            1,
            24,
            None,
        ),
        facade(
            "img1250-seq-le48",
            synthetic(ImageKernel, 1250, 50),
            1600.0,
            1,
            48,
            None,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_names_are_unique_within_each_workload() {
        for name in NAMES {
            let requests = build(name, 7).expect("known workload");
            let mut names: Vec<_> = requests.iter().map(|r| r.name).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), requests.len(), "{name}");
        }
        assert!(build("no-such-workload", 7).is_none());
    }

    #[test]
    fn fir_taps_follow_the_seed_and_never_fold_away() {
        let taps = fir_taps(3, 64);
        assert_eq!(taps, fir_taps(3, 64));
        assert_ne!(taps, fir_taps(4, 64));
        assert!(taps.iter().all(|t| (2..=15).contains(&t.abs())), "{taps:?}");
        assert!(taps.iter().any(|&t| t < 0) && taps.iter().any(|&t| t > 0));
    }
}
