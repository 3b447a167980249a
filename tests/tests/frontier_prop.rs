//! Frontier-vs-dense property suite for the worklist kernel.
//!
//! Every engine (counting, crash, slot, agreement) is driven through
//! [`DenseOracle`] on SplitMix64-generated random specs — ≥128 cases
//! per engine covering every adversary placement and strategy the spec
//! layer knows, mixed radio ranges, and torus dimensions including the
//! degenerate shapes where the frontier must wrap correctly (exact
//! `2r+1` tori, i.e. `r ≥ dim/2`, and thin strips pinned at the wrap
//! minimum). The harness asserts, after **every** wave, that outcomes,
//! per-node probes and the step flag are bit-identical between
//! [`ScanMode::Frontier`] and [`ScanMode::Dense`] — per-wave counters
//! included, not just final results.
//!
//! [`DenseOracle`]: bftbcast::sim::DenseOracle
//! [`ScanMode::Frontier`]: bftbcast::net::ScanMode::Frontier
//! [`ScanMode::Dense`]: bftbcast::net::ScanMode::Dense

use bftbcast::prelude::Grid;
use bftbcast::sim::DenseOracle;
use bftbcast::spec::EngineSpec;
use bftbcast_integration_tests::frontier::{gen_case, gen_spec, CASES};
use bftbcast_integration_tests::next;

/// Builds the spec's engine twice and runs the lockstep harness; `None`
/// when the placement is rejected (local bound) so the caller can
/// retry with the next seed. Returns the number of lockstep steps.
fn check_case(spec: &EngineSpec) -> Option<usize> {
    let (Ok(frontier), Ok(dense)) = (spec.build_engine(), spec.build_engine()) else {
        return None;
    };
    let mut oracle = DenseOracle::new(frontier, dense);
    oracle.run();
    Some(oracle.steps())
}

/// ≥ [`CASES`] random specs for one engine kind, retrying seeds whose
/// placement trips the local-bound validator. Asserts that a majority
/// of the surviving cases actually propagate for multiple waves, so
/// the equivalence is never vacuously checked on stalled runs.
fn run_cases(kind: u64, tag: &str) {
    let mut stream = 0xF407_1E55_0000_0000 + kind;
    let (mut ran, mut skipped, mut multi_wave) = (0usize, 0usize, 0usize);
    while ran < CASES {
        assert!(
            skipped < 10 * CASES,
            "{tag}: generator rejects too much (ran {ran}, skipped {skipped})"
        );
        match check_case(&gen_case(kind, next(&mut stream))) {
            None => skipped += 1,
            Some(steps) => {
                ran += 1;
                if steps > 2 {
                    multi_wave += 1;
                }
            }
        }
    }
    assert!(
        2 * multi_wave > CASES,
        "{tag}: most cases must propagate multiple waves ({multi_wave}/{CASES})"
    );
}

#[test]
fn counting_engine_frontier_matches_dense() {
    run_cases(0, "counting");
}

#[test]
fn crash_engine_frontier_matches_dense() {
    run_cases(1, "crash");
}

#[test]
fn slot_engine_frontier_matches_dense() {
    run_cases(2, "slot");
}

#[test]
fn agreement_engine_frontier_matches_dense() {
    run_cases(3, "agreement");
}

/// The named degenerate shapes, pinned (not left to the generator's
/// dice): exact-wrap tori where `r ≥ dim/2` and thin strips, for every
/// engine. Each shape must yield at least one buildable case that the
/// lockstep harness passes.
#[test]
fn degenerate_wrap_tori_match_dense_across_engines() {
    for dims in [(3, 3, 1), (5, 5, 2), (3, 24, 1), (24, 3, 1), (5, 40, 2)] {
        for kind in 0..4u64 {
            let mut stream = 0xDE9E_0000 + (kind << 8) + u64::from(dims.0);
            let mut checked = false;
            for _ in 0..40 {
                let spec = gen_spec(kind, dims, &mut next(&mut stream));
                if check_case(&spec).is_some() {
                    checked = true;
                    break;
                }
            }
            assert!(checked, "no buildable case for kind {kind} on {dims:?}");
        }
    }
}

/// Grids that cannot host a wrap-free neighborhood are rejected at
/// construction — the frontier kernel never sees a 1×N strip or a
/// dimension below `2r+1`.
#[test]
fn sub_neighborhood_grids_are_rejected() {
    assert!(Grid::new(1, 50, 1).is_err(), "1×N strip");
    assert!(Grid::new(50, 1, 1).is_err(), "N×1 strip");
    assert!(Grid::new(4, 50, 2).is_err(), "width < 2r+1");
    assert!(Grid::new(50, 4, 2).is_err(), "height < 2r+1");
    assert!(Grid::new(3, 3, 1).is_ok(), "exactly 2r+1 is the minimum");
    assert!(Grid::new(5, 5, 2).is_ok());
}
