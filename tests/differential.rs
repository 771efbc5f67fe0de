//! Differential testing across the CQP solver surfaces (proptest).
//!
//! Random instances of up to 12 preferences are pushed through every entry
//! point the resilience work added — budgeted dispatchers, partitioned
//! searches under a shared token, the general state-space adaptation — and
//! cross-checked against the legacy unbudgeted paths and the exhaustive
//! oracle. Any divergence means the cancellation plumbing changed results
//! on the *uncancelled* path, which it must never do.

use cqp_core::algorithms::{branch_bound, exhaustive, general, solve_p2_budgeted};
use cqp_core::budget::CancelToken;
use cqp_core::{solve_p2, Algorithm, ProblemSpec};
use cqp_obs::NoopRecorder;
use cqp_par::ThreadPool;
use cqp_prefs::{ConjModel, Doi};
use cqp_prefspace::{PrefParams, PreferenceSpace};
use proptest::prelude::*;

/// Strategy: a preference space of 1..=12 preferences — wide enough that
/// the heuristics' round structure and the partitioned searches' split
/// points are all exercised, small enough that exhaustive enumeration
/// (2^12 states) stays instant.
fn arb_space() -> impl Strategy<Value = PreferenceSpace> {
    prop::collection::vec((1u64..=19, 1u64..=80, 1u32..=20), 1..=12).prop_map(|raw| {
        let params: Vec<PrefParams> = raw
            .into_iter()
            .map(|(d, c, f)| PrefParams {
                doi: Doi::new(d as f64 * 0.05),
                cost_blocks: c,
                size_factor: f as f64 * 0.05,
            })
            .collect();
        PreferenceSpace::synthetic(params, 1000.0, 0)
    })
}

/// The six problem variants of Table 1 from one tuple of bounds.
fn table1(cmax: u64, dmin: Doi, smax: f64) -> [ProblemSpec; 6] {
    [
        ProblemSpec::p1(1.0, smax),
        ProblemSpec::p2(cmax),
        ProblemSpec::p3(cmax, 1.0, smax),
        ProblemSpec::p4(dmin),
        ProblemSpec::p5(dmin, 1.0, smax),
        ProblemSpec::p6(1.0, smax),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The budgeted dispatcher with an unlimited token is bit-identical to
    /// the legacy path for every algorithm: same prefs, doi, cost, found.
    /// This is the core refactor-safety property of the cancellation work.
    #[test]
    fn budgeted_dispatch_matches_legacy_for_every_algorithm(
        space in arb_space(),
        cmax in 0u64..500,
    ) {
        for algo in [
            Algorithm::DMaxDoi,
            Algorithm::DSingleMaxDoi,
            Algorithm::CBoundaries,
            Algorithm::CMaxBounds,
            Algorithm::DHeurDoi,
            Algorithm::Exhaustive,
            Algorithm::BranchBound,
        ] {
            let legacy = solve_p2(&space, ConjModel::NoisyOr, cmax, algo);
            let budgeted = solve_p2_budgeted(
                &space,
                ConjModel::NoisyOr,
                cmax,
                algo,
                &NoopRecorder,
                &CancelToken::unlimited(),
            );
            prop_assert_eq!(&budgeted.prefs, &legacy.prefs, "{} prefs", algo.name());
            prop_assert_eq!(budgeted.doi, legacy.doi, "{} doi", algo.name());
            prop_assert_eq!(budgeted.cost_blocks, legacy.cost_blocks, "{} cost", algo.name());
            prop_assert_eq!(budgeted.found, legacy.found, "{} found", algo.name());
            prop_assert!(budgeted.degraded.is_none(), "{} spuriously degraded", algo.name());
        }
    }

    /// Exactness differential on P2: D-MAXDOI, C-BOUNDARIES, and
    /// branch-and-bound all agree with exhaustive enumeration on the
    /// optimal doi (Theorems 2 and 3), through the budgeted entry points.
    #[test]
    fn exact_trio_matches_exhaustive_on_p2(space in arb_space(), cmax in 0u64..500) {
        let oracle = exhaustive::solve_p2(&space, ConjModel::NoisyOr, cmax);
        for algo in [Algorithm::DMaxDoi, Algorithm::CBoundaries, Algorithm::BranchBound] {
            let sol = solve_p2_budgeted(
                &space,
                ConjModel::NoisyOr,
                cmax,
                algo,
                &NoopRecorder,
                &CancelToken::unlimited(),
            );
            prop_assert_eq!(sol.doi, oracle.doi, "{} at cmax={}", algo.name(), cmax);
            prop_assert_eq!(sol.found, oracle.found, "{}", algo.name());
            if sol.found {
                prop_assert!(sol.cost_blocks <= cmax, "{}", algo.name());
            }
        }
    }

    /// Heuristic differential on P2: C-MAXBOUNDS, D-SINGLEMAXDOI, and
    /// D-HEURDOI are always feasible and never beat the oracle.
    #[test]
    fn heuristics_feasible_and_bounded_on_p2(space in arb_space(), cmax in 0u64..500) {
        let oracle = exhaustive::solve_p2(&space, ConjModel::NoisyOr, cmax);
        for algo in [Algorithm::CMaxBounds, Algorithm::DSingleMaxDoi, Algorithm::DHeurDoi] {
            let sol = solve_p2_budgeted(
                &space,
                ConjModel::NoisyOr,
                cmax,
                algo,
                &NoopRecorder,
                &CancelToken::unlimited(),
            );
            if sol.found {
                prop_assert!(sol.cost_blocks <= cmax, "{} infeasible", algo.name());
            }
            prop_assert!(sol.doi <= oracle.doi, "{} above optimum", algo.name());
        }
    }

    /// Branch-and-bound ≡ exhaustive across all six Table-1 problem
    /// variants, with both sides going through their bounded entry points.
    #[test]
    fn branch_bound_matches_exhaustive_on_all_variants(
        space in arb_space(),
        cmax in 1u64..400,
        dmin_steps in 1u32..19,
        smax_frac in 1u32..100,
    ) {
        let dmin = Doi::new(dmin_steps as f64 * 0.05);
        let smax = 1000.0 * smax_frac as f64 / 100.0;
        for p in &table1(cmax, dmin, smax) {
            let bb = branch_bound::solve_bounded(
                &space, ConjModel::NoisyOr, p, &CancelToken::unlimited(),
            );
            let ex = exhaustive::solve_bounded(
                &space, ConjModel::NoisyOr, p, &CancelToken::unlimited(),
            );
            prop_assert_eq!(bb.found, ex.found, "{:?} found", p.kind());
            prop_assert_eq!(bb.doi, ex.doi, "{:?} doi", p.kind());
            prop_assert_eq!(bb.cost_blocks, ex.cost_blocks, "{:?} cost", p.kind());
            prop_assert!(bb.degraded.is_none());
            prop_assert!(ex.degraded.is_none());
        }
    }

    /// Partitioned differential: the multi-threaded exact searches sharing
    /// one (unlimited) token return the same optimum as their sequential
    /// counterparts on every problem variant.
    #[test]
    fn partitioned_searches_match_sequential(
        space in arb_space(),
        cmax in 1u64..400,
        dmin_steps in 1u32..19,
    ) {
        let pool = ThreadPool::new(4);
        let dmin = Doi::new(dmin_steps as f64 * 0.05);
        for p in &table1(cmax, dmin, 1000.0) {
            let seq_ex = exhaustive::solve(&space, ConjModel::NoisyOr, p);
            let par_ex = exhaustive::solve_partitioned_bounded(
                &space, ConjModel::NoisyOr, p, &pool, &CancelToken::unlimited(),
            );
            prop_assert_eq!(par_ex.doi, seq_ex.doi, "{:?} exhaustive doi", p.kind());
            prop_assert_eq!(par_ex.found, seq_ex.found, "{:?} exhaustive found", p.kind());

            let seq_bb = branch_bound::solve(&space, ConjModel::NoisyOr, p);
            let par_bb = branch_bound::solve_partitioned_bounded(
                &space, ConjModel::NoisyOr, p, &pool, &CancelToken::unlimited(),
            );
            prop_assert_eq!(par_bb.doi, seq_bb.doi, "{:?} bb doi", p.kind());
            prop_assert_eq!(par_bb.found, seq_bb.found, "{:?} bb found", p.kind());
        }
    }

    /// The general state-space adaptation through its bounded entry point:
    /// feasible whenever it reports `found`, sound against the oracle, and
    /// never spuriously degraded under an unlimited token.
    #[test]
    fn general_bounded_feasible_and_sound(
        space in arb_space(),
        cmax in 1u64..400,
        dmin_steps in 1u32..19,
        smax_frac in 1u32..100,
    ) {
        let dmin = Doi::new(dmin_steps as f64 * 0.05);
        let smax = 1000.0 * smax_frac as f64 / 100.0;
        for p in &table1(cmax, dmin, smax) {
            let sol = general::solve_bounded(
                &space, ConjModel::NoisyOr, p, &CancelToken::unlimited(),
            );
            let ex = exhaustive::solve(&space, ConjModel::NoisyOr, p);
            prop_assert!(sol.degraded.is_none(), "{:?} spuriously degraded", p.kind());
            if sol.found {
                prop_assert!(p.feasible(&sol.params()), "{:?} infeasible", p.kind());
            }
            match p.objective {
                cqp_core::Objective::MaxDoi => prop_assert!(sol.doi <= ex.doi, "{:?}", p.kind()),
                cqp_core::Objective::MinCost => {
                    if sol.found && ex.found {
                        prop_assert!(sol.cost_blocks >= ex.cost_blocks, "{:?}", p.kind());
                    }
                }
            }
        }
    }
}
