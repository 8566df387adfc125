//! Property-based tests for the planner: for *arbitrary* workloads,
//! `Planner::plan_request` called once per request must be
//! element-for-element bit-identical to sequential, uncached
//! `Optimizer::optimize` calls — memoization is a pure wall-clock
//! optimization that may never change a result or an error.

use chronos_core::prelude::*;
use chronos_plan::prelude::*;
use proptest::prelude::*;

/// Discrete pools the generator draws from. Small pools force duplicate
/// profiles (the planner's raison d'être) while still covering all three
/// strategies, feasible and infeasible timings, and several job shapes.
const TASKS: [u32; 3] = [5, 20, 120];
const T_MIN: [f64; 2] = [10.0, 20.0];
const BETA: [f64; 2] = [1.3, 1.7];
const DEADLINE_FACTOR: [f64; 3] = [1.2, 2.5, 5.0];
const PRICE: [f64; 2] = [0.5, 1.0];

/// Deterministically expands a seed into a workload of plan requests.
/// Infeasible combinations (e.g. a reactive τ_est at 80% of a tight
/// deadline) are deliberately kept: errors must round-trip through the
/// cache exactly like successes.
fn workload(seed: u64, len: usize) -> Vec<PlanRequest> {
    let mut state = seed;
    let mut next = || {
        // splitmix64-style mixing keeps the expansion deterministic per seed.
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    (0..len)
        .map(|_| {
            let pick = next();
            let tasks = TASKS[(pick % 3) as usize];
            let t_min = T_MIN[((pick >> 2) % 2) as usize];
            let beta = BETA[((pick >> 4) % 2) as usize];
            let deadline = t_min * DEADLINE_FACTOR[((pick >> 6) % 3) as usize];
            let price = PRICE[((pick >> 8) % 2) as usize];
            let job = JobProfile::builder()
                .tasks(tasks)
                .t_min(t_min)
                .beta(beta)
                .deadline(deadline)
                .price(price)
                .build()
                .expect("pool values are individually valid and deadline > t_min");
            let tau_est = deadline * [0.2, 0.4, 0.8][((pick >> 10) % 3) as usize];
            let tau_kill = tau_est + 0.4 * t_min;
            let params = match (pick >> 13) % 3 {
                0 => StrategyParams::clone_strategy(tau_kill),
                1 => StrategyParams::restart(tau_est, tau_kill).expect("ordered timings"),
                _ => StrategyParams::resume(tau_est, tau_kill, 0.3).expect("ordered timings"),
            };
            PlanRequest::new(job, params)
        })
        .collect()
}

/// Bit-level equality of two outcomes (plain `==` would conflate distinct
/// NaN/zero encodings; the contract here is *bit*-identity).
fn outcome_bits(outcome: &OptimizationOutcome) -> (u32, u64, u64, u64, u64) {
    (
        outcome.r,
        outcome.utility.to_bits(),
        outcome.pocd.to_bits(),
        outcome.machine_time.to_bits(),
        outcome.dollar_cost.to_bits(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The headline property: per-request plan_request ≡ sequential
    /// uncached optimize, bit for bit, for any workload and any θ.
    #[test]
    fn plan_request_is_bit_identical_to_sequential_uncached_optimize(
        seed in 0u64..1_000_000,
        len in 1usize..60,
        theta_exp in 3u32..6,
    ) {
        let theta = 10f64.powi(-(theta_exp as i32));
        let objective = UtilityModel::new(theta, 0.0).unwrap();
        let requests = workload(seed, len);

        let planner = Planner::new(objective);
        let planned: Vec<PlanResult> =
            requests.iter().map(|request| planner.plan_request(request)).collect();

        let optimizer = Optimizer::new(objective);
        for (request, result) in requests.iter().zip(&planned) {
            let direct = optimizer.optimize(&request.job, &request.params);
            match (result, direct) {
                (Ok(plan), Ok(outcome)) => {
                    prop_assert_eq!(outcome_bits(&plan.outcome), outcome_bits(&outcome));
                }
                (Err(cached), Err(fresh)) => {
                    prop_assert_eq!(cached.to_string(), fresh.to_string());
                }
                (cached, fresh) => {
                    panic!(
                        "planner and optimizer disagree on fallibility: {cached:?} vs {fresh:?}"
                    );
                }
            }
        }

        // The cache deduplicated: misses equal the distinct key count, and
        // every request was one lookup.
        let distinct = {
            let mut keys: Vec<ProfileKey> =
                requests.iter().map(|r| planner.key_of(r)).collect();
            keys.sort_by_key(|k| format!("{k:?}"));
            keys.dedup();
            keys.len() as u64
        };
        prop_assert_eq!(planner.stats().misses, distinct);
        prop_assert_eq!(planner.stats().lookups(), len as u64);
    }
}
