//! Strategy selection: use the closed-form dominance results of Theorem 7
//! and the joint optimizer to decide, per job class, which strategy to run
//! and with how many extra attempts — the "unifying framework" use-case.
//!
//! Run with `cargo run --example strategy_selection`.

use chronos::prelude::*;
use chronos_core::pocd::{clone_beats_resume_threshold, compare_pocd};

fn main() -> Result<(), ChronosError> {
    // Three job classes with different deadline sensitivities: the deadline
    // is expressed as a multiple of the mean task time (β = 1.5 ⇒ mean = 3·t_min).
    let classes = [
        ("interactive (tight)", 1.5),
        ("production (moderate)", 2.0),
        ("batch (loose)", 4.0),
    ];

    let t_min = 20.0;
    let beta = 1.5;
    let optimizer = Optimizer::new(UtilityModel::new(1e-4, 0.0)?);

    for (label, deadline_factor) in classes {
        let mean_task = t_min * beta / (beta - 1.0);
        let deadline = deadline_factor * mean_task;
        let job = JobProfile::builder()
            .tasks(30)
            .t_min(t_min)
            .beta(beta)
            .deadline(deadline)
            .build()?;

        let tau_est = 0.3 * t_min;
        let tau_kill = 0.6 * t_min;
        let phi = chronos_strategies::expected_straggler_progress(tau_est, deadline, beta);
        let candidates = vec![
            StrategyParams::clone_strategy(tau_kill),
            StrategyParams::restart(tau_est, tau_kill)?,
            StrategyParams::resume(tau_est, tau_kill, phi)?,
        ];

        println!("\n== {label}: deadline {deadline:.0} s ==");

        // Theorem 7 in action: who wins on PoCD at the same r?
        let clone_model = PocdModel::new(job, candidates[0])?;
        let restart_model = PocdModel::new(job, candidates[1])?;
        let resume_model = PocdModel::new(job, candidates[2])?;
        let r_probe = 2;
        println!(
            "  at r = {r_probe}: Clone vs S-Restart -> {:?}, S-Resume vs S-Restart -> {:?}",
            compare_pocd(&clone_model, &restart_model, r_probe),
            compare_pocd(&resume_model, &restart_model, r_probe),
        );
        match clone_beats_resume_threshold(&job, &candidates[2]) {
            Ok(threshold) => {
                println!("  Clone out-speculates S-Resume only beyond r > {threshold:.1}")
            }
            Err(_) => println!("  Clone never out-speculates S-Resume for this class"),
        }

        // The joint PoCD/cost optimization picks the strategy and r.
        let ranked = optimizer.rank_strategies(&job, &candidates)?;
        for outcome in &ranked {
            println!(
                "  {:<22} r = {:<2} PoCD {:.4}  E[T] {:>7.1}  utility {:+.4}",
                outcome.strategy.to_string(),
                outcome.r,
                outcome.pocd,
                outcome.machine_time,
                outcome.utility
            );
        }
        println!(
            "  -> run {} with {} extra attempts",
            ranked[0].strategy, ranked[0].r
        );
    }
    Ok(())
}
