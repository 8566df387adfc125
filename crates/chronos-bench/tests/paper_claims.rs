//! Paper-claim gates: the orderings the source paper's Section VII figures
//! report, asserted on the committed `--quick` goldens.
//!
//! `golden_experiments.rs` pins the experiment outputs byte for byte, and
//! goldens do get re-pinned (for a bug fix, say). These tests make sure a
//! re-pin cannot carry a result that contradicts the paper: each check
//! reads the same `tests/golden/*_quick.json` and asserts one ordering,
//! citing its figure.
//!
//! One deviation is recorded, not gated: on SecondarySort at `--quick`,
//! Clone's PoCD (0.85) is below Hadoop-S's (0.95), while on the other three
//! benchmarks Clone's PoCD is at least Hadoop-S's. At `--quick` each
//! benchmark runs 20 jobs, so one job moves PoCD by 0.05 and the gap is two
//! jobs.

use serde::Deserialize;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// One `fig2` cell. Hadoop-NS's utility is −∞ (its PoCD is `R_min`),
/// which JSON stores as `null`.
#[derive(Debug, Clone, Deserialize)]
struct Fig2Row {
    benchmark: String,
    policy: String,
    cost: f64,
    utility: Option<f64>,
}

/// One `fig3` cell: a policy at one tradeoff factor θ.
#[derive(Debug, Clone, Deserialize)]
struct Fig3Row {
    theta: f64,
    policy: String,
    utility: f64,
    r_histogram: BTreeMap<u32, u64>,
}

/// One `fig4` cell: a policy at one Pareto shape β.
#[derive(Debug, Clone, Deserialize)]
struct Fig4Row {
    beta: f64,
    policy: String,
    cost: f64,
}

/// One `fig5` cell: a policy's modal `r` at one θ.
#[derive(Debug, Clone, Deserialize)]
struct Fig5Row {
    policy: String,
    theta: f64,
    modal_r: u32,
}

const CHRONOS: [&str; 3] = ["clone", "s-restart", "s-resume"];

fn golden<T: for<'de> Deserialize<'de>>(name: &str) -> Vec<T> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|err| panic!("missing golden {}: {err}", path.display()));
    serde_json::from_str(&text)
        .unwrap_or_else(|err| panic!("golden {} does not parse: {err}", path.display()))
}

/// The distinct values of `key` over `rows`, in first-seen order.
fn distinct<T, K: PartialEq>(rows: &[T], key: impl Fn(&T) -> K) -> Vec<K> {
    let mut seen = Vec::new();
    for row in rows {
        let value = key(row);
        if !seen.contains(&value) {
            seen.push(value);
        }
    }
    seen
}

/// The most frequent `r` of a histogram (ties go to the smaller `r`).
fn modal_r(histogram: &BTreeMap<u32, u64>) -> Option<u32> {
    histogram
        .iter()
        .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
        .map(|(&r, _)| r)
}

/// Figure 2(b, c): S-Resume has the highest net utility on every
/// benchmark, and costs no more than Clone.
fn check_fig2(rows: &[Fig2Row]) -> Result<(), String> {
    for benchmark in distinct(rows, |row| row.benchmark.clone()) {
        let cells: Vec<&Fig2Row> = rows.iter().filter(|r| r.benchmark == benchmark).collect();
        let cell = |policy: &str| {
            cells
                .iter()
                .find(|row| row.policy == policy)
                .ok_or_else(|| format!("fig2 {benchmark}: no {policy} row"))
        };
        let utility = |row: &Fig2Row| row.utility.unwrap_or(f64::NEG_INFINITY);
        let resume = cell("s-resume")?;
        for other in cells.iter().filter(|row| row.policy != "s-resume") {
            if utility(other) >= utility(resume) {
                return Err(format!(
                    "fig2 {benchmark}: {} utility {} is not below s-resume's {}",
                    other.policy,
                    utility(other),
                    utility(resume)
                ));
            }
        }
        let clone = cell("clone")?;
        if resume.cost > clone.cost {
            return Err(format!(
                "fig2 {benchmark}: s-resume cost {} exceeds clone's {}",
                resume.cost, clone.cost
            ));
        }
    }
    Ok(())
}

/// Figure 3: at every θ each Chronos strategy's utility beats Mantri's and
/// S-Resume's is the highest; and as θ rises, no strategy's modal `r`
/// rises (a higher price of machine time buys fewer copies).
fn check_fig3(rows: &[Fig3Row]) -> Result<(), String> {
    let mut thetas = distinct(rows, |row| row.theta);
    thetas.sort_by(f64::total_cmp);
    let cell = |theta: f64, policy: &str| {
        rows.iter()
            .find(|row| row.theta == theta && row.policy == policy)
            .ok_or_else(|| format!("fig3 θ={theta}: no {policy} row"))
    };
    for &theta in &thetas {
        let mantri = cell(theta, "mantri")?;
        let resume = cell(theta, "s-resume")?;
        for policy in CHRONOS {
            let row = cell(theta, policy)?;
            if row.utility <= mantri.utility {
                return Err(format!(
                    "fig3 θ={theta}: {policy} utility {} does not beat mantri's {}",
                    row.utility, mantri.utility
                ));
            }
            if policy != "s-resume" && row.utility >= resume.utility {
                return Err(format!(
                    "fig3 θ={theta}: {policy} utility {} is not below s-resume's {}",
                    row.utility, resume.utility
                ));
            }
        }
    }
    for policy in CHRONOS {
        let mut previous: Option<u32> = None;
        for &theta in &thetas {
            let modal = modal_r(&cell(theta, policy)?.r_histogram)
                .ok_or_else(|| format!("fig3 θ={theta}: {policy} has an empty r histogram"))?;
            if previous.is_some_and(|previous| modal > previous) {
                return Err(format!("fig3 θ={theta}: {policy} modal r rose to {modal}"));
            }
            previous = Some(modal);
        }
    }
    Ok(())
}

/// Figure 4: the cost of S-Restart and S-Resume falls as the Pareto shape
/// β rises (lighter tails produce fewer stragglers to speculate on).
fn check_fig4(rows: &[Fig4Row]) -> Result<(), String> {
    for policy in ["s-restart", "s-resume"] {
        let mut points: Vec<&Fig4Row> = rows.iter().filter(|row| row.policy == policy).collect();
        points.sort_by(|a, b| a.beta.total_cmp(&b.beta));
        for pair in points.windows(2) {
            if pair[1].cost >= pair[0].cost {
                return Err(format!(
                    "fig4 {policy}: cost {} at β={} is not below {} at β={}",
                    pair[1].cost, pair[1].beta, pair[0].cost, pair[0].beta
                ));
            }
        }
    }
    Ok(())
}

/// Figure 5: the modal `r` drops by exactly one as θ grows tenfold. The
/// paper reports Clone 2 → 1 and S-Resume 4 → 3; at `--quick` both go
/// 3 → 2.
fn check_fig5(rows: &[Fig5Row]) -> Result<(), String> {
    for policy in distinct(rows, |row| row.policy.clone()) {
        let mut points: Vec<&Fig5Row> = rows.iter().filter(|row| row.policy == policy).collect();
        points.sort_by(|a, b| a.theta.total_cmp(&b.theta));
        if points.len() < 2 {
            return Err(format!("fig5 {policy}: fewer than two θ points"));
        }
        for pair in points.windows(2) {
            let tenfold = (pair[1].theta / pair[0].theta - 10.0).abs() < 1e-9;
            if !tenfold || pair[1].modal_r + 1 != pair[0].modal_r {
                return Err(format!(
                    "fig5 {policy}: modal r went {} → {} from θ={} to θ={}",
                    pair[0].modal_r, pair[1].modal_r, pair[0].theta, pair[1].theta
                ));
            }
        }
    }
    Ok(())
}

#[test]
fn fig2_s_resume_has_the_best_utility_at_no_more_cost_than_clone() {
    check_fig2(&golden("fig2_quick.json")).unwrap();
}

#[test]
fn fig3_chronos_beats_mantri_and_modal_r_falls_with_theta() {
    check_fig3(&golden("fig3_quick.json")).unwrap();
}

#[test]
fn fig4_reactive_costs_fall_as_beta_rises() {
    check_fig4(&golden("fig4_quick.json")).unwrap();
}

#[test]
fn fig5_modal_r_drops_by_one_per_tenfold_theta() {
    check_fig5(&golden("fig5_quick.json")).unwrap();
}

#[test]
fn the_gates_catch_swapped_utilities() {
    // Swap S-Resume's and S-Restart's utilities on one benchmark (fig2) and
    // at one θ (fig3): each copy must now fail its gate.
    let mut fig2: Vec<Fig2Row> = golden("fig2_quick.json");
    let index = |policy: &str| {
        fig2.iter()
            .position(|row| row.benchmark == "sort" && row.policy == policy)
            .unwrap()
    };
    let (resume, restart) = (index("s-resume"), index("s-restart"));
    let swapped = fig2[resume].utility;
    fig2[resume].utility = fig2[restart].utility;
    fig2[restart].utility = swapped;
    let err = check_fig2(&fig2).unwrap_err();
    assert!(err.contains("fig2 sort"), "{err}");

    let mut fig3: Vec<Fig3Row> = golden("fig3_quick.json");
    let index = |policy: &str| {
        fig3.iter()
            .position(|row| row.theta == 1e-4 && row.policy == policy)
            .unwrap()
    };
    let (resume, mantri) = (index("s-resume"), index("mantri"));
    let swapped = fig3[resume].utility;
    fig3[resume].utility = fig3[mantri].utility;
    fig3[mantri].utility = swapped;
    assert!(check_fig3(&fig3).is_err());
}
