//! Criterion benches for the closed forms of Theorems 1–6: PoCD is pure
//! arithmetic, and the Speculative-Restart cost sums a short hypergeometric
//! series on top of it.

use chronos_core::prelude::*;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn job() -> JobProfile {
    JobProfile::builder()
        .tasks(100)
        .t_min(20.0)
        .beta(1.5)
        .deadline(100.0)
        .build()
        .expect("valid job")
}

fn bench_pocd(c: &mut Criterion) {
    let mut group = c.benchmark_group("pocd-closed-form");
    let cases = [
        ("clone", StrategyParams::clone_strategy(80.0)),
        ("s-restart", StrategyParams::restart(40.0, 80.0).unwrap()),
        ("s-resume", StrategyParams::resume(40.0, 80.0, 0.3).unwrap()),
    ];
    for (label, params) in cases {
        let model = PocdModel::new(job(), params).expect("valid model");
        group.bench_with_input(BenchmarkId::from_parameter(label), &model, |b, model| {
            b.iter(|| model.pocd(3).expect("closed form"))
        });
    }
    group.finish();
}

fn bench_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("cost-closed-form");
    let cases = [
        ("clone", StrategyParams::clone_strategy(80.0)),
        ("s-restart", StrategyParams::restart(40.0, 80.0).unwrap()),
        ("s-resume", StrategyParams::resume(40.0, 80.0, 0.3).unwrap()),
    ];
    for (label, params) in cases {
        let model = CostModel::new(job(), params).expect("valid model");
        group.bench_with_input(BenchmarkId::from_parameter(label), &model, |b, model| {
            b.iter(|| model.expected_job_machine_time(3.0).expect("closed form"))
        });
    }
    group.finish();
}

fn bench_frontier_sweep(c: &mut Criterion) {
    c.bench_function("frontier-sweep-r16", |b| {
        let params = StrategyParams::resume(40.0, 80.0, 0.3).unwrap();
        b.iter(|| Frontier::sweep(&job(), &params, 16).expect("sweep"))
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(20);
    targets = bench_pocd, bench_cost, bench_frontier_sweep
);
criterion_main!(benches);
