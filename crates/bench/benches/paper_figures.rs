//! Criterion benchmarks that regenerate every table and figure of the paper's
//! evaluation — one benchmark per experiment, timing the full regeneration
//! path (parameter sweeps, simulator runs, workload generation). The actual
//! rows are printed by `cargo run -p bts-bench --bin figures`.

use criterion::{criterion_group, criterion_main, Criterion};

use bts_bench::figures;

fn bench_paper_figures(c: &mut Criterion) {
    c.bench_function("table1_platform_comparison", |b| b.iter(figures::table1));
    c.bench_function("fig1_dnum_tradeoff", |b| b.iter(figures::fig1));
    c.bench_function("fig2_minbound_sweep", |b| b.iter(figures::fig2));
    c.bench_function("fig3b_complexity_breakdown", |b| b.iter(figures::fig3b));
    c.bench_function("table3_area_power", |b| b.iter(figures::table3));
    c.bench_function("table4_instances", |b| b.iter(figures::table4));
    c.bench_function("fig6_amortized_mult", |b| b.iter(figures::fig6));
    c.bench_function("fig7a_scratchpad_bound", |b| b.iter(figures::fig7a));
    c.bench_function("fig7b_bootstrap_fraction", |b| b.iter(figures::fig7b));
    c.bench_function("table5_helr", |b| b.iter(figures::table5));
    c.bench_function("table6_resnet_sorting", |b| b.iter(figures::table6));
    c.bench_function("fig8_keyswitch_schedule", |b| b.iter(figures::fig8));
    c.bench_function("fig9_ablation", |b| b.iter(figures::fig9));
    c.bench_function("fig10_scratchpad_edap", |b| b.iter(figures::fig10));
    c.bench_function("slowdown_vs_unencrypted", |b| b.iter(figures::slowdown));
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_paper_figures
}
criterion_main!(benches);
