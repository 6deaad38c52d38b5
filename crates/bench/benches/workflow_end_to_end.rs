//! Criterion benchmark: the full diagnosis workflow (Figure 2) in batch mode over a
//! pre-simulated scenario-1 deployment, plus the individual modules.

use diads_bench::harness::diagnose;
use diads_bench::microbench::Criterion;
use diads_bench::{criterion_group, criterion_main};
use diads_core::workflow::DiagnosisCache;
use diads_core::{DiagnosisPipeline, DiagnosisWorkflow, Testbed};
use diads_inject::scenarios::{scenario_1, ScenarioTimeline};
use std::hint::black_box;

fn bench_workflow(c: &mut Criterion) {
    let outcome = Testbed::run_scenario(&scenario_1(ScenarioTimeline::short()));
    let apg = outcome.apg();
    let events = outcome.testbed.all_events();
    let ctx = outcome.context(&apg, &events);
    let workflow = DiagnosisWorkflow::new();
    let pipeline = DiagnosisPipeline::with_workflow(workflow);

    let mut group = c.benchmark_group("workflow");
    group.sample_size(20);
    group.bench_function("batch_diagnosis", |b| b.iter(|| black_box(pipeline.run(black_box(&ctx)))));
    group.bench_function("batch_diagnosis_refit_baseline", |b| {
        b.iter(|| {
            let mut cache = DiagnosisCache::disabled();
            black_box(pipeline.run_with_cache(black_box(&ctx), &mut cache))
        })
    });
    group.bench_function("batch_diagnosis_warm_cache", |b| {
        let mut cache = DiagnosisCache::new();
        b.iter(|| black_box(pipeline.run_with_cache(black_box(&ctx), &mut cache)))
    });
    group.bench_function("module_co", |b| {
        b.iter(|| black_box(workflow.correlated_operators(&ctx, &mut DiagnosisCache::new())))
    });
    let cos = workflow.correlated_operators(&ctx, &mut DiagnosisCache::new());
    group.bench_function("module_da", |b| {
        b.iter(|| black_box(workflow.dependency_analysis(&ctx, &cos, &mut DiagnosisCache::new())))
    });
    group.bench_function("module_da_refit_baseline", |b| {
        b.iter(|| {
            let mut cache = DiagnosisCache::disabled();
            black_box(workflow.dependency_analysis(&ctx, &cos, &mut cache))
        })
    });
    group.bench_function("module_da_warm_cache", |b| {
        let mut cache = DiagnosisCache::new();
        b.iter(|| black_box(workflow.dependency_analysis(&ctx, &cos, &mut cache)))
    });
    group.bench_function("diagnose_helper", |b| b.iter(|| black_box(diagnose(&outcome))));
    group.finish();
}

criterion_group!(benches, bench_workflow);
criterion_main!(benches);
