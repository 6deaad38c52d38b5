//! The canonical performance tracker: measures the scoring-engine hot paths and
//! writes machine-readable results to `BENCH_diads.json` at the workspace root (or the
//! path given as the first argument), so the perf trajectory is tracked PR over PR.
//!
//! Covered comparisons:
//!
//! * **KDE scoring throughput** — re-fitting per score (the pre-cache workflow
//!   behaviour) vs. fitting once and batch-scoring with `score_many`.
//! * **Module DA latency** — the component×metric scoring loop with per-call refits
//!   vs. the shared `DiagnosisCache`, and the cold path (a fresh cache per call,
//!   cycled over every `all_scenarios()` outcome).
//! * **End-to-end diagnosis** — full scenario-1 batch diagnosis wall time, refit
//!   baseline vs. the cached engine.
//! * **Store recording** — `MetricStore::record_key` over a 64-series matrix
//!   (the one write path every recorder and the service ingest take).
//! * **Scenario matrix** — the batch engine's hot path: simulate + diagnose a
//!   matrix of injected-fault scenarios, plus warm re-diagnosis through the
//!   testbed-level cache; and the post-PD re-drill hot path on
//!   `compound_config_contention` (the flagship plan-change compound scenario)
//!   through the cold, warm and incremental diagnosis paths.
//! * **Incremental re-diagnosis** — the steady-state interactive loop: after a
//!   one-epoch metric append, a full cold re-diagnosis (what an invalidated
//!   engine slot costs) vs. `diagnose_incremental` over a sealed watermark; and
//!   cold engine start vs. a `DiagnosisEngine::restore`d snapshot start.
//! * **Generator** — the generative scenario engine: seeded plan sampling
//!   throughput (a 64-plan batch), the full oracle cycle (simulate + diagnose +
//!   evaluate one generated plan), and shrink-candidate enumeration.
//!
//! Run with `cargo run --release -p diads-bench --bin bench_diads`. Pass `--smoke`
//! to shrink every group to two samples — CI uses this to exercise the whole
//! regeneration path on every push without paying full measurement time (smoke
//! numbers are statistically meaningless; write them somewhere disposable).

use diads_bench::hotpath;
use diads_bench::microbench::{Criterion, Record};
use diads_core::workflow::DiagnosisCache;
use diads_core::{DiagnosisEngine, DiagnosisPipeline, DiagnosisWorkflow, Testbed};
use diads_gen::{check_plan, shrink_candidates, Generator, TimelineKind};
use diads_inject::scenarios::{
    all_scenarios, compound_config_and_contention_scenario, compound_lock_and_interloper_scenario,
    scenario_1, scenario_3, scenario_5, ScenarioTimeline,
};
use diads_monitor::{ComponentId, Duration, MetricKey, MetricName, MetricStore, Timestamp};
use diads_stats::ScoringCache;
use std::hint::black_box;

fn median_of(records: &[Record], group: &str, bench: &str) -> f64 {
    records.iter().find(|r| r.group == group && r.bench == bench).map(|r| r.median_ns).unwrap_or(f64::NAN)
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    args.retain(|a| a != "--smoke");
    let out_path = args.into_iter().next().unwrap_or_else(|| "BENCH_diads.json".to_string());
    // Smoke mode: minimum samples everywhere — exercises every measured path and
    // the JSON assembly, not the statistics.
    let samples = |n: usize| if smoke { 2 } else { n };
    let mut c = Criterion::new();

    // ----- KDE scoring: per-call refit vs. cache + score_many -----
    // The workload is shared with the kde_scoring bench (diads_bench::hotpath) so the
    // tracked JSON stays representative of what the bench suite measures.
    let sample = hotpath::kde_sample();
    let observations = hotpath::kde_observations();
    {
        let mut group = c.benchmark_group("kde");
        group.sample_size(samples(30));
        group.bench_function("refit_per_score", |b| {
            b.iter(|| black_box(hotpath::refit_per_score(black_box(&sample), &observations)))
        });
        group.bench_function("cached_score_many", |b| {
            let mut cache: ScoringCache<u32> = ScoringCache::new();
            let mut out = Vec::new();
            b.iter(|| {
                black_box(hotpath::cached_score_many(&mut cache, &mut out, &sample, black_box(&observations)))
            })
        });
        group.finish();
    }

    // ----- Module DA and end-to-end diagnosis over scenario 1 -----
    let mut outcome = Testbed::run_scenario(&scenario_1(ScenarioTimeline::short()));
    let apg = outcome.apg();
    let events = outcome.testbed.all_events();
    let ctx = outcome.context(&apg, &events);
    let workflow = DiagnosisWorkflow::new();
    let pipeline = DiagnosisPipeline::with_workflow(workflow);
    let cos = workflow.correlated_operators(&ctx, &mut DiagnosisCache::new());

    {
        let mut group = c.benchmark_group("da");
        group.sample_size(samples(20));
        group.bench_function("refit_baseline", |b| {
            b.iter(|| {
                let mut cache = DiagnosisCache::disabled();
                black_box(workflow.dependency_analysis(&ctx, &cos, &mut cache))
            })
        });
        group.bench_function("cached", |b| {
            let mut cache = DiagnosisCache::new();
            b.iter(|| black_box(workflow.dependency_analysis(&ctx, &cos, &mut cache)))
        });
        // The cold path a fresh diagnosis takes: a new cache per call, so every key
        // fits. Each call diagnoses the next outcome of the full scenario matrix, so
        // no one context's series stay cache-hot; the figure is the mean per call.
        let matrix_outcomes = Testbed::run_scenarios(&all_scenarios());
        let matrix_parts: Vec<_> =
            matrix_outcomes.iter().map(|o| (o, o.apg(), o.testbed.all_events())).collect();
        let matrix_da: Vec<_> = matrix_parts
            .iter()
            .map(|(o, apg, events)| {
                let ctx = o.context(apg, events);
                (ctx, workflow.correlated_operators(&ctx, &mut DiagnosisCache::new()))
            })
            .collect();
        let mut next = 0;
        group.bench_function("cold", |b| {
            b.iter(|| {
                let (ctx, cos) = &matrix_da[next % matrix_da.len()];
                next += 1;
                black_box(workflow.dependency_analysis(ctx, cos, &mut DiagnosisCache::new()))
            })
        });
        group.finish();
    }

    {
        let mut group = c.benchmark_group("end_to_end");
        group.sample_size(samples(15));
        group.bench_function("scenario1_refit_baseline", |b| {
            b.iter(|| {
                let mut cache = DiagnosisCache::disabled();
                black_box(pipeline.run_with_cache(black_box(&ctx), &mut cache))
            })
        });
        group.bench_function("scenario1_diagnosis", |b| b.iter(|| black_box(pipeline.run(black_box(&ctx)))));
        group.bench_function("scenario1_diagnosis_warm", |b| {
            // The interactive / what-if pattern: repeated diagnoses of one context
            // share a cache, so every KDE fit after the first diagnosis is skipped.
            let mut cache = DiagnosisCache::new();
            b.iter(|| black_box(pipeline.run_with_cache(black_box(&ctx), &mut cache)))
        });
        group.finish();
    }

    // ----- Store recording: the one write path -----
    const RECORD_COMPONENTS: usize = 64;
    const RECORD_POINTS_PER_KEY: usize = 200;
    {
        let mut group = c.benchmark_group("store");
        group.sample_size(samples(15));
        group.bench_function("record_direct", |b| {
            b.iter(|| {
                let mut store = MetricStore::new();
                let keys: Vec<MetricKey> = (0..RECORD_COMPONENTS)
                    .map(|i| store.intern(&ComponentId::volume(format!("V{i:02}")), &MetricName::WriteIo))
                    .collect();
                for t in 0..RECORD_POINTS_PER_KEY as u64 {
                    for &key in &keys {
                        store.record_key(key, Timestamp::new(t * 60), t as f64);
                    }
                }
                black_box(store.point_count())
            })
        });
        group.finish();
    }

    // ----- Scenario matrix: the batch engine's hot path -----
    // A mixed matrix (SAN contention, data-property change, lock contention, and a
    // compound DB+SAN fault with staggered onsets) on the short timeline: one
    // iteration simulates every scenario end to end and diagnoses each outcome.
    let t = ScenarioTimeline::short();
    let matrix = vec![
        scenario_1(t),
        scenario_3(t),
        scenario_5(t),
        compound_lock_and_interloper_scenario(t),
        compound_config_and_contention_scenario(t),
    ];
    {
        let mut group = c.benchmark_group("scenario_matrix");
        group.sample_size(samples(5));
        group.bench_function("sequential", |b| {
            b.iter(|| {
                let outcomes = Testbed::run_scenarios(black_box(&matrix));
                black_box(outcomes.iter().map(|o| o.diagnose()).collect::<Vec<_>>())
            })
        });
        // Re-diagnosing completed outcomes hits the testbed-level cache slots — the
        // batch caller's interactive follow-up path.
        let outcomes = Testbed::run_scenarios(&matrix);
        group.bench_function("rediagnose_warm", |b| {
            b.iter(|| black_box(outcomes.iter().map(|o| o.diagnose()).collect::<Vec<_>>()))
        });

        // The post-PD re-drill hot path: the flagship plan-change compound
        // scenario (config change flips the plan, SAN contention runs
        // concurrently) re-runs CO/DA/CR/SD against the new plan's APG, so its
        // cost differs from the gated path this bench used to exercise. Cold =
        // fresh engine per iteration; warm = testbed-cache re-diagnosis;
        // incremental = one-epoch append replayed over a sealed watermark (the
        // extend-fit path under a changed plan).
        let mut compound = Testbed::run_scenario(&compound_config_and_contention_scenario(t));
        let _ = compound.diagnose();
        group.bench_function("compound_config_contention_cold", |b| {
            b.iter(|| black_box(DiagnosisEngine::new().diagnose(black_box(&compound))))
        });
        group
            .bench_function("compound_config_contention_warm", |b| b.iter(|| black_box(compound.diagnose())));
        let cc_host = ComponentId::server("bench-compound-host");
        let cc_metric = MetricName::Custom("benchCompoundProbe".into());
        let mut cc_time = compound
            .history
            .runs
            .iter()
            .map(|r| r.record.end)
            .max()
            .expect("runs")
            .plus(Duration::from_mins(10));
        group.bench_function("compound_config_contention_incremental", |b| {
            b.iter(|| {
                let wm = compound.seal_watermark();
                cc_time = cc_time.plus(Duration::from_secs(30));
                compound.testbed.store.record(&cc_host, &cc_metric, cc_time, 1.0);
                black_box(compound.diagnose_incremental(black_box(&wm)))
            })
        });
        group.finish();
    }

    // ----- Incremental re-diagnosis: the steady-state interactive loop -----
    // The DBA's follow-up: new metrics land (one epoch's worth, outside every
    // already-diagnosed run window), and the workflow re-runs. "Full" is what that
    // costs today when the append invalidates the engine slot (a cold engine refits
    // every KDE and re-runs all six stages); "incremental" seals a watermark,
    // appends one epoch, and replays the unchanged stage evidence.
    let inc_host = ComponentId::server("bench-incremental-host");
    let inc_metric = MetricName::Custom("benchAppendProbe".into());
    let mut inc_time =
        outcome.history.runs.iter().map(|r| r.record.end).max().expect("runs").plus(Duration::from_mins(10));
    // Record stage evidence under the live fingerprint so the first watermark of the
    // measured loop checks out a warm, evidence-carrying slot.
    let _ = outcome.diagnose();
    {
        let mut group = c.benchmark_group("incremental");
        group.sample_size(samples(15));
        group.bench_function("full_rediagnosis", |b| {
            b.iter(|| black_box(DiagnosisEngine::new().diagnose(black_box(&outcome))))
        });
        group.bench_function("incremental_rediagnosis", |b| {
            b.iter(|| {
                let wm = outcome.seal_watermark();
                inc_time = inc_time.plus(Duration::from_secs(30));
                outcome.testbed.store.record(&inc_host, &inc_metric, inc_time, 1.0);
                black_box(outcome.diagnose_incremental(black_box(&wm)))
            })
        });
        group.finish();
    }

    // ----- Engine snapshot: cold start vs. restored-snapshot start -----
    // The fleet-service restart path: a restored engine pays the JSON parse once
    // (measured separately) and then serves warm KDE fits to every diagnosis,
    // where a cold-started engine refits everything on its first pass.
    let interner = outcome.testbed.store.interner().clone();
    let engine_snapshot = outcome.testbed.engine.snapshot(&interner);
    let restored_engine = DiagnosisEngine::restore(&engine_snapshot, &interner).expect("snapshot restores");
    {
        let mut group = c.benchmark_group("snapshot");
        group.sample_size(samples(15));
        group.bench_function("cold_start_diagnosis", |b| {
            b.iter(|| black_box(DiagnosisEngine::new().diagnose(black_box(&outcome))))
        });
        group.bench_function("restored_start_diagnosis", |b| {
            b.iter(|| black_box(restored_engine.diagnose(black_box(&outcome))))
        });
        group.bench_function("restore_parse", |b| {
            b.iter(|| {
                black_box(
                    DiagnosisEngine::restore(black_box(&engine_snapshot), &interner)
                        .expect("snapshot restores"),
                )
            })
        });
        group.finish();
    }

    // ----- Generative scenario engine: sampling, oracle cycle, shrinking -----
    // Sampling is the pure-CPU part (plans/second bounds how fast a fuzzing
    // campaign can enumerate shapes); the oracle cycle is the end-to-end unit of
    // work CI pays per generated plan (simulate + diagnose + evaluate); candidate
    // enumeration bounds a single shrink step's bookkeeping overhead.
    const GEN_BATCH: u64 = 64;
    let gen_generator = Generator::new(42, TimelineKind::Short);
    let gen_plan = gen_generator.plan(0);
    {
        let mut group = c.benchmark_group("generator");
        group.sample_size(samples(10));
        group.bench_function("plan_batch_64", |b| {
            b.iter(|| black_box(gen_generator.batch(black_box(GEN_BATCH))))
        });
        group.bench_function("oracle_cycle", |b| b.iter(|| black_box(check_plan(black_box(&gen_plan)))));
        group.bench_function("shrink_candidates", |b| {
            b.iter(|| black_box(shrink_candidates(black_box(&gen_plan))))
        });
        group.finish();
    }

    // ----- Assemble BENCH_diads.json -----
    let r = c.records();
    let kde_refit = median_of(r, "kde", "refit_per_score");
    let kde_cached = median_of(r, "kde", "cached_score_many");
    let da_refit = median_of(r, "da", "refit_baseline");
    let da_cached = median_of(r, "da", "cached");
    let da_cold = median_of(r, "da", "cold");
    let e2e_refit = median_of(r, "end_to_end", "scenario1_refit_baseline");
    let e2e = median_of(r, "end_to_end", "scenario1_diagnosis");
    let e2e_warm = median_of(r, "end_to_end", "scenario1_diagnosis_warm");
    let rec_direct = median_of(r, "store", "record_direct");
    let matrix_seq = median_of(r, "scenario_matrix", "sequential");
    let matrix_warm = median_of(r, "scenario_matrix", "rediagnose_warm");
    let cc_cold = median_of(r, "scenario_matrix", "compound_config_contention_cold");
    let cc_warm = median_of(r, "scenario_matrix", "compound_config_contention_warm");
    let cc_inc = median_of(r, "scenario_matrix", "compound_config_contention_incremental");
    let inc_full = median_of(r, "incremental", "full_rediagnosis");
    let inc_incremental = median_of(r, "incremental", "incremental_rediagnosis");
    let snap_cold = median_of(r, "snapshot", "cold_start_diagnosis");
    let snap_restored = median_of(r, "snapshot", "restored_start_diagnosis");
    let snap_parse = median_of(r, "snapshot", "restore_parse");
    let gen_batch = median_of(r, "generator", "plan_batch_64");
    let gen_oracle = median_of(r, "generator", "oracle_cycle");
    let gen_candidates = median_of(r, "generator", "shrink_candidates");

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut json = String::from("{\n  \"schema\": \"diads-bench-v1\",\n");
    json.push_str(&format!(
        "  \"environment\": {{\"threads\": {cores}, \"profile\": \"{}\"}},\n",
        if cfg!(debug_assertions) { "debug" } else { "release" }
    ));
    json.push_str(&format!(
        "  \"kde_scoring\": {{\"observations\": {}, \"refit_per_score_ns\": {kde_refit:.1}, \"cached_score_many_ns\": {kde_cached:.1}, \"throughput_speedup\": {:.2}}},\n",
        observations.len(),
        kde_refit / kde_cached
    ));
    json.push_str(&format!(
        "  \"dependency_analysis\": {{\"refit_baseline_ns\": {da_refit:.1}, \"cached_ns\": {da_cached:.1}, \"cached_speedup\": {:.2}, \"cold_ns\": {da_cold:.1}}},\n",
        da_refit / da_cached
    ));
    json.push_str(&format!(
        "  \"end_to_end\": {{\"scenario\": \"scenario-1 (short timeline)\", \"refit_baseline_ms\": {:.3}, \"cold_cache_ms\": {:.3}, \"warm_cache_ms\": {:.3}, \"warm_speedup\": {:.2}}},\n",
        e2e_refit / 1e6,
        e2e / 1e6,
        e2e_warm / 1e6,
        e2e / e2e_warm
    ));
    json.push_str(&format!(
        "  \"store_recording\": {{\"series\": {RECORD_COMPONENTS}, \"points_per_series\": {RECORD_POINTS_PER_KEY}, \"direct_ns\": {rec_direct:.1}, \"direct_points_per_sec\": {:.0}}},\n",
        (RECORD_COMPONENTS * RECORD_POINTS_PER_KEY) as f64 / (rec_direct / 1e9)
    ));
    json.push_str(&format!(
        "  \"scenario_matrix\": {{\"scenarios\": {}, \"timeline\": \"short\", \"sequential_ms\": {:.1}, \"rediagnose_warm_ms\": {:.3}, \"compound_config_contention\": {{\"cold_ms\": {:.3}, \"warm_ms\": {:.3}, \"incremental_ms\": {:.3}}}}},\n",
        matrix.len(),
        matrix_seq / 1e6,
        matrix_warm / 1e6,
        cc_cold / 1e6,
        cc_warm / 1e6,
        cc_inc / 1e6
    ));
    json.push_str(&format!(
        "  \"incremental\": {{\"scenario\": \"scenario-1 (short timeline)\", \"append\": \"1 epoch, 1 point beyond every run window\", \"full_rediagnosis_ms\": {:.3}, \"incremental_rediagnosis_ms\": {:.3}, \"incremental_speedup\": {:.2}}},\n",
        inc_full / 1e6,
        inc_incremental / 1e6,
        inc_full / inc_incremental
    ));
    json.push_str(&format!(
        "  \"snapshot\": {{\"scenario\": \"scenario-1 (short timeline)\", \"snapshot_bytes\": {}, \"restore_parse_ms\": {:.3}, \"cold_start_ms\": {:.3}, \"restored_start_ms\": {:.3}, \"restored_speedup\": {:.2}}},\n",
        engine_snapshot.len(),
        snap_parse / 1e6,
        snap_cold / 1e6,
        snap_restored / 1e6,
        snap_cold / snap_restored
    ));
    json.push_str(&format!(
        "  \"generator\": {{\"seed\": 42, \"timeline\": \"short\", \"batch\": {GEN_BATCH}, \"plan_batch_ms\": {:.3}, \"plans_per_sec\": {:.0}, \"oracle_cycle_ms\": {:.3}, \"shrink_candidates_ns\": {gen_candidates:.1}}}\n",
        gen_batch / 1e6,
        GEN_BATCH as f64 * 1e9 / gen_batch,
        gen_oracle / 1e6
    ));
    json.push_str("}\n");

    std::fs::write(&out_path, &json).expect("write BENCH_diads.json");
    println!("\n--- {out_path} ---\n{json}");
}
