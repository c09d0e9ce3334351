//! Workload-sweep differential test: the epoch engine behind
//! `predict_races` and the naive full-clock `DetectorEngine` (reached
//! through `predict_with`) must produce byte-identical candidate-pair
//! lists for every Table-1 workload, under every policy.
//!
//! This is the acceptance gate for the epoch-optimized Phase 1: the fast
//! engine is only allowed to be *faster*, never to change what Phase 2 is
//! asked to fuzz. Random-program coverage of the same property lives in
//! `crates/detector/tests/epoch_differential.rs`; this sweep pins the real
//! workloads the paper's Table 1 is built from.

use racefuzzer_suite::detector::predict_with;
use racefuzzer_suite::prelude::*;

#[test]
fn epoch_and_naive_predictions_match_on_all_workloads() {
    for workload in workloads::all() {
        let program = cil::compile(&workload.source)
            .unwrap_or_else(|e| panic!("{} fails to compile: {e}", workload.name));
        for policy in [Policy::Hybrid, Policy::HappensBefore, Policy::Lockset] {
            let config = PredictConfig {
                policy,
                ..PredictConfig::default()
            };
            let failed = |e| panic!("{}: prediction failed: {e:?}", workload.name);
            let epoch = predict_races(&program, workload.entry, &config).unwrap_or_else(failed);
            let naive = predict_with(
                &program,
                workload.entry,
                &config,
                DetectorEngine::new,
                DetectorEngine::into_races,
            )
            .unwrap_or_else(failed);
            assert_eq!(
                epoch, naive,
                "{} under {policy:?}: epoch and naive candidate sets diverge",
                workload.name
            );
            assert!(
                epoch.iter().all(RacePair::is_canonical),
                "{}: non-canonical pair in output",
                workload.name
            );
        }
    }
}

#[test]
fn epoch_and_naive_predictions_match_with_more_observation_runs() {
    // More seeds → more schedules observed → more chances for the two
    // engines to diverge if the epoch fast paths were unsound. Use the
    // paper's two figure programs with a deeper seed sweep.
    for (name, program) in [
        ("figure1", workloads::figure1()),
        ("figure2", workloads::figure2(6)),
    ] {
        let config = PredictConfig {
            seeds: (1..=24).collect(),
            ..PredictConfig::default()
        };
        assert_eq!(
            predict_races(&program, "main", &config).unwrap(),
            predict_with(&program, "main", &config, DetectorEngine::new, DetectorEngine::into_races)
                .unwrap(),
            "{name}: deep seed sweep diverged"
        );
    }
}
