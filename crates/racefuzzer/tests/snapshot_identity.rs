//! Snapshot acceleration must be invisible in the results.
//!
//! The copy-on-write forking layer (`racefuzzer::snapshot`) promises that
//! an [`racefuzzer::AnalysisReport`] is a pure function of
//! `(program, entry, options)` minus the snapshot settings: prologue
//! forking may only change how much of each trial is *re-executed*, never
//! a single reported number. These tests pin that promise over every
//! Table-1 workload, both modes, sequential and parallel pools, and
//! adversarial seed sweeps.

use proptest::prelude::*;
use racefuzzer::snapshot::{EntryCache, PairCache};
use racefuzzer::{
    analyze, fuzz_pair_once, fuzz_pair_once_cached, AnalysisReport, AnalyzeOptions, FuzzConfig,
    SnapshotMode, SnapshotOptions,
};

/// Trials per pair: small enough to keep the sweep fast, large enough to
/// exercise hits, exceptions, deadlocks, and first-seed bookkeeping.
const TRIALS: usize = 6;

fn options(mode: SnapshotMode, workers: usize) -> AnalyzeOptions {
    let mut options = AnalyzeOptions::with_trials(TRIALS)
        .workers(workers)
        .snapshot_mode(mode);
    // A chunk of 4 never divides 6 trials evenly, so the parallel merge
    // handles ragged seed ranges on every pair.
    options.parallel.chunk = 4;
    options
}

fn render(report: &AnalysisReport) -> String {
    format!("{report:#?}")
}

#[test]
fn modes_and_worker_counts_are_byte_identical() {
    // Debug builds trim the worker sweep to keep `cargo test` affordable;
    // the release CI job runs the full {1, 2, 4, 7} acceptance matrix.
    let worker_counts: &[usize] = if cfg!(debug_assertions) {
        &[1, 4]
    } else {
        &[1, 2, 4, 7]
    };
    let mut failures = Vec::new();
    let mut prologue_hits = 0u64;
    for workload in workloads::all() {
        let baseline = analyze(
            &workload.program,
            workload.entry,
            &options(SnapshotMode::Off, 1),
        )
        .expect("baseline analysis succeeds");
        let expected = render(&baseline);
        for mode in SnapshotMode::ALL {
            for &workers in worker_counts {
                if mode == SnapshotMode::Off && workers == 1 {
                    continue; // the baseline itself
                }
                let report = analyze(&workload.program, workload.entry, &options(mode, workers))
                    .expect("accelerated analysis succeeds");
                if render(&report) != expected {
                    failures.push(format!(
                        "{} mode={} workers={workers}",
                        workload.name,
                        mode.name()
                    ));
                }
                if mode == SnapshotMode::PrologueOnly {
                    prologue_hits += report
                        .pairs
                        .iter()
                        .filter_map(|pair| pair.snapshots)
                        .map(|stats| stats.cache_hits)
                        .sum::<u64>();
                }
            }
        }
    }
    assert!(
        failures.is_empty(),
        "snapshot modes diverged from the uncached baseline: {failures:?}"
    );
    // Guard against the acceleration silently disabling itself: across the
    // whole Table-1 sweep trials must have actually forked from a prologue.
    assert!(prologue_hits > 0, "prologue forking never hit");
}

/// The Figure-1-style program used for targeted per-seed sweeps: a long
/// pure-local prologue (the snapshot layer's favourite shape), then a
/// classic check-then-act race that throws in one order.
fn racy_program() -> cil::Program {
    cil::compile(
        r#"
        global z = 0;
        global sink = 0;
        proc child() { z = 1; }
        proc main() {
            var i = 0;
            var acc = 0;
            while (i < 40) { acc = acc + i; i = i + 1; }
            var t = spawn child();
            if (z == 1) { throw Error1; }
            sink = acc;
            join t;
        }
        "#,
    )
    .expect("fixture compiles")
}

fn first_pair(program: &cil::Program) -> detector::RacePair {
    let potential = detector::predict_races(program, "main", &detector::PredictConfig::default())
        .expect("prediction succeeds");
    potential[0]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any seed, forked from the entry prologue, matches the uncached
    /// execution outcome for outcome — including a second pass over the
    /// same seeds through the already-computed prologue.
    #[test]
    fn cached_trials_match_uncached_for_arbitrary_seeds(base_seed in any::<u32>()) {
        let program = racy_program();
        let target = first_pair(&program);
        let cache = PairCache::new(EntryCache::new(SnapshotOptions::with_mode(
            SnapshotMode::PrologueOnly,
        )));
        for pass in 0..2 {
            for offset in 0..8u64 {
                let config = FuzzConfig::seeded(u64::from(base_seed) + offset);
                let plain = fuzz_pair_once(&program, "main", target, &config)
                    .expect("uncached trial succeeds");
                let cached = fuzz_pair_once_cached(&program, "main", target, &config, Some(&cache))
                    .expect("cached trial succeeds");
                prop_assert_eq!(
                    format!("{plain:#?}"),
                    format!("{cached:#?}"),
                    "pass {} seed {}",
                    pass,
                    config.seed
                );
            }
        }
        let stats = cache.stats();
        prop_assert!(stats.trials == 16);
        prop_assert!(stats.cache_hits == 16, "a trial did not fork from the prologue");
        prop_assert!(stats.fast_forwarded_steps > 0);
    }
}

/// Schedule recording and wall-clock budgets disable acceleration rather
/// than risk divergence; the cached entry point must still work (and still
/// match) with such configs.
#[test]
fn recording_config_bypasses_the_cache_safely() {
    let program = racy_program();
    let target = first_pair(&program);
    let cache = PairCache::new(EntryCache::new(SnapshotOptions::default()));
    for seed in 0..8u64 {
        let config = FuzzConfig::seeded(seed).recording();
        let plain =
            fuzz_pair_once(&program, "main", target, &config).expect("uncached trial succeeds");
        let cached = fuzz_pair_once_cached(&program, "main", target, &config, Some(&cache))
            .expect("cached trial succeeds");
        assert_eq!(format!("{plain:#?}"), format!("{cached:#?}"));
        assert_eq!(plain.schedule, cached.schedule, "schedules must survive");
    }
    assert_eq!(
        cache.stats().trials,
        0,
        "recording configs must not consult the cache"
    );
}
