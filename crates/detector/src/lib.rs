//! Phase 1 of RaceFuzzer: imprecise-but-predictive race detection.
//!
//! The paper's pipeline starts by running the program once (or a few times)
//! under an *imprecise* dynamic race detector to compute potential racing
//! statement pairs. This crate provides that detector — the **hybrid**
//! lockset + happens-before analysis of O'Callahan & Choi, PPoPP 2003, which
//! the paper uses — plus the two classic baselines it is positioned against
//! (§1, §6): precise **happens-before** detection and Eraser-style
//! **lockset** detection.
//!
//! # Examples
//!
//! ```
//! use detector::{predict_races, PredictConfig};
//!
//! let program = cil::compile(
//!     r#"
//!     global x = 0;
//!     proc child() { x = 2; }
//!     proc main() {
//!         var t = spawn child();
//!         x = 1;          // races with the child's write
//!         join t;
//!     }
//!     "#,
//! )
//! .unwrap();
//! let races = predict_races(&program, "main", &PredictConfig::default()).unwrap();
//! assert_eq!(races.len(), 1);
//! ```

pub mod atomicity;
pub mod engine;
pub mod lockgraph;
pub mod report;
pub mod shadow;

pub use atomicity::{predict_atomicity_violations, AtomicityCandidate, AtomicityObserver};
pub use engine::{DetectorEngine, Policy};
pub use lockgraph::{predict_deadlocks, DeadlockCandidate, LockGraph};
pub use report::RacePair;
pub use shadow::EpochEngine;

use interp::{run_with, Limits, Observer, RandomScheduler, RoundRobinScheduler, SetupError};
use std::collections::BTreeSet;

/// Configuration for [`predict_races`].
#[derive(Clone, Debug)]
pub struct PredictConfig {
    /// Detection policy (default: [`Policy::Hybrid`], as in the paper).
    pub policy: Policy,
    /// Seeds for additional randomly-scheduled observation runs. The
    /// detector also always performs one fair round-robin ("normal") run.
    /// More runs observe more code and predict more pairs.
    pub seeds: Vec<u64>,
    /// Per-run execution limits.
    pub limits: Limits,
}

impl Default for PredictConfig {
    fn default() -> Self {
        PredictConfig {
            policy: Policy::Hybrid,
            seeds: vec![1, 2],
            limits: Limits::default(),
        }
    }
}

impl PredictConfig {
    /// Convenience: hybrid policy with `count` random observation runs.
    pub fn with_runs(count: u64) -> Self {
        PredictConfig {
            seeds: (1..=count).collect(),
            ..Self::default()
        }
    }
}

/// Runs the program under observation and returns the predicted racing
/// statement pairs (the paper's Phase 1).
///
/// Race pairs are unioned across one deterministic run plus one run per
/// configured seed, then returned in stable order. The runs are observed
/// by [`EpochEngine`]: FastTrack-style epoch shadow memory with O(1)
/// happens-before fast paths, interned locksets and no per-event
/// allocation.
///
/// # Errors
///
/// Returns [`SetupError`] if `entry` does not name a zero-argument
/// procedure.
pub fn predict_races(
    program: &cil::Program,
    entry: &str,
    config: &PredictConfig,
) -> Result<Vec<RacePair>, SetupError> {
    predict_with(program, entry, config, EpochEngine::new, EpochEngine::into_races)
}

/// The engine-generic prediction loop behind [`predict_races`]: one fair
/// round-robin run plus one random run per seed, racing pairs unioned in
/// stable order.
///
/// Differential tests pass [`DetectorEngine::new`] and
/// [`DetectorEngine::into_races`] here to get the reference predictions —
/// full vector clocks cloned into per-location histories — that
/// [`EpochEngine`] must match pair for pair.
///
/// # Errors
///
/// Returns [`SetupError`] if `entry` does not name a zero-argument
/// procedure.
pub fn predict_with<E: Observer>(
    program: &cil::Program,
    entry: &str,
    config: &PredictConfig,
    new_engine: impl Fn(Policy) -> E,
    races: impl Fn(E) -> Vec<RacePair>,
) -> Result<Vec<RacePair>, SetupError> {
    let mut all: BTreeSet<RacePair> = BTreeSet::new();

    // One deterministic fair run (busy-wait synchronization in the
    // observed program requires scheduler fairness to terminate)…
    let mut engine = new_engine(config.policy);
    run_with(
        program,
        entry,
        &mut RoundRobinScheduler::new(7),
        &mut engine,
        config.limits,
    )?;
    all.extend(races(engine));

    for &seed in &config.seeds {
        let mut engine = new_engine(config.policy);
        run_with(
            program,
            entry,
            &mut RandomScheduler::seeded(seed),
            &mut engine,
            config.limits,
        )?;
        all.extend(races(engine));
    }

    Ok(all.into_iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn predict(source: &str) -> (cil::Program, Vec<RacePair>) {
        let program = cil::compile(source).unwrap();
        let races = predict_races(&program, "main", &PredictConfig::default()).unwrap();
        (program, races)
    }

    #[test]
    fn lock_protected_counter_has_no_races() {
        let (_, races) = predict(
            r#"
            class Lock { }
            global l;
            global count = 0;
            proc worker() {
                var i = 0;
                while (i < 5) {
                    sync (l) { count = count + 1; }
                    i = i + 1;
                }
            }
            proc main() {
                l = new Lock;
                var a = spawn worker();
                var b = spawn worker();
                join a; join b;
            }
            "#,
        );
        assert!(races.is_empty(), "got {races:?}");
    }

    #[test]
    fn unprotected_counter_races_with_itself() {
        let (program, races) = predict(
            r#"
            global count = 0;
            proc worker() { count = count + 1; }
            proc main() {
                var a = spawn worker();
                var b = spawn worker();
                join a; join b;
            }
            "#,
        );
        // load/load, load/store, store/store combinations on `count`,
        // all between the two dynamic instances of the same statements.
        assert!(!races.is_empty());
        for race in &races {
            let text = race.describe(&program);
            assert!(text.contains("count"), "{text}");
        }
    }

    #[test]
    fn join_edge_prevents_false_positive() {
        let (_, races) = predict(
            r#"
            global x = 0;
            proc child() { x = 1; }
            proc main() {
                var t = spawn child();
                join t;
                x = 2;     // ordered after the child's write by join
            }
            "#,
        );
        assert!(races.is_empty(), "got {races:?}");
    }

    #[test]
    fn tagged_pair_is_predicted() {
        let program = cil::compile(
            r#"
            global z = 0;
            proc child() { @w z = 1; }
            proc main() {
                var t = spawn child();
                @r var v = z;
                join t;
            }
            "#,
        )
        .unwrap();
        let races = predict_races(&program, "main", &PredictConfig::default()).unwrap();
        let expected = RacePair::new(program.tagged_access("w"), program.tagged_access("r"));
        assert_eq!(races, vec![expected]);
    }

    #[test]
    fn more_runs_can_only_add_pairs() {
        let source = r#"
            global a = 0;
            global b = 0;
            proc child() {
                if (a == 1) { b = 1; }
            }
            proc main() {
                var t = spawn child();
                a = 1;
                var v = b;
                join t;
            }
        "#;
        let program = cil::compile(source).unwrap();
        let few = predict_races(&program, "main", &PredictConfig::with_runs(1)).unwrap();
        let many = predict_races(&program, "main", &PredictConfig::with_runs(20)).unwrap();
        for pair in &few {
            assert!(many.contains(pair));
        }
        assert!(many.len() >= few.len());
    }
}
