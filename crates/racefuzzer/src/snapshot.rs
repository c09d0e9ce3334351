//! Snapshot-accelerated Phase 2: prologue forking.
//!
//! A Phase-2 trial is a pure function of `(program, entry, race set, seed)`
//! (paper §2.2), and the scheduler is *deterministic up to its random
//! choices*: every step of the interpreter and every forced draw
//! (`below(1)`, which consumes a word but can only return 0) is fully
//! determined by the state.
//!
//! The single-threaded prefix of a run — up to the first shared-memory
//! access or `spawn` — consists solely of forced draws and is identical for
//! *every pair and every seed*. With [`SnapshotMode::PrologueOnly`] it is
//! executed once per `(program, entry)`, captured as an [`interp::Snapshot`]
//! (copy-on-write heap pages and `Arc`-shared thread states, so a fork costs
//! refcount bumps, not heap copies), and every trial forks from it.
//!
//! Correctness argument (the reports stay byte-identical to the
//! non-snapshot path): the snapshot records the full machine state at a
//! scheduler loop-top plus the number of RNG draws consumed to reach it. A
//! resumed trial rebuilds `Rng::seeded(seed)` and discards exactly that
//! many draws, so every subsequent draw — forced or not — produces the
//! same word the uncached run would have produced at the same point. The
//! postponed set and the race list are empty at that point, since no
//! statement before it can be in a race set.
//!
//! Snapshots are excluded whenever `record_schedule` or `wall_clock` are
//! set: schedule traces would have to be captured per snapshot (an O(steps)
//! copy that defeats the point), and wall-clock deadlines are inherently
//! non-replayable.

use crate::config::FuzzConfig;
use interp::{Execution, NullObserver, Snapshot, ThreadId};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

/// Whether Phase 2 forks trials from the shared entry prologue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SnapshotMode {
    /// No snapshotting: every trial replays from instruction zero. Kept as
    /// the reference the identity suites compare against.
    Off,
    /// Fork each trial from the shared single-threaded entry prologue.
    PrologueOnly,
}

impl SnapshotMode {
    /// All modes, for sweeps.
    pub const ALL: [SnapshotMode; 2] = [SnapshotMode::Off, SnapshotMode::PrologueOnly];

    /// Short stable name (bench tables, CLI flags).
    pub fn name(self) -> &'static str {
        match self {
            SnapshotMode::Off => "off",
            SnapshotMode::PrologueOnly => "prologue",
        }
    }
}

/// Snapshot-acceleration settings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SnapshotOptions {
    /// Reuse tier. Defaults to [`SnapshotMode::PrologueOnly`].
    pub mode: SnapshotMode,
}

impl Default for SnapshotOptions {
    fn default() -> Self {
        SnapshotOptions::with_mode(SnapshotMode::PrologueOnly)
    }
}

impl SnapshotOptions {
    /// Convenience: everything off.
    pub fn off() -> Self {
        SnapshotOptions::with_mode(SnapshotMode::Off)
    }

    /// Convenience: the given mode.
    pub fn with_mode(mode: SnapshotMode) -> Self {
        SnapshotOptions { mode }
    }
}

/// The state a trial forks from: machine state plus the scheduler's own
/// bookkeeping at the prologue's final loop-top.
pub(crate) struct TrialSnapshot {
    pub(crate) exec: Snapshot,
    pub(crate) decisions: u64,
    /// RNG draws consumed to reach this state; resume discards this many.
    pub(crate) draws: u64,
}

/// Snapshot statistics for one pair, mirrored into
/// [`crate::PairReport::snapshots`]. Advisory: excluded from report
/// identity (Debug/serialisation), since hit patterns legitimately vary
/// with worker interleaving while outcomes do not.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Trials that consulted the cache.
    pub trials: u64,
    /// Trials that resumed from the entry prologue.
    pub cache_hits: u64,
    /// Interpreter steps skipped by resuming instead of re-executing.
    pub fast_forwarded_steps: u64,
    /// Always 0: prologue forking captures one snapshot per entry, not per
    /// pair. Kept only for the benchmark harness's per-layer report.
    pub captures: u64,
    /// Always 0: nothing is evicted. Kept only for the benchmark harness's
    /// per-layer report.
    pub evictions: u64,
}

impl SnapshotStats {
    /// Field-wise sum (campaign-level aggregation).
    pub fn merge(&mut self, other: &SnapshotStats) {
        self.trials += other.trials;
        self.cache_hits += other.cache_hits;
        self.fast_forwarded_steps += other.fast_forwarded_steps;
        self.captures += other.captures;
        self.evictions += other.evictions;
    }

    /// Cache hits per trial, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.trials as f64
        }
    }
}

#[derive(Default)]
struct AtomicStats {
    trials: AtomicU64,
    cache_hits: AtomicU64,
    fast_forwarded_steps: AtomicU64,
}

enum PrologueSlot {
    NotComputed,
    Ready(Option<Arc<TrialSnapshot>>),
}

/// Per-`(program, entry)` shared state: the options and the lazily
/// computed entry-prologue snapshot. One of these is shared by every
/// [`PairCache`] of an analysis run.
pub struct EntryCache {
    options: SnapshotOptions,
    prologue: Mutex<PrologueSlot>,
}

impl EntryCache {
    /// Creates the shared per-entry state.
    pub fn new(options: SnapshotOptions) -> Arc<Self> {
        Arc::new(EntryCache {
            options,
            prologue: Mutex::new(PrologueSlot::NotComputed),
        })
    }

    /// The options this cache was built with.
    pub fn options(&self) -> SnapshotOptions {
        self.options
    }

    /// The entry-prologue snapshot, computed on first use.
    ///
    /// The prologue runs the scheduler loop's deterministic single-thread
    /// special case — one forced draw and one step per decision — and
    /// stops at the first loop-top where the next instruction is a
    /// shared-memory access or a `spawn`, the thread count grew, the
    /// thread blocked, or a budget tripped. Every statement before that
    /// point is outside every race set (race-set members are memory
    /// accesses), so the captured state and draw count are identical for
    /// every pair and seed. Disabled under `switch_only_at_sync`, where
    /// the first draw covers a whole run-to-sync segment and an early stop
    /// would not be a loop-top.
    fn prologue(
        &self,
        program: &cil::Program,
        entry: &str,
        config: &FuzzConfig,
    ) -> Option<Arc<TrialSnapshot>> {
        let mut slot = self.prologue.lock().expect("prologue lock");
        if let PrologueSlot::Ready(cached) = &*slot {
            return cached.clone();
        }
        let computed = compute_prologue(program, entry, config).map(Arc::new);
        *slot = PrologueSlot::Ready(computed.clone());
        computed
    }
}

fn compute_prologue(
    program: &cil::Program,
    entry: &str,
    config: &FuzzConfig,
) -> Option<TrialSnapshot> {
    if config.switch_only_at_sync {
        return None;
    }
    let mut exec = Execution::new(program, entry).ok()?;
    exec.set_heap_budget(config.max_heap_cells);
    let mut draws: u64 = 0;
    loop {
        if exec.engine_error().is_some() || exec.steps() >= config.max_steps {
            break;
        }
        if exec.thread_count() != 1 || !exec.is_enabled(ThreadId(0)) {
            break;
        }
        let Some(instr) = exec.next_instr(ThreadId(0)) else {
            break;
        };
        let instr = program.instr(instr);
        if instr.is_memory_access() || matches!(instr, cil::flat::Instr::Spawn { .. }) {
            break;
        }
        // One scheduler decision: the sole candidate is picked by a forced
        // draw, the statement is untargeted (no memory access can be in a
        // race set here), and the end-of-iteration all-postponed check
        // never fires with an empty postponed set.
        draws += 1;
        exec.step(ThreadId(0), &mut NullObserver);
    }
    if draws == 0 {
        return None;
    }
    Some(TrialSnapshot {
        exec: exec.snapshot(),
        decisions: draws,
        draws,
    })
}

/// The per-pair view of an [`EntryCache`]: the shared prologue plus this
/// pair's statistics. Shared (`Arc`) by every worker fuzzing the pair.
pub struct PairCache {
    shared: Arc<EntryCache>,
    stats: AtomicStats,
}

impl PairCache {
    /// Creates a cache for one pair, sharing `entry`'s prologue.
    pub fn new(shared: Arc<EntryCache>) -> Arc<Self> {
        Arc::new(PairCache {
            shared,
            stats: AtomicStats::default(),
        })
    }

    /// The options in force.
    pub fn options(&self) -> SnapshotOptions {
        self.shared.options
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> SnapshotStats {
        SnapshotStats {
            trials: self.stats.trials.load(Relaxed),
            cache_hits: self.stats.cache_hits.load(Relaxed),
            fast_forwarded_steps: self.stats.fast_forwarded_steps.load(Relaxed),
            ..SnapshotStats::default()
        }
    }

    /// Starts a trial: returns the entry-prologue snapshot to fork from, if
    /// the entry has one, and counts the trial and the hit.
    pub(crate) fn begin_trial(
        &self,
        program: &cil::Program,
        entry: &str,
        config: &FuzzConfig,
    ) -> Option<Arc<TrialSnapshot>> {
        self.stats.trials.fetch_add(1, Relaxed);
        let prologue = self.shared.prologue(program, entry, config)?;
        self.stats.cache_hits.fetch_add(1, Relaxed);
        self.stats
            .fast_forwarded_steps
            .fetch_add(prologue.exec.steps(), Relaxed);
        Some(prologue)
    }
}

// Snapshots cross the work-stealing pool; keep the whole cache stack
// shareable by construction.
#[allow(dead_code)]
fn assert_send_sync() {
    fn assert<T: Send + Sync>() {}
    assert::<TrialSnapshot>();
    assert::<EntryCache>();
    assert::<PairCache>();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_options_are_prologue() {
        assert_eq!(SnapshotOptions::default().mode, SnapshotMode::PrologueOnly);
        assert_eq!(SnapshotOptions::off().mode, SnapshotMode::Off);
    }

    #[test]
    fn prologue_stops_before_first_memory_access() {
        let program = cil::compile(
            r#"
            global x = 0;
            proc main() {
                var i = 0;
                while (i < 5) { i = i + 1; }
                x = 1;
            }
            "#,
        )
        .unwrap();
        let config = FuzzConfig::seeded(1);
        let snap = compute_prologue(&program, "main", &config).expect("has prologue");
        // The prologue must stop before `x = 1` (a global store) but after
        // making progress through the pure local loop.
        assert!(snap.exec.steps() > 5);
        assert_eq!(snap.draws, snap.decisions);
    }

    #[test]
    fn prologue_disabled_under_switch_only_at_sync() {
        let program = cil::compile("proc main() { var i = 0; i = i + 1; }").unwrap();
        let mut config = FuzzConfig::seeded(1);
        config.switch_only_at_sync = true;
        assert!(compute_prologue(&program, "main", &config).is_none());
    }

    #[test]
    fn stats_merge_and_hit_rate() {
        let mut a = SnapshotStats {
            trials: 10,
            cache_hits: 5,
            fast_forwarded_steps: 100,
            ..SnapshotStats::default()
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.trials, 20);
        assert_eq!(a.cache_hits, 10);
        assert!((b.hit_rate() - 0.5).abs() < 1e-9);
        assert_eq!(SnapshotStats::default().hit_rate(), 0.0);
    }
}
