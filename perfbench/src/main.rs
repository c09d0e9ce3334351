//! End-to-end RaceFuzzer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload table1|collections|campaign --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run builds the workload's models (timed as `setup_s`; one more
//! build follows every pass), then:
//!
//! * `--trace 0` repeats whole untraced passes for `--seconds` and prints
//!   the end-to-end metrics (a timing sums each part of a pass, or each
//!   model's build, at its fastest in the run);
//! * `--trace 1` alternates untraced passes with traced passes that time
//!   the public calls into every crate from outside, checks that all of
//!   them produced byte-identical pair reports, and prints the per-layer
//!   metrics.
//!
//! Every pass is checked against the hand-written `expected.txt`; a
//! mismatch makes the run fail. `--seed` is the base seed of the Phase-2
//! trials. The last line of standard output is a JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`. `metrics.md` maps
//! each per-layer metric to the end-to-end metric and workload it moves.

mod expected;
mod stats;
mod sys;

use campaign::{
    Campaign, CampaignJob, CampaignOptions, CampaignReport, FuzzRunner, StaticFilterMode,
    TrialRunner,
};
use detector::RacePair;
use expected::Expectation;
use interp::{Limits, NullObserver, RoundRobinScheduler, SetupError};
use racefuzzer::{
    AnalysisReport, AnalyzeOptions, CandidateSource, EntryCache, FuzzConfig, FuzzOutcome,
    PairCache, PairReport, Provenance, SnapshotMode, SnapshotStats,
};
use rf_bench::CountingAlloc;
use stats::{Failures, Summary};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The hand-written expected verdicts, compiled in so the check cannot be
/// skipped by running from another directory.
const EXPECTED: &str = include_str!("../expected.txt");

/// Times the models are built before the first pass; one more build
/// follows every pass, and `setup_s` sums each model's fastest build.
const SETUP_REPS: usize = 41;

/// Wall time spent timing each model's uninstrumented run.
const NORMAL_RUN_BUDGET: Duration = Duration::from_millis(40);

/// Round-robin quantum of the uninstrumented "normal" run (the one the
/// Phase-1 detector also uses).
const NORMAL_RUN_QUANTUM: u64 = 7;

/// Scratch space for campaign checkpoints and artifacts, relative to the
/// working directory.
const SCRATCH_DIR: &str = ".bench_tmp";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    /// All 14 Table-1 models under default `analyze`. One pass is ~40 s,
    /// too long to repeat within a run, so it is run by hand rather than
    /// listed in `BENCHMARK.json`.
    Table1,
    /// raytracer and the five JDK collection models under default
    /// `analyze`: short trials, fixed per-trial costs.
    Collections,
    /// The same six models as a durable, audited campaign.
    Campaign,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "table1" => Some(Workload::Table1),
            "collections" => Some(Workload::Collections),
            "campaign" => Some(Workload::Campaign),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Table1 => "table1",
            Workload::Collections => "collections",
            Workload::Campaign => "campaign",
        }
    }

    fn sources(self) -> Vec<workloads::Workload> {
        match self {
            Workload::Table1 => workloads::all(),
            Workload::Collections | Workload::Campaign => vec![
                workloads::raytracer(),
                workloads::vector(),
                workloads::linked_list(),
                workloads::array_list(),
                workloads::hash_set(),
                workloads::tree_set(),
            ],
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds `{value}`"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                };
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// A compiled model: all a program under test receives.
struct Model {
    name: &'static str,
    entry: &'static str,
    program: cil::Program,
}

/// The timings of every build of the workload's models.
struct Setup {
    sources: Vec<workloads::Workload>,
    /// One row per build, one column per model: the model's whole build
    /// (s), its CIL compile (ms) and its bytecode image (ms).
    totals: Vec<Vec<f64>>,
    compiles: Vec<Vec<f64>>,
    bytecodes: Vec<Vec<f64>>,
}

impl Setup {
    /// Builds the models `SETUP_REPS` times and returns the last build.
    fn new(workload: Workload) -> Result<(Setup, Vec<Model>), String> {
        let mut setup = Setup {
            sources: workload.sources(),
            totals: Vec::new(),
            compiles: Vec::new(),
            bytecodes: Vec::new(),
        };
        let mut models = Vec::new();
        for _ in 0..SETUP_REPS {
            models = setup.build()?;
        }
        Ok((setup, models))
    }

    /// Builds every model once (CIL compile, then the bytecode image) and
    /// records the times.
    fn build(&mut self) -> Result<Vec<Model>, String> {
        let (mut totals, mut compiles, mut bytecodes) = (Vec::new(), Vec::new(), Vec::new());
        let mut built = Vec::with_capacity(self.sources.len());
        for source in &self.sources {
            let start = Instant::now();
            let program = cil::compile(&source.source)
                .map_err(|error| format!("{}: {error}", source.name))?;
            let compiled = Instant::now();
            std::hint::black_box(program.bytecode());
            let (compile, bytecode) = (compiled - start, compiled.elapsed());
            totals.push((compile + bytecode).as_secs_f64());
            compiles.push(compile.as_secs_f64() * 1e3);
            bytecodes.push(bytecode.as_secs_f64() * 1e3);
            built.push(Model {
                name: source.name,
                entry: source.entry,
                program,
            });
        }
        self.totals.push(totals);
        self.compiles.push(compiles);
        self.bytecodes.push(bytecodes);
        Ok(built)
    }

    /// `setup_s`: one build of every model, each model at its fastest (see
    /// [`fastest`]).
    fn setup_s(&self) -> f64 {
        fastest(&self.totals)
    }
}

/// The sum over a pass's parts (or a build's models) of each part's
/// fastest time across the run; `rows` holds one row per repetition. A part
/// does the same work every time, and on a shared host contention only
/// ever adds time, so its fastest time is the one that tracks the program;
/// medians move with the host's load from one run to the next. Short parts
/// find a quiet stretch of the host more often than a whole pass does.
fn fastest(rows: &[Vec<f64>]) -> f64 {
    stats::fastest_parts(rows).expect("repetitions of equal parts")
}

/// An instant on both the wall clock and the process CPU clock.
#[derive(Clone, Copy)]
struct Mark {
    at: Instant,
    cpu: Duration,
}

impl Mark {
    fn now() -> Mark {
        Mark {
            at: Instant::now(),
            cpu: sys::process_cpu_time(),
        }
    }

    fn until(self, end: Mark) -> Timing {
        Timing {
            wall: end.at - self.at,
            cpu: end.cpu.saturating_sub(self.cpu),
        }
    }
}

#[derive(Clone, Copy, Default)]
struct Timing {
    wall: Duration,
    cpu: Duration,
}

impl Timing {
    /// The whole of consecutive parts.
    fn total(parts: &[Timing]) -> Timing {
        parts.iter().fold(Timing::default(), |sum, part| Timing {
            wall: sum.wall + part.wall,
            cpu: sum.cpu + part.cpu,
        })
    }
}

fn timed<T>(body: impl FnOnce() -> T) -> (T, Timing) {
    let start = Mark::now();
    let value = body();
    (value, start.until(Mark::now()))
}

/// What one pass found, reduced to what the verdict check and the
/// end-to-end metrics need.
struct Findings {
    /// Per model: name, confirmed pairs, exception names.
    verdicts: Vec<(&'static str, usize, BTreeSet<String>)>,
    /// `{:?}` of every pair report in order — excludes the advisory
    /// snapshot statistics, so it is the pass's semantic identity.
    identity: String,
    trials: u64,
    attempted: u64,
    real_races: u64,
    exception_pairs: u64,
    /// Hits and trials summed over confirmed pairs only.
    real_hits: u64,
    real_trials: u64,
    failures: Failures,
}

impl Findings {
    /// Reduces each model's pair reports; `failures` are those the caller
    /// saw outside the reports' trial counts.
    fn of<'r>(
        per_model: impl Iterator<Item = (&'static str, &'r [PairReport])>,
        failures: Failures,
    ) -> Findings {
        let mut found = Findings {
            verdicts: Vec::new(),
            identity: String::new(),
            trials: 0,
            attempted: 0,
            real_races: 0,
            exception_pairs: 0,
            real_hits: 0,
            real_trials: 0,
            failures,
        };
        for (name, reports) in per_model {
            let mut names = BTreeSet::new();
            let mut real = 0;
            for report in reports {
                found.identity.push_str(&format!("{name}: {report:?}\n"));
                found.trials += report.trials as u64;
                if report.is_real() {
                    real += 1;
                    found.real_hits += report.hits as u64;
                    found.real_trials += report.trials as u64;
                }
                if report.exception_trials > 0 {
                    found.exception_pairs += 1;
                }
                names.extend(report.exceptions.keys().map(|name| name.to_string()));
            }
            found.real_races += real as u64;
            found.verdicts.push((name, real, names));
        }
        // A failed campaign attempt is retried or quarantined, never
        // absorbed, so it adds to the trials attempted.
        found.attempted = found.trials + found.failures.trial_failures;
        found
    }

    fn print_verdicts(&self) {
        for (model, real, names) in &self.verdicts {
            let names: Vec<&str> = names.iter().map(String::as_str).collect();
            println!(
                "  {model:<12} real {real:>3}  exceptions {}",
                names.join(",")
            );
        }
    }

    fn hit_rate(&self) -> f64 {
        ratio(self.real_hits as f64, self.real_trials as f64)
    }

    /// One message per model whose verdict differs from `expected.txt`.
    fn verdict_errors(&self, workload: Workload, expectations: &[Expectation]) -> Vec<String> {
        let mut errors = Vec::new();
        for (model, real, names) in &self.verdicts {
            match expected::lookup(expectations, workload.name(), model) {
                None => errors.push(format!("{model}: no entry in expected.txt")),
                Some(want) if !want.admits(*real, names) => {
                    errors.push(format!(
                        "{model}: found {real} real race(s), exceptions {names:?}; \
                         expected {} and {:?}",
                        want.count_text(),
                        want.exceptions
                    ));
                }
                Some(_) => {}
            }
        }
        errors
    }
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

fn analysis_findings(models: &[Model], reports: &[AnalysisReport]) -> Findings {
    // `analyze` reports heap-budget cut-offs; it does not expose the other
    // abnormal terminations, which the traced pass counts per trial.
    let failures = Failures {
        abnormal_trials: reports
            .iter()
            .flat_map(|report| &report.pairs)
            .map(|pair| pair.memory_trials as u64)
            .sum(),
        ..Failures::default()
    };
    Findings::of(
        models
            .iter()
            .zip(reports)
            .map(|(model, report)| (model.name, report.pairs.as_slice())),
        failures,
    )
}

fn campaign_findings(models: &[Model], report: &CampaignReport) -> Findings {
    let count = |each: fn(&campaign::JobOutcome) -> usize| -> u64 {
        report.jobs.iter().map(each).sum::<usize>() as u64
    };
    let failures = Failures {
        abnormal_trials: report
            .jobs
            .iter()
            .flat_map(|job| &job.reports)
            .map(|pair| pair.memory_trials as u64)
            .sum(),
        trial_failures: count(|job| job.failures.len()),
        quarantines: count(|job| job.quarantined.len()),
        soundness_bugs: count(|job| job.soundness_bugs.len()),
        job_errors: count(|job| usize::from(job.error.is_some())),
    };
    Findings::of(
        models
            .iter()
            .zip(&report.jobs)
            .map(|(model, job)| (model.name, job.reports.as_slice())),
        failures,
    )
}

/// The measured system, ready to run passes.
enum Bench<'m> {
    Analyze {
        models: &'m [Model],
        options: AnalyzeOptions,
    },
    Campaign(CampaignBench<'m>),
}

/// The durable campaign over the models, run afresh in each pass.
struct CampaignBench<'m> {
    models: &'m [Model],
    campaign: Campaign,
    scratch: Scratch,
}

/// A private directory under [`SCRATCH_DIR`], removed on drop.
struct Scratch {
    root: PathBuf,
    passes: usize,
}

impl Scratch {
    fn new() -> Scratch {
        Scratch {
            root: PathBuf::from(SCRATCH_DIR).join(format!("run-{}", std::process::id())),
            passes: 0,
        }
    }

    /// A fresh, empty directory for the next pass.
    fn next_pass(&mut self) -> Result<PathBuf, String> {
        self.passes += 1;
        let dir = self.root.join(format!("pass-{}", self.passes));
        std::fs::create_dir_all(&dir).map_err(|error| format!("{}: {error}", dir.display()))?;
        Ok(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // Leaves the shared parent only when no other run still uses it.
        let _ = std::fs::remove_dir(SCRATCH_DIR);
    }
}

impl<'m> Bench<'m> {
    fn new(workload: Workload, models: &'m [Model], seed: u64) -> Bench<'m> {
        match workload {
            Workload::Table1 | Workload::Collections => Bench::Analyze {
                models,
                options: AnalyzeOptions {
                    base_seed: seed,
                    ..AnalyzeOptions::default()
                },
            },
            Workload::Campaign => {
                let jobs = models
                    .iter()
                    .map(|model| CampaignJob::new(model.name, model.program.clone(), model.entry))
                    .collect();
                let options = CampaignOptions {
                    base_seed: seed,
                    source: CandidateSource::Union,
                    static_filter: StaticFilterMode::Audit,
                    // One worker (the default): the host's few cores are
                    // shared, and a pass on every core times the scheduler.
                    ..CampaignOptions::default()
                };
                Bench::Campaign(CampaignBench {
                    models,
                    campaign: Campaign::new(jobs, options),
                    scratch: Scratch::new(),
                })
            }
        }
    }

    /// One untraced pass, with the timings of its consecutive parts: one
    /// `analyze` call per model, or the campaign split where each pair's
    /// first trial starts.
    fn pass(&mut self) -> Result<(Findings, Vec<Timing>), String> {
        match self {
            Bench::Analyze { models, options } => {
                let mut reports = Vec::with_capacity(models.len());
                let mut parts = Vec::with_capacity(models.len());
                for model in models.iter() {
                    let (report, timing) =
                        timed(|| racefuzzer::analyze(&model.program, model.entry, options));
                    reports.push(report.map_err(|error| error.to_string())?);
                    parts.push(timing);
                }
                Ok((analysis_findings(models, &reports), parts))
            }
            Bench::Campaign(bench) => {
                let clock = PairClock::default();
                let (report, [start, end]) = bench.pass(&clock)?;
                let marks: Vec<Mark> = std::iter::once(start)
                    .chain(clock.state.into_inner().expect("a trial panicked").marks)
                    .chain(std::iter::once(end))
                    .collect();
                let parts = marks.windows(2).map(|w| w[0].until(w[1])).collect();
                Ok((campaign_findings(bench.models, &report), parts))
            }
        }
    }
}

impl CampaignBench<'_> {
    /// One campaign pass in a fresh checkpoint and artifact directory,
    /// deleted afterwards; returns the report and the instants the run
    /// started and ended.
    fn pass(
        &mut self,
        runner: &(dyn TrialRunner + Sync),
    ) -> Result<(CampaignReport, [Mark; 2]), String> {
        let dir = self.scratch.next_pass()?;
        let campaign = &mut self.campaign;
        campaign.options.checkpoint_path = Some(dir.join("checkpoint.json"));
        campaign.options.artifact_dir = Some(dir.join("artifacts"));
        let start = Mark::now();
        let report = campaign.run_with(runner);
        let end = Mark::now();
        std::fs::remove_dir_all(&dir).map_err(|error| format!("{}: {error}", dir.display()))?;
        let report = report.map_err(|error| error.to_string())?;
        if !report.completed() {
            return Err("the campaign did not complete".to_owned());
        }
        Ok((report, [start, end]))
    }
}

/// A [`TrialRunner`] that delegates to [`FuzzRunner`] and marks the instant
/// each pair's first trial starts. It reads the clocks once per pair, not
/// per trial.
#[derive(Default)]
struct PairClock {
    state: Mutex<PairMarks>,
}

#[derive(Default)]
struct PairMarks {
    /// The latest trial's program (by address) and pair.
    current: Option<(usize, RacePair)>,
    /// The instant each pair's first trial started.
    marks: Vec<Mark>,
}

impl TrialRunner for PairClock {
    fn run_trial(
        &self,
        program: &cil::Program,
        entry: &str,
        pair: RacePair,
        config: &FuzzConfig,
    ) -> Result<FuzzOutcome, SetupError> {
        self.run_trial_cached(program, entry, pair, config, None)
    }

    fn run_trial_cached(
        &self,
        program: &cil::Program,
        entry: &str,
        pair: RacePair,
        config: &FuzzConfig,
        cache: Option<&PairCache>,
    ) -> Result<FuzzOutcome, SetupError> {
        let target = Some((program as *const cil::Program as usize, pair));
        let mut state = self.state.lock().expect("a trial panicked while marking");
        if state.current != target {
            state.current = target;
            state.marks.push(Mark::now());
        }
        drop(state);
        FuzzRunner.run_trial_cached(program, entry, pair, config, cache)
    }
}

/// Per-trial observations of a traced pass.
#[derive(Default)]
struct TrialLog {
    trial_us: Vec<f64>,
    steps: Vec<f64>,
    first_race_steps: Vec<f64>,
    steps_total: u64,
    steps_no_race: u64,
    hit_trials: u64,
    exception_trials: u64,
    deadlock_trials: u64,
    abnormal_trials: u64,
    busy: Duration,
    /// `(program address, pair)` → (trial time, trials).
    per_pair: BTreeMap<(usize, RacePair), (Duration, u64)>,
}

impl TrialLog {
    fn record(
        &mut self,
        program: &cil::Program,
        pair: RacePair,
        elapsed: Duration,
        outcome: &FuzzOutcome,
    ) {
        self.trial_us.push(elapsed.as_secs_f64() * 1e6);
        self.steps.push(outcome.steps as f64);
        self.steps_total += outcome.steps;
        match outcome.races.first() {
            Some(first) => {
                self.hit_trials += 1;
                self.first_race_steps.push(first.step as f64);
            }
            None => self.steps_no_race += outcome.steps,
        }
        self.exception_trials += u64::from(!outcome.uncaught.is_empty());
        self.deadlock_trials += u64::from(outcome.deadlocked());
        self.abnormal_trials += u64::from(outcome.termination.is_abnormal());
        self.busy += elapsed;
        let slot = self
            .per_pair
            .entry((program as *const cil::Program as usize, pair))
            .or_default();
        slot.0 += elapsed;
        slot.1 += 1;
    }

    fn trials(&self) -> u64 {
        self.trial_us.len() as u64
    }

    /// Trials run on the program at `address`.
    fn program_trials(&self, address: usize) -> u64 {
        self.per_pair
            .iter()
            .filter(|((program, _), _)| *program == address)
            .map(|(_, (_, trials))| trials)
            .sum()
    }
}

/// A [`TrialRunner`] that times every trial and delegates to [`FuzzRunner`].
#[derive(Default)]
struct TimingRunner {
    log: Mutex<TrialLog>,
    calls: AtomicU64,
}

impl TrialRunner for TimingRunner {
    fn run_trial(
        &self,
        program: &cil::Program,
        entry: &str,
        pair: RacePair,
        config: &FuzzConfig,
    ) -> Result<FuzzOutcome, SetupError> {
        self.run_trial_cached(program, entry, pair, config, None)
    }

    fn run_trial_cached(
        &self,
        program: &cil::Program,
        entry: &str,
        pair: RacePair,
        config: &FuzzConfig,
        cache: Option<&PairCache>,
    ) -> Result<FuzzOutcome, SetupError> {
        // A statistic only: nothing else is published through it.
        self.calls.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let result = FuzzRunner.run_trial_cached(program, entry, pair, config, cache);
        let elapsed = start.elapsed();
        if let Ok(outcome) = &result {
            self.log
                .lock()
                .expect("a trial panicked while logging")
                .record(program, pair, elapsed, outcome);
        }
        result
    }
}

/// Everything a traced pass measured.
struct Traced {
    findings: Findings,
    timing: Timing,
    log: TrialLog,
    /// Phase-1 candidates per model (the dynamic predictions).
    dynamic: Vec<Vec<RacePair>>,
    /// Pairs Phase 2 confirmed, per model.
    confirmed: Vec<BTreeSet<RacePair>>,
    /// Program addresses the trial log is keyed by, per model.
    addresses: Vec<usize>,
    predict: Duration,
    snapshots: SnapshotStats,
    allocations: u64,
    /// Campaign only: `run_trial` calls and bytes written.
    calls: u64,
    written: u64,
    workers: usize,
}

/// The `analyze` composition, called through the public per-trial entry
/// point: Phase 1, then one [`PairCache`] per pair over a shared
/// [`EntryCache`] per model, `trials_per_pair` seeds per pair.
fn traced_analyze(models: &[Model], options: &AnalyzeOptions) -> Result<Traced, String> {
    let mut log = TrialLog::default();
    let mut predict = Duration::ZERO;
    let mut allocations = 0;
    let mut snapshots = SnapshotStats::default();
    let mut dynamic = Vec::new();
    let mut per_model = Vec::new();
    let (result, timing) = timed(|| -> Result<(), SetupError> {
        for model in models {
            let start = Instant::now();
            let potential = detector::predict_races(&model.program, model.entry, &options.predict)?;
            predict += start.elapsed();
            let shared = (options.snapshots.mode != SnapshotMode::Off)
                .then(|| EntryCache::new(options.snapshots));
            let mut reports = Vec::with_capacity(potential.len());
            for &pair in &potential {
                let cache = shared
                    .as_ref()
                    .map(|shared| PairCache::new(Arc::clone(shared)));
                let mut report = PairReport::empty(pair);
                for trial in 0..options.trials_per_pair {
                    let seed = options.base_seed.wrapping_add(trial as u64);
                    let config = FuzzConfig {
                        seed,
                        ..options.fuzz.clone()
                    };
                    let before = CountingAlloc::allocations();
                    let start = Instant::now();
                    let outcome = racefuzzer::fuzz_pair_once_cached(
                        &model.program,
                        model.entry,
                        pair,
                        &config,
                        cache.as_deref(),
                    )?;
                    let elapsed = start.elapsed();
                    allocations += CountingAlloc::allocations() - before;
                    log.record(&model.program, pair, elapsed, &outcome);
                    report.absorb(seed, &outcome, &model.program);
                }
                if let Some(cache) = &cache {
                    let stats = cache.stats();
                    snapshots.merge(&stats);
                    report.snapshots = Some(stats);
                }
                reports.push(report);
            }
            dynamic.push(potential);
            per_model.push(reports);
        }
        Ok(())
    });
    result.map_err(|error| error.to_string())?;
    let findings = Findings::of(
        models
            .iter()
            .zip(&per_model)
            .map(|(model, reports)| (model.name, reports.as_slice())),
        Failures {
            abnormal_trials: log.abnormal_trials,
            ..Failures::default()
        },
    );
    let confirmed = per_model
        .iter()
        .map(|reports| {
            reports
                .iter()
                .filter(|report| report.is_real())
                .map(|report| report.target)
                .collect()
        })
        .collect();
    Ok(Traced {
        findings,
        timing,
        confirmed,
        dynamic,
        addresses: models
            .iter()
            .map(|model| &model.program as *const cil::Program as usize)
            .collect(),
        log,
        predict,
        snapshots,
        allocations,
        calls: 0,
        written: 0,
        workers: 1,
    })
}

/// A campaign pass through a [`TimingRunner`]. Phase 1 runs inside the
/// campaign, so it is timed separately, outside the pass.
fn traced_campaign(bench: &mut CampaignBench<'_>) -> Result<Traced, String> {
    let runner = TimingRunner::default();
    let (allocs_before, written_before) = (CountingAlloc::allocations(), sys::written_bytes());
    let (report, [start, end]) = bench.pass(&runner)?;
    let timing = start.until(end);
    let allocations = CountingAlloc::allocations() - allocs_before;
    let written = sys::written_bytes() - written_before;
    let CampaignBench {
        models, campaign, ..
    } = bench;
    let mut predict = Duration::ZERO;
    for model in models.iter() {
        let start = Instant::now();
        detector::predict_races(&model.program, model.entry, &campaign.options.predict)
            .map_err(|error| error.to_string())?;
        predict += start.elapsed();
    }
    Ok(Traced {
        findings: campaign_findings(models, &report),
        timing,
        dynamic: report
            .jobs
            .iter()
            .map(|job| {
                job.potential
                    .iter()
                    .zip(&job.provenance)
                    .filter(|(_, provenance)| **provenance != Provenance::Static)
                    .map(|(&pair, _)| pair)
                    .collect()
            })
            .collect(),
        confirmed: report
            .jobs
            .iter()
            .map(|job| job.real_races().into_iter().collect())
            .collect(),
        addresses: campaign
            .jobs
            .iter()
            .map(|job| &job.program as *const cil::Program as usize)
            .collect(),
        log: runner
            .log
            .into_inner()
            .expect("a trial panicked while logging"),
        predict,
        snapshots: report.snapshot_stats().unwrap_or_default(),
        allocations,
        calls: runner.calls.into_inner(),
        written,
        workers: campaign.options.parallel.workers.max(1),
    })
}

/// Median wall time, in microseconds, of the model's uninstrumented run
/// (`run_with` + round-robin scheduler + null observer).
fn normal_run_us(model: &Model) -> Result<f64, String> {
    let mut samples = Vec::new();
    let started = Instant::now();
    while samples.len() < 3 || started.elapsed() < NORMAL_RUN_BUDGET {
        let start = Instant::now();
        let outcome = interp::run_with(
            &model.program,
            model.entry,
            &mut RoundRobinScheduler::new(NORMAL_RUN_QUANTUM),
            &mut NullObserver,
            Limits::default(),
        )
        .map_err(|error| error.to_string())?;
        samples.push(start.elapsed().as_secs_f64() * 1e6);
        if outcome.termination.is_abnormal() {
            return Err(format!(
                "{}: normal run ended {:?}",
                model.name, outcome.termination
            ));
        }
    }
    Ok(stats::median(&samples).expect("at least 3 samples"))
}

/// The static layer, timed from outside: the candidate generator and the
/// refutation filter over every pair the workload fuzzes plus the static
/// candidates.
struct StaticLayer {
    candidates: Duration,
    filter: Duration,
    static_only: usize,
    refuted: usize,
}

fn static_layer(models: &[Model], dynamic: &[Vec<RacePair>]) -> Result<StaticLayer, String> {
    let mut layer = StaticLayer {
        candidates: Duration::ZERO,
        filter: Duration::ZERO,
        static_only: 0,
        refuted: 0,
    };
    for (model, dynamic) in models.iter().zip(dynamic) {
        let proc = model
            .program
            .proc_named(model.entry)
            .ok_or_else(|| format!("{}: no entry `{}`", model.name, model.entry))?;
        let start = Instant::now();
        let generated = sana::candidates::generate_for_entry(&model.program, proc);
        layer.candidates += start.elapsed();
        let mut union: BTreeSet<RacePair> = dynamic.iter().copied().collect();
        let before = union.len();
        union.extend(generated.candidates.iter().copied());
        layer.static_only += union.len() - before;

        let start = Instant::now();
        let filter = sana::StaticRaceFilter::for_entry(&model.program, model.entry)
            .ok_or_else(|| format!("{}: no static filter", model.name))?;
        layer.refuted += union
            .iter()
            .filter(|pair| filter.refute(&model.program, pair).is_some())
            .count();
        layer.filter += start.elapsed();
    }
    Ok(layer)
}

/// Named metrics in output order.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn add(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0
            .push((name, if value.is_finite() { value } else { 0.0 }, unit));
    }

    fn print(&self) {
        for (name, value, unit) in &self.0 {
            println!("  {name:<36} {value:>16.6} {unit}");
        }
    }

    fn json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// The run's result line and exit status.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

impl Outcome {
    fn finish(self) -> ExitCode {
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            self.metrics.json()
        );
        if self.correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

fn report_verdicts(label: &str, errors: &[String]) {
    for error in errors {
        eprintln!("verdict error ({label}): {error}");
    }
}

fn run_untraced(
    args: &Args,
    setup: &mut Setup,
    models: &[Model],
    expectations: &[Expectation],
) -> Result<Outcome, String> {
    let mut bench = Bench::new(args.workload, models, args.seed);
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut first: Option<Findings> = None;
    // One row per pass, one column per part of the pass.
    let (mut walls, mut cpus): (Vec<Vec<f64>>, Vec<Vec<f64>>) = (Vec::new(), Vec::new());
    loop {
        let (found, parts) = bench.pass()?;
        let pass = walls.len() + 1;
        match &first {
            None => first = Some(found),
            Some(first) if first.identity != found.identity => {
                return Err(format!(
                    "pass {pass} found different pair reports than pass 1"
                ));
            }
            Some(_) => {}
        }
        if let Some(first) = walls.first().filter(|first| first.len() != parts.len()) {
            return Err(format!(
                "pass {pass} split into {} parts, pass 1 into {}",
                parts.len(),
                first.len()
            ));
        }
        walls.push(parts.iter().map(|t| t.wall.as_secs_f64()).collect());
        cpus.push(parts.iter().map(|t| t.cpu.as_secs_f64()).collect());
        setup.build()?;
        if Instant::now() >= deadline {
            break;
        }
    }
    let found = first.expect("at least one pass");
    let whole: Vec<f64> = walls.iter().map(|parts| parts.iter().sum()).collect();
    let summary = Summary::of(&whole).expect("at least one pass");
    let (wall, cpu) = (fastest(&walls), fastest(&cpus));
    let errors = found.verdict_errors(args.workload, expectations);
    report_verdicts("untraced", &errors);

    println!(
        "workload {} seed {} passes {}",
        args.workload.name(),
        args.seed,
        walls.len()
    );
    found.print_verdicts();
    println!(
        "wall_s: {wall:.4} s with each of {} parts at its fastest; whole passes {}",
        walls[0].len(),
        summary.describe("s")
    );
    println!(
        "verdict_errors: {}  failed_trial_share: {}",
        errors.len(),
        found.failures.share(found.attempted)
    );
    let mut metrics = Metrics::default();
    metrics.add("setup_s", setup.setup_s(), "s");
    metrics.add("wall_s", wall, "s");
    metrics.add("cpu_s", cpu, "s");
    metrics.add("trials_per_s", ratio(found.trials as f64, wall), "1/s");
    metrics.add("peak_rss_mib", sys::peak_rss_mib(), "MiB");
    metrics.add("real_races", found.real_races as f64, "count");
    metrics.add("exception_pairs", found.exception_pairs as f64, "count");
    metrics.add("hit_rate", found.hit_rate(), "ratio");
    metrics.print();
    Ok(Outcome {
        correct: errors.is_empty(),
        attempted: found.attempted,
        failed: found.failures.total(),
        metrics,
    })
}

fn run_traced(
    args: &Args,
    setup: &mut Setup,
    models: &[Model],
    expectations: &[Expectation],
) -> Result<Outcome, String> {
    // Untraced and traced passes alternate until the time is up; the
    // per-layer figures come from the traced pass of median wall time, and
    // the tracing overhead is the difference of the two medians.
    let mut bench = Bench::new(args.workload, models, args.seed);
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut reference: Option<String> = None;
    let mut identical = true;
    let mut untraced_walls = Vec::new();
    let mut runs = Vec::new();
    loop {
        let (untraced, parts) = bench.pass()?;
        untraced_walls.push(Timing::total(&parts).wall.as_secs_f64());
        let traced = match &mut bench {
            Bench::Analyze { models, options } => traced_analyze(models, options)?,
            Bench::Campaign(bench) => traced_campaign(bench)?,
        };
        let reference = reference.get_or_insert_with(|| untraced.identity.clone());
        identical &= untraced.identity == *reference && traced.findings.identity == *reference;
        runs.push(traced);
        setup.build()?;
        if Instant::now() >= deadline {
            break;
        }
    }
    if !identical {
        eprintln!("identity error: traced pair reports differ from the untraced passes");
    }
    let traced_walls: Vec<f64> = runs
        .iter()
        .map(|run| run.timing.wall.as_secs_f64())
        .collect();
    let untraced_wall = stats::median(&untraced_walls).expect("at least one pass");
    let wall = stats::median(&traced_walls).expect("at least one pass");
    let median_run = traced_walls
        .iter()
        .position(|&w| w == wall)
        .expect("the median is a sample");
    let traced = runs.swap_remove(median_run);
    let errors = traced.findings.verdict_errors(args.workload, expectations);
    report_verdicts("traced", &errors);
    let found = &traced.findings;
    let log = &traced.log;

    let statics = static_layer(models, &traced.dynamic)?;
    let normal: Vec<f64> = models.iter().map(normal_run_us).collect::<Result<_, _>>()?;
    // Expected uninstrumented time of the trials actually run, per model.
    let normal_equivalent: f64 = traced
        .addresses
        .iter()
        .zip(&normal)
        .map(|(&address, &us)| log.program_trials(address) as f64 * us)
        .sum();

    let trial_us = Summary::of(&log.trial_us);
    let pair_ms: Vec<f64> = log
        .per_pair
        .values()
        .map(|(time, _)| time.as_secs_f64() * 1e3)
        .collect();
    let pairs = Summary::of(&pair_ms);
    let pct = |samples: &[f64], pct: f64| stats::percentile_of(samples, pct).unwrap_or(0.0);
    let candidates: usize = traced.dynamic.iter().map(Vec::len).sum();
    let false_alarms: usize = traced
        .dynamic
        .iter()
        .zip(&traced.confirmed)
        .map(|(dynamic, real)| dynamic.iter().filter(|pair| !real.contains(pair)).count())
        .sum();
    let trials = log.trials();
    let busy = log.busy.as_secs_f64();

    println!(
        "workload {} seed {} traced passes {}; {} pairs fuzzed, {trials} trials",
        args.workload.name(),
        args.seed,
        runs.len() + 1,
        pair_ms.len()
    );
    if let Some(summary) = trial_us {
        println!("trial_us: {}", summary.describe("us"));
    }
    if let Some(summary) = pairs {
        println!("pair_ms: {}", summary.describe("ms"));
    }
    println!(
        "identity: traced reports {} the untraced passes' (median wall untraced {untraced_wall:.3} s, \
         traced {wall:.3} s)",
        if identical { "match" } else { "DIFFER FROM" },
    );

    let mut metrics = Metrics::default();
    metrics.add("cil.compile_ms", fastest(&setup.compiles), "ms");
    metrics.add("cil.bytecode_ms", fastest(&setup.bytecodes), "ms");
    metrics.add(
        "cil.instrs",
        models
            .iter()
            .map(|m| m.program.instr_count())
            .sum::<usize>() as f64,
        "count",
    );
    metrics.add(
        "detector.predict_ms",
        traced.predict.as_secs_f64() * 1e3,
        "ms",
    );
    metrics.add("detector.candidates", candidates as f64, "count");
    metrics.add("detector.false_alarms", false_alarms as f64, "count");
    metrics.add(
        "sana.candidates_ms",
        statics.candidates.as_secs_f64() * 1e3,
        "ms",
    );
    metrics.add("sana.filter_ms", statics.filter.as_secs_f64() * 1e3, "ms");
    metrics.add(
        "sana.static_only_pairs",
        statics.static_only as f64,
        "count",
    );
    metrics.add("sana.refuted", statics.refuted as f64, "count");
    metrics.add("racefuzzer.trials", trials as f64, "count");
    metrics.add("racefuzzer.trial_us_p50", pct(&log.trial_us, 50.0), "us");
    metrics.add("racefuzzer.trial_us_p90", pct(&log.trial_us, 90.0), "us");
    metrics.add("racefuzzer.trial_us_p99", pct(&log.trial_us, 99.0), "us");
    metrics.add("racefuzzer.pairs", pair_ms.len() as f64, "count");
    metrics.add("racefuzzer.pair_ms_p50", pct(&pair_ms, 50.0), "ms");
    metrics.add("racefuzzer.pair_ms_p90", pct(&pair_ms, 90.0), "ms");
    metrics.add("racefuzzer.pair_ms_max", pct(&pair_ms, 100.0), "ms");
    metrics.add("racefuzzer.steps_total", log.steps_total as f64, "count");
    metrics.add(
        "racefuzzer.steps_per_trial_p50",
        pct(&log.steps, 50.0),
        "count",
    );
    metrics.add(
        "racefuzzer.steps_per_trial_max",
        pct(&log.steps, 100.0),
        "count",
    );
    metrics.add(
        "racefuzzer.steps_no_race_share",
        ratio(log.steps_no_race as f64, log.steps_total as f64),
        "ratio",
    );
    metrics.add(
        "racefuzzer.steps_to_first_race_p50",
        pct(&log.first_race_steps, 50.0),
        "count",
    );
    metrics.add(
        "racefuzzer.ns_per_step",
        ratio(busy * 1e9, log.steps_total as f64),
        "ns",
    );
    metrics.add(
        "racefuzzer.snapshot_hit_rate",
        traced.snapshots.hit_rate(),
        "ratio",
    );
    metrics.add(
        "racefuzzer.fast_forwarded_steps",
        traced.snapshots.fast_forwarded_steps as f64,
        "count",
    );
    metrics.add(
        "racefuzzer.captures",
        traced.snapshots.captures as f64,
        "count",
    );
    metrics.add(
        "racefuzzer.evictions",
        traced.snapshots.evictions as f64,
        "count",
    );
    metrics.add(
        "racefuzzer.hit_ratio",
        ratio(log.hit_trials as f64, trials as f64),
        "ratio",
    );
    metrics.add(
        "racefuzzer.exception_trials",
        log.exception_trials as f64,
        "count",
    );
    metrics.add(
        "racefuzzer.deadlock_trials",
        log.deadlock_trials as f64,
        "count",
    );
    metrics.add(
        "racefuzzer.allocs_per_trial",
        ratio(traced.allocations as f64, trials as f64),
        "count",
    );
    metrics.add(
        "interp.normal_run_us",
        ratio(normal.iter().sum(), normal.len() as f64),
        "us",
    );
    metrics.add(
        "racefuzzer.overhead_x",
        ratio(busy * 1e6, normal_equivalent),
        "x",
    );
    // On the `analyze` workloads these split the one thread's pass the
    // same way: trial spans against Phase 1, absorb and cache set-up.
    metrics.add("campaign.trial_busy_s", busy, "s");
    metrics.add(
        "campaign.idle_s",
        (traced.workers as f64 * wall - busy).max(0.0),
        "s",
    );
    metrics.add("campaign.write_bytes", traced.written as f64, "B");
    metrics.add(
        "campaign.retries",
        // Every `run_trial` call is absorbed as a trial or retried.
        traced.calls.saturating_sub(found.trials) as f64,
        "count",
    );
    metrics.add("trace.overhead_s", wall - untraced_wall, "s");
    metrics.add("check.verdict_errors", errors.len() as f64, "count");
    metrics.add(
        "check.failed_trial_share",
        found.failures.share(found.attempted),
        "ratio",
    );
    metrics.print();
    Ok(Outcome {
        correct: identical && errors.is_empty(),
        attempted: found.attempted,
        failed: found.failures.total(),
        metrics,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!(
                "usage: perfbench --workload table1|collections|campaign \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let result = expected::parse(EXPECTED)
        .map_err(|error| error.to_string())
        .and_then(|expectations| {
            let (mut setup, models) = Setup::new(args.workload)?;
            if args.trace {
                run_traced(&args, &mut setup, &models, &expectations)
            } else {
                run_untraced(&args, &mut setup, &models, &expectations)
            }
        });
    match result {
        Ok(outcome) => outcome.finish(),
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::from(2)
        }
    }
}
