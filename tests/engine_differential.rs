//! Engine-sweep differential test: the register-bytecode VM and the
//! tree-walking interpreter must be observably identical.
//!
//! This is the acceptance gate for the bytecode execution engine: the fused
//! micro-ops, inline field caches, and footprint-table `next_access` are
//! only allowed to make trials *faster*, never to change a single byte of
//! any report. The reference side runs each program's
//! [`cil::Program::tree_walked`] copy, which executions interpret without
//! a code image. The sweep pins every Table-1 workload under both engines,
//! every snapshot mode, and sequential vs parallel trial pools; the
//! property test extends the same oracle to randomly generated programs
//! across a seed sweep. Unit-level lockstep coverage (event streams, RNG
//! draws, `next_access` parity per state) lives in `crates/interp/src/vm.rs`
//! tests; this suite checks the full two-phase pipeline end to end.

use proptest::prelude::*;
use racefuzzer_suite::prelude::*;
use racefuzzer_suite::racefuzzer::SnapshotMode;

/// Trials per pair: small enough to keep the cross-product sweep fast,
/// large enough that every workload hits races, exceptions, and first-seed
/// bookkeeping on at least some pairs.
const TRIALS: usize = 6;

fn options(mode: SnapshotMode, workers: usize) -> AnalyzeOptions {
    AnalyzeOptions::with_trials(TRIALS)
        .snapshot_mode(mode)
        .workers(workers)
}

fn render(report: &AnalysisReport) -> String {
    format!("{report:#?}")
}

#[test]
fn engines_agree_on_all_workloads_modes_and_worker_counts() {
    let mut failures = Vec::new();
    for workload in workloads::all() {
        let reference = workload.program.tree_walked();
        for mode in SnapshotMode::ALL {
            for workers in [1, 4] {
                let options = options(mode, workers);
                let tree_walk = analyze(&reference, workload.entry, &options)
                    .expect("tree-walk analysis succeeds");
                let bytecode = analyze(&workload.program, workload.entry, &options)
                    .expect("bytecode analysis succeeds");
                if render(&tree_walk) != render(&bytecode) {
                    failures.push(format!(
                        "{} under {mode:?} with {workers} worker(s)",
                        workload.name
                    ));
                }
            }
        }
    }
    assert!(
        failures.is_empty(),
        "bytecode reports diverged from tree-walk: {failures:?}"
    );
}

#[test]
fn engines_agree_on_recorded_schedules_and_seed_sweeps() {
    // Schedule recording exposes the raw RNG draw sequence: a single extra
    // or missing draw in either engine shows up here even when the coarse
    // trial verdicts happen to agree. Both scheduler configurations are
    // pinned — `switch_only_at_sync` batches statement runs between
    // decisions (the §4 optimisation the throughput gate measures), and its
    // recorded schedules must still match statement for statement.
    let program = workloads::figure2(5);
    let reference = program.tree_walked();
    let (pairs, _provenance) = gather_candidates(
        &program,
        "main",
        &PredictConfig::default(),
        CandidateSource::DynamicPhase1,
    )
    .expect("candidates found");
    let pair = pairs[0];
    for at_sync in [false, true] {
        for seed in 0..40 {
            let config = FuzzConfig {
                seed,
                record_schedule: true,
                switch_only_at_sync: at_sync,
                ..FuzzConfig::default()
            };
            let tree_walk = fuzz_pair_once(&reference, "main", pair, &config)
                .expect("tree-walk trial runs");
            let bytecode = fuzz_pair_once(&program, "main", pair, &config)
                .expect("bytecode trial runs");
            assert_eq!(
                format!("{tree_walk:#?}"),
                format!("{bytecode:#?}"),
                "seed {seed} (at_sync: {at_sync}): trial outcomes diverged"
            );
        }
    }
}

#[test]
fn engines_agree_under_the_at_sync_scheduler() {
    // The throughput gate measures `switch_only_at_sync`, so that
    // configuration gets its own workload sweep under the same oracle.
    let mut failures = Vec::new();
    for workload in workloads::all() {
        let reference = workload.program.tree_walked();
        for mode in SnapshotMode::ALL {
            let mut options = options(mode, 1);
            options.fuzz.switch_only_at_sync = true;
            let run = |program| {
                analyze(program, workload.entry, &options).expect("analysis succeeds")
            };
            let tree_walk = run(&reference);
            let bytecode = run(&workload.program);
            if render(&tree_walk) != render(&bytecode) {
                failures.push(format!("{} under {mode:?} (at_sync)", workload.name));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "bytecode reports diverged from tree-walk: {failures:?}"
    );
}

/// One statement in a generated worker body (mirrors
/// `tests/random_programs.rs`, plus field/array traffic so the inline
/// caches and the element footprints are exercised, not just globals).
#[derive(Clone, Copy, Debug)]
enum Op {
    Read(u8),
    Write(u8),
    LockedWrite(u8),
    FieldBump,
    ElemBump(u8),
    Nop,
}

fn arb_op(globals: u8) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..globals).prop_map(Op::Read),
        (0..globals).prop_map(Op::Write),
        (0..globals).prop_map(Op::LockedWrite),
        Just(Op::FieldBump),
        (0..4u8).prop_map(Op::ElemBump),
        Just(Op::Nop),
    ]
}

fn arb_threads(globals: u8) -> impl Strategy<Value = Vec<Vec<Op>>> {
    proptest::collection::vec(
        proptest::collection::vec(arb_op(globals), 1..6),
        1..4,
    )
}

fn render_program(globals: u8, threads: &[Vec<Op>]) -> String {
    use std::fmt::Write as _;
    let mut source = String::from("class Lock { }\nclass Box { n }\nglobal lk;\nglobal bx;\nglobal arr;\n");
    for g in 0..globals {
        let _ = writeln!(source, "global g{g} = 0;");
    }
    for (t, body) in threads.iter().enumerate() {
        let _ = writeln!(source, "proc worker{t}() {{");
        let _ = writeln!(source, "    var tmp = 0;");
        let _ = writeln!(source, "    var b = bx;");
        let _ = writeln!(source, "    var a = arr;");
        for op in body {
            match op {
                Op::Read(g) => {
                    let _ = writeln!(source, "    tmp = g{g};");
                }
                Op::Write(g) => {
                    let _ = writeln!(source, "    g{g} = tmp + 1;");
                }
                Op::LockedWrite(g) => {
                    let _ = writeln!(source, "    sync (lk) {{ g{g} = tmp + 1; }}");
                }
                Op::FieldBump => {
                    let _ = writeln!(source, "    b.n = b.n + 1;");
                }
                Op::ElemBump(i) => {
                    let _ = writeln!(source, "    a[{i}] = a[{i}] + tmp;");
                }
                Op::Nop => {
                    let _ = writeln!(source, "    nop;");
                }
            }
        }
        let _ = writeln!(source, "}}");
    }
    source.push_str(
        "proc main() {\n    lk = new Lock;\n    bx = new Box;\n    arr = new [4];\n",
    );
    for t in 0..threads.len() {
        let _ = writeln!(source, "    var t{t} = spawn worker{t}();");
    }
    for t in 0..threads.len() {
        let _ = writeln!(source, "    join t{t};");
    }
    source.push_str("}\n");
    source
}

fn quick_options(base_seed: u64) -> AnalyzeOptions {
    let mut options = AnalyzeOptions::with_trials(5);
    options.base_seed = base_seed;
    options.predict = PredictConfig::with_runs(2);
    options.fuzz.postpone_limit = 100;
    options.fuzz.max_steps = 50_000;
    // Alternate scheduler configurations across cases so the random sweep
    // covers both without doubling its runtime.
    options.fuzz.switch_only_at_sync = base_seed.is_multiple_of(2);
    options
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn engines_agree_on_random_programs(
        threads in arb_threads(3),
        base_seed in 0u64..1_000,
    ) {
        let source = render_program(3, &threads);
        let program = cil::compile(&source).expect("generated program compiles");
        let options = quick_options(base_seed);
        let tree_walk = analyze(&program.tree_walked(), "main", &options)
            .expect("tree-walk analysis succeeds");
        let bytecode = analyze(&program, "main", &options)
            .expect("bytecode analysis succeeds");
        prop_assert_eq!(
            format!("{:#?}", tree_walk),
            format!("{:#?}", bytecode),
            "engines diverged on:\n{}",
            source
        );
    }
}
