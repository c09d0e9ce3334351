//! Measures Phase-2 trial throughput under the two execution engines.
//!
//! The register-bytecode VM exists for exactly one reason: RaceFuzzer
//! spends its life re-executing the deterministic interpreter, so per-step
//! dispatch cost is the campaign's unit economics. This harness runs
//! complete Phase-2 trials (`fuzz_pair_once`, snapshots off, one OS
//! thread) over padded-loop workloads — the paper's dominant shape, long
//! compute sections between scheduler-relevant events — on the bytecode
//! engine and on the tree-walking interpreter (each program's
//! [`cil::Program::tree_walked`] copy), and reports trials/second for each.
//!
//! Each workload is measured under both scheduler configurations:
//!
//! * `per_stmt` — Algorithm 1 literally, one scheduler decision (and one
//!   RNG draw) per executed statement;
//! * `at_sync` — the paper's §4 implementation optimisation ("RaceFuzzer
//!   only performs thread switches before synchronization operations"),
//!   the configuration a throughput-sensitive campaign runs.
//!
//! Results are written as `BENCH_phase2_throughput.json`. With `--check`
//! the process exits non-zero unless the bytecode engine clears 2.0x
//! tree-walk throughput on every gated padded-loop workload under the
//! `at_sync` scheduler — where trial time is dominated by statement
//! execution, the cost the bytecode engine exists to cut, rather than by
//! engine-independent per-decision bookkeeping (the `per_stmt` rows and
//! the ungated `short_racy` control quantify that bookkeeping share). The
//! gate measures the single-thread configuration, so it holds on
//! single-core CI machines, and it refuses to run on builds with
//! fault-injection sites compiled in.
//!
//! With `--dump-opcodes` (requires building with `--features profile-ops`)
//! the per-opcode execution counters are printed and included in the JSON —
//! the observability knob for checking that fused superinstructions
//! actually dominate a workload before trusting its gate placement.
//!
//! Usage: `phase2_throughput [--trials N] [--out PATH] [--check] [--dump-opcodes]`

use campaign::json::Json;
use detector::{predict_races, PredictConfig, RacePair};
use racefuzzer::{fuzz_pair_once, FuzzConfig};
use rf_bench::TextTable;
use std::process::ExitCode;

/// The throughput bar for the bytecode engine over the tree-walker on
/// gated (padded-loop) workloads.
const GATE_SPEEDUP: f64 = 2.0;

/// A padded loop of fusible register arithmetic before (and a shorter one
/// after) the racy suffix: the shape the superinstruction set targets.
const PADDED_ARITH: &str = r#"
    global z = 0;
    global sink = 0;
    proc child() {
        var j = 0;
        var acc = 0;
        while (j < 400) { acc = acc + j * 2 - 1; j = j + 1; }
        z = acc;
    }
    proc main() {
        var i = 0;
        var acc = 0;
        while (i < 1200) { acc = acc + i * 3 - 2; i = i + 1; }
        var t = spawn child();
        if (z > 0) { sink = z; }
        sink = sink + acc;
        join t;
    }
"#;

/// Padded loops of field and element traffic: the inline-cache and
/// footprint fast paths instead of pure register work.
const PADDED_FIELDS: &str = r#"
    class Acc { total, step }
    global z = 0;
    global sink = 0;
    proc child() { z = 1; }
    proc main() {
        var a = new Acc;
        var xs = new [8];
        a.total = 0;
        a.step = 3;
        xs[7] = 0;
        var i = 0;
        var k = 0;
        while (i < 900) {
            a.total = a.total + a.step;
            k = i - i / 8 * 8;
            xs[k] = a.total;
            i = i + 1;
        }
        var t = spawn child();
        if (z == 1) { sink = a.total; }
        sink = sink + xs[7];
        join t;
    }
"#;

/// Control: almost no padding, so trial cost is dominated by Phase-2
/// bookkeeping shared by both engines. Never gated — its ratio shows the
/// harness floor, not the VM.
const SHORT_RACY: &str = r#"
    global z = 0;
    proc child() { z = 1; }
    proc main() {
        var t = spawn child();
        if (z == 1) { throw Error1; }
        join t;
    }
"#;

struct BenchWorkload {
    name: &'static str,
    source: &'static str,
    gate: bool,
}

const WORKLOADS: [BenchWorkload; 3] = [
    BenchWorkload {
        name: "padded_arith",
        source: PADDED_ARITH,
        gate: true,
    },
    BenchWorkload {
        name: "padded_fields",
        source: PADDED_FIELDS,
        gate: true,
    },
    BenchWorkload {
        name: "short_racy",
        source: SHORT_RACY,
        gate: false,
    },
];

struct Args {
    trials: u64,
    out: String,
    check: bool,
    dump_opcodes: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        trials: 2_000,
        out: "BENCH_phase2_throughput.json".to_owned(),
        check: false,
        dump_opcodes: false,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--trials" => {
                args.trials = iter
                    .next()
                    .and_then(|value| value.parse().ok())
                    .expect("--trials takes a number");
            }
            "--out" => args.out = iter.next().expect("--out takes a path"),
            "--check" => args.check = true,
            "--dump-opcodes" => args.dump_opcodes = true,
            other => panic!("unknown argument `{other}`"),
        }
    }
    args
}

fn first_pair(program: &cil::Program) -> RacePair {
    let potential = predict_races(program, "main", &PredictConfig::default())
        .expect("prediction succeeds on benchmark programs");
    potential[0]
}

/// trials/s for both engines on one workload, single-threaded, fresh
/// interpreter per trial (the campaign's non-snapshot configuration).
/// Returns `(tree_walk, bytecode)`.
///
/// Timed on the thread CPU clock, in interleaved batches, keeping each
/// engine's best batch: preemption and frequency drift on a shared machine
/// swing wall-clock rates by ±20%, which would flip the gate at random.
/// Interleaving gives both engines the same seeds and near-identical
/// machine conditions; best-of-batches discards the perturbed samples.
fn measure(program: &cil::Program, pair: RacePair, at_sync: bool, trials: u64) -> (f64, f64) {
    const BATCHES: u64 = 4;
    let batch = (trials / BATCHES).max(1);
    let tree_walked = program.tree_walked();
    let mut best = [0.0_f64; 2];
    for round in 0..BATCHES {
        for (slot, program) in [(0, &tree_walked), (1, program)] {
            let start = rf_bench::thread_cpu_time();
            for seed in round * batch..(round + 1) * batch {
                let config = FuzzConfig {
                    seed,
                    switch_only_at_sync: at_sync,
                    ..FuzzConfig::default()
                };
                fuzz_pair_once(program, "main", pair, &config).expect("trial runs");
            }
            let elapsed = (rf_bench::thread_cpu_time() - start).as_secs_f64();
            best[slot] = best[slot].max(batch as f64 / elapsed);
        }
    }
    (best[0], best[1])
}

#[cfg(feature = "profile-ops")]
fn opcode_rows() -> Vec<Json> {
    interp::vm::opstats::snapshot()
        .into_iter()
        .map(|(name, count)| {
            Json::obj(vec![("opcode", Json::str(name)), ("executed", Json::u64(count))])
        })
        .collect()
}

fn main() -> ExitCode {
    let args = parse_args();
    let trials = args.trials;
    if args.dump_opcodes && !cfg!(feature = "profile-ops") {
        eprintln!(
            "FAIL: --dump-opcodes needs the per-opcode counters; \
             rebuild with `--features profile-ops`"
        );
        return ExitCode::FAILURE;
    }
    println!("phase-2 trial throughput — {trials} trials per engine, 1 worker\n");

    let mut table = TextTable::new(["workload", "scheduler", "engine", "trials/s", "speedup"]);
    let mut workload_rows = Vec::new();
    let mut gate_failures = Vec::new();
    for workload in &WORKLOADS {
        let program = cil::compile(workload.source).expect("benchmark program compiles");
        let pair = first_pair(&program);
        let mut scheduler_rows = Vec::new();
        for (scheduler, at_sync) in [("per_stmt", false), ("at_sync", true)] {
            let (tree_walk, bytecode) = measure(&program, pair, at_sync, trials);
            let speedup = bytecode / tree_walk;
            for (engine, rate) in [("tree_walk", tree_walk), ("bytecode", bytecode)] {
                table.row([
                    workload.name.to_owned(),
                    scheduler.to_owned(),
                    engine.to_owned(),
                    format!("{rate:.0}"),
                    if engine == "bytecode" {
                        format!("{speedup:.2}x")
                    } else {
                        "1.00x".to_owned()
                    },
                ]);
            }
            if workload.gate && at_sync && speedup < GATE_SPEEDUP {
                gate_failures.push(format!(
                    "{}: bytecode speedup {speedup:.2}x < {GATE_SPEEDUP}x under at_sync",
                    workload.name
                ));
            }
            scheduler_rows.push(Json::obj(vec![
                ("scheduler", Json::str(scheduler)),
                ("gated", Json::Bool(workload.gate && at_sync)),
                ("tree_walk_trials_per_sec", Json::u64(tree_walk as u64)),
                ("bytecode_trials_per_sec", Json::u64(bytecode as u64)),
                ("speedup", Json::Str(format!("{speedup:.2}"))),
            ]));
        }
        workload_rows.push(Json::obj(vec![
            ("workload", Json::str(workload.name)),
            ("gate", Json::Bool(workload.gate)),
            ("schedulers", Json::Arr(scheduler_rows)),
        ]));
    }
    println!("{}", table.render());

    // `entries` only grows under `profile-ops`.
    #[cfg_attr(not(feature = "profile-ops"), allow(unused_mut))]
    let mut entries = vec![
        ("benchmark", Json::str("phase2_throughput")),
        ("failpoints_compiled", Json::Bool(faults::compiled())),
        ("trials", Json::u64(trials)),
        ("workers", Json::u64(1)),
        ("workloads", Json::Arr(workload_rows)),
    ];
    #[cfg(feature = "profile-ops")]
    if args.dump_opcodes {
        let rows = opcode_rows();
        let mut opcode_table = TextTable::new(["opcode", "executed"]);
        for (name, count) in interp::vm::opstats::snapshot() {
            opcode_table.row([name.to_owned(), count.to_string()]);
        }
        println!("per-opcode execution counters (both engines' bytecode steps):\n");
        println!("{}", opcode_table.render());
        entries.push(("opcodes", Json::Arr(rows)));
    }
    let document = Json::obj(entries);
    std::fs::write(&args.out, document.to_text()).expect("write benchmark json");
    println!("wrote {}", args.out);

    if args.check && faults::compiled() {
        eprintln!(
            "FAIL: fault-injection sites are compiled into this build; \
             the perf gate must measure the zero-cost configuration"
        );
        return ExitCode::FAILURE;
    }
    if args.check {
        if !gate_failures.is_empty() {
            for failure in &gate_failures {
                eprintln!("FAIL: {failure}");
            }
            return ExitCode::FAILURE;
        }
        println!(
            "check passed: bytecode >= {GATE_SPEEDUP}x tree-walk trials/s on every \
             padded-loop workload under the at_sync scheduler"
        );
    }
    ExitCode::SUCCESS
}
