//! Crash-safety satellites: corrupt-artifact handling, whole-document
//! (v2, v3) checkpoint migration to the journal, the journal's torn-tail
//! rule at every byte offset, and the heap-cell budget as a reported
//! verdict.

use campaign::checkpoint::{self, JOURNAL_FORMAT};
use campaign::{
    program_digest, ArtifactError, Campaign, CampaignJob, CampaignOptions, FailureArtifact,
    FailureKind, FuzzRunner, QuarantineReason, TrialRunner,
};
use detector::RacePair;
use interp::SetupError;
use racefuzzer::{FuzzConfig, FuzzOutcome};
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("crash-safety-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The program the `checkpoint_v2.json` and `checkpoint_v3.json` fixtures
/// were recorded on (digest `94f8464ec7dd588d`) — byte-for-byte the
/// fixture generator's source. Both fixtures stop after the first of the
/// program's two pairs.
fn migration_program() -> cil::Program {
    cil::compile(
        r#"
        global x = 0;
        global y = 0;
        proc writer() { x = 1; y = 2; }
        proc main() {
            var t = spawn writer();
            var a = x;
            var b = y;
            join t;
        }
        "#,
    )
    .unwrap()
}

/// A racy spin loop that can never finish inside its step budget, so every
/// trial fails and the campaign persists failure artifacts.
fn budget_buster() -> cil::Program {
    cil::compile(
        r#"
        global g = 0;
        proc adder() {
            var i = 0;
            while (i < 40) { g = g + 1; i = i + 1; }
        }
        proc main() {
            var t = spawn adder();
            var j = 0;
            while (j < 40) { g = g + 1; j = j + 1; }
            join t;
        }
        "#,
    )
    .unwrap()
}

fn artifact_paths(dir: &std::path::Path) -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    paths.sort();
    paths
}

#[test]
fn flipped_artifact_byte_is_refused_not_replayed() {
    let dir = temp_dir("flip");
    let options = CampaignOptions {
        trials_per_pair: 2,
        fuzz: FuzzConfig {
            max_steps: 220,
            ..FuzzConfig::default()
        },
        max_attempts: 2,
        max_step_budget: 220, // budget can never grow: every trial fails
        artifact_dir: Some(dir.clone()),
        ..CampaignOptions::default()
    };
    let campaign = Campaign::new(
        vec![CampaignJob::new("buster", budget_buster(), "main")],
        options,
    );
    let report = campaign.run().unwrap();
    assert!(report.quarantine_count() > 0, "buster pairs quarantine");
    let paths = artifact_paths(&dir);
    assert!(paths.len() >= 2, "expected several artifacts, got {paths:?}");

    // Flip one byte in the middle of the first artifact.
    let victim = &paths[0];
    let mut bytes = std::fs::read(victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(victim, &bytes).unwrap();

    // Loading it directly reports corruption instead of trusting it.
    let error = FailureArtifact::load(victim).unwrap_err();
    assert!(
        matches!(error, ArtifactError::Malformed(_)),
        "CRC catches the flip: {error}"
    );

    // The campaign-level sweep skips it with a structured reason and
    // still replays the intact artifacts.
    let sweep = campaign.reproduce_dir(&dir).unwrap();
    assert_eq!(sweep.skipped.len(), 1);
    let (skipped_path, reason) = &sweep.skipped[0];
    assert_eq!(skipped_path, victim);
    assert!(
        matches!(reason, QuarantineReason::CorruptArtifact(_)),
        "structured reason, got {reason:?}"
    );
    assert_eq!(sweep.reproduced.len(), paths.len() - 1);
    for (_, reproduction) in &sweep.reproduced {
        assert_eq!(reproduction.kind, Some(FailureKind::StepBudget));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn artifact_from_a_different_program_is_a_digest_mismatch() {
    let dir = temp_dir("digest");
    let options = CampaignOptions {
        trials_per_pair: 1,
        fuzz: FuzzConfig {
            max_steps: 220,
            ..FuzzConfig::default()
        },
        max_attempts: 2,
        max_step_budget: 220,
        artifact_dir: Some(dir.clone()),
        ..CampaignOptions::default()
    };
    let recorded = Campaign::new(
        vec![CampaignJob::new("job", budget_buster(), "main")],
        options.clone(),
    );
    recorded.run().unwrap();
    let paths = artifact_paths(&dir);
    assert!(!paths.is_empty());
    let artifact = FailureArtifact::load(&paths[0]).unwrap();

    // Same job name, different program: replay must refuse, not run.
    let imposter = Campaign::new(
        vec![CampaignJob::new("job", migration_program(), "main")],
        options,
    );
    let error = imposter.reproduce(&artifact).unwrap_err();
    assert!(
        matches!(error, ArtifactError::DigestMismatch { .. }),
        "got {error}"
    );
    // And the directory sweep records it as a skip, not a crash.
    let sweep = imposter.reproduce_dir(&dir).unwrap();
    assert!(sweep.reproduced.is_empty());
    assert_eq!(sweep.skipped.len(), paths.len());
    for (_, reason) in &sweep.skipped {
        let QuarantineReason::CorruptArtifact(detail) = reason else {
            panic!("expected CorruptArtifact, got {reason:?}");
        };
        assert!(
            detail.contains("recorded on program"),
            "reason names the mismatched digests: {detail}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The first line of a journal: its framed header record.
fn journal_header(path: &Path) -> String {
    let text = std::fs::read_to_string(path).unwrap();
    text.lines().next().unwrap_or_default().to_owned()
}

/// Resumes the migration campaign from a whole-document fixture and checks
/// the result against a run that never saw it; the file must then be a
/// journal.
fn resume_from_fixture(tag: &str, fixture: &str) {
    let dir = temp_dir(tag);
    let checkpoint = dir.join("checkpoint.json");
    std::fs::copy(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(fixture),
        &checkpoint,
    )
    .unwrap();

    // Options must match what the fixture was recorded with.
    let options = CampaignOptions {
        trials_per_pair: 4,
        base_seed: 1,
        checkpoint_path: Some(checkpoint.clone()),
        ..CampaignOptions::default()
    };
    let job = || vec![CampaignJob::new("migrate", migration_program(), "main")];
    let resumed = Campaign::new(job(), options.clone()).run().unwrap();
    assert!(resumed.resumed, "the {fixture} checkpoint must be adopted");
    assert!(resumed.completed());

    // Same final report as a run that never saw the old checkpoint.
    let fresh_options = CampaignOptions {
        checkpoint_path: None,
        ..options
    };
    let fresh = Campaign::new(job(), fresh_options).run().unwrap();
    assert_eq!(
        resumed.canonical_json(),
        fresh.canonical_json(),
        "migrated resume must reproduce the uninterrupted report"
    );

    // The checkpoint was rewritten as a journal, which replays to the
    // finished state.
    let header = journal_header(&checkpoint);
    assert!(
        header.contains(&format!("\"format\":\"{JOURNAL_FORMAT}\"")),
        "journal header expected, got {header}"
    );
    let replay = checkpoint::replay(&checkpoint).unwrap();
    assert!(replay.torn.is_none());
    assert!(replay.checkpoint.jobs[0].done);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn v2_checkpoint_resumes_under_format_version_3() {
    resume_from_fixture("migrate-v2", "checkpoint_v2.json");
}

#[test]
fn v3_checkpoint_resumes_into_a_journal() {
    resume_from_fixture("migrate-v3", "checkpoint_v3.json");
}

/// Delegates to [`FuzzRunner`], except that every trial of one pair of one
/// program panics, so that pair is quarantined with recorded failures.
struct QuarantineOne {
    digest: u64,
    pair: RacePair,
}

impl TrialRunner for QuarantineOne {
    fn run_trial(
        &self,
        program: &cil::Program,
        entry: &str,
        pair: RacePair,
        config: &FuzzConfig,
    ) -> Result<FuzzOutcome, SetupError> {
        assert!(
            pair != self.pair || program_digest(program) != self.digest,
            "injected fault: this pair always crashes"
        );
        FuzzRunner.run_trial(program, entry, pair, config)
    }
}

/// The byte offsets at which each journal line (header, then one record
/// per line) ends.
fn record_ends(bytes: &[u8]) -> Vec<usize> {
    bytes
        .iter()
        .enumerate()
        .filter(|(_, &byte)| byte == b'\n')
        .map(|(at, _)| at + 1)
        .collect()
}

fn corrupt_copies(dir: &Path) -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(Result::ok)
        .map(|entry| entry.path())
        .filter(|path| path.to_string_lossy().contains(".corrupt-"))
        .collect();
    paths.sort();
    paths
}

#[test]
fn journal_torn_at_every_byte_resumes_to_the_uninterrupted_report() {
    let dir = temp_dir("torn-every-byte");
    let jobs = || {
        vec![
            CampaignJob::new("figure1", workloads::figure1(), "main"),
            CampaignJob::new("figure2", workloads::figure2(3), "main"),
        ]
    };
    let options = |checkpoint: Option<PathBuf>| CampaignOptions {
        trials_per_pair: 2,
        max_attempts: 2,
        checkpoint_path: checkpoint,
        ..CampaignOptions::default()
    };
    let figure2 = workloads::figure2(3);
    let probe = Campaign::new(jobs(), options(None)).run().unwrap();
    let runner = QuarantineOne {
        digest: program_digest(&figure2),
        pair: probe.jobs[1].potential[0],
    };

    // The uninterrupted run whose journal gets torn.
    let full_path = dir.join("full.json");
    let reference = Campaign::new(jobs(), options(Some(full_path.clone())))
        .run_with(&runner)
        .unwrap();
    assert!(reference.completed());
    assert_eq!(reference.jobs[1].quarantined.len(), 1, "one quarantined pair");
    assert!(!reference.jobs[1].failures.is_empty());
    let expected = reference.canonical_json();
    let bytes = std::fs::read(&full_path).unwrap();
    let ends = record_ends(&bytes);
    assert_eq!(*ends.last().unwrap(), bytes.len(), "the journal ends on a record");
    let header_end = ends[0];
    let full = checkpoint::replay_bytes(&bytes).unwrap();
    assert_eq!(full.records, ends.len() - 1);
    assert_eq!(
        format!("{:?}", full.checkpoint.jobs),
        format!("{:?}", reference.jobs),
        "the journal replays to the live state"
    );

    let work = dir.join("cut");
    for cut in 0..=bytes.len() {
        let torn = &bytes[..cut];
        // Load adopts exactly the records completed before the cut.
        let complete = ends.iter().filter(|&&end| end <= cut).count();
        let at_boundary = cut == 0 || ends.contains(&cut);
        match checkpoint::replay_bytes(torn) {
            Ok(replay) => {
                assert!(cut >= header_end, "cut {cut}: a torn header must not load");
                assert_eq!(replay.records, complete - 1, "cut {cut}");
                assert_eq!(replay.torn.is_none(), at_boundary, "cut {cut}");
                let prefix = checkpoint::replay_bytes(&bytes[..ends[complete - 1]]).unwrap();
                assert_eq!(
                    format!("{:?}", replay.checkpoint.jobs),
                    format!("{:?}", prefix.checkpoint.jobs),
                    "cut {cut}"
                );
            }
            Err(_) => assert!(cut < header_end, "cut {cut}: a valid header must load"),
        }

        // A resumed run reproduces the uninterrupted report byte for byte.
        std::fs::remove_dir_all(&work).ok();
        std::fs::create_dir_all(&work).unwrap();
        let path = work.join("checkpoint.json");
        std::fs::write(&path, torn).unwrap();
        let resumed = Campaign::new(jobs(), options(Some(path.clone())))
            .run_with(&runner)
            .unwrap();
        assert_eq!(resumed.canonical_json(), expected, "cut {cut}");

        // The torn bytes survive as evidence; a clean cut leaves none.
        let copies = corrupt_copies(&work);
        if cut >= header_end && at_boundary {
            assert!(copies.is_empty(), "cut {cut}: {copies:?}");
        } else {
            assert_eq!(copies.len(), 1, "cut {cut}");
            assert_eq!(std::fs::read(&copies[0]).unwrap(), torn, "cut {cut}");
        }
        let healed = checkpoint::replay(&path).unwrap();
        assert!(healed.torn.is_none(), "cut {cut}: the resumed run rewrote a clean journal");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn heap_budget_is_a_reported_verdict_not_a_quarantine() {
    let program = cil::compile(
        r#"
        class Node { }
        global flag = 0;
        global sink;
        proc hog() {
            var i = 0;
            while (i < 60) { sink = new Node; i = i + 1; }
            flag = 1;
        }
        proc main() {
            var t = spawn hog();
            var v = flag;
            join t;
        }
        "#,
    )
    .unwrap();
    let options = CampaignOptions {
        trials_per_pair: 3,
        fuzz: FuzzConfig {
            max_heap_cells: Some(16),
            ..FuzzConfig::default()
        },
        ..CampaignOptions::default()
    };
    let report = Campaign::new(vec![CampaignJob::new("hog", program, "main")], options)
        .run()
        .unwrap();
    assert!(report.completed());
    let job = &report.jobs[0];
    assert!(!job.potential.is_empty(), "phase 1 predicts the flag race");
    // The budget verdict is counted per pair, never retried or quarantined.
    assert!(job.quarantined.is_empty(), "got {:?}", job.quarantined);
    assert_eq!(report.failure_count(), 0);
    assert!(
        job.reports.iter().any(|r| r.memory_trials > 0),
        "some trials must end on the heap budget: {:?}",
        job.reports
    );
    for pair_report in &job.reports {
        assert_eq!(pair_report.trials, 3, "every trial still counted");
    }
}
