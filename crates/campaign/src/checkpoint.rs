//! Campaign checkpointing: an append-only commit journal, resumed by
//! replay.
//!
//! The checkpoint file records the campaign's full cursor — which jobs
//! have predicted, which pairs are fuzzed, every completed [`PairReport`],
//! quarantine decisions, and trial failures — so a killed campaign resumed
//! from disk finishes with reports identical to an uninterrupted run.
//!
//! The file is a **journal**: a header record (format tag, the
//! [`CheckpointHeader`], and each job's name, entry and program digest)
//! followed by one single-line `Record` per commit. Every record is
//! framed with its length and a CRC-32 ([`durable::frame`]) and fsynced
//! when it is appended, so durability stays per pair while a commit costs
//! the bytes of that pair's record, not a rewrite of the whole document.
//! The live campaign and [`replay`] share one `Record::apply`: state is
//! always the fold of the journal, so resumed state cannot drift from the
//! state the interrupted run held.
//!
//! Replay adopts the longest valid prefix and stops at the first record
//! that is torn or fails its CRC; the recovery scan keeps a copy of such
//! a file as `<name>.corrupt-N`, and the campaign redoes the lost pairs
//! deterministically (seeds are `base_seed + trial`), so nothing
//! observable changes. Each run starts by atomically rewriting the
//! journal from the state it adopted, so appends never land after garbage
//! or under another run's header.
//!
//! This build still reads the whole-document checkpoints earlier builds
//! wrote (format versions 2 and 3); it never writes them.

use crate::artifact::{check_version, unseal_document, ArtifactError, FailureKind, TrialFailure};
use crate::durable;
use crate::json::{self, Json};
use crate::{JobOutcome, QuarantineReason, QuarantinedPair};
use cil::flat::InstrId;
use detector::RacePair;
use racefuzzer::{PairReport, Provenance};
use sana::PruneReason;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// Format tag carried by a journal's header record.
pub const JOURNAL_FORMAT: &str = "racefuzzer-campaign-journal/1";

/// Header data validated on resume: a checkpoint taken under different
/// campaign parameters would silently produce different reports, so it is
/// rejected instead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckpointHeader {
    /// Trials per pair the checkpointed campaign was running.
    pub trials_per_pair: usize,
    /// First trial seed.
    pub base_seed: u64,
}

/// A loaded checkpoint: header plus per-job progress.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// Campaign parameters at checkpoint time.
    pub header: CheckpointHeader,
    /// Per-job progress, in campaign job order.
    pub jobs: Vec<JobOutcome>,
}

impl Checkpoint {
    /// Deserializes a whole-document (format v2/v3) checkpoint.
    ///
    /// # Errors
    ///
    /// Returns [`ArtifactError`] on structural or version mismatch.
    pub fn from_json(value: &Json) -> Result<Checkpoint, ArtifactError> {
        let version = value
            .get("format_version")
            .and_then(Json::as_u64)
            .ok_or_else(|| ArtifactError::Malformed("missing format_version".into()))?;
        check_version(version)?;
        let jobs = value
            .get("jobs")
            .and_then(Json::as_arr)
            .ok_or_else(|| ArtifactError::Malformed("bad jobs".into()))?
            .iter()
            .map(job_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Checkpoint {
            header: header_from_json(value)?,
            jobs,
        })
    }

    /// Loads the checkpoint at `path`: a journal's longest valid prefix
    /// (see [`replay`]), or a whole-document v2/v3 checkpoint.
    ///
    /// # Errors
    ///
    /// Returns [`ArtifactError`] if the file is unreadable or has no valid
    /// header.
    pub fn load(path: &Path) -> Result<Checkpoint, ArtifactError> {
        replay(path).map(|replay| replay.checkpoint)
    }
}

/// One journal commit. A campaign builds the record, appends it, then
/// applies it with [`Record::apply`] — the same function [`replay`] folds
/// over the file.
#[derive(Clone, Debug)]
pub(crate) enum Record {
    /// Phase 1 finished for a job.
    Predicted {
        /// Index of the job in the header's job list.
        job: usize,
        /// The candidate pairs, in fuzzing order.
        potential: Vec<RacePair>,
        /// Which phase proposed each pair, parallel to `potential`.
        provenance: Vec<Provenance>,
    },
    /// One pair committed: the cursor advances past it.
    Pair {
        /// Index of the job in the header's job list.
        job: usize,
        /// The pair's report (empty for a pair skipped without trials).
        report: Box<PairReport>,
        /// Why the pair was pulled from rotation, if it was.
        quarantine: Option<QuarantinedPair>,
        /// The trial failures the pair produced, in seed order.
        failures: Vec<TrialFailure>,
        /// The [`crate::StaticFilterMode::Audit`] finding for the pair.
        soundness_bug: Option<String>,
    },
    /// The job needs no more work.
    Done {
        /// Index of the job in the header's job list.
        job: usize,
    },
    /// A job-fatal error ends the job.
    Error {
        /// Index of the job in the header's job list.
        job: usize,
        /// Failures the abandoned pair recorded before the error.
        failures: Vec<TrialFailure>,
        /// The rendered error.
        message: String,
    },
    /// A job's whole state, adopted from an earlier run. Only the
    /// start-of-run rewrite writes these: they compact everything that
    /// run inherited.
    Restored {
        /// Index of the job in the header's job list.
        job: usize,
        /// The adopted state.
        state: Box<JobOutcome>,
    },
}

impl Record {
    /// The header job index the record applies to.
    fn job(&self) -> usize {
        match self {
            Record::Predicted { job, .. }
            | Record::Pair { job, .. }
            | Record::Done { job }
            | Record::Error { job, .. }
            | Record::Restored { job, .. } => *job,
        }
    }

    /// Applies the record to campaign state.
    ///
    /// # Panics
    ///
    /// Panics if the record's job index is out of range; [`replay`]
    /// validates indices before applying.
    pub(crate) fn apply(self, jobs: &mut [JobOutcome]) {
        let state = &mut jobs[self.job()];
        match self {
            Record::Predicted {
                potential,
                provenance,
                ..
            } => {
                state.potential = potential;
                state.provenance = provenance;
                state.predicted = true;
            }
            Record::Pair {
                report,
                quarantine,
                failures,
                soundness_bug,
                ..
            } => {
                state.failures.extend(failures);
                state.reports.push(*report);
                state.quarantined.extend(quarantine);
                state.soundness_bugs.extend(soundness_bug);
                state.next_pair += 1;
            }
            Record::Done { .. } => state.done = true,
            Record::Error {
                failures, message, ..
            } => {
                state.failures.extend(failures);
                state.error = Some(message);
                state.done = true;
            }
            Record::Restored { state: adopted, .. } => *state = *adopted,
        }
    }

    /// The record's journal payload.
    pub(crate) fn to_json(&self) -> Json {
        let job = ("job", Json::usize(self.job()));
        match self {
            Record::Predicted {
                potential,
                provenance,
                ..
            } => Json::obj(vec![
                ("record", Json::str("predicted")),
                job,
                ("potential", pairs_to_json(potential)),
                ("provenance", provenance_to_json(provenance)),
            ]),
            Record::Pair {
                report,
                quarantine,
                failures,
                soundness_bug,
                ..
            } => Json::obj(vec![
                ("record", Json::str("pair")),
                job,
                ("report", report_to_json(report)),
                (
                    "quarantine",
                    quarantine.as_ref().map_or(Json::Null, quarantine_to_json),
                ),
                ("failures", failures_to_json(failures)),
                ("soundness_bug", opt_str(soundness_bug.as_deref())),
            ]),
            Record::Done { .. } => Json::obj(vec![("record", Json::str("done")), job]),
            Record::Error {
                failures, message, ..
            } => Json::obj(vec![
                ("record", Json::str("error")),
                job,
                ("failures", failures_to_json(failures)),
                ("message", Json::str(message)),
            ]),
            Record::Restored { state, .. } => restored_json(self.job(), state),
        }
    }

    /// Decodes a record payload, checking it against the header's jobs.
    fn from_json(value: &Json, jobs: &[JobOutcome]) -> Result<Record, ArtifactError> {
        let malformed = |what: &str| ArtifactError::Malformed(format!("journal record: {what}"));
        let job = value
            .get("job")
            .and_then(Json::as_usize)
            .filter(|&job| job < jobs.len())
            .ok_or_else(|| malformed("bad job index"))?;
        let field = |key: &str| value.get(key).ok_or_else(|| malformed(key));
        let record = match value.get("record").and_then(Json::as_str) {
            Some("predicted") => {
                let potential = pairs_from_json(field("potential")?)?;
                let provenance = provenance_from_json(field("provenance")?)?;
                if provenance.len() != potential.len() {
                    return Err(malformed("provenance length"));
                }
                Record::Predicted {
                    job,
                    potential,
                    provenance,
                }
            }
            Some("pair") => Record::Pair {
                job,
                report: Box::new(report_from_json(field("report")?)?),
                quarantine: match field("quarantine")? {
                    Json::Null => None,
                    entry => Some(quarantine_from_json(entry)?),
                },
                failures: failures_from_json(field("failures")?)?,
                soundness_bug: match field("soundness_bug")? {
                    Json::Null => None,
                    bug => Some(
                        bug.as_str()
                            .ok_or_else(|| malformed("soundness_bug"))?
                            .to_owned(),
                    ),
                },
            },
            Some("done") => Record::Done { job },
            Some("error") => Record::Error {
                job,
                failures: failures_from_json(field("failures")?)?,
                message: field("message")?
                    .as_str()
                    .ok_or_else(|| malformed("message"))?
                    .to_owned(),
            },
            Some("restored") => {
                let state = job_from_json(field("state")?)?;
                if state.name != jobs[job].name || state.program_digest != jobs[job].program_digest
                {
                    return Err(malformed("restored state belongs to another job"));
                }
                Record::Restored {
                    job,
                    state: Box::new(state),
                }
            }
            _ => return Err(malformed("unknown record kind")),
        };
        Ok(record)
    }
}

fn restored_json(job: usize, state: &JobOutcome) -> Json {
    Json::obj(vec![
        ("record", Json::str("restored")),
        ("job", Json::usize(job)),
        ("state", job_to_json(state)),
    ])
}

/// The framed header record for a campaign over `jobs`.
fn header_frame(header: &CheckpointHeader, jobs: &[JobOutcome]) -> String {
    let payload = Json::obj(vec![
        ("format", Json::str(JOURNAL_FORMAT)),
        ("trials_per_pair", Json::usize(header.trials_per_pair)),
        ("base_seed", Json::u64(header.base_seed)),
        (
            "jobs",
            Json::Arr(
                jobs.iter()
                    .map(|job| {
                        Json::obj(vec![
                            ("name", Json::str(&job.name)),
                            ("entry", Json::str(&job.entry)),
                            ("program_digest", digest_to_json(job.program_digest)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    durable::frame(&payload.to_line())
}

/// The journal a run starts from: the header for `jobs`, then one
/// [`Record::Restored`] per job that carries adopted progress. Written
/// atomically (temp file, fsync, rename) before the run appends anything.
pub(crate) fn journal_base(header: &CheckpointHeader, jobs: &[JobOutcome]) -> String {
    let mut text = header_frame(header, jobs);
    for (index, job) in jobs.iter().enumerate() {
        if job.predicted || job.done {
            text.push_str(&durable::frame(&restored_json(index, job).to_line()));
        }
    }
    text
}

/// What [`replay`] recovered from a checkpoint file.
#[derive(Clone, Debug)]
pub struct Replay {
    /// The header and the state the adopted records fold to.
    pub checkpoint: Checkpoint,
    /// Records applied after the header (0 for a whole-document
    /// checkpoint).
    pub records: usize,
    /// Why replay stopped before the end of the file — a torn or corrupt
    /// tail — or `None` if every byte was adopted.
    pub torn: Option<String>,
}

/// Reads the checkpoint at `path` (see [`replay_bytes`]).
///
/// # Errors
///
/// Returns [`ArtifactError`] if the file is unreadable or has no valid
/// header.
pub fn replay(path: &Path) -> Result<Replay, ArtifactError> {
    let bytes = std::fs::read(path).map_err(|error| ArtifactError::Io(error.to_string()))?;
    replay_bytes(&bytes)
}

/// Replays checkpoint bytes: a journal's header, then its records up to
/// the first that is torn, fails its CRC, or does not decode. A file
/// starting with `{` is a whole-document v2/v3 checkpoint, which must
/// verify completely.
///
/// # Errors
///
/// Returns [`ArtifactError`] if the journal header (or the whole legacy
/// document) is torn, corrupt, or of an unreadable version.
pub fn replay_bytes(bytes: &[u8]) -> Result<Replay, ArtifactError> {
    if bytes.first() == Some(&b'{') {
        let text = std::str::from_utf8(bytes)
            .map_err(|_| ArtifactError::Malformed("checkpoint is not UTF-8".into()))?;
        let (value, _) = unseal_document(text)?;
        return Ok(Replay {
            checkpoint: Checkpoint::from_json(&value)?,
            records: 0,
            torn: None,
        });
    }
    let (payload, mut offset) = durable::unframe(bytes)
        .map_err(|error| ArtifactError::Malformed(format!("journal header: {error}")))?;
    let value = json::parse(payload).map_err(|error| ArtifactError::Malformed(error.to_string()))?;
    if value.get("format").and_then(Json::as_str) != Some(JOURNAL_FORMAT) {
        return Err(ArtifactError::Malformed("not a campaign journal".into()));
    }
    let mut jobs = value
        .get("jobs")
        .and_then(Json::as_arr)
        .ok_or_else(|| ArtifactError::Malformed("bad journal jobs".into()))?
        .iter()
        .map(header_job_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    let header = header_from_json(&value)?;
    let mut records = 0;
    let mut torn = None;
    while offset < bytes.len() {
        let decoded = durable::unframe(&bytes[offset..])
            .map_err(ArtifactError::Malformed)
            .and_then(|(payload, len)| {
                let value = json::parse(payload)
                    .map_err(|error| ArtifactError::Malformed(error.to_string()))?;
                Ok((Record::from_json(&value, &jobs)?, len))
            });
        match decoded {
            Ok((record, len)) => {
                record.apply(&mut jobs);
                offset += len;
                records += 1;
            }
            Err(error) => {
                torn = Some(format!(
                    "journal record {} at byte {offset}: {error}",
                    records + 1
                ));
                break;
            }
        }
    }
    Ok(Replay {
        checkpoint: Checkpoint { header, jobs },
        records,
        torn,
    })
}

fn header_from_json(value: &Json) -> Result<CheckpointHeader, ArtifactError> {
    Ok(CheckpointHeader {
        trials_per_pair: value
            .get("trials_per_pair")
            .and_then(Json::as_usize)
            .ok_or_else(|| ArtifactError::Malformed("bad trials_per_pair".into()))?,
        base_seed: value
            .get("base_seed")
            .and_then(Json::as_u64)
            .ok_or_else(|| ArtifactError::Malformed("bad base_seed".into()))?,
    })
}

/// A header job entry, as the fresh state replay starts from.
fn header_job_from_json(value: &Json) -> Result<JobOutcome, ArtifactError> {
    let text = |key: &str| {
        value
            .get(key)
            .and_then(Json::as_str)
            .map(str::to_owned)
            .ok_or_else(|| ArtifactError::Malformed(format!("journal job missing '{key}'")))
    };
    Ok(JobOutcome::new(
        text("name")?,
        text("entry")?,
        digest_from_json(value.get("program_digest"))?,
    ))
}

fn digest_to_json(digest: u64) -> Json {
    Json::Str(format!("{digest:016x}"))
}

fn digest_from_json(value: Option<&Json>) -> Result<u64, ArtifactError> {
    value
        .and_then(Json::as_str)
        .and_then(|text| u64::from_str_radix(text, 16).ok())
        .ok_or_else(|| ArtifactError::Malformed("bad program_digest".into()))
}

fn pair_to_json(pair: &RacePair) -> Json {
    Json::Arr(vec![
        Json::u64(u64::from(pair.first().0)),
        Json::u64(u64::from(pair.second().0)),
    ])
}

fn pair_from_json(value: &Json) -> Result<RacePair, ArtifactError> {
    let items = value
        .as_arr()
        .filter(|items| items.len() == 2)
        .ok_or_else(|| ArtifactError::Malformed("bad pair".into()))?;
    let first = items[0]
        .as_u32()
        .ok_or_else(|| ArtifactError::Malformed("bad pair".into()))?;
    let second = items[1]
        .as_u32()
        .ok_or_else(|| ArtifactError::Malformed("bad pair".into()))?;
    Ok(RacePair::new(InstrId(first), InstrId(second)))
}

fn opt_u64(value: Option<u64>) -> Json {
    match value {
        Some(value) => Json::u64(value),
        None => Json::Null,
    }
}

fn report_to_json(report: &PairReport) -> Json {
    Json::obj(vec![
        ("target", pair_to_json(&report.target)),
        ("trials", Json::usize(report.trials)),
        ("hits", Json::usize(report.hits)),
        (
            "real_pairs",
            Json::Arr(report.real_pairs.iter().map(pair_to_json).collect()),
        ),
        ("exception_trials", Json::usize(report.exception_trials)),
        (
            "exceptions",
            Json::Obj(
                report
                    .exceptions
                    .iter()
                    .map(|(name, count)| (name.to_string(), Json::usize(*count)))
                    .collect(),
            ),
        ),
        ("deadlock_trials", Json::usize(report.deadlock_trials)),
        ("memory_trials", Json::usize(report.memory_trials)),
        ("first_hit_seed", opt_u64(report.first_hit_seed)),
        (
            "first_exception_seed",
            opt_u64(report.first_exception_seed),
        ),
    ])
}

fn report_from_json(value: &Json) -> Result<PairReport, ArtifactError> {
    let field = |key: &str| {
        value
            .get(key)
            .ok_or_else(|| ArtifactError::Malformed(format!("report missing '{key}'")))
    };
    let usize_field = |key: &str| -> Result<usize, ArtifactError> {
        field(key)?
            .as_usize()
            .ok_or_else(|| ArtifactError::Malformed(format!("bad report field '{key}'")))
    };
    let real_pairs: BTreeSet<RacePair> = field("real_pairs")?
        .as_arr()
        .ok_or_else(|| ArtifactError::Malformed("bad real_pairs".into()))?
        .iter()
        .map(pair_from_json)
        .collect::<Result<_, _>>()?;
    // Keys re-enter the shared-`Arc<str>` representation the reports use
    // in memory; a resumed report therefore merges with live reports
    // without any key-type conversion.
    let exceptions: BTreeMap<std::sync::Arc<str>, usize> = match field("exceptions")? {
        Json::Obj(fields) => fields
            .iter()
            .map(|(name, count)| {
                count
                    .as_usize()
                    .map(|count| (std::sync::Arc::from(name.as_str()), count))
                    .ok_or_else(|| ArtifactError::Malformed("bad exception count".into()))
            })
            .collect::<Result<_, _>>()?,
        _ => return Err(ArtifactError::Malformed("bad exceptions".into())),
    };
    let mut report = PairReport::empty(pair_from_json(field("target")?)?);
    report.trials = usize_field("trials")?;
    report.hits = usize_field("hits")?;
    report.real_pairs = real_pairs;
    report.exception_trials = usize_field("exception_trials")?;
    report.exceptions = exceptions;
    report.deadlock_trials = usize_field("deadlock_trials")?;
    // Absent in format v2 checkpoints, which predate the heap budget.
    report.memory_trials = value
        .get("memory_trials")
        .and_then(Json::as_usize)
        .unwrap_or(0);
    report.first_hit_seed = value.get("first_hit_seed").and_then(Json::as_u64);
    report.first_exception_seed = value.get("first_exception_seed").and_then(Json::as_u64);
    Ok(report)
}

fn failure_to_json(failure: &TrialFailure) -> Json {
    Json::obj(vec![
        ("pair", pair_to_json(&failure.pair)),
        ("seed", Json::u64(failure.seed)),
        ("attempt", Json::u64(u64::from(failure.attempt))),
        ("step_budget", Json::u64(failure.step_budget)),
        ("kind", Json::str(failure.kind.tag())),
        (
            "message",
            match failure.kind.message() {
                Some(message) => Json::str(message),
                None => Json::Null,
            },
        ),
    ])
}

fn failure_from_json(value: &Json) -> Result<TrialFailure, ArtifactError> {
    let kind_tag = value
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| ArtifactError::Malformed("bad failure kind".into()))?;
    let message = value.get("message").and_then(Json::as_str);
    let kind = failure_kind_from_parts(kind_tag, message)?;
    Ok(TrialFailure {
        pair: pair_from_json(
            value
                .get("pair")
                .ok_or_else(|| ArtifactError::Malformed("failure missing pair".into()))?,
        )?,
        seed: value
            .get("seed")
            .and_then(Json::as_u64)
            .ok_or_else(|| ArtifactError::Malformed("bad failure seed".into()))?,
        attempt: value
            .get("attempt")
            .and_then(Json::as_u32)
            .ok_or_else(|| ArtifactError::Malformed("bad failure attempt".into()))?,
        step_budget: value
            .get("step_budget")
            .and_then(Json::as_u64)
            .ok_or_else(|| ArtifactError::Malformed("bad failure step_budget".into()))?,
        kind,
    })
}

fn failure_kind_from_parts(
    tag: &str,
    message: Option<&str>,
) -> Result<FailureKind, ArtifactError> {
    FailureKind::from_parts(tag, message)
        .ok_or_else(|| ArtifactError::Malformed(format!("unknown failure kind '{tag}'")))
}

fn quarantine_to_json(entry: &QuarantinedPair) -> Json {
    Json::obj(vec![
        ("pair", pair_to_json(&entry.pair)),
        ("seed", Json::u64(entry.seed)),
        ("attempts", Json::u64(u64::from(entry.attempts))),
        ("reason", Json::str(entry.reason.tag())),
        ("detail", Json::Str(entry.reason.detail())),
    ])
}

fn quarantine_reason_from_parts(
    tag: &str,
    detail: &str,
) -> Result<QuarantineReason, ArtifactError> {
    match tag {
        "trial_failures" => Ok(QuarantineReason::TrialFailures(detail.to_owned())),
        "statically_pruned" => PruneReason::from_tag(detail)
            .map(QuarantineReason::StaticallyPruned)
            .ok_or_else(|| ArtifactError::Malformed(format!("unknown prune reason '{detail}'"))),
        "crash_loop" => detail
            .parse::<u32>()
            .map(QuarantineReason::CrashLoop)
            .map_err(|_| ArtifactError::Malformed(format!("bad crash_loop count '{detail}'"))),
        "corrupt_artifact" => Ok(QuarantineReason::CorruptArtifact(detail.to_owned())),
        _ => Err(ArtifactError::Malformed(format!(
            "unknown quarantine reason '{tag}'"
        ))),
    }
}

fn quarantine_from_json(value: &Json) -> Result<QuarantinedPair, ArtifactError> {
    let tag = value
        .get("reason")
        .and_then(Json::as_str)
        .ok_or_else(|| ArtifactError::Malformed("bad quarantine reason".into()))?;
    let detail = value.get("detail").and_then(Json::as_str).unwrap_or("");
    Ok(QuarantinedPair {
        pair: pair_from_json(
            value
                .get("pair")
                .ok_or_else(|| ArtifactError::Malformed("quarantine missing pair".into()))?,
        )?,
        seed: value
            .get("seed")
            .and_then(Json::as_u64)
            .ok_or_else(|| ArtifactError::Malformed("bad quarantine seed".into()))?,
        attempts: value
            .get("attempts")
            .and_then(Json::as_u32)
            .ok_or_else(|| ArtifactError::Malformed("bad quarantine attempts".into()))?,
        reason: quarantine_reason_from_parts(tag, detail)?,
    })
}

fn pairs_to_json(pairs: &[RacePair]) -> Json {
    Json::Arr(pairs.iter().map(pair_to_json).collect())
}

fn pairs_from_json(value: &Json) -> Result<Vec<RacePair>, ArtifactError> {
    value
        .as_arr()
        .ok_or_else(|| ArtifactError::Malformed("bad pair list".into()))?
        .iter()
        .map(pair_from_json)
        .collect()
}

fn provenance_to_json(provenance: &[Provenance]) -> Json {
    Json::Arr(provenance.iter().map(|p| Json::str(p.tag())).collect())
}

fn provenance_from_json(value: &Json) -> Result<Vec<Provenance>, ArtifactError> {
    value
        .as_arr()
        .ok_or_else(|| ArtifactError::Malformed("bad provenance".into()))?
        .iter()
        .map(|p| {
            p.as_str()
                .and_then(Provenance::from_tag)
                .ok_or_else(|| ArtifactError::Malformed("bad provenance tag".into()))
        })
        .collect()
}

fn failures_to_json(failures: &[TrialFailure]) -> Json {
    Json::Arr(failures.iter().map(failure_to_json).collect())
}

fn failures_from_json(value: &Json) -> Result<Vec<TrialFailure>, ArtifactError> {
    value
        .as_arr()
        .ok_or_else(|| ArtifactError::Malformed("bad failures".into()))?
        .iter()
        .map(failure_from_json)
        .collect()
}

fn opt_str(value: Option<&str>) -> Json {
    value.map_or(Json::Null, Json::str)
}

pub(crate) fn job_to_json(job: &JobOutcome) -> Json {
    Json::obj(vec![
        ("name", Json::str(&job.name)),
        ("entry", Json::str(&job.entry)),
        ("program_digest", digest_to_json(job.program_digest)),
        ("predicted", Json::Bool(job.predicted)),
        ("potential", pairs_to_json(&job.potential)),
        ("provenance", provenance_to_json(&job.provenance)),
        (
            "reports",
            Json::Arr(job.reports.iter().map(report_to_json).collect()),
        ),
        (
            "quarantined",
            Json::Arr(job.quarantined.iter().map(quarantine_to_json).collect()),
        ),
        (
            "soundness_bugs",
            Json::Arr(job.soundness_bugs.iter().map(|bug| Json::str(bug)).collect()),
        ),
        ("failures", failures_to_json(&job.failures)),
        ("next_pair", Json::usize(job.next_pair)),
        ("error", opt_str(job.error.as_deref())),
        ("done", Json::Bool(job.done)),
    ])
}

fn job_from_json(value: &Json) -> Result<JobOutcome, ArtifactError> {
    let field = |key: &str| {
        value
            .get(key)
            .ok_or_else(|| ArtifactError::Malformed(format!("job missing '{key}'")))
    };
    let potential = pairs_from_json(field("potential")?)?;
    // Pre-provenance checkpoints have no `provenance` array; every pair in
    // them came from dynamic Phase 1.
    let provenance = match value.get("provenance") {
        Some(entry) => provenance_from_json(entry)?,
        None => vec![Provenance::Dynamic; potential.len()],
    };
    Ok(JobOutcome {
        name: field("name")?
            .as_str()
            .ok_or_else(|| ArtifactError::Malformed("bad job name".into()))?
            .to_owned(),
        entry: field("entry")?
            .as_str()
            .ok_or_else(|| ArtifactError::Malformed("bad job entry".into()))?
            .to_owned(),
        program_digest: digest_from_json(value.get("program_digest"))?,
        predicted: field("predicted")?
            .as_bool()
            .ok_or_else(|| ArtifactError::Malformed("bad predicted".into()))?,
        potential,
        provenance,
        reports: field("reports")?
            .as_arr()
            .ok_or_else(|| ArtifactError::Malformed("bad reports".into()))?
            .iter()
            .map(report_from_json)
            .collect::<Result<_, _>>()?,
        quarantined: field("quarantined")?
            .as_arr()
            .ok_or_else(|| ArtifactError::Malformed("bad quarantined".into()))?
            .iter()
            .map(quarantine_from_json)
            .collect::<Result<_, _>>()?,
        soundness_bugs: field("soundness_bugs")?
            .as_arr()
            .ok_or_else(|| ArtifactError::Malformed("bad soundness_bugs".into()))?
            .iter()
            .map(|bug| {
                bug.as_str()
                    .map(str::to_owned)
                    .ok_or_else(|| ArtifactError::Malformed("bad soundness bug".into()))
            })
            .collect::<Result<_, _>>()?,
        failures: failures_from_json(field("failures")?)?,
        next_pair: field("next_pair")?
            .as_usize()
            .ok_or_else(|| ArtifactError::Malformed("bad next_pair".into()))?,
        error: value.get("error").and_then(Json::as_str).map(str::to_owned),
        done: field("done")?
            .as_bool()
            .ok_or_else(|| ArtifactError::Malformed("bad done".into()))?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const HEADER: CheckpointHeader = CheckpointHeader {
        trials_per_pair: 25,
        base_seed: 1,
    };

    fn fresh_jobs() -> Vec<JobOutcome> {
        vec![
            JobOutcome::new("figure1".to_owned(), "main".to_owned(), 0xdead_beef_0000_1111),
            JobOutcome::new("figure2".to_owned(), "main".to_owned(), 0x0123_4567_89ab_cdef),
        ]
    }

    /// Records covering every kind and every optional field.
    fn sample_records() -> Vec<Record> {
        let pair = RacePair::new(InstrId(2), InstrId(9));
        let other = RacePair::new(InstrId(3), InstrId(4));
        let mut report = PairReport::empty(pair);
        report.trials = 7;
        report.hits = 3;
        report.real_pairs.insert(pair);
        report.exception_trials = 1;
        report.exceptions.insert(std::sync::Arc::from("Error1"), 1);
        report.memory_trials = 2;
        report.first_hit_seed = Some(4);
        report.first_exception_seed = Some(6);
        let failure = TrialFailure {
            pair,
            seed: 11,
            attempt: 2,
            step_budget: 2048,
            kind: FailureKind::Panic("boom".to_owned()),
        };
        vec![
            Record::Predicted {
                job: 0,
                potential: vec![pair, other],
                provenance: vec![Provenance::Both, Provenance::Static],
            },
            Record::Pair {
                job: 0,
                report: Box::new(report),
                quarantine: Some(QuarantinedPair {
                    pair,
                    seed: 11,
                    attempts: 3,
                    reason: QuarantineReason::TrialFailures("step_budget".to_owned()),
                }),
                failures: vec![failure.clone()],
                soundness_bug: Some("pair #2/#9 confirmed but refuted".to_owned()),
            },
            Record::Pair {
                job: 0,
                report: Box::new(PairReport::empty(other)),
                quarantine: Some(QuarantinedPair {
                    pair: other,
                    seed: 1,
                    attempts: 0,
                    reason: QuarantineReason::StaticallyPruned(PruneReason::ThreadConfined),
                }),
                failures: Vec::new(),
                soundness_bug: None,
            },
            Record::Done { job: 0 },
            Record::Error {
                job: 1,
                failures: vec![failure],
                message: "setup error: no \"main\"\nat all".to_owned(),
            },
        ]
    }

    /// The journal bytes a campaign writing `records` after a fresh start
    /// leaves behind.
    fn journal(records: &[Record]) -> Vec<u8> {
        let mut text = journal_base(&HEADER, &fresh_jobs());
        for record in records {
            text.push_str(&durable::frame(&record.to_json().to_line()));
        }
        text.into_bytes()
    }

    fn render(jobs: &[JobOutcome]) -> String {
        jobs.iter().map(|job| job_to_json(job).to_text()).collect()
    }

    #[test]
    fn replay_is_the_fold_of_the_live_commits() {
        let records = sample_records();
        let mut live = fresh_jobs();
        for record in records.clone() {
            record.apply(&mut live);
        }
        let bytes = journal(&records);
        let replay = replay_bytes(&bytes).unwrap();
        assert_eq!(replay.checkpoint.header, HEADER);
        assert_eq!(replay.records, records.len());
        assert!(replay.torn.is_none());
        assert_eq!(render(&replay.checkpoint.jobs), render(&live));
        assert_eq!(
            format!("{:?}", replay.checkpoint.jobs),
            format!("{:?}", live)
        );
    }

    #[test]
    fn restored_records_compact_adopted_state() {
        let mut live = fresh_jobs();
        for record in sample_records() {
            record.apply(&mut live);
        }
        // The start-of-run rewrite: header plus one restored record per job
        // with progress, replaying to the same state.
        let bytes = journal_base(&HEADER, &live).into_bytes();
        let replay = replay_bytes(&bytes).unwrap();
        assert_eq!(replay.records, 2);
        assert_eq!(render(&replay.checkpoint.jobs), render(&live));
        // A fresh job carries no progress, so it needs no record.
        let fresh = journal_base(&HEADER, &fresh_jobs());
        assert_eq!(replay_bytes(fresh.as_bytes()).unwrap().records, 0);
    }

    #[test]
    fn torn_journal_keeps_its_valid_prefix() {
        let records = sample_records();
        let bytes = journal(&records);
        let whole = replay_bytes(&bytes).unwrap();
        // Cut inside the last record: everything before it survives.
        let cut = &bytes[..bytes.len() - 5];
        let replay = replay_bytes(cut).unwrap();
        assert_eq!(replay.records, records.len() - 1);
        assert!(replay.torn.is_some());
        assert!(!replay.checkpoint.jobs[1].done, "the torn error record is not applied");
        assert!(whole.checkpoint.jobs[1].done);
        // A flipped payload byte fails the record's CRC.
        let last_record = cut.iter().rposition(|&byte| byte == b'\n').unwrap() + 1;
        let mut flipped = bytes.clone();
        flipped[last_record + 30] ^= 0x01;
        let replay = replay_bytes(&flipped).unwrap();
        assert_eq!(replay.records, records.len() - 1);
        assert!(replay.torn.unwrap().contains("CRC"));
        // A header that does not verify leaves nothing to adopt.
        assert!(replay_bytes(&bytes[..20]).is_err());
        assert!(replay_bytes(b"").is_err());
        assert!(replay_bytes(b"garbage").is_err());
    }

    #[test]
    fn whole_document_checkpoints_still_load() {
        // Both fixtures were written by earlier builds' whole-document
        // writer: v2 (no CRC footer, no memory_trials) and v3 (sealed).
        for (name, text) in [
            ("v2", include_str!("../tests/fixtures/checkpoint_v2.json")),
            ("v3", include_str!("../tests/fixtures/checkpoint_v3.json")),
        ] {
            let replay = replay_bytes(text.as_bytes()).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(replay.records, 0, "{name}");
            assert_eq!(replay.checkpoint.header.trials_per_pair, 4, "{name}");
            let job = &replay.checkpoint.jobs[0];
            assert_eq!((job.next_pair, job.reports.len()), (1, 1), "{name}");
            assert_eq!(job.reports[0].memory_trials, 0, "{name}");
        }
        // A torn v3 document is rejected, not trusted.
        let v3 = include_str!("../tests/fixtures/checkpoint_v3.json");
        assert!(replay_bytes(&v3.as_bytes()[..v3.len() / 2]).is_err());
    }
}
