//! Torn-write-tolerant durable state: the write disciplines every campaign
//! file goes through.
//!
//! A campaign's durable state (the checkpoint journal, failure artifacts,
//! the crash ledger) must survive a kill at an *arbitrary instant*. This
//! module provides both halves of that guarantee, for whole documents and
//! for append-only journals:
//!
//! * [`write_durable`] — temp file → `fsync` → atomic rename → best-effort
//!   directory sync, with named failpoint sites (`<prefix>.write`,
//!   `<prefix>.sync`, `<prefix>.rename`) on each step and **one retry**
//!   with a fresh temp file on transient failure, so a single injected
//!   `EIO` self-heals without a restart.
//! * [`seal`] / [`unseal`] — a CRC-32 footer (`#crc32=XXXXXXXX`) appended
//!   to every whole document, so a *published* torn file (short write +
//!   crash, or a lying disk) is detected at read time and sidelined by the
//!   recovery scan instead of being trusted or panicking the loader.
//! * [`AppendLog`] — append one record, `fdatasync`, return: the same
//!   `<prefix>.write` / `<prefix>.sync` sites and one retry, after
//!   truncating back to the last good length so a retry never lands
//!   after a partial record.
//! * [`frame`] / [`unframe`] — each journal record carries its length and
//!   CRC-32, so a reader adopts the longest valid prefix and stops at the
//!   first torn or corrupt record.
//!
//! For whole documents the rename is what makes the write atomic, and the
//! fsync before it is what makes the rename meaningful (no file visible
//! with unwritten contents). A journal has no rename: a crash mid-append
//! leaves a torn tail, which the framing detects. In both cases the CRC is
//! the backstop for the failure modes fsync cannot promise away.

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// CRC-32 (IEEE, reflected — the zlib/PNG polynomial) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    // Small table built on first use; this is cold I/O-path code.
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, entry) in table.iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    0xedb8_8320 ^ (crc >> 1)
                } else {
                    crc >> 1
                };
            }
            *entry = crc;
        }
        table
    });
    let mut crc = 0xffff_ffffu32;
    for &byte in bytes {
        crc = table[((crc ^ u32::from(byte)) & 0xff) as usize] ^ (crc >> 8);
    }
    !crc
}

/// The footer marker sealing a durable document.
pub const CRC_FOOTER: &str = "#crc32=";

/// Appends the CRC-32 footer line to `body`.
pub fn seal(body: &str) -> String {
    format!("{body}\n{CRC_FOOTER}{:08x}\n", crc32(body.as_bytes()))
}

/// A successfully unsealed document.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Unsealed<'a> {
    /// The document carried a valid CRC footer.
    Sealed(&'a str),
    /// No footer at all — a legacy (pre-CRC, format v2) document. The
    /// caller decides whether that is acceptable for the claimed format
    /// version.
    Legacy(&'a str),
}

impl<'a> Unsealed<'a> {
    /// The document body either way.
    pub fn body(&self) -> &'a str {
        match self {
            Unsealed::Sealed(body) | Unsealed::Legacy(body) => body,
        }
    }
}

/// Splits and verifies the CRC footer.
///
/// # Errors
///
/// Returns a description if a footer is present but wrong — a torn or
/// bit-flipped file, never to be trusted.
pub fn unseal(text: &str) -> Result<Unsealed<'_>, String> {
    let trimmed = text.trim_end_matches(['\n', '\r']);
    let Some(at) = trimmed.rfind(&format!("\n{CRC_FOOTER}")) else {
        // A footer fragment with no preceding newline (torn at byte 0 of
        // the body) can only be the degenerate empty document; treat any
        // leading footer as corruption too.
        if trimmed.starts_with(CRC_FOOTER) {
            return Err("document is only a CRC footer".to_owned());
        }
        return Ok(Unsealed::Legacy(text));
    };
    let body = &trimmed[..at];
    let footer = &trimmed[at + 1 + CRC_FOOTER.len()..];
    let Ok(expected) = u32::from_str_radix(footer.trim(), 16) else {
        return Err(format!("unparsable CRC footer '{footer}'"));
    };
    let actual = crc32(body.as_bytes());
    if actual != expected {
        return Err(format!(
            "CRC mismatch: footer says {expected:08x}, content hashes to {actual:08x} (torn or corrupt write)"
        ));
    }
    Ok(Unsealed::Sealed(body))
}

/// Width of a frame's length and CRC fields, in hex digits.
const FRAME_FIELD: usize = 8;

/// Frames one journal record: `<length:08x> <crc32:08x> <payload>\n`,
/// where `length` counts the payload's bytes. The payload must be a
/// single line.
pub fn frame(payload: &str) -> String {
    debug_assert!(!payload.contains('\n'), "journal payloads are one line");
    format!(
        "{:08x} {:08x} {payload}\n",
        payload.len(),
        crc32(payload.as_bytes())
    )
}

/// Reads the frame at the start of `bytes`, returning its payload and the
/// frame's total length.
///
/// # Errors
///
/// Returns a description if the frame is torn (fewer bytes than its
/// length field promises), malformed, or fails its CRC.
pub fn unframe(bytes: &[u8]) -> Result<(&str, usize), String> {
    let prefix = 2 * FRAME_FIELD + 2;
    if bytes.len() < prefix {
        return Err("torn frame header".to_owned());
    }
    let field = |at: usize| {
        bytes
            .get(at..at + FRAME_FIELD)
            .and_then(|digits| std::str::from_utf8(digits).ok())
            .and_then(|digits| u32::from_str_radix(digits, 16).ok())
    };
    let (Some(len), Some(expected)) = (field(0), field(FRAME_FIELD + 1)) else {
        return Err("malformed frame header".to_owned());
    };
    if bytes[FRAME_FIELD] != b' ' || bytes[prefix - 1] != b' ' {
        return Err("malformed frame header".to_owned());
    }
    let end = prefix + len as usize;
    if bytes.len() <= end {
        return Err(format!(
            "torn record: {} of {} payload bytes",
            bytes.len().saturating_sub(prefix).min(len as usize),
            len
        ));
    }
    if bytes[end] != b'\n' {
        return Err("record does not end its line".to_owned());
    }
    let payload = &bytes[prefix..end];
    let actual = crc32(payload);
    if actual != expected {
        return Err(format!(
            "CRC mismatch: frame says {expected:08x}, payload hashes to {actual:08x}"
        ));
    }
    let payload = std::str::from_utf8(payload).map_err(|_| "payload is not UTF-8".to_owned())?;
    Ok((payload, end + 1))
}

/// The temp-file path `write_durable` stages through (also what the
/// recovery scan sweeps for).
pub fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

fn injected(site: &str) -> io::Error {
    io::Error::other(format!("injected fault at {site}"))
}

/// Writes `bytes` to `path` with the full durability discipline, emulating
/// any fault scheduled on `<site_prefix>.{write,sync,rename}`. A transient
/// failure (injected or real) is retried once with a fresh temp file.
///
/// A scheduled *short write* is **not** an error: the truncated bytes go
/// through the rest of the pipeline and get published, exactly like a torn
/// write surviving a crash — it is the reader's CRC check that must catch
/// it.
///
/// # Errors
///
/// Returns the underlying [`io::Error`] if both attempts fail.
pub fn write_durable(path: &Path, site_prefix: &str, bytes: &[u8]) -> io::Result<()> {
    let mut last = None;
    for _ in 0..2 {
        match write_once(path, site_prefix, bytes) {
            Ok(()) => return Ok(()),
            Err(error) => last = Some(error),
        }
    }
    Err(last.expect("two attempts, so a last error"))
}

fn write_once(path: &Path, site_prefix: &str, bytes: &[u8]) -> io::Result<()> {
    let tmp = tmp_path(path);
    let write_site = format!("{site_prefix}.write");
    let payload: &[u8] = match faults::hit(&write_site) {
        faults::Fault::None => bytes,
        faults::Fault::Error => return Err(injected(&write_site)),
        faults::Fault::ShortWrite(keep) => &bytes[..bytes.len().min(keep as usize)],
    };
    let mut file = File::create(&tmp)?;
    file.write_all(payload)?;
    let sync_site = format!("{site_prefix}.sync");
    match faults::hit(&sync_site) {
        faults::Fault::Error => return Err(injected(&sync_site)),
        _ => file.sync_all()?,
    }
    drop(file);
    let rename_site = format!("{site_prefix}.rename");
    if faults::hit(&rename_site) == faults::Fault::Error {
        return Err(injected(&rename_site));
    }
    std::fs::rename(&tmp, path)?;
    // Make the rename itself durable. Failure here is not worth a retry
    // loop: the data is safe, only the directory entry might replay.
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            if let Ok(dir) = File::open(parent) {
                let _ = dir.sync_all();
            }
        }
    }
    Ok(())
}

/// An append-only durable file — the campaign journal's write path.
///
/// Every [`AppendLog::append`] writes one framed record and `fdatasync`s
/// it before returning, emulating any fault scheduled on
/// `<site_prefix>.{write,sync}` with the meaning [`write_durable`] gives
/// them: an error fails the attempt, a short write keeps a prefix of the
/// record and reports success (a torn tail the reader's framing must
/// catch), an abort kills the process mid-append.
#[derive(Debug)]
pub struct AppendLog {
    file: File,
    /// File length after the last append that returned success.
    len: u64,
    write_site: String,
    sync_site: String,
}

impl AppendLog {
    /// Opens `path` for appending (the file must exist; a journal is
    /// created by [`write_durable`]).
    ///
    /// # Errors
    ///
    /// Returns the [`io::Error`] from opening or measuring the file.
    pub fn open(path: &Path, site_prefix: &str) -> io::Result<AppendLog> {
        let file = OpenOptions::new().append(true).open(path)?;
        let len = file.metadata()?.len();
        Ok(AppendLog {
            file,
            len,
            write_site: format!("{site_prefix}.write"),
            sync_site: format!("{site_prefix}.sync"),
        })
    }

    /// Appends `bytes` durably. A failed attempt is truncated back to the
    /// last good length and retried once.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`io::Error`] if both attempts fail.
    pub fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        let mut last = None;
        for _ in 0..2 {
            match self.append_once(bytes) {
                Ok(written) => {
                    self.len += written;
                    return Ok(());
                }
                Err(error) => {
                    self.file.set_len(self.len)?;
                    last = Some(error);
                }
            }
        }
        Err(last.expect("two attempts, so a last error"))
    }

    fn append_once(&mut self, bytes: &[u8]) -> io::Result<u64> {
        let payload: &[u8] = match faults::hit(&self.write_site) {
            faults::Fault::None => bytes,
            faults::Fault::Error => return Err(injected(&self.write_site)),
            faults::Fault::ShortWrite(keep) => &bytes[..bytes.len().min(keep as usize)],
        };
        self.file.write_all(payload)?;
        match faults::hit(&self.sync_site) {
            faults::Fault::Error => return Err(injected(&self.sync_site)),
            _ => self.file.sync_data()?,
        }
        Ok(payload.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic zlib check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn seal_unseal_round_trips() {
        let body = "{\"hello\": 1}";
        let sealed = seal(body);
        assert_eq!(unseal(&sealed).unwrap(), Unsealed::Sealed(body));
    }

    #[test]
    fn unsealed_legacy_documents_pass_through() {
        let body = "{\"format_version\": 2}";
        assert_eq!(unseal(body).unwrap(), Unsealed::Legacy(body));
    }

    #[test]
    fn torn_documents_are_rejected() {
        let sealed = seal("{\"a\": [1, 2, 3]}");
        // Flip one content byte: footer no longer matches.
        let mut bytes = sealed.clone().into_bytes();
        bytes[2] ^= 0x20;
        let flipped = String::from_utf8(bytes).unwrap();
        assert!(unseal(&flipped).is_err());
        // Truncation that keeps the footer marker but cuts the body.
        let cut = format!("{}{}", &sealed[..4], &sealed[sealed.len() - 17..]);
        assert!(unseal(&cut).is_err());
    }

    #[test]
    fn durable_write_then_read() {
        let dir = std::env::temp_dir().join(format!("durable-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.json");
        write_durable(&path, "test.durable", seal("{\"x\": 1}").as_bytes()).unwrap();
        assert!(!tmp_path(&path).exists());
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(unseal(&text).unwrap().body(), "{\"x\": 1}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn frames_round_trip_and_detect_tears() {
        let framed = frame("{\"a\":1}");
        let bytes = framed.as_bytes();
        assert_eq!(unframe(bytes).unwrap(), ("{\"a\":1}", bytes.len()));
        // Every proper prefix is torn, never a shorter valid record.
        for cut in 0..bytes.len() {
            assert!(unframe(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut flipped = framed.clone().into_bytes();
        flipped[20] ^= 0x01;
        assert!(unframe(&flipped).unwrap_err().contains("CRC"));
    }

    #[test]
    fn append_log_appends_and_retries() {
        let dir = std::env::temp_dir().join(format!("append-log-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal");
        write_durable(&path, "test.append", frame("head").as_bytes()).unwrap();
        let mut log = AppendLog::open(&path, "test.append").unwrap();
        log.append(frame("one").as_bytes()).unwrap();
        log.append(frame("two").as_bytes()).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes, [frame("head"), frame("one"), frame("two")].concat().as_bytes());
        std::fs::remove_dir_all(&dir).ok();
    }
}
