//! The session write-ahead log: length-prefixed, checksummed records of
//! every ABox mutation, journaled *before* the mutation is applied.
//!
//! ## Frame format
//!
//! ```text
//! [u32 payload_len] [u64 fnv1a(payload)] [payload]
//! payload = [u64 lsn] [u8 record_tag] [record body]
//! ```
//!
//! All integers are little-endian. Replay stops at the first frame whose
//! length prefix overruns the file, whose checksum mismatches, or whose
//! body fails to decode — that prefix boundary is taken as the durable
//! log and the file is truncated there, which is exactly the
//! "torn final record" a crash mid-append leaves behind.
//!
//! ## Symbolic facts
//!
//! Records carry facts *symbolically* ([`SymFact`]: relation and
//! constant names, null ordinals) rather than as interned ids. Replay
//! re-interns by name in journal order, so the rebuilt session store
//! assigns the same [`gomq_core::FactId`]s and renders the same answer
//! strings as the pre-crash session, even though the vocabulary's
//! internal id assignment may differ (per-request constants interned and
//! rolled back between mutations shift ids but never names).
//!
//! Fault seams: [`faults::WAL_WRITE`] (short write / write error) and
//! [`faults::WAL_FSYNC`] (fsync error) — see [`gomq_core::faults`]. An
//! injected or real failure rolls the file back to the pre-append length
//! so an unacknowledged mutation is never replayed.

use gomq_core::faults;
use gomq_rewriting::fnv1a;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Upper bound on one frame's payload; larger length prefixes are
/// treated as corruption (a torn or garbage length word would otherwise
/// ask for gigabytes).
pub const MAX_FRAME_BYTES: u32 = 256 << 20;

/// A term carried symbolically in a WAL record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SymTerm {
    /// A constant, by name.
    Const(String),
    /// A labelled null, by ordinal.
    Null(u32),
}

/// A fact carried symbolically in a WAL record (relation name plus
/// arguments; the arity is the argument count).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SymFact {
    /// Relation name.
    pub rel: String,
    /// Argument terms.
    pub args: Vec<SymTerm>,
}

/// One journaled session mutation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalRecord {
    /// A batch of facts asserted into the session store.
    Assert(Vec<SymFact>),
    /// A rollback point created with the given mark id.
    Mark(u64),
    /// A rollback to a previously created mark.
    Rollback(u64),
    /// A replication-epoch bump, stamped when a replica promotes to
    /// primary. Replaying it raises the session's epoch; a node whose
    /// epoch is below another's is *fenced* — a resurrected old primary
    /// that learns of a higher epoch refuses writes.
    Epoch(u64),
}

const TAG_ASSERT: u8 = 1;
const TAG_MARK: u8 = 2;
const TAG_ROLLBACK: u8 = 3;
const TAG_EPOCH: u8 = 4;

// ---- byte-level helpers (shared with the snapshot encoder) ----

pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// A bounds-checked reader over a byte slice; every decode error is a
/// `String` describing the corruption.
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    pub(crate) fn done(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.buf.len() - self.pos < n {
            return Err(format!(
                "truncated: wanted {n} bytes at offset {}, {} available",
                self.pos,
                self.buf.len() - self.pos
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn take_u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn take_u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn take_u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub(crate) fn take_str(&mut self) -> Result<String, String> {
        let len = self.take_u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| "string is not UTF-8".to_owned())
    }
}

// ---- record encode/decode ----

fn encode_sym_fact(buf: &mut Vec<u8>, f: &SymFact) {
    put_str(buf, &f.rel);
    put_u32(buf, f.args.len() as u32);
    for a in &f.args {
        match a {
            SymTerm::Const(name) => {
                buf.push(0);
                put_str(buf, name);
            }
            SymTerm::Null(n) => {
                buf.push(1);
                put_u32(buf, *n);
            }
        }
    }
}

fn decode_sym_fact(c: &mut Cursor<'_>) -> Result<SymFact, String> {
    let rel = c.take_str()?;
    let argc = c.take_u32()? as usize;
    if argc > MAX_FRAME_BYTES as usize {
        return Err(format!("absurd arity {argc}"));
    }
    let mut args = Vec::with_capacity(argc.min(64));
    for _ in 0..argc {
        args.push(match c.take_u8()? {
            0 => SymTerm::Const(c.take_str()?),
            1 => SymTerm::Null(c.take_u32()?),
            t => return Err(format!("unknown term tag {t}")),
        });
    }
    Ok(SymFact { rel, args })
}

impl WalRecord {
    /// Encodes the record body (without lsn/tag framing).
    fn encode_body(&self, buf: &mut Vec<u8>) {
        match self {
            WalRecord::Assert(facts) => {
                put_u32(buf, facts.len() as u32);
                for f in facts {
                    encode_sym_fact(buf, f);
                }
            }
            WalRecord::Mark(id) | WalRecord::Rollback(id) | WalRecord::Epoch(id) => {
                put_u64(buf, *id)
            }
        }
    }

    fn tag(&self) -> u8 {
        match self {
            WalRecord::Assert(_) => TAG_ASSERT,
            WalRecord::Mark(_) => TAG_MARK,
            WalRecord::Rollback(_) => TAG_ROLLBACK,
            WalRecord::Epoch(_) => TAG_EPOCH,
        }
    }

    fn decode(tag: u8, c: &mut Cursor<'_>) -> Result<WalRecord, String> {
        match tag {
            TAG_ASSERT => {
                let n = c.take_u32()? as usize;
                if n > MAX_FRAME_BYTES as usize {
                    return Err(format!("absurd fact count {n}"));
                }
                let mut facts = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    facts.push(decode_sym_fact(c)?);
                }
                Ok(WalRecord::Assert(facts))
            }
            TAG_MARK => Ok(WalRecord::Mark(c.take_u64()?)),
            TAG_ROLLBACK => Ok(WalRecord::Rollback(c.take_u64()?)),
            TAG_EPOCH => Ok(WalRecord::Epoch(c.take_u64()?)),
            t => Err(format!("unknown record tag {t}")),
        }
    }

    /// Validates and decodes one complete frame from the start of
    /// `bytes`, returning `(lsn, record, frame length)`. The replication
    /// stream ships exactly these frames, so a replica re-checks the
    /// checksum end-to-end before journaling.
    pub fn decode_frame(bytes: &[u8]) -> Result<(u64, WalRecord, usize), String> {
        let end =
            Wal::validate_frame(bytes).ok_or_else(|| "torn or corrupt wal frame".to_owned())?;
        let mut c = Cursor::new(&bytes[12..end]);
        let lsn = c.take_u64()?;
        let tag = c.take_u8()?;
        let rec = WalRecord::decode(tag, &mut c)?;
        if !c.done() {
            return Err("trailing bytes in payload".to_owned());
        }
        Ok((lsn, rec, end))
    }

    /// Encodes one full frame: length prefix, checksum, payload.
    pub fn encode_frame(&self, lsn: u64) -> Vec<u8> {
        let mut payload = Vec::with_capacity(64);
        put_u64(&mut payload, lsn);
        payload.push(self.tag());
        self.encode_body(&mut payload);
        let mut frame = Vec::with_capacity(payload.len() + 12);
        put_u32(&mut frame, payload.len() as u32);
        put_u64(&mut frame, fnv1a(&payload));
        frame.extend_from_slice(&payload);
        frame
    }
}

/// The outcome of replaying a WAL file.
#[derive(Debug)]
pub struct Replayed {
    /// The valid records, in journal order, each with its lsn.
    pub records: Vec<(u64, WalRecord)>,
    /// Whether a torn/corrupt tail was found and truncated away.
    pub truncated: bool,
    /// The highest lsn among the valid records (0 when none).
    pub last_lsn: u64,
    /// Bytes of valid log retained.
    pub bytes: u64,
}

/// An append-only handle on the session WAL.
pub struct Wal {
    file: File,
    path: PathBuf,
    fsync: bool,
    next_lsn: u64,
    len: u64,
}

/// Wraps an I/O error with the journal path and the failing operation,
/// so chaos-test triage reads `wal append wal.log: ...` instead of a
/// bare `No space left on device`.
fn io_ctx(op: &str, path: &Path, e: io::Error) -> io::Error {
    io::Error::new(e.kind(), format!("wal {op} {}: {e}", path.display()))
}

impl Wal {
    /// Opens (creating if absent) the log for appending. `next_lsn` is
    /// the lsn the next record will carry — recovery passes
    /// `last_lsn + 1`.
    pub fn open(path: &Path, fsync: bool, next_lsn: u64) -> io::Result<Wal> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| io_ctx("open", path, e))?;
        let len = file
            .seek(SeekFrom::End(0))
            .map_err(|e| io_ctx("seek", path, e))?;
        Ok(Wal {
            file,
            path: path.to_owned(),
            fsync,
            next_lsn,
            len,
        })
    }

    /// The lsn the next appended record will carry.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// Current byte length of the log.
    pub fn len_bytes(&self) -> u64 {
        self.len
    }

    /// The log's replication position: `(next lsn, live segment bytes)`.
    /// A replica that has applied everything up to `next lsn - 1` is
    /// exactly caught up.
    pub fn position(&self) -> (u64, u64) {
        (self.next_lsn, self.len)
    }

    /// Rolls the file back to `len` after a failed append. Failure here
    /// means the log tail is in an unknown state — the caller must
    /// poison persistence.
    fn unwind(&mut self, len: u64) -> io::Result<()> {
        self.file.set_len(len)?;
        self.file.seek(SeekFrom::End(0))?;
        Ok(())
    }

    /// Appends one record durably (write, then fsync when enabled),
    /// returning `(lsn, frame bytes)`. On any failure — injected or
    /// real — the file is rolled back to its pre-append length so the
    /// unacknowledged record can never be replayed; if even the rollback
    /// fails, the error is tagged so the caller poisons persistence.
    pub fn append(&mut self, record: &WalRecord) -> io::Result<(u64, u64)> {
        let lsn = self.next_lsn;
        let frame = record.encode_frame(lsn);
        let start = self.len;

        let write_result = match faults::io_point(faults::WAL_WRITE) {
            Some(faults::IoFault::Error) => Err(io::Error::other("chaos: injected write error")),
            Some(faults::IoFault::Short) => {
                // Emulate a torn write: half the frame lands, then the
                // device "fails".
                let cut = frame.len() / 2;
                self.file
                    .write_all(&frame[..cut])
                    .and_then(|()| Err(io::Error::other("chaos: injected short write")))
            }
            None => self.file.write_all(&frame),
        };
        let synced = write_result.and_then(|()| {
            if let Some(faults::IoFault::Error | faults::IoFault::Short) =
                faults::io_point(faults::WAL_FSYNC)
            {
                return Err(io::Error::other("chaos: injected fsync failure"));
            }
            if self.fsync {
                self.file.sync_data()
            } else {
                Ok(())
            }
        });
        match synced {
            Ok(()) => {
                self.len = start + frame.len() as u64;
                self.next_lsn += 1;
                Ok((lsn, frame.len() as u64))
            }
            Err(e) => {
                self.unwind(start).map_err(|u| {
                    io::Error::other(format!(
                        "wal append {}: append failed ({e}) and the log could not be rolled back ({u})",
                        self.path.display()
                    ))
                })?;
                Err(io_ctx("append", &self.path, e))
            }
        }
    }

    /// Forces every appended record to stable storage, regardless of the
    /// per-record fsync policy. The drain path calls this before cutting
    /// the shutdown snapshot: even if the snapshot then fails, every
    /// acknowledged mutation is durable.
    pub fn sync(&mut self) -> io::Result<()> {
        if let Some(faults::IoFault::Error | faults::IoFault::Short) =
            faults::io_point(faults::WAL_FSYNC)
        {
            return Err(io_ctx(
                "fsync",
                &self.path,
                io::Error::other("chaos: injected fsync failure"),
            ));
        }
        self.file
            .sync_data()
            .map_err(|e| io_ctx("fsync", &self.path, e))
    }

    /// Truncates the log to empty (called right after a snapshot made
    /// its records redundant). Lsns keep counting — a crash between the
    /// snapshot rename and this truncation is covered by recovery
    /// skipping records at or below the snapshot's lsn.
    pub fn reset(&mut self) -> io::Result<()> {
        self.file
            .set_len(0)
            .and_then(|()| self.file.seek(SeekFrom::Start(0)))
            .and_then(|_| {
                if self.fsync {
                    self.file.sync_data()
                } else {
                    Ok(())
                }
            })
            .map_err(|e| io_ctx("reset", &self.path, e))?;
        self.len = 0;
        Ok(())
    }

    /// Empties the log and fast-forwards the lsn counter. Used when a
    /// replica installs a snapshot shipped by the primary over its live
    /// session: every local record is at or below the snapshot's lsn,
    /// and the next shipped record continues from `next_lsn`.
    pub fn reset_to(&mut self, next_lsn: u64) -> io::Result<()> {
        self.reset()?;
        self.next_lsn = next_lsn;
        Ok(())
    }

    /// Rotates the live log out as a sealed segment: the current file is
    /// renamed to `<stem>.old` (replacing any previous sealed segment)
    /// and a fresh empty log takes its place. Called right after a
    /// snapshot made the live records redundant — the sealed segment is
    /// kept for replication shipping and post-mortem triage, never
    /// replayed (every record in it is at or below the snapshot's lsn).
    /// Lsns keep counting across rotations, exactly as with [`reset`].
    ///
    /// [`reset`]: Wal::reset
    pub fn rotate(&mut self) -> io::Result<PathBuf> {
        let sealed = self.path.with_extension("old");
        std::fs::rename(&self.path, &sealed).map_err(|e| io_ctx("rotate-rename", &self.path, e))?;
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&self.path)
            .map_err(|e| io_ctx("rotate-open", &self.path, e))?;
        if self.fsync {
            file.sync_data()
                .map_err(|e| io_ctx("rotate-fsync", &self.path, e))?;
        }
        self.file = file;
        self.len = 0;
        Ok(sealed)
    }

    /// Reads and validates a WAL file, truncating any torn or corrupt
    /// tail in place. A missing file is an empty log.
    pub fn replay(path: &Path) -> io::Result<Replayed> {
        let mut file = match OpenOptions::new().read(true).write(true).open(path) {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                return Ok(Replayed {
                    records: Vec::new(),
                    truncated: false,
                    last_lsn: 0,
                    bytes: 0,
                })
            }
            Err(e) => return Err(e),
        };
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)?;
        let mut records = Vec::new();
        let mut good = 0usize; // offset of the end of the last valid frame
        let mut last_lsn = 0u64;
        loop {
            let rest = &buf[good..];
            if rest.is_empty() {
                break;
            }
            let Some(frame_end) = Self::validate_frame(rest) else {
                break;
            };
            let payload = &rest[12..frame_end];
            let mut c = Cursor::new(payload);
            // Checksum already verified; decode errors past it mean a
            // writer bug or bit rot inside a "valid" frame — treat as
            // corruption and cut here too.
            let parsed = (|| {
                let lsn = c.take_u64()?;
                let tag = c.take_u8()?;
                let rec = WalRecord::decode(tag, &mut c)?;
                if !c.done() {
                    return Err("trailing bytes in payload".to_owned());
                }
                Ok((lsn, rec))
            })();
            match parsed {
                Ok((lsn, rec)) => {
                    last_lsn = last_lsn.max(lsn);
                    records.push((lsn, rec));
                    good += frame_end;
                }
                Err(_) => break,
            }
        }
        let truncated = good < buf.len();
        if truncated {
            file.set_len(good as u64)?;
            file.sync_data()?;
        }
        Ok(Replayed {
            records,
            truncated,
            last_lsn,
            bytes: good as u64,
        })
    }

    /// Checks the frame at the start of `bytes`; returns its total
    /// length (header + payload) when intact.
    fn validate_frame(bytes: &[u8]) -> Option<usize> {
        if bytes.len() < 12 {
            return None; // torn header
        }
        let len = u32::from_le_bytes(bytes[0..4].try_into().unwrap());
        if len == 0 || len > MAX_FRAME_BYTES {
            return None; // garbage length word
        }
        let sum = u64::from_le_bytes(bytes[4..12].try_into().unwrap());
        let end = 12usize.checked_add(len as usize)?;
        if bytes.len() < end {
            return None; // torn payload
        }
        if fnv1a(&bytes[12..end]) != sum {
            return None; // corrupt payload
        }
        Some(end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::ScratchDir;

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Assert(vec![
                SymFact {
                    rel: "R".into(),
                    args: vec![
                        SymTerm::Const("ada".into()),
                        SymTerm::Const("κλειώ ☃".into()),
                    ],
                },
                SymFact {
                    rel: "Empty".into(),
                    args: vec![],
                },
            ]),
            WalRecord::Mark(7),
            WalRecord::Assert(vec![SymFact {
                rel: "S".into(),
                args: vec![SymTerm::Null(3)],
            }]),
            WalRecord::Rollback(7),
        ]
    }

    #[test]
    fn append_replay_roundtrip() {
        let dir = ScratchDir::new("wal-roundtrip");
        let path = dir.join("wal.log");
        let mut wal = Wal::open(&path, false, 1).unwrap();
        for r in sample_records() {
            wal.append(&r).unwrap();
        }
        assert_eq!(wal.next_lsn(), 5);
        let replayed = Wal::replay(&path).unwrap();
        assert!(!replayed.truncated);
        assert_eq!(replayed.last_lsn, 4);
        assert_eq!(
            replayed
                .records
                .iter()
                .map(|(_, r)| r.clone())
                .collect::<Vec<_>>(),
            sample_records()
        );
    }

    #[test]
    fn torn_tail_is_truncated_and_rest_survives() {
        let dir = ScratchDir::new("wal-torn");
        let path = dir.join("wal.log");
        let mut wal = Wal::open(&path, false, 1).unwrap();
        for r in sample_records() {
            wal.append(&r).unwrap();
        }
        let good = std::fs::metadata(&path).unwrap().len();
        // A crash mid-append: half of a new frame lands.
        let frame = WalRecord::Mark(99).encode_frame(5);
        use std::io::Write as _;
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&frame[..frame.len() / 2]).unwrap();
        drop(f);
        let replayed = Wal::replay(&path).unwrap();
        assert!(replayed.truncated);
        assert_eq!(replayed.records.len(), 4);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), good);
        // A second replay is clean: truncation repaired the file.
        let again = Wal::replay(&path).unwrap();
        assert!(!again.truncated);
        assert_eq!(again.records.len(), 4);
    }

    #[test]
    fn corrupt_byte_cuts_from_that_record() {
        let dir = ScratchDir::new("wal-corrupt");
        let path = dir.join("wal.log");
        let mut wal = Wal::open(&path, false, 1).unwrap();
        let recs = sample_records();
        let mut offsets = vec![0u64];
        for r in &recs {
            wal.append(r).unwrap();
            offsets.push(wal.len_bytes());
        }
        // Flip one payload byte in the third record.
        let mut bytes = std::fs::read(&path).unwrap();
        let third = offsets[2] as usize;
        bytes[third + 12] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let replayed = Wal::replay(&path).unwrap();
        assert!(replayed.truncated);
        assert_eq!(replayed.records.len(), 2);
        assert_eq!(replayed.last_lsn, 2);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), offsets[2]);
    }

    #[test]
    fn missing_file_is_an_empty_log() {
        let dir = ScratchDir::new("wal-missing");
        let replayed = Wal::replay(&dir.join("nope.log")).unwrap();
        assert!(replayed.records.is_empty());
        assert!(!replayed.truncated);
    }

    #[test]
    fn epoch_records_roundtrip() {
        let dir = ScratchDir::new("wal-epoch");
        let path = dir.join("wal.log");
        let mut wal = Wal::open(&path, false, 1).unwrap();
        wal.append(&WalRecord::Mark(1)).unwrap();
        wal.append(&WalRecord::Epoch(7)).unwrap();
        let replayed = Wal::replay(&path).unwrap();
        assert!(!replayed.truncated);
        assert_eq!(
            replayed
                .records
                .iter()
                .map(|(_, r)| r.clone())
                .collect::<Vec<_>>(),
            vec![WalRecord::Mark(1), WalRecord::Epoch(7)]
        );
    }

    #[test]
    fn rotate_seals_segment_and_lsns_keep_counting() {
        let dir = ScratchDir::new("wal-rotate");
        let path = dir.join("wal.log");
        let mut wal = Wal::open(&path, false, 1).unwrap();
        wal.append(&WalRecord::Mark(1)).unwrap();
        assert_eq!(wal.position(), (2, wal.len_bytes()));
        let sealed = wal.rotate().unwrap();
        assert_eq!(sealed, dir.join("wal.old"));
        assert_eq!(wal.len_bytes(), 0);
        // The sealed segment still replays the pre-rotation records.
        let old = Wal::replay(&sealed).unwrap();
        assert_eq!(old.records.len(), 1);
        assert_eq!(old.last_lsn, 1);
        // The live log is fresh and lsns continue counting.
        let (lsn, _) = wal.append(&WalRecord::Mark(2)).unwrap();
        assert_eq!(lsn, 2, "lsns must survive rotations");
        let live = Wal::replay(&path).unwrap();
        assert_eq!(live.records.len(), 1);
        assert_eq!(live.last_lsn, 2);
        // A second rotation replaces the previous sealed segment.
        wal.rotate().unwrap();
        let old = Wal::replay(&sealed).unwrap();
        assert_eq!(old.last_lsn, 2);
    }

    #[test]
    fn io_errors_carry_path_and_operation() {
        let dir = ScratchDir::new("wal-errctx");
        let missing = dir.join("no-such-subdir").join("wal.log");
        let err = match Wal::open(&missing, false, 1) {
            Err(e) => e,
            Ok(_) => panic!("open in a missing directory must fail"),
        };
        let msg = err.to_string();
        assert!(msg.contains("wal open"), "operation missing: {msg}");
        assert!(
            msg.contains("no-such-subdir"),
            "journal path missing: {msg}"
        );
    }

    #[test]
    fn reset_empties_but_lsns_keep_counting() {
        let dir = ScratchDir::new("wal-reset");
        let path = dir.join("wal.log");
        let mut wal = Wal::open(&path, false, 1).unwrap();
        wal.append(&WalRecord::Mark(1)).unwrap();
        wal.reset().unwrap();
        assert_eq!(wal.len_bytes(), 0);
        let (lsn, _) = wal.append(&WalRecord::Mark(2)).unwrap();
        assert_eq!(lsn, 2, "lsns must survive resets");
        let replayed = Wal::replay(&path).unwrap();
        assert_eq!(replayed.records.len(), 1);
        assert_eq!(replayed.last_lsn, 2);
    }
}
