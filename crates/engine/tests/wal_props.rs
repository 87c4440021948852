//! Property tests for the crash-consistency layer: random mutation
//! streams — unicode and astral-plane constants, labelled nulls, marks
//! and rollbacks — journaled through the WAL, optionally folded into
//! snapshots, then recovered into a fresh vocabulary must rebuild an
//! *observationally equal* session store. A torn tail appended to the
//! log must be truncated without losing any acknowledged record.

use gomq_core::{Fact, Term, Vocab};
use gomq_engine::scratch::ScratchDir;
use gomq_engine::session::{sym_fact, DurableSession, PersistOptions};
use gomq_engine::wal::{SymFact, SymTerm, Wal, WalRecord};
use proptest::prelude::*;

/// Renders a constant name; a third of them get astral-plane and
/// combining characters so the byte-level codec sees multi-byte UTF-8.
fn const_name(i: u8) -> String {
    match i % 3 {
        0 => format!("c{i}"),
        1 => format!("κλειώ-{i}"),
        _ => format!("𝔘{i}☃\u{0301}"),
    }
}

/// One scripted mutation: assert a small batch, take a mark, or roll
/// back to a previously taken mark.
type OpSpec = (u8, Vec<(u8, u8, u8, bool)>);

/// Applies a script to a session, tracking taken marks so rollbacks
/// always name a plausible target.
fn apply_script(
    session: &mut DurableSession,
    vocab: &mut Vocab,
    script: &[OpSpec],
) -> Result<(), String> {
    let mut marks: Vec<u64> = Vec::new();
    for (op, batch) in script {
        match op % 4 {
            0 | 1 => {
                let mut facts = Vec::new();
                for &(rel, a, b, null) in batch {
                    let r = vocab.rel(&format!("R{}", rel % 4), 2);
                    let x = Term::Const(vocab.constant(&const_name(a % 6)));
                    let y = if null {
                        Term::Null(vocab.fresh_null())
                    } else {
                        Term::Const(vocab.constant(&const_name(b % 6)))
                    };
                    facts.push(Fact::new(r, vec![x, y]));
                }
                let syms: Vec<SymFact> = facts
                    .iter()
                    .map(|f| sym_fact(vocab, f.rel, &f.args))
                    .collect();
                session.assert(syms, &facts).map_err(|e| e.to_string())?;
            }
            2 => {
                let (id, _) = session.mark().map_err(|e| e.to_string())?;
                marks.push(id);
            }
            _ => {
                if !marks.is_empty() {
                    let pick = marks[*op as usize % marks.len()];
                    // Rolling back invalidates later marks; tolerate that.
                    if session.rollback(pick).is_ok() {
                        marks.retain(|&m| m <= pick);
                    }
                }
            }
        }
    }
    Ok(())
}

/// The observational content of a session store: every fact rendered
/// through the vocabulary, in fact-id order. Two stores with this
/// rendering equal answer every query identically.
fn observe(session: &DurableSession, vocab: &Vocab) -> Vec<String> {
    session
        .clone_store()
        .iter()
        .map(|f| format!("{}", f.display(vocab)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// WAL-only recovery (snapshots disabled): replaying the journal
    /// into a fresh vocabulary rebuilds the exact observational store,
    /// even after a torn frame is appended to the log tail.
    #[test]
    fn wal_replay_rebuilds_the_store(
        script in proptest::collection::vec(
            (
                proptest::arbitrary::any::<u8>(),
                proptest::collection::vec(
                    (0u8..4, 0u8..6, 0u8..6, proptest::arbitrary::any::<bool>()),
                    0..5,
                ),
            ),
            1..20,
        ),
        torn in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..40),
    ) {
        let dir = ScratchDir::new("walprop-replay");
        let opts = PersistOptions { fsync: false, snapshot_every: 0 };
        let expected = {
            let mut vocab = Vocab::new();
            let (mut s, _) = DurableSession::open(&dir, opts, &mut vocab).unwrap();
            apply_script(&mut s, &mut vocab, &script).unwrap();
            observe(&s, &vocab)
        };
        // Simulate a crash mid-append: garbage (or a prefix of a valid
        // frame) lands after the last acknowledged record.
        if !torn.is_empty() {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(dir.join("wal.log"))
                .unwrap();
            f.write_all(&torn).unwrap();
        }
        let mut vocab2 = Vocab::new();
        let (s2, info) = DurableSession::open(&dir, opts, &mut vocab2).unwrap();
        prop_assert_eq!(observe(&s2, &vocab2), expected);
        if !torn.is_empty() {
            // Either the garbage failed frame validation (truncated) or,
            // rarely, it was a decodable frame — then it replayed.
            prop_assert!(info.truncated_tail || info.replayed_records > 0);
        }
    }

    /// Snapshot + tail recovery: forcing a snapshot at an arbitrary
    /// point in the script (remaining mutations only in the WAL) must
    /// recover to the same observational store as the uninterrupted
    /// session.
    #[test]
    fn snapshot_and_tail_rebuild_the_store(
        script in proptest::collection::vec(
            (
                proptest::arbitrary::any::<u8>(),
                proptest::collection::vec(
                    (0u8..4, 0u8..6, 0u8..6, proptest::arbitrary::any::<bool>()),
                    0..5,
                ),
            ),
            2..16,
        ),
        cut in proptest::arbitrary::any::<u8>(),
    ) {
        let dir = ScratchDir::new("walprop-snap");
        let opts = PersistOptions { fsync: false, snapshot_every: 0 };
        let expected = {
            let mut vocab = Vocab::new();
            let (mut s, _) = DurableSession::open(&dir, opts, &mut vocab).unwrap();
            let at = (cut as usize) % script.len();
            apply_script(&mut s, &mut vocab, &script[..at]).unwrap();
            s.snapshot_now(&vocab).unwrap();
            apply_script(&mut s, &mut vocab, &script[at..]).unwrap();
            observe(&s, &vocab)
        };
        let mut vocab2 = Vocab::new();
        let (s2, _) = DurableSession::open(&dir, opts, &mut vocab2).unwrap();
        prop_assert_eq!(observe(&s2, &vocab2), expected);
    }

    /// The WAL frame codec is the identity on arbitrary symbolic
    /// records, including empty batches, zero-arity facts and strings
    /// that exercise every UTF-8 length class.
    #[test]
    fn wal_records_round_trip(
        records in proptest::collection::vec(
            (
                0u8..3,
                proptest::collection::vec(
                    (0u8..5, proptest::collection::vec(
                        (proptest::arbitrary::any::<bool>(), 0u8..9),
                        0..4,
                    )),
                    0..4,
                ),
                proptest::arbitrary::any::<u8>(),
            ),
            1..12,
        ),
    ) {
        let dir = ScratchDir::new("walprop-codec");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let mut wal = Wal::open(&path, false, 1).unwrap();
        let mut written = Vec::new();
        for (tag, batch, n) in &records {
            let record = match tag % 3 {
                0 => WalRecord::Assert(
                    batch
                        .iter()
                        .map(|(rel, args)| SymFact {
                            rel: format!("S{}", rel % 5),
                            args: args
                                .iter()
                                .map(|&(is_null, v)| if is_null {
                                    SymTerm::Null(v as u32)
                                } else {
                                    SymTerm::Const(const_name(v))
                                })
                                .collect(),
                        })
                        .collect(),
                ),
                1 => WalRecord::Mark(*n as u64),
                _ => WalRecord::Rollback(*n as u64),
            };
            wal.append(&record).unwrap();
            written.push(record);
        }
        drop(wal);
        let replayed = Wal::replay(&path).unwrap();
        prop_assert!(!replayed.truncated);
        let got: Vec<WalRecord> = replayed.records.into_iter().map(|(_, r)| r).collect();
        prop_assert_eq!(got, written);
    }
}
