//! Typed crash-recovery reporting and read-only journal verification.
//!
//! Opening a journal after a crash is a *recovery*, and security code
//! cannot afford to guess about it: a silently dropped retained-ADI
//! frame means the PDP may grant a role activation the MSoD policy
//! forbids. Every open therefore produces a [`RecoveryReport`] saying
//! exactly how many frames were replayed, how many were dropped and
//! how many bytes were truncated — and [`verify_journal`] performs the
//! same scan without mutating the file, for offline auditing
//! (`msod-cli verify-journal`).

use std::fmt;
use std::path::Path;
use std::sync::Arc;

use msod::symtab::SymbolTable;
use msod::RetainedAdi;

use crate::adi::IndexReplay;
use crate::crc::crc32;
use crate::error::StorageError;
use crate::vfs::{StdVfs, Vfs};

/// What opening a journal found and did. Produced by every
/// [`OpLog::open_with_vfs`](crate::OpLog::open_with_vfs) /
/// [`PersistentAdi::open`](crate::PersistentAdi::open); a clean open
/// reads `frames_replayed = n`, everything else zero.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Intact frames replayed into the in-memory state.
    pub frames_replayed: u64,
    /// Structurally complete frames discarded because they sat at or
    /// beyond the first corrupt frame (best-effort count: framing
    /// beyond a corruption is untrustworthy).
    pub frames_dropped: u64,
    /// Bytes cut off the end of the file — a torn trailing write
    /// and/or everything from the first corrupt frame on.
    pub bytes_truncated: u64,
    /// Byte offset of the first frame whose CRC failed or whose
    /// payload did not decode. `None` when only a torn trailing write
    /// (the expected crash residue) was truncated.
    pub corruption_offset: Option<u64>,
    /// A stale compaction temp file (crash between the compaction
    /// write and its rename into place) was found and removed.
    pub stale_compaction_tmp: bool,
}

impl RecoveryReport {
    /// True when the open found the journal exactly as the last sync
    /// left it — nothing truncated, no corruption, no stale temp file.
    pub fn is_clean(&self) -> bool {
        self.bytes_truncated == 0 && self.corruption_offset.is_none() && !self.stale_compaction_tmp
    }
}

impl fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} frame(s) replayed, {} dropped, {} byte(s) truncated",
            self.frames_replayed, self.frames_dropped, self.bytes_truncated
        )?;
        if let Some(off) = self.corruption_offset {
            write!(f, ", corruption at byte {off}")?;
        }
        if self.stale_compaction_tmp {
            write!(f, ", stale compaction temp removed")?;
        }
        Ok(())
    }
}

/// Result of a read-only [`verify_journal`] scan.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JournalVerifyReport {
    /// File size in bytes.
    pub total_bytes: u64,
    /// Frames that passed CRC *and* decoded to a valid ADI operation.
    pub frames_intact: u64,
    /// The intact prefix — frames an open would actually replay.
    /// Differs from `frames_intact` when intact frames sit beyond the
    /// first corrupt one (recovery truncates there; framing past a
    /// corruption is untrustworthy).
    pub frames_replayable: u64,
    /// Frames that passed CRC but did not decode.
    pub undecodable_frames: u64,
    /// Byte offset of the first CRC failure, if any. Like recovery, a
    /// bad CRC on the *final* complete frame (with nothing intact
    /// beyond it) is classified as torn-write residue, not corruption
    /// — it is counted in `trailing_torn_bytes` instead.
    pub corruption_offset: Option<u64>,
    /// Trailing bytes the next open would truncate as torn-write
    /// residue: an incomplete final frame and/or a final complete
    /// frame whose CRC failed.
    pub trailing_torn_bytes: u64,
    /// Live retained-ADI records after replaying the intact prefix.
    pub live_records: usize,
}

impl JournalVerifyReport {
    /// True when every byte of the file is accounted for by intact,
    /// decodable frames.
    pub fn is_clean(&self) -> bool {
        self.undecodable_frames == 0
            && self.corruption_offset.is_none()
            && self.trailing_torn_bytes == 0
    }
}

impl fmt::Display for JournalVerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} byte(s), {} intact frame(s), {} live record(s)",
            self.total_bytes, self.frames_intact, self.live_records
        )?;
        if self.undecodable_frames > 0 {
            write!(f, ", {} undecodable frame(s)", self.undecodable_frames)?;
        }
        if let Some(off) = self.corruption_offset {
            write!(f, ", CRC failure at byte {off}")?;
        }
        if self.trailing_torn_bytes > 0 {
            write!(f, ", {} torn trailing byte(s)", self.trailing_torn_bytes)?;
        }
        Ok(())
    }
}

/// Scan a retained-ADI journal without modifying it: walk every frame,
/// CRC-check and decode each one, and replay the intact prefix into a
/// scratch index to count live records. Unlike opening the journal,
/// verification never truncates — it only reports.
pub fn verify_journal(path: impl AsRef<Path>) -> Result<JournalVerifyReport, StorageError> {
    verify_journal_with_vfs(&StdVfs, path.as_ref())
}

/// [`verify_journal`] over an explicit [`Vfs`].
pub fn verify_journal_with_vfs(
    vfs: &dyn Vfs,
    path: &Path,
) -> Result<JournalVerifyReport, StorageError> {
    let data = vfs.read(path)?;
    let mut report = JournalVerifyReport { total_bytes: data.len() as u64, ..Default::default() };
    let mut replay = IndexReplay::new(Arc::new(SymbolTable::new()));
    let mut intact = true;
    // Complete frames seen at or after the first CRC failure (the
    // failing frame included) — 1 means the bad frame is the final
    // complete frame in the file.
    let mut frames_from_bad_crc = 0u64;
    scan_frames(&data, |offset, outcome| {
        if report.corruption_offset.is_some() && !matches!(outcome, FrameOutcome::TornTail(_)) {
            frames_from_bad_crc += 1;
        }
        match outcome {
            // Past the first anomaly frames are still decoded (the
            // dictionary keeps tracking) but no longer applied.
            FrameOutcome::Intact(payload) => {
                let decoded = if intact { replay.apply(payload) } else { replay.decodes(payload) };
                if decoded {
                    report.frames_intact += 1;
                    report.frames_replayable += u64::from(intact);
                } else {
                    report.undecodable_frames += 1;
                    intact = false;
                }
            }
            FrameOutcome::BadCrc => {
                if report.corruption_offset.is_none() {
                    report.corruption_offset = Some(offset);
                    frames_from_bad_crc = 1;
                }
                intact = false;
            }
            FrameOutcome::TornTail(len) => report.trailing_torn_bytes = len,
        }
    });
    // Same classification as `OpLog::open`: a bad CRC on the very last
    // complete frame — nothing intact or undecodable anywhere else —
    // is the torn-write signature, not hard corruption; the next open
    // truncates it like any torn tail. Without this, `msod-cli
    // verify-journal` would exit non-zero on residue recovery handles
    // routinely, contradicting its "torn tail only warns" contract.
    if let Some(off) = report.corruption_offset {
        if report.undecodable_frames == 0 && frames_from_bad_crc == 1 {
            report.corruption_offset = None;
            report.trailing_torn_bytes = report.total_bytes - off;
        }
    }
    report.live_records = replay.index.len();
    Ok(report)
}

/// One frame-scan event, passed to the callback of [`scan_frames`].
pub(crate) enum FrameOutcome<'a> {
    /// A complete frame whose CRC matched; the payload.
    Intact(&'a [u8]),
    /// A complete frame whose CRC failed.
    BadCrc,
    /// The final bytes do not form a complete frame; the count.
    TornTail(u64),
}

/// Walk the `[u32 len][payload][u32 crc]` framing of `data`, calling
/// `visit(offset, outcome)` for every frame (and once for a torn
/// tail). The walk continues past bad CRCs — framing beyond corruption
/// is best-effort, which is exactly what the drop-count in a
/// [`RecoveryReport`] wants.
pub(crate) fn scan_frames(data: &[u8], mut visit: impl FnMut(u64, FrameOutcome<'_>)) {
    let mut offset = 0usize;
    while offset + 4 <= data.len() {
        let len = u32::from_le_bytes(data[offset..offset + 4].try_into().unwrap()) as usize;
        // Fully checked: on 32-bit targets a length near u32::MAX
        // would overflow `4 + len + 4` before a single checked_add
        // could catch it, misparsing untrusted journal bytes.
        let frame_end = offset
            .checked_add(4)
            .and_then(|end| end.checked_add(len))
            .and_then(|end| end.checked_add(4));
        let Some(frame_end) = frame_end else {
            break;
        };
        if frame_end > data.len() {
            break;
        }
        let payload = &data[offset + 4..offset + 4 + len];
        let stored = u32::from_le_bytes(data[frame_end - 4..frame_end].try_into().unwrap());
        if crc32(payload) == stored {
            visit(offset as u64, FrameOutcome::Intact(payload));
        } else {
            visit(offset as u64, FrameOutcome::BadCrc);
        }
        offset = frame_end;
    }
    if offset < data.len() {
        visit(offset as u64, FrameOutcome::TornTail((data.len() - offset) as u64));
    }
}

/// Count the structurally complete frames in `data` — the best-effort
/// "frames dropped" figure for a [`RecoveryReport`].
pub(crate) fn count_complete_frames(data: &[u8]) -> u64 {
    let mut n = 0;
    scan_frames(data, |_, outcome| {
        if !matches!(outcome, FrameOutcome::TornTail(_)) {
            n += 1;
        }
    });
    n
}

/// Shared default-VFS handle, so every `PersistentAdi::open` does not
/// allocate a fresh trait object.
pub(crate) fn std_vfs() -> Arc<dyn Vfs> {
    static VFS: std::sync::OnceLock<Arc<dyn Vfs>> = std::sync::OnceLock::new();
    Arc::clone(VFS.get_or_init(|| Arc::new(StdVfs)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adi::AdiOp;
    use crate::vfs::FaultVfs;
    use std::path::PathBuf;

    /// One journal frame around a decodable payload (`AdiOp::Clear`).
    fn clear_frame() -> Vec<u8> {
        let payload = AdiOp::Clear.encode();
        let mut frame = Vec::new();
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&payload);
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame
    }

    fn ram_journal(bytes: &[u8]) -> (FaultVfs, PathBuf) {
        let vfs = FaultVfs::default();
        let path = PathBuf::from("/j.log");
        let mut f = vfs.open_append(&path).unwrap();
        f.append(bytes).unwrap();
        f.sync().unwrap();
        (vfs, path)
    }

    /// The CRC-failure-on-the-final-complete-frame case FaultVfs
    /// produces (torn-byte flip with no trailing partial frame) must
    /// verify the same way `OpLog::open` recovers it: torn residue
    /// that warns, not corruption that fails.
    #[test]
    fn bad_crc_final_frame_verifies_as_torn_residue() {
        let mut data = clear_frame();
        data.extend_from_slice(&clear_frame());
        let n = data.len();
        data[n - 1] ^= 0x5A; // tear the last byte of the last frame
        let (vfs, path) = ram_journal(&data);
        let report = verify_journal_with_vfs(&vfs, &path).unwrap();
        assert_eq!(report.corruption_offset, None, "torn tail is not corruption");
        assert_eq!(report.trailing_torn_bytes, clear_frame().len() as u64);
        assert_eq!(report.frames_replayable, 1);
        assert!(!report.is_clean());
    }

    /// A torn partial frame after the bad final frame folds into the
    /// same torn-residue count.
    #[test]
    fn bad_crc_final_frame_plus_partial_tail_is_all_torn() {
        let mut data = clear_frame();
        let first_len = data.len();
        data.extend_from_slice(&clear_frame());
        let n = data.len();
        data[n - 1] ^= 0xFF;
        data.extend_from_slice(&[7, 7, 7]); // incomplete next frame
        let (vfs, path) = ram_journal(&data);
        let report = verify_journal_with_vfs(&vfs, &path).unwrap();
        assert_eq!(report.corruption_offset, None);
        assert_eq!(report.trailing_torn_bytes, (data.len() - first_len) as u64);
    }

    /// A bad CRC with an intact frame *beyond* it stays hard
    /// corruption — framing past it cannot be trusted.
    #[test]
    fn bad_crc_with_intact_frame_beyond_stays_corruption() {
        let mut data = clear_frame();
        let first_len = data.len();
        data.extend_from_slice(&clear_frame());
        data[first_len + 5] ^= 0xFF; // a CRC byte of the middle frame
        data.extend_from_slice(&clear_frame());
        let (vfs, path) = ram_journal(&data);
        let report = verify_journal_with_vfs(&vfs, &path).unwrap();
        assert_eq!(report.corruption_offset, Some(first_len as u64));
        assert_eq!(report.frames_replayable, 1);
        assert!(!report.is_clean());
    }

    /// A frame-length prefix near `u32::MAX` must fall out as a torn
    /// tail, not overflow the end-of-frame arithmetic (which on 32-bit
    /// targets used to wrap and misparse the bytes that follow).
    #[test]
    fn absurd_frame_length_is_a_torn_tail() {
        let mut data = clear_frame();
        let good_len = data.len();
        data.extend_from_slice(&u32::MAX.to_le_bytes());
        data.extend_from_slice(b"garbage");
        let mut events = Vec::new();
        scan_frames(&data, |offset, outcome| {
            events.push((offset, matches!(outcome, FrameOutcome::TornTail(_))));
        });
        assert_eq!(events.len(), 2);
        assert_eq!(events[0], (0, false));
        assert_eq!(events[1], (good_len as u64, true));
    }
}
