//! Versioned binary checkpoints for [`StreamingIndex`] — the
//! crash-recovery substrate for the service layer.
//!
//! A checkpoint captures everything a shard needs to resume exactly
//! where it left off: the index shape, the pair-table backend, every
//! ingested response row, and the ingest-epoch state that drives the
//! dirty-set report caches. [`StreamingIndex::checkpoint`] /
//! [`StreamingIndex::restore`] round-trip **bit-identically**: the
//! restored index compares equal to the original ([`OverlapIndex`](crate::OverlapIndex)
//! derives `Eq`), every epoch counter matches, and re-encoding the
//! restored substrate reproduces the original bytes byte for byte.
//!
//! # Format (version 1, all integers little-endian)
//!
//! | Field        | Bytes | Meaning |
//! |--------------|-------|---------|
//! | magic        | 8     | `b"CRWDCKPT"` |
//! | version      | 2     | format version, currently `1` |
//! | backend      | 1     | `0` = dense pair table, `1` = sparse [`crate::PairMap`] |
//! | arity        | 2     | label arity |
//! | n_workers    | 8     | worker-id space |
//! | n_tasks      | 8     | task-id space |
//! | n_responses  | 8     | total rows that follow (cross-checked) |
//! | epoch        | 8     | monotone ingest epoch |
//! | rows         | —     | per worker: `len: u32`, then `len ×` (`task: u32`, `label: u16`), task-ascending |
//! | dirty_at     | 8·m   | per-worker dirty epochs |
//! | checksum     | 8     | FNV-1a 64 over every preceding byte |
//!
//! Only the task-sorted worker rows travel: the worker-sorted task
//! rows, the pair table (dense or sparse), and the dense mirror
//! adjacency are all deterministic functions of the row set, so
//! [`StreamingIndex::restore`] rebuilds them by replaying the rows
//! through [`StreamingIndex::record_response`] — which also makes the
//! decoder inherit the full ingest validation (arity, duplicates,
//! id ranges) for free. Anchored views are *not* serialized: they are
//! lazy caches that re-anchor deterministically on first use, and a
//! freshly restored shard re-deriving them is exactly the dormant
//! state a freshly spawned shard starts in.
//!
//! Decoding never panics on hostile bytes: truncation, bad magic,
//! unknown versions, malformed counts and checksum mismatches all come
//! back as typed [`CheckpointError`]s.

use crate::ids::{TaskId, WorkerId};
use crate::index::PairBackend;
use crate::label::Label;
use crate::matrix::Response;
use crate::streaming::StreamingIndex;
use crate::{DataError, PairTable};

/// Leading magic of every checkpoint.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"CRWDCKPT";

/// The format version this build writes (and the only one it reads).
pub const CHECKPOINT_VERSION: u16 = 1;

/// Why checkpoint bytes failed to decode. Every variant is a typed
/// refusal — hostile or damaged input never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The input ended before the field named here was complete.
    Truncated(&'static str),
    /// The first eight bytes are not [`CHECKPOINT_MAGIC`].
    BadMagic,
    /// The version field names a format this build does not read.
    UnsupportedVersion(u16),
    /// A structurally invalid field (count overflow, trailing bytes,
    /// out-of-range tag).
    Malformed(&'static str),
    /// The trailing FNV-1a checksum does not match the content.
    ChecksumMismatch {
        /// Checksum recomputed over the received content.
        computed: u64,
        /// Checksum stored in the trailer.
        stored: u64,
    },
    /// The rows failed ingest validation during replay (label out of
    /// arity range, duplicate response, id out of shape).
    Invalid(DataError),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated(what) => write!(f, "checkpoint truncated reading {what}"),
            Self::BadMagic => write!(f, "checkpoint magic mismatch"),
            Self::UnsupportedVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            Self::Malformed(what) => write!(f, "malformed checkpoint field: {what}"),
            Self::ChecksumMismatch { computed, stored } => write!(
                f,
                "checkpoint checksum mismatch: computed {computed:#018x}, stored {stored:#018x}"
            ),
            Self::Invalid(e) => write!(f, "checkpoint rows failed validation: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Invalid(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DataError> for CheckpointError {
    fn from(e: DataError) -> Self {
        Self::Invalid(e)
    }
}

/// FNV-1a 64 over `bytes` — dependency-free, deterministic, and fast
/// enough that checkpointing stays ingest-path cheap.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// A panic-free little-endian reader over checkpoint bytes.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], CheckpointError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or(CheckpointError::Malformed(what))?;
        if end > self.buf.len() {
            return Err(CheckpointError::Truncated(what));
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u16(&mut self, what: &'static str) -> Result<u16, CheckpointError> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, CheckpointError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, CheckpointError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

/// Converts a `u64` shape field to `usize`, refusing sizes this
/// address space cannot hold.
fn shape(v: u64, what: &'static str) -> Result<usize, CheckpointError> {
    usize::try_from(v).map_err(|_| CheckpointError::Malformed(what))
}

impl StreamingIndex {
    /// Serializes the substrate to the versioned binary checkpoint
    /// format (see the [module docs](self)). Deterministic: equal
    /// substrates produce byte-identical checkpoints.
    pub fn checkpoint(&self) -> Vec<u8> {
        let index = self.index();
        let m = index.n_workers();
        let mut out = Vec::with_capacity(45 + index.n_responses() * 6 + m * 12);
        out.extend_from_slice(&CHECKPOINT_MAGIC);
        put_u16(&mut out, CHECKPOINT_VERSION);
        out.push(match index.pairs() {
            PairTable::Dense(_) => 0,
            PairTable::Sparse(_) => 1,
        });
        put_u16(&mut out, index.arity());
        put_u64(&mut out, m as u64);
        put_u64(&mut out, index.n_tasks() as u64);
        put_u64(&mut out, index.n_responses() as u64);
        put_u64(&mut out, self.epoch());
        for w in 0..m as u32 {
            let row = index.worker_responses(WorkerId(w));
            put_u32(&mut out, row.len() as u32);
            for &(task, label) in row {
                put_u32(&mut out, task);
                put_u16(&mut out, label.0);
            }
        }
        for w in 0..m as u32 {
            put_u64(&mut out, self.dirty_epoch(WorkerId(w)));
        }
        let checksum = fnv1a(&out);
        put_u64(&mut out, checksum);
        out
    }

    /// Decodes a checkpoint produced by [`StreamingIndex::checkpoint`]
    /// back into a substrate whose index state is bit-identical to the
    /// original's: the rows are replayed through
    /// [`StreamingIndex::record_response`] (rebuilding task rows, the
    /// pair table, and the dense mirror adjacency — all deterministic
    /// functions of the row set), then the serialized epoch state is
    /// reinstated so dirty-set report caches resume exactly.
    pub fn restore(bytes: &[u8]) -> Result<Self, CheckpointError> {
        if bytes.len() < CHECKPOINT_MAGIC.len() {
            return Err(CheckpointError::Truncated("magic"));
        }
        if bytes[..CHECKPOINT_MAGIC.len()] != CHECKPOINT_MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        // Validate the trailer before touching the content so a
        // corrupted body surfaces as a checksum mismatch, not as
        // whatever field the flipped bit happened to land in.
        if bytes.len() < CHECKPOINT_MAGIC.len() + 8 {
            return Err(CheckpointError::Truncated("checksum trailer"));
        }
        let body_len = bytes.len() - 8;
        let stored = u64::from_le_bytes(bytes[body_len..].try_into().expect("8-byte trailer"));
        let computed = fnv1a(&bytes[..body_len]);
        if computed != stored {
            return Err(CheckpointError::ChecksumMismatch { computed, stored });
        }

        let mut r = Reader::new(&bytes[..body_len]);
        r.take(CHECKPOINT_MAGIC.len(), "magic")?;
        let version = r.u16("version")?;
        if version != CHECKPOINT_VERSION {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        let backend = match r.take(1, "backend tag")?[0] {
            0 => PairBackend::Dense,
            1 => PairBackend::Sparse,
            _ => return Err(CheckpointError::Malformed("backend tag")),
        };
        let arity = r.u16("arity")?;
        if arity < 2 {
            return Err(CheckpointError::Malformed("arity"));
        }
        let m = shape(r.u64("worker count")?, "worker count")?;
        let n_tasks = shape(r.u64("task count")?, "task count")?;
        let n_responses = shape(r.u64("response count")?, "response count")?;
        // Each response occupies ≥ 6 bytes; refuse counts the input
        // cannot possibly hold before allocating anything.
        if n_responses > r.remaining() / 6 || m > r.remaining().saturating_add(1) {
            return Err(CheckpointError::Malformed("response count"));
        }
        let epoch = r.u64("epoch")?;

        let mut stream = StreamingIndex::new_with(m, n_tasks, arity, backend);
        let mut replayed = 0usize;
        for w in 0..m as u32 {
            let len = r.u32("row length")? as usize;
            if len > r.remaining() / 6 {
                return Err(CheckpointError::Malformed("row length"));
            }
            for _ in 0..len {
                let task = r.u32("row task")?;
                let label = r.u16("row label")?;
                if task as u64 >= n_tasks as u64 {
                    return Err(CheckpointError::Invalid(DataError::UnknownId {
                        kind: "task",
                        id: task,
                    }));
                }
                stream.record_response(Response {
                    worker: WorkerId(w),
                    task: TaskId(task),
                    label: Label(label),
                })?;
            }
            replayed += len;
        }
        if replayed != n_responses {
            return Err(CheckpointError::Malformed("response count"));
        }
        let mut dirty_at = Vec::with_capacity(m);
        for _ in 0..m {
            dirty_at.push(r.u64("dirty epoch")?);
        }
        if r.remaining() != 0 {
            return Err(CheckpointError::Malformed("trailing bytes"));
        }
        if dirty_at.iter().any(|&d| d > epoch) {
            return Err(CheckpointError::Malformed(
                "dirty epoch beyond ingest epoch",
            ));
        }
        stream.restore_epoch_state(epoch, dirty_at);
        Ok(stream)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OverlapSource;

    fn sample(backend: PairBackend) -> StreamingIndex {
        let mut s = StreamingIndex::new_with(5, 8, 3, backend);
        for (w, t, l) in [
            (0u32, 0u32, 0u16),
            (1, 0, 0),
            (2, 0, 1),
            (0, 1, 2),
            (1, 1, 2),
            (3, 2, 0),
            (4, 2, 1),
            (0, 3, 1),
            (4, 3, 1),
        ] {
            s.record_response(Response {
                worker: WorkerId(w),
                task: TaskId(t),
                label: Label(l),
            })
            .unwrap();
        }
        s
    }

    #[test]
    fn round_trip_is_bit_identical_both_backends() {
        for backend in [PairBackend::Dense, PairBackend::Sparse] {
            let original = sample(backend);
            let bytes = original.checkpoint();
            let restored = StreamingIndex::restore(&bytes).unwrap();
            assert_eq!(restored.index(), original.index());
            assert_eq!(restored.epoch(), original.epoch());
            for w in 0..5u32 {
                assert_eq!(
                    restored.dirty_epoch(WorkerId(w)),
                    original.dirty_epoch(WorkerId(w))
                );
                assert_eq!(
                    restored.pair(WorkerId(w), WorkerId((w + 1) % 5)),
                    original.pair(WorkerId(w), WorkerId((w + 1) % 5))
                );
            }
            // Re-encoding the restored substrate reproduces the bytes.
            assert_eq!(restored.checkpoint(), bytes);
        }
    }

    #[test]
    fn empty_substrate_round_trips() {
        let original = StreamingIndex::new_with(3, 4, 2, PairBackend::Sparse);
        let bytes = original.checkpoint();
        let restored = StreamingIndex::restore(&bytes).unwrap();
        assert_eq!(restored.index(), original.index());
        assert_eq!(restored.epoch(), 0);
        assert_eq!(restored.checkpoint(), bytes);
    }

    #[test]
    fn truncation_is_typed_at_every_length() {
        let bytes = sample(PairBackend::Sparse).checkpoint();
        for len in 0..bytes.len() {
            let err = StreamingIndex::restore(&bytes[..len]).unwrap_err();
            assert!(
                matches!(
                    err,
                    CheckpointError::Truncated(_) | CheckpointError::ChecksumMismatch { .. }
                ),
                "prefix of {len} bytes gave {err:?}"
            );
        }
    }

    #[test]
    fn corruption_is_caught_by_the_checksum() {
        let bytes = sample(PairBackend::Dense).checkpoint();
        for i in 0..bytes.len() - 8 {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            let err = StreamingIndex::restore(&bad).unwrap_err();
            assert!(
                matches!(
                    err,
                    CheckpointError::ChecksumMismatch { .. } | CheckpointError::BadMagic
                ),
                "flip at {i} gave {err:?}"
            );
        }
    }

    #[test]
    fn bad_magic_and_version_are_typed() {
        let mut bytes = sample(PairBackend::Sparse).checkpoint();
        bytes[0] = b'X';
        assert_eq!(
            StreamingIndex::restore(&bytes).unwrap_err(),
            CheckpointError::BadMagic
        );

        let mut versioned = sample(PairBackend::Sparse).checkpoint();
        versioned[8] = 0xFF;
        versioned[9] = 0xFF;
        let body = versioned.len() - 8;
        let sum = fnv1a(&versioned[..body]);
        versioned[body..].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            StreamingIndex::restore(&versioned).unwrap_err(),
            CheckpointError::UnsupportedVersion(0xFFFF)
        );
    }

    #[test]
    fn invalid_rows_fail_replay_validation_not_panic() {
        // Hand-build a checkpoint whose row labels exceed the arity.
        let mut s = StreamingIndex::new_with(2, 2, 4, PairBackend::Sparse);
        s.record_response(Response {
            worker: WorkerId(0),
            task: TaskId(0),
            label: Label(3),
        })
        .unwrap();
        let mut bytes = s.checkpoint();
        // Arity field sits right after magic + version + backend tag.
        let arity_at = 8 + 2 + 1;
        bytes[arity_at] = 2;
        bytes[arity_at + 1] = 0;
        let body = bytes.len() - 8;
        let sum = fnv1a(&bytes[..body]);
        let at = bytes.len() - 8;
        bytes[at..].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            StreamingIndex::restore(&bytes).unwrap_err(),
            CheckpointError::Invalid(DataError::LabelOutOfRange { .. })
        ));
    }

    #[test]
    fn restored_substrate_keeps_streaming() {
        // A restored substrate is not a dead snapshot: further ingest
        // must behave exactly like ingest into the original.
        let mut original = sample(PairBackend::Sparse);
        let mut restored = StreamingIndex::restore(&original.checkpoint()).unwrap();
        let extra = Response {
            worker: WorkerId(2),
            task: TaskId(5),
            label: Label(2),
        };
        original.record_response(extra).unwrap();
        restored.record_response(extra).unwrap();
        assert_eq!(restored.index(), original.index());
        assert_eq!(restored.epoch(), original.epoch());
        assert_eq!(restored.checkpoint(), original.checkpoint());
    }
}
