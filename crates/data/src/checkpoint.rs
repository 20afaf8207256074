//! Versioned binary checkpoints for [`StreamingIndex`] — the
//! crash-recovery substrate for the service layer.
//!
//! A checkpoint captures everything a shard needs to resume exactly
//! where it left off: the index shape, every ingested response row,
//! and the ingest-epoch state that drives the dirty-set report caches.
//! [`StreamingIndex::checkpoint`] / [`StreamingIndex::restore`]
//! round-trip **bit-identically**: the restored index compares equal
//! to the original ([`OverlapIndex`](crate::OverlapIndex) derives
//! `Eq`), every epoch counter matches, and re-encoding the restored
//! substrate reproduces the original bytes byte for byte.
//!
//! # Format (version 2, all integers little-endian)
//!
//! | Field        | Bytes | Meaning |
//! |--------------|-------|---------|
//! | magic        | 8     | `b"CRWDCKPT"` |
//! | version      | 2     | format version, currently `2` |
//! | arity        | 2     | label arity |
//! | n_workers    | 8     | worker-id space, at most `u32::MAX` |
//! | n_tasks      | 8     | task-id space, at most `u32::MAX` |
//! | n_responses  | 8     | total rows that follow (cross-checked) |
//! | epoch        | 8     | monotone ingest epoch |
//! | rows         | —     | per worker: `len: u32`, then `len ×` (`task: u32`, `label: u16`), task-ascending |
//! | dirty_at     | 8·m   | per-worker dirty epochs |
//! | checksum     | 8     | FNV-1a 64 over every preceding byte |
//!
//! Version 1 carried a pair-table backend byte after the version;
//! there is one pair table now, and version 1 bytes are refused with
//! [`CheckpointError::UnsupportedVersion`].
//!
//! Only the task-sorted worker rows travel: the worker-sorted task
//! rows and the pair table (each row's sparse or dense form included)
//! are deterministic functions of the row set, so
//! [`StreamingIndex::restore`] rebuilds them by replaying the rows
//! through [`StreamingIndex::record_response`] — which also makes the
//! decoder inherit the full ingest validation (arity, duplicates,
//! id ranges) for free. Anchored views are *not* serialized: they are
//! lazy caches that re-anchor deterministically on first use, and a
//! freshly restored shard re-deriving them is exactly the dormant
//! state a freshly spawned shard starts in.
//!
//! Decoding never panics on hostile bytes: truncation, bad magic,
//! unknown versions, malformed counts, shapes too large to allocate
//! and checksum mismatches all come back as typed
//! [`CheckpointError`]s. Worker counts are bounded by the input itself
//! (every worker occupies at least a 4-byte row length and an 8-byte
//! dirty epoch) and task counts by the `u32` id space; the task rows
//! are allocated fallibly.

use crate::DataError;
use crate::ids::{TaskId, WorkerId};
use crate::label::Label;
use crate::matrix::Response;
use crate::streaming::StreamingIndex;

/// Leading magic of every checkpoint.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"CRWDCKPT";

/// The format version this build writes (and the only one it reads).
pub const CHECKPOINT_VERSION: u16 = 2;

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
    /// A structurally invalid field (count overflow, a count the
    /// input cannot hold, trailing bytes).
    Malformed(&'static str),
    /// The declared shape is valid but could not be allocated.
    TooLarge(&'static str),
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
            Self::TooLarge(what) => write!(f, "checkpoint {what} exceeds available memory"),
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

/// Converts a `u64` id-space size to `usize`, refusing sizes beyond
/// the `u32` id space.
fn id_space(v: u64, what: &'static str) -> Result<usize, CheckpointError> {
    u32::try_from(v)
        .map(|v| v as usize)
        .map_err(|_| CheckpointError::Malformed(what))
}

impl StreamingIndex {
    /// Serializes the substrate to the versioned binary checkpoint
    /// format (see the [module docs](self)). Deterministic: equal
    /// substrates produce byte-identical checkpoints.
    pub fn checkpoint(&self) -> Vec<u8> {
        let index = self.index();
        let m = index.n_workers();
        let mut out = Vec::with_capacity(52 + index.n_responses() * 6 + m * 12);
        out.extend_from_slice(&CHECKPOINT_MAGIC);
        put_u16(&mut out, CHECKPOINT_VERSION);
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
    /// [`StreamingIndex::record_response`] (rebuilding the task rows
    /// and the pair table — deterministic functions of the row set),
    /// then the serialized epoch state is reinstated so dirty-set
    /// report caches resume exactly.
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
        let arity = r.u16("arity")?;
        if arity < 2 {
            return Err(CheckpointError::Malformed("arity"));
        }
        let m = id_space(r.u64("worker count")?, "worker count")?;
        let n_tasks = id_space(r.u64("task count")?, "task count")?;
        let n_responses = r.u64("response count")?;
        let epoch = r.u64("epoch")?;
        // Refuse counts the input cannot possibly hold before
        // allocating anything: each worker occupies ≥ 12 bytes (row
        // length and dirty epoch), each response 6.
        if m > r.remaining() / 12 {
            return Err(CheckpointError::Malformed("worker count"));
        }
        if n_responses > ((r.remaining() - 12 * m) / 6) as u64 {
            return Err(CheckpointError::Malformed("response count"));
        }
        let n_responses = n_responses as usize;

        let mut stream = StreamingIndex::try_new(m, n_tasks, arity)
            .map_err(|_| CheckpointError::TooLarge("task count"))?;
        let mut replayed = 0usize;
        for w in 0..m as u32 {
            let len = r.u32("row length")? as usize;
            if len > r.remaining() / 6 {
                return Err(CheckpointError::Malformed("row length"));
            }
            for _ in 0..len {
                let task = r.u32("row task")?;
                let label = r.u16("row label")?;
                if task as usize >= n_tasks {
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

    fn sample() -> StreamingIndex {
        let mut s = StreamingIndex::new(5, 8, 3);
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
    fn round_trip_is_bit_identical() {
        let original = sample();
        // Every worker but 3 (one peer) reaches the dense pair-row
        // threshold 3·d ≥ 5.
        assert_eq!(original.index().pairs().dense_rows(), 4);
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

    #[test]
    fn empty_substrate_round_trips() {
        let original = StreamingIndex::new(3, 4, 2);
        let bytes = original.checkpoint();
        let restored = StreamingIndex::restore(&bytes).unwrap();
        assert_eq!(restored.index(), original.index());
        assert_eq!(restored.epoch(), 0);
        assert_eq!(restored.checkpoint(), bytes);
    }

    #[test]
    fn truncation_is_typed_at_every_length() {
        let bytes = sample().checkpoint();
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
        let bytes = sample().checkpoint();
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
        let mut bytes = sample().checkpoint();
        bytes[0] = b'X';
        assert_eq!(
            StreamingIndex::restore(&bytes).unwrap_err(),
            CheckpointError::BadMagic
        );

        let mut versioned = sample().checkpoint();
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

    /// Re-seals `body` (everything but the trailer) with its checksum.
    fn sealed(mut body: Vec<u8>) -> Vec<u8> {
        let sum = fnv1a(&body);
        body.extend_from_slice(&sum.to_le_bytes());
        body
    }

    /// A version-2 header for an empty substrate of the given shape,
    /// with `tail` appended before the trailer.
    fn header(m: u64, n_tasks: u64, tail: &[u8]) -> Vec<u8> {
        let mut body = CHECKPOINT_MAGIC.to_vec();
        put_u16(&mut body, CHECKPOINT_VERSION);
        put_u16(&mut body, 2);
        put_u64(&mut body, m);
        put_u64(&mut body, n_tasks);
        put_u64(&mut body, 0);
        put_u64(&mut body, 0);
        body.extend_from_slice(tail);
        sealed(body)
    }

    #[test]
    fn version_one_is_refused() {
        // A version-1 checkpoint of an empty 1-worker, 1-task dense
        // substrate, backend byte and all.
        let mut body = CHECKPOINT_MAGIC.to_vec();
        put_u16(&mut body, 1);
        body.push(0);
        put_u16(&mut body, 2);
        for v in [1u64, 1, 0, 0] {
            put_u64(&mut body, v);
        }
        put_u32(&mut body, 0);
        put_u64(&mut body, 0);
        assert_eq!(
            StreamingIndex::restore(&sealed(body)).unwrap_err(),
            CheckpointError::UnsupportedVersion(1)
        );
    }

    #[test]
    fn header_shapes_match_the_encoder() {
        let empty = StreamingIndex::new(0, 3, 2).checkpoint();
        assert_eq!(header(0, 3, &[]), empty);
        assert_eq!(empty.len(), 52);
        let one = StreamingIndex::new(1, 3, 2).checkpoint();
        assert_eq!(header(1, 3, &[0; 12]), one);
    }

    /// Task counts beyond the `u32` id space are refused before
    /// anything is allocated.
    #[test]
    fn task_counts_beyond_the_id_space_are_malformed() {
        for n_tasks in [u64::MAX, u32::MAX as u64 + 2, u32::MAX as u64 + 1] {
            assert_eq!(
                StreamingIndex::restore(&header(0, n_tasks, &[])).unwrap_err(),
                CheckpointError::Malformed("task count"),
                "n_tasks = {n_tasks}"
            );
        }
    }

    /// Every worker occupies at least 12 bytes (row length and dirty
    /// epoch), so a worker count one past `remaining / 12` is refused
    /// up front — and so is one beyond the `u32` id space.
    #[test]
    fn worker_counts_the_input_cannot_hold_are_malformed() {
        let three_workers = [0u8; 36];
        assert!(StreamingIndex::restore(&header(3, 4, &three_workers)).is_ok());
        for m in [4, u32::MAX as u64 + 1, u64::MAX] {
            assert_eq!(
                StreamingIndex::restore(&header(m, 4, &three_workers)).unwrap_err(),
                CheckpointError::Malformed("worker count"),
                "m = {m}"
            );
        }
    }

    #[test]
    fn invalid_rows_fail_replay_validation_not_panic() {
        // Hand-build a checkpoint whose row labels exceed the arity.
        let mut s = StreamingIndex::new(2, 2, 4);
        s.record_response(Response {
            worker: WorkerId(0),
            task: TaskId(0),
            label: Label(3),
        })
        .unwrap();
        let mut bytes = s.checkpoint();
        // Arity field sits right after magic + version.
        let arity_at = 8 + 2;
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
        let mut original = sample();
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
