//! The flight recorder: a bounded, lock-free ring of the last N
//! structured events.
//!
//! # Design
//!
//! The journal is a power-of-two ring of slots, each made entirely of
//! atomics and guarded by a per-slot sequence word (a seqlock):
//!
//! * a writer claims a ticket `n` from a global counter
//!   (`fetch_add`), CASes the slot's sequence from the previous
//!   generation's *stable* value to the *writing* value `2n + 1`,
//!   stores the fields, then publishes `2n + 2` with release
//!   ordering;
//! * a reader accepts a slot only when it observes the stable value
//!   `2n + 2` both before and after copying the fields (all-atomic
//!   fields make the racy copy well-defined; the double check makes
//!   it consistent).
//!
//! A writer whose CAS fails — the ring wrapped onto a slot another
//! writer is still filling — **drops its event** rather than spin:
//! the journal is a diagnostic of last resort and must never add a
//! wait to a hot path. Drops are counted ([`EventJournal::dropped`])
//! and only occur when ≥ capacity events are recorded while one
//! write is still in flight, which at flight-recorder event rates
//! (shed batches, slow operations, recoveries) is effectively never.
//!
//! # Per-call cost
//!
//! [`EventJournal::record`] is one `fetch_add`, one CAS, ~10 relaxed
//! stores and one release store — well under 100 ns — plus one
//! monotonic clock read. No allocation, no locks, no blocking.
//! Labels are truncated to [`MAX_LABEL_BYTES`] bytes (at a UTF-8
//! boundary) so the slot stays fixed-size.

use std::sync::atomic::{AtomicU64, Ordering, fence};
use std::time::Instant;

/// Longest label stored per event, in bytes; longer labels are
/// truncated at a UTF-8 character boundary.
pub const MAX_LABEL_BYTES: usize = 24;
const LABEL_WORDS: usize = MAX_LABEL_BYTES / 8;

/// What happened; the flight-recorder event vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// A streaming anchored view re-anchored. The service no longer
    /// emits it (views are built per evaluation); the code stays
    /// reserved in the wire vocabulary.
    Reanchor = 0,
    /// A gram table was materialized from scratch instead of patched.
    /// Not emitted by the service any more; reserved like `Reanchor`.
    GramRebuild = 1,
    /// A report cache was wholesale-invalidated (confidence switch).
    CacheFullRefresh = 2,
    /// An ingest group was shed under backpressure.
    Shed = 3,
    /// An ingest call was rejected with a full queue.
    Reject = 4,
    /// An instrumented operation exceeded the slow-op threshold.
    SlowOp = 5,
    /// A shard thread was found dead at shutdown.
    ShardPanic = 6,
    /// Application-defined.
    Custom = 7,
    /// A supervised shard was respawned from its last checkpoint and
    /// its WAL replayed (`a` = recovery ordinal, `b` = recovery
    /// duration in nanoseconds).
    ShardRecovered = 8,
}

impl EventKind {
    /// Decodes the `u8` tag; `None` for values outside the
    /// vocabulary (wire decoding treats those as malformed).
    pub fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            0 => Self::Reanchor,
            1 => Self::GramRebuild,
            2 => Self::CacheFullRefresh,
            3 => Self::Shed,
            4 => Self::Reject,
            5 => Self::SlowOp,
            6 => Self::ShardPanic,
            7 => Self::Custom,
            8 => Self::ShardRecovered,
            _ => return None,
        })
    }

    /// A stable lowercase name (used as a metric label).
    pub fn name(self) -> &'static str {
        match self {
            Self::Reanchor => "reanchor",
            Self::GramRebuild => "gram_rebuild",
            Self::CacheFullRefresh => "cache_full_refresh",
            Self::Shed => "shed",
            Self::Reject => "reject",
            Self::SlowOp => "slow_op",
            Self::ShardPanic => "shard_panic",
            Self::Custom => "custom",
            Self::ShardRecovered => "shard_recovered",
        }
    }
}

/// One recovered journal entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Monotonic event number (the writer's ticket); gaps mean
    /// events were dropped or are mid-write.
    pub seq: u64,
    /// Nanoseconds since the journal was created (monotonic clock).
    pub timestamp_ns: u64,
    /// What happened.
    pub kind: EventKind,
    /// Originating shard, or `u32::MAX` for fleet-level events.
    pub shard: u32,
    /// Kind-specific value (e.g. a duration in ns, a response count).
    pub a: u64,
    /// Second kind-specific value.
    pub b: u64,
    /// Short free-form label (e.g. the stage name of a slow op).
    pub label: String,
}

/// Fleet-level marker for [`Event::shard`].
pub const NO_SHARD: u32 = u32::MAX;

/// One all-atomic slot; see the [module docs](self) for the seqlock
/// protocol. `meta` packs `kind` (byte 0), label length (byte 1) and
/// `shard` (bytes 4–7).
#[derive(Debug, Default)]
struct Slot {
    seq: AtomicU64,
    ts: AtomicU64,
    meta: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
    label: [AtomicU64; LABEL_WORDS],
}

/// The bounded lock-free flight recorder; see the
/// [module docs](self).
#[derive(Debug)]
pub struct EventJournal {
    slots: Box<[Slot]>,
    mask: u64,
    next: AtomicU64,
    dropped: AtomicU64,
    base: Instant,
}

impl EventJournal {
    /// A journal keeping the last `capacity` events (rounded up to a
    /// power of two, minimum 8).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(8).next_power_of_two();
        Self {
            slots: (0..cap).map(|_| Slot::default()).collect(),
            mask: cap as u64 - 1,
            next: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            base: Instant::now(),
        }
    }

    /// Slots in the ring.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Events recorded over the journal's lifetime (including ones
    /// the ring has since overwritten).
    pub fn recorded(&self) -> u64 {
        self.next.load(Ordering::Acquire)
    }

    /// Events lost to wrap-around contention (a writer found its slot
    /// still being filled by an older writer and gave up rather than
    /// wait).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Nanoseconds since the journal was created, on the monotonic
    /// clock every event timestamp uses.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.base.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records one event. Lock-free and non-blocking; see the
    /// [module docs](self) for cost and the (counted) drop case.
    pub fn record(&self, kind: EventKind, shard: u32, a: u64, b: u64, label: &str) {
        let ts = self.now_ns();
        let n = self.next.fetch_add(1, Ordering::AcqRel);
        let cap = self.slots.len() as u64;
        let slot = &self.slots[(n & self.mask) as usize];
        let expected = if n < cap { 0 } else { 2 * (n - cap) + 2 };
        if slot
            .seq
            .compare_exchange(expected, 2 * n + 1, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let label = truncate_utf8(label, MAX_LABEL_BYTES);
        slot.ts.store(ts, Ordering::Relaxed);
        slot.meta.store(
            u64::from(kind as u8) | (label.len() as u64) << 8 | u64::from(shard) << 32,
            Ordering::Relaxed,
        );
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        let mut bytes = [0u8; MAX_LABEL_BYTES];
        bytes[..label.len()].copy_from_slice(label.as_bytes());
        for (w, chunk) in slot.label.iter().zip(bytes.chunks_exact(8)) {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            w.store(u64::from_le_bytes(word), Ordering::Relaxed);
        }
        slot.seq.store(2 * n + 2, Ordering::Release);
    }

    /// The retained events, oldest first. Entries being overwritten
    /// at the moment of the read are skipped (their tickets are
    /// simply absent), so the result is always a set of complete,
    /// untorn events in ticket order.
    pub fn snapshot(&self) -> Vec<Event> {
        let total = self.next.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let start = total.saturating_sub(cap);
        let mut out = Vec::with_capacity((total - start) as usize);
        for n in start..total {
            let slot = &self.slots[(n & self.mask) as usize];
            if slot.seq.load(Ordering::Acquire) != 2 * n + 2 {
                continue;
            }
            let ts = slot.ts.load(Ordering::Relaxed);
            let meta = slot.meta.load(Ordering::Relaxed);
            let a = slot.a.load(Ordering::Relaxed);
            let b = slot.b.load(Ordering::Relaxed);
            let mut bytes = [0u8; MAX_LABEL_BYTES];
            for (chunk, w) in bytes.chunks_exact_mut(8).zip(&slot.label) {
                chunk.copy_from_slice(&w.load(Ordering::Relaxed).to_le_bytes());
            }
            // Field loads above must settle before the validity
            // re-check; the acquire fence orders them.
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != 2 * n + 2 {
                continue;
            }
            let Some(kind) = EventKind::from_u8((meta & 0xFF) as u8) else {
                continue;
            };
            let len = ((meta >> 8) & 0xFF) as usize;
            let label = std::str::from_utf8(&bytes[..len.min(MAX_LABEL_BYTES)])
                .unwrap_or("")
                .to_string();
            out.push(Event {
                seq: n,
                timestamp_ns: ts,
                kind,
                shard: (meta >> 32) as u32,
                a,
                b,
                label,
            });
        }
        out
    }
}

/// The longest prefix of `s` that fits in `max` bytes without
/// splitting a UTF-8 character.
fn truncate_utf8(s: &str, max: usize) -> &str {
    if s.len() <= max {
        return s;
    }
    let mut end = max;
    while end > 0 && !s.is_char_boundary(end) {
        end -= 1;
    }
    &s[..end]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_come_back_in_order_with_payloads() {
        let j = EventJournal::new(16);
        j.record(EventKind::Reanchor, 2, 7, 0, "view");
        j.record(EventKind::SlowOp, 0, 1_000_000, 500_000, "drain_eval");
        j.record(EventKind::Shed, NO_SHARD, 64, 0, "");
        let events = j.snapshot();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].kind, EventKind::Reanchor);
        assert_eq!(events[0].shard, 2);
        assert_eq!(events[0].a, 7);
        assert_eq!(events[1].label, "drain_eval");
        assert_eq!(events[2].shard, NO_SHARD);
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
        assert!(
            events
                .windows(2)
                .all(|w| w[0].timestamp_ns <= w[1].timestamp_ns)
        );
        assert_eq!(j.dropped(), 0);
    }

    #[test]
    fn ring_keeps_only_the_tail() {
        let j = EventJournal::new(8);
        for i in 0..20u64 {
            j.record(EventKind::Custom, 0, i, 0, "x");
        }
        let events = j.snapshot();
        assert_eq!(events.len(), 8);
        assert_eq!(events.first().unwrap().a, 12, "oldest retained is #12");
        assert_eq!(events.last().unwrap().a, 19);
        assert_eq!(j.recorded(), 20);
        assert_eq!(j.dropped(), 0, "serial writers never contend");
    }

    #[test]
    fn labels_truncate_at_utf8_boundaries() {
        let j = EventJournal::new(8);
        // 'é' is 2 bytes; 13 of them is 26 bytes — the 24-byte cap
        // falls on a boundary (12 chars).
        let label: String = "é".repeat(13);
        j.record(EventKind::Custom, 0, 0, 0, &label);
        let events = j.snapshot();
        assert_eq!(events[0].label, "é".repeat(12));
    }

    #[test]
    fn kind_tags_roundtrip() {
        for tag in 0..9u8 {
            let k = EventKind::from_u8(tag).expect("valid tag");
            assert_eq!(k as u8, tag);
            assert!(!k.name().is_empty());
        }
        assert_eq!(EventKind::from_u8(9), None);
        assert_eq!(EventKind::from_u8(255), None);
    }
}
