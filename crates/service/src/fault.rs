//! Deterministic seeded fault injection — the harness the recovery
//! tests and the wire retry tests share.
//!
//! A [`FaultPlan`] decides, purely as a function of its seed and the
//! operation's coordinates (shard + batch ordinal for panics,
//! connection + frame ordinal for drops, which fire at explicit sites
//! only), whether a fault fires. The
//! same plan therefore injects the same faults on every run, which is
//! what lets the differential suites pin recovered state bit-identical
//! to a never-crashed twin: both sides see the same deterministic
//! workload, only one sees the faults.
//!
//! Two fault families:
//!
//! * **Shard panics** ([`FaultPlan::panic_for`]) — consumed by the
//!   shard supervision loop. Where the panic lands is a
//!   [`CrashPoint`]: mid-batch (half the batch applied, then death),
//!   at the next drain barrier, or at the next assessment message.
//! * **Connection drops** ([`FaultPlan::should_drop`]) — consumed by
//!   the wire server, which severs the connection after applying a
//!   request but before replying: the ambiguous-outcome window the
//!   retrying client's sequence-id dedup exists for.

/// Where an injected shard panic lands; see [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CrashPoint {
    /// Die halfway through applying the ingest batch: the recovery
    /// path must discard the half-applied suffix state and replay the
    /// whole batch from the WAL.
    #[default]
    MidBatch,
    /// Arm the fault at the batch, fire it when the shard handles its
    /// next drain barrier: the caller's drain fails once, recovery
    /// runs, a retried drain succeeds.
    AtDrain,
    /// Arm the fault at the batch, fire it when the shard handles its
    /// next assessment message, before evaluating: the caller's
    /// request fails once, recovery runs, a retried request succeeds.
    AtAssess,
}

/// A deterministic seeded fault schedule; see the `fault` module docs.
/// Cheap to share (`Arc`) between a service config, a wire config and
/// the test driving both.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    seed: u64,
    /// Per-(shard, batch) panic probability in `[0, 1]`.
    panic_rate: f64,
    /// Explicit (shard, 1-based batch ordinal) panic sites.
    panic_at: Vec<(usize, u64)>,
    crash_point: CrashPoint,
    /// Explicit (connection ordinal, 1-based frame ordinal) drop
    /// sites.
    drop_at: Vec<(u64, u64)>,
}

/// `splitmix64` — the same tiny deterministic mixer the workspace's
/// vendored `rand` builds on; good avalanche, no state.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Deterministic Bernoulli: true with probability `rate`, decided by
/// hashing the coordinates under `seed`.
fn decide(seed: u64, domain: u64, a: u64, b: u64, rate: f64) -> bool {
    if rate <= 0.0 {
        return false;
    }
    if rate >= 1.0 {
        return true;
    }
    let h = splitmix64(seed ^ splitmix64(domain ^ splitmix64(a ^ splitmix64(b))));
    // Compare in the integer domain: rate · 2⁶⁴ as a threshold.
    (h as f64) < rate * (u64::MAX as f64)
}

impl FaultPlan {
    /// An empty plan (injects nothing) with the given seed.
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// Sets the per-(shard, batch) panic probability.
    pub fn with_panic_rate(mut self, rate: f64) -> Self {
        self.panic_rate = rate;
        self
    }

    /// Adds an explicit panic site: shard `shard`'s `batch`-th ingest
    /// batch (1-based).
    pub fn with_panic_at(mut self, shard: usize, batch: u64) -> Self {
        self.panic_at.push((shard, batch));
        self
    }

    /// Sets where injected panics land (default
    /// [`CrashPoint::MidBatch`]).
    pub fn with_crash_point(mut self, point: CrashPoint) -> Self {
        self.crash_point = point;
        self
    }

    /// Adds an explicit drop site: connection `conn`'s `frame`-th
    /// request frame (both 1-based; connections are numbered in accept
    /// order).
    pub fn with_drop_at(mut self, conn: u64, frame: u64) -> Self {
        self.drop_at.push((conn, frame));
        self
    }

    /// Whether (and where) shard `shard` panics while handling its
    /// `batch`-th ingest batch (1-based, monotone across recoveries).
    pub fn panic_for(&self, shard: usize, batch: u64) -> Option<CrashPoint> {
        let hit = self.panic_at.contains(&(shard, batch))
            || decide(self.seed, 0x50414e49, shard as u64, batch, self.panic_rate);
        hit.then_some(self.crash_point)
    }

    /// Whether the server severs connection `conn` after handling its
    /// `frame`-th request (1-based) instead of replying.
    pub fn should_drop(&self, conn: u64, frame: u64) -> bool {
        self.drop_at.contains(&(conn, frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_sites_fire_exactly() {
        let plan = FaultPlan::seeded(7)
            .with_panic_at(1, 3)
            .with_crash_point(CrashPoint::AtDrain)
            .with_drop_at(2, 5);
        assert_eq!(plan.panic_for(1, 3), Some(CrashPoint::AtDrain));
        assert_eq!(plan.panic_for(1, 2), None);
        assert_eq!(plan.panic_for(0, 3), None);
        assert!(plan.should_drop(2, 5));
        assert!(!plan.should_drop(2, 4));
    }

    #[test]
    fn rates_are_deterministic_and_roughly_calibrated() {
        let plan = FaultPlan::seeded(42).with_panic_rate(0.01);
        let twin = FaultPlan::seeded(42).with_panic_rate(0.01);
        let mut hits = 0u32;
        for batch in 1..=10_000u64 {
            let a = plan.panic_for(0, batch).is_some();
            assert_eq!(a, twin.panic_for(0, batch).is_some(), "determinism");
            hits += u32::from(a);
        }
        // 1% of 10k with generous slack: the decision is a hash, not a
        // statistical RNG, but it should not be wildly off.
        assert!((30..=300).contains(&hits), "got {hits} hits");
        // A different seed explores a different schedule.
        let other = FaultPlan::seeded(43).with_panic_rate(0.01);
        let diverges = (1..=1000u64)
            .any(|b| plan.panic_for(0, b).is_some() != other.panic_for(0, b).is_some());
        assert!(diverges);
    }

    #[test]
    fn zero_and_one_rates_short_circuit() {
        let never = FaultPlan::seeded(1);
        assert_eq!(never.panic_for(0, 1), None);
        assert!(!never.should_drop(0, 1));
        let always = FaultPlan::seeded(1).with_panic_rate(1.0);
        assert_eq!(always.panic_for(9, 9), Some(CrashPoint::MidBatch));
    }
}
