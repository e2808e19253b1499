//! The event-driven shard scheduler's data structures: a hierarchical
//! timer wheel keyed on the shard's scheduling pass (one pass = one
//! [`VirtualClock`](crate::VirtualClock) tick slot for every runnable
//! session).
//!
//! # Timer wheel
//!
//! [`TimerWheel`] is the classic hashed hierarchical wheel (Varghese &
//! Lauck): `LEVELS` rings of `SLOTS` buckets each, level `k` spanning
//! `SLOTS^(k+1)` passes at a granularity of `SLOTS^k`. Insertion is
//! O(1); advancing fires level-0 buckets and cascades a higher-level
//! bucket only when the ring below wraps. Entries carry their exact due
//! pass, so a cascade or an over-wide bucket can never fire early — an
//! entry pulled before its pass is simply re-hashed closer in. The
//! service uses it to wake parked sessions whose next state change is a
//! *scheduled* event (a §VII-C late command falling due) rather than
//! traffic; granularity is exactly one pass at level 0, so wakes land on
//! the precise tick the session named in
//! [`Wake::ParkedUntil`](crate::session::Wake::ParkedUntil).
//!
//! # Load accounting
//!
//! A shard's load (run-queue and parked depth, passes, wakeups by
//! source, migrations) lives in the telemetry plane's metric table next
//! to its other counters: see [`crate::telemetry`]. A
//! [`ServiceHandle`](crate::ServiceHandle) snapshots it into
//! [`ShardSummary`](crate::telemetry::ShardSummary) values — the inputs
//! of the balancer policy and of the idle-heavy benchmark's
//! `wakeups_per_tick` evidence.

/// How a shard decides which sessions to advance on each pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scheduler {
    /// Advance every live session on every pass — the flat sweep of the
    /// original runtime. O(total sessions) per tick; kept as the ground
    /// truth the event-driven scheduler is property-tested against.
    Eager,
    /// Wake-on-work: a run queue of runnable sessions plus a
    /// [`TimerWheel`] for scheduled wakes. Sessions at a verified idle
    /// fixed point park and cost zero work per pass until traffic, a
    /// close, or a timer fires; their skipped ticks are replayed exactly
    /// by `Session::catch_up`. O(active sessions) per tick.
    #[default]
    EventDriven,
}

impl Scheduler {
    /// True for [`Scheduler::EventDriven`].
    pub fn event_driven(self) -> bool {
        matches!(self, Scheduler::EventDriven)
    }
}

/// Buckets per wheel level (64 keeps slot math to shifts and masks).
const SLOTS: usize = 64;
/// Bits per level (`log2(SLOTS)`).
const LEVEL_BITS: u32 = 6;
/// Wheel levels: spans 64⁴ ≈ 16.7 M passes — ~93 h of 50 Hz virtual
/// time — before the top ring has to recycle entries through re-hashing.
const LEVELS: usize = 4;

/// One parked timer: the session to wake and the exact pass it is due.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    due: u64,
    id: u64,
}

/// Hierarchical timer wheel over scheduling passes (see module docs).
#[derive(Debug)]
pub struct TimerWheel {
    /// The pass the wheel has been advanced through.
    now: u64,
    /// `LEVELS × SLOTS` buckets of pending entries.
    levels: Vec<Vec<Vec<Entry>>>,
    /// Live entries across all buckets.
    len: usize,
}

impl TimerWheel {
    /// An empty wheel anchored at pass `now`.
    pub fn new(now: u64) -> Self {
        Self {
            now,
            levels: (0..LEVELS)
                .map(|_| (0..SLOTS).map(|_| Vec::new()).collect())
                .collect(),
            len: 0,
        }
    }

    /// Pending timers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no timer is pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The pass the wheel has been advanced through.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Re-anchors an **empty** wheel at pass `now` without walking the
    /// intermediate slots. An empty wheel is not advanced by the shard
    /// (firing nothing costs nothing), so its anchor can fall
    /// arbitrarily far behind the pass counter; syncing before the
    /// first insertion keeps the next [`TimerWheel::advance`] O(gap to
    /// the due pass) instead of O(passes since the wheel was last
    /// non-empty). No-op when `now` is in the wheel's past.
    ///
    /// # Panics
    /// Panics (debug) when timers are pending — jumping the anchor over
    /// live entries could fire them early or never.
    pub fn sync(&mut self, now: u64) {
        debug_assert!(self.is_empty(), "sync would skip pending timers");
        if self.is_empty() && now > self.now {
            self.now = now;
        }
    }

    /// Schedules `id` to fire at pass `due`. A due pass at or before the
    /// current one fires on the next [`TimerWheel::advance`] step.
    pub fn insert(&mut self, due: u64, id: u64) {
        let due = due.max(self.now + 1);
        let (level, slot) = self.place(due);
        self.levels[level][slot].push(Entry { due, id });
        self.len += 1;
    }

    /// Bucket placement for a due pass: the finest level whose span
    /// still reaches it (entries beyond the top ring's span park in the
    /// top ring and re-hash as it rotates).
    fn place(&self, due: u64) -> (usize, usize) {
        let delta = due - self.now;
        for level in 0..LEVELS {
            let span = 1u64 << (LEVEL_BITS * (level as u32 + 1));
            if delta < span || level == LEVELS - 1 {
                let slot = ((due >> (LEVEL_BITS * level as u32)) as usize) & (SLOTS - 1);
                return (level, slot);
            }
        }
        unreachable!("last level accepts any delta");
    }

    /// Advances the wheel through pass `to`, appending every fired
    /// session id to `fired` (callers sort before processing — bucket
    /// order is insertion order, which is not part of the contract).
    pub fn advance(&mut self, to: u64, fired: &mut Vec<u64>) {
        while self.now < to {
            self.now += 1;
            let slot = (self.now as usize) & (SLOTS - 1);
            self.drain_bucket(0, slot, fired);
            // Cascade: each time a ring wraps, re-hash the next ring's
            // current bucket — its entries now land closer in (or fire).
            for level in 1..LEVELS {
                let shifted = self.now >> (LEVEL_BITS * level as u32);
                if (self.now >> (LEVEL_BITS * (level as u32 - 1))) & (SLOTS as u64 - 1) != 0 {
                    break;
                }
                let slot = (shifted as usize) & (SLOTS - 1);
                self.drain_bucket(level, slot, fired);
            }
        }
    }

    /// Empties one bucket: due entries fire, the rest re-hash.
    fn drain_bucket(&mut self, level: usize, slot: usize, fired: &mut Vec<u64>) {
        if self.levels[level][slot].is_empty() {
            return;
        }
        let entries = std::mem::take(&mut self.levels[level][slot]);
        for entry in entries {
            self.len -= 1;
            if entry.due <= self.now {
                fired.push(entry.id);
            } else {
                self.insert(entry.due, entry.id);
            }
        }
    }

    /// The earliest pending due pass, if any — what an otherwise idle
    /// shard fast-forwards (or sleeps) to. O(buckets + entries); timers
    /// are rare relative to passes, so a scan beats the bookkeeping of a
    /// running minimum.
    pub fn next_due(&self) -> Option<u64> {
        self.levels.iter().flatten().flatten().map(|e| e.due).min()
    }

    /// Removes every pending timer for `id` (session completed or
    /// migrated away while parked). Returns how many were dropped.
    pub fn cancel(&mut self, id: u64) -> usize {
        let mut dropped = 0;
        for ring in &mut self.levels {
            for bucket in ring {
                let before = bucket.len();
                bucket.retain(|e| e.id != id);
                dropped += before - bucket.len();
            }
        }
        self.len -= dropped;
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fire_all(wheel: &mut TimerWheel, to: u64) -> Vec<(u64, u64)> {
        // Advance pass by pass so each firing can be stamped with the
        // pass it fired on.
        let mut fired = Vec::new();
        while wheel.now() < to {
            let mut ids = Vec::new();
            wheel.advance(wheel.now() + 1, &mut ids);
            let pass = wheel.now();
            fired.extend(ids.into_iter().map(|id| (pass, id)));
        }
        fired
    }

    #[test]
    fn fires_exactly_on_the_due_pass() {
        let mut wheel = TimerWheel::new(0);
        // Spread dues across every level: within 64, within 64², within
        // 64³, and deep into the top ring.
        let dues = [1u64, 63, 64, 65, 4095, 4096, 262143, 262145, 300000];
        for (id, &due) in dues.iter().enumerate() {
            wheel.insert(due, id as u64);
        }
        assert_eq!(wheel.len(), dues.len());
        assert_eq!(wheel.next_due(), Some(1));
        let fired = fire_all(&mut wheel, 300001);
        assert!(wheel.is_empty());
        let mut expected: Vec<(u64, u64)> = dues
            .iter()
            .enumerate()
            .map(|(id, &due)| (due, id as u64))
            .collect();
        expected.sort_unstable();
        let mut got = fired;
        got.sort_unstable();
        assert_eq!(got, expected, "every timer must fire on its own pass");
    }

    #[test]
    fn past_due_fires_on_next_step() {
        let mut wheel = TimerWheel::new(500);
        wheel.insert(3, 7); // long past: clamped to now+1
        let mut fired = Vec::new();
        wheel.advance(501, &mut fired);
        assert_eq!(fired, vec![7]);
    }

    #[test]
    fn bulk_advance_equals_stepped_advance() {
        let seeds: Vec<u64> = (0..200).map(|k| (k * 97 + 13) % 9000 + 1).collect();
        let mut bulk = TimerWheel::new(0);
        let mut stepped = TimerWheel::new(0);
        for (id, &due) in seeds.iter().enumerate() {
            bulk.insert(due, id as u64);
            stepped.insert(due, id as u64);
        }
        let mut bulk_fired = Vec::new();
        bulk.advance(10_000, &mut bulk_fired);
        let mut step_fired = Vec::new();
        for pass in 1..=10_000u64 {
            stepped.advance(pass, &mut step_fired);
        }
        bulk_fired.sort_unstable();
        step_fired.sort_unstable();
        assert_eq!(bulk_fired, step_fired);
        assert!(bulk.is_empty() && stepped.is_empty());
    }

    #[test]
    fn next_due_tracks_cascades() {
        let mut wheel = TimerWheel::new(0);
        wheel.insert(70, 1); // level 1 initially
        wheel.insert(130, 2);
        assert_eq!(wheel.next_due(), Some(70));
        let mut fired = Vec::new();
        wheel.advance(69, &mut fired);
        assert!(fired.is_empty(), "nothing due yet: {fired:?}");
        assert_eq!(wheel.next_due(), Some(70), "cascade must not lose timers");
        wheel.advance(70, &mut fired);
        assert_eq!(fired, vec![1]);
        assert_eq!(wheel.next_due(), Some(130));
    }

    #[test]
    fn sync_re_anchors_an_empty_wheel_cheaply() {
        // A wheel that sat empty for millions of passes must not walk
        // them all when the next timer goes in: sync jumps the anchor,
        // and the subsequent advance is O(gap to due).
        let mut wheel = TimerWheel::new(0);
        wheel.sync(5_000_000);
        assert_eq!(wheel.now(), 5_000_000);
        wheel.insert(5_000_017, 9);
        let started = std::time::Instant::now();
        let mut fired = Vec::new();
        wheel.advance(5_000_017, &mut fired);
        assert_eq!(fired, vec![9]);
        assert!(
            started.elapsed() < std::time::Duration::from_millis(50),
            "advance walked the stale gap"
        );
        // Syncing backwards is a no-op.
        wheel.sync(3);
        assert_eq!(wheel.now(), 5_000_017);
    }

    #[test]
    fn cancel_drops_all_timers_for_an_id() {
        let mut wheel = TimerWheel::new(0);
        wheel.insert(10, 1);
        wheel.insert(5000, 1);
        wheel.insert(20, 2);
        assert_eq!(wheel.cancel(1), 2);
        assert_eq!(wheel.len(), 1);
        let mut fired = Vec::new();
        wheel.advance(6000, &mut fired);
        assert_eq!(fired, vec![2]);
    }
}
