//! The deterministic virtual 50 Hz clock every shard advances on.
//!
//! Sessions never read wall time: a session's notion of "now" is its
//! virtual tick index times `Ω`, exactly like the offline closed loop.
//! That is what makes a service run reproducible — the interleaving of
//! shard threads cannot leak into any session's trajectory — and
//! shard-count invariant, because each session's clock is its own.
//!
//! [`Pacing`] decides how virtual time relates to wall time: benchmarks
//! and tests run [`Pacing::Unpaced`] (as fast as the hardware allows),
//! while a demo fronting a real operator can hold the paper's real-time
//! 50 Hz with [`Pacing::RealTime`].

use std::time::{Duration, Instant};

/// The paper's control frequency.
pub const TICK_HZ: f64 = 50.0;

/// The command period `Ω` in seconds (20 ms).
pub const TICK_PERIOD: f64 = 1.0 / TICK_HZ;

/// A session- or shard-local virtual clock: a tick counter with a fixed
/// period.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VirtualClock {
    tick: u64,
    period: f64,
}

impl VirtualClock {
    /// A clock at tick zero with period `Ω`.
    pub fn new(period: f64) -> Self {
        assert!(period > 0.0, "clock: period must be positive");
        Self { tick: 0, period }
    }

    /// A clock resumed at `tick` (session snapshot restore).
    ///
    /// # Panics
    /// Panics if `period` is not positive.
    pub fn at_tick(period: f64, tick: u64) -> Self {
        let mut clock = Self::new(period);
        clock.tick = tick;
        clock
    }

    /// Current tick index.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Virtual seconds since the clock started.
    pub fn now(&self) -> f64 {
        self.tick as f64 * self.period
    }

    /// The period `Ω`.
    pub fn period(&self) -> f64 {
        self.period
    }

    /// Advances one period and returns the new tick index.
    pub fn advance(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Advances `ticks` periods at once (integer-exact) and returns the
    /// new tick index. Used by the scheduler's parked-session catch-up:
    /// the tick counter is the only clock state, so a bulk advance is lossless.
    pub fn advance_by(&mut self, ticks: u64) -> u64 {
        self.tick += ticks;
        self.tick
    }
}

/// How a shard's virtual clock maps to wall time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Pacing {
    /// Advance as fast as the hardware allows (benchmarks, tests,
    /// batch re-simulation).
    #[default]
    Unpaced,
    /// Hold each virtual tick to its wall-clock slot (live operation).
    RealTime,
}

/// Wall-clock governor used by shards running [`Pacing::RealTime`].
#[derive(Debug)]
pub struct Pacer {
    pacing: Pacing,
    epoch: Instant,
    ticks: u64,
    period: Duration,
}

impl Pacer {
    /// A pacer for the given mode and period (seconds).
    pub fn new(pacing: Pacing, period: f64) -> Self {
        Self {
            pacing,
            epoch: Instant::now(),
            ticks: 0,
            period: Duration::from_secs_f64(period),
        }
    }

    /// Re-anchors the pacer at the current instant, so its first slot
    /// boundary is one period from now. [`Pacer::next_slot`] calls it to
    /// drop a backlog: without it, a real-time pacer whose epoch is long
    /// past would skip sleeping for thousands of passes to "catch up" to
    /// wall time — an unpaced burst of spurious deadline misses for any
    /// live session. A shard waking from a block re-anchors through
    /// [`Pacer::wake`] instead, which keeps the slot phase.
    pub fn resync(&mut self) {
        self.epoch = Instant::now();
        self.ticks = 0;
    }

    /// Counts the slot boundaries that passed while a shard slept on its
    /// control channel, and re-anchors at the last of them, so the next
    /// pass is held to the same 50 Hz grid and a wake inside a slot
    /// forfeits nothing. The pending boundary is the next tick's slot,
    /// or one period after the anchor when no tick ran since it. Always
    /// 0, without reading the clock, unpaced.
    pub fn wake(&mut self) -> u64 {
        if self.pacing != Pacing::RealTime {
            return 0;
        }
        let elapsed = Instant::now().saturating_duration_since(self.epoch);
        let last = elapsed
            .as_nanos()
            .checked_div(self.period.as_nanos())
            .unwrap_or(0) as u64;
        let slots = (last + 1).saturating_sub(self.ticks.max(1));
        if slots > 0 {
            self.epoch += self.period.mul_f64(last as f64);
            self.ticks = 0;
        }
        slots
    }

    /// Records one completed tick and returns the wall instant of the
    /// next tick's slot, when the caller should wait for it (a shard
    /// waits on its control channel, so commands are heard meanwhile):
    /// always `None` unpaced, and `None` in real time once the slot has
    /// already begun. More than one period behind (stall, suspend, overloaded
    /// host), the pacer drops the backlog and re-anchors at now rather
    /// than free-running to catch up.
    pub fn next_slot(&mut self) -> Option<Instant> {
        self.ticks += 1;
        if self.pacing != Pacing::RealTime {
            return None;
        }
        // f64 multiply, not `Duration * u32`: the tick counter outgrows
        // u32 in ~994 days at 50 Hz and truncation would silently disable
        // pacing from then on.
        let due = self.epoch + self.period.mul_f64(self.ticks as f64);
        let now = Instant::now();
        if due > now {
            return Some(due);
        }
        if now - due > self.period {
            self.resync();
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Completes a tick and sleeps out its slot, as a shard with no
    /// control traffic does.
    fn tick_complete(p: &mut Pacer) {
        if let Some(due) = p.next_slot() {
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
        }
    }

    #[test]
    fn clock_advances_by_period() {
        let mut c = VirtualClock::new(TICK_PERIOD);
        assert_eq!(c.tick(), 0);
        assert_eq!(c.now(), 0.0);
        c.advance();
        c.advance();
        assert_eq!(c.tick(), 2);
        assert!((c.now() - 0.04).abs() < 1e-12);
    }

    #[test]
    fn unpaced_pacer_does_not_sleep() {
        let mut p = Pacer::new(Pacing::Unpaced, TICK_PERIOD);
        let start = Instant::now();
        for _ in 0..1000 {
            tick_complete(&mut p);
        }
        assert!(start.elapsed() < Duration::from_millis(100));
    }

    #[test]
    fn realtime_pacer_holds_the_period() {
        let mut p = Pacer::new(Pacing::RealTime, 0.002);
        let start = Instant::now();
        for _ in 0..10 {
            tick_complete(&mut p);
        }
        // Coarse lower bound only — upper bounds are flaky under load.
        assert!(
            start.elapsed() >= Duration::from_millis(15),
            "pacer did not pace"
        );
    }

    #[test]
    fn resumed_clock_continues_from_its_tick() {
        let c = VirtualClock::at_tick(TICK_PERIOD, 350);
        assert_eq!(c.tick(), 350);
        assert!((c.now() - 7.0).abs() < 1e-12, "350 ticks at 50 Hz = 7 s");
        let mut c = c;
        c.advance();
        assert_eq!(c.tick(), 351);
    }

    #[test]
    fn resync_re_anchors_the_epoch() {
        // The re-anchor-after-idle path: after resync() the pacer's
        // schedule restarts from "now", so the next ticks are paced at
        // the full period instead of replaying the idle backlog.
        let mut p = Pacer::new(Pacing::RealTime, 0.002);
        std::thread::sleep(Duration::from_millis(30));
        p.resync();
        let start = Instant::now();
        for _ in 0..5 {
            tick_complete(&mut p);
        }
        let elapsed = start.elapsed();
        assert!(
            elapsed >= Duration::from_millis(9),
            "resynced pacer must pace from its new epoch ({elapsed:?})"
        );
    }

    #[test]
    fn resync_is_harmless_for_unpaced_clocks() {
        let mut p = Pacer::new(Pacing::Unpaced, TICK_PERIOD);
        std::thread::sleep(Duration::from_millis(5));
        p.resync();
        let start = Instant::now();
        for _ in 0..1000 {
            tick_complete(&mut p);
        }
        assert!(start.elapsed() < Duration::from_millis(100));
    }

    #[test]
    fn unpaced_pacer_credits_no_slots() {
        let mut p = Pacer::new(Pacing::Unpaced, 0.001);
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(p.wake(), 0);
    }

    #[test]
    fn realtime_pacer_credits_the_slots_slept_through() {
        // Load makes a wake late, never early: the first-slot figure is
        // asserted only when the wake provably came inside that slot.
        let start = Instant::now();
        let mut p = Pacer::new(Pacing::RealTime, 0.2);
        std::thread::sleep(Duration::from_millis(50));
        let early = p.wake();
        if start.elapsed() < Duration::from_millis(200) {
            assert_eq!(early, 0, "a wake inside the first slot credits 0");
        }
        std::thread::sleep(Duration::from_millis(400));
        let credited = early + p.wake();
        assert!(credited >= 2, "450 ms credited {credited} slots");
    }

    #[test]
    fn sub_period_wakes_keep_the_slot_phase() {
        // Control traffic faster than the period wakes a parked shard
        // inside every slot; a wake that credits nothing keeps the
        // anchor, so the boundaries still arrive.
        let mut p = Pacer::new(Pacing::RealTime, 0.2);
        let mut credited = 0;
        for _ in 0..5 {
            std::thread::sleep(Duration::from_millis(50));
            credited += p.wake();
        }
        assert!(credited >= 1, "250 ms of 50 ms wakes credited nothing");
    }

    #[test]
    fn stale_pacer_drops_backlog_instead_of_bursting() {
        // Simulate an idle stretch: the epoch falls far behind wall
        // time. Without backlog dropping, the next ~25 ticks would all
        // skip their sleeps (a catch-up burst).
        let mut p = Pacer::new(Pacing::RealTime, 0.002);
        std::thread::sleep(Duration::from_millis(50));
        tick_complete(&mut p); // detects the stall and resyncs
        let start = Instant::now();
        for _ in 0..5 {
            tick_complete(&mut p);
        }
        assert!(
            start.elapsed() >= Duration::from_millis(7),
            "post-stall ticks must be paced, not a catch-up burst"
        );
    }
}
