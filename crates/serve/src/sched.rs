//! The shard scheduler's policy knob.
//!
//! A shard advances its run queue once per scheduling pass (one
//! [`VirtualClock`](crate::VirtualClock) tick slot for every runnable
//! session). There are no timers: a session leaves the run queue only
//! at [`Wake::AwaitingInput`](crate::session::Wake::AwaitingInput), a
//! verified idle fixed point with no pending §VII-C late command, so
//! only traffic, a close or a targeted control command can change its
//! next tick.
//!
//! # Load accounting
//!
//! A shard's load (run-queue and parked depth, passes, wakeups by
//! source, migrations) lives in the telemetry plane's metric table next
//! to its other counters: see [`crate::telemetry`]. A
//! [`ServiceHandle`](crate::ServiceHandle) snapshots it into
//! [`ShardSummary`](crate::telemetry::ShardSummary) values — the inputs
//! of the balancer policy, of the count test
//! `idle_fleet_wakeups_track_the_hot_set_not_the_fleet` and of
//! perfbench's `serve.wakeups_per_pass`.

/// How a shard decides which sessions to advance on each pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scheduler {
    /// Advance every live session on every pass — the flat sweep of the
    /// original runtime. O(total sessions) per tick; kept as the ground
    /// truth the event-driven scheduler is property-tested against.
    Eager,
    /// Wake-on-work: a run queue of runnable sessions. Sessions at a
    /// verified idle fixed point park and cost zero work per pass until
    /// traffic or a close wakes them; their skipped ticks are replayed
    /// exactly by `Session::catch_up`. O(active sessions) per tick.
    #[default]
    EventDriven,
}

impl Scheduler {
    /// True for [`Scheduler::EventDriven`].
    pub fn event_driven(self) -> bool {
        matches!(self, Scheduler::EventDriven)
    }
}
