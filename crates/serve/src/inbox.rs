//! The bounded per-session command inbox — where backpressure becomes
//! the paper's loss event.
//!
//! A streamed session receives operator commands through a fixed-capacity
//! queue. When the queue is full the newest command is **dropped**, not
//! queued: a teleoperation command is only useful in its 20 ms slot, so
//! buffering beyond the robot's consumption rate would trade loss for
//! lag — the exact trade the paper rejects (§II: late commands are as
//! useless as lost ones). The drop surfaces to the recovery engine as a
//! miss on the tick that would have consumed it, and FoReCo forecasts
//! the gap — the drop policy *is* the loss model.
//!
//! The inbox is also the scheduler's primary **wake source**: a parked
//! session (one whose empty-inbox tick is a verified state no-op, see
//! [`Wake`](crate::session::Wake)) leaves the run queue entirely, and
//! the arrival of a command through `SessionCommand::Inject` is what
//! pulls it back in — the owning shard replays the skipped ticks
//! exactly, then lets the session consume the command on the tick it
//! arrived at.
//!
//! Restoring an inbox from a snapshot is validated here, once: each
//! `from_state` checks every invariant its queue relies on (capacity,
//! length, payload dimension and finiteness, coalesced miss runs) and
//! returns a typed [`RestoreError`] instead of panicking on a crafted
//! snapshot.

use crate::snapshot::{require_finite, RestoreError};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Serialisable form of a [`BoundedInbox`] for session snapshots —
/// capacity, the queued (not-yet-consumed) commands, and the lifetime
/// accept/drop counters that feed `SessionReport::overflow_drops`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InboxState {
    /// Maximum queued commands.
    pub capacity: usize,
    /// Queued commands, oldest first.
    pub queue: Vec<Vec<f64>>,
    /// Commands accepted since construction.
    pub accepted: u64,
    /// Commands dropped by backpressure since construction.
    pub dropped: u64,
}

/// Outcome of offering a command to the inbox.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Offer {
    /// Queued for the next free tick.
    Accepted,
    /// Inbox full: the command was dropped (a loss event).
    Dropped,
}

/// Fixed-capacity FIFO of joint-space commands.
#[derive(Debug)]
pub struct BoundedInbox {
    queue: VecDeque<Vec<f64>>,
    capacity: usize,
    accepted: u64,
    dropped: u64,
}

impl BoundedInbox {
    /// An empty inbox holding at most `capacity` commands.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "inbox: capacity must be ≥ 1");
        Self {
            queue: VecDeque::with_capacity(capacity),
            capacity,
            accepted: 0,
            dropped: 0,
        }
    }

    /// Offers a command; full inboxes drop it.
    pub fn offer(&mut self, command: Vec<f64>) -> Offer {
        if self.queue.len() >= self.capacity {
            self.dropped += 1;
            Offer::Dropped
        } else {
            self.queue.push_back(command);
            self.accepted += 1;
            Offer::Accepted
        }
    }

    /// Takes the oldest queued command, if any (one per tick).
    pub fn take(&mut self) -> Option<Vec<f64>> {
        self.queue.pop_front()
    }

    /// Commands currently queued.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Commands accepted since construction.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Commands dropped by backpressure since construction.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Exports the inbox for checkpointing.
    pub fn snapshot(&self) -> InboxState {
        InboxState {
            capacity: self.capacity,
            queue: self.queue.iter().cloned().collect(),
            accepted: self.accepted,
            dropped: self.dropped,
        }
    }

    /// Rebuilds an inbox from exported state, queued commands checked
    /// against a `dof`-joint arm.
    ///
    /// # Errors
    /// [`RestoreError::Invalid`] for a zero capacity, a queue longer
    /// than the capacity, or a queued command of the wrong dimension or
    /// with a non-finite joint.
    pub fn from_state(state: &InboxState, dof: usize) -> Result<Self, RestoreError> {
        if state.capacity == 0 {
            return Err(RestoreError::Invalid("inbox capacity of zero".into()));
        }
        if state.queue.len() > state.capacity {
            return Err(RestoreError::Invalid(format!(
                "{} queued commands in a capacity-{} inbox",
                state.queue.len(),
                state.capacity
            )));
        }
        if let Some(bad) = state.queue.iter().find(|c| c.len() != dof) {
            return Err(RestoreError::Invalid(format!(
                "queued command of dimension {} for a {dof}-DoF arm",
                bad.len()
            )));
        }
        require_finite("queued command", state.queue.iter())?;
        Ok(Self {
            queue: state.queue.iter().cloned().collect(),
            capacity: state.capacity,
            accepted: state.accepted,
            dropped: state.dropped,
        })
    }
}

/// One entry of a [`GatedInbox`]: the ingress gateway's verdict for one
/// virtual tick slot (plus tickless late patches riding between slots).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum GatedSlot {
    /// The slot's command arrived (in order) — the session consumes it
    /// on the tick this slot maps to.
    Command(Vec<f64>),
    /// `count` consecutive slots' commands are lost (wire gaps the
    /// gateway flushed, or bounced/overflowed injections): each is a
    /// deadline-miss tick the recovery engine covers. Runs are
    /// coalesced so a long outage costs one queue entry, not one per
    /// slot — [`GatedInbox::take`] always hands back single-slot units
    /// (`count == 1`).
    Miss {
        /// Consecutive lost slots in this run (≥ 1).
        count: u64,
    },
    /// A command that resurfaced after its slot was already flushed as
    /// missed (§VII-C): consumes **no** tick — it patches the engine
    /// history just before the next slot's tick, `age` ticks after the
    /// slot it was meant for.
    Late {
        /// The late payload.
        command: Vec<f64>,
        /// Ticks between the command's slot and its arrival.
        age: usize,
    },
}

/// Serialisable form of a [`GatedInbox`] for session snapshots.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GatedInboxState {
    /// Maximum queued *command* slots (miss markers ride free: they
    /// carry no payload and must keep the slot timeline aligned).
    pub capacity: usize,
    /// Queued slots, oldest first.
    pub queue: Vec<GatedSlot>,
    /// Command slots accepted since construction.
    pub accepted: u64,
    /// Commands dropped (converted to misses, or late patches refused)
    /// by backpressure since construction.
    pub dropped: u64,
}

/// The flow-controlled ingress queue behind
/// [`SourceSpec::Gated`](crate::SourceSpec::Gated) sessions.
///
/// Unlike [`BoundedInbox`], where an empty queue at tick time *is* the
/// miss, a gated session's virtual clock advances only as slots are
/// consumed — an empty gated inbox means "no network verdict yet", and
/// the session parks without ticking. Losses are therefore **explicit**
/// ([`GatedSlot::Miss`], enqueued by the gateway for wire gaps and
/// overflow), which is what makes a session fed over a real socket
/// bit-identical to one fed in-process: the slot sequence, not the race
/// between socket threads and shard clocks, determines every tick.
///
/// Backpressure still bounds memory: at `capacity` queued command
/// payloads a further command is dropped and a miss takes its place
/// (payload-free, so the timeline stays aligned); late patches are
/// refused beyond a `2 × capacity` entry bound; and consecutive misses
/// coalesce into one run-counted entry. Every miss run borders a
/// non-miss entry, so the queue holds O(`capacity`) entries no matter
/// how hard a client floods it.
#[derive(Debug)]
pub struct GatedInbox {
    queue: VecDeque<GatedSlot>,
    commands: usize,
    capacity: usize,
    accepted: u64,
    dropped: u64,
}

impl GatedInbox {
    /// An empty gated inbox holding at most `capacity` command slots.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "gated inbox: capacity must be ≥ 1");
        Self {
            queue: VecDeque::new(),
            commands: 0,
            capacity,
            accepted: 0,
            dropped: 0,
        }
    }

    /// Offers a command slot; at capacity the payload is dropped and a
    /// miss marker preserves the slot timeline.
    pub fn offer(&mut self, command: Vec<f64>) -> Offer {
        if self.commands >= self.capacity {
            self.dropped += 1;
            self.push_miss();
            Offer::Dropped
        } else {
            self.commands += 1;
            self.accepted += 1;
            self.queue.push_back(GatedSlot::Command(command));
            Offer::Accepted
        }
    }

    /// Enqueues an explicit miss slot (always accepted: it is the loss;
    /// consecutive misses coalesce, so acceptance costs O(1) memory).
    pub fn offer_miss(&mut self) {
        self.push_miss();
    }

    fn push_miss(&mut self) {
        if let Some(GatedSlot::Miss { count }) = self.queue.back_mut() {
            *count += 1;
        } else {
            self.queue.push_back(GatedSlot::Miss { count: 1 });
        }
    }

    /// Offers a §VII-C late patch; refused (dropped) when the queue is
    /// saturated (command capacity spent, or the `2 × capacity` entry
    /// bound reached) — a lost patch is semantically a loss staying a
    /// loss.
    pub fn offer_late(&mut self, command: Vec<f64>, age: usize) -> Offer {
        if self.commands >= self.capacity || self.queue.len() >= 2 * self.capacity {
            self.dropped += 1;
            Offer::Dropped
        } else {
            self.queue.push_back(GatedSlot::Late { command, age });
            Offer::Accepted
        }
    }

    /// Takes the oldest queued slot, if any, always as a single-slot
    /// unit (a coalesced miss run yields one `Miss { count: 1 }` per
    /// call).
    pub fn take(&mut self) -> Option<GatedSlot> {
        if let Some(GatedSlot::Miss { count }) = self.queue.front_mut() {
            if *count > 1 {
                *count -= 1;
                return Some(GatedSlot::Miss { count: 1 });
            }
        }
        let slot = self.queue.pop_front();
        if matches!(slot, Some(GatedSlot::Command(_))) {
            self.commands -= 1;
        }
        slot
    }

    /// Queue entries currently held (a coalesced miss run counts once,
    /// however many slots it spans).
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Command slots accepted since construction.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Payloads dropped by backpressure since construction.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Exports the inbox for checkpointing.
    pub fn snapshot(&self) -> GatedInboxState {
        GatedInboxState {
            capacity: self.capacity,
            queue: self.queue.iter().cloned().collect(),
            accepted: self.accepted,
            dropped: self.dropped,
        }
    }

    /// Rebuilds a gated inbox from exported state, queued payloads
    /// checked against a `dof`-joint arm.
    ///
    /// # Errors
    /// [`RestoreError::Invalid`] for a zero capacity, more command slots
    /// than the capacity admits, a queued payload of the wrong dimension
    /// or with a non-finite joint, or a miss run with a zero count.
    pub fn from_state(state: &GatedInboxState, dof: usize) -> Result<Self, RestoreError> {
        if state.capacity == 0 {
            return Err(RestoreError::Invalid("inbox capacity of zero".into()));
        }
        let commands = state
            .queue
            .iter()
            .filter(|s| matches!(s, GatedSlot::Command(_)))
            .count();
        if commands > state.capacity {
            return Err(RestoreError::Invalid(format!(
                "{commands} queued commands in a capacity-{} gated inbox",
                state.capacity
            )));
        }
        let payloads = || {
            state.queue.iter().filter_map(|s| match s {
                GatedSlot::Command(c) | GatedSlot::Late { command: c, .. } => Some(c),
                GatedSlot::Miss { .. } => None,
            })
        };
        if let Some(bad) = payloads().find(|c| c.len() != dof) {
            return Err(RestoreError::Invalid(format!(
                "queued slot of dimension {} for a {dof}-DoF arm",
                bad.len()
            )));
        }
        require_finite("queued slot", payloads())?;
        if state
            .queue
            .iter()
            .any(|s| matches!(s, GatedSlot::Miss { count: 0 }))
        {
            // A zero-count run would consume a tick on take() while
            // counting as zero slots everywhere else — a one-tick desync
            // smuggled in through a crafted snapshot.
            return Err(RestoreError::Invalid(
                "gated miss run with a zero count".into(),
            ));
        }
        Ok(Self {
            queue: state.queue.iter().cloned().collect(),
            commands,
            capacity: state.capacity,
            accepted: state.accepted,
            dropped: state.dropped,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_until_full_then_drops() {
        let mut inbox = BoundedInbox::new(2);
        assert_eq!(inbox.offer(vec![1.0]), Offer::Accepted);
        assert_eq!(inbox.offer(vec![2.0]), Offer::Accepted);
        assert_eq!(inbox.offer(vec![3.0]), Offer::Dropped);
        assert_eq!(inbox.len(), 2);
        assert_eq!(inbox.accepted(), 2);
        assert_eq!(inbox.dropped(), 1);
    }

    #[test]
    fn drains_fifo() {
        let mut inbox = BoundedInbox::new(3);
        inbox.offer(vec![1.0]);
        inbox.offer(vec![2.0]);
        assert_eq!(inbox.take(), Some(vec![1.0]));
        assert_eq!(inbox.take(), Some(vec![2.0]));
        assert_eq!(inbox.take(), None);
        assert!(inbox.is_empty());
    }

    #[test]
    fn drop_frees_no_slot() {
        let mut inbox = BoundedInbox::new(1);
        inbox.offer(vec![1.0]);
        inbox.offer(vec![2.0]); // dropped
        assert_eq!(inbox.take(), Some(vec![1.0]));
        assert_eq!(inbox.take(), None, "dropped command must not appear");
    }

    #[test]
    fn counters_survive_refill_cycles() {
        // Overflow accounting is lifetime accounting: draining the queue
        // must never reset or double-count accepted/dropped.
        let mut inbox = BoundedInbox::new(2);
        for round in 0..5u64 {
            assert_eq!(inbox.offer(vec![0.1]), Offer::Accepted);
            assert_eq!(inbox.offer(vec![0.2]), Offer::Accepted);
            assert_eq!(inbox.offer(vec![0.3]), Offer::Dropped);
            assert_eq!(inbox.offer(vec![0.4]), Offer::Dropped);
            while inbox.take().is_some() {}
            assert_eq!(inbox.accepted(), (round + 1) * 2);
            assert_eq!(inbox.dropped(), (round + 1) * 2);
        }
        assert!(inbox.is_empty());
        assert_eq!(inbox.len(), 0);
    }

    #[test]
    fn drain_reopens_capacity_exactly() {
        // A full inbox accepts again after exactly one take — the
        // boundary where an off-by-one would either leak a slot or
        // wrongly drop.
        let mut inbox = BoundedInbox::new(2);
        inbox.offer(vec![1.0]);
        inbox.offer(vec![2.0]);
        assert_eq!(inbox.offer(vec![3.0]), Offer::Dropped);
        assert_eq!(inbox.take(), Some(vec![1.0]));
        assert_eq!(inbox.offer(vec![4.0]), Offer::Accepted);
        assert_eq!(inbox.offer(vec![5.0]), Offer::Dropped);
        assert_eq!(inbox.take(), Some(vec![2.0]));
        assert_eq!(inbox.take(), Some(vec![4.0]));
        assert_eq!(inbox.dropped(), 2);
        assert_eq!(inbox.accepted(), 3);
    }

    #[test]
    fn snapshot_round_trip_preserves_queue_and_counters() {
        let mut inbox = BoundedInbox::new(3);
        inbox.offer(vec![1.0, 2.0]);
        inbox.offer(vec![3.0, 4.0]);
        inbox.offer(vec![5.0, 6.0]);
        inbox.offer(vec![7.0, 8.0]); // dropped
        inbox.take();
        let state = inbox.snapshot();
        let json = serde_json::to_string(&state).unwrap();
        let back: InboxState = serde_json::from_str(&json).unwrap();
        assert_eq!(back, state);
        let mut restored = BoundedInbox::from_state(&back, 2).unwrap();
        assert_eq!(restored.len(), inbox.len());
        assert_eq!(restored.accepted(), 3);
        assert_eq!(restored.dropped(), 1);
        assert_eq!(restored.take(), inbox.take());
        assert_eq!(restored.take(), inbox.take());
        assert_eq!(restored.take(), None);
        // And the drop policy picks up where it left off.
        restored.offer(vec![9.0, 9.0]);
        assert_eq!(restored.accepted(), 4);
    }

    #[test]
    fn from_state_rejects_overfull_queue() {
        let err = BoundedInbox::from_state(
            &InboxState {
                capacity: 1,
                queue: vec![vec![0.0], vec![1.0]],
                accepted: 2,
                dropped: 0,
            },
            1,
        )
        .expect_err("overfull queue");
        assert_eq!(
            err,
            RestoreError::Invalid("2 queued commands in a capacity-1 inbox".into())
        );
    }

    /// The restore error's message, for a state that must be rejected.
    fn rejection(result: Result<impl std::fmt::Debug, RestoreError>) -> String {
        match result.expect_err("malformed state must be rejected") {
            RestoreError::Invalid(reason) => reason,
            other => panic!("expected RestoreError::Invalid, got {other:?}"),
        }
    }

    #[test]
    fn from_state_types_every_malformed_bounded_shape() {
        let state = |capacity: usize, queue: Vec<Vec<f64>>| InboxState {
            capacity,
            queue,
            accepted: 0,
            dropped: 0,
        };
        let cases = [
            // The overfull queue is `from_state_rejects_overfull_queue`.
            (state(0, vec![]), "inbox capacity of zero"),
            (
                state(2, vec![vec![0.0; 3]]),
                "queued command of dimension 3 for a 2-DoF arm",
            ),
            (
                state(2, vec![vec![0.0, f64::NAN]]),
                "non-finite queued command",
            ),
        ];
        for (bad, expected) in cases {
            assert_eq!(rejection(BoundedInbox::from_state(&bad, 2)), expected);
        }
    }

    #[test]
    fn from_state_types_every_malformed_gated_shape() {
        let state = |capacity: usize, queue: Vec<GatedSlot>| GatedInboxState {
            capacity,
            queue,
            accepted: 0,
            dropped: 0,
        };
        let cases = [
            (state(0, vec![]), "inbox capacity of zero"),
            (
                state(1, vec![GatedSlot::Command(vec![0.0, 0.0]); 2]),
                "2 queued commands in a capacity-1 gated inbox",
            ),
            (
                state(
                    2,
                    vec![GatedSlot::Late {
                        command: vec![0.0],
                        age: 1,
                    }],
                ),
                "queued slot of dimension 1 for a 2-DoF arm",
            ),
            (
                state(2, vec![GatedSlot::Command(vec![f64::INFINITY, 0.0])]),
                "non-finite queued slot",
            ),
            (
                state(2, vec![GatedSlot::Miss { count: 0 }]),
                "gated miss run with a zero count",
            ),
        ];
        for (bad, expected) in cases {
            assert_eq!(rejection(GatedInbox::from_state(&bad, 2)), expected);
        }
    }

    #[test]
    fn gated_overflow_converts_commands_to_misses() {
        // The slot timeline must stay aligned through backpressure: a
        // dropped payload leaves a miss marker in its place.
        let mut inbox = GatedInbox::new(2);
        assert_eq!(inbox.offer(vec![1.0]), Offer::Accepted);
        assert_eq!(inbox.offer(vec![2.0]), Offer::Accepted);
        assert_eq!(inbox.offer(vec![3.0]), Offer::Dropped);
        assert_eq!(inbox.len(), 3, "the dropped slot still occupies a slot");
        assert_eq!(inbox.dropped(), 1);
        assert_eq!(inbox.take(), Some(GatedSlot::Command(vec![1.0])));
        assert_eq!(inbox.take(), Some(GatedSlot::Command(vec![2.0])));
        assert_eq!(inbox.take(), Some(GatedSlot::Miss { count: 1 }));
        assert_eq!(inbox.take(), None);
    }

    #[test]
    fn gated_late_patches_ride_free_but_respect_capacity() {
        let mut inbox = GatedInbox::new(1);
        assert_eq!(inbox.offer(vec![1.0]), Offer::Accepted);
        // Miss markers and late patches don't consume command capacity…
        inbox.offer_miss();
        assert_eq!(inbox.offer_late(vec![9.0], 2), Offer::Dropped);
        assert_eq!(inbox.dropped(), 1, "late patch refused at capacity");
        // …and capacity reopens when a command is consumed.
        assert_eq!(inbox.take(), Some(GatedSlot::Command(vec![1.0])));
        assert_eq!(
            inbox.offer_late(vec![9.0], 2),
            Offer::Accepted,
            "capacity freed"
        );
        assert_eq!(inbox.take(), Some(GatedSlot::Miss { count: 1 }));
        assert_eq!(
            inbox.take(),
            Some(GatedSlot::Late {
                command: vec![9.0],
                age: 2
            })
        );
    }

    #[test]
    fn gated_miss_runs_coalesce_and_bound_the_queue() {
        // A flood of over-capacity commands and explicit misses must
        // cost O(1) queue entries per run, not one per slot — the
        // memory bound behind "backpressure still bounds memory".
        let mut inbox = GatedInbox::new(2);
        inbox.offer(vec![1.0]);
        inbox.offer(vec![2.0]);
        for _ in 0..10_000 {
            assert_eq!(inbox.offer(vec![9.9]), Offer::Dropped);
            inbox.offer_miss();
        }
        assert_eq!(inbox.len(), 3, "one coalesced run after the commands");
        assert_eq!(inbox.dropped(), 10_000);
        // Late patches respect the entry bound too.
        assert_eq!(inbox.offer_late(vec![9.0], 1), Offer::Dropped);
        // Consumption yields single-slot units, 20 000 of them.
        inbox.take();
        inbox.take();
        let mut misses = 0u64;
        while let Some(slot) = inbox.take() {
            assert_eq!(slot, GatedSlot::Miss { count: 1 });
            misses += 1;
        }
        assert_eq!(misses, 20_000);
    }

    #[test]
    fn gated_snapshot_round_trip() {
        let mut inbox = GatedInbox::new(3);
        inbox.offer(vec![1.0, 2.0]);
        inbox.offer_miss();
        inbox.offer_miss(); // coalesces with the previous miss
        inbox.offer_late(vec![3.0, 4.0], 1);
        inbox.offer(vec![5.0, 6.0]);
        let state = inbox.snapshot();
        assert_eq!(state.queue.len(), 4, "runs stay coalesced in snapshots");
        let json = serde_json::to_string(&state).unwrap();
        let back: GatedInboxState = serde_json::from_str(&json).unwrap();
        assert_eq!(back, state);
        let mut restored = GatedInbox::from_state(&back, 2).unwrap();
        assert_eq!(restored.len(), inbox.len());
        while let Some(slot) = inbox.take() {
            assert_eq!(restored.take(), Some(slot));
        }
        assert_eq!(restored.take(), None);
        // Command accounting survives: two queued commands were restored
        // and drained, so a third offer fits again.
        assert_eq!(restored.offer(vec![7.0, 8.0]), Offer::Accepted);
    }
}
