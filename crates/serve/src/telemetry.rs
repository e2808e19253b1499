//! The live telemetry plane: one table of per-shard fleet metrics, the
//! lock-free counters it generates, and their Prometheus rendering.
//!
//! # One table
//!
//! The `shard_metrics!` invocation below lists every per-shard metric
//! exactly once — field, kind (counter or gauge), exposition name, help
//! text — and generates everything else from that row: the relaxed
//! atomic in [`ShardCounters`], the plain copy in [`ShardSummary`], the
//! per-pass scratch slot and its flush, and the Prometheus family. A new
//! metric is one table row. The fleet-wide wire counters are the fields
//! of [`IngressSummary`], rendered from the `INGRESS_FAMILIES` rows.
//!
//! # Observability discipline
//!
//! These rules are the invariant that keeps observability free:
//!
//! - **Relaxed atomics, single writer.** Each shard owns one
//!   [`ShardCounters`] set of the shared [`Telemetry`] plane and is its
//!   only writer; readers (handles, the balancer, scrapes) snapshot with
//!   `Ordering::Relaxed` loads. No locks, no contention, no ordering
//!   games.
//! - **Never on the tick path.** Nothing here is touched inside
//!   `Session::advance`. Shards accumulate plain `u64`s while handling
//!   commands and sweeping the run queue, then publish them once per
//!   scheduling pass — a `fetch_add` per non-zero counter delta, a
//!   `store` per gauge — so the steady-tick path stays allocation-free
//!   and branch-identical whether anyone is watching or not.
//! - **Rendering allocates only in the control plane.** Turning
//!   [`ShardSummary`] snapshots into Prometheus text builds a `String`;
//!   that happens in whatever thread asked (a TCP control connection, a
//!   test), never in a shard.
//!
//! Counters and gauges reflect each shard's last published pass — a
//! scrape between passes reads the previous publish.
//!
//! # Lifecycle observers
//!
//! Park-level lifecycle events (`SessionEvent::Parked`) are emitted by
//! shards only while at least one observer is registered
//! ([`Telemetry::attach_observer`]): parks are too frequent on gated
//! fleets to narrate unconditionally, and with no subscribers the only
//! cost is one relaxed load per park. Event emission never changes
//! session math, so results stay bit-identical either way.

use crate::metrics::{IngressSummary, PercentileSummary};
use serde::Serialize;
use std::fmt::Write;
use std::sync::atomic::{AtomicU64, Ordering};

/// Whether a metric accumulates or samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Deltas add; the atomic only grows.
    Counter,
    /// The latest value overwrites.
    Gauge,
}

impl Kind {
    /// The exposition `# TYPE` keyword.
    fn type_name(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
        }
    }

    /// Publishes one scratch slot: a counter `fetch_add`s its non-zero
    /// delta and resets it, a gauge `store`s its value and keeps it.
    fn publish(self, atomic: &AtomicU64, slot: &mut u64) {
        match self {
            Kind::Counter => {
                if *slot != 0 {
                    atomic.fetch_add(*slot, Ordering::Relaxed);
                    *slot = 0;
                }
            }
            Kind::Gauge => atomic.store(*slot, Ordering::Relaxed),
        }
    }
}

/// One metric family of the exposition, reading its value from a `T`.
struct Family<T> {
    name: &'static str,
    kind: Kind,
    help: &'static str,
    value: fn(&T) -> u64,
}

impl<T> Family<T> {
    /// The `# HELP` / `# TYPE` header.
    fn header(&self, out: &mut String) {
        let _ = writeln!(out, "# HELP {} {}", self.name, self.help);
        let _ = writeln!(out, "# TYPE {} {}", self.name, self.kind.type_name());
    }
}

/// Generates the per-shard telemetry types from the metric table (see
/// the module docs). Each row: `field: Kind, "exposition_name", "help";`.
macro_rules! shard_metrics {
    ($($field:ident: $kind:ident, $name:literal, $help:literal;)+) => {
        /// One shard's live metrics: relaxed atomics written only by the
        /// owning shard, once per scheduling pass.
        #[derive(Debug, Default)]
        pub struct ShardCounters {
            $(#[doc = $help] pub $field: AtomicU64,)+
        }

        /// Plain-`u64` copy of one shard's [`ShardCounters`]. Gauges
        /// reflect the shard's last published pass; counters are
        /// cumulative over its lifetime.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
        pub struct ShardSummary {
            /// Shard index.
            pub shard: usize,
            $(#[doc = $help] pub $field: u64,)+
        }

        /// The per-pass scratch a shard accumulates in: counter deltas and
        /// gauge values as plain `u64`s, published by [`ShardScratch::flush`].
        #[derive(Debug, Default)]
        pub(crate) struct ShardScratch {
            $(pub(crate) $field: u64,)+
        }

        impl ShardCounters {
            /// A point-in-time copy for shard `shard`.
            pub fn summary(&self, shard: usize) -> ShardSummary {
                ShardSummary {
                    shard,
                    $($field: self.$field.load(Ordering::Relaxed),)+
                }
            }
        }

        impl ShardScratch {
            /// Publishes every slot into `counters`: non-zero counter
            /// deltas add and reset, gauges overwrite and persist.
            pub(crate) fn flush(&mut self, counters: &ShardCounters) {
                $(Kind::$kind.publish(&counters.$field, &mut self.$field);)+
            }

            /// Whether any counter holds a delta not yet flushed.
            pub(crate) fn has_deltas(&self) -> bool {
                false $(|| (Kind::$kind == Kind::Counter && self.$field != 0))+
            }
        }

        /// Every per-shard family, in exposition order.
        const SHARD_FAMILIES: &[Family<ShardSummary>] = &[
            $(Family { name: $name, kind: Kind::$kind, help: $help, value: |s| s.$field },)+
        ];
    };
}

shard_metrics! {
    ticks: Counter, "foreco_ticks_total",
        "Session-ticks advanced (catch-up replays included).";
    opened: Counter, "foreco_sessions_opened_total",
        "Sessions opened.";
    completed: Counter, "foreco_sessions_completed_total",
        "Sessions run to completion.";
    recovered_misses: Counter, "foreco_recovered_misses_total",
        "Deadline misses covered by forecast (completed engine sessions).";
    miss_marks: Counter, "foreco_miss_marks_total",
        "Miss markers accepted by gated sessions (live wire losses).";
    late_replacements: Counter, "foreco_late_replacements_total",
        "Late command replacements accepted (section VII-C path).";
    parks: Counter, "foreco_parks_total",
        "Sessions parked at an idle fixed point.";
    wakes: Counter, "foreco_wakes_total",
        "Sessions unparked (traffic or administrative sync).";
    inbox_drops: Counter, "foreco_inbox_drops_total",
        "Commands dropped on full session inboxes.";
    snapshots: Counter, "foreco_snapshots_total",
        "Sessions checkpointed (one fleet-archive part each).";
    adoptions: Counter, "foreco_adoptions_total",
        "Snapshots rehydrated into live sessions.";
    archive_bytes: Counter, "foreco_archive_bytes_total",
        "Bytes of binary snapshot frames encoded for fleet archives.";
    sessions: Gauge, "foreco_shard_sessions",
        "Live sessions owned by the shard.";
    runnable: Gauge, "foreco_shard_runnable",
        "Sessions in the run queue after the last pass.";
    parked: Gauge, "foreco_shard_parked",
        "Sessions parked after the last pass.";
    passes: Counter, "foreco_passes_total",
        "Scheduling passes executed.";
    wakeups: Counter, "foreco_wakeups_total",
        "Session advances performed.";
    traffic_wakeups: Counter, "foreco_traffic_wakeups_total",
        "Parked sessions woken by operator traffic (inject or close).";
    migrated_out: Counter, "foreco_migrations_out_total",
        "Sessions migrated away from the shard.";
    migrated_in: Counter, "foreco_migrations_in_total",
        "Sessions migrated into the shard.";
    link_solves: Counter, "foreco_link_solves_total",
        "DCF link solves at open or restore (one per live link configuration).";
    reference_builds: Counter, "foreco_reference_builds_total",
        "Reference trajectories made at open or restore (one per live script and arm per shard), counted when made; the first tick that reads one computes it.";
    reference_rows: Counter, "foreco_reference_rows_total",
        "Reference positions those trajectories cover, counted when made (a restore's starts at its tick).";
    model_builds: Counter, "foreco_model_builds_total",
        "Forecaster states built at restore to resolve a stored model (one per live model per shard).";
}

impl ShardSummary {
    /// Mean session advances per scheduling pass — the "wakeups per
    /// tick" an event-driven shard should keep proportional to its
    /// *active* sessions, not its total.
    pub fn wakeups_per_pass(&self) -> f64 {
        if self.passes == 0 {
            0.0
        } else {
            self.wakeups as f64 / self.passes as f64
        }
    }
}

/// The fleet-wide wire-ingress families (unlabelled counters), in
/// exposition order.
const INGRESS_FAMILIES: &[Family<IngressSummary>] = &[
    Family {
        name: "foreco_ingress_received_total",
        kind: Kind::Counter,
        help: "Well-formed data frames received by the gateway.",
        value: |i| i.received,
    },
    Family {
        name: "foreco_ingress_delivered_total",
        kind: Kind::Counter,
        help: "Command slots delivered in order.",
        value: |i| i.delivered,
    },
    Family {
        name: "foreco_ingress_lost_total",
        kind: Kind::Counter,
        help: "Slots flushed as losses.",
        value: |i| i.lost,
    },
    Family {
        name: "foreco_ingress_late_total",
        kind: Kind::Counter,
        help: "Stale frames fed through the late-command path.",
        value: |i| i.late,
    },
    Family {
        name: "foreco_ingress_reordered_total",
        kind: Kind::Counter,
        help: "Out-of-order arrivals healed by the reorder buffer.",
        value: |i| i.reordered,
    },
    Family {
        name: "foreco_ingress_duplicates_total",
        kind: Kind::Counter,
        help: "Duplicate frames discarded.",
        value: |i| i.duplicates,
    },
    Family {
        name: "foreco_ingress_malformed_total",
        kind: Kind::Counter,
        help: "Frames rejected for invalid payloads.",
        value: |i| i.malformed,
    },
    Family {
        name: "foreco_ingress_bounced_total",
        kind: Kind::Counter,
        help: "Backpressure bounces converted to losses.",
        value: |i| i.bounced,
    },
];

/// The shared telemetry plane: one [`ShardCounters`] set per shard plus
/// the lifecycle-observer count. Created by `Service::spawn`, shared
/// (via `Arc`) between every shard and every `ServiceHandle`.
#[derive(Debug)]
pub struct Telemetry {
    shards: Vec<ShardCounters>,
    /// Live lifecycle observers (event subscribers that want
    /// park-level session events). Shards emit `SessionEvent::Parked`
    /// only while this is non-zero.
    observers: AtomicU64,
}

impl Telemetry {
    /// A zeroed plane for `shards` workers.
    pub fn new(shards: usize) -> Self {
        Self {
            shards: (0..shards).map(|_| ShardCounters::default()).collect(),
            observers: AtomicU64::new(0),
        }
    }

    /// One shard's counters.
    pub fn shard(&self, index: usize) -> &ShardCounters {
        &self.shards[index]
    }

    /// Registers a lifecycle observer (see module docs). Paired with
    /// [`Telemetry::detach_observer`].
    pub fn attach_observer(&self) {
        self.observers.fetch_add(1, Ordering::Relaxed);
    }

    /// Unregisters a lifecycle observer. An unpaired detach is a no-op:
    /// the count saturates at zero instead of wrapping to "observed
    /// forever".
    pub fn detach_observer(&self) {
        let _ = self
            .observers
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1));
    }

    /// True while any lifecycle observer is attached.
    pub fn observed(&self) -> bool {
        self.observers.load(Ordering::Relaxed) > 0
    }

    /// Point-in-time copy of every shard's counters.
    pub fn summaries(&self) -> Vec<ShardSummary> {
        self.shards
            .iter()
            .enumerate()
            .map(|(index, shard)| shard.summary(index))
            .collect()
    }
}

/// Renders per-shard summaries, the fleet's wire-ingress totals and,
/// when available, the distribution of completed sessions' task-space
/// RMSE in the Prometheus text exposition format: `# HELP`/`# TYPE`
/// headers, one series per shard via a `shard` label, `_total`-suffixed
/// counters printed as exact integers. Allocates freely — this is
/// control-plane code by the observability discipline (module docs).
pub fn render_prometheus(
    shards: &[ShardSummary],
    ingress: &IngressSummary,
    rmse_mm: Option<&PercentileSummary>,
) -> String {
    let mut out = String::with_capacity(4096);
    for family in SHARD_FAMILIES {
        family.header(&mut out);
        for shard in shards {
            let value = (family.value)(shard);
            let _ = writeln!(out, "{}{{shard=\"{}\"}} {value}", family.name, shard.shard);
        }
    }
    for family in INGRESS_FAMILIES {
        family.header(&mut out);
        let _ = writeln!(out, "{} {}", family.name, (family.value)(ingress));
    }
    if let Some(rmse) = rmse_mm {
        let name = "foreco_session_rmse_mm";
        let _ = writeln!(
            out,
            "# HELP {name} Task-space RMSE of completed sessions (mm)."
        );
        let _ = writeln!(out, "# TYPE {name} summary");
        let _ = writeln!(out, "{name}{{quantile=\"0.5\"}} {}", rmse.p50);
        let _ = writeln!(out, "{name}{{quantile=\"0.9\"}} {}", rmse.p90);
        let _ = writeln!(out, "{name}{{quantile=\"0.99\"}} {}", rmse.p99);
        let _ = writeln!(out, "{name}{{quantile=\"1\"}} {}", rmse.max);
        let _ = writeln!(
            out,
            "# HELP {name}_mean Mean task-space RMSE of completed sessions (mm)."
        );
        let _ = writeln!(out, "# TYPE {name}_mean gauge");
        let _ = writeln!(out, "{name}_mean {}", rmse.mean);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn scratch_flushes_and_resets() {
        let telemetry = Telemetry::new(2);
        let mut scratch = ShardScratch {
            ticks: 5,
            parks: 2,
            sessions: 7,
            ..Default::default()
        };
        scratch.flush(telemetry.shard(1));
        // Counter deltas reset; gauge values persist in the scratch.
        assert_eq!((scratch.ticks, scratch.parks, scratch.sessions), (0, 0, 7));
        let s = telemetry.shard(1).summary(1);
        assert_eq!((s.ticks, s.parks, s.sessions), (5, 2, 7));
        // A second pass: counters add, gauges overwrite.
        scratch.ticks = 3;
        scratch.sessions = 4;
        scratch.flush(telemetry.shard(1));
        let s = telemetry.shard(1).summary(1);
        assert_eq!((s.ticks, s.parks, s.sessions), (8, 2, 4));
        // An idle pass republishes the gauge and adds nothing.
        scratch.flush(telemetry.shard(1));
        assert_eq!(telemetry.shard(1).summary(1), s);
        assert_eq!(telemetry.shard(0).summary(0), ShardSummary::default());
    }

    #[test]
    fn scratch_deltas_are_counters_only() {
        let telemetry = Telemetry::new(1);
        let mut scratch = ShardScratch {
            parked: 3,
            ..Default::default()
        };
        assert!(!scratch.has_deltas(), "a gauge is a value, not a delta");
        scratch.adoptions = 1;
        assert!(scratch.has_deltas());
        scratch.flush(telemetry.shard(0));
        assert!(!scratch.has_deltas());
    }

    #[test]
    fn load_summary_snapshots_counters() {
        let counters = ShardCounters::default();
        counters.sessions.store(12, Ordering::Relaxed);
        counters.runnable.store(3, Ordering::Relaxed);
        counters.parked.store(9, Ordering::Relaxed);
        counters.passes.store(100, Ordering::Relaxed);
        counters.wakeups.store(320, Ordering::Relaxed);
        let s = counters.summary(2);
        assert_eq!(s.shard, 2);
        assert_eq!(s.sessions, 12);
        assert_eq!(s.parked, 9);
        assert!((s.wakeups_per_pass() - 3.2).abs() < 1e-12);
        assert_eq!(ShardSummary::default().wakeups_per_pass(), 0.0);
    }

    #[test]
    fn observer_count_gates_lifecycle_events() {
        let telemetry = Telemetry::new(1);
        assert!(!telemetry.observed());
        telemetry.attach_observer();
        telemetry.attach_observer();
        assert!(telemetry.observed());
        telemetry.detach_observer();
        assert!(telemetry.observed());
        telemetry.detach_observer();
        assert!(!telemetry.observed());
    }

    #[test]
    fn unpaired_detach_saturates_at_zero() {
        let telemetry = Telemetry::new(1);
        telemetry.detach_observer();
        assert!(!telemetry.observed(), "a stray detach must not wrap");
        telemetry.attach_observer();
        assert!(telemetry.observed());
        telemetry.detach_observer();
        assert!(!telemetry.observed());
    }

    #[test]
    fn ingress_totals_absorb_sums() {
        let mut totals = IngressSummary::default();
        totals.absorb(&IngressSummary {
            session: 1,
            received: 10,
            delivered: 8,
            lost: 2,
            late: 1,
            reordered: 3,
            duplicates: 1,
            malformed: 0,
            bounced: 1,
        });
        totals.absorb(&IngressSummary {
            session: 2,
            received: 5,
            delivered: 5,
            malformed: 4,
            ..Default::default()
        });
        assert_eq!(
            totals,
            IngressSummary {
                session: 0,
                received: 15,
                delivered: 13,
                lost: 2,
                late: 1,
                reordered: 3,
                duplicates: 1,
                malformed: 4,
                bounced: 1,
            }
        );
    }

    #[test]
    fn prometheus_rendering_is_parseable() {
        let shards = [ShardSummary {
            shard: 0,
            ticks: 100,
            ..Default::default()
        }];
        let rmse = PercentileSummary::of(&[1.0, 2.0, 3.0]);
        let body = render_prometheus(&shards, &IngressSummary::default(), rmse.as_ref());
        assert!(body.contains("# TYPE foreco_ticks_total counter"));
        assert!(body.contains("foreco_ticks_total{shard=\"0\"} 100"));
        assert!(body.contains("foreco_session_rmse_mm{quantile=\"0.99\"}"));
        assert!(body.contains("# TYPE foreco_session_rmse_mm_mean gauge"));
        for line in body.lines() {
            assert!(
                line.starts_with('#') || line.contains(' '),
                "unparseable line: {line}"
            );
        }
    }

    #[test]
    fn every_table_row_renders_exactly_once() {
        let shards: Vec<ShardSummary> = (0..3)
            .map(|shard| ShardSummary {
                shard,
                ..Default::default()
            })
            .collect();
        let body = render_prometheus(&shards, &IngressSummary::default(), None);
        let lines: Vec<&str> = body.lines().collect();
        let shard_labels: Vec<String> = (0..shards.len())
            .map(|k| format!("{{shard=\"{k}\"}}"))
            .collect();
        let unlabelled = vec![String::new()];
        let rows = SHARD_FAMILIES
            .iter()
            .map(|f| (f.name, f.kind, f.help, &shard_labels))
            .chain(
                INGRESS_FAMILIES
                    .iter()
                    .map(|f| (f.name, f.kind, f.help, &unlabelled)),
            );
        let mut seen = HashSet::new();
        let mut at = 0;
        for (name, kind, help, labels) in rows {
            assert!(seen.insert(name), "{name} declared twice");
            assert_eq!(
                name.ends_with("_total"),
                kind == Kind::Counter,
                "{name}: counters, and only counters, end in _total"
            );
            assert_eq!(lines[at], format!("# HELP {name} {help}"));
            assert_eq!(lines[at + 1], format!("# TYPE {name} {}", kind.type_name()));
            for (k, label) in labels.iter().enumerate() {
                assert_eq!(lines[at + 2 + k], format!("{name}{label} 0"));
            }
            at += 2 + labels.len();
        }
        assert_eq!(at, lines.len(), "every rendered line belongs to a row");
    }

    #[test]
    fn ingress_counters_render_as_exact_integers() {
        let ingress = IngressSummary {
            received: (1u64 << 53) + 1,
            ..Default::default()
        };
        let body = render_prometheus(&[], &ingress, None);
        assert!(
            body.lines()
                .any(|l| l == "foreco_ingress_received_total 9007199254740993"),
            "{body}"
        );
    }
}
