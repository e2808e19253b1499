//! Service-wide aggregation: per-session reports → percentile summaries.
//!
//! The paper evaluates one loop at a time; a service hosting thousands
//! cares about the *distribution* — the p99 operator experience, not the
//! mean. [`MetricsRegistry`] collects completed [`SessionReport`]s and
//! reduces them to [`ServiceSummary`]: summed recovery counters plus
//! nearest-rank percentiles of the task-space error.
//!
//! Fleet observability rides alongside: a registry can also hold the
//! final per-shard [`ShardSummary`] picture of a run (the telemetry
//! plane's counters and load gauges, see [`crate::telemetry`]) and the
//! gateway's per-session [`IngressSummary`] counters, so a run's load and
//! wire picture survives next to its reports.

use crate::session::SessionReport;
use crate::spec::SessionId;
use crate::telemetry::ShardSummary;
use foreco_core::RecoveryStats;
use serde::{Deserialize, Serialize};

/// Distribution summary of one scalar across sessions (nearest-rank
/// percentiles).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct PercentileSummary {
    /// Arithmetic mean.
    pub mean: f64,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

impl PercentileSummary {
    /// Summarises a set of values; `None` when the set is empty (an
    /// empty distribution has no percentiles — callers decide whether
    /// that means "no traffic yet" or "report generation bug").
    pub fn of(values: &[f64]) -> Option<Self> {
        if values.is_empty() {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
        Some(Self {
            mean,
            p50: nearest_rank(&sorted, 0.50),
            p90: nearest_rank(&sorted, 0.90),
            p99: nearest_rank(&sorted, 0.99),
            max: sorted[sorted.len() - 1],
        })
    }
}

/// Nearest-rank percentile of an ascending-sorted slice.
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Point-in-time copy of one session's socket-ingress counters, as kept
/// by the `foreco-net` gateway: what the wire delivered, what it lost,
/// and what the gateway did about it. Recordable into a
/// [`MetricsRegistry`] so a run's ingress picture survives next to its
/// session reports (the engine-side view of the same events lives in
/// [`SessionReport`]'s misses and `RecoveryStats::late_patches`), and
/// deserialisable so the control plane can ship it to remote operators.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IngressSummary {
    /// Session the counters belong to.
    pub session: SessionId,
    /// Well-formed data frames received for this session (any order,
    /// duplicates included).
    pub received: u64,
    /// Command slots delivered to the session in order.
    pub delivered: u64,
    /// Slots flushed as losses: wire gaps past the reorder horizon,
    /// gaps resolved by the close-time flush, and bounced injections.
    /// (Slots trailing the last *received* frame are unknowable — the
    /// gateway cannot mourn datagrams it never heard of — so the
    /// session simply ends that many ticks earlier.)
    pub lost: u64,
    /// Stale frames fed through the §VII-C late-command path.
    pub late: u64,
    /// Out-of-order arrivals healed by the reorder buffer (delivered in
    /// order, invisibly to the session).
    pub reordered: u64,
    /// Already-settled sequence numbers discarded (retransmissions).
    pub duplicates: u64,
    /// Frames addressed to this session rejected for an invalid payload
    /// (e.g. a joint-vector dimension that mismatches the arm).
    pub malformed: u64,
    /// Gateway-side backpressure drops: hot-path injections bounced by
    /// a full shard control channel (`ServiceHandle::try_inject`,
    /// converted to losses), frames dropped by a full reorder buffer
    /// (redeliverable — the slot flushes as lost only if nothing ever
    /// lands), and late patches a full channel refused.
    pub bounced: u64,
}

impl IngressSummary {
    /// Adds another summary's counters into this one (fleet totals);
    /// `session` is left as it is.
    pub fn absorb(&mut self, other: &IngressSummary) {
        self.received += other.received;
        self.delivered += other.delivered;
        self.lost += other.lost;
        self.late += other.late;
        self.reordered += other.reordered;
        self.duplicates += other.duplicates;
        self.malformed += other.malformed;
        self.bounced += other.bounced;
    }
}

/// Aggregate view over every completed session.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ServiceSummary {
    /// Completed sessions.
    pub sessions: usize,
    /// Total virtual ticks across sessions.
    pub total_ticks: u64,
    /// Total deadline misses across sessions.
    pub total_misses: u64,
    /// Total inbox-backpressure drops across sessions.
    pub total_overflow_drops: u64,
    /// Summed recovery-engine counters (FoReCo sessions).
    pub recovery: RecoveryStats,
    /// Distribution of per-session task-space RMSE (mm).
    pub rmse_mm: PercentileSummary,
    /// Distribution of per-session worst deviation (mm).
    pub max_deviation_mm: PercentileSummary,
}

/// Collects per-session reports as sessions complete, plus (optionally)
/// the final per-shard load picture of the run. Every report is
/// retained.
#[derive(Debug, Default, Clone, Serialize)]
pub struct MetricsRegistry {
    reports: Vec<SessionReport>,
    shard_loads: Vec<ShardSummary>,
    ingress: Vec<IngressSummary>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one completed session.
    pub fn record(&mut self, report: SessionReport) {
        self.reports.push(report);
    }

    /// Reports recorded.
    pub fn len(&self) -> usize {
        self.reports.len()
    }

    /// True when nothing completed yet.
    pub fn is_empty(&self) -> bool {
        self.reports.is_empty()
    }

    /// The recorded reports, oldest first.
    pub fn reports(&self) -> impl ExactSizeIterator<Item = &SessionReport> {
        self.reports.iter()
    }

    /// The report for one session, if it completed.
    pub fn get(&self, id: SessionId) -> Option<&SessionReport> {
        self.reports.iter().find(|r| r.id == id)
    }

    /// Records the per-shard load picture (typically
    /// `ServiceHandle::shard_loads` taken at the end of a run), so the
    /// balancer's inputs are observable next to the session reports.
    pub fn record_shard_loads(&mut self, loads: Vec<ShardSummary>) {
        self.shard_loads = loads;
    }

    /// The recorded per-shard load summaries (empty unless
    /// [`MetricsRegistry::record_shard_loads`] was called).
    pub fn shard_loads(&self) -> &[ShardSummary] {
        &self.shard_loads
    }

    /// Records per-session socket-ingress counters (typically the
    /// `foreco-net` gateway's, taken at the end of a run), so wire-level
    /// losses are observable next to the engine-level reports they
    /// caused. Accumulates like [`MetricsRegistry::record`]: batches
    /// from several gateways (or several sampling points) append.
    pub fn record_ingress(&mut self, ingress: Vec<IngressSummary>) {
        self.ingress.extend(ingress);
    }

    /// The recorded ingress summaries (empty unless
    /// [`MetricsRegistry::record_ingress`] was called).
    pub fn ingress(&self) -> &[IngressSummary] {
        &self.ingress
    }

    /// Reduces to the service-wide summary; `None` when no session has
    /// completed yet (there is nothing to summarise — previously this
    /// panicked, which turned an idle service's stats query into a
    /// crash).
    pub fn summary(&self) -> Option<ServiceSummary> {
        if self.reports.is_empty() {
            return None;
        }
        let mut recovery = RecoveryStats::default();
        for stats in self.reports.iter().filter_map(|r| r.stats.as_ref()) {
            recovery.ticks += stats.ticks;
            recovery.delivered += stats.delivered;
            recovery.forecasts += stats.forecasts;
            recovery.warmup_repeats += stats.warmup_repeats;
            recovery.horizon_holds += stats.horizon_holds;
            recovery.late_patches += stats.late_patches;
        }
        let rmse: Vec<f64> = self.reports.iter().map(|r| r.rmse_mm).collect();
        let worst: Vec<f64> = self.reports.iter().map(|r| r.max_deviation_mm).collect();
        Some(ServiceSummary {
            sessions: self.reports.len(),
            total_ticks: self.reports.iter().map(|r| r.ticks).sum(),
            total_misses: self.reports.iter().map(|r| r.misses as u64).sum(),
            total_overflow_drops: self.reports.iter().map(|r| r.overflow_drops).sum(),
            recovery,
            rmse_mm: PercentileSummary::of(&rmse).expect("reports is non-empty"),
            max_deviation_mm: PercentileSummary::of(&worst).expect("reports is non-empty"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(id: u64, rmse: f64) -> SessionReport {
        SessionReport {
            id,
            ticks: 100,
            misses: 5,
            overflow_drops: 1,
            rmse_mm: rmse,
            max_deviation_mm: rmse * 2.0,
            stats: Some(RecoveryStats {
                ticks: 100,
                delivered: 95,
                forecasts: 5,
                ..Default::default()
            }),
        }
    }

    #[test]
    fn percentiles_of_known_distribution() {
        let values: Vec<f64> = (1..=100).map(|v| v as f64).collect();
        let p = PercentileSummary::of(&values).expect("non-empty");
        assert_eq!(p.p50, 50.0);
        assert_eq!(p.p90, 90.0);
        assert_eq!(p.p99, 99.0);
        assert_eq!(p.max, 100.0);
        assert!((p.mean - 50.5).abs() < 1e-12);
    }

    #[test]
    fn percentiles_of_singleton() {
        let p = PercentileSummary::of(&[3.5]).expect("non-empty");
        assert_eq!(p.p50, 3.5);
        assert_eq!(p.p99, 3.5);
        assert_eq!(p.max, 3.5);
    }

    #[test]
    fn empty_sets_summarise_to_none() {
        assert_eq!(PercentileSummary::of(&[]), None);
        assert!(MetricsRegistry::new().summary().is_none());
    }

    #[test]
    fn summary_sums_counters() {
        let mut reg = MetricsRegistry::new();
        for i in 0..10 {
            reg.record(report(i, i as f64));
        }
        let s = reg.summary().expect("ten reports recorded");
        assert_eq!(s.sessions, 10);
        assert_eq!(s.total_ticks, 1000);
        assert_eq!(s.total_misses, 50);
        assert_eq!(s.total_overflow_drops, 10);
        assert_eq!(s.recovery.delivered, 950);
        assert_eq!(s.recovery.forecasts, 50);
        assert_eq!(s.rmse_mm.max, 9.0);
    }

    #[test]
    fn summary_is_order_invariant() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        for i in 0..20 {
            a.record(report(i, i as f64));
        }
        for i in (0..20).rev() {
            b.record(report(i, i as f64));
        }
        assert_eq!(a.summary(), b.summary());
    }

    #[test]
    fn lookup_by_id() {
        let mut reg = MetricsRegistry::new();
        reg.record(report(42, 1.0));
        assert!(reg.get(42).is_some());
        assert!(reg.get(7).is_none());
    }
}
