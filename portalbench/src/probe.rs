//! Probe services handed to the portal: a steady always-answering field for
//! `pan_warm` and `churn`, and the counting, span-recording wrapper every
//! workload puts in front of its probe service.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use colr_tree::{ProbeReport, ProbeService, Reading, SensorId, SensorMeta, TimeDelta, Timestamp};

use crate::spans;

/// Highest expiry any generated sensor has (`t_max` of the scenario).
pub const T_MAX_MS: u64 = 10 * 60 * 1_000;
/// Every reading a [`SteadyProbe`] returns lies in `[0, FIELD_MAX)`.
pub const FIELD_MAX: f64 = 100.0;

fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Expiry of a sensor registered at run time: a fixed function of its id,
/// uniform in `[1 min, t_max]`, so the client and the probe agree on it
/// without sharing state.
pub fn registered_expiry(id: u32) -> TimeDelta {
    TimeDelta::from_millis(60_000 + mix(id as u64 ^ 0xe791) % (T_MAX_MS - 60_000 + 1))
}

/// A probe service on which every probe succeeds. Readings expire at the
/// sensor's own expiry; values are a hash of (sensor, instant).
pub struct SteadyProbe {
    /// Expiry of each sensor present at construction, by id.
    expiry_ms: Vec<u64>,
}

impl SteadyProbe {
    pub fn new(sensors: &[SensorMeta]) -> SteadyProbe {
        SteadyProbe {
            expiry_ms: sensors.iter().map(|m| m.expiry.millis()).collect(),
        }
    }
}

impl ProbeService for SteadyProbe {
    fn probe_batch(&self, ids: &[SensorId], now: Timestamp) -> Vec<Option<Reading>> {
        ids.iter()
            .map(|&id| {
                let expiry = match self.expiry_ms.get(id.index()) {
                    Some(&ms) => TimeDelta::from_millis(ms),
                    None => registered_expiry(id.0),
                };
                let h = mix((id.0 as u64) << 32 ^ now.millis());
                Some(Reading {
                    sensor: id,
                    value: (h >> 11) as f64 / (1u64 << 53) as f64 * FIELD_MAX,
                    timestamp: now,
                    expires_at: now + expiry,
                })
            })
            .collect()
    }
}

/// Probe counters shared by every [`Metered`] wrapper of one portal (one
/// per shard on a router).
#[derive(Default)]
pub struct Meter {
    batches: AtomicU64,
    sensors: AtomicU64,
    successes: AtomicU64,
    /// Waves as dispatched: `ceil(batch / parallelism)` per batch, plus the
    /// retry waves the service reports.
    waves: AtomicU64,
}

/// Probe activity between two [`Meter::take`] calls.
#[derive(Debug, Default, Clone, Copy)]
pub struct ProbeDelta {
    pub batches: u64,
    pub sensors: u64,
    pub successes: u64,
    pub dispatched_waves: u64,
}

impl Meter {
    /// Returns and zeroes the counts since the last call. Only the client
    /// thread probes, so a call after each query attributes exactly that
    /// query's probes.
    pub fn take(&self) -> ProbeDelta {
        ProbeDelta {
            batches: self.batches.swap(0, Ordering::Relaxed),
            sensors: self.sensors.swap(0, Ordering::Relaxed),
            successes: self.successes.swap(0, Ordering::Relaxed),
            dispatched_waves: self.waves.swap(0, Ordering::Relaxed),
        }
    }
}

/// Wraps a probe service: counts batches, sensors, successes and dispatched
/// waves into a shared [`Meter`] and records a `probe_batch` span per call.
pub struct Metered<P> {
    inner: P,
    meter: Arc<Meter>,
    parallelism: u64,
}

impl<P> Metered<P> {
    /// `parallelism` is the probe-wave width of the tree's cost model.
    pub fn new(inner: P, meter: Arc<Meter>, parallelism: u64) -> Metered<P> {
        Metered {
            inner,
            meter,
            parallelism: parallelism.max(1),
        }
    }

    fn count(&self, report: &ProbeReport) {
        let n = report.outcomes.len() as u64;
        let ok = report.outcomes.iter().filter(|r| r.is_some()).count() as u64;
        let m = &self.meter;
        m.batches.fetch_add(1, Ordering::Relaxed);
        m.sensors.fetch_add(n, Ordering::Relaxed);
        m.successes.fetch_add(ok, Ordering::Relaxed);
        m.waves.fetch_add(
            n.div_ceil(self.parallelism) + report.retry_waves,
            Ordering::Relaxed,
        );
    }
}

impl<P: ProbeService> ProbeService for Metered<P> {
    fn probe_batch(&self, ids: &[SensorId], now: Timestamp) -> Vec<Option<Reading>> {
        self.probe_batch_report(ids, now, 0).outcomes
    }

    fn probe_batch_report(
        &self,
        ids: &[SensorId],
        now: Timestamp,
        retry_budget_ms: u64,
    ) -> ProbeReport {
        let report = {
            let _span = spans::enter("probe_batch");
            self.inner.probe_batch_report(ids, now, retry_budget_ms)
        };
        self.count(&report);
        report
    }
}
