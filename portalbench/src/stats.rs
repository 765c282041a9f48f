//! Order statistics and the measured-phase accumulator.

use colr_engine::QueryResponse;
use colr_tree::{CostModel, QueryStats};

use crate::probe::ProbeDelta;

/// Median of `v` (any order); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// Linear-interpolated quantile `q` of `v` (any order); 0 when empty.
pub fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Mean of the largest `share` of `v` (at least one value); 0 when empty.
pub fn mean_of_top(v: &[f64], share: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| b.total_cmp(a));
    let k = ((s.len() as f64 * share).ceil() as usize).clamp(1, s.len());
    s[..k].iter().sum::<f64>() / k as f64
}

/// Modelled network wait of one query at the default cost model: one round
/// trip per dispatched wave, marshalling overhead per probe and per retry,
/// plus retry backoff.
pub fn comm_ms(stats: &QueryStats) -> f64 {
    let cost = CostModel::default();
    stats.probe_waves as f64 * cost.probe_rtt_ms
        + (stats.sensors_probed + stats.probes_retried) as f64 * cost.probe_overhead_ms
        + stats.retry_backoff_ms as f64
}

/// One measured round: a fixed stretch of client operations.
#[derive(Debug, Default)]
pub struct Round {
    pub traced: bool,
    /// Wall and process-CPU time of the round, checks excluded.
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Client operations completed.
    pub ops: u64,
    /// Client wall time of each query, µs.
    pub lat_us: Vec<f64>,
}

/// Everything the measured phase records. Rounds time every operation of
/// the phase; the counts (stats, communication, fulfillment, probes, trend)
/// cover only its first `window` queries, a fixed stretch of the operation
/// sequence, so they repeat exactly whatever the host speed.
#[derive(Debug, Default)]
pub struct Acc {
    pub rounds: Vec<Round>,
    pub queries: u64,
    pub stats: QueryStats,
    pub comm_ms: Vec<f64>,
    pub fulfillment_sum: f64,
    /// Σ ceil(sensors_probed / parallelism): the waves a fully coalescing
    /// executor would dispatch.
    pub coalesced_waves: u64,
    pub probe: ProbeDelta,
    pub fanout_sum: u64,
    /// `(queries, sensors probed, slots combined)` per fifth of the window.
    pub fifths: [(u64, u64, u64); 5],
    window: u64,
}

impl Acc {
    /// An accumulator whose counts cover the first `window` queries.
    pub fn new(window: u64) -> Acc {
        Acc {
            window: window.max(1),
            ..Acc::default()
        }
    }

    /// Whether the counts have covered their whole window.
    pub fn window_full(&self) -> bool {
        self.queries >= self.window
    }

    /// Records one answered query's latency and, inside the window, its
    /// counts and the probe activity it caused.
    pub fn query(&mut self, resp: &QueryResponse, probe: ProbeDelta, lat_us: f64) {
        if let Some(r) = self.rounds.last_mut() {
            r.lat_us.push(lat_us);
        }
        if self.window_full() {
            return;
        }
        let s = &resp.result.stats;
        let fifth = ((self.queries * 5) / self.window).min(4) as usize;
        let f = &mut self.fifths[fifth];
        f.0 += 1;
        f.1 += s.sensors_probed;
        f.2 += s.slots_combined;
        self.queries += 1;
        self.stats.merge(s);
        self.comm_ms.push(comm_ms(s));
        let d = &resp.result.degradation;
        self.fulfillment_sum += if d.requested > 0.0 {
            (d.sampled as f64 / d.requested).min(1.0)
        } else {
            1.0
        };
        self.coalesced_waves += s
            .sensors_probed
            .div_ceil(CostModel::default().probe_parallelism);
        self.probe.batches += probe.batches;
        self.probe.sensors += probe.sensors;
        self.probe.successes += probe.successes;
        self.probe.dispatched_waves += probe.dispatched_waves;
        self.fanout_sum += resp.shards.len() as u64;
    }

    /// A window total divided by the window's queries.
    pub fn per_query(&self, total: u64) -> f64 {
        total as f64 / self.queries.max(1) as f64
    }

    /// `(first fifth, last fifth)` means of `(probes, slots)` per query.
    pub fn trend(&self) -> ((f64, f64), (f64, f64)) {
        let mean = |f: (u64, u64, u64)| {
            let q = f.0.max(1) as f64;
            (f.1 as f64 / q, f.2 as f64 / q)
        };
        (mean(self.fifths[0]), mean(self.fifths[4]))
    }

    /// Mean of `f(round)` over the untraced rounds. A shared host slows
    /// whole stretches of a run; the mean over the whole phase weighs them
    /// by their length, where a median or a low quantile would jump between
    /// the host's states from run to run.
    pub fn round_mean(&self, f: impl Fn(&Round) -> f64) -> f64 {
        let v: Vec<f64> = self.rounds.iter().filter(|r| !r.traced).map(f).collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    }

    /// Client operations per wall second over the untraced rounds.
    pub fn ops_per_s(&self) -> f64 {
        let (wall, ops) = self.untraced_totals(|r| r.wall_s);
        ops as f64 / wall
    }

    /// Process CPU time per client operation over the untraced rounds, µs:
    /// every thread counts, so `churn`'s merge pump is charged in full.
    pub fn cpu_us_per_op(&self) -> f64 {
        let (cpu, ops) = self.untraced_totals(|r| r.cpu_s);
        cpu * 1e6 / ops.max(1) as f64
    }

    /// `(Σ f(round), Σ ops)` over the untraced rounds.
    fn untraced_totals(&self, f: impl Fn(&Round) -> f64) -> (f64, u64) {
        self.rounds
            .iter()
            .filter(|r| !r.traced)
            .fold((0.0, 0), |(t, o), r| (t + f(r), o + r.ops))
    }

    /// Mean client wall time per operation over the rounds of one tracing
    /// state, µs.
    pub fn us_per_op(&self, traced: bool) -> f64 {
        let (wall, ops) = self
            .rounds
            .iter()
            .filter(|r| r.traced == traced)
            .fold((0.0, 0u64), |(w, o), r| (w + r.wall_s, o + r.ops));
        wall * 1e6 / ops.max(1) as f64
    }
}
