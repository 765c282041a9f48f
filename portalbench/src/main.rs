//! The portal benchmark: one command, three workloads, every metric by name
//! and unit.
//!
//! ```text
//! portalbench --workload livelocal|pan_warm|churn --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the last stdout line reports the end-to-end metrics;
//! with `--trace 1` it reports the per-layer table from a traced run.
//! Diagnostics (commit, cores, host-speed reference, phase trend, span
//! reconciliation) go to stderr. `LAYERS.md` beside this package maps every
//! per-layer metric to the end-to-end metric and workload it should move.

mod probe;
mod spans;
mod stats;
mod sys;
mod workloads;

use std::process::ExitCode;

use stats::{mean_of_top, median, percentile};
use workloads::{Args, Outcome};

/// Tree levels whose slot-cache hit ratio is reported: the levels where
/// contained terminals sit on the generated populations (leaves are L4).
const HIT_RATIO_LEVELS: std::ops::RangeInclusive<usize> = 2..=4;

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => match num()? {
                s @ 1..=3600 => seconds = Some(s),
                s => return Err(format!("--seconds {s}: must be 1 to 3600")),
            },
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Metrics in report order: `(name, value, unit)`.
type Metrics = Vec<(String, f64, &'static str)>;

fn end_to_end(out: &Outcome) -> Metrics {
    let acc = &out.acc;
    let q = acc.queries.max(1) as f64;
    vec![
        ("setup_s".into(), median(&out.setup_s), "s"),
        ("ops_per_s".into(), acc.ops_per_s(), "1/s"),
        (
            "latency_p50_us".into(),
            acc.round_mean(|r| percentile(&r.lat_us, 0.50)),
            "us",
        ),
        (
            "latency_p99_us".into(),
            acc.round_mean(|r| percentile(&r.lat_us, 0.99)),
            "us",
        ),
        ("cpu_us_per_op".into(), acc.cpu_us_per_op(), "us"),
        (
            "probes_per_query".into(),
            acc.per_query(acc.stats.sensors_probed),
            "count",
        ),
        (
            "comm_ms_per_query".into(),
            acc.comm_ms.iter().sum::<f64>() / q,
            "ms",
        ),
        (
            "comm_worst1pct_ms".into(),
            mean_of_top(&acc.comm_ms, 0.01),
            "ms",
        ),
        ("fulfillment".into(), acc.fulfillment_sum / q, "ratio"),
        ("rss_mb".into(), sys::peak_rss_mb(), "MiB"),
    ]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn per_layer(out: &Outcome) -> Metrics {
    let acc = &out.acc;
    let s = &acc.stats;
    let spans = spans::totals(&out.spans);
    let span = |name: &str| spans.get(name).copied().unwrap_or_default();
    let traced_ops = span("op").count as f64;
    let self_us = |name: &str| ratio(span(name).self_ns as f64 / 1e3, traced_ops);
    let mean_us = |name: &str| ratio(span(name).total_ns as f64 / 1e3, span(name).count as f64);
    let counter = |name: &str| out.telem.counters.get(name).copied().unwrap_or(0) as f64;
    let q = acc.queries.max(1) as f64;
    let p = &acc.probe;
    let mut m: Metrics = vec![
        ("parser.us_per_query".into(), self_us("parse"), "us"),
        ("service.us_per_query".into(), self_us("execute"), "us"),
        ("router.us_per_query".into(), self_us("route"), "us"),
        ("router.fanout".into(), acc.fanout_sum as f64 / q, "count"),
        (
            "tree.nodes_per_query".into(),
            acc.per_query(s.nodes_traversed),
            "count",
        ),
    ];
    for level in HIT_RATIO_LEVELS {
        let (hits, misses) = out.levels.get(level).copied().unwrap_or_default();
        let (hits, misses) = (hits as f64, misses as f64);
        m.push((
            format!("tree.hit_ratio.L{level}"),
            ratio(hits, hits + misses),
            "ratio",
        ));
    }
    let contention = counter("colr_tree_stripe_read_contention_total")
        + counter("colr_tree_stripe_write_contention_total");
    let lsm = out.lsm.as_ref();
    let merges = lsm.map_or(0, |l| l.merges) as f64;
    m.extend([
        ("tree.stripe_contention".into(), contention / q, "count"),
        (
            "slot_cache.hit_ratio".into(),
            ratio(
                s.readings_from_cache as f64,
                (s.readings_from_cache + s.sensors_probed) as f64,
            ),
            "ratio",
        ),
        (
            "slot_cache.slots_per_query".into(),
            acc.per_query(s.slots_combined),
            "count",
        ),
        (
            "slot_cache.inserts_per_query".into(),
            acc.per_query(s.cache_inserts),
            "count",
        ),
        (
            "slot_cache.rolls".into(),
            counter("colr_tree_slots_rolled_total") / q,
            "count",
        ),
        (
            "slot_cache.cached_readings".into(),
            out.cached_readings as f64,
            "count",
        ),
        (
            "probe.batches_per_query".into(),
            p.batches as f64 / q,
            "count",
        ),
        (
            "probe.sensors_per_batch".into(),
            ratio(p.sensors as f64, p.batches as f64),
            "count",
        ),
        ("probe.us_per_query".into(), self_us("probe_batch"), "us"),
        (
            "probe.success_ratio".into(),
            ratio(p.successes as f64, p.sensors as f64),
            "ratio",
        ),
        (
            "probe.wave_efficiency".into(),
            ratio(acc.coalesced_waves as f64, p.dispatched_waves as f64),
            "ratio",
        ),
        ("lsm.register_us".into(), mean_us("register"), "us"),
        ("lsm.retire_us".into(), mean_us("retire"), "us"),
        ("lsm.merges".into(), merges, "count"),
        (
            "lsm.merge_ms_p50".into(),
            lsm.map_or(0.0, |l| median(&l.merge_ms)),
            "ms",
        ),
        (
            "lsm.carryover_per_merge".into(),
            ratio(lsm.map_or(0, |l| l.carryover) as f64, merges),
            "count",
        ),
        (
            "lsm.l0_max".into(),
            lsm.map_or(0, |l| l.l0_max) as f64,
            "count",
        ),
        (
            "lsm.concurrent_miscount_ratio".into(),
            ratio(
                out.checks.concurrent_failed as f64,
                out.checks.concurrent_attempted as f64,
            ),
            "ratio",
        ),
        ("build.s".into(), median(&out.build_s), "s"),
        ("warmup.s".into(), median(&out.warmup_s), "s"),
        (
            "trace.overhead_us_per_op".into(),
            acc.us_per_op(true) - acc.us_per_op(false),
            "us",
        ),
    ]);
    m
}

/// Diagnostics for stderr: the run's context, phase trend, and (traced)
/// how the layer self times add up against the untraced operation time.
fn info(args: &Args, out: &Outcome) {
    let (lo, mid, hi) = out.host.as_ref().map_or((0.0, 0.0, 0.0), |h| h.summary());
    eprintln!(
        "info: workload={} seed={} seconds={} trace={} commit={} nproc={} \
         hostref_ns_per_step(min/median/max)={lo:.2}/{mid:.2}/{hi:.2}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        sys::commit(),
        sys::nproc(),
    );
    let ((p0, s0), (p4, s4)) = out.acc.trend();
    eprintln!(
        "info: queries={} rounds={} trend probes/query first/last fifth {p0:.3}/{p4:.3}, \
         slots/query {s0:.2}/{s4:.2}; client thread cpu {:.2}s",
        out.acc.queries,
        out.acc.rounds.len(),
        sys::thread_cpu_s(),
    );
    let c = &out.checks;
    eprintln!(
        "info: checks attempted={} failed={}; past the count window attempted={} \
         failed={}; concurrent phase exact counts outside their bracket {}/{}",
        c.attempted,
        c.failed,
        c.late_attempted,
        c.late_failed,
        c.concurrent_failed,
        c.concurrent_attempted
    );
    if args.trace {
        let totals = spans::totals(&out.spans);
        let traced_ops: u64 = out
            .acc
            .rounds
            .iter()
            .filter(|r| r.traced)
            .map(|r| r.ops)
            .sum();
        let per_op = |ns: u64| ns as f64 / 1e3 / traced_ops.max(1) as f64;
        let mut parts: Vec<(&str, f64)> = totals
            .iter()
            .filter(|(name, _)| **name != "merge")
            .map(|(name, t)| (*name, per_op(t.self_ns)))
            .collect();
        parts.sort_by(|a, b| a.0.cmp(b.0));
        let spanned: f64 = parts.iter().map(|p| p.1).sum();
        let (traced, untraced) = (out.acc.us_per_op(true), out.acc.us_per_op(false));
        eprintln!(
            "info: per client operation, µs: span self times {parts:?} sum {spanned:.2}; \
             outside spans {:.2}; traced wall {traced:.2} = untraced {untraced:.2} + \
             tracing overhead {:.2}",
            traced - spanned,
            traced - untraced
        );
    }
}

fn json(out: &Outcome, metrics: &Metrics, correct: bool) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.checks.attempted.max(1),
        out.checks.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("portalbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run: fn(&Args) -> Outcome = match args.workload.as_str() {
        "livelocal" => workloads::livelocal,
        "pan_warm" => workloads::pan_warm,
        "churn" => workloads::churn,
        other => {
            eprintln!("portalbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let mut out = run(&args);
    out.spans = spans::take_all();
    info(&args, &out);
    let metrics = if args.trace {
        per_layer(&out)
    } else {
        end_to_end(&out)
    };
    // Wrong or missing answers are failed operations, reported in `failed`
    // (and on stderr); `correct` says the run measured what it set out to:
    // every measured round has answered queries and every metric is finite.
    let correct = out.acc.rounds.iter().all(|r| !r.lat_us.is_empty())
        && metrics.iter().all(|(_, v, _)| v.is_finite());
    println!("{}", json(&out, &metrics, correct));
    ExitCode::SUCCESS
}
