//! The three workloads. Each builds its inputs from the seed, sets the
//! portal up (several times, for a steady set-up figure), warms it to steady
//! state, then measures a fixed operation sequence in rounds with one client
//! thread in a closed loop: counts over a fixed window at its start, timings
//! over the whole of `--seconds`.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::time::Instant;

use colr_engine::{
    parse, AggSpec, ExplainLevel, IndexStrategy, PortalConfig, PortalError, PortalService,
    QueryRequest, QueryResponse, ShardedPortal, SpatialPredicate,
};
use colr_geo::{Point, Rect};
use colr_sensors::{RandomWalkField, SimNetwork};
use colr_telemetry::{global, Snapshot};
use colr_tree::{LsmConfig, Mode, ProbeService, SensorId, SensorMeta, TimeDelta, Timestamp};
use colr_workload::{QuerySpec, QueryWorkload, Scenario, ScenarioConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::probe::{registered_expiry, Meter, Metered, SteadyProbe, FIELD_MAX};
use crate::spans::{self, Span};
use crate::stats::{Acc, Round};
use crate::sys::{process_cpu_s, HostRef};

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// Portal set-ups per run; `setup_s` is the median of their CPU times.
const SETUPS: usize = 3;
/// Value range of the `livelocal` field.
const LIVELOCAL_FIELD_MAX: f64 = 60.0;
/// Client operations (cycles, on `churn`) per measured round: each round
/// holds at least 2,000 queries, so its p99 has twenty samples beyond it.
/// `pan_warm` rounds are two viewport cycles, `churn` rounds whole merge
/// periods (a multiple of the L0 capacity).
const LIVELOCAL_ROUND: u64 = 2_000;
const PAN_WARM_ROUND: u64 = 4_096;
const CHURN_ROUND: u64 = 4_096;
/// Queries whose counts a run reports: a fixed stretch at the start of the
/// measured phase, so the counts repeat exactly for a seed. Rounds go on,
/// replaying the same sequence, until `--seconds` have passed; each window
/// takes well under 30 s on a two-core x86-64 host.
const LIVELOCAL_WINDOW: u64 = 96_000;
const PAN_WARM_WINDOW: u64 = 131_072;
const CHURN_WINDOW: u64 = 65_536;
/// Queries (cycles, on `churn`) replayed before timing starts: about twice
/// the point where probes and combined slots per query stop trending when
/// the portal starts cold (about 8,000 on each workload).
const LIVELOCAL_WARMUP: usize = 16_000;
const PAN_WARM_WARMUP: usize = 16_000;
const CHURN_WARMUP: usize = 20_000;
/// `pan_warm`/`churn` viewport cycle and virtual-clock step per query.
const VIEWPORTS: usize = 2_048;
const STEP_MS: u64 = 50;
/// Shards behind the `pan_warm` router.
const SHARDS: usize = 4;
/// Live registered sensors `churn` keeps before retiring the oldest.
const COHORT: usize = 2_048;
/// Registration sites `churn` cycles through.
const SITES: usize = 65_536;
/// `churn` client cycles between two wake-ups of the merge pump.
const PUMP_TICK: usize = 64;
/// Client operations between two exact-count checks.
const CHECK_EVERY: usize = 2_000;
/// Exact counts the concurrent check phase of `churn` issues.
const CONCURRENT_CHECKS: usize = 200;
/// Queries a traced run adds after its measured phase, as `EXPLAIN ANALYZE`,
/// for the per-level slot-cache census.
const CENSUS: usize = 2_000;

/// What one run observed.
#[derive(Default)]
pub struct Outcome {
    pub checks: Checks,
    pub setup_s: Vec<f64>,
    pub build_s: Vec<f64>,
    pub warmup_s: Vec<f64>,
    pub acc: Acc,
    /// Telemetry registry over the measured phase (counters diffed, gauges
    /// at phase end).
    pub telem: Snapshot,
    pub spans: Vec<Span>,
    pub lsm: Option<PumpRecord>,
    pub host: Option<HostRef>,
    /// Raw readings held in the published slot caches at phase end (under
    /// LSM, the primary level's: the only level the public API exposes).
    pub cached_readings: u64,
    /// Slot-cache `(hits, misses)` at contained terminals, by tree level,
    /// from the flight records of the census queries.
    pub levels: Vec<(u64, u64)>,
}

impl Outcome {
    /// Adds one `EXPLAIN ANALYZE` answer's per-level hits and misses.
    fn census(&mut self, resp: &QueryResponse) {
        let Some(flight) = &resp.flight else {
            return;
        };
        let num = |text: &str| -> u64 {
            let digits: String = text.chars().take_while(char::is_ascii_digit).collect();
            digits.parse().unwrap_or(0)
        };
        let field = |rec: &str, key: &str| rec.split(key).nth(1).map_or(0, num);
        for rec in flight.split("{\"level\": ").skip(1) {
            let level = num(rec) as usize;
            if self.levels.len() <= level {
                self.levels.resize(level + 1, (0, 0));
            }
            self.levels[level].0 += field(rec, "\"cache_hits\": ");
            self.levels[level].1 += field(rec, "\"cache_misses\": ");
        }
    }
}

/// Answer checks, counted as failed operations against attempts.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// Checks made once the count window is full. They run like the others,
    /// but their number depends on the host's speed, so they are reported
    /// beside `attempted`/`failed` rather than in them.
    pub late_attempted: u64,
    pub late_failed: u64,
    late: bool,
    /// Exact counts `churn`'s concurrent phase issued, and how many fell
    /// outside their bracket (the phase itself is one check in
    /// `attempted`/`failed`).
    pub concurrent_attempted: u64,
    pub concurrent_failed: u64,
}

impl Checks {
    fn attempt(&mut self) {
        if self.late {
            self.late_attempted += 1;
        } else {
            self.attempted += 1;
        }
    }

    fn fail(&mut self, what: String) {
        if self.late {
            self.late_failed += 1;
        } else {
            self.failed += 1;
        }
        if self.failed + self.late_failed <= 5 {
            eprintln!("check failed: {what}");
        }
    }

    /// Checks one query answer: no error, `avg` values within the field's
    /// range, and every group's box meeting the viewport.
    fn answer(
        &mut self,
        res: Result<QueryResponse, PortalError>,
        view: &Rect,
        max: f64,
    ) -> Option<QueryResponse> {
        self.attempt();
        let resp = match res {
            Ok(r) => r,
            Err(e) => {
                self.fail(format!("query error: {e}"));
                return None;
            }
        };
        let in_range = |v: Option<f64>| v.is_none_or(|v| (0.0..=max).contains(&v));
        let r = &resp.result;
        if !in_range(r.value) || r.groups.iter().any(|g| !in_range(g.value)) {
            self.fail(format!("avg outside [0, {max}]: {:?}", r.value));
        } else if let Some(g) = r.groups.iter().find(|g| !g.bbox.intersects(view)) {
            self.fail(format!("group box {:?} misses viewport {view:?}", g.bbox));
        }
        Some(resp)
    }

    /// Checks an exact count against the expected population.
    fn count(&mut self, res: Result<QueryResponse, PortalError>, expected: u64, what: &str) {
        self.attempt();
        match res {
            Ok(r) if r.result.value == Some(expected as f64) => {}
            Ok(r) => self.fail(format!(
                "{what}: count {:?}, expected {expected}",
                r.result.value
            )),
            Err(e) => self.fail(format!("{what}: error {e}")),
        }
    }
}

/// Wall and process-CPU time of a stretch of a round.
#[derive(Default, Clone, Copy)]
struct Times {
    wall_s: f64,
    cpu_s: f64,
}

impl Times {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let (w, c) = (Instant::now(), process_cpu_s());
        let out = f();
        self.wall_s += w.elapsed().as_secs_f64();
        self.cpu_s += process_cpu_s() - c;
        out
    }
}

/// Runs the measured phase in rounds of `per_round` operations, until the
/// count window is full and `seconds` have passed. `prep` builds a round's
/// inputs before its clocks start; `op` runs the operation with the given
/// index and returns how many client operations it counted; the time it
/// spends in its `Times` argument (checks) is left out of the round. With
/// `trace`, every second round records spans. Returns the number of
/// operation indices used.
fn measure<T>(
    out: &mut Outcome,
    seconds: u64,
    per_round: u64,
    trace: bool,
    mut prep: impl FnMut(Range<usize>) -> T,
    mut op: impl FnMut(usize, &T, &mut Acc, &mut Checks, &mut Times) -> u64,
) -> usize {
    let host = out.host.get_or_insert_with(HostRef::new);
    let before = global().snapshot();
    let start = Instant::now();
    let mut r = 0;
    while !out.acc.window_full() || start.elapsed().as_secs_f64() < seconds as f64 {
        let range = (r * per_round) as usize..((r + 1) * per_round) as usize;
        let input = prep(range.clone());
        host.sample();
        let traced = trace && r % 2 == 1;
        out.checks.late = out.acc.window_full();
        out.acc.rounds.push(Round {
            traced,
            ..Round::default()
        });
        let mut ex = Times::default();
        spans::set_enabled(traced);
        let mut all = Times::default();
        let ops = all.time(|| {
            range
                .map(|i| op(i, &input, &mut out.acc, &mut out.checks, &mut ex))
                .sum()
        });
        spans::set_enabled(false);
        let round = out.acc.rounds.last_mut().expect("round pushed above");
        round.wall_s = all.wall_s - ex.wall_s;
        round.cpu_s = all.cpu_s - ex.cpu_s;
        round.ops = ops;
        r += 1;
    }
    out.checks.late = false;
    host.sample();
    out.telem = global().snapshot().diff(&before);
    (r * per_round) as usize
}

/// Times one portal set-up: construction, then warm-up. Returns the portal.
/// Set-up is timed in process CPU seconds, every thread included (the
/// `churn` merge pump too): unlike wall time, CPU time leaves out the
/// stretches in which the host runs someone else.
fn set_up<T>(
    out: &mut Outcome,
    build: impl FnOnce() -> T,
    warm: impl FnOnce(&T, &mut Checks),
) -> T {
    let t0 = process_cpu_s();
    let portal = build();
    let t1 = process_cpu_s();
    warm(&portal, &mut out.checks);
    let t2 = process_cpu_s();
    out.build_s.push(t1 - t0);
    out.warmup_s.push(t2 - t1);
    out.setup_s.push(t2 - t0);
    portal
}

/// The map is the `live_local_small` scenario at its own fixed seed: 40k
/// sensors in Zipf-weighted city clusters. The traffic over it (the query
/// trace, probe outcomes, registrations) comes from the workload seed, so
/// seeds vary what users do rather than which map they do it on.
fn scenario(seed: u64, queries: usize) -> Scenario {
    let mut cfg = ScenarioConfig::live_local_small();
    cfg.queries.count = 0;
    let mut sc = cfg.build();
    cfg.queries.count = queries;
    let centres = cfg.placement.centres(cfg.extent, cfg.seed);
    sc.queries = QueryWorkload::generate(cfg.extent, &centres, &cfg.queries, seed);
    sc
}

fn probe_parallelism() -> u64 {
    PortalConfig::default().tree.cost.probe_parallelism
}

fn rect_of(req: &QueryRequest) -> Rect {
    match &req.select().within {
        SpatialPredicate::Rect(r) => *r,
        other => panic!("viewport requests are rectangles, got {other:?}"),
    }
}

fn viewport_request(spec: &QuerySpec) -> QueryRequest {
    QueryRequest::builder(SpatialPredicate::Rect(spec.rect))
        .agg(AggSpec::Avg)
        .staleness(spec.staleness)
        .cluster(50.0)
        .sample_size(50)
        .build()
}

fn exact_count_request(rect: Rect) -> QueryRequest {
    QueryRequest::builder(SpatialPredicate::Rect(rect))
        .agg(AggSpec::Count)
        .mode(Mode::RTree)
        .build()
}

fn brute_count(sensors: &[SensorMeta], rect: &Rect) -> u64 {
    sensors
        .iter()
        .filter(|m| rect.contains_point(&m.location))
        .count() as u64
}

// ---------------------------------------------------------------------------
// livelocal
// ---------------------------------------------------------------------------

fn livelocal_sql(spec: &QuerySpec) -> String {
    format!(
        "SELECT avg(value) FROM sensor WHERE location WITHIN RECT({}, {}, {}, {}) \
         AND time BETWEEN now()-{} AND now() SECS CLUSTER 50 SAMPLESIZE 50",
        spec.rect.min.x,
        spec.rect.min.y,
        spec.rect.max.x,
        spec.rect.max.y,
        spec.staleness.millis() / 1_000,
    )
}

/// One `livelocal` query arriving at `at`: parse the SQL text, execute it,
/// check the answer.
fn livelocal_query<P: ProbeService>(
    svc: &PortalService<P>,
    spec: &QuerySpec,
    at: Timestamp,
    sql: &str,
    explain: ExplainLevel,
    checks: &mut Checks,
) -> Option<(QueryResponse, f64)> {
    svc.clock().advance_to(at);
    let t0 = Instant::now();
    let res = {
        let _op = spans::enter("op");
        let select = {
            let _s = spans::enter("parse");
            parse(sql)
        };
        select.map_err(PortalError::from).and_then(|select| {
            let req = QueryRequest::new(select)
                .with_sql_len(sql.len() as u64)
                .with_explain(explain);
            let _s = spans::enter("execute");
            svc.execute(&req)
        })
    };
    let lat_us = t0.elapsed().as_secs_f64() * 1e6;
    checks
        .answer(res, &spec.rect, LIVELOCAL_FIELD_MAX)
        .map(|r| (r, lat_us))
}

/// The paper's evaluation trace, replayed as SQL over a lossy network.
pub fn livelocal(args: &Args) -> Outcome {
    let sc = scenario(args.seed, LIVELOCAL_WARMUP + LIVELOCAL_WINDOW as usize);
    let (warm_specs, specs) = sc.queries.queries.split_at(LIVELOCAL_WARMUP);
    // Past the window the trace replays in laps, each shifted in time to
    // follow on from the one before at the trace's mean arrival gap.
    let span = specs[specs.len() - 1].at.millis() - specs[0].at.millis();
    let lap = span + span / (specs.len() as u64 - 1);
    let nth = |i: usize| {
        let spec = &specs[i % specs.len()];
        let laps = (i / specs.len()) as u64;
        (spec, spec.at + TimeDelta::from_millis(lap * laps))
    };
    let warm_sql: Vec<String> = warm_specs.iter().map(livelocal_sql).collect();
    let meter = Arc::new(Meter::default());
    let mut out = Outcome {
        acc: Acc::new(LIVELOCAL_WINDOW),
        ..Outcome::default()
    };
    let mut svc = None;
    for _ in 0..SETUPS {
        drop(svc.take());
        let field = RandomWalkField::new(
            sc.sensors.len(),
            0.0,
            LIVELOCAL_FIELD_MAX,
            2.0,
            args.seed ^ 0xf1e1d,
        );
        let net = SimNetwork::new(sc.sensors.clone(), field, args.seed ^ 0x7e7);
        let sensors = sc.sensors.clone();
        let probe = Metered::new(net, meter.clone(), probe_parallelism());
        svc = Some(set_up(
            &mut out,
            || PortalService::new(sensors, probe, PortalConfig::default()),
            |svc, checks| {
                for (spec, sql) in warm_specs.iter().zip(&warm_sql) {
                    livelocal_query(svc, spec, spec.at, sql, ExplainLevel::None, checks);
                }
            },
        ));
    }
    let svc = svc.expect("at least one set-up");
    meter.take();
    let next = measure(
        &mut out,
        args.seconds,
        LIVELOCAL_ROUND,
        args.trace,
        |range| range.map(|i| livelocal_sql(nth(i).0)).collect::<Vec<_>>(),
        |i, sqls, acc, checks, _| {
            let sql = &sqls[i % LIVELOCAL_ROUND as usize];
            let (spec, at) = nth(i);
            if let Some((resp, lat)) =
                livelocal_query(&svc, spec, at, sql, ExplainLevel::None, checks)
            {
                acc.query(&resp, meter.take(), lat);
            }
            1
        },
    );
    out.cached_readings = svc.snapshot().tree().cached_readings() as u64;
    if args.trace {
        for i in next..next + CENSUS {
            let (spec, at) = nth(i);
            let sql = livelocal_sql(spec);
            if let Some((resp, _)) =
                livelocal_query(&svc, spec, at, &sql, ExplainLevel::Analyze, &mut out.checks)
            {
                out.census(&resp);
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// pan_warm
// ---------------------------------------------------------------------------

/// Map panning over cached hotspots through a sharded router.
pub fn pan_warm(args: &Args) -> Outcome {
    let sc = scenario(args.seed, VIEWPORTS);
    let reqs: Vec<QueryRequest> = sc.queries.queries.iter().map(viewport_request).collect();
    let meter = Arc::new(Meter::default());
    let mut out = Outcome {
        acc: Acc::new(PAN_WARM_WINDOW),
        ..Outcome::default()
    };
    let query =
        |router: &ShardedPortal<Metered<SteadyProbe>>, req: &QueryRequest, checks: &mut Checks| {
            router.clock().advance(TimeDelta::from_millis(STEP_MS));
            let t0 = Instant::now();
            let res = {
                let _op = spans::enter("op");
                let _s = spans::enter("route");
                router.execute(req)
            };
            let lat_us = t0.elapsed().as_secs_f64() * 1e6;
            checks
                .answer(res, &rect_of(req), FIELD_MAX)
                .map(|r| (r, lat_us))
        };
    let mut router = None;
    for _ in 0..SETUPS {
        drop(router.take());
        let sensors = sc.sensors.clone();
        let meter = meter.clone();
        router = Some(set_up(
            &mut out,
            || {
                ShardedPortal::new(
                    sensors,
                    |_, metas| {
                        Metered::new(SteadyProbe::new(metas), meter.clone(), probe_parallelism())
                    },
                    SHARDS,
                    PortalConfig::default(),
                )
            },
            |router, checks| {
                for i in 0..PAN_WARM_WARMUP {
                    query(router, &reqs[i % VIEWPORTS], checks);
                }
            },
        ));
    }
    let router = router.expect("at least one set-up");
    meter.take();
    let next = measure(
        &mut out,
        args.seconds,
        PAN_WARM_ROUND,
        args.trace,
        |_| (),
        |i, _, acc, checks, ex| {
            let req = &reqs[(PAN_WARM_WARMUP + i) % VIEWPORTS];
            if let Some((resp, lat)) = query(&router, req, checks) {
                acc.query(&resp, meter.take(), lat);
            }
            if i % CHECK_EVERY == CHECK_EVERY - 1 {
                ex.time(|| {
                    let rect = rect_of(&reqs[i % VIEWPORTS]);
                    let res = router.execute(&exact_count_request(rect));
                    checks.count(res, brute_count(&sc.sensors, &rect), "viewport exact count");
                    meter.take();
                });
            }
            1
        },
    );
    out.cached_readings = (0..router.shard_count())
        .map(|s| router.shard(s).snapshot().tree().cached_readings() as u64)
        .sum();
    if args.trace {
        let next = PAN_WARM_WARMUP + next;
        for i in next..next + CENSUS {
            let req = reqs[i % VIEWPORTS]
                .clone()
                .with_explain(ExplainLevel::Analyze);
            if let Some((resp, _)) = query(&router, &req, &mut out.checks) {
                out.census(&resp);
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// churn
// ---------------------------------------------------------------------------

/// What the merge pump saw.
#[derive(Debug, Default)]
pub struct PumpRecord {
    pub merges: u64,
    pub merge_ms: Vec<f64>,
    pub l0_max: usize,
    pub carryover: u64,
}

/// The merge pump: on every tick from the client, records L0 occupancy and
/// merges while the index asks for it, as `Reindexer` does.
fn pump<P: ProbeService>(svc: &PortalService<P>, ticks: Receiver<()>) -> PumpRecord {
    let mut rec = PumpRecord::default();
    for () in ticks {
        let stats = svc.index_stats().expect("churn runs on the LSM index");
        rec.l0_max = rec.l0_max.max(stats.l0_occupancy);
        while svc.wants_reindex(usize::MAX) {
            let _s = spans::enter("merge");
            let t0 = Instant::now();
            svc.reindex();
            rec.merge_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            rec.merges += 1;
        }
    }
    spans::flush();
    rec
}

/// A registration site: inside a viewport, with a generated availability.
struct Site {
    at: Point,
    availability: f64,
}

fn sites(views: &[QuerySpec], n: usize, seed: u64) -> Vec<Site> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|k| {
            let r = views[k % views.len()].rect;
            Site {
                at: Point::new(
                    rng.random_range(r.min.x..=r.max.x),
                    rng.random_range(r.min.y..=r.max.y),
                ),
                availability: rng.random_range(0.75..=1.0),
            }
        })
        .collect()
}

/// The `churn` client: registrations, retirements and queries on one thread.
struct ChurnClient<'a> {
    svc: PortalService<Metered<SteadyProbe>>,
    reqs: &'a [QueryRequest],
    sites: &'a [Site],
    cohort: VecDeque<SensorId>,
    base: u64,
    /// Cycles run so far: the next registration gets id `base + cycles`.
    cycles: usize,
}

impl ChurnClient<'_> {
    /// One cycle: register, retire the oldest once the cohort is full, run
    /// one viewport query. Returns the query answer with its latency and the
    /// operations the cycle counted.
    fn cycle(&mut self, k: usize, checks: &mut Checks) -> (Option<(QueryResponse, f64)>, u64) {
        let site = &self.sites[k % self.sites.len()];
        let req = &self.reqs[k % VIEWPORTS];
        self.cycles = k + 1;
        let _op = spans::enter("op");
        let id = {
            let _s = spans::enter("register");
            let id = SensorId(self.base as u32 + k as u32);
            let got =
                self.svc
                    .register_sensor(site.at, registered_expiry(id.0), site.availability, 0);
            debug_assert_eq!(got, id, "registration ids are sequential");
            got
        };
        checks.attempt();
        self.cohort.push_back(id);
        let mut ops = 2;
        if self.cohort.len() > COHORT {
            let old = self.cohort.pop_front().expect("cohort is non-empty");
            let retired = {
                let _s = spans::enter("retire");
                self.svc.retire_sensor(old)
            };
            checks.attempt();
            if !retired {
                checks.fail(format!("retire of live sensor {old:?} refused"));
            }
            ops += 1;
        }
        self.svc.clock().advance(TimeDelta::from_millis(STEP_MS));
        let t0 = Instant::now();
        let res = {
            let _s = spans::enter("execute");
            self.svc.execute(req)
        };
        let lat_us = t0.elapsed().as_secs_f64() * 1e6;
        let answer = checks
            .answer(res, &rect_of(req), FIELD_MAX)
            .map(|r| (r, lat_us));
        (answer, ops)
    }

    fn live(&self) -> u64 {
        self.base + self.cohort.len() as u64
    }
}

/// Runs `body` with a merge pump beside it; `body` gets the tick sender.
fn with_pump<T>(
    svc: &PortalService<Metered<SteadyProbe>>,
    body: impl FnOnce(&SyncSender<()>) -> T,
) -> (T, PumpRecord) {
    std::thread::scope(|s| {
        let (tx, rx) = sync_channel(1);
        let handle = s.spawn(|| pump(svc, rx));
        let out = body(&tx);
        drop(tx);
        (out, handle.join().expect("merge pump panicked"))
    })
}

/// Register + retire + query cycles on the LSM index, merges off the
/// client's path.
pub fn churn(args: &Args) -> Outcome {
    // Whole merge periods per round: L0 fills once per `l0_capacity`
    // registrations, so every round carries the same number of merges.
    let per_round = CHURN_ROUND.next_multiple_of(LsmConfig::default().l0_capacity as u64);
    let sc = scenario(args.seed, VIEWPORTS);
    let reqs: Vec<QueryRequest> = sc.queries.queries.iter().map(viewport_request).collect();
    let sites = sites(&sc.queries.queries, SITES, args.seed ^ 0x5173);
    let base = sc.sensors.len() as u64;
    // Hotspot viewports can reach past the deployment extent, and so can
    // the sites inside them: the whole extent covers both.
    let whole = sc
        .queries
        .queries
        .iter()
        .fold(sc.extent, |acc, q| acc.union(&q.rect));
    let whole = exact_count_request(Rect::from_coords(
        whole.min.x - 1.0,
        whole.min.y - 1.0,
        whole.max.x + 1.0,
        whole.max.y + 1.0,
    ));
    let meter = Arc::new(Meter::default());
    let mut out = Outcome {
        acc: Acc::new(CHURN_WINDOW),
        ..Outcome::default()
    };
    let config = PortalConfig {
        index: IndexStrategy::Lsm(LsmConfig::default()),
        ..PortalConfig::default()
    };
    let mut client = None;
    for _ in 0..SETUPS {
        drop(client.take());
        let sensors = sc.sensors.clone();
        let probe = Metered::new(
            SteadyProbe::new(&sc.sensors),
            meter.clone(),
            probe_parallelism(),
        );
        let config = config.clone();
        let svc = set_up(
            &mut out,
            || PortalService::new(sensors, probe, config),
            |svc, checks| {
                let mut c = ChurnClient {
                    svc: svc.clone(),
                    reqs: &reqs,
                    sites: &sites,
                    cohort: VecDeque::new(),
                    base,
                    cycles: 0,
                };
                with_pump(svc, |tick| {
                    for k in 0..CHURN_WARMUP {
                        c.cycle(k, checks);
                        if k % PUMP_TICK == PUMP_TICK - 1 {
                            let _ = tick.try_send(());
                        }
                    }
                });
                client = Some(c);
            },
        );
        drop(svc);
    }
    let mut client = client.expect("at least one set-up");
    meter.take();
    let carry_before = global().snapshot();
    let (next, rec) = with_pump(&client.svc.clone(), |tick| {
        measure(
            &mut out,
            args.seconds,
            per_round,
            args.trace,
            |_| (),
            |i, _, acc, checks, ex| {
                let k = CHURN_WARMUP + i;
                let (answer, ops) = client.cycle(k, checks);
                if let Some((resp, lat)) = answer {
                    acc.query(&resp, meter.take(), lat);
                }
                if k % PUMP_TICK == PUMP_TICK - 1 {
                    let _ = tick.try_send(());
                }
                if i % CHECK_EVERY == CHECK_EVERY - 1 {
                    ex.time(|| {
                        let res = client.svc.execute(&whole);
                        checks.count(res, client.live(), "whole-extent exact count");
                        meter.take();
                    });
                }
                ops
            },
        )
    });
    let carried = global()
        .snapshot()
        .diff(&carry_before)
        .counters
        .get("colr_lsm_merge_carryover_total")
        .copied()
        .unwrap_or(0);
    out.cached_readings = client.svc.snapshot().tree().cached_readings() as u64;
    out.lsm = Some(PumpRecord {
        carryover: carried,
        ..rec
    });
    if args.trace {
        let next = CHURN_WARMUP + next;
        for k in next..next + CENSUS {
            let req = &reqs[k % VIEWPORTS];
            client.svc.clock().advance(TimeDelta::from_millis(STEP_MS));
            let res = client
                .svc
                .execute(&req.clone().with_explain(ExplainLevel::Analyze));
            if let Some(resp) = out.checks.answer(res, &rect_of(req), FIELD_MAX) {
                out.census(&resp);
            }
        }
    }
    concurrent_checks(&client, &whole, &mut out.checks);
    out
}

/// The untimed concurrent check phase: a writer registers, retires and
/// merges while a reader issues whole-extent exact counts, each bracketed by
/// the writer's live population.
fn concurrent_checks(client: &ChurnClient<'_>, whole: &QueryRequest, checks: &mut Checks) {
    let svc = &client.svc;
    let first_id = (client.base + client.cycles as u64) as u32;
    let mut live = client.cohort.clone();
    let start = client.base + live.len() as u64;
    // lo <= live population <= hi at every instant, and the population only
    // ever takes the values `start` and `start + 1`; `seq` counts finished
    // writer operations.
    let lo = AtomicU64::new(start);
    let hi = AtomicU64::new(start);
    let seq = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let (mut attempted, mut failed) = (0u64, 0u64);
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut k = 0usize;
            while !done.load(Ordering::Acquire) {
                let site = &client.sites[k % client.sites.len()];
                let id = first_id + k as u32;
                hi.fetch_add(1, Ordering::SeqCst);
                let got = svc.register_sensor(site.at, registered_expiry(id), 1.0, 0);
                lo.fetch_add(1, Ordering::SeqCst);
                seq.fetch_add(1, Ordering::SeqCst);
                live.push_back(got);
                if live.len() > COHORT {
                    let old = live.pop_front().expect("cohort is non-empty");
                    lo.fetch_sub(1, Ordering::SeqCst);
                    svc.retire_sensor(old);
                    hi.fetch_sub(1, Ordering::SeqCst);
                    seq.fetch_add(1, Ordering::SeqCst);
                }
                if svc.wants_reindex(usize::MAX) {
                    svc.reindex();
                }
                k += 1;
            }
        });
        for _ in 0..CONCURRENT_CHECKS {
            let (s0, lo0, hi0) = (
                seq.load(Ordering::SeqCst),
                lo.load(Ordering::SeqCst),
                hi.load(Ordering::SeqCst),
            );
            let res = svc.execute(whole);
            let (lo1, hi1, s1) = (
                lo.load(Ordering::SeqCst),
                hi.load(Ordering::SeqCst),
                seq.load(Ordering::SeqCst),
            );
            let (min, max) = if s1 - s0 <= 1 {
                (lo0.min(lo1), hi0.max(hi1))
            } else {
                (start, start + 1)
            };
            attempted += 1;
            let ok = matches!(&res, Ok(r) if r.result.value.is_some_and(|v| v >= min as f64 && v <= max as f64));
            if !ok {
                failed += 1;
                if failed <= 3 {
                    eprintln!(
                        "concurrent exact count {:?} outside [{min}, {max}]",
                        res.map(|r| r.result.value)
                    );
                }
            }
        }
        done.store(true, Ordering::Release);
    });
    // The phase counts as one checked operation, failed when any count fell
    // outside its bracket. How many did depends on how the two threads
    // interleave, so it differs between runs of the same code; it is
    // reported beside the failed total, not inside it.
    checks.attempt();
    if failed > 0 {
        checks.fail(format!(
            "concurrent phase: {failed} of {attempted} exact counts outside their bracket"
        ));
    }
    checks.concurrent_attempted = attempted;
    checks.concurrent_failed = failed;
}
