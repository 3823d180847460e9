//! Untraced iterations (end-to-end metrics) and traced passes (per-layer
//! metrics) of each workload.

use crate::checks::{check_run, check_sweep};
use crate::tracer::{run_traced, StepClass, Traced};
use crate::workload::{
    blas_config, digest, mcf_config, replay_feeds, scaled_config, sweep_digest, sweep_plan,
    synth_feeds, Fixture, MECHANISMS, SWEEP_REFS, SWEEP_SCALE,
};
use mem_trace::{StreamTrace, TraceFeed, TraceRecord};
use minijson::{json, Json};
use redhip::PredictionTable;
use sim::{run_feeds, CoreFeed, RunResult, SimConfig, System};
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use sweep::{SweepEngine, SweepPlan, SweepResults};
use workloads::Benchmark;

/// Set-ups timed per iteration; every one is a `setup_s` sample.
const SETUP_REPS: usize = 5;
/// Repetitions of each single-call layer probe (median reported).
const PROBE_REPS: usize = 5;
/// Records handed to the simulator per lap of a timed `run_feeds` call.
const LAP_REFS: u64 = 100_000;

/// One untraced iteration of a workload.
pub struct Sample {
    /// Host seconds of each set-up performed (the last one was used).
    pub setup_s: Vec<f64>,
    /// Host seconds of the timed part.
    pub run_s: f64,
    /// Host seconds of each lap of the timed part, in order; they sum to
    /// `run_s`. The same workload and seed always give the same laps.
    pub laps_s: Vec<f64>,
    /// References simulated in the timed part.
    pub refs: u64,
    /// Digest of the simulated results.
    pub digest: String,
    /// Simulated statistics, for the log.
    pub stats: Json,
    /// Why the output check failed, if it did.
    pub error: Option<String>,
}

impl Sample {
    /// The sample as a JSON object.
    pub fn to_json(&self) -> Json {
        json!({
            "setup_s": self.setup_s.clone(),
            "run_s": self.run_s,
            "laps_s": self.laps_s.clone(),
            "refs": self.refs,
            "digest": self.digest.as_str(),
            "stats": self.stats.clone(),
            "error": self.error.clone(),
        })
    }
}

/// Sums of the simulated statistics over one or more results.
#[derive(Debug, Default, Clone, Copy)]
struct SimTotals {
    refs: u64,
    l1_hits: u64,
    l1_misses: u64,
    bypasses: u64,
    false_positives: u64,
    recalibrations: u64,
    cycles: u64,
    dynamic_j: f64,
}

impl SimTotals {
    fn of<'a>(results: impl IntoIterator<Item = &'a RunResult>) -> Self {
        let mut t = SimTotals::default();
        for r in results {
            let l1 = &r.hierarchy.levels[0];
            t.refs += r.total_refs();
            t.l1_hits += l1.hits;
            t.l1_misses += l1.lookups - l1.hits;
            t.bypasses += r.prediction.bypasses;
            t.false_positives += r.prediction.false_positives;
            t.recalibrations += r.prediction.recalibrations;
            t.cycles += r.cycles;
            t.dynamic_j += r.energy.total_dynamic_j();
        }
        t
    }

    fn to_json(self) -> Json {
        json!({
            "refs": self.refs,
            "cycles": self.cycles,
            "l1_hits": self.l1_hits,
            "l1_misses": self.l1_misses,
            "bypasses": self.bypasses,
            "false_positives": self.false_positives,
            "recalibrations": self.recalibrations,
            "dynamic_j": self.dynamic_j,
        })
    }

    fn metrics(self, m: &mut Metrics) {
        m.push("sim.l1_hits", self.l1_hits as f64);
        m.push("sim.l1_misses", self.l1_misses as f64);
        m.push("sim.bypasses", self.bypasses as f64);
        m.push("sim.false_positives", self.false_positives as f64);
        m.push("sim.recalibrations", self.recalibrations as f64);
        m.push("sim.cycles", self.cycles as f64);
    }
}

/// Named per-layer values of one traced pass.
#[derive(Default)]
pub struct Metrics {
    values: Vec<(String, f64)>,
    errors: Vec<String>,
}

impl Metrics {
    fn push(&mut self, name: impl Into<String>, value: f64) {
        self.values.push((name.into(), value));
    }

    fn check(&mut self, outcome: Result<(), String>) {
        if let Err(e) = outcome {
            self.errors.push(e);
        }
    }

    /// The pass as a JSON object.
    pub fn to_json(&self) -> Json {
        let mut metrics = json!({});
        for (name, v) in &self.values {
            metrics.set(name, Json::from(*v));
        }
        json!({ "metrics": metrics, "errors": self.errors.clone() })
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

fn same_digest(what: &str, got: &str, want: &str) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what} digest {got} differs from {want}"))
    }
}

/// Worker threads of the sweep engine: one per host core.
pub fn sweep_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Opens the recorded fixture.
fn open_fixture(dir: &Path) -> Result<StreamTrace, String> {
    let path = dir.join("blas.v2");
    StreamTrace::open(&path).map_err(|e| format!("{}: {e}", path.display()))
}

// ------------------------------------------------------------- untraced

/// Marks the time whenever the records handed to the simulator through
/// the [`LapFeed`]s sharing it cross a multiple of [`LAP_REFS`].
#[derive(Default)]
struct LapClock {
    delivered: AtomicU64,
    marks: Mutex<Vec<Instant>>,
}

impl LapClock {
    fn add(&self, n: u64) {
        let before = self.delivered.fetch_add(n, Ordering::Relaxed);
        if (before + n) / LAP_REFS > before / LAP_REFS {
            self.marks.lock().expect("lap marks").push(Instant::now());
        }
    }
}

/// A feed that counts the records it hands over on a [`LapClock`]; one
/// atomic add per refill of the simulator's buffer.
struct LapFeed {
    inner: CoreFeed,
    clock: Arc<LapClock>,
}

impl TraceFeed for LapFeed {
    fn refill(&mut self, out: &mut Vec<TraceRecord>, max: usize) -> usize {
        let n = self.inner.refill(out, max);
        self.clock.add(n as u64);
        n
    }
}

/// `run_feeds` over `feeds`, timed as a whole and lap by lap. The feed
/// refills are deterministic, so every call with the same inputs has the
/// same laps, and `run.py` can compare each lap across repetitions.
fn run_lapped(cfg: &SimConfig, feeds: Vec<CoreFeed>) -> (RunResult, Duration, Vec<f64>) {
    let clock = Arc::new(LapClock::default());
    let feeds = feeds
        .into_iter()
        .map(|inner| {
            Box::new(LapFeed {
                inner,
                clock: Arc::clone(&clock),
            }) as CoreFeed
        })
        .collect();
    let started = Instant::now();
    let r = run_feeds(cfg, feeds);
    let ended = Instant::now();
    let marks = std::mem::take(&mut *clock.marks.lock().expect("lap marks"));
    let mut laps = Vec::with_capacity(marks.len() + 1);
    let mut from = started;
    for t in marks.into_iter().chain([ended]) {
        laps.push(secs(t - from));
        from = t;
    }
    (r, ended - started, laps)
}

/// One untraced `mcf-redhip` iteration.
pub fn mcf_iteration(seed: u64) -> Sample {
    let cfg = mcf_config();
    let cores = cfg.platform.cores;
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut feeds = Vec::new();
    for _ in 0..SETUP_REPS {
        let ((f, system), d) = timed(|| {
            let f = synth_feeds(Benchmark::Mcf, seed, cores);
            (f, System::new(cfg.clone()))
        });
        setup_s.push(secs(d));
        drop(system);
        feeds = f;
    }
    let (r, d, laps) = run_lapped(&cfg, feeds);
    run_sample(&cfg, setup_s, d, laps, &r, None)
}

/// One untraced `blas-replay` iteration over the fixture in `dir`.
pub fn blas_iteration(dir: &Path, fixture: &Fixture) -> Result<Sample, String> {
    let cfg = blas_config();
    let cores = cfg.platform.cores;
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut feeds = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let base = open_fixture(dir)?;
        let f = replay_feeds(&base, cores);
        let system = System::new(cfg.clone());
        setup_s.push(secs(t.elapsed()));
        drop(system);
        feeds = f;
    }
    let (r, d, laps) = run_lapped(&cfg, feeds);
    Ok(run_sample(
        &cfg,
        setup_s,
        d,
        laps,
        &r,
        Some(&fixture.reference_digest),
    ))
}

fn run_sample(
    cfg: &SimConfig,
    setup_s: Vec<f64>,
    run: Duration,
    laps_s: Vec<f64>,
    r: &RunResult,
    reference: Option<&str>,
) -> Sample {
    let d = digest(r);
    let error = check_run(cfg, r)
        .and_then(|()| reference.map_or(Ok(()), |want| same_digest("replay", &d, want)))
        .err();
    Sample {
        setup_s,
        run_s: secs(run),
        laps_s,
        refs: r.total_refs(),
        digest: d,
        stats: SimTotals::of([r]).to_json(),
        error,
    }
}

fn check_cells(plan: &SweepPlan, res: &SweepResults) -> Result<(), String> {
    check_sweep(&res.stats, plan.len())?;
    for (spec, r) in plan.cells().iter().zip(res.all()) {
        check_run(&spec.cfg, r).map_err(|e| format!("{}: {e}", spec.canonical_key()))?;
    }
    Ok(())
}

/// One untraced `shootout-sweep` iteration: one lap, because the pool
/// reports nothing until the whole plan is done.
pub fn sweep_iteration(seed: u64) -> Result<Sample, String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        let (p, d) = timed(|| (sweep_plan(seed), SweepEngine::new(sweep_jobs()).quiet()));
        setup_s.push(secs(d));
        prepared = Some(p);
    }
    let (plan, engine) = prepared.expect("at least one set-up");
    let (res, d) = timed(|| engine.run(&plan, "[perfbench] shootout"));
    let res = res.map_err(|e| e.to_string())?;
    Ok(Sample {
        setup_s,
        run_s: secs(d),
        laps_s: vec![secs(d)],
        refs: res.stats.refs_simulated,
        digest: sweep_digest(&plan, &res),
        stats: SimTotals::of(res.all()).to_json(),
        error: check_cells(&plan, &res).err(),
    })
}

// --------------------------------------------------------------- traced

/// Step-class, residual and simulated-count metrics of a traced run.
/// `feed_ns` is charged to the feed layer by the caller.
fn step_metrics(m: &mut Metrics, tr: &Traced) {
    let refs = tr.result.total_refs().max(1) as f64;
    let step_ns = tr.step_ns();
    m.push("sim.setup_s", secs(tr.setup));
    m.push("sim.step_ns_per_ref", step_ns / refs);
    for class in StepClass::ALL {
        let c = tr.class(class);
        let mean = if c.steps == 0 {
            0.0
        } else {
            c.ns / c.steps as f64
        };
        m.push(format!("sim.{}_ns", class.name()), mean);
        m.push(
            format!("sim.{}_share", class.name()),
            c.ns / step_ns.max(1.0),
        );
    }
    let wall_ns = tr.wall.as_nanos() as f64;
    m.push(
        "sim.other_ns_per_ref",
        (wall_ns - step_ns - tr.feed_ns) / refs,
    );
    SimTotals::of([&tr.result]).metrics(m);
}

/// `trace.overhead_pct`: traced against untraced host time.
fn overhead_pct(traced: Duration, untraced: Duration) -> f64 {
    (secs(traced) / secs(untraced).max(1e-12) - 1.0) * 100.0
}

fn ns_per_ref(d: Duration, refs: u64) -> f64 {
    d.as_nanos() as f64 / refs.max(1) as f64
}

/// Predictor-table probe, recalibration and LLC scan over the end state of
/// a traced ReDHiP run.
fn redhip_probes(m: &mut Metrics, cfg: &SimConfig, tr: &Traced) {
    let llc = tr.system.hierarchy().llc();
    let mut table = PredictionTable::from_capacity_bytes(cfg.effective_pt_bytes());
    let scan = median(
        (0..PROBE_REPS)
            .map(|_| {
                let (x, d) = timed(|| llc.resident_blocks().fold(0u64, |a, b| a ^ b));
                black_box(x);
                d.as_nanos() as f64
            })
            .collect(),
    );
    let recalib = median(
        (0..PROBE_REPS)
            .map(|_| {
                timed(|| table.recalibrate_from(llc.resident_blocks()))
                    .1
                    .as_nanos() as f64
            })
            .collect(),
    );
    let blocks = &tr.miss_blocks;
    let probe = median(
        (0..PROBE_REPS)
            .map(|_| {
                let (hits, d) =
                    timed(|| blocks.iter().filter(|&&b| table.test(black_box(b))).count());
                black_box(hits);
                ns_per_ref(d, blocks.len() as u64)
            })
            .collect(),
    );
    m.push("redhip.probe_ns", probe);
    m.push("redhip.recalib_ns", recalib);
    m.push("cache_sim.llc_scan_ns", scan);
}

/// One traced `mcf-redhip` pass.
pub fn mcf_pass(seed: u64) -> Metrics {
    let cfg = mcf_config();
    let cores = cfg.platform.cores;
    let mut m = Metrics::default();

    let (feeds, build) = timed(|| synth_feeds(Benchmark::Mcf, seed, cores));
    let (plain, untraced) = timed(|| run_feeds(&cfg, feeds));
    let tr = run_traced(&cfg, synth_feeds(Benchmark::Mcf, seed, cores));
    m.check(check_run(&cfg, &plain));
    m.check(same_digest("traced", &digest(&tr.result), &digest(&plain)));

    m.push("workloads.build_s", secs(build));
    m.push(
        "workloads.synth_ns_per_ref",
        tr.feed_ns / tr.delivered.max(1) as f64,
    );
    step_metrics(&mut m, &tr);
    redhip_probes(&mut m, &cfg, &tr);
    m.push(
        "mech.ReDHiP.ns_per_ref",
        ns_per_ref(untraced, plain.total_refs()),
    );
    m.push(
        "trace.overhead_pct",
        overhead_pct(tr.setup + tr.wall, untraced),
    );
    m
}

/// One traced `blas-replay` pass over the fixture in `dir`.
pub fn blas_pass(dir: &Path, fixture: &Fixture) -> Result<Metrics, String> {
    let cfg = blas_config();
    let cores = cfg.platform.cores;
    let mut m = Metrics::default();

    let mut opens = Vec::with_capacity(PROBE_REPS);
    for _ in 0..PROBE_REPS {
        let (base, d) = timed(|| open_fixture(dir));
        base?;
        opens.push(secs(d));
    }
    let base = open_fixture(dir)?;
    let info = base.info();

    // One sequential cursor over the whole file.
    let mut cursor = base.clone();
    let mut buf: Vec<TraceRecord> = Vec::with_capacity(4096);
    let (decoded, decode) = timed(|| {
        let mut n = 0u64;
        loop {
            buf.clear();
            let got = cursor.refill(&mut buf, 4096);
            if got == 0 {
                break n;
            }
            n += got as u64;
            black_box(&buf);
        }
    });

    let (plain, untraced) = timed(|| run_feeds(&cfg, replay_feeds(&base, cores)));
    metrics::enable();
    let chunks_before = metrics::TRACE_CHUNKS_DECODED.get();
    let tr = run_traced(&cfg, replay_feeds(&base, cores));
    let chunks = metrics::TRACE_CHUNKS_DECODED.get() - chunks_before;
    metrics::disable();

    m.check(check_run(&cfg, &plain));
    m.check(same_digest(
        "untraced replay",
        &digest(&plain),
        &fixture.reference_digest,
    ));
    m.check(same_digest(
        "traced replay",
        &digest(&tr.result),
        &fixture.reference_digest,
    ));
    if decoded != info.total_records {
        m.errors.push(format!(
            "decoded {decoded} of {} records",
            info.total_records
        ));
    }

    let records_per_chunk = info.total_records as f64 / info.chunks.max(1) as f64;
    m.push("workloads.build_s", fixture.build_s);
    m.push("workloads.synth_ns_per_ref", fixture.synth_ns_per_ref);
    m.push("mem_trace.open_s", median(opens));
    m.push(
        "mem_trace.decode_ns_per_record",
        ns_per_ref(decode, decoded),
    );
    m.push(
        "mem_trace.feed_ns_per_ref",
        tr.feed_ns / tr.delivered.max(1) as f64,
    );
    m.push(
        "mem_trace.decode_amplification",
        chunks as f64 * records_per_chunk / tr.delivered.max(1) as f64,
    );
    m.push("mem_trace.bytes_per_record", info.bytes_per_record());
    step_metrics(&mut m, &tr);
    m.push(
        "mech.Base.ns_per_ref",
        ns_per_ref(untraced, plain.total_refs()),
    );
    m.push(
        "trace.overhead_pct",
        overhead_pct(tr.setup + tr.wall, untraced),
    );
    Ok(m)
}

/// One traced `shootout-sweep` pass.
pub fn sweep_pass(seed: u64) -> Result<Metrics, String> {
    let mut m = Metrics::default();
    let jobs = sweep_jobs();
    let plan_s = median(
        (0..PROBE_REPS)
            .map(|_| secs(timed(|| sweep_plan(seed)).1))
            .collect(),
    );
    let plan = sweep_plan(seed);

    let (plain, untraced) = timed(|| {
        SweepEngine::new(jobs)
            .quiet()
            .run(&plan, "[perfbench] shootout")
    });
    let plain = plain.map_err(|e| e.to_string())?;

    metrics::enable();
    let read = || {
        [
            metrics::POOL_BUSY_NS.get(),
            metrics::POOL_STEALS.get(),
            metrics::POOL_JOBS.get(),
            metrics::SWEEP_CELLS_SIMULATED.get(),
            metrics::SWEEP_CACHE_HITS.get(),
        ]
    };
    let before = read();
    let (traced, wall) = timed(|| {
        SweepEngine::new(jobs)
            .quiet()
            .run(&plan, "[perfbench] shootout")
    });
    let after = read();
    metrics::disable();
    let traced = traced.map_err(|e| e.to_string())?;
    let [busy_ns, steals, pool_jobs, cells_simulated, cache_hits] =
        std::array::from_fn(|i| after[i] - before[i]);

    let want = sweep_digest(&plan, &plain);
    m.check(check_cells(&plan, &plain));
    m.check(check_cells(&plan, &traced));
    m.check(same_digest(
        "traced sweep",
        &sweep_digest(&plan, &traced),
        &want,
    ));

    // Every cell again, sequentially through `CellSpec::simulate`, timed
    // per mechanism; each must reproduce the pool's result.
    let mut mech_ns = [0f64; MECHANISMS.len()];
    let mut mech_refs = [0u64; MECHANISMS.len()];
    for (spec, pooled) in plan.cells().iter().zip(plain.all()) {
        let (r, d) = timed(|| spec.simulate());
        let k = MECHANISMS
            .iter()
            .position(|&x| x == spec.cfg.mechanism)
            .expect("plan uses the shoot-out mechanisms");
        mech_ns[k] += d.as_nanos() as f64;
        mech_refs[k] += r.total_refs();
        m.check(same_digest(
            &spec.canonical_key(),
            &digest(&r),
            &digest(pooled),
        ));
    }

    // Generator construction and record synthesis, one 8-core set per
    // benchmark, as each cell builds and drains them.
    let cores = energy_model::presets::demo_scale().cores;
    let mut build = Duration::ZERO;
    let mut synth = Duration::ZERO;
    let mut pulled = 0u64;
    for b in Benchmark::ALL {
        let (mut traces, d) = timed(|| {
            (0..cores)
                .map(|c| b.trace(c, SWEEP_SCALE))
                .collect::<Vec<_>>()
        });
        build += d;
        let (n, d) = timed(|| {
            traces
                .iter_mut()
                .map(|t| {
                    t.by_ref()
                        .take(SWEEP_REFS)
                        .map(|r| black_box(r).addr)
                        .fold(0u64, |n, _| n + 1)
                })
                .sum::<u64>()
        });
        synth += d;
        pulled += n;
    }

    let sim_setup = median(
        MECHANISMS
            .iter()
            .map(|&mech| {
                let cfg = scaled_config(mech, Benchmark::Mcf, SWEEP_REFS, SWEEP_SCALE);
                secs(timed(|| System::new(cfg)).1)
            })
            .collect(),
    );

    let totals = SimTotals::of(plain.all());
    let workers = jobs.min(plan.len()) as f64;
    let wall_ns = wall.as_nanos() as f64;
    m.push("workloads.build_s", secs(build));
    m.push("workloads.synth_ns_per_ref", ns_per_ref(synth, pulled));
    m.push("sim.setup_s", sim_setup);
    m.push(
        "sim.other_ns_per_ref",
        (workers * wall_ns - busy_ns as f64) / totals.refs.max(1) as f64,
    );
    totals.metrics(&mut m);
    m.push(
        "pool.busy_share",
        busy_ns as f64 / (workers * wall_ns).max(1.0),
    );
    m.push("pool.steals", steals as f64);
    m.push("pool.jobs", pool_jobs as f64);
    m.push("sweep.plan_s", plan_s);
    m.push("sweep.cells_simulated", cells_simulated as f64);
    m.push("sweep.cache_hits", cache_hits as f64);
    for (k, mech) in MECHANISMS.iter().enumerate() {
        m.push(
            format!("mech.{}.ns_per_ref", mech.name()),
            mech_ns[k] / mech_refs[k].max(1) as f64,
        );
    }
    m.push("trace.overhead_pct", overhead_pct(wall, untraced));
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn laps_partition_the_call_and_repeat() {
        let mut cfg = mcf_config();
        cfg.refs_per_core = 30_000;
        let cores = cfg.platform.cores;
        let (a, d, laps) = run_lapped(&cfg, synth_feeds(Benchmark::Mcf, 2, cores));
        let (b, _, again) = run_lapped(&cfg, synth_feeds(Benchmark::Mcf, 2, cores));
        // 240 k records plus at most one unconsumed refill per core cross
        // two lap marks.
        assert_eq!(laps.len(), 3);
        assert_eq!(again.len(), laps.len());
        assert!((laps.iter().sum::<f64>() - secs(d)).abs() < 1e-9);
        // Counting refills leaves the simulated result alone.
        let plain = run_feeds(&cfg, synth_feeds(Benchmark::Mcf, 2, cores));
        assert_eq!(digest(&a), digest(&plain));
        assert_eq!(digest(&b), digest(&plain));
    }
}
