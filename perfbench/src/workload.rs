//! The benchmark's workloads: their configurations, seeded inputs and
//! result digests.

use mem_trace::stream::write_v2_file;
use mem_trace::{IterFeed, ShardSpec, StreamTrace, TraceRecord};
use minijson::ToJson;
use sim::{CoreFeed, Mechanism, RunResult, SimConfig};
use std::path::Path;
use std::time::Instant;
use sweep::{SweepPlan, SweepResults};
use workloads::{Benchmark, Scale};

/// References per core of the `mcf-redhip` run (the Demo default).
pub const MCF_REFS: usize = 600_000;
/// References per core recorded for, and replayed by, `blas-replay`.
pub const BLAS_REFS: usize = 600_000;
/// References per core of every `shootout-sweep` cell.
pub const SWEEP_REFS: usize = 40_000;
/// Workload scale of the `shootout-sweep` cells: `figures --scale smoke`,
/// Smoke footprints on the Demo platform. At Demo footprints one blas
/// cell spends most of a second building its R-MAT graphs.
pub const SWEEP_SCALE: Scale = Scale::Smoke;

/// The eight mechanisms of the shoot-out matrix.
pub const MECHANISMS: [Mechanism; 8] = [
    Mechanism::Base,
    Mechanism::Redhip,
    Mechanism::Cbf,
    Mechanism::Phased,
    Mechanism::Oracle,
    Mechanism::LevelPred,
    Mechanism::Perceptron,
    Mechanism::WayMemo,
];

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Demo-scale ReDHiP run of mcf on in-process synthesized traces.
    McfRedhip,
    /// Demo-scale blas replayed under Base from a recorded v2 file.
    BlasReplay,
    /// 11 benchmarks x 8 mechanisms at Smoke scale on one sweep engine.
    ShootoutSweep,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::McfRedhip,
        Workload::BlasReplay,
        Workload::ShootoutSweep,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::McfRedhip => "mcf-redhip",
            Workload::BlasReplay => "blas-replay",
            Workload::ShootoutSweep => "shootout-sweep",
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Generator index of `core` under `seed`: `seed * cores + core`.
///
/// The `workloads` crate seeds each generator from its core index alone,
/// so the index doubles as the seed. Because the index is `core` modulo
/// `cores`, `mix` (core `i` runs SPEC benchmark `i mod 8`) keeps its
/// per-core benchmark under every seed.
pub fn generator_index(seed: u64, cores: usize, core: usize) -> usize {
    (seed as usize).wrapping_mul(cores).wrapping_add(core)
}

/// A Demo-scale configuration: the `figures --scale demo` platform and
/// recalibration period, with the benchmark's CPI.
pub fn demo_config(mechanism: Mechanism, benchmark: Benchmark, refs: usize) -> SimConfig {
    scaled_config(mechanism, benchmark, refs, Scale::Demo)
}

/// The `figures` configuration at `scale` (Smoke and Demo share the Demo
/// platform; the recalibration period follows the scale), with the
/// benchmark's CPI.
pub fn scaled_config(
    mechanism: Mechanism,
    benchmark: Benchmark,
    refs: usize,
    scale: Scale,
) -> SimConfig {
    let mut cfg = SimConfig::new(energy_model::presets::demo_scale(), mechanism);
    cfg.refs_per_core = refs;
    cfg.recalib_period = Some(scale.recalib_period());
    cfg.avg_cpi = benchmark.avg_cpi();
    cfg
}

/// The `mcf-redhip` configuration.
pub fn mcf_config() -> SimConfig {
    demo_config(Mechanism::Redhip, Benchmark::Mcf, MCF_REFS)
}

/// The `blas-replay` configuration.
pub fn blas_config() -> SimConfig {
    demo_config(Mechanism::Base, Benchmark::Blas, BLAS_REFS)
}

/// One generator per core, seeded by [`generator_index`].
pub fn synth_traces(
    benchmark: Benchmark,
    seed: u64,
    cores: usize,
) -> Vec<Box<dyn Iterator<Item = TraceRecord> + Send>> {
    (0..cores)
        .map(|c| benchmark.trace(generator_index(seed, cores, c), Scale::Demo))
        .collect()
}

/// [`synth_traces`] as simulator feeds.
pub fn synth_feeds(benchmark: Benchmark, seed: u64, cores: usize) -> Vec<CoreFeed> {
    synth_traces(benchmark, seed, cores)
        .into_iter()
        .map(|t| Box::new(IterFeed::new(t)) as CoreFeed)
        .collect()
}

/// One stride-`cores` interleave shard per core: the `trace replay
/// --mode interleave` feeds.
pub fn replay_feeds(base: &StreamTrace, cores: usize) -> Vec<CoreFeed> {
    let shards = u32::try_from(cores).expect("core count fits u32");
    (0..shards)
        .map(|index| Box::new(base.shard(ShardSpec::Interleave { shards, index })) as CoreFeed)
        .collect()
}

/// What recording the `blas-replay` fixture measured.
#[derive(Debug, Clone)]
pub struct Fixture {
    /// Host seconds to construct the per-core generators.
    pub build_s: f64,
    /// Host nanoseconds per record pulled from the generators while
    /// recording (encoding excluded).
    pub synth_ns_per_ref: f64,
    /// Digest of the same configuration simulated straight from the
    /// generators: every replay must reproduce it.
    pub reference_digest: String,
}

/// Records `blas` under `seed` to a v2 file at `path` the way `trace
/// record` does (per-core streams interleaved by index), then simulates
/// the blas configuration from fresh generators for the reference digest.
pub fn record_fixture(path: &Path, seed: u64) -> Result<Fixture, String> {
    let cfg = blas_config();
    let cores = cfg.platform.cores;
    let started = Instant::now();
    let mut streams = synth_traces(Benchmark::Blas, seed, cores);
    let build_s = started.elapsed().as_secs_f64();

    // Pull whole rounds (one record per core, in core order, as `trace
    // record` interleaves them) in batches, timing only the pulls.
    const ROUNDS: usize = 256;
    let total = (BLAS_REFS * cores) as u64;
    let mut synth_ns = 0u128;
    let mut pulled = 0u64;
    let mut batch: Vec<TraceRecord> = Vec::with_capacity(ROUNDS * cores);
    let mut pos = 0usize;
    let records = std::iter::from_fn(|| {
        if pulled == total {
            return None;
        }
        if pos == batch.len() {
            batch.clear();
            pos = 0;
            let rounds = ((total - pulled) as usize / cores).min(ROUNDS);
            let t = Instant::now();
            for _ in 0..rounds {
                for s in streams.iter_mut() {
                    batch.push(s.next().expect("generators are endless"));
                }
            }
            synth_ns += t.elapsed().as_nanos();
        }
        pulled += 1;
        pos += 1;
        Some(batch[pos - 1])
    });
    let summary = write_v2_file(path, records, mem_trace::codec::DEFAULT_CHUNK_TARGET)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;

    let reference = sim::run_feeds(&cfg, synth_feeds(Benchmark::Blas, seed, cores));
    Ok(Fixture {
        build_s,
        synth_ns_per_ref: synth_ns as f64 / summary.records.max(1) as f64,
        reference_digest: digest(&reference),
    })
}

/// The shoot-out plan: every benchmark under every mechanism.
///
/// `SweepPlan` takes no seed, and its cells seed their generators from
/// the core index alone, so the seed only rotates the order cells are
/// added to the plan (the pool starts them by expected cost).
pub fn sweep_plan(seed: u64) -> SweepPlan {
    let mut cells = Vec::with_capacity(Benchmark::ALL.len() * MECHANISMS.len());
    for m in MECHANISMS {
        for b in Benchmark::ALL {
            cells.push((m, b));
        }
    }
    let shift = (seed % cells.len() as u64) as usize;
    cells.rotate_left(shift);
    let mut plan = SweepPlan::new();
    for (m, b) in cells {
        plan.cell(
            &scaled_config(m, b, SWEEP_REFS, SWEEP_SCALE),
            b,
            SWEEP_SCALE,
        );
    }
    plan
}

/// FNV-1a digest of a result's pretty JSON, as 16 hex digits.
pub fn digest(r: &RunResult) -> String {
    format!(
        "{:016x}",
        sweep::cell::fnv1a64(r.to_json().pretty().as_bytes())
    )
}

/// Digest of a whole sweep, independent of the plan's cell order: cells
/// are folded in canonical-key order.
pub fn sweep_digest(plan: &SweepPlan, results: &SweepResults) -> String {
    let mut cells: Vec<(String, String)> = plan
        .cells()
        .iter()
        .zip(results.all())
        .map(|(spec, r)| (spec.canonical_key(), digest(r)))
        .collect();
    cells.sort();
    let mut text = String::new();
    for (key, d) in cells {
        text.push_str(&key);
        text.push('=');
        text.push_str(&d);
        text.push('\n');
    }
    format!("{:016x}", sweep::cell::fnv1a64(text.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_index_keeps_mix_per_core_benchmark() {
        let cores = 8;
        for seed in [0u64, 1, 7, 12345, u64::MAX / 3] {
            for c in 0..cores {
                let idx = generator_index(seed, cores, c);
                assert_eq!(idx % cores, c, "seed {seed} core {c}");
                // Mix's per-core stream is exactly the SPEC generator the
                // core owns, driven by the seeded index.
                let mix: Vec<_> = Benchmark::Mix.trace(idx, Scale::Smoke).take(64).collect();
                let own: Vec<_> = Benchmark::SPEC[c]
                    .trace(idx, Scale::Smoke)
                    .take(64)
                    .collect();
                assert_eq!(mix, own, "seed {seed} core {c}");
            }
        }
    }

    #[test]
    fn seeds_change_the_inputs() {
        let a: Vec<_> = Benchmark::Mcf
            .trace(generator_index(0, 8, 3), Scale::Smoke)
            .take(256)
            .collect();
        let b: Vec<_> = Benchmark::Mcf
            .trace(generator_index(1, 8, 3), Scale::Smoke)
            .take(256)
            .collect();
        let a2: Vec<_> = Benchmark::Mcf
            .trace(generator_index(0, 8, 3), Scale::Smoke)
            .take(256)
            .collect();
        assert_ne!(a, b);
        assert_eq!(a, a2);
    }

    #[test]
    fn sweep_plan_rotation_keeps_the_cell_set() {
        let keys = |seed| {
            let mut k: Vec<String> = sweep_plan(seed)
                .cells()
                .iter()
                .map(|c| c.canonical_key())
                .collect();
            k.sort();
            k
        };
        let p0 = sweep_plan(0);
        let p5 = sweep_plan(5);
        assert_eq!(p0.len(), 88);
        assert_ne!(p0.cells()[0].canonical_key(), p5.cells()[0].canonical_key());
        assert_eq!(keys(0), keys(5));
    }

    #[test]
    fn digest_is_stable_across_runs() {
        let mut cfg = mcf_config();
        cfg.refs_per_core = 3_000;
        let run = || sim::run_feeds(&cfg, synth_feeds(Benchmark::Mcf, 4, cfg.platform.cores));
        let (a, b) = (run(), run());
        assert_eq!(digest(&a), digest(&b));
        let other = sim::run_feeds(&cfg, synth_feeds(Benchmark::Mcf, 5, cfg.platform.cores));
        assert_ne!(digest(&a), digest(&other));
    }
}
