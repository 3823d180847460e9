//! The tracer: `run_feeds` re-enacted from outside the program,
//! with every `System::step_with` timed and classified.
//!
//! The scheduler (argmin over per-core clocks with a batch bound and a
//! resync after recalibration), the 128-record pull-ahead buffer and the
//! per-core physical address mapping are copies of the ones in
//! `sim::run`. A traced run is only accepted when its `RunResult` equals
//! `run_feeds`'s byte for byte, which is what proves the copies faithful.

use crate::clock::{pair_ticks, ticks, Calibration};
use cache_sim::Traversal;
use mem_trace::TraceRecord;
use sim::{CoreFeed, RunResult, SimConfig, System};
use std::time::{Duration, Instant};

/// Records pulled ahead per refill (`sim::run`'s `TRACE_CHUNK`).
const TRACE_CHUNK: usize = 128;

/// What one simulated reference turned out to be, judged by the change in
/// the system's public counters across its step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepClass {
    /// Served by the private L1 (the fast path).
    L1Hit,
    /// L1 miss that walked the lower levels and hit on chip.
    WalkHit,
    /// L1 miss that walked every level, missed, and went to memory.
    MissWalk,
    /// L1 miss the predictor sent straight to memory.
    Bypass,
    /// L1 miss that also triggered a predictor recalibration.
    Recalib,
}

impl StepClass {
    /// Every class, in reporting order.
    pub const ALL: [StepClass; 5] = [
        StepClass::L1Hit,
        StepClass::WalkHit,
        StepClass::MissWalk,
        StepClass::Bypass,
        StepClass::Recalib,
    ];

    /// Metric-name stem (`sim.<name>_ns`, `sim.<name>_share`).
    pub fn name(self) -> &'static str {
        match self {
            StepClass::L1Hit => "l1_hit",
            StepClass::WalkHit => "walk_hit",
            StepClass::MissWalk => "miss_walk",
            StepClass::Bypass => "bypass",
            StepClass::Recalib => "recalib",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// The public counters a step is classified by.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// L1 hits (`hierarchy().stats().levels[0].hits`).
    pub l1_hits: u64,
    /// Predictor bypasses (`prediction_stats().bypasses`).
    pub bypasses: u64,
    /// Demand fetches served by memory (`hierarchy().stats().memory_fetches`).
    pub memory_fetches: u64,
    /// Completed recalibrations (`recalibration_count()`).
    pub recalibrations: u64,
}

impl Counters {
    /// Reads the counters off a system.
    pub fn read(sys: &System) -> Self {
        let h = sys.hierarchy().stats();
        Self {
            l1_hits: h.levels[0].hits,
            bypasses: sys.prediction_stats().bypasses,
            memory_fetches: h.memory_fetches,
            recalibrations: sys.recalibration_count(),
        }
    }
}

/// Classifies one step from the counters before and after it.
/// A recalibration outranks the rest (it happens on an L1 miss, after the
/// miss itself was served); a bypass is checked before the memory fetch it
/// also causes.
pub fn classify(before: &Counters, after: &Counters) -> StepClass {
    if after.recalibrations != before.recalibrations {
        StepClass::Recalib
    } else if after.l1_hits != before.l1_hits {
        StepClass::L1Hit
    } else if after.bypasses != before.bypasses {
        StepClass::Bypass
    } else if after.memory_fetches != before.memory_fetches {
        StepClass::MissWalk
    } else {
        StepClass::WalkHit
    }
}

/// Steps and host time spent in one class.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClassTally {
    /// Steps of this class.
    pub steps: u64,
    /// Host nanoseconds inside `step_with` for those steps, less the
    /// timer's own cost per step.
    pub ns: f64,
}

/// Everything a traced run measured.
pub struct Traced {
    /// The run's result, assembled exactly as `run_feeds` assembles it.
    pub result: RunResult,
    /// The system at the end of the run (its LLC feeds the predictor
    /// probes).
    pub system: System,
    /// Per-class step tallies, indexed like [`StepClass::ALL`].
    pub classes: [ClassTally; 5],
    /// Host time of `System::new`.
    pub setup: Duration,
    /// Host time of the scheduling loop (everything after `System::new`).
    pub wall: Duration,
    /// Nanoseconds inside `TraceFeed::refill`, less the timer's cost.
    pub feed_ns: f64,
    /// Records the feeds delivered (consumed plus pulled ahead).
    pub delivered: u64,
    /// Block address of every L1 miss, in simulation order.
    pub miss_blocks: Vec<u64>,
}

impl Traced {
    /// Nanoseconds inside `step_with`, all classes together.
    pub fn step_ns(&self) -> f64 {
        self.classes.iter().map(|c| c.ns).sum()
    }

    /// The tally of one class.
    pub fn class(&self, c: StepClass) -> ClassTally {
        self.classes[c.index()]
    }
}

/// Per-core physical address mapping; a copy of `sim::run::core_physical`
/// (crate-private there).
fn core_physical(cfg: &SimConfig, core: usize, addr: u64) -> u64 {
    let scramble = (core as u64).wrapping_mul(0x9e37_79b9) & 0x03ff_ffff;
    let scrambled = addr ^ (scramble << 12);
    if cfg.address_space_bit == 0 {
        scrambled
    } else {
        scrambled | ((core as u64) << cfg.address_space_bit)
    }
}

/// Pull-ahead buffer over a feed that times its refills.
struct TimedFeed {
    src: CoreFeed,
    buf: Vec<TraceRecord>,
    pos: usize,
}

impl TimedFeed {
    #[inline]
    fn next(
        &mut self,
        feed_ticks: &mut u64,
        delivered: &mut u64,
        refills: &mut u64,
    ) -> Option<TraceRecord> {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
            let t0 = ticks();
            let n = self.src.refill(&mut self.buf, TRACE_CHUNK);
            *feed_ticks += ticks() - t0;
            *delivered += n as u64;
            *refills += 1;
            if n == 0 {
                return None;
            }
        }
        let r = self.buf[self.pos];
        self.pos += 1;
        Some(r)
    }
}

/// Runs `cfg` over `feeds` like `sim::run_feeds`, timing every step.
///
/// # Panics
/// Panics when the feed count differs from the platform's core count or
/// the configuration is invalid (as `run_feeds` does).
pub fn run_traced(cfg: &SimConfig, feeds: Vec<CoreFeed>) -> Traced {
    assert_eq!(
        feeds.len(),
        cfg.platform.cores,
        "need exactly one trace per core"
    );
    let setup_started = Instant::now();
    let mut system = System::new(cfg.clone());
    let setup = setup_started.elapsed();

    let cores = feeds.len();
    let mut traces: Vec<TimedFeed> = feeds
        .into_iter()
        .map(|src| TimedFeed {
            src,
            buf: Vec::with_capacity(TRACE_CHUNK),
            pos: 0,
        })
        .collect();
    let mut counts = vec![0u64; cores];
    let target = cfg.refs_per_core as u64;
    let mut scratch = Traversal::new();
    let mut clk: Vec<f64> = system.clocks().to_vec();

    let mut class_ticks = [0u64; 5];
    let mut class_steps = [0u64; 5];
    let mut feed_ticks = 0u64;
    let mut delivered = 0u64;
    let mut miss_blocks = Vec::new();
    let mut seen = Counters::read(&system);
    let mut refills = 0u64;
    let pair = pair_ticks();

    let wall_started = Instant::now();
    let ticks_started = ticks();
    loop {
        let mut core = usize::MAX;
        let mut best = f64::INFINITY;
        let mut next_best = f64::INFINITY;
        for (c, &v) in clk.iter().enumerate() {
            if v < best {
                next_best = best;
                best = v;
                core = c;
            } else if v < next_best {
                next_best = v;
            }
        }
        if core == usize::MAX {
            break;
        }
        loop {
            match traces[core].next(&mut feed_ticks, &mut delivered, &mut refills) {
                Some(mut rec) => {
                    rec.addr = core_physical(cfg, core, rec.addr);
                    let recalibs = system.recalibration_count();
                    let t0 = ticks();
                    let now = system.step_with(core, &rec, &mut scratch);
                    let spent = ticks() - t0;

                    // An L1 hit moves only the L1 hit counter; anything
                    // else re-reads the full counter set.
                    let l1_hits = system.hierarchy().stats().levels[0].hits;
                    let class = if l1_hits != seen.l1_hits {
                        seen.l1_hits = l1_hits;
                        StepClass::L1Hit
                    } else {
                        let after = Counters::read(&system);
                        let class = classify(&seen, &after);
                        seen = after;
                        miss_blocks.push(rec.addr >> 6);
                        class
                    };
                    class_ticks[class.index()] += spent;
                    class_steps[class.index()] += 1;

                    clk[core] = now;
                    counts[core] += 1;
                    if counts[core] >= target {
                        clk[core] = f64::INFINITY;
                        break;
                    }
                    if system.recalibration_count() != recalibs {
                        for (c, v) in clk.iter_mut().enumerate() {
                            if v.is_finite() {
                                *v = system.clocks()[c];
                            }
                        }
                        break;
                    }
                    if now >= next_best {
                        break;
                    }
                }
                None => {
                    clk[core] = f64::INFINITY;
                    break;
                }
            }
        }
    }
    let loop_ticks = ticks() - ticks_started;
    let wall = wall_started.elapsed();
    let cal = Calibration::from_span(loop_ticks, wall);

    let result = RunResult {
        cycles: system.cycles(),
        refs_per_core: counts,
        energy: system.finalize_energy(),
        hierarchy: system.hierarchy().stats().clone(),
        prediction: system.prediction_stats(),
        prefetch: system.prefetch_summary(),
    };
    Traced {
        result,
        system,
        classes: std::array::from_fn(|i| ClassTally {
            steps: class_steps[i],
            ns: cal.ns(class_ticks[i].saturating_sub(class_steps[i] * pair)),
        }),
        setup,
        wall,
        feed_ns: cal.ns(feed_ticks.saturating_sub(refills * pair)),
        delivered,
        miss_blocks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::digest;
    use mem_trace::{IterFeed, MemOp};
    use sim::{run_feeds, Mechanism};

    /// Two cores, tiny refs: a hot 8 KB region (L1 hits), a 64 KB region
    /// that overflows L1 but fits L2 (walk hits once warm), and cold,
    /// never-reused blocks (misses the predictor learns to bypass).
    fn tiny_cfg(mechanism: Mechanism) -> SimConfig {
        let mut platform = energy_model::presets::demo_scale();
        platform.cores = 2;
        let mut c = SimConfig::new(platform, mechanism);
        c.refs_per_core = 30_000;
        c.recalib_period = Some(1_000);
        c
    }

    fn stream(seed: u64) -> CoreFeed {
        Box::new(IterFeed::new((0..u64::MAX).map(move |i| {
            let x = (i.wrapping_mul(6364136223846793005).wrapping_add(seed)) >> 33;
            let addr = match i % 8 {
                0 => 0x1000_0000 + (x % (1 << 22)) * 64,
                1 | 2 => 0x20_0000 + (x % 1024) * 64,
                _ => (x % 128) * 64,
            };
            let op = if i % 5 == 0 {
                MemOp::Store
            } else {
                MemOp::Load
            };
            TraceRecord::new(0x400 + (i % 7) * 4, addr, op, 2)
        })))
    }

    fn feeds() -> Vec<CoreFeed> {
        vec![stream(1), stream(2)]
    }

    #[test]
    fn classes_account_for_every_step_and_counter() {
        let cfg = tiny_cfg(Mechanism::Redhip);
        let t = run_traced(&cfg, feeds());
        let r = &t.result;
        let steps: u64 = t.classes.iter().map(|c| c.steps).sum();
        assert_eq!(steps, r.total_refs());
        assert_eq!(t.class(StepClass::L1Hit).steps, r.hierarchy.levels[0].hits);
        assert_eq!(
            t.class(StepClass::Recalib).steps,
            r.prediction.recalibrations
        );
        // A recalibrating step is an L1 miss served some way first, so
        // bypasses and memory fetches are bounded by their class counts
        // plus the recalibrations.
        let bypass = t.class(StepClass::Bypass).steps;
        let recal = t.class(StepClass::Recalib).steps;
        assert!(bypass <= r.prediction.bypasses);
        assert!(r.prediction.bypasses <= bypass + recal);
        let l1_misses = r.total_refs() - r.hierarchy.levels[0].hits;
        assert_eq!(t.miss_blocks.len() as u64, l1_misses);
        for class in StepClass::ALL {
            assert!(t.class(class).steps > 0, "no {} steps", class.name());
        }
        assert!(t.step_ns() > 0.0 && t.feed_ns > 0.0);
        assert!(t.delivered >= r.total_refs());
    }

    #[test]
    fn base_has_no_bypass_or_recalibration_steps() {
        let t = run_traced(&tiny_cfg(Mechanism::Base), feeds());
        assert_eq!(t.class(StepClass::Bypass).steps, 0);
        assert_eq!(t.class(StepClass::Recalib).steps, 0);
        assert!(t.class(StepClass::WalkHit).steps > 0);
        assert!(t.class(StepClass::MissWalk).steps > 0);
        assert_eq!(
            t.class(StepClass::MissWalk).steps,
            t.result.hierarchy.memory_fetches
        );
    }

    #[test]
    fn traced_result_equals_run_feeds_byte_for_byte() {
        for m in [Mechanism::Base, Mechanism::Redhip, Mechanism::Cbf] {
            let cfg = tiny_cfg(m);
            let traced = run_traced(&cfg, feeds());
            let plain = run_feeds(&cfg, feeds());
            assert_eq!(digest(&traced.result), digest(&plain), "{}", m.name());
        }
    }

    #[test]
    fn classify_orders_recalibration_then_hit_then_bypass() {
        let base = Counters::default();
        let with = |f: fn(&mut Counters)| {
            let mut c = base;
            f(&mut c);
            c
        };
        assert_eq!(classify(&base, &base), StepClass::WalkHit);
        assert_eq!(classify(&base, &with(|c| c.l1_hits += 1)), StepClass::L1Hit);
        assert_eq!(
            classify(&base, &with(|c| c.memory_fetches += 1)),
            StepClass::MissWalk
        );
        let bypass = with(|c| {
            c.bypasses += 1;
            c.memory_fetches += 1;
        });
        assert_eq!(classify(&base, &bypass), StepClass::Bypass);
        let recal = with(|c| {
            c.recalibrations += 1;
            c.bypasses += 1;
        });
        assert_eq!(classify(&base, &recal), StepClass::Recalib);
    }
}
