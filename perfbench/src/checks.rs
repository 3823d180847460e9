//! Output checks: a run whose check fails counts as a failed run.

use sim::{Mechanism, RunResult, SimConfig};
use sweep::SweepStats;

/// Checks one run's result against invariants every correct run keeps.
pub fn check_run(cfg: &SimConfig, r: &RunResult) -> Result<(), String> {
    let cores = cfg.platform.cores;
    if r.refs_per_core.len() != cores {
        return Err(format!(
            "{} cores reported, {cores} simulated",
            r.refs_per_core.len()
        ));
    }
    if let Some(c) = r
        .refs_per_core
        .iter()
        .position(|&n| n != cfg.refs_per_core as u64)
    {
        return Err(format!(
            "core {c} simulated {} refs, expected {}",
            r.refs_per_core[c], cfg.refs_per_core
        ));
    }
    let l1 = &r.hierarchy.levels[0];
    if l1.lookups != r.total_refs() {
        return Err(format!(
            "L1 saw {} lookups for {} refs",
            l1.lookups,
            r.total_refs()
        ));
    }
    for (i, level) in r.hierarchy.levels.iter().enumerate() {
        if level.hits > level.lookups {
            return Err(format!("L{} has more hits than lookups", i + 1));
        }
    }
    let p = &r.prediction;
    let l1_misses = l1.lookups - l1.hits;
    match cfg.mechanism {
        Mechanism::Base | Mechanism::Phased if p.lookups != 0 || p.bypasses != 0 => {
            return Err(format!("{} consulted a predictor", cfg.mechanism.name()));
        }
        Mechanism::Redhip | Mechanism::Cbf => {
            if p.lookups != l1_misses {
                return Err(format!(
                    "{} predictor lookups for {l1_misses} L1 misses",
                    p.lookups
                ));
            }
            if p.bypasses + p.walk_hits + p.false_positives != p.lookups {
                return Err("predictor outcomes do not sum to its lookups".into());
            }
        }
        _ => {}
    }
    if r.cycles == 0 {
        return Err("zero cycles".into());
    }
    let energy = r.energy.total_dynamic_j();
    if !(energy.is_finite() && energy > 0.0) {
        return Err(format!("dynamic energy {energy}"));
    }
    Ok(())
}

/// Checks a sweep ran every cell itself: no result may come from a cache,
/// or the sweep would time lookups instead of simulations.
pub fn check_sweep(stats: &SweepStats, cells: usize) -> Result<(), String> {
    if stats.cache_hits != 0 {
        return Err(format!(
            "{} cells came from the result cache",
            stats.cache_hits
        ));
    }
    if stats.simulated != cells as u64 {
        return Err(format!("{} of {cells} cells simulated", stats.simulated));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{demo_config, synth_feeds};
    use sweep::SweepEngine;
    use workloads::{Benchmark, Scale};

    #[test]
    fn sweep_guard_rejects_cache_hits() {
        let mut plan = sweep::SweepPlan::new();
        for m in [Mechanism::Base, Mechanism::Redhip] {
            plan.cell(
                &demo_config(m, Benchmark::Lbm, 500),
                Benchmark::Lbm,
                Scale::Smoke,
            );
        }
        let engine = SweepEngine::new(1).quiet();
        let first = engine.run(&plan, "t").expect("sweep runs");
        assert_eq!(check_sweep(&first.stats, 2), Ok(()));
        // The same engine answers a repeated plan from its cache.
        let second = engine.run(&plan, "t").expect("sweep runs");
        let err = check_sweep(&second.stats, 2).unwrap_err();
        assert!(err.contains("cache"), "{err}");
    }

    #[test]
    fn run_check_accepts_real_runs_and_rejects_tampered_ones() {
        for m in [Mechanism::Base, Mechanism::Redhip] {
            let cfg = demo_config(m, Benchmark::Mcf, 2_000);
            let r = sim::run_feeds(&cfg, synth_feeds(Benchmark::Mcf, 3, cfg.platform.cores));
            assert_eq!(check_run(&cfg, &r), Ok(()), "{}", m.name());
            let mut short = r.clone();
            short.refs_per_core[2] -= 1;
            assert!(check_run(&cfg, &short).is_err());
            let mut lost = r.clone();
            lost.hierarchy.levels[0].lookups += 1;
            assert!(check_run(&cfg, &lost).is_err());
        }
    }
}
