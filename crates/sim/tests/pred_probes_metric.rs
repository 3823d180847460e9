//! `pred.probes` counts every predictor lookup of a run, for the table
//! mechanisms as well as the registry ones: a run adds its
//! `PredictionStats::lookups` to the counter once, when it ends.
//!
//! The metrics registry is process-global, so this check lives in its own
//! test binary: no other test can run between its before/after reads.

use energy_model::presets::demo_scale;
use mem_trace::synth::{Region, ZipfOverRecords};
use sim::{run_traces, CoreTrace, Mechanism, SimConfig};

fn zipf(core: usize) -> CoreTrace {
    Box::new(ZipfOverRecords::new(
        Region::new(0x2000_0000, 32 << 20),
        64,
        0.9,
        0x9_0B35 + core as u64,
        0x500,
        0.2,
        3,
    ))
}

#[test]
fn pred_probes_rises_by_exactly_the_runs_lookups() {
    metrics::enable();
    for mechanism in [
        Mechanism::Redhip,
        Mechanism::Cbf,
        Mechanism::Oracle,
        Mechanism::LevelPred,
        Mechanism::Base,
    ] {
        let mut platform = demo_scale();
        platform.cores = 2;
        let mut cfg = SimConfig::new(platform, mechanism);
        cfg.refs_per_core = 5_000;
        cfg.recalib_period = Some(1_000);
        let before = metrics::PRED_PROBES.get();
        let result = run_traces(&cfg, (0..2).map(zipf).collect());
        let raised = metrics::PRED_PROBES.get() - before;
        assert_eq!(raised, result.prediction.lookups, "{}", mechanism.name());
        if mechanism != Mechanism::Base {
            assert!(
                raised > 0,
                "{}: predictor never consulted",
                mechanism.name()
            );
        }
    }
}
