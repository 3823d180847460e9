//! `perfbench fixture|run|trace`: the measuring half of the benchmark.
//! Prints one JSON object on its last stdout line; `run.py` turns it into
//! the benchmark's result.
//!
//! ```text
//! perfbench fixture --seed N --dir DIR
//! perfbench run   --workload W --seed N --seconds S [--dir DIR]
//! perfbench trace --workload W --seed N --seconds S [--dir DIR]
//! ```
//! `--dir` holds the `blas-replay` fixture that `fixture` records.

use minijson::{json, Json};
use perfbench::measure::{self, Metrics, Sample};
use perfbench::workload::{record_fixture, Fixture, Workload};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    dir: Option<PathBuf>,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!("usage: perfbench fixture|run|trace --workload W --seed N --seconds S [--dir DIR]");
    std::process::exit(2);
}

fn parse(args: &[String]) -> Args {
    let mut a = Args {
        workload: None,
        seed: 0,
        seconds: 1.0,
        dir: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
                .clone()
        };
        match flag.as_str() {
            "--workload" => {
                let v = value();
                a.workload = Some(
                    Workload::parse(&v).unwrap_or_else(|| usage(&format!("unknown workload {v}"))),
                );
            }
            "--seed" => a.seed = value().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                a.seconds = value().parse().unwrap_or_else(|_| usage("bad --seconds"));
                if a.seconds.is_nan() || a.seconds <= 0.0 {
                    usage("--seconds must be positive");
                }
            }
            "--dir" => a.dir = Some(PathBuf::from(value())),
            other => usage(&format!("unknown argument {other}")),
        }
    }
    a
}

fn fail(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(1);
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or_else(|| fail("no VmHWM in /proc/self/status"))
}

fn fixture_of(dir: &Path) -> Fixture {
    let path = dir.join("fixture.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| fail(&format!("{}: {e}", path.display())));
    let v = minijson::parse(&text).unwrap_or_else(|e| fail(&format!("{}: {e}", path.display())));
    let field = |r: Result<f64, String>| r.unwrap_or_else(|e| fail(&format!("fixture.json: {e}")));
    Fixture {
        build_s: field(v.f64_of("build_s")),
        synth_ns_per_ref: field(v.f64_of("synth_ns_per_ref")),
        reference_digest: v
            .str_of("reference_digest")
            .unwrap_or_else(|e| fail(&e))
            .to_string(),
    }
}

/// Calls `step` until `seconds` have passed (at least once).
fn repeat<T>(seconds: f64, mut step: impl FnMut() -> T) -> Vec<T> {
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut out = Vec::new();
    while out.is_empty() || started.elapsed() < budget {
        out.push(step());
    }
    out
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        usage("missing subcommand");
    };
    let args = parse(rest);
    let dir = || {
        args.dir
            .clone()
            .unwrap_or_else(|| usage("--dir is required for the blas-replay fixture"))
    };
    let out: Json = match cmd.as_str() {
        "fixture" => {
            let dir = dir();
            let f = record_fixture(&dir.join("blas.v2"), args.seed).unwrap_or_else(|e| fail(&e));
            let v = json!({
                "build_s": f.build_s,
                "synth_ns_per_ref": f.synth_ns_per_ref,
                "reference_digest": f.reference_digest.as_str(),
            });
            std::fs::write(dir.join("fixture.json"), v.dump())
                .unwrap_or_else(|e| fail(&format!("writing fixture.json: {e}")));
            v
        }
        "run" | "trace" => {
            let w = args
                .workload
                .unwrap_or_else(|| usage("--workload is required"));
            let fixture = (w == Workload::BlasReplay).then(|| (dir(), fixture_of(&dir())));
            if cmd == "run" {
                let samples: Vec<Sample> = repeat(args.seconds, || match w {
                    Workload::McfRedhip => measure::mcf_iteration(args.seed),
                    Workload::BlasReplay => {
                        let (d, f) = fixture.as_ref().expect("fixture loaded");
                        measure::blas_iteration(d, f).unwrap_or_else(|e| fail(&e))
                    }
                    Workload::ShootoutSweep => {
                        measure::sweep_iteration(args.seed).unwrap_or_else(|e| fail(&e))
                    }
                });
                json!({
                    "samples": samples.iter().map(Sample::to_json).collect::<Vec<_>>(),
                    "peak_rss_mib": peak_rss_mib(),
                })
            } else {
                let passes: Vec<Metrics> = repeat(args.seconds, || match w {
                    Workload::McfRedhip => measure::mcf_pass(args.seed),
                    Workload::BlasReplay => {
                        let (d, f) = fixture.as_ref().expect("fixture loaded");
                        measure::blas_pass(d, f).unwrap_or_else(|e| fail(&e))
                    }
                    Workload::ShootoutSweep => {
                        measure::sweep_pass(args.seed).unwrap_or_else(|e| fail(&e))
                    }
                });
                json!({ "passes": passes.iter().map(Metrics::to_json).collect::<Vec<_>>() })
            }
        }
        other => usage(&format!("unknown subcommand {other}")),
    };
    println!("{}", out.dump());
}
