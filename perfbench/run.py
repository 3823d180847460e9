#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Builds the `perfbench` package (release,
offline) into $CARGO_TARGET_DIR (default `.bench_build`), runs workload W
with inputs derived from seed N for about S seconds, checks the simulated
outputs, and prints as its last stdout line one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the end-to-end metrics of BENCHMARK.json (untraced runs); with
`--trace 1` they are its per-layer metrics (one traced pass after another
for S seconds, medians reported). The line before it is a report: the
host fingerprint, the digest and simulated statistics of every run, and
the raw samples. Results whose `host.id` differ are not comparable.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Every run must end within 180 s of the measurement starting.
RUN_DEADLINE_S = 170.0
BUILD_TIMEOUT_S = 880.0


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def spec():
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = Path(env["CARGO_TARGET_DIR"])
    if not target.is_absolute():
        target = ROOT / target
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, timeout=BUILD_TIMEOUT_S,
                              stdout=sys.stderr)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail("build failed")
    return target / "release" / "perfbench"


def command_output(cmd):
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest():
    """SHA-256 over the sources the benchmark builds (the checkout it runs in
    need not be a git repository, so this stands in for the commit)."""
    h = hashlib.sha256()
    roots = [ROOT / "Cargo.toml", ROOT / "Cargo.lock", ROOT / ".cargo", ROOT / "crates", HERE]
    for r in roots:
        files = [r] if r.is_file() else sorted(p for p in r.rglob("*") if p.is_file()) if r.is_dir() else []
        for p in files:
            rel = p.relative_to(ROOT)
            if "target" in rel.parts:
                continue
            h.update(str(rel).encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def fingerprint():
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    host = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "kernel": platform.release(),
        "rustc": command_output(["rustc", "-V"]) or "unknown",
    }
    host["id"] = hashlib.sha256(json.dumps(host, sort_keys=True).encode()).hexdigest()[:12]
    commit = command_output(["git", "rev-parse", "HEAD"]) if shutil.which("git") else None
    return {"host": host, "commit": commit or "unknown", "source": source_digest()}


def run_binary(args, deadline):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        fail("out of time")
    try:
        done = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(args[1:3])} did not finish in time")
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        fail(f"{' '.join(args[1:3])} exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"{' '.join(args[1:3])} printed nothing")
    return json.loads(lines[-1])


def end_to_end(out):
    samples = out["samples"]
    first = samples[0]
    laps = len(first["laps_s"])
    # Every repetition simulates the same records with the same refills,
    # so it has the same laps; one that does not is a failed output check.
    bad = [s["error"] or s["digest"] != first["digest"] or len(s["laps_s"]) != laps
           for s in samples]
    good = [s for s, b in zip(samples, bad) if not b] or [first]
    # Each lap at its fastest over the run's repetitions: on a shared host
    # the same work takes up to twice as long while neighbours load the
    # machine, in swings from milliseconds to tens of seconds. Contention
    # only ever adds time, and taking the minimum lap by lap (laps last
    # tens of milliseconds) finds the quiet moments a whole repetition
    # rarely gets.
    best_s = sum(min(s["laps_s"][k] for s in good) for k in range(laps))
    values = {
        "refs_per_s": first["refs"] / best_s,
        "setup_s": statistics.median(x for s in samples for x in s["setup_s"]),
        "peak_rss_mib": out["peak_rss_mib"],
    }
    rates = [s["refs"] / s["run_s"] for s in samples]
    report = {"median_refs_per_s": statistics.median(rates),
              "fastest_refs_per_s": max(rates),
              "samples": [{k: s[k] for k in ("run_s", "laps_s", "refs", "digest", "stats",
                                             "error", "setup_s")}
                          for s in samples]}
    return len(samples), sum(bad), values, report


def per_layer(out, names):
    passes = out["passes"]
    failed = sum(1 for p in passes if p["errors"])
    for p in passes:
        unknown = set(p["metrics"]) - set(names)
        if unknown:
            fail(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    # A layer the workload does not run reports 0 (see perfbench/README.md).
    values = {}
    for name in names:
        seen = [p["metrics"][name] for p in passes if name in p["metrics"]]
        values[name] = statistics.median(seen) if seen else 0.0
    return len(passes), failed, values, passes


def main():
    bench = spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = ap.parse_args()
    if a.seed < 0 or a.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    binary = build()
    deadline = time.monotonic() + RUN_DEADLINE_S
    info = fingerprint()

    work = ROOT / ".bench_work" / f"{a.workload}-{a.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        common = ["--workload", a.workload, "--seed", str(a.seed),
                  "--seconds", str(a.seconds), "--dir", str(work)]
        if a.workload == "blas-replay":
            run_binary([str(binary), "fixture", "--seed", str(a.seed), "--dir", str(work)], deadline)
        if a.trace:
            out = run_binary([str(binary), "trace", *common], deadline)
            listed = bench["per_layer"]
            attempted, failed, values, report = per_layer(out, [m["name"] for m in listed])
        else:
            out = run_binary([str(binary), "run", *common], deadline)
            listed = bench["end_to_end"]
            attempted, failed, values, report = end_to_end(out)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in listed}
    if set(values) != set(units):
        fail(f"reported {sorted(values)} but BENCHMARK.json lists {sorted(units)}")
    print(json.dumps({"workload": a.workload, "seed": a.seed, "trace": a.trace,
                      **info, "runs": report}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))


if __name__ == "__main__":
    main()
