#!/usr/bin/env python3
"""Repository benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload base|wide|screen --seed N \
        --seconds S --trace 0|1

Run from the repository root. The script builds its own optimised tree
of the simulator (CMake, Release) under $CARGO_TARGET_DIR (default
.bench_build), times set-up with a few short probe processes, runs the
perfbench program for the measuring part and prints, as the last line of
stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json;
with --trace 1 the per-layer ones. The line before it is the run's
metadata (commit, source digest, compiler, flags, host, load). The full
record, the traced run's spans and the scratch files of the run go to
<build dir>/runs/<workload>-s<seed>-t<trace>/. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("base", "wide", "screen")
# Set-up probes taken before and after the measuring run; setup_s is
# their median, so a slow host phase during one of them cannot move it.
PROBES_BEFORE = 8
PROBES_AFTER = 7
# A run must end within 180 s of its build; the measuring process gets
# what is left of that after the first probes.
RUN_LIMIT_S = 170


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_quiet(cmd, timeout):
    """Run a build step; show its output only when it fails."""
    proc = subprocess.run([str(c) for c in cmd], stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True,
                          timeout=timeout, check=False)
    if proc.returncode != 0:
        log(proc.stdout)
        raise BenchError(f"build step failed: {' '.join(map(str, cmd))}")
    return proc.stdout


def build_root():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build(bdir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"simulator sources not found under {ROOT}/src")
    cmake = shutil.which("cmake")
    if not cmake:
        raise BenchError("cmake not found")
    if not (bdir / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_quiet([cmake, "-S", HERE, "-B", bdir,
                   "-DCMAKE_BUILD_TYPE=Release", *gen], timeout=300)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet([cmake, "--build", bdir, "-j", jobs], timeout=840)
    exe = bdir / "perfbench"
    if not exe.is_file():
        raise BenchError(f"build produced no {exe}")
    return exe


def probe_setup(exe, workload, seed, scratch):
    """Seconds from spawning a process to its first job's start."""
    t0 = time.monotonic_ns()
    proc = subprocess.run([str(exe), "--probe", "--workload", workload,
                           "--seed", str(seed), "--scratch", str(scratch)],
                          capture_output=True, text=True, timeout=60,
                          check=False)
    if proc.returncode != 0:
        log(proc.stderr)
        raise BenchError("set-up probe failed")
    first = json.loads(proc.stdout.strip().splitlines()[-1])["first_job_ns"]
    return (first - t0) / 1e9


def cache_value(bdir, key):
    for line in (bdir / "CMakeCache.txt").read_text().splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return ""


def source_digest():
    """SHA-256 over the simulator and benchmark sources (the checkout
    the benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode() + b"\0")
                h.update(p.read_bytes())
    return h.hexdigest()


def metadata(bdir):
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    cxx = cache_value(bdir, "CMAKE_CXX_COMPILER")
    version = ""
    if cxx:
        proc = subprocess.run([cxx, "--version"], capture_output=True,
                              text=True, check=False)
        version = proc.stdout.splitlines()[0] if proc.stdout else ""
    build_type = cache_value(bdir, "CMAKE_BUILD_TYPE")
    flags = " ".join(filter(None, [
        cache_value(bdir, "CMAKE_CXX_FLAGS"),
        cache_value(bdir, "CMAKE_CXX_FLAGS_" + build_type.upper()),
        "-Wall -Wextra -std=c++20"]))
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"commit": commit, "source_sha256": source_digest(),
            "compiler": version or cxx, "build_type": build_type,
            "flags": flags, "nproc": os.cpu_count(), "cpu_model": cpu}


def load_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="one analog, one timed pass (the benchmark's tests)")
    ap.add_argument("--inject-mismatch", action="store_true",
                    help="corrupt one reference census (tests the check)")
    args = ap.parse_args(argv)

    try:
        end_to_end, per_layer = load_spec()
        bdir = build_root() / "perfbench"
        exe = build(bdir)
        built = time.monotonic()
        meta = metadata(bdir)
        meta["loadavg_start"] = os.getloadavg()
        scratch = (build_root() / "runs" /
                   f"{args.workload}-s{args.seed}-t{args.trace}")
        shutil.rmtree(scratch, ignore_errors=True)
        scratch.mkdir(parents=True)

        setups = [probe_setup(exe, args.workload, args.seed, scratch)
                  for _ in range(PROBES_BEFORE)]
        cmd = [str(exe), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--scratch",
               str(scratch)]
        golden = ROOT / "tests" / "golden" / "fig5_gzip_scale1.json"
        if golden.is_file():
            cmd += ["--golden", str(golden)]
        if args.trace:
            cmd.append("--trace")
        if args.quick:
            cmd.append("--quick")
        if args.inject_mismatch:
            cmd.append("--inject-mismatch")
        limit = max(10.0, RUN_LIMIT_S - (time.monotonic() - built))
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=limit, check=False)
        if proc.stderr:
            log(proc.stderr.rstrip())
        lines = proc.stdout.strip().splitlines()
        if not lines or proc.returncode not in (0, 1):
            raise BenchError(f"perfbench exited with {proc.returncode}")
        bench = json.loads(lines[-1])
        setups += [probe_setup(exe, args.workload, args.seed, scratch)
                   for _ in range(PROBES_AFTER)]
        meta["loadavg_end"] = os.getloadavg()
    except (BenchError, OSError, subprocess.SubprocessError, KeyError,
            ValueError) as e:
        log(f"perfbench: {e}")
        return 2

    measured = dict(bench["metrics"])
    measured["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    wanted = per_layer if args.trace else end_to_end
    metrics = {}
    for m in wanted:
        got = measured.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log(f"perfbench: metric {m['name']} missing or wrong unit")
            return 2
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    failed = int(bench["failed"])
    attempted = int(bench["attempted"])
    correct = failed == 0 and proc.returncode == 0
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds, "meta": meta,
              "timed_passes": bench["timed_passes"],
              "jobs_per_pass": bench["job_samples"],
              "programs_digest": bench["programs_digest"],
              "setup_samples_s": setups, "notes": bench["notes"],
              "all_metrics": measured}
    (scratch / "result.json").write_text(json.dumps(record, indent=1))

    n = bench["job_samples"]
    tail = 100.0 * (n - 10) / n if n > 10 else 100.0
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{bench['timed_passes']} timed passes of {n} jobs; "
          f"job latency samples={n} (tail = p{tail:.1f}); "
          f"failed_frac={failed / attempted:.4g} ({failed}/{attempted}); "
          f"setup probes={len(setups)}")
    if bench["notes"]:
        print("failures: " + "; ".join(bench["notes"]))
    print(json.dumps({"meta": meta, "programs_digest":
                      bench["programs_digest"]}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
