#!/usr/bin/env bash
# Perf smoke, two gates:
#
#  1. Observability overhead: assert that the event hooks cost nothing
#     when tracing is off. Builds slf_campaign twice — the
#     default build (event hooks compiled in, no sink attached) and a
#     build with -DSLFWD_OBS_EVENTS=OFF (emission sites removed
#     entirely) — times both on the same deterministic fig5 workload
#     slice with REPS interleaved A/B pairs (never REPS of one then
#     REPS of the other, so host drift cannot land on one side), and
#     fails if the min wall-clock of the default build exceeds the
#     hook-free build by more than TOL.
#
#  2. Simulation throughput: run bench_sim_speed on the default build
#     and record simulated kilo-insts/sec to results/BENCH_sim_speed.json
#     (the CI artifact). When a baseline build directory is supplied
#     (third argument), additionally time the same fig5 slice there and
#     fail if this tree's throughput fell below SIM_TOL of the
#     baseline's — the >5% regression gate. Wall-clock only compares
#     meaningfully on one machine, so the gate is A/B-on-this-host,
#     never a cross-machine constant.
#
# Usage: scripts/perf_smoke.sh [build-on-dir] [build-off-dir] [baseline-build-dir]
# Env:   SCALE (workload scale, default 2), REPS (default 5),
#        TOL (obs overhead ratio ceiling, default 1.02),
#        SIM_TOL (throughput floor vs baseline, default 0.95),
#        BENCH_FILTER (default gzip)
#
# Besides the human log, every run — pass or fail — writes a
# machine-readable verdict to results/PERF_SMOKE.json (ratio, A/B
# timings, kips, per-gate and overall pass), so CI and the BENCH
# trajectory tooling read one JSON file instead of parsing log text.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_ON="${1:-$ROOT/build-perf-on}"
BUILD_OFF="${2:-$ROOT/build-perf-off}"
BASELINE_BUILD="${3:-}"
SCALE="${SCALE:-2}"
REPS="${REPS:-5}"
TOL="${TOL:-1.02}"
SIM_TOL="${SIM_TOL:-0.95}"
BENCH_FILTER="${BENCH_FILTER:-gzip}"

cmake -S "$ROOT" -B "$BUILD_ON" -DCMAKE_BUILD_TYPE=Release \
      -DSLFWD_OBS_EVENTS=ON >/dev/null
cmake -S "$ROOT" -B "$BUILD_OFF" -DCMAKE_BUILD_TYPE=Release \
      -DSLFWD_OBS_EVENTS=OFF >/dev/null
cmake --build "$BUILD_ON" --target slf_campaign bench_sim_speed \
      -j"$(nproc)" >/dev/null
cmake --build "$BUILD_OFF" --target slf_campaign -j"$(nproc)" >/dev/null

# The fig5 slice every gate times, on one worker: the sweep's table
# goes to stdout and its status lines to stderr, both discarded.
fig5_slice() {
    "$1/src/driver/slf_campaign" --sweep fig5 --jobs 1 --no-progress \
        scale="$SCALE" bench="$BENCH_FILTER" >/dev/null 2>&1
}

# One timed run of the fig5 slice in build dir $1, in milliseconds.
time_once() {
    local t0 t1
    t0=$(date +%s%N)
    fig5_slice "$1"
    t1=$(date +%s%N)
    echo $(( (t1 - t0) / 1000000 ))
}

# Interleaved A/B min-of-N: alternate the two builds within every
# rep (A B, A B, ...) instead of timing REPS of A then REPS of B.
# Sequential blocks let host drift — CPU frequency scaling, thermal
# throttling, a noisy CI neighbour arriving mid-script — land entirely
# on one side and masquerade as a real ratio; interleaving makes both
# builds sample the same host conditions, so min-of-N pairs stay
# comparable. Sets MS_A / MS_B.
time_ab() {
    local build_a="$1" build_b="$2" ms
    MS_A= MS_B=
    for _ in $(seq "$REPS"); do
        ms=$(time_once "$build_a")
        if [ -z "$MS_A" ] || [ "$ms" -lt "$MS_A" ]; then MS_A=$ms; fi
        ms=$(time_once "$build_b")
        if [ -z "$MS_B" ] || [ "$ms" -lt "$MS_B" ]; then MS_B=$ms; fi
    done
}

# Machine-readable verdict, written on every exit path (a gate failure
# still leaves the measurements behind for the trajectory tooling).
# Numeric fields not yet measured render as null.
VERDICT_PATH="$ROOT/results/PERF_SMOKE.json"
ms_on= ms_off= ratio= obs_pass= kips=
baseline_armed=false
ms_new= ms_base= speedup= baseline_pass=
write_verdict() {
    local overall="$1"
    mkdir -p "$ROOT/results"
    local tmp="$VERDICT_PATH.tmp.$$"
    {
        echo "{"
        echo "  \"schema_version\": 1,"
        echo "  \"scale\": $SCALE,"
        echo "  \"reps\": $REPS,"
        echo "  \"bench\": \"$BENCH_FILTER\","
        echo "  \"obs\": {"
        echo "    \"ms_on\": ${ms_on:-null},"
        echo "    \"ms_off\": ${ms_off:-null},"
        echo "    \"ratio\": ${ratio:-null},"
        echo "    \"ceiling\": $TOL,"
        echo "    \"pass\": ${obs_pass:-false}"
        echo "  },"
        echo "  \"sim\": { \"kips\": ${kips:-null} },"
        echo "  \"baseline\": {"
        echo "    \"armed\": $baseline_armed,"
        echo "    \"ms_new\": ${ms_new:-null},"
        echo "    \"ms_base\": ${ms_base:-null},"
        echo "    \"speedup\": ${speedup:-null},"
        echo "    \"floor\": $SIM_TOL,"
        echo "    \"pass\": ${baseline_pass:-true}"
        echo "  },"
        echo "  \"pass\": $overall"
        echo "}"
    } > "$tmp"
    mv "$tmp" "$VERDICT_PATH"
    echo "perf smoke: verdict written to results/PERF_SMOKE.json"
}

# --- Gate 1: observability overhead --------------------------------

# Warm both binaries (page cache, branch predictors on the host) so
# neither side pays first-touch cost inside a timed rep.
fig5_slice "$BUILD_ON"
fig5_slice "$BUILD_OFF"

time_ab "$BUILD_ON" "$BUILD_OFF"
ms_on=$MS_A
ms_off=$MS_B

ratio=$(awk -v on="$ms_on" -v off="$ms_off" \
            'BEGIN { printf "%.4f", (off > 0 ? on / off : 99) }')
echo "perf smoke: hooks-on ${ms_on}ms, hooks-off ${ms_off}ms," \
     "ratio ${ratio} (ceiling ${TOL})"

if awk -v r="$ratio" -v tol="$TOL" 'BEGIN { exit !(r <= tol) }'; then
    obs_pass=true
else
    obs_pass=false
    echo "FAIL: tracing-disabled overhead ${ratio} exceeds ${TOL}" >&2
    write_verdict false
    exit 1
fi

# --- Gate 2: simulation throughput ---------------------------------

mkdir -p "$ROOT/results"
"$BUILD_ON/bench/bench_sim_speed" scale="$SCALE" bench="$BENCH_FILTER" \
    jobs=1 reps="$REPS" out="$ROOT/results/BENCH_sim_speed.json"
kips=$(grep -o '"kips": [0-9.]*' "$ROOT/results/BENCH_sim_speed.json" |
       awk '{print $2}')
echo "perf smoke: sim throughput ${kips} kips" \
     "(results/BENCH_sim_speed.json)"

if [ -n "$BASELINE_BUILD" ]; then
    baseline_armed=true
    # Same binary, same slice, same host: min-of-N wall-clock ratio is
    # the throughput ratio (the simulated-instruction count is
    # identical by the determinism contract). Interleaved for the same
    # drift-immunity as gate 1.
    fig5_slice "$BASELINE_BUILD"
    time_ab "$BUILD_ON" "$BASELINE_BUILD"
    ms_new=$MS_A
    ms_base=$MS_B
    speedup=$(awk -v new="$ms_new" -v base="$ms_base" \
                  'BEGIN { printf "%.4f", (new > 0 ? base / new : 0) }')
    echo "perf smoke: throughput vs baseline ${speedup}x" \
         "(new ${ms_new}ms, baseline ${ms_base}ms, floor ${SIM_TOL})"
    if awk -v s="$speedup" -v tol="$SIM_TOL" 'BEGIN { exit !(s >= tol) }'; then
        baseline_pass=true
    else
        baseline_pass=false
        echo "FAIL: sim throughput ${speedup}x of baseline is below" \
             "${SIM_TOL}" >&2
        write_verdict false
        exit 1
    fi
fi
write_verdict true
echo "PASS"
