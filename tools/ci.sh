#!/usr/bin/env sh
# Tier-1 gate: byte-compile every module, run the full test suite, then
# the CLI smokes and quick bench gates below.  The one definition of
# every CI check: .github/workflows/ci.yml only sets up Python and runs
# this script, so `sh tools/ci.sh` locally runs exactly what CI runs.
set -eu
cd "$(dirname "$0")/.."
python -m compileall -q src
PYTHONPATH=src python -m pytest -x -q
# CLI smokes + determinism.  same_output NAME ARTIFACTS EXTRA ARGS...
# runs `repro ARGS` twice, each in its own fresh directory under one
# temp dir (the second run with EXTRA appended), and requires exit 0
# plus byte-identical stdout and ARTIFACTS (the space-separated
# relative paths the command writes).
ROOT="$PWD"
WORK="$(mktemp -d -t harvest_ci.XXXXXX)"
trap 'rm -rf "$WORK"' EXIT
same_output() {
    name=$1 artifacts=$2 extra=$3
    shift 3
    mkdir "$WORK/$name.a" "$WORK/$name.b"
    (cd "$WORK/$name.a" && PYTHONPATH="$ROOT/src" python -m repro "$@" \
        > stdout)
    # EXTRA and ARTIFACTS are word lists: split them on purpose.
    (cd "$WORK/$name.b" && PYTHONPATH="$ROOT/src" python -m repro "$@" \
        $extra > stdout)
    for file in stdout $artifacts; do
        cmp "$WORK/$name.a/$file" "$WORK/$name.b/$file"
    done
    echo "$name smoke ok: stdout and artifacts byte-identical across runs"
}
same_output metrics "" "" metrics --requests 60 --rate 120 --seed 3
same_output autoscale "" "" autoscale --duration 12 --step-start 2 \
    --step-end 6
# Trace: a short traced continuum replay; the written Perfetto file
# must also pass the Chrome trace-event schema check.
same_output trace "trace.json" "" trace --duration 6 --step-start 1 \
    --step-end 3 --step-rate 700 --base-rate 60 --seed 2 --out trace.json
PYTHONPATH=src python - "$WORK/trace.a/trace.json" <<'EOF'
import sys
from repro.serving.trace_export import validate_chrome_trace

payload = validate_chrome_trace(open(sys.argv[1]).read())
assert payload["traceEvents"], "trace smoke produced no events"
print(f"trace smoke ok: {len(payload['traceEvents'])} events")
EOF
same_output cache "cache.json" "" cache --frames 80 --seed 1 \
    --scene-change-rates 0.0,0.05,0.5 --out cache.json
# Network: the contended-uplink replay's stdout, JSON and Chrome trace;
# the exported trace must also pass the schema check with uplink spans.
same_output network "network.json network.trace.json" "" network \
    --frames 15 --seed 1 --broker-messages 60 --outage-start 5 \
    --outage-seconds 3 --out network.json \
    --trace-out network.trace.json
PYTHONPATH=src python - "$WORK/network.a/network.trace.json" <<'EOF'
import sys
from repro.serving.trace_export import validate_chrome_trace

payload = validate_chrome_trace(open(sys.argv[1]).read())
uplinks = [e for e in payload["traceEvents"]
           if e.get("name") == "uplink"]
assert uplinks, "network smoke produced no uplink spans"
print(f"network smoke ok: {len(uplinks)} uplink spans")
EOF
# Profile: stdout, report JSON, speedscope JSON and folded stacks.
same_output profile \
    "profile.json profile.speedscope.json profile.folded" "" profile \
    --duration 4 --fluid-duration 40 --burst-rate 900 --seed 1 \
    --out profile.json --speedscope profile.speedscope.json \
    --folded-out profile.folded
same_output faas "faas.json" "" faas --duration 3600 --seed 1 \
    --out faas.json
# Sweep cross-worker determinism: the same sweep with one worker and
# (second run) a two-process pool must produce byte-identical stdout,
# JSON, and merged metrics scrape — the engine's determinism contract,
# checked end to end through the CLI.
same_output sweep "sweep.json sweep.prom" "--jobs 2" sweep \
    --replications 4 --duration 600 --seed 7 --jobs 1 --out sweep.json \
    --metrics-out sweep.prom
# Ratio bench gates: every quick suite must verify (each scenario's
# baseline and optimized sides agree: byte-identical scrapes with the
# profiler attached, equal served counts, merge determinism across the
# pool) and hold its committed quick-mode floors and bands.  The sweep
# floor is core-count aware: 2.5x only where >=4 effective cores exist,
# an overhead bound below that.  The simulator core, kernel and fluid
# layers are timed by perfbench below; their contracts (firing-order
# parity, DES-vs-fluid parity, conservation) are tier-1 tests.
for suite in profile faas sweep; do
    PYTHONPATH=src python -m repro bench --suite "$suite" --quick \
        --check "benchmarks/results/BENCH_${suite}_quick.json"
    echo "bench $suite ok: quick suite within committed bounds"
done
# Benchmark self-tests and simulated-statistics digests: a change that
# only speeds the program up must leave every workload's digest equal to
# the one committed in perfbench/digests.json (seeds 1 and held-out 7).
python -m pytest -q perfbench
for workload in continuum_churn continuum_static burst_day_hybrid \
        kernels_frames; do
    for seed in 1 7; do
        python3 perfbench/run.py --workload "$workload" --seed "$seed" \
            --digest > /dev/null
    done
    echo "perfbench $workload ok: digests match at seeds 1 and 7"
done
