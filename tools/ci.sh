#!/usr/bin/env sh
# Tier-1 gate: byte-compile every module, then run the full test suite.
# Mirrors .github/workflows/ci.yml so the same check runs locally.
set -eu
cd "$(dirname "$0")/.."
python -m compileall -q src
PYTHONPATH=src python -m pytest -x -q
# Trace smoke: a short traced continuum replay must exit 0 and the
# written Perfetto file must pass the Chrome trace-event schema check.
TRACE_OUT="$(mktemp -t harvest_trace.XXXXXX)"
trap 'rm -f "$TRACE_OUT"' EXIT
PYTHONPATH=src python -m repro trace --duration 6 --step-start 1 \
    --step-end 3 --step-rate 700 --base-rate 60 --seed 2 \
    --out "$TRACE_OUT" > /dev/null
PYTHONPATH=src python - "$TRACE_OUT" <<'EOF'
import sys
from repro.serving.trace_export import validate_chrome_trace

payload = validate_chrome_trace(open(sys.argv[1]).read())
assert payload["traceEvents"], "trace smoke produced no events"
print(f"trace smoke ok: {len(payload['traceEvents'])} events")
EOF
# Cache smoke + determinism: the cache replay must exit 0 and two
# identical invocations must produce byte-identical stdout and JSON.
CACHE_DIR="$(mktemp -d -t harvest_cache.XXXXXX)"
trap 'rm -f "$TRACE_OUT"; rm -rf "$CACHE_DIR"' EXIT
PYTHONPATH=src python -m repro cache --frames 80 --seed 1 \
    --scene-change-rates 0.0,0.05,0.5 \
    --out "$CACHE_DIR/cache.json" > "$CACHE_DIR/a.txt"
cp "$CACHE_DIR/cache.json" "$CACHE_DIR/first.json"
PYTHONPATH=src python -m repro cache --frames 80 --seed 1 \
    --scene-change-rates 0.0,0.05,0.5 \
    --out "$CACHE_DIR/cache.json" > "$CACHE_DIR/b.txt"
cmp "$CACHE_DIR/a.txt" "$CACHE_DIR/b.txt"
cmp "$CACHE_DIR/first.json" "$CACHE_DIR/cache.json"
echo "cache smoke ok: deterministic across runs"
# Network smoke + determinism: the contended-uplink replay must exit 0,
# two identical invocations must produce byte-identical stdout, JSON
# and Chrome trace, and the exported trace must pass the schema check.
NET_DIR="$(mktemp -d -t harvest_network.XXXXXX)"
trap 'rm -f "$TRACE_OUT"; rm -rf "$CACHE_DIR" "$NET_DIR"' EXIT
PYTHONPATH=src python -m repro network --frames 15 --seed 1 \
    --broker-messages 60 --outage-start 5 --outage-seconds 3 \
    --out "$NET_DIR/network.json" \
    --trace-out "$NET_DIR/network.trace.json" > "$NET_DIR/a.txt"
cp "$NET_DIR/network.json" "$NET_DIR/first.json"
cp "$NET_DIR/network.trace.json" "$NET_DIR/first.trace.json"
PYTHONPATH=src python -m repro network --frames 15 --seed 1 \
    --broker-messages 60 --outage-start 5 --outage-seconds 3 \
    --out "$NET_DIR/network.json" \
    --trace-out "$NET_DIR/network.trace.json" > "$NET_DIR/b.txt"
cmp "$NET_DIR/a.txt" "$NET_DIR/b.txt"
cmp "$NET_DIR/first.json" "$NET_DIR/network.json"
cmp "$NET_DIR/first.trace.json" "$NET_DIR/network.trace.json"
PYTHONPATH=src python - "$NET_DIR/network.trace.json" <<'EOF'
import sys
from repro.serving.trace_export import validate_chrome_trace

payload = validate_chrome_trace(open(sys.argv[1]).read())
uplinks = [e for e in payload["traceEvents"]
           if e.get("name") == "uplink"]
assert uplinks, "network smoke produced no uplink spans"
print(f"network smoke ok: deterministic, {len(uplinks)} uplink spans")
EOF
# Profile smoke + determinism: the profiled replay must exit 0 and two
# identical invocations must produce byte-identical stdout, report
# JSON, speedscope JSON, and folded stacks.
PROF_DIR="$(mktemp -d -t harvest_profile.XXXXXX)"
trap 'rm -f "$TRACE_OUT"; rm -rf "$CACHE_DIR" "$NET_DIR" "$PROF_DIR"' EXIT
PYTHONPATH=src python -m repro profile --duration 4 \
    --fluid-duration 40 --burst-rate 900 --seed 1 \
    --out "$PROF_DIR/profile.json" \
    --speedscope "$PROF_DIR/profile.speedscope.json" \
    --folded-out "$PROF_DIR/profile.folded" > "$PROF_DIR/a.txt"
cp "$PROF_DIR/profile.json" "$PROF_DIR/first.json"
cp "$PROF_DIR/profile.speedscope.json" "$PROF_DIR/first.speedscope.json"
cp "$PROF_DIR/profile.folded" "$PROF_DIR/first.folded"
PYTHONPATH=src python -m repro profile --duration 4 \
    --fluid-duration 40 --burst-rate 900 --seed 1 \
    --out "$PROF_DIR/profile.json" \
    --speedscope "$PROF_DIR/profile.speedscope.json" \
    --folded-out "$PROF_DIR/profile.folded" > "$PROF_DIR/b.txt"
cmp "$PROF_DIR/a.txt" "$PROF_DIR/b.txt"
cmp "$PROF_DIR/first.json" "$PROF_DIR/profile.json"
cmp "$PROF_DIR/first.speedscope.json" "$PROF_DIR/profile.speedscope.json"
cmp "$PROF_DIR/first.folded" "$PROF_DIR/profile.folded"
echo "profile smoke ok: deterministic across runs"
# FaaS smoke + determinism: the serverless replay must exit 0 and two
# identical invocations must produce byte-identical stdout and JSON.
FAAS_DIR="$(mktemp -d -t harvest_faas.XXXXXX)"
trap 'rm -f "$TRACE_OUT"; rm -rf "$CACHE_DIR" "$NET_DIR" "$PROF_DIR" "$FAAS_DIR"' EXIT
PYTHONPATH=src python -m repro faas --duration 3600 --seed 1 \
    --out "$FAAS_DIR/faas.json" > "$FAAS_DIR/a.txt"
cp "$FAAS_DIR/faas.json" "$FAAS_DIR/first.json"
PYTHONPATH=src python -m repro faas --duration 3600 --seed 1 \
    --out "$FAAS_DIR/faas.json" > "$FAAS_DIR/b.txt"
cmp "$FAAS_DIR/a.txt" "$FAAS_DIR/b.txt"
cmp "$FAAS_DIR/first.json" "$FAAS_DIR/faas.json"
echo "faas smoke ok: deterministic across runs"
# Sweep smoke + cross-worker determinism: the same sweep run with one
# worker and with a two-process pool must produce byte-identical
# stdout, JSON, and merged metrics scrape — the engine's determinism
# contract, checked end to end through the CLI.
SWEEP_DIR="$(mktemp -d -t harvest_sweep.XXXXXX)"
trap 'rm -f "$TRACE_OUT"; rm -rf "$CACHE_DIR" "$NET_DIR" "$PROF_DIR" "$FAAS_DIR" "$SWEEP_DIR"' EXIT
PYTHONPATH=src python -m repro sweep --replications 4 --duration 600 \
    --seed 7 --jobs 1 --out "$SWEEP_DIR/sweep.json" \
    --metrics-out "$SWEEP_DIR/sweep.prom" > "$SWEEP_DIR/a.txt"
cp "$SWEEP_DIR/sweep.json" "$SWEEP_DIR/first.json"
cp "$SWEEP_DIR/sweep.prom" "$SWEEP_DIR/first.prom"
PYTHONPATH=src python -m repro sweep --replications 4 --duration 600 \
    --seed 7 --jobs 2 --out "$SWEEP_DIR/sweep.json" \
    --metrics-out "$SWEEP_DIR/sweep.prom" > "$SWEEP_DIR/b.txt"
cmp "$SWEEP_DIR/a.txt" "$SWEEP_DIR/b.txt"
cmp "$SWEEP_DIR/first.json" "$SWEEP_DIR/sweep.json"
cmp "$SWEEP_DIR/first.prom" "$SWEEP_DIR/sweep.prom"
echo "sweep smoke ok: byte-identical across 1-worker and 2-worker runs"
# Bench gates: every quick suite must verify (each scenario's baseline
# and optimized sides agree: legacy parity, the DES-vs-fluid parity
# contract, byte-identical scrapes with the profiler attached, equal
# served counts, merge determinism across the pool) and hold its
# committed quick-mode floors, bands and frontier ceiling.  The sweep
# floor is core-count aware: 2.5x only where >=4 effective cores exist,
# an overhead bound below that.
for suite in core fluid profile faas sweep; do
    PYTHONPATH=src python -m repro bench --suite "$suite" --quick \
        --check "benchmarks/results/BENCH_${suite}_quick.json"
    echo "bench $suite ok: quick suite within committed bounds"
done
