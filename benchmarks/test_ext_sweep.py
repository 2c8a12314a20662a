"""Extension: the process-parallel sweep engine's speedup and contract.

Runs ``repro bench --suite sweep`` (full mode, 4-worker pool) through
the CLI and records ``results/BENCH_sweep_cli.json``.  Structural
claims:

* the determinism contract held — the harness's verify step compares
  the pooled run's merged scrape/profile/summary byte-for-byte against
  the sequential run's, so a nonzero exit here *is* the contract test;
* the measured speedup clears the core-count-aware floor, and on a
  host with at least four effective cores that floor is the 2.5x
  acceptance bar (on smaller hosts the bar degrades honestly — a pool
  cannot beat physics — and this test asserts the overhead bound
  instead, with the core count recorded in the results document);
* sequential and pooled runs of ``repro sweep`` emit byte-identical
  tables and merged metrics, end to end through the CLI.
"""

import json

from repro.cli import main


def test_sweep_speedup_and_determinism(benchmark, results_dir,
                                       tmp_path, capsys):
    out_file = results_dir / "BENCH_sweep_cli.json"

    def run():
        assert main(["bench", "--suite", "sweep", "--jobs", "4",
                     "--out", str(out_file)]) == 0
        capsys.readouterr()
        return json.loads(out_file.read_text())

    payload = benchmark.pedantic(run, rounds=1, iterations=1)
    entry = payload["scenarios"]["sweep_parallel_replay"]

    # The harness verified merged output before timing anything; the
    # document must carry the context a reader (or a stricter host's
    # regression check) needs to interpret the ratio.
    assert payload["jobs"] == 4
    assert payload["cpu_count"] >= 1
    assert entry["cpu_count"] == payload["cpu_count"]

    # The core-count-aware gate: 2.5x is the acceptance bar where at
    # least four effective cores exist; below that the floor bounds
    # pool overhead instead.
    effective = min(4, payload["cpu_count"])
    if effective >= 4:
        assert entry["min_speedup"] == 2.5
    assert entry["speedup"] >= entry["min_speedup"]

    # End-to-end byte-identity of the user-facing sweep across worker
    # counts (the same check CI runs via cmp, inside one process).
    outputs = {}
    for jobs in ("1", "4"):
        prom = tmp_path / f"sweep{jobs}.prom"
        assert main(["sweep", "--replications", "4", "--duration",
                     "600", "--jobs", jobs,
                     "--metrics-out", str(prom)]) == 0
        table = [line for line in capsys.readouterr().out.splitlines()
                 if not line.startswith("wrote ")]  # paths differ
        outputs[jobs] = (table, prom.read_text())
    assert outputs["1"] == outputs["4"]
