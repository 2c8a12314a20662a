"""The ratio-suite bench harness behind ``repro bench --suite``.

Each suite runs one workload two ways, verifies that both runs agree,
then times them and gates the ratio against a committed reference:

* :mod:`repro.perf.scenarios` — the deterministic, verified workloads
  (profiler overhead, serverless vs. provisioned, sweep pool vs.
  sequential);
* :mod:`repro.perf.bench` — the :data:`~repro.perf.bench.SUITES` table
  and the one timing/report/regression-check runner behind ``repro
  bench --suite {profile,faas,sweep}``; committed references live at
  ``benchmarks/results/BENCH_<suite>[_quick].json``.

The canonical end-to-end benchmark, in absolute units, is
``perfbench/``.
"""

from repro.perf.bench import (
    DEFAULT_TOLERANCE,
    SUITES,
    Suite,
    check_regression,
    load_results,
    render_results,
    run_suite,
    write_results,
)
from repro.perf.scenarios import Scenario

__all__ = [
    "DEFAULT_TOLERANCE",
    "SUITES",
    "Scenario",
    "Suite",
    "check_regression",
    "load_results",
    "render_results",
    "run_suite",
    "write_results",
]
