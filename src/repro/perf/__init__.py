"""Performance-regression harness for the hot-path optimization pass.

The optimization PR claims speedups in three layers — the discrete
-event simulator core, the serving instrumentation fast path, and the
NumPy model/preprocessing kernels.  This package makes those claims
*measured and enforced* rather than asserted:

* :mod:`repro.perf.legacy` — the preserved seed implementations
  (dataclass-event simulator, per-call-label metrics, allocation-per-op
  kernels) that the core suite's speedups are measured against;
* :mod:`repro.perf.scenarios` — deterministic, verified workloads that
  run the same work two ways (baseline vs optimized);
* :mod:`repro.perf.bench` — the :data:`~repro.perf.bench.SUITES` table
  and the one timing/report/regression-check runner behind ``repro
  bench --suite {core,fluid,profile,faas,sweep}``; committed references
  live at ``benchmarks/results/BENCH_<suite>[_quick].json``.
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
from repro.perf.scenarios import Scenario, build_scenarios

__all__ = [
    "DEFAULT_TOLERANCE",
    "SUITES",
    "Scenario",
    "Suite",
    "build_scenarios",
    "check_regression",
    "load_results",
    "render_results",
    "run_suite",
    "write_results",
]
