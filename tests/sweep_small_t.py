"""Small-t sweep of the concave-well certificate, which pytest does not collect.

Runs ``fplab counterexample`` in-process, one run at a time, at every (M, L)
pair that README lists as meeting the row tolerance and at --t-min 1e-8,
1e-10, 1e-12 and 1e-300, the other flags at their defaults.  Run from the
repository root:

    PYTHONPATH=src python tests/sweep_small_t.py

It prints one line per run:

* exit: the CLI's exit code (0 when every check passes);
* cpu_s: the process CPU time of the run;
* evals: the smoothed-density evaluations, the manifest's
  ``smoothing_points_total``;
* worst: the largest |row - ref| / max(estimate, ROW_TOL |ref|) over fi and
  kl of the rows at t > 0, with ref ``oracles.well_row_by_panels`` at 30
  nodes and panels of at most 0.125; at most 1 means that every row lies
  within its own error estimate or ROW_TOL of the reference;
* ref_gap: the largest relative gap between that reference and the one at
  the default 20 nodes and 0.25, a check on the reference itself.
"""

import contextlib
import io
import os
import sys
import tempfile
import time
from unittest import mock

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from fplab import quadrature  # noqa: E402
from fplab.cli import main  # noqa: E402
from oracles import well_row_by_panels  # noqa: E402

PAIRS = ((2, 2), (3, 2), (2.5, 3), (2, 2.3), (10, 2), (2, 20), (20, 20), (50, 5), (200, 2))
T_MINS = ("1e-8", "1e-10", "1e-12", "1e-300")


def sweep_run(m_big, halfwidth, t_min: str, out_dir: str) -> tuple:
    """(exit code, CPU seconds, the trace or None) of one in-process run."""
    traces = []
    real = quadrature.perturbed_bound_check

    def keep(*args, **kwargs):
        traces.append(real(*args, **kwargs))
        return traces[-1]

    argv = ["counterexample", "--M", str(m_big), "--L", str(halfwidth), "--t-min", t_min,
            "--out-dir", out_dir]
    with mock.patch.object(quadrature, "perturbed_bound_check", keep), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        start = time.process_time()
        code = main(argv)
        cpu = time.process_time() - start
    return code, cpu, traces[-1] if traces else None


def oracle_figures(m_big, halfwidth, rows) -> tuple:
    """(worst, ref_gap) of a trace's rows at t > 0, as the module docstring defines them."""
    worst = gap = 0.0
    for row in rows:
        if row.t == 0.0:
            continue
        ref = well_row_by_panels(m_big, halfwidth, row.t, order=30, width=0.125)
        coarse = well_row_by_panels(m_big, halfwidth, row.t)
        for value, err, r, c in zip((row.fi, row.kl), (row.fi_err, row.kl_err), ref, coarse):
            worst = max(worst, abs(value - r) / max(err, quadrature.ROW_TOL * abs(r)))
            gap = max(gap, abs(c - r) / abs(r))
    return worst, gap


def main_sweep() -> None:
    print(f"{'M':>4} {'L':>4} {'t-min':>7} {'exit':>4} {'cpu_s':>6} {'evals':>10} "
          f"{'worst':>8} {'ref_gap':>8}")
    with tempfile.TemporaryDirectory() as out_dir:
        for m_big, halfwidth in PAIRS:
            for t_min in T_MINS:
                code, cpu, trace = sweep_run(m_big, halfwidth, t_min, out_dir)
                if trace is None:
                    print(f"{m_big:>4} {halfwidth:>4} {t_min:>7} {code:>4} {cpu:>6.2f}")
                    continue
                evals = sum(r.smoothed_points for r in trace.rows)
                worst, gap = oracle_figures(m_big, halfwidth, trace.rows)
                print(f"{m_big:>4} {halfwidth:>4} {t_min:>7} {code:>4} {cpu:>6.2f} {evals:>10,} "
                      f"{worst:>8.2g} {gap:>8.1e}", flush=True)


if __name__ == "__main__":
    main_sweep()
