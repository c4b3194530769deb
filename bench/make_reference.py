"""Regenerate bench/data/well_trace_ref.csv, the well-trace reference.

    python3 bench/make_reference.py

The reference is the ``fplab counterexample --M 2 --L 2`` trace at doubled
Gauss-Hermite order (256) and halved grid step (5e-4), on the CLI's default
time grid.  It takes about 45 s on two threads.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from fplab import quadrature  # noqa: E402

PARAMS = {"M": 2.0, "L": 2.0, "t_min": 1e-3, "t_max": 50.0, "t_points": 60,
          "gh_order": 256, "grid_step": 5e-4, "threads": 2}


def main() -> None:
    t_grid = quadrature.default_time_grid(PARAMS["t_min"], PARAMS["t_max"], PARAMS["t_points"])
    trace = quadrature.counterexample_trace(
        PARAMS["M"], PARAMS["L"], t_grid, order=PARAMS["gh_order"],
        step=PARAMS["grid_step"], threads=PARAMS["threads"],
    )
    lines = ["# " + " ".join(f"{k}={v}" for k, v in PARAMS.items()), "t,fi,kl"]
    lines += [f"{r.t:.17g},{r.fi:.17g},{r.kl:.17g}" for r in trace.rows]
    (BENCH / "data" / "well_trace_ref.csv").write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
