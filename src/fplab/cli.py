"""Batch front door: one subcommand per certified artifact.

Each subcommand hands its tables, as columns, and its verdicts to ``RunDir``,
which writes CSV traces (and SVG line plots from the same columns, which
``plot_csv`` regenerates byte for byte from the CSV alone) under
``<out-dir>/<subcommand>-<timestamp>/`` beside a ``manifest.json`` and prints
each PASS/FAIL line; ``main`` derives the exit code from them:

    0   success, every certificate holds
    2   a certificate failed (offending row printed)
    3   runtime abort (rejection-sampling trial cap)
    64  usage error

Configuration precedence: command-line flags > ``--config`` JSON file >
built-in defaults.  The JSON file maps flag names (dashes as underscores)
to values, e.g. ``{"alpha": 0.5, "iters": 10000}``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import subprocess
import sys
import time
from datetime import datetime

import numpy as np

from . import gaussian as ga
from . import optim, potentials, quadrature, sampler
from .svgplot import plot_csv, write_table

EXIT_OK = 0
EXIT_CERT = 2
EXIT_ABORT = 3
EXIT_USAGE = 64

_ENVELOPE_SLACK = 1e-9  # relative; Gaussian curves meet their envelopes with equality
_T_MIN_FLOOR = 1e-300  # counterexample's least --t-min
_T_MAX_CAP = 1e5  # counterexample's largest --t-max
_MAX_STEPS = 10**6  # proxgrad's largest step count, of either run
_MAX_PROPOSALS = 10**8  # sampler's most expected proposals, --iters times kappa^(d/2)
_ETA_CAP = 1e100  # proxgrad's largest --eta
_GAP_SLACK = 8.0 * 2.0**-52  # relative, 8 ulp: gap's r_inf and fi are within 8e-16
_GAP_TABLE_STEP = 0.05  # gap's density.csv spacing; its certificate is exact at any step
_SPIKE_PIECES_CAP = 2**17  # gap's most linear pieces of g: one exact integral and row each
_HEAT_SPAN_CAP = 1e150  # heat's largest --alpha * --t-max: (1 + alpha t)^2 must stay finite
_OU_RATIO_CAP = 1e15  # ou's largest --alpha / --gamma and --beta / --gamma


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse's own failures to exit 64
        raise UsageError(message)


@functools.cache
def _git_describe() -> str:
    """``git describe`` of the checkout this package runs from, once per process."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


class RunDir:
    """Output directory, manifest bookkeeping, and the one path of the run's
    tables, plots and verdicts: the only reader of ``--no-plot``.  The
    directory is made at the first file or the manifest, so a run that a
    usage error stops leaves none behind."""

    def __init__(self, out_dir: str, subcommand: str, params: dict):
        stamp = datetime.now().strftime("%Y%m%d-%H%M%S-%f")
        self.path = os.path.join(out_dir, f"{subcommand}-{stamp}")
        self.subcommand = subcommand
        self.params = params
        self.outputs: list[str] = []
        self.health: dict = {}  # numerical-health figures, filled by the subcommand
        self.verdicts: list[str] = []  # every PASS/FAIL/ABORT line, in print order
        self.failed = False
        self.t0 = time.monotonic()

    def file(self, name: str) -> str:
        os.makedirs(self.path, exist_ok=True)
        full = os.path.join(self.path, name)
        self.outputs.append(full)
        return full

    def table(self, name: str, cols: dict, *plots, params: dict | None = None) -> None:
        """CSV ``name`` under the echo of ``params`` (default the run's), then ``plots``."""
        write_table(self.file(name), self.params if params is None else params, cols)
        self.plot(cols, *plots)

    def plot(self, cols: dict, *plots) -> None:
        """Each (svg name, x column, y columns, title[, logy]) from ``cols``, unless --no-plot."""
        if not self.params["no_plot"]:
            for svg, *spec in plots:
                plot_csv(cols, self.file(svg), *spec)

    def check(self, ok: bool, pass_line: str | None, fail_line: str | None) -> None:
        """Print and record one certificate's verdict; None prints nothing."""
        self.failed |= not ok
        line = pass_line if ok else fail_line
        if line is not None:
            print(line)
            self.verdicts.append(line)

    def finish(self) -> None:
        manifest = {
            "subcommand": self.subcommand,
            "parameters": self.params,
            "output_paths": self.outputs,
            "git_describe": _git_describe(),
            "seed": int(self.params.get("seed", 0)),
            "wall_time_ms": int(1000 * (time.monotonic() - self.t0)),
            "health": self.health,
            "verdicts": self.verdicts,
        }
        os.makedirs(self.path, exist_ok=True)
        with open(os.path.join(self.path, "manifest.json"), "w") as fh:
            json.dump(manifest, fh, indent=2)
        missing = [p for p in self.outputs if not (os.path.exists(p) and os.path.getsize(p) > 0)]
        if missing:
            raise RuntimeError(f"declared outputs missing or empty: {missing}")


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _number(flag: str, value) -> float:
    """value as a finite float, or a usage error naming its flag."""
    try:
        value = float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"{flag} must be a number") from exc
    if not math.isfinite(value):
        raise UsageError(f"{flag} must be finite")
    return value


def _positive(flag: str, value) -> float:
    value = _number(flag, value)
    if not value > 0.0:
        raise UsageError(f"{flag} must be positive")
    return value


def _count(least: int):
    """The check of an integer flag whose least valid value is ``least``."""
    def check(flag: str, value) -> int:
        try:
            value = int(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise UsageError(f"{flag} must be an integer") from exc
        if value < least:
            raise UsageError(f"{flag} must be at least {least}")
        return value
    return check


def _dominates(fi, bound):
    """fi below bound up to the relative slack, elementwise on arrays; a
    missing bound (None) dominates."""
    return bound is None or fi <= bound * (1.0 + _ENVELOPE_SLACK)


def _gap_failure(spec: potentials.SpikeSpec, r_inf: float, fi: float) -> str | None:
    """The first of r_inf <= eps (1 + s) and fi >= fi_floor (1 - s), s =
    _GAP_SLACK, that the figures break, as a FAIL text; None where both hold."""
    if r_inf > spec.eps * (1.0 + _GAP_SLACK):
        return f"r_inf={r_inf!r} exceeds eps={spec.eps}"
    if fi < spec.fi_floor * (1.0 - _GAP_SLACK):
        return f"fi={fi!r} below floor={spec.fi_floor}"
    return None


def _decay_failure(gsq: np.ndarray, alpha: float, eta: float) -> str | None:
    """The first step k at which gsq_k > max(gsq_0 (1 + alpha eta)^{-2k} (1 +
    _ENVELOPE_SLACK), least normal double), as a FAIL text; None where none is."""
    bound = gsq[0] * ga.Proximal(alpha, eta).contraction(np.arange(gsq.size))
    bad = np.flatnonzero(~(gsq <= np.maximum(bound * (1.0 + _ENVELOPE_SLACK),
                                             np.finfo(float).tiny)))
    if not bad.size:
        return None
    k = int(bad[0])
    return (f"decay certificate violated at step {k}: {float(gsq[k])!r} > {float(bound[k])!r} "
            f"(1 + {_ENVELOPE_SLACK:g})")


# ---------------------------------------------------------------------------
# gaussian-rates


def cmd_gaussian_rates(params: dict, run: RunDir) -> None:
    channel, alpha, beta = params["channel"], params["alpha"], params["beta"]
    if channel not in ("heat", "ou", "prox"):
        raise UsageError("--channel must be heat, ou, or prox")
    for flag in ("alpha", "beta"):  # precisions: each variance 1/value must be finite
        if params[flag] is not None and not math.isfinite(1.0 / params[flag]):
            raise UsageError(f"--{flag} {params[flag]!r} is too small: 1/{flag} overflows")
    q0 = ga.IsoGaussian([0.0], 1.0 / alpha)
    if channel == "prox":
        eta = params["eta"]
        if not math.isfinite(alpha * eta):
            raise UsageError(f"need a finite --alpha times --eta (--alpha {alpha:g}, --eta "
                             f"{eta:g}): past it 1 + alpha eta in the prox envelope overflows")
        ts = np.arange(params["k"] + 1)  # integer k: the t column prints as %d
        p0 = ga.IsoGaussian([params["m0"]], params["var0"])
        chan = ga.Proximal(alpha, eta)
        env = ga.ProxRate(alpha=alpha, eta=eta)
    else:
        m, t_max = params["m"], params["t_max"]
        ts = np.linspace(0.0, t_max, params["points"])
        if channel == "heat":
            if alpha * t_max > _HEAT_SPAN_CAP:
                raise UsageError(f"need --alpha times --t-max <= {_HEAT_SPAN_CAP:g} (--alpha "
                                 f"{alpha:g}, --t-max {t_max:g}): past it (1 + alpha t)^2 in the "
                                 "heat envelope overflows")
            s = params["s"]
            p0 = ga.IsoGaussian([m], s)
            chan = ga.Heat()
            beta = 1.0 / s if beta is None else beta
            env = ga.HeatSLCPoincare(alpha, beta) if m == 0.0 else ga.HeatSLC(alpha)
        else:
            gamma = params["gamma"]
            beta = 1.0 if beta is None else beta
            for flag, value in (("alpha", alpha), ("beta", beta)):
                if value > _OU_RATIO_CAP * gamma:
                    raise UsageError(f"need --{flag} <= {_OU_RATIO_CAP:g} times --gamma (--{flag} "
                                     f"{value:g}, --gamma {gamma:g}): past it gamma - {flag} "
                                     f"rounds to -{flag} and the OU envelope divides by zero")
            p0 = ga.IsoGaussian([m], 1.0 / beta)
            chan = ga.OU(gamma=gamma)
            env = ga.OuSLCPoincare(alpha, beta, gamma) if m == 0.0 else ga.OuSLC(alpha, gamma)
    with np.errstate(over="ignore"):  # an overflowing FI is refused just below
        fi0 = ga.fisher_information(p0, q0)
    if not math.isfinite(fi0):
        raise UsageError("the start pair's FI(p0 || q0) overflows: every fi, kl and bound cell "
                         "would be inf")
    fis, kls = ga.fi_curve(p0, q0, chan, ts), ga.kl_curve(p0, q0, chan, ts)
    # the envelope is scalar in t; None (an empty cell) when fi0 = 0
    bound = [env.factor(t) * fi0 for t in ts.tolist()] if fi0 > 0 else [None] * ts.size
    run.table("trace.csv", {"t": ts, "fi": fis, "kl": kls, "bound": bound},
              ("plot.svg", "t", ["fi", "bound"], f"{channel} channel", bool(np.any(fis > 0.0))))
    bounds = np.array(bound, dtype=float)  # an empty bound (None) is nan: never live
    live = bounds > 0.0
    run.health = {"rows": int(ts.size), "fi_bound_ratio_max":
                  float(np.max(fis[live] / bounds[live])) if live.any() else None}
    bad = np.flatnonzero(~_dominates(fis, bounds)) if fi0 > 0 else []
    i = bad[0] if len(bad) else 0
    run.check(not len(bad), f"PASS {channel}: envelope dominates fi on all {ts.size} rows",
              f"FAIL envelope domination: t={ts[i].item()} fi={fis[i].item()!r} bound={bound[i]!r}")


# ---------------------------------------------------------------------------
# counterexample


def cmd_counterexample(params: dict, run: RunDir) -> None:
    m_big, halfwidth = params["M"], params["L"]
    if m_big < 2.0 or halfwidth < 2.0:
        raise UsageError("need --M >= 2 and --L >= 2")
    if not 0.0 < params["t_min"] < params["t_max"]:
        raise UsageError("need 0 < --t-min < --t-max")
    if params["t_min"] < _T_MIN_FLOOR:
        raise UsageError(f"need --t-min >= {_T_MIN_FLOOR:g}: rows below it equal the t = 0 row, "
                         "and the closed form leaves the float range near 1e-307")
    if params["t_max"] > _T_MAX_CAP:
        raise UsageError(f"need --t-max <= {_T_MAX_CAP:g}: past it rounding in log(rho/nu) puts "
                         f"kl's error estimate above the rows' tolerance {quadrature.ROW_TOL:g}")
    t_grid = quadrature.default_time_grid(params["t_min"], params["t_max"], params["t_points"])
    steps, t_wide = max(((quadrature.well_reach_steps(t, halfwidth, m_big), t)
                         for t in t_grid[1:].tolist()), default=(0.0, 0.0))
    if steps > quadrature.MAX_GRID_STEPS:
        raise UsageError(f"--M {m_big:g} and --L {halfwidth:g} give a well too wide or steep for "
                         f"the trace to resolve: a grid reaching its outer vertices "
                         f"+-{(m_big + 1.0) * halfwidth:g} at the spacing of the row at "
                         f"t={t_wide:g} needs more than {quadrature.MAX_GRID_STEPS} steps")
    try:
        trace = quadrature.perturbed_bound_check(m_big, halfwidth, t_grid)
    except quadrature.GridError as exc:
        raise UsageError(f"no grid at t={exc.t:g} for --M {m_big:g} and --L {halfwidth:g}: "
                         f"{exc.__cause__}") from exc
    except (quadrature.NormalizationError, quadrature.QuadratureError) as exc:
        raise UsageError(f"--M {m_big:g}, --L {halfwidth:g} and --t-min/--t-max are outside the "
                         f"range the trace is computed in: {exc}") from exc
    run.health = {
        "smoothing": "closed-form",
        "fi_rel_err_max": max(r.fi_err / abs(r.fi) for r in trace.rows),
        "kl_rel_err_max": max(r.kl_err / abs(r.kl) for r in trace.rows),
        "row_tol": quadrature.ROW_TOL,
        "grid_points_max": max(r.points for r in trace.rows),
        "grid_points_total": sum(r.points for r in trace.rows),
        "smoothing_points_total": sum(r.smoothed_points for r in trace.rows),
        "nu_grid_mass_min": min((r.nu_mass for r in trace.rows if r.nu_mass is not None),
                                default=None),
        "rules": {rule: {"rows": sum(r.rule == rule for r in trace.rows),
                         "points": sum(r.points for r in trace.rows if r.rule == rule)}
                  for rule in dict.fromkeys(r.rule for r in trace.rows)},
    }
    bad = next((r for r in trace.rows if not _dominates(r.fi, r.bound)), None)
    run.check(bad is None, f"PASS perturbed envelope dominates fi on all {len(trace.rows)} rows",
              bad and f"FAIL envelope: t={bad.t!r} fi={bad.fi!r} bound={bad.bound!r}")

    cols = trace.columns()
    trace.write_csv(run.file("trace.csv"), params)
    run.plot(cols, ("fi.svg", "t", ["fi"], "relative Fisher information"),
             ("kl.svg", "t", ["kl"], "KL divergence"))
    run.table("bound.csv", {name: cols[name] for name in ("t", "fi", "bound")},
              ("bound.svg", "t", ["fi", "bound"], "fi vs perturbed envelope", True))

    slope = quadrature.counterexample_initial_slope(m_big, halfwidth)
    lower = max(0.0, (m_big - 2.0) * (m_big + 1.0) ** 2)
    run.table("slope.csv", {"slope": [slope], "lower_bound": [lower], "fi0": [trace.rows[0].fi]})
    print(f"initial fi slope = {slope:.6f} (must exceed {lower:.6f}); fi(0) = {trace.rows[0].fi:.6f}")
    run.check(slope > lower, None, "FAIL initial slope certificate")

    kl = trace.column("kl")
    rise = np.diff(kl) - quadrature.ROW_TOL * (kl[:-1] + kl[1:])  # the two rows' tolerances
    pair = trace.rows[int(np.argmax(rise)):][:2] if np.any(rise > 0.0) else None
    run.check(pair is None, "PASS kl non-increasing along the whole trace",
              pair and f"FAIL kl monotonicity between t={pair[0].t} and t={pair[1].t}")
    loose = next((r for r in trace.rows if not r.converged()), None)
    run.check(loose is None, f"PASS fi and kl error estimates within {quadrature.ROW_TOL:g} "
              f"relative on all {len(trace.rows)} rows", loose and f"FAIL row tolerance: "
              f"t={loose.t!r} fi_err={loose.fi_err:.2g} kl_err={loose.kl_err:.2g}")

# ---------------------------------------------------------------------------
# sampler


def cmd_sampler(params: dict, run: RunDir) -> None:
    d, alpha, L = params["d"], params["alpha"], params["L"]
    if alpha != L:
        raise UsageError("the quadratic target has a single curvature: pass --alpha == --L")
    # max(d, 2): at d = 1 the step 1/(d L) would give eta L = 1, outside (0, 1)
    eta = 1.0 / (max(d, 2) * L) if params["eta"] == "auto" else _positive("--eta", params["eta"])
    if not 0.0 < eta * L < 1.0:
        raise UsageError("need 0 < eta * L < 1 for rejection sampling")
    iters, seed = params["iters"], params["seed"]
    if seed >= 2**64:
        raise UsageError("--seed must fit in 64 unsigned bits")
    burn = iters // 4 if params["burn_in"] is None else params["burn_in"]
    if iters - burn < 2:  # the variance check needs two kept samples
        raise UsageError("need --iters - --burn-in >= 2 (--burn-in defaults to --iters // 4)")
    every = max(1, iters // 1000) if params["record_every"] is None else params["record_every"]
    try:
        kappa_bound = sampler.expected_trials_bound(eta, L, d)
    except OverflowError:  # kappa^(d/2) past the float range
        kappa_bound = math.inf
    proposals = iters * kappa_bound
    if proposals > _MAX_PROPOSALS:
        raise UsageError(f"need --iters times kappa^(d/2) <= {_MAX_PROPOSALS:g} expected "
                         f"proposals, not {proposals:.4g}: take a smaller --eta or --iters")
    cfg = sampler.SamplerConfig(eta=eta, iters=iters, seed=seed, burn_in=burn)
    target = potentials.quadratic_potential(d, alpha)
    # stream 1 seeds the stationary start; stream 0 (and its two jumps) drives the chain
    x0 = sampler.chain_rng(seed, 1).standard_normal(d) / math.sqrt(alpha)

    out = sampler.run_chain(target, x0, cfg)  # TrialCapExceeded aborts the run in main
    n = out.samples.shape[0]
    a = 1.0 / (1.0 + alpha * eta)  # lag-1 autocorrelation of the Gaussian chain
    se_mean = math.sqrt((1.0 / alpha) / n * (1.0 + a) / (1.0 - a))
    se_var = math.sqrt(2.0 / n * (1.0 + a * a) / (1.0 - a * a)) / alpha
    se_trials = float(out.trial_counts.std(ddof=1)) / math.sqrt(iters)

    mean_dev, var_dev = np.max(np.abs(out.mean)), np.max(np.abs(out.var - 1.0 / alpha))
    trials_cap = kappa_bound + 3.0 * se_trials
    for ok, claim in (
        (mean_dev <= 3.0 * se_mean,
         f"mean within 3 se: max|mean|={mean_dev:.5g} (3 se = {3 * se_mean:.5g})"),
        (var_dev <= 3.0 * se_var,
         f"variance within 3 se: max|var-{1 / alpha:g}|={var_dev:.5g} (3 se = {3 * se_var:.5g})"),
        (out.mean_trials <= trials_cap,
         f"mean trials {out.mean_trials:.4f} <= kappa^(d/2) + 3 se = {trials_cap:.4f}"),
    ):
        run.check(ok, f"PASS {claim}", f"FAIL {claim}")

    counts = np.arange(1, n + 1)[:, None]
    cum_mean = np.cumsum(out.samples, axis=0) / counts
    cum_sq = np.cumsum(out.samples**2, axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        cum_var = (cum_sq - counts * cum_mean**2) / np.maximum(counts - 1, 1)
    ks = np.arange(burn, iters, every)  # every row past burn-in, one per record
    cols = {"k": ks, "trials": out.trial_counts[ks]}
    cols.update({f"mean_{j + 1}": cum_mean[::every, j] for j in range(d)})
    cols.update({f"var_{j + 1}": cum_var[::every, j] for j in range(d)})
    run.table("run.csv", cols, ("plot.svg", "k", ["mean_1", "var_1"], "running moments"),
              params={**params, "eta": eta, "x0_norm": float(np.linalg.norm(x0))})
    with open(run.file("config.json"), "w") as fh:
        json.dump({**params, "eta": eta, "burn_in": burn}, fh, indent=2)
    run.health = {
        "prox_point": sampler.prox_route(target),
        "acceptance": sampler.acceptance_route(target),
        "trial_cap": cfg.resolved_max_trials(target),
        "trials_mean": out.mean_trials,
        "trials_histogram": np.bincount(out.trial_counts).tolist(),
    }


# ---------------------------------------------------------------------------
# gap


def cmd_gap(params: dict, run: RunDir) -> None:
    eps, fi_floor = params["eps"], params["fi_floor"]
    if not (0.0 < eps < 1.0 < fi_floor):
        raise UsageError("need 0 < --eps < 1 < --fi-floor")
    try:
        spec = potentials.spike_spec(eps, fi_floor)
    except ValueError as exc:  # the domain is checked above: a tiny eps or a huge ratio is left
        raise UsageError(f"--eps {eps:.12g} and --fi-floor {fi_floor:.12g}: {exc}") from exc
    pieces = 2 * (2 * spec.k_count + 1)
    if pieces > _SPIKE_PIECES_CAP:
        raise UsageError(f"need at most {_SPIKE_PIECES_CAP} spike pieces: --eps {eps:.12g} and "
                         f"--fi-floor {fi_floor:.12g} give {pieces}")
    half = spec.a + 12.0  # a < 8.3 for every eps < 1: the grid's step count lies in [480, 820]
    grid = quadrature.EvalGrid(-half, half, _GAP_TABLE_STEP)
    r_inf, fi = quadrature.gap_check(spec, grid)
    failure = _gap_failure(spec, r_inf, fi)
    run.check(failure is None,
              f"PASS r_inf={r_inf:.8f} <= eps={eps}  and  fi={fi:.6f} >= fi_floor={fi_floor}",
              f"FAIL gap certificate: {failure}")
    print(f"a={spec.a:.10f} M={spec.m_big:.10f} K={spec.k_count} eta={spec.width:.10f}")
    run.table("gap.csv", {
        "eps": [eps], "fi_floor": [fi_floor], "a": [spec.a], "m_big": [spec.m_big],
        "k_count": [spec.k_count], "width": [spec.width], "r_inf": [r_inf], "fi": [fi]})
    # the grid plus every kink of rho; g is linear between the kinks and 0 past +-a
    kinks, g_kinks = quadrature.spike_pieces(spec)
    pts = np.union1d(grid.points, kinks)
    nu = np.exp(-(pts**2) / 2.0) / math.sqrt(2.0 * math.pi)
    g = np.interp(pts, kinks, g_kinks, left=0.0, right=0.0)
    run.table("density.csv", {"x": pts, "nu": nu, "rho_unnormalized": nu * np.exp(-g)},
              ("plot.svg", "x", ["nu", "rho_unnormalized"], "spiked density vs N(0,1)"))
    run.health = {"route": "closed-form", "pieces": pieces, "z": math.exp(-r_inf),
                  "grid_points": int(grid.points.size), "density_rows": int(pts.size)}


# ---------------------------------------------------------------------------
# proxgrad


def cmd_proxgrad(params: dict, run: RunDir) -> None:
    eta, dt, k_max, t_end = params["eta"], params["dt"], params["k"], params["t_end"]
    if t_end < 0.0:
        raise UsageError("--t-end must be nonnegative")
    quartic = potentials.quartic_1d()
    if eta > _ETA_CAP:
        raise UsageError(f"need --eta <= {_ETA_CAP:g}: the range over which the implicit step's "
                         "closed forms are tested")
    if k_max > _MAX_STEPS or t_end / dt > _MAX_STEPS:
        raise UsageError(f"need --k <= {_MAX_STEPS} and --t-end / --dt <= {_MAX_STEPS}")
    quad = potentials.quadratic_potential(1, 1.0)
    quad_trace = optim.prox_grad_run(quad, [1.0], eta, k_max)
    gsq = quad_trace.grad_sq_norms
    failure = _decay_failure(gsq, quad.alpha, eta)
    run.check(failure is None, None, f"FAIL quadratic proximal-gradient envelope: {failure}")
    target_ratio = 1.0 / (1.0 + eta) ** 2
    live = gsq[:-1] > 1e-280
    ratios = gsq[1:][live] / gsq[:-1][live]
    worst = float(np.max(np.abs(ratios - target_ratio))) if ratios.size else 0.0
    run.check(worst <= 1e-12,
              f"PASS quadratic per-step ratio exactly (1+alpha eta)^-2 (max dev {worst:.2e})",
              f"FAIL quadratic per-step ratio: off by {worst!r}")

    times, flow_gsq = optim.gradient_flow(quartic, [1.0], t_end, dt)
    envelope = flow_gsq[0] * np.exp(-2.0 * quartic.alpha * times)
    run.check(bool(np.all(_dominates(flow_gsq, envelope))),
              "PASS quartic gradient-flow decay within e^{-2 alpha t}",
              "FAIL quartic gradient-flow envelope")
    quartic_trace = optim.prox_grad_run(quartic, [1.0], eta, k_max)
    failure = _decay_failure(quartic_trace.grad_sq_norms, quartic.alpha, eta)
    run.check(failure is None,
              "PASS quartic proximal-gradient decay within (1+alpha eta)^{-2k}",
              f"FAIL quartic proximal-gradient envelope: {failure}")

    for name, trace in (("quadratic", quad_trace), ("quartic", quartic_trace)):
        gsq = trace.grad_sq_norms
        run.table(f"proxgrad_{name}.csv", {"k": np.arange(gsq.size), "grad_sq_norm": gsq},
                  (f"proxgrad_{name}.svg", "k", ["grad_sq_norm"], f"proximal gradient, {name}",
                   True))
    run.table("flow_quartic.csv", {"t": times, "grad_sq_norm": flow_gsq},
              ("flow_quartic.svg", "t", ["grad_sq_norm"], "gradient flow, quartic", True))
    run.health = {
        "prox_point": {"quadratic": sampler.prox_route(quad), "quartic": sampler.prox_route(quartic)},
        "flow": "closed-form",
        "residual_rel_max": max(quad_trace.residual_max, quartic_trace.residual_max),
        "rows": {"quadratic": k_max + 1, "quartic": k_max + 1, "flow": int(times.size)},
    }


# ---------------------------------------------------------------------------
# driver


# Each subcommand's function and flags: per flag (dashes as underscores) the
# check its value passes before the command runs, or None where the command
# reads the value itself, and its default.  The parser, the defaults and the
# keys a --config file may set all come from this table.
_COMMANDS = {
    "gaussian-rates": (cmd_gaussian_rates, {
        "channel": (None, None), "alpha": (_positive, 1.0), "gamma": (_positive, 1.0),
        "beta": (_positive, None), "s": (_positive, 2.0), "m": (_number, 0.0),
        "m0": (_number, 1.0), "var0": (_positive, 1.0), "eta": (_positive, 1.0),
        "k": (_count(0), 50), "t_max": (_positive, 10.0), "points": (_count(1), 201),
    }),
    "counterexample": (cmd_counterexample, {
        "M": (_number, 2.0), "L": (_number, 2.0), "t_min": (_number, 1e-3),
        "t_max": (_number, 50.0), "t_points": (_count(0), 60),
    }),
    "sampler": (cmd_sampler, {
        "d": (_count(1), 5), "alpha": (_positive, 1.0), "L": (_positive, 1.0),
        "eta": (None, "auto"), "iters": (_count(1), 20000), "seed": (_count(0), 7),
        "burn_in": (_count(0), None), "record_every": (_count(1), None),
    }),
    "gap": (cmd_gap, {
        "eps": (_number, 0.5), "fi_floor": (_number, 10.0),
    }),
    "proxgrad": (cmd_proxgrad, {
        "eta": (_positive, 1.0), "k": (_count(0), 25), "t_end": (_number, 5.0),
        "dt": (_positive, 0.01),
    }),
}


@functools.cache
def _build_parser() -> _Parser:
    """The CLI's parser, built once per process; each parse gets a fresh namespace."""
    parser = _Parser(prog="fplab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand")
    for name, (_, flags) in _COMMANDS.items():
        p = sub.add_parser(name)
        for flag in flags:
            p.add_argument(_flag(flag))
        p.add_argument("--no-plot", action="store_const", const=True)
        p.add_argument("--config")
        p.add_argument("--out-dir", default="./out")
    return parser


def _params(flags: dict, args: argparse.Namespace) -> dict:
    """Defaults < ``--config`` file < command line, each value that is not
    None passed once through its flag's check."""
    params = {name: default for name, (_, default) in flags.items()} | {"no_plot": False}
    config_path = args.config
    if config_path:
        try:
            with open(config_path) as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config {config_path!r}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise UsageError(f"config {config_path!r} must hold a JSON object")
        unknown = set(loaded) - set(params)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        params.update(loaded)
    params.update({k: v for k, v in vars(args).items() if k in params and v is not None})
    for name, (check, _) in flags.items():
        if check is not None and params[name] is not None:
            params[name] = check(_flag(name), params[name])
    return params


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if not args.subcommand:
            raise UsageError("a subcommand is required (one of: " + ", ".join(_COMMANDS) + ")")
        fn, flags = _COMMANDS[args.subcommand]
        params = _params(flags, args)
        run = RunDir(args.out_dir, args.subcommand, params)
        try:
            fn(params, run)
            code = EXIT_CERT if run.failed else EXIT_OK
        except sampler.TrialCapExceeded as exc:  # the one runtime abort
            run.check(False, None, f"ABORT rejection sampling: {exc}")
            code = EXIT_ABORT
        run.finish()
        return code
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
