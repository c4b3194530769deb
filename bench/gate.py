"""Correctness gate: checks what each invocation wrote against references
computed here, apart from the code being timed.

Tolerances come from the accuracy the program states:

* FI and KL values: 1e-6 relative.  Acceptance criterion 10 states it for
  FI/KL functionals against closed forms and for order-doubling plus
  step-halving of the concave-well trace.  The README's "~1e-7" for that
  trace is approximate; the GH-128 trace sits 1.5e-7 from the refined one.
  Relative only, so a tiny value that collapses to 0 is still flagged.
* sampler: its moments and trial counts are random, so the gate tests them
  with a false-alarm rate of at most 1e-4 per run (``sampler_problems``).
  All repetitions of a run share one seed, hence one chain.  The CLI's own
  3-se verdict is recorded beside it and does not count as a failure.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from statistics import NormalDist

import mpmath
from scipy.stats import chi2, nbinom

REL_TOL = 1e-6
FALSE_ALARM = 1e-4
REFERENCE = Path(__file__).resolve().parent / "data" / "well_trace_ref.csv"

mpmath.mp.dps = 50


def read_table(path):
    """(params, columns) of a CSV written by the CLI: '# k=v ...' echo, header, rows."""
    params, rows, header = {}, [], None
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                params.update(kv.split("=", 1) for kv in line[1:].split() if "=" in kv)
            elif header is None:
                header = line.split(",")
            else:
                rows.append([float(c) if c else math.nan for c in line.split(",")])
    return params, {name: [r[i] for r in rows] for i, name in enumerate(header)}


def rel_err(value: float, ref) -> float:
    if ref == 0:
        return 0.0 if value == 0.0 else math.inf
    return float(abs((mpmath.mpf(value) - ref) / ref))


def _run_dir(call) -> str:
    (sub,) = os.listdir(call.out_dir)
    return os.path.join(call.out_dir, sub)


# ---------------------------------------------------------------------------
# Reading one invocation into plain data (the self-check perturbs this data)


def parse(call) -> dict:
    data = {"argv": call.argv, "code": call.code, "stdout": call.stdout, "error": call.error}
    if call.code is None:
        return data
    run = _run_dir(call)
    cmd = call.argv[0]
    if cmd == "gaussian-rates":
        data["params"], data["cols"] = read_table(os.path.join(run, "trace.csv"))
    elif cmd == "counterexample":
        _, data["cols"] = read_table(os.path.join(run, "trace.csv"))
        _, data["bound"] = read_table(os.path.join(run, "bound.csv"))
    elif cmd == "sampler":
        with open(os.path.join(run, "config.json")) as fh:
            data["config"] = json.load(fh)
        _, data["cols"] = read_table(os.path.join(run, "run.csv"))
    elif cmd == "gap":
        _, data["cols"] = read_table(os.path.join(run, "gap.csv"))
    return data


# ---------------------------------------------------------------------------
# References


def _gauss_fi_kl(mean_p, var_p, var_q):
    """FI and KL of N(mean_p, var_p) against N(0, var_q) in one dimension."""
    r = var_p / var_q
    fi = mean_p**2 / var_q**2 + (var_p - var_q) ** 2 / (var_p * var_q**2)
    kl = (r - 1 - mpmath.log(r)) / 2 + mean_p**2 / (2 * var_q)
    return fi, kl


def gaussian_reference(params: dict, ts) -> list:
    """50-digit closed-form (fi, kl) for every row of a gaussian-rates trace."""
    mpf = mpmath.mpf
    alpha = mpf(params["alpha"])
    out = []
    for t in ts:
        t = mpf(t)
        if params["channel"] == "prox":
            s = 1 + alpha * mpf(params["eta"])
            k = int(t)
            var = 1 / alpha + (mpf(params["var0"]) - 1 / alpha) / s ** (2 * k)
            out.append(_gauss_fi_kl(mpf(params["m0"]) / s**k, var, 1 / alpha))
        elif params["channel"] == "heat":
            out.append(_gauss_fi_kl(mpf(params["m"]), mpf(params["s"]) + t, 1 / alpha + t))
        else:
            gamma = mpf(params["gamma"])
            beta = mpf(params["beta"]) if params["beta"] else mpf(1)
            dec2 = mpmath.exp(-2 * gamma * t)
            out.append(_gauss_fi_kl(
                mpmath.exp(-gamma * t) * mpf(params["m"]),
                dec2 / beta + (1 - dec2) / gamma,
                dec2 / alpha + (1 - dec2) / gamma,
            ))
    return out


# ---------------------------------------------------------------------------
# Checks: each returns a list of problems, empty when the output is correct


class Gate:
    def __init__(self):
        self._gauss_cache = {}
        self._well = None
        self.diag = {"gaussian.fi_max_rel_err": 0.0, "gaussian.kl_max_rel_err": 0.0,
                     "quadrature.fi_ref_max_rel_err": 0.0, "gaussian.rows": 0}
        self.cli_3se_fails = 0

    def check(self, data: dict) -> list:
        if data["code"] is None:
            return [f"raised {data['error']}"]
        cmd = data["argv"][0]
        if cmd == "sampler":
            return self._sampler(data)
        problems = [] if data["code"] == 0 else [f"exit code {data['code']}"]
        if "FAIL" in data["stdout"] or "PASS" not in data["stdout"]:
            problems.append("verdict is not PASS: " + " | ".join(data["stdout"].splitlines()))
        checker = {"gaussian-rates": self._gaussian, "counterexample": self._well_trace,
                   "gap": self._gap}.get(cmd)
        return problems + (checker(data) if checker else [])

    def _gaussian(self, data) -> list:
        params, cols = data["params"], data["cols"]
        key = (tuple(sorted(params.items())), tuple(cols["t"]))
        if key not in self._gauss_cache:
            self._gauss_cache[key] = gaussian_reference(params, cols["t"])
        problems = []
        for t, fi, kl, (ref_fi, ref_kl) in zip(cols["t"], cols["fi"], cols["kl"],
                                              self._gauss_cache[key]):
            e_fi, e_kl = rel_err(fi, ref_fi), rel_err(kl, ref_kl)
            self.diag["gaussian.fi_max_rel_err"] = max(self.diag["gaussian.fi_max_rel_err"], e_fi)
            self.diag["gaussian.kl_max_rel_err"] = max(self.diag["gaussian.kl_max_rel_err"], e_kl)
            if not (e_fi <= REL_TOL and e_kl <= REL_TOL):
                problems.append(f"{params['channel']} t={t!r}: fi rel err {e_fi:.3g}, "
                                f"kl rel err {e_kl:.3g} > {REL_TOL:g}")
        self.diag["gaussian.rows"] += len(cols["t"])
        return problems

    def _well_trace(self, data) -> list:
        if self._well is None:
            self._well = read_table(REFERENCE)[1]
        ref, cols = self._well, data["cols"]
        if len(cols["t"]) != len(ref["t"]):
            return [f"{len(cols['t'])} rows, reference has {len(ref['t'])}"]
        problems = []
        for t, fi, kl, rt, rfi, rkl in zip(cols["t"], cols["fi"], cols["kl"],
                                           ref["t"], ref["fi"], ref["kl"]):
            e_fi, e_kl = rel_err(fi, rfi), rel_err(kl, rkl)
            key = "quadrature.fi_ref_max_rel_err"
            self.diag[key] = max(self.diag[key], e_fi)
            if rel_err(t, rt) > 1e-12 or not (e_fi <= REL_TOL and e_kl <= REL_TOL):
                problems.append(f"t={t!r}: fi rel err {e_fi:.3g}, kl rel err {e_kl:.3g} "
                                f"against the refined reference")
        kl = cols["kl"]
        rises = [i for i in range(len(kl) - 1) if kl[i + 1] > kl[i]]
        if rises:
            problems.append(f"kl increases after t={cols['t'][rises[0]]!r}")
        over = [t for t, fi, b in zip(data["bound"]["t"], data["bound"]["fi"],
                                      data["bound"]["bound"]) if not fi <= b]
        if over:
            problems.append(f"fi above the perturbed envelope at t={over[0]!r}")
        return problems

    def _gap(self, data) -> list:
        (eps,), (floor,) = data["cols"]["eps"], data["cols"]["fi_floor"]
        (r_inf,), (fi,) = data["cols"]["r_inf"], data["cols"]["fi"]
        if r_inf <= eps and fi >= floor:
            return []
        return [f"gap certificate: r_inf={r_inf!r} eps={eps!r} fi={fi!r} floor={floor!r}"]

    def _sampler(self, data) -> list:
        code, out = data["code"], data["stdout"]
        cli_fail = "FAIL" in out
        self.cli_3se_fails += cli_fail
        # exit 2 is the CLI's stochastic 3-se verdict; it is recorded, not counted
        if not (code == 0 or (code == 2 and cli_fail)):
            return [f"exit code {code}: " + " | ".join(out.splitlines())]
        return sampler_problems(data["config"], data["cols"])


def sampler_se(cfg: dict, n: int):
    """Standard errors of the mean and variance of n draws from the Gaussian chain.

    For the target N(0, I/alpha) the chain is AR(1) in each coordinate with
    lag-1 coefficient a = 1/(1 + alpha eta).
    """
    alpha, eta = float(cfg["alpha"]), float(cfg["eta"])
    a = 1.0 / (1.0 + alpha * eta)
    se_mean = math.sqrt((1.0 / alpha) / n * (1.0 + a) / (1.0 - a))
    se_var = math.sqrt(2.0 / (alpha**2 * n) * (1.0 + a * a) / (1.0 - a * a))
    return se_mean, se_var


def sampler_problems(cfg: dict, cols: dict) -> list:
    """Final running moments against N(0, I/alpha); recorded trials against kappa^(d/2).

    2d + 1 two-sided tests share FALSE_ALARM.  Means are normal.  Each
    variance is a chi-square with the degrees of freedom that match its
    standard error, which keeps the skewed tail right for short chains.  For
    a quadratic target a proposal is accepted with probability exactly
    kappa^(-d/2), kappa = (1 + eta L)/(1 - eta L), so the recorded trial
    counts are independent geometric draws and their sum is negative binomial.
    """
    d, alpha = int(cfg["d"]), float(cfg["alpha"])
    eta, L = float(cfg["eta"]), float(cfg["L"])
    n = int(cols["k"][-1]) - int(cfg["burn_in"]) + 1  # draws behind the last running moments
    se_mean, se_var = sampler_se(cfg, n)
    tail = FALSE_ALARM / (2 * (2 * d + 1))
    z = NormalDist().inv_cdf(1.0 - tail)
    dof = 2.0 / (alpha * se_var) ** 2
    var_lo, var_hi = chi2.ppf(tail, dof) / (dof * alpha), chi2.isf(tail, dof) / (dof * alpha)
    problems = []
    for j in range(1, d + 1):
        mean, var = cols[f"mean_{j}"][-1], cols[f"var_{j}"][-1]
        if not abs(mean) <= z * se_mean:
            problems.append(f"mean_{j}={mean!r} beyond {z:.2f} se ({z * se_mean:.4g})")
        if not var_lo <= var <= var_hi:
            problems.append(f"var_{j}={var!r} outside [{var_lo:.4g}, {var_hi:.4g}]")
    accept = ((1.0 - eta * L) / (1.0 + eta * L)) ** (d / 2.0)
    m, total = len(cols["trials"]), int(sum(cols["trials"]))
    lo, hi = m + nbinom.ppf(tail, m, accept), m + nbinom.isf(tail, m, accept)
    if not lo <= total <= hi:
        problems.append(f"{total} trials in {m} iterations outside [{lo:.0f}, {hi:.0f}] "
                        f"(kappa^(d/2) = {1.0 / accept:.4f} per iteration)")
    return problems


# ---------------------------------------------------------------------------
# Non-vacuity: a deliberately wrong output must fail the gate


def perturb(data: dict) -> dict | None:
    """A copy of ``data`` with one value made wrong, or None if it has no target.

    well-trace: one FI scaled by (1 + 10 REL_TOL).  gaussian-rates: the row with
    the smallest nonzero FI set to 0.  sampler: one final mean moved 10 se
    further from 0.
    """
    cmd = data["argv"][0]
    if data["code"] is None or cmd not in ("counterexample", "gaussian-rates", "sampler"):
        return None
    bad = dict(data, cols={k: list(v) for k, v in data["cols"].items()})
    if cmd == "counterexample":
        i = len(bad["cols"]["fi"]) // 2
        bad["cols"]["fi"][i] *= 1.0 + 10.0 * REL_TOL
    elif cmd == "gaussian-rates":
        fi = bad["cols"]["fi"]
        i = min((i for i in range(len(fi)) if fi[i] > 0.0), key=fi.__getitem__)
        fi[i] = 0.0
    else:
        n = int(bad["cols"]["k"][-1]) - int(data["config"]["burn_in"]) + 1
        mean = bad["cols"]["mean_1"]
        mean[-1] += math.copysign(10.0 * sampler_se(data["config"], n)[0], mean[-1])
    return bad
