import dataclasses
import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy import integrate
from scipy.special import ndtr

import fplab as fp
from fplab import cli, optim, potentials, quadrature, sampler, svgplot
from fplab.cli import EXIT_ABORT, EXIT_CERT, EXIT_OK, EXIT_USAGE, _dominates, main
from fplab.svgplot import _fmt, plot_csv, read_csv_columns, write_table


def run_cli(tmp_path, *args):
    return main([*args, "--out-dir", str(tmp_path)])


def only_run_dir(tmp_path, sub):
    dirs = [d for d in os.listdir(tmp_path) if d.startswith(sub)]
    assert len(dirs) >= 1
    return os.path.join(tmp_path, sorted(dirs)[-1])


class TestGaussianRates:
    def test_prox_channel_quarters(self, tmp_path):
        code = run_cli(
            tmp_path, "gaussian-rates", "--channel", "prox", "--alpha", "1",
            "--eta", "1", "--m0", "1", "--var0", "1", "--k", "50", "--no-plot",
        )
        assert code == EXIT_OK
        cols = read_csv_columns(os.path.join(only_run_dir(tmp_path, "gaussian-rates"), "trace.csv"))
        fi = np.array(cols["fi"])
        expect = 0.25 ** np.arange(51)
        assert np.max(np.abs(fi - expect) / expect) <= 1e-12
        # var0 = 1/alpha: fi is fi(0) s^-2k, which the envelope computes the same way
        assert cols["fi"] == cols["bound"]

    @pytest.mark.parametrize("m0", ["0", "0.5"])
    def test_prox_columns_match_50_digit_closed_form(self, tmp_path, m0):
        # by k = 2000 the variance sits 5e-18 above 1/alpha: FI and KL must
        # come from the transported difference, never from subtracting 1/alpha
        mp = pytest.importorskip("mpmath")
        code = run_cli(
            tmp_path, "gaussian-rates", "--channel", "prox", "--alpha", "1", "--eta", "0.01",
            "--m0", m0, "--var0", "2", "--k", "2000", "--no-plot",
        )
        assert code == EXIT_OK
        cols = read_csv_columns(os.path.join(only_run_dir(tmp_path, "gaussian-rates"), "trace.csv"))
        with mp.workdps(50):
            s = 1 + mp.mpf(0.01)  # alpha = 1
            for k in (0, 1, 50, 500, 1000, 1500, 2000):
                assert cols["t"][k] == k
                shift2 = (mp.mpf(float(m0)) / s**k) ** 2
                dv = (2 - mp.mpf(1)) / s ** (2 * k)  # vp - vq, with vq = 1/alpha = 1
                fi = shift2 + dv**2 / (1 + dv)
                kl = (dv - mp.log1p(dv)) / 2 + shift2 / 2
                assert abs(cols["fi"][k] - fi) <= 1e-12 * fi, k
                assert abs(cols["kl"][k] - kl) <= 1e-12 * kl, k

    def test_heat_centered_cubic_decay(self, tmp_path):
        code = run_cli(
            tmp_path, "gaussian-rates", "--channel", "heat", "--alpha", "1",
            "--s", "2", "--m", "0", "--t-max", "40", "--no-plot",
        )
        assert code == EXIT_OK
        cols = read_csv_columns(os.path.join(only_run_dir(tmp_path, "gaussian-rates"), "trace.csv"))
        t = np.array(cols["t"])
        fi = np.array(cols["fi"])
        scaled = fi * (1.0 + t) ** 3
        # (s-1)^2 (1+t)/(s+t) with s=2: rises from 1/2 toward 1, stays bounded
        assert scaled.max() <= 1.0 + 1e-12 and scaled.min() >= 0.5 - 1e-12

    def test_ou_channel_envelope_certified(self, tmp_path):
        code = run_cli(
            tmp_path, "gaussian-rates", "--channel", "ou", "--gamma", "1",
            "--alpha", "0.1", "--beta", "100", "--m", "0", "--no-plot",
        )
        assert code == EXIT_OK

    def test_ou_fi_column_matches_closed_form(self, tmp_path):
        # the evolved variances agree to 1e-9 at late times, so the FI column
        # must come from a form that never subtracts them
        mp = pytest.importorskip("mpmath")
        code = run_cli(
            tmp_path, "gaussian-rates", "--channel", "ou", "--gamma", "1",
            "--alpha", "0.1", "--beta", "100", "--m", "0", "--no-plot",
        )
        assert code == EXIT_OK
        cols = read_csv_columns(os.path.join(only_run_dir(tmp_path, "gaussian-rates"), "trace.csv"))
        worst = 0.0
        with mp.workdps(50):
            for t, fi in zip(cols["t"], cols["fi"]):
                dec2 = mp.exp(-2 * mp.mpf(t))
                vp = dec2 / 100 + (1 - dec2)
                vq = dec2 * 10 + (1 - dec2)
                exact = (vp - vq) ** 2 / (vp * vq**2)
                worst = max(worst, float(abs((fi - exact) / exact)))
        assert worst <= 1e-12

    def test_ou_kl_column_matches_closed_form(self, tmp_path):
        # to t = 40 the evolved variances agree to ~1e-35: KL = u^2/2 + ...
        # with u = vp/vq - 1, which evolve + kl_divergence rounds to noise
        mp = pytest.importorskip("mpmath")
        code = run_cli(
            tmp_path, "gaussian-rates", "--channel", "ou", "--gamma", "1",
            "--alpha", "0.1", "--beta", "100", "--m", "0", "--t-max", "40", "--no-plot",
        )
        assert code == EXIT_OK
        cols = read_csv_columns(os.path.join(only_run_dir(tmp_path, "gaussian-rates"), "trace.csv"))
        worst = 0.0
        with mp.workdps(50):
            for t, kl in zip(cols["t"], cols["kl"]):
                dec2 = mp.exp(-2 * mp.mpf(t))
                r = (dec2 / 100 + (1 - dec2)) / (dec2 * 10 + (1 - dec2))
                exact = (r - 1 - mp.log(r)) / 2
                worst = max(worst, float(abs((kl - exact) / exact)))
        assert worst <= 1e-12

    def test_overdeclared_poincare_constant_fails_cert(self, tmp_path):
        # beta above the true Poincare constant of rho0 gives an envelope
        # below the exact curve: the certificate must fail with exit 2
        code = run_cli(
            tmp_path, "gaussian-rates", "--channel", "heat", "--alpha", "1",
            "--s", "2", "--m", "0", "--beta", "10", "--no-plot",
        )
        assert code == EXIT_CERT

    def test_bad_channel_is_usage_error(self, tmp_path):
        assert run_cli(tmp_path, "gaussian-rates", "--channel", "warp") == EXIT_USAGE

    @pytest.mark.parametrize("args", [
        ("--channel", "heat", "--m", "1e300"), ("--channel", "ou", "--m", "1e300"),
        ("--channel", "prox", "--m0", "1e200"),
    ])
    def test_overflowing_start_fi_is_usage_error(self, tmp_path, args, capsys):
        # every fi, kl and bound cell would be inf, and _dominates(inf, inf) holds
        assert run_cli(tmp_path, "gaussian-rates", *args, "--no-plot") == EXIT_USAGE
        captured = capsys.readouterr()
        assert "FI(p0 || q0) overflows" in captured.err and captured.out == ""
        assert os.listdir(tmp_path) == []

    def test_tiny_alpha_warns_of_nothing(self, tmp_path):
        # u rounds to -1 there, where log1p(u), the branch kl_curve does not take, divides by 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(tmp_path, "gaussian-rates", "--channel", "heat", "--alpha", "1e-300",
                           "--no-plot") == EXIT_OK

    def test_envelope_check_is_relative_at_every_scale(self):
        # an absolute slack would pass any fi below it, whatever the bound
        assert not _dominates(2e-20, 1e-20)
        assert _dominates(1e-20 * (1.0 + 1e-10), 1e-20)
        assert _dominates(5.0, None)


class TestCounterexample:
    def test_small_grid_run(self, tmp_path):
        code = run_cli(
            tmp_path, "counterexample", "--t-points", "8", "--t-max", "2", "--no-plot",
        )
        assert code == EXIT_OK
        run_dir = only_run_dir(tmp_path, "counterexample")
        for name in ("trace.csv", "bound.csv", "slope.csv", "manifest.json"):
            assert os.path.getsize(os.path.join(run_dir, name)) > 0
        slope_cols = read_csv_columns(os.path.join(run_dir, "slope.csv"))
        assert slope_cols["slope"][0] == pytest.approx(14.7207746964, abs=1e-6)
        trace_cols = read_csv_columns(os.path.join(run_dir, "trace.csv"))
        kl = np.array(trace_cols["kl"])
        assert np.all(np.diff(kl) <= 1e-8)

    def test_domain_validation(self, tmp_path):
        assert run_cli(tmp_path, "counterexample", "--M", "1.0") == EXIT_USAGE

    def test_each_grid_is_built_once(self, tmp_path, monkeypatch):
        built = []
        make = quadrature.well_grid

        def counted(t, *args):
            grid = make(t, *args)
            built.append((t, grid.rule))
            return grid

        monkeypatch.setattr(quadrature, "well_grid", counted)
        code = run_cli(tmp_path, "counterexample", "--t-points", "4", "--t-max", "0.5", "--no-plot")
        assert code == EXIT_OK
        # t = 0 is in closed form, on no grid; every later row has t >= 1.6e-5,
        # whose smoothed kink the trapezoid grid resolves
        ts = quadrature.default_time_grid(1e-3, 0.5, 4).tolist()
        assert built == [(t, "trapezoid") for t in ts[1:]]

    def test_envelope_failure_writes_the_one_trace(self, tmp_path, monkeypatch, capsys):
        # halving the envelope puts fi(0) above its bound; the run must still
        # write both tables from the single trace it computed
        factor = fp.HeatPerturbed.factor
        monkeypatch.setattr(fp.HeatPerturbed, "factor", lambda self, t: 0.5 * factor(self, t))
        smooth = quadrature.smoothed_well_logdensity
        smoothed_at = []

        def counted(m_big, halfwidth, t, x):
            # a call takes a batch of rows: one float t, or one time per point
            smoothed_at.extend(np.unique(t).tolist())
            return smooth(m_big, halfwidth, t, x)

        monkeypatch.setattr(quadrature, "smoothed_well_logdensity", counted)
        code = run_cli(
            tmp_path, "counterexample", "--t-min", "0.01", "--t-max", "0.1",
            "--t-points", "2", "--no-plot",
        )
        assert code == EXIT_CERT
        assert "FAIL envelope: t=0.0 " in capsys.readouterr().out
        # the t = 0 row is in closed form; each later row is smoothed once per
        # grid it takes, and t = 0.01 misses ROW_TOL at twice well_grid's
        # spacing, where both rows start, and halves it once
        assert sorted(smoothed_at) == [0.01, 0.01, 0.1]
        run_dir = only_run_dir(tmp_path, "counterexample")
        for name in ("trace.csv", "bound.csv"):
            assert os.path.getsize(os.path.join(run_dir, name)) > 0
        bound = read_csv_columns(os.path.join(run_dir, "bound.csv"))
        assert len(bound["t"]) == 3 and all(math.isfinite(b) for b in bound["bound"])

    def test_manifest_reports_numerical_health(self, tmp_path):
        code = run_cli(tmp_path, "counterexample", "--t-points", "4", "--t-max", "0.5", "--no-plot")
        assert code == EXIT_OK
        run_dir = only_run_dir(tmp_path, "counterexample")
        manifest = json.load(open(os.path.join(run_dir, "manifest.json")))
        health = manifest["health"]
        assert health["smoothing"] == "closed-form"
        assert health["row_tol"] == quadrature.ROW_TOL == 1e-10
        assert manifest["verdicts"][-1] == \
            "PASS fi and kl error estimates within 1e-10 relative on all 5 rows"
        for key in ("fi_rel_err_max", "kl_rel_err_max"):
            # 1.0e-12 and 1e-15 here: the trapezoid rows' |T_h - T_2h| is the
            # coarser rule's error, and the closed-form t = 0 row's its rounding bound
            assert math.isfinite(health[key]) and 0.0 <= health[key] < 2e-11
        assert health["kl_rel_err_max"] == pytest.approx(1e-15, rel=1e-9)
        ts = quadrature.default_time_grid(1e-3, 0.5, 4)
        # t = 1e-3's half-grid has 538 steps, not a multiple of 4, so its row
        # starts at well_grid's grid; the others start at twice its spacing,
        # where t = 0.063 meets ROW_TOL and the other two halve it once
        assert [quadrature.well_grid(t, 2.0, 1e-3, 2.0).size for t in ts[1:]] == [
            1077, 569, 569, 569]
        sizes = [1077, 569, 285, 569]
        assert health["grid_points_max"] == max(sizes)
        assert health["grid_points_total"] == sum(sizes)
        assert health["rules"] == {"closed-form": {"rows": 1, "points": 0},
                                   "trapezoid": {"rows": 4, "points": sum(sizes)}}
        # the smoothed well is evaluated on the nonnegative half of each grid
        assert health["smoothing_points_total"] == sum((n + 1) // 2 for n in sizes)
        # the grids reach rho_t's 8.5 sd, so they hold least of nu, whose
        # bumps sit at +-(M+1)L = +-6, at the first row: P(|Y + sqrt(t) Z| <= R)
        # for Y ~ exp(-g)/Z, R = 8.5 sqrt(1+t) the grid's reach
        t, pot = ts[1], fp.counterexample_potential(2.0, 2.0)
        reach, log_z = 8.5 * math.sqrt(1.0 + t), quadrature._well_log_mass(2.0, 2.0)

        def held(y):
            inside = ndtr((reach - y) / math.sqrt(t)) - ndtr((-reach - y) / math.sqrt(t))
            return math.exp(-float(pot.value(y)) - log_z) * inside

        share = integrate.quad(held, -40.0, 40.0, points=[-reach, -6.0, -2.0, 2.0, 6.0, reach],
                               limit=200, epsabs=0.0, epsrel=1e-12)[0]
        assert share == pytest.approx(0.99384, abs=1e-5)
        assert health["nu_grid_mass_min"] == pytest.approx(share, rel=1e-6)

    @pytest.mark.parametrize("args", [
        ("--t-min", "0"), ("--t-min", "-1"), ("--t-min", "1", "--t-max", "0.1"),
        ("--t-points", "-1"),
        # the well's mass at +-(M+1)L = +-2e8 needs a grid beyond the size cap
        ("--M", "1e8", "--t-points", "2", "--t-max", "0.1"),
        ("--t-max", "1e300"), ("--t-max", "2e6"), ("--t-min", "1e-305"), ("--L", "1e300"),
        # past 1e5 the late rows' kl estimates stop at the grid cap above ROW_TOL
        ("--t-max", "1e6"),
        # a well too wide for its first trapezoid row (well_reach_steps), and
        # one narrower than the potential's least halfwidth, 2
        ("--L", "1e5"), ("--L", "1.9"),
        # the t = 0 row alone: its closed form leaves the float range
        ("--L", "1e300", "--t-points", "0"), ("--M", "1e300", "--t-points", "0"),
        # the grids refine themselves; there is no step to set
        ("--grid-step", "1e-3"),
    ])
    def test_bad_input_is_usage_error(self, tmp_path, args, capsys):
        assert run_cli(tmp_path, "counterexample", *args, "--no-plot") == EXIT_USAGE
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ("--M", "200", "--L", "50"),
        ("--M", "1e8", "--t-points", "2", "--t-max", "0.1"),
        ("--L", "1e5"),
    ])
    def test_wells_too_wide_to_resolve_are_refused(self, tmp_path, args, capsys):
        # a trapezoid grid at the first row's spacing that reached the outer
        # vertices +-(M+1)L would need more than MAX_GRID_STEPS steps: past
        # that the rows of such wells stop at the cap above ROW_TOL
        assert run_cli(tmp_path, "counterexample", *args, "--no-plot") == EXIT_USAGE
        err = capsys.readouterr().err
        assert "too wide or steep for the trace to resolve" in err and "t=0.001" in err

    @pytest.mark.parametrize("m_big, halfwidth", [("20", "20"), ("50", "5"), ("200", "2")])
    def test_steep_wells_meet_the_row_tolerance(self, tmp_path, m_big, halfwidth, capsys):
        # the first rows past t = 1/M refine far: on grids reaching past
        # +-(M+1)L they would stop at the 2^20-step cap above ROW_TOL, on
        # grids reaching rho_t's 8.5 sd they meet it.  Those grids hold next
        # to none of nu
        code = run_cli(tmp_path, "counterexample", "--M", m_big, "--L", halfwidth, "--no-plot")
        assert code == EXIT_OK
        assert "PASS fi and kl error estimates within 1e-10 relative on all 61 rows" in \
            capsys.readouterr().out
        health = json.load(open(os.path.join(only_run_dir(tmp_path, "counterexample"),
                                             "manifest.json")))["health"]
        assert 0.0 <= health["nu_grid_mass_min"] < 1e-6

    @pytest.mark.parametrize("args", [
        ("--t-min", "1e-10", "--t-max", "4e-9", "--t-points", "8"),
        ("--M", "200", "--L", "2", "--t-min", "1e-8", "--t-max", "4e-6", "--t-points", "8"),
    ])
    def test_sharp_kink_rows_meet_the_row_tolerance(self, tmp_path, args, capsys):
        # kinks of width sqrt(t) far below the spacing: on Simpson grids
        # reaching past +-(M+1)L these rows stopped at the 2^20-step cap
        # above ROW_TOL, on grids reaching rho_t's 8.5 sd they meet it
        assert run_cli(tmp_path, "counterexample", *args, "--no-plot") == EXIT_OK
        verdicts = [line for line in capsys.readouterr().out.splitlines()
                    if line.startswith(("PASS", "FAIL"))]
        assert len(verdicts) == 3 and all(line.startswith("PASS") for line in verdicts)

    def test_rows_near_zero_time_equal_the_first(self, tmp_path):
        # sqrt(t) far below the grid step: the smoothed well is exp(-g) to
        # every digit, and the closed form stays finite down to t = 1e-300
        code = run_cli(tmp_path, "counterexample", "--t-min", "1e-300", "--t-max", "0.1",
                       "--t-points", "3", "--no-plot")
        assert code == EXIT_OK
        cols = read_csv_columns(os.path.join(only_run_dir(tmp_path, "counterexample"),
                                             "trace.csv"))
        assert cols["t"][:3] == [0.0, 1e-300, pytest.approx(math.sqrt(1e-301), rel=1e-12)]
        # rows 1 and 2 take the Simpson grid of t = 0, 1.5e-14 from the closed-form row 0
        for name in ("fi", "kl"):
            assert cols[name][1] == pytest.approx(cols[name][0], rel=2e-14, abs=0.0)
            assert cols[name][2] == pytest.approx(cols[name][1], rel=1e-15, abs=0.0)

    def test_envelope_check_is_relative(self, tmp_path, monkeypatch, capsys):
        # fi(0) = bound(0) (1 + 1e-8): below any absolute slack of 1e-6, but
        # ten times the relative one
        factor = fp.HeatPerturbed.factor
        monkeypatch.setattr(fp.HeatPerturbed, "factor",
                            lambda self, t: factor(self, t) / (1.0 + 1e-8))
        code = run_cli(
            tmp_path, "counterexample", "--t-min", "0.01", "--t-max", "0.1",
            "--t-points", "2", "--no-plot",
        )
        assert code == EXIT_CERT
        assert "FAIL envelope: t=0.0 " in capsys.readouterr().out

    def test_envelope_and_kl_failures_both_print(self, tmp_path, monkeypatch, capsys):
        # one failed check does not hide the next: every FAIL line prints, in
        # order, and the manifest records them as they were printed.  A kl of
        # 1e-6 also puts the t = 0 row's kl estimate above ROW_TOL
        factor = fp.HeatPerturbed.factor
        monkeypatch.setattr(fp.HeatPerturbed, "factor", lambda self, t: 0.5 * factor(self, t))
        bounded = quadrature.perturbed_bound_check

        def risen(*args, **kwargs):
            trace = bounded(*args, **kwargs)
            kls = (1e-6, 1e-6 + 1e-9, 1e-7)
            return fp.ChannelTrace(rows=tuple(
                r._replace(kl=kl) for r, kl in zip(trace.rows, kls)))

        monkeypatch.setattr(quadrature, "perturbed_bound_check", risen)
        code = run_cli(
            tmp_path, "counterexample", "--t-min", "0.01", "--t-max", "0.1",
            "--t-points", "2", "--no-plot",
        )
        assert code == EXIT_CERT
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("FAIL envelope: t=0.0 ")
        assert out[1].startswith("initial fi slope = ")
        assert out[2] == "FAIL kl monotonicity between t=0.0 and t=0.01"
        assert out[3].startswith("FAIL row tolerance: t=0.0 ")
        manifest = json.load(open(os.path.join(only_run_dir(tmp_path, "counterexample"),
                                                "manifest.json")))
        assert manifest["verdicts"] == [out[0], out[2], out[3]]

    def test_row_tolerance_failure_names_the_first_loose_row(self, tmp_path, monkeypatch, capsys):
        # an estimate just above ROW_TOL relative fails the run, and the FAIL
        # line, printed last, names the first such row
        bounded = quadrature.perturbed_bound_check

        def loose(*args, **kwargs):
            rows = bounded(*args, **kwargs).rows
            return fp.ChannelTrace(rows=rows[:1] + tuple(
                r._replace(fi_err=1.01 * quadrature.ROW_TOL * r.fi) for r in rows[1:]))

        monkeypatch.setattr(quadrature, "perturbed_bound_check", loose)
        code = run_cli(tmp_path, "counterexample", "--t-min", "0.01", "--t-max", "0.1",
                       "--t-points", "2", "--no-plot")
        assert code == EXIT_CERT
        assert capsys.readouterr().out.splitlines()[-1].startswith(
            "FAIL row tolerance: t=0.01 fi_err=")

    def test_kl_check_is_relative(self, tmp_path, monkeypatch, capsys):
        # a rise of 1e-9 on a KL of 1e-6 is 1e-3 relative: a failure at any
        # scale, though below an absolute slack of 1e-8.  A rise of 5e-9
        # relative is 25 times the two rows' tolerance ROW_TOL (kl_i +
        # kl_i+1), though below a relative slack of 1e-8
        bounded = quadrature.perturbed_bound_check
        for rise, pair in ((lambda kls: (1e-6, 1e-6 + 1e-9, 1e-7), "t=0.0 and t=0.01"),
                           (lambda kls: (*kls[:2], kls[1] * (1 + 5e-9)), "t=0.01 and t=0.1")):
            def risen(*args, rise=rise, **kwargs):
                rows = bounded(*args, **kwargs).rows
                kls = rise([r.kl for r in rows])
                return fp.ChannelTrace(rows=tuple(r._replace(kl=kl) for r, kl in zip(rows, kls)))

            monkeypatch.setattr(quadrature, "perturbed_bound_check", risen)
            code = run_cli(tmp_path, "counterexample", "--t-min", "0.01", "--t-max", "0.1",
                           "--t-points", "2", "--no-plot")
            assert code == EXIT_CERT
            assert f"FAIL kl monotonicity between {pair}" in capsys.readouterr().out


class TestSampler:
    def test_small_run_and_determinism(self, tmp_path):
        args = (
            "sampler", "--d", "2", "--alpha", "1", "--L", "1", "--eta", "0.5",
            "--iters", "2000", "--seed", "42", "--no-plot",
        )
        assert run_cli(tmp_path / "a", *args) == EXIT_OK
        assert run_cli(tmp_path / "b", *args) == EXIT_OK
        csv_a = open(os.path.join(only_run_dir(tmp_path / "a", "sampler"), "run.csv"), "rb").read()
        csv_b = open(os.path.join(only_run_dir(tmp_path / "b", "sampler"), "run.csv"), "rb").read()
        assert csv_a == csv_b

    def test_auto_eta_and_manifest(self, tmp_path):
        code = run_cli(
            tmp_path, "sampler", "--d", "5", "--alpha", "1", "--L", "1",
            "--eta", "auto", "--iters", "4000", "--seed", "7", "--no-plot",
        )
        assert code == EXIT_OK
        run_dir = only_run_dir(tmp_path, "sampler")
        manifest = json.load(open(os.path.join(run_dir, "manifest.json")))
        assert manifest["subcommand"] == "sampler"
        assert manifest["seed"] == 7
        assert manifest["wall_time_ms"] >= 0
        health = manifest["health"]
        assert health["prox_point"] == "closed-form"
        assert health["acceptance"] == "state-free"
        # max(100, 50 ceil(kappa^(d/2))) with kappa = 1.5, d = 5
        assert health["trial_cap"] == 150
        hist = health["trials_histogram"]
        assert hist[0] == 0 and sum(hist) == 4000 and len(hist) <= 151
        assert health["trials_mean"] == pytest.approx(
            sum(k * n for k, n in enumerate(hist)) / 4000, rel=1e-15)
        for p in manifest["output_paths"]:
            assert os.path.exists(p) and os.path.getsize(p) > 0
        config = json.load(open(os.path.join(run_dir, "config.json")))
        assert config["eta"] == pytest.approx(0.2)

    def test_auto_eta_valid_in_one_dimension(self, tmp_path):
        code = run_cli(tmp_path, "sampler", "--d", "1", "--iters", "2000", "--no-plot")
        assert code == EXIT_OK
        config = json.load(open(os.path.join(only_run_dir(tmp_path, "sampler"), "config.json")))
        assert config["eta"] == 0.5

    def test_csv_header_comment(self, tmp_path):
        run_cli(
            tmp_path, "sampler", "--d", "1", "--alpha", "1", "--L", "1",
            "--eta", "0.5", "--iters", "400", "--seed", "3", "--no-plot",
        )
        path = os.path.join(only_run_dir(tmp_path, "sampler"), "run.csv")
        first = open(path).readline()
        assert first.startswith("# ") and "seed=3" in first

    def test_trial_cap_aborts_with_manifest(self, tmp_path, monkeypatch, capsys):
        def capped(*args, **kwargs):
            raise sampler.TrialCapExceeded("no acceptance within 150 trials")

        monkeypatch.setattr(sampler, "run_chain", capped)
        assert run_cli(tmp_path, "sampler", "--iters", "200", "--no-plot") == EXIT_ABORT
        line = "ABORT rejection sampling: no acceptance within 150 trials"
        assert capsys.readouterr().out == line + "\n"
        with open(os.path.join(only_run_dir(tmp_path, "sampler"), "manifest.json")) as fh:
            manifest = json.load(fh)
        assert manifest["verdicts"] == [line] and manifest["output_paths"] == []

    def test_trials_bound_failure_exits_2(self, tmp_path, monkeypatch, capsys):
        # the mean and variance checks still pass; the trial-count check alone fails
        monkeypatch.setattr(sampler, "expected_trials_bound", lambda eta, L, d: 0.5)
        assert run_cli(tmp_path, "sampler", "--iters", "200", "--no-plot") == EXIT_CERT
        out = capsys.readouterr().out.splitlines()
        assert [line[:4] for line in out] == ["PASS", "PASS", "FAIL"]
        assert out[2].startswith("FAIL mean trials ")

    def test_eta_too_large_usage_error(self, tmp_path):
        code = run_cli(
            tmp_path, "sampler", "--d", "1", "--alpha", "1", "--L", "1",
            "--eta", "1.5", "--iters", "100", "--seed", "0",
        )
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("scale", ["1e-300", "1e-200", "1e200", "1e300"])
    def test_extreme_curvature_runs(self, tmp_path, scale):
        # alpha**2 in the variance's standard error would underflow to 0 or overflow
        assert run_cli(tmp_path, "sampler", "--alpha", scale, "--L", scale, "--iters", "2000",
                       "--no-plot") == EXIT_OK

    @pytest.mark.parametrize("scale", [1e-300, 1e300])
    def test_check_figures_show_the_margin_at_every_scale(self, tmp_path, scale, capsys):
        # five significant digits: fixed-point figures read 0.00000 at 1e300
        # and integers of over 100 digits at 1e-300
        assert run_cli(tmp_path, "sampler", "--alpha", repr(scale), "--L", repr(scale),
                       "--iters", "2000", "--no-plot") == EXIT_OK
        out = capsys.readouterr().out
        figures = re.findall(r"\|=(\S+) \(3 se = (\S+)\)", out)
        assert len(figures) == 2, out
        # the mean's standard error scales as alpha^-1/2, the variance's as 1/alpha
        for (dev, bound), unit in zip(figures, (1.0 / math.sqrt(scale), 1.0 / scale)):
            assert all(len(text) <= 11 for text in (dev, bound)), out
            assert 0.0 < float(dev) <= float(bound), out
            assert 1e-3 < float(bound) / unit < 1.0, out

    @pytest.mark.parametrize("args", [
        ("--eta", "0.999", "--iters", "10"),  # kappa^(d/2) = 1.8e8 proposals per iteration
        ("--d", "1000", "--eta", "0.999"),  # kappa^(d/2) leaves the float range
    ])
    def test_proposal_budget_is_usage_error(self, tmp_path, args):
        # in a subprocess with a timeout: an unrefused run would take days
        src = os.path.dirname(os.path.dirname(fp.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run(
            [sys.executable, "-m", "fplab.cli", "sampler", *args, "--out-dir", str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=60)
        assert out.returncode == EXIT_USAGE
        assert "expected proposals" in out.stderr and os.listdir(tmp_path) == []

    def test_alpha_l_mismatch_usage_error(self, tmp_path):
        code = run_cli(
            tmp_path, "sampler", "--d", "1", "--alpha", "1", "--L", "2",
            "--eta", "0.1", "--iters", "100", "--seed", "0",
        )
        assert code == EXIT_USAGE


class TestGap:
    def test_pass_cases(self, tmp_path):
        assert run_cli(tmp_path, "gap", "--eps", "0.5", "--fi-floor", "10", "--no-plot") == EXIT_OK
        assert run_cli(tmp_path, "gap", "--eps", "0.9", "--fi-floor", "2", "--no-plot") == EXIT_OK

    def test_domain_violation(self, tmp_path):
        assert run_cli(tmp_path, "gap", "--eps", "1.5", "--fi-floor", "10") == EXIT_USAGE
        assert run_cli(tmp_path, "gap", "--eps", "0.5", "--fi-floor", "0.5") == EXIT_USAGE

    def test_csv_written(self, tmp_path):
        run_cli(tmp_path, "gap", "--eps", "0.5", "--fi-floor", "10", "--no-plot")
        cols = read_csv_columns(os.path.join(only_run_dir(tmp_path, "gap"), "gap.csv"))
        assert cols["r_inf"][0] <= 0.5 + 1e-6
        assert cols["fi"][0] >= 10.0 - 1e-6

    def test_certificate_failure_writes_its_figures(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(quadrature, "gap_check", lambda spec, grid: (0.75, 12.5))
        assert run_cli(tmp_path, "gap", "--no-plot") == EXIT_CERT
        assert capsys.readouterr().out.startswith("FAIL gap certificate: r_inf=0.75 exceeds eps=0.5\n")
        cols = read_csv_columns(os.path.join(only_run_dir(tmp_path, "gap"), "gap.csv"))
        assert (cols["r_inf"], cols["fi"]) == ([0.75], [12.5])

    def test_manifest_reports_numerical_health(self, tmp_path):
        assert run_cli(tmp_path, "gap", "--no-plot") == EXIT_OK
        run_dir = only_run_dir(tmp_path, "gap")
        health = json.load(open(os.path.join(run_dir, "manifest.json")))["health"]
        r_inf = read_csv_columns(os.path.join(run_dir, "gap.csv"))["r_inf"][0]
        spec = fp.spike_spec(0.5, 10.0)
        assert health["route"] == "closed-form"
        assert health["pieces"] == 2 * (2 * spec.k_count + 1)
        assert health["z"] == pytest.approx(math.exp(-r_inf), rel=1e-15)
        # the default grid on [-a-12, a+12] at step 0.05, plus the 10 kinks that are not nodes
        assert health["grid_points"] == 509
        assert health["density_rows"] == 519

    @pytest.mark.parametrize("args", [
        ("--eps", "1e-4"), ("--eps", "1e-8", "--fi-floor", "2"),
    ])
    def test_spikes_narrower_than_the_grid_step(self, tmp_path, args, capsys):
        # the certificate is exact at any step; no guard ties --eps to the grid
        assert run_cli(tmp_path, "gap", *args, "--no-plot") == EXIT_OK
        assert capsys.readouterr().out.startswith("PASS r_inf=")

    @pytest.mark.parametrize("args", [(), ("--eps", "0.9", "--fi-floor", "1e4"), ("--eps", "1e-4")])
    def test_density_rows_hold_every_kink(self, tmp_path, args):
        assert run_cli(tmp_path, "gap", *args, "--no-plot") == EXIT_OK
        run_dir = only_run_dir(tmp_path, "gap")
        cols = read_csv_columns(os.path.join(run_dir, "density.csv"))
        x, nu, rho = (np.array(cols[name]) for name in ("x", "nu", "rho_unnormalized"))
        assert np.all(np.diff(x) > 0.0)
        params = json.load(open(os.path.join(run_dir, "manifest.json")))["parameters"]
        kinks, g = quadrature.spike_pieces(fp.spike_spec(params["eps"], params["fi_floor"]))
        at = np.searchsorted(x, kinks)
        assert np.array_equal(x[at], kinks)
        assert np.array_equal(rho[at], nu[at] * np.exp(-g))
        # past +-a the density is N(0, 1)
        outside = np.abs(x) > kinks[-1]
        assert np.array_equal(rho[outside], nu[outside])


class TestProxgrad:
    def test_pass(self, tmp_path):
        assert run_cli(tmp_path, "proxgrad", "--no-plot") == EXIT_OK
        run_dir = only_run_dir(tmp_path, "proxgrad")
        cols = read_csv_columns(os.path.join(run_dir, "proxgrad_quadratic.csv"))
        gsq = np.array(cols["grad_sq_norm"])
        assert np.allclose(gsq, 0.25 ** np.arange(gsq.size), rtol=1e-12)

    def test_zero_eta_usage_error(self, tmp_path):
        assert run_cli(tmp_path, "proxgrad", "--eta", "0") == EXIT_USAGE

    @pytest.mark.parametrize("args", [("--eta", "3"), ("--k", "40"), ("--eta", "1e100", "--k", "400")])
    def test_quartic_envelope_holds_to_the_last_step(self, tmp_path, args, capsys):
        # the implicit step is exact, so grad_sq_norm keeps falling with the envelope
        assert run_cli(tmp_path, "proxgrad", *args, "--no-plot") == EXIT_OK
        assert capsys.readouterr().out.count("PASS") == 3

    def test_quartic_certificate_failure_exits_2(self, tmp_path, monkeypatch, capsys):
        # an overdeclared alpha = 3 breaks both quartic envelopes: each prints
        # its FAIL line, and the run still writes every table
        quartic = potentials.quartic_1d
        monkeypatch.setattr(potentials, "quartic_1d",
                            lambda: dataclasses.replace(quartic(), alpha=3.0))
        assert run_cli(tmp_path, "proxgrad", "--no-plot") == EXIT_CERT
        out = capsys.readouterr().out.splitlines()
        assert out[1:] == [
            "FAIL quartic gradient-flow envelope",
            "FAIL quartic proximal-gradient envelope: decay certificate violated at step 1: "
            "0.298774127367783 > 0.25 (1 + 1e-09)",
        ]
        run_dir = only_run_dir(tmp_path, "proxgrad")
        cols = read_csv_columns(os.path.join(run_dir, "proxgrad_quartic.csv"))
        assert cols["k"] == list(range(26)) and cols["grad_sq_norm"][0] == 4.0

    def test_flow_envelope_slack_is_relative(self, tmp_path, monkeypatch, capsys):
        # the flow is exact and falls strictly below e^{-2 alpha t} past t = 0,
        # so a row 1e-7 above it, within a slack of 1e-6, fails the run
        flow = optim.gradient_flow

        def lifted(f, x0, t_end, dt):
            times, gsq = flow(f, x0, t_end, dt)
            gsq = gsq.copy()
            gsq[1] = gsq[0] * math.exp(-2.0 * f.alpha * times[1]) * (1.0 + 1e-7)
            return times, gsq

        monkeypatch.setattr(optim, "gradient_flow", lifted)
        assert run_cli(tmp_path, "proxgrad", "--no-plot") == EXIT_CERT
        out = capsys.readouterr().out.splitlines()
        assert out[1] == "FAIL quartic gradient-flow envelope"
        assert [line.split()[0] for line in out[:1] + out[2:]] == ["PASS"] * 2

    def test_quadratic_certificate_failure_exits_2(self, tmp_path, monkeypatch, capsys):
        # an overdeclared alpha = 2 breaks the quadratic run's decay envelope:
        # its FAIL line prints, the other three verdicts still print their PASS
        quadratic = potentials.quadratic_potential
        monkeypatch.setattr(potentials, "quadratic_potential", lambda d, a: dataclasses.replace(
            quadratic(d, a), alpha=2.0 * a, smoothness=2.0 * a))
        assert run_cli(tmp_path, "proxgrad", "--no-plot") == EXIT_CERT
        out = capsys.readouterr().out.splitlines()
        assert out[0] == ("FAIL quadratic proximal-gradient envelope: decay certificate violated "
                          "at step 1: 0.25 > 0.11111111111111115 (1 + 1e-09)")
        assert [line.split()[0] for line in out[1:]] == ["PASS"] * 3

    def test_manifest_reports_numerical_health(self, tmp_path):
        assert run_cli(tmp_path, "proxgrad", "--k", "10", "--t-end", "1", "--no-plot") == EXIT_OK
        health = json.load(open(os.path.join(only_run_dir(tmp_path, "proxgrad"),
                                              "manifest.json")))["health"]
        assert health["prox_point"] == {"quadratic": "closed-form", "quartic": "closed-form"}
        assert health["flow"] == "closed-form"
        assert 0.0 <= health["residual_rel_max"] <= 1e-15
        assert health["rows"] == {"quadratic": 11, "quartic": 11, "flow": 101}

    def test_dt_spaces_the_flow_rows(self, tmp_path):
        # the flow is exact, so any --dt is only the spacing of its rows
        assert run_cli(tmp_path, "proxgrad", "--dt", "0.5", "--t-end", "2", "--no-plot") == EXIT_OK
        cols = read_csv_columns(os.path.join(only_run_dir(tmp_path, "proxgrad"), "flow_quartic.csv"))
        assert cols["t"] == [0.0, 0.5, 1.0, 1.5, 2.0]


class TestDriver:
    def test_missing_subcommand(self, tmp_path):
        assert main([]) == EXIT_USAGE

    def test_unknown_flag(self, tmp_path):
        assert run_cli(tmp_path, "gap", "--nope", "3") == EXIT_USAGE

    @pytest.mark.parametrize("args", [("gap", "--eps", "1.5"), ("counterexample", "--M", "1")])
    def test_usage_error_leaves_no_run_directory(self, tmp_path, args):
        # the subcommand refuses its flags before any file is written
        assert run_cli(tmp_path, *args) == EXIT_USAGE
        assert os.listdir(tmp_path) == []

    def test_config_file_precedence(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"eps": 0.3, "fi_floor": 5.0}))
        # config supplies eps/fi_floor; flag overrides eps
        code = main([
            "gap", "--config", str(cfg), "--eps", "0.6", "--no-plot",
            "--out-dir", str(tmp_path),
        ])
        assert code == EXIT_OK
        cols = read_csv_columns(os.path.join(only_run_dir(tmp_path, "gap"), "gap.csv"))
        assert cols["eps"][0] == 0.6  # flag wins
        assert cols["fi_floor"][0] == 5.0  # config beats default

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epsilon": 0.3}))
        assert main(["gap", "--config", str(cfg), "--out-dir", str(tmp_path)]) == EXIT_USAGE

    @pytest.mark.parametrize("sub", ["gap", "counterexample"])
    def test_grid_step_config_key_rejected(self, tmp_path, sub, capsys):
        # neither subcommand takes a grid step: gap tabulates at a fixed one
        # and the counterexample's rows refine their own grids
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid_step": 1e-3}))
        assert main([sub, "--config", str(cfg), "--out-dir", str(tmp_path)]) == EXIT_USAGE
        assert "unknown config keys: ['grid_step']" in capsys.readouterr().err

    @pytest.mark.parametrize("sub, text", [
        ("counterexample", '{"M": "two"}'), ("sampler", '{"iters": Infinity}'), ("gap", "5"),
    ])
    def test_bad_config_value_rejected(self, tmp_path, sub, text, capsys):
        # a config value passes the check of its flag, as the same text on
        # the command line would
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert main([sub, "--config", str(cfg), "--out-dir", str(tmp_path)]) == EXIT_USAGE
        assert "usage error:" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        # gap tabulates at a fixed step; a count must be an integer
        ("gap", "--grid-step", "0.05"), ("counterexample", "--t-points", "2.5"),
        ("gaussian-rates", "--channel", "heat", "--t-max", "-1"),
        ("gaussian-rates", "--channel", "heat", "--points", "0"),
        ("sampler", "--iters", "0"), ("sampler", "--iters", "10", "--burn-in", "20"),
        ("proxgrad", "--dt", "0"), ("proxgrad", "--k", "-1"),
        ("counterexample", "--M", "nan"), ("counterexample", "--L", "inf"),
        ("sampler", "--record-every", "0"), ("sampler", "--iters", "1"),
        ("sampler", "--iters", "4", "--burn-in", "3"),
        ("gaussian-rates", "--channel", "heat", "--eta", "-1"),
        ("proxgrad", "--t-end", "1e300"), ("proxgrad", "--dt", "1e-300"),
        ("proxgrad", "--eta", "1e300"), ("proxgrad", "--k", "1000001"),
        ("gap", "--eps", "1e-300"),
        # 3,145,342 spike pieces, past the cap of 2^17
        ("gap", "--fi-floor", "1e12"),
        ("gaussian-rates", "--channel", "heat", "--alpha", "1e-320"),
        ("gaussian-rates", "--channel", "ou", "--beta", "1e-320"),
        # fi_floor / eps overflows
        ("gap", "--fi-floor", "1e308"),
    ])
    def test_bad_input_is_usage_error(self, tmp_path, args, capsys):
        assert run_cli(tmp_path, *args, "--no-plot") == EXIT_USAGE
        assert "usage error:" in capsys.readouterr().err

    @pytest.mark.parametrize("args, flag", [
        # (1 + alpha t)^2 in the heat envelope would overflow
        (("--channel", "heat", "--alpha", "1e300"), "--alpha"),
        (("--channel", "heat", "--t-max", "1e300"), "--t-max"),
        # gamma - beta (gamma - alpha) would round to -beta and the OU envelope divide by 0
        (("--channel", "ou", "--beta", "1e300"), "--beta"),
        (("--channel", "ou", "--alpha", "1e300"), "--alpha"),
        # 1 + alpha eta in the prox envelope would overflow
        (("--channel", "prox", "--alpha", "1e10", "--eta", "1e300"), "--eta"),
    ])
    def test_envelope_range_is_usage_error(self, tmp_path, args, flag, capsys):
        assert run_cli(tmp_path, "gaussian-rates", *args, "--no-plot") == EXIT_USAGE
        err = capsys.readouterr().err
        assert "usage error:" in err and flag in err

    def test_parser_reuse_does_not_leak_values(self, tmp_path):
        assert run_cli(tmp_path / "a", "gap", "--eps", "0.6", "--no-plot") == EXIT_OK
        assert run_cli(tmp_path / "b", "gap", "--no-plot") == EXIT_OK
        with open(os.path.join(only_run_dir(tmp_path / "b", "gap"), "gap.csv")) as fh:
            echo = fh.readline().split()
        assert "eps=0.5" in echo

    def test_git_describe_runs_once_in_the_package_checkout(self, tmp_path, monkeypatch):
        # a run started inside another repository still describes fplab's
        # checkout, and a second run in the same process does not ask again
        if shutil.which("git") is None:
            pytest.skip("git not installed")
        package_dir = os.path.dirname(os.path.abspath(cli.__file__))
        expect = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=package_dir,
                                capture_output=True, text=True)
        expect = expect.stdout.strip() if expect.returncode == 0 else "unknown"
        other = tmp_path / "other"
        other.mkdir()
        git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false",
               "-C", str(other)]
        subprocess.run([*git, "init", "-q"], check=True)
        subprocess.run([*git, "commit", "-q", "--allow-empty", "-m", "x"], check=True)
        monkeypatch.chdir(other)

        calls = []
        real_run = subprocess.run

        def counting_run(cmd, *args, **kwargs):
            calls.append((cmd, kwargs.get("cwd")))
            return real_run(cmd, *args, **kwargs)

        monkeypatch.setattr(subprocess, "run", counting_run)
        cli._git_describe.cache_clear()
        try:
            for sub in ("a", "b"):
                assert run_cli(tmp_path / sub, "proxgrad", "--k", "2", "--no-plot") == EXIT_OK
        finally:
            cli._git_describe.cache_clear()
        assert calls == [(["git", "describe", "--always", "--dirty"], package_dir)]
        for sub in ("a", "b"):
            with open(os.path.join(only_run_dir(tmp_path / sub, "proxgrad"), "manifest.json")) as fh:
                assert json.load(fh)["git_describe"] == expect

    def test_write_table_matches_per_cell_format(self, tmp_path, monkeypatch):
        # each column takes one format: %d for integer cells, %.17g for float
        # cells, and _fmt cell by cell for any other column (mixed types,
        # bool, None, str); arrays and lists give the bytes _fmt gives
        rows = [
            (3, np.int64(-7), 0.1, np.float64(1.0 / 3.0), -0.0, math.nan, math.inf, 1e-300),
            (4, np.int64(2**40), -math.inf, np.float64(5e-324), 1e300, 2.5, 0.0, -1e-300),
            (5.0, 6, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7),
            (True, np.bool_(False), None, "x", 1, 2.0, np.float32(0.1), np.int8(-3)),
            [7, np.int64(8), 0.25, np.float64(0.5), -0.0, math.nan, -math.inf, 1e-300],
        ]
        columns = {f"c{i}": [row[i] for row in rows] for i in range(8)}
        columns["ints"] = np.array([0, -1, 2**62, 7, -(2**63)], dtype=np.int64)
        columns["floats"] = np.array([-0.0, math.nan, -math.inf, 5e-324, 1.0 / 3.0])
        columns["float32"] = np.array([0.1, 1e-30, 3.0, -2.5, math.inf], dtype=np.float32)
        columns["bools"] = np.array([True, False, True, True, False])
        columns["uints"] = np.arange(5, dtype=np.uint8)
        params = {"b": 1.5, "a": None, "flag": True, "n": np.int64(3), "s": "heat"}
        path = tmp_path / "t.csv"
        expect = ["# a= b=1.5 flag=True n=3 s=heat", ",".join(columns)]
        expect += [",".join(_fmt(col[i]) for col in columns.values()) for i in range(5)]
        # one block, then blocks of 2, 2 and 1 rows
        for block in (svgplot._BLOCK_ROWS, 2):
            monkeypatch.setattr(svgplot, "_BLOCK_ROWS", block)
            write_table(path, params, columns)
            assert path.read_text() == "\n".join(expect) + "\n"
        # a header with no rows, and columns of unequal length
        write_table(path, {}, {"x": [], "y": np.empty(0)})
        assert path.read_text() == "# \nx,y\n"
        with pytest.raises(ValueError, match="equal lengths"):
            write_table(path, {}, {"x": [1.0], "y": [1.0, 2.0]})

    @pytest.mark.parametrize("argv", [
        ("gaussian-rates", "--channel", "heat", "--points", "5"),
        ("counterexample", "--t-min", "0.01", "--t-max", "0.1", "--t-points", "2"),
        ("sampler", "--iters", "200"),
        ("gap",),
        ("proxgrad", "--k", "5"),
    ], ids=lambda argv: argv[0])
    def test_every_csv_has_one_format(self, tmp_path, argv):
        # the echo of the parameters in sorted key order, each value as _fmt
        # prints it (the sampler's echo adds the step it resolved and the
        # start's norm), the header, then cells that read_csv_columns parses
        # back to the same text
        assert run_cli(tmp_path, *argv, "--no-plot") == EXIT_OK
        run_dir = only_run_dir(tmp_path, argv[0])
        with open(os.path.join(run_dir, "manifest.json")) as fh:
            params = json.load(fh)["parameters"]
        resolved = {"eta", "x0_norm"} if argv[0] == "sampler" else set()
        paths = [p for p in os.listdir(run_dir) if p.endswith(".csv")]
        assert paths
        for name in paths:
            path = os.path.join(run_dir, name)
            lines = open(path).read().splitlines()
            assert lines[0].startswith("# "), name
            echo = [tok.split("=", 1) for tok in lines[0][2:].split(" ")]
            keys = [k for k, _ in echo]
            assert keys == sorted(keys) and set(keys) == set(params) | resolved, name
            for k, v in echo:
                assert v == (_fmt(float(v)) if k in resolved else _fmt(params[k])), (name, k)
            header = lines[1].split(",")
            cols = read_csv_columns(path)
            assert list(cols) == header, name
            for i, line in enumerate(lines[2:]):
                for cell, col in zip(line.split(","), header, strict=True):
                    back = cols[col][i]
                    assert (cell == "" and math.isnan(back)) or _fmt(back) == cell, (name, i, col)
            assert all(len(c) == len(lines) - 2 for c in cols.values()), name

    def test_no_plot_suppresses_svg(self, tmp_path):
        run_cli(tmp_path, "gap", "--eps", "0.5", "--fi-floor", "10", "--no-plot")
        run_dir = only_run_dir(tmp_path, "gap")
        assert not any(name.endswith(".svg") for name in os.listdir(run_dir))

    # (argv, csv, svg, plot_csv arguments as the subcommand passes them):
    # every SVG the CLI writes
    _COUNTEREXAMPLE = ("counterexample", "--t-min", "0.01", "--t-max", "0.1", "--t-points", "2")

    @pytest.mark.parametrize("argv, csv, svg, x_col, y_cols, title, logy", [
        (("gap", "--eps", "0.5", "--fi-floor", "10"), "density.csv", "plot.svg", "x",
         ["nu", "rho_unnormalized"], "spiked density vs N(0,1)", False),
        (("gaussian-rates", "--channel", "heat"), "trace.csv", "plot.svg", "t",
         ["fi", "bound"], "heat channel", True),
        (("gaussian-rates", "--channel", "prox", "--k", "50"), "trace.csv", "plot.svg", "t",
         ["fi", "bound"], "prox channel", True),
        (("gaussian-rates", "--channel", "ou", "--gamma", "1", "--alpha", "0.1", "--beta", "100"),
         "trace.csv", "plot.svg", "t", ["fi", "bound"], "ou channel", True),
        # p0 = q0: fi is 0 on every row and the bound column is empty
        (("gaussian-rates", "--channel", "ou"), "trace.csv", "plot.svg", "t",
         ["fi", "bound"], "ou channel", False),
        (("sampler", "--iters", "2000"), "run.csv", "plot.svg", "k",
         ["mean_1", "var_1"], "running moments", False),
        (("proxgrad",), "proxgrad_quartic.csv", "proxgrad_quartic.svg", "k",
         ["grad_sq_norm"], "proximal gradient, quartic", True),
        (("proxgrad",), "proxgrad_quadratic.csv", "proxgrad_quadratic.svg", "k",
         ["grad_sq_norm"], "proximal gradient, quadratic", True),
        (("proxgrad",), "flow_quartic.csv", "flow_quartic.svg", "t",
         ["grad_sq_norm"], "gradient flow, quartic", True),
        (_COUNTEREXAMPLE, "bound.csv", "bound.svg", "t", ["fi", "bound"],
         "fi vs perturbed envelope", True),
        (_COUNTEREXAMPLE, "trace.csv", "fi.svg", "t", ["fi"], "relative Fisher information",
         False),
        (_COUNTEREXAMPLE, "trace.csv", "kl.svg", "t", ["kl"], "KL divergence", False),
    ], ids=["gap", "gaussian-rates", "gaussian-rates-prox", "gaussian-rates-ou",
            "gaussian-rates-ou-no-bound", "sampler", "proxgrad", "proxgrad-quadratic",
            "proxgrad-flow", "counterexample", "counterexample-fi", "counterexample-kl"])
    def test_plots_regenerate_from_csv_alone(self, tmp_path, argv, csv, svg, x_col, y_cols,
                                             title, logy):
        assert run_cli(tmp_path, *argv) == EXIT_OK
        run_dir = only_run_dir(tmp_path, argv[0])
        svg = os.path.join(run_dir, svg)
        assert os.path.getsize(svg) > 0
        replot = tmp_path / "replot.svg"
        plot_csv(os.path.join(run_dir, csv), replot, x_col, y_cols, title=title, logy=logy)
        assert replot.read_bytes() == open(svg, "rb").read()

    def test_subcommands_do_not_import_scipy_special(self, tmp_path):
        # importing scipy.special costs a fresh process about 0.3 s and 23 MB;
        # only the Gauss-Hermite oracle's rule needs it, which no subcommand runs
        script = (
            "import contextlib, io, sys\n"
            "from fplab.cli import main\n"
            f"out = {str(tmp_path)!r}\n"
            "runs = [('gaussian-rates', '--channel', 'heat'), ('gap',), ('proxgrad',),\n"
            "        ('sampler', '--iters', '200'), ('counterexample', '--t-points', '5')]\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [main([*argv, '--no-plot', '--out-dir', out]) for argv in runs]\n"
            "print(codes, 'scipy.special' in sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(fp.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                             text=True, env=env, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split("\n")[0] == "[0, 0, 0, 0, 0] False"

    def test_counterexample_builds_no_thread_pool(self, tmp_path, monkeypatch):
        # its rows run on the calling thread, whatever the environment holds
        monkeypatch.setenv("FPLAB_THREADS", "8")

        def no_pool(*args, **kwargs):
            raise AssertionError("counterexample built a thread pool")

        monkeypatch.setattr(quadrature, "ThreadPoolExecutor", no_pool)
        code = run_cli(
            tmp_path, "counterexample", "--t-points", "4", "--t-max", "0.5", "--no-plot",
        )
        assert code == EXIT_OK
