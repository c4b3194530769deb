"""fplab.special and the moment recurrence against mpmath at 50 digits; the
checked-in tables against the script that generates them; and a walk of
``src/`` that finds no import of scipy."""

import ast
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import make_special_tables as tables
from fplab import special
from fplab.quadrature import _unit_moments

ULP = 2.0**-52
EDGES = np.arange(1, tables.PIECES + 1) * (tables.SPLIT / tables.PIECES)


def _points():
    """Every piece of [0, SPLIT]: 60 points inside it, its upper end and one
    ulp either side of that end; then the tail out to 1e300, and 0 and tiny
    arguments.  2,128 points."""
    rng = np.random.default_rng(20250)
    width = tables.SPLIT / tables.PIECES
    inside = ((np.arange(tables.PIECES)[:, None] + rng.uniform(0, 1, (tables.PIECES, 60))) * width)
    return np.concatenate([inside.ravel(), EDGES, np.nextafter(EDGES, 0.0),
                           np.nextafter(EDGES, np.inf), np.geomspace(tables.SPLIT, 1e300, 108),
                           [0.0, 5e-324, 1e-300, 1e-8]])


POINTS = _points()


def _asymptotic(x, sign):
    """sum_n sign^n (2n-1)!! / (2x^2)^n / x, 20 terms: 50 digits from x = 50 on."""
    u = 1 / (2 * x * x)
    return mp.fsum(sign**n * mp.fac2(2 * n - 1) * u**n for n in range(20)) / x


def _erfcx(x):
    with mp.workdps(50):
        x = mp.mpf(x)
        return float(_asymptotic(x, -1) / mp.sqrt(mp.pi) if x > 50 else tables.erfcx(x))


def _dawson(x):
    with mp.workdps(50):
        x = mp.mpf(x)
        return float(_asymptotic(x, 1) / 2 if x > 50 else tables.dawson(x))


def _rel_err(ours, ref):
    ours, ref = np.asarray(ours), np.asarray(ref)
    return np.abs(ours - ref) / np.where(ref == 0.0, 1.0, np.abs(ref))


def test_erfcx_within_two_ulp():
    ref = [_erfcx(x) for x in POINTS.tolist()]
    assert np.max(_rel_err(special.erfcx(POINTS), ref)) <= 2 * ULP


def test_dawson_within_three_ulp_both_signs():
    # the pieces hold D(x)/x, whose product with x rounds once more than
    # erfcx; D is odd: the negative arguments take the positive ones' references
    ref = np.array([_dawson(x) for x in POINTS.tolist()])
    both = np.concatenate([POINTS, -POINTS])
    assert np.max(_rel_err(special.dawson(both), np.concatenate([ref, -ref]))) <= 3 * ULP
    assert special.dawson(np.array([0.0, 5e-324]))[1] == 5e-324  # D(x) = x at the smallest x


def test_erf_within_two_ulp():
    # the series below 0.5 keeps the digits of erf(a) + erf(b) as both tend to 0
    xs = np.concatenate([POINTS[POINTS < 30.0], np.linspace(0.0, 0.6, 301),
                         np.nextafter(0.5, [0.0, 1.0])])
    xs = np.concatenate([xs, -xs])
    with mp.workdps(50):
        ref = [float(mp.erf(mp.mpf(x))) for x in xs.tolist()]
    assert np.max(_rel_err(special.erf(xs), ref)) <= 2 * ULP


def _ndtr_refs(zs):
    with mp.workdps(50):
        log_phi = [mp.log(mp.ncdf(z)) if z < 0 else mp.log1p(-mp.ncdf(-z))
                   for z in map(mp.mpf, zs.tolist())]
        mills = [mp.npdf(z) / mp.ncdf(z) for z in map(mp.mpf, zs.tolist())]
    return np.array([float(v) for v in log_phi]), np.array([float(v) for v in mills])


def test_log_ndtr_and_mills_ratio():
    # z < 0 and small z: a few ulp.  For z > 0 both carry the rounding of
    # z^2 in e^{-z^2/2}, about z^2/2 ulp relative; log Phi(z) there is at
    # most log Phi(0) = -0.69 and falls to -Phi(-z), whose digits the
    # smoothed well adds to terms of order one.  Mills ratios that the
    # float range holds only as subnormals (z > 37.5) are left out.
    rng = np.random.default_rng(7)
    zs = np.concatenate([rng.uniform(-40.0, 40.0, 1500), -np.geomspace(40.0, 1e5, 100),
                         np.geomspace(1e-8, 40.0, 200), -np.geomspace(1e-8, 1.0, 100),
                         [0.0, 1e-300, -1e-300]])
    log_phi, mills = special.log_ndtr_mills(zs)
    ref_log, ref_mills = _ndtr_refs(zs)
    bound = np.where(zs > 0.0, 4.0 + 0.5 * zs * zs, 4.0) * ULP
    assert np.all(_rel_err(log_phi, ref_log) <= bound)
    normal = ref_mills > 1e-300
    assert np.all(_rel_err(mills, ref_mills)[normal] <= bound[normal])


@pytest.mark.parametrize("kappa", [1.0, 2.5, 10.0, 26.0, 100.0, 700.0])
def test_unit_moments_within_four_ulp(kappa):
    # G_j(kappa) = gamma(j + 1, kappa) / kappa^(j+1), the lower incomplete gamma function
    g = _unit_moments(26, np.array([kappa]))[:, 0]
    with mp.workdps(50):
        k = mp.mpf(kappa)
        ref = [float(mp.gammainc(j + 1, 0, k) / k ** (j + 1)) for j in range(26)]
    assert np.max(_rel_err(g, ref)) <= 4 * ULP


def test_unit_moments_at_kappa_zero_and_below():
    # kappa rounds to 0 or just below where the exponent's maximum sits at s = 0
    g = _unit_moments(26, np.array([0.0, -1e-12, 1e-300]))
    assert g[:, 0].tolist() == [1.0 / (j + 1.0) for j in range(26)]
    with mp.workdps(50):
        ref = [float(mp.quad(lambda s: s**j * mp.exp(1e-12 * s), [0, 1])) for j in range(26)]
    assert np.max(_rel_err(g[:, 1], ref)) <= 4 * ULP
    assert np.max(_rel_err(g[:, 2], g[:, 0])) <= ULP


@pytest.mark.parametrize("name", ["ERFCX", "DAWSON"])
def test_tables_regenerate(name):
    # the first and last piece and the tail, as make_special_tables.py
    # prints them: the checked-in constants are reproducible, not pasted
    table, tail = getattr(special, f"_{name}"), getattr(special, f"_{name}_TAIL")
    assert (special._SPLIT, special._PIECES) == (tables.SPLIT, tables.PIECES)
    assert table.shape == (tables.PIECES, tables.DEGREE + 1)
    assert tables.row(name, 0) == table[0].tolist()
    assert tables.row(name, tables.PIECES - 1) == table[-1].tolist()
    assert tables.tail(name) == tail.tolist()


def _scipy_imports(node, scope=""):
    """The enclosing function of each import of scipy under an AST node: an
    import statement, or a call such as importlib.import_module("scipy...")."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _scipy_imports(child, f"{scope}.{child.name}".lstrip("."))
            continue
        if isinstance(child, ast.Import):
            modules = [alias.name for alias in child.names]
        elif isinstance(child, ast.ImportFrom):
            modules = [child.module or ""] if child.level == 0 else []
        elif isinstance(child, ast.Call):
            modules = [arg.value for arg in child.args[:1]
                       if isinstance(arg, ast.Constant) and isinstance(arg.value, str)]
        else:
            modules = []
        if any(module.split(".")[0] == "scipy" for module in modules):
            yield scope
        yield from _scipy_imports(child, scope)


def test_src_imports_no_scipy():
    # importing scipy.special costs a fresh process about 0.3 s and 23 MB;
    # numpy is fplab's only runtime dependency
    src = Path(special.__file__).parent
    found = [(path.name, scope) for path in sorted(src.rglob("*.py"))
             for scope in _scipy_imports(ast.parse(path.read_text()))]
    assert found == []
