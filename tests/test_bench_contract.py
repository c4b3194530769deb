"""The benchmark's layer tracer (bench/tracer.py) patches fplab's names from
outside the package.  Installing it here makes a rename or deletion of any
name it needs, or a change of the call shapes its hooks read, fail the test
suite, and checks that removing it restores every attribute it patched."""

import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

from fplab import cli, gaussian, optim, potentials, quadrature, sampler, svgplot

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER = BENCH / "tracer.py"
MODULES = (cli, gaussian, optim, potentials, quadrature, sampler, svgplot)


def load_tracer():
    spec = importlib.util.spec_from_file_location("tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def namespace():
    """Every attribute of fplab's modules and of the classes they define."""
    snap = {}
    for mod in MODULES:
        for name, value in vars(mod).items():
            snap[(mod.__name__, name)] = value
            if inspect.isclass(value) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    snap[(mod.__name__, name, attr)] = member
    return snap


def test_tracer_installs_and_restores(tmp_path):
    tracer = load_tracer().Tracer()
    before = namespace()
    with tracer.installed():
        during = namespace()
        codes = [cli.main([*argv, "--out-dir", str(tmp_path)]) for argv in (
            ("gaussian-rates", "--channel", "ou", "--points", "5"),
            # the concave-well trace under the wrapped potential factory
            ("counterexample", "--t-min", "0.01", "--t-max", "0.1", "--t-points", "2"),
            # the hooks read gap_check's grid and gradient_flow's time grid
            ("gap",),
            ("proxgrad", "--k", "5", "--t-end", "1"),
        )]
    after = namespace()
    assert codes == [cli.EXIT_OK] * 4
    assert any(during[key] is not value for key, value in before.items())
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []


def test_light_certs_load_no_scipy(tmp_path):
    # the light-certs workload's own invocations, in one fresh interpreter
    script = (
        "import contextlib, io, sys\n"
        f"sys.path.insert(0, {str(BENCH)!r})\n"
        "from workloads import WORKLOADS\n"
        "from fplab.cli import main\n"
        "argvs = WORKLOADS['light-certs'].invocations(7)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main([*argv, '--out-dir', {str(tmp_path)!r}]) for argv in argvs]\n"
        "print(sorted({argv[0] for argv in argvs}), set(codes) - {0, 2},\n"
        "      sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "['gap', 'gaussian-rates', 'proxgrad', 'sampler'] set() []"


def test_cli_import_loads_no_statistics():
    # statistics pulls in fractions and decimal, several ms of every setup;
    # only spike_spec needs it, and imports it when called.  fplab.special
    # loads when the closed-form smoothing is first called.  No module of
    # fplab imports scipy, which would cost more than the rest of fplab
    script = (
        "import sys\n"
        "import fplab.cli\n"
        "print(sorted(m for m in ('statistics', 'fractions', 'decimal', 'fplab.special')\n"
        "             if m in sys.modules)\n"
        "      + sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_tracer_times_every_table(tmp_path):
    # the tracer patches write_table and plot_csv where fplab.cli looks them
    # up: a run whose tables bind write_table anywhere else loses spans, and
    # a run draws no plot
    tracer = load_tracer().Tracer()
    argvs = (("gap",), ("proxgrad", "--k", "5", "--t-end", "1"))
    with tracer.installed():
        codes = [cli.main([*argv, "--out-dir", str(tmp_path / argv[0])]) for argv in argvs]
    assert codes == [cli.EXIT_OK] * 2
    names = [span[1] for span in tracer.spans]
    files = [name for argv in argvs for run in os.listdir(tmp_path / argv[0])
             for name in os.listdir(tmp_path / argv[0] / run)]
    assert names.count("cli.write_table") == sum(f.endswith(".csv") for f in files) == 5
    assert names.count("svgplot.plot_csv") == sum(f.endswith(".svg") for f in files) == 0
