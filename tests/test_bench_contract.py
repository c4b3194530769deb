"""The benchmark's layer tracer (bench/tracer.py) patches fplab's names from
outside the package.  Installing it here makes a rename or deletion of any
name it needs fail the test suite, and checks that removing it restores
every attribute it patched."""

import importlib.util
import inspect
from pathlib import Path

from fplab import cli, gaussian, optim, potentials, quadrature, sampler, svgplot

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
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
        codes = [cli.main([*argv, "--no-plot", "--out-dir", str(tmp_path)]) for argv in (
            ("gaussian-rates", "--channel", "ou", "--points", "5"),
            # the concave-well trace under the wrapped potential factory and row pool
            ("counterexample", "--t-min", "0.01", "--t-max", "0.1", "--t-points", "2"),
        )]
    after = namespace()
    assert codes == [cli.EXIT_OK, cli.EXIT_OK]
    assert any(during[key] is not value for key, value in before.items())
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
