"""README's references into the package name what the package holds."""

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = ("cli", "gaussian", "potentials", "quadrature", "sampler", "optim", "svgplot")
# `fplab.<module>.<name>` or `<module>.<name>`, with any attribute chain after
_REFERENCE = re.compile(r"`(?:fplab\.)?(" + "|".join(MODULES) + r")((?:\.[A-Za-z_]\w*)+)")


def test_readme_references_resolve():
    refs = _REFERENCE.findall(README.read_text())
    assert len(refs) >= 20  # a pattern that matched nothing would pass vacuously
    missing = []
    for module, chain in refs:
        obj = importlib.import_module(f"fplab.{module}")
        for name in chain[1:].split("."):
            obj = getattr(obj, name, None)
        if obj is None:
            missing.append(module + chain)
    assert missing == []
