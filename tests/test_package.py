"""The package's public names are its modules' public names."""

import fplab
from fplab import gaussian, optim, potentials, quadrature, sampler

MODULES = (gaussian, potentials, quadrature, sampler, optim)


def test_exports_the_union_of_the_modules_names():
    union = [name for mod in MODULES for name in mod.__all__]
    assert len(set(union)) == len(union)  # no module's name shadows another's
    assert sorted(fplab.__all__) == sorted(union)
    for mod in MODULES:
        for name in mod.__all__:
            assert getattr(fplab, name) is getattr(mod, name), name
