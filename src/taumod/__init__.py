"""taumod: exact semilinear algebra over function fields in char p.

Isocrystals over K((z)) with their slope theory, twisted polynomial and
Laurent series rings, scalar semilinear solvers with replayable
certificates, Drinfeld-module reduction criteria, slope-0 Tate functors,
and Weil-action valuations. Run `python -m taumod --help` for the CLI.

Every CLI request is a fresh process, so start-up is a large share of
its cost. `drinfeld`, `semilinear`, `skew`, `tateweil` and `verify`
therefore load on first use: importing the package puts each of them
into `sys.modules` and onto the package through
`importlib.util.LazyLoader`, and a module's body runs on the first
access to one of its attributes. An `isocrystal slopes` or `purity`
request runs none of them, and the `verify` of a purity report runs
`verify` alone. They are registered rather than imported inside the
functions that use them because tools that wrap the library, such as
the layer tracer of the benchmark, find each module in `sys.modules`
right after `import taumod.cli`. `cli`, `verify` and `jsonio` hold these
modules as modules (`drinfeld.m_infinity(...)`) rather than importing
names from them, which would run them."""

import importlib.util
import sys

__version__ = "0.1.0"

from taumod.basefield import FieldDescriptor


def _register_lazy(*names):
    """Put each taumod.<name> into sys.modules and onto the package; its
    body runs on first attribute access (the LazyLoader recipe of the
    Python docs)."""
    for name in names:
        spec = importlib.util.find_spec(f"{__name__}.{name}")
        loader = importlib.util.LazyLoader(spec.loader)
        spec.loader = loader
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module
        loader.exec_module(module)
        globals()[name] = module


_register_lazy("drinfeld", "semilinear", "skew", "tateweil", "verify")

__all__ = ["FieldDescriptor", "__version__"]
