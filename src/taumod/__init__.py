"""taumod: exact semilinear algebra over function fields in char p.

Isocrystals over K((z)) with their slope theory, twisted polynomial and
Laurent series rings, scalar semilinear solvers with replayable
certificates, Drinfeld-module reduction criteria, slope-0 Tate functors,
and Weil-action valuations. Run `python -m taumod --help` for the CLI.

Every CLI request is a fresh process, so start-up and exit are a large
share of its cost. At exit the interpreter's finalization clears every
module and frees every object the request left alive, a median 7.4 ms
of CPU per request, much of it for the modules the interpreter loads
before any of taumod's; `taumod.cli.run` skips it by ending the process
with `os._exit` (its docstring has the measurements and the cases that
keep the interpreter's exit). With no bytecode cached most of start-up
is compiling source. Each module that some requests never run
therefore loads on first use: importing the package puts it into
`sys.modules` and onto the package through `importlib.util.LazyLoader`,
and its body runs on the first access to one of its attributes. These
modules, and the requests that run them:

  * `commands`: the handlers of `analyze`, `solve` and `corpus`;
  * `drinfeld`: Drinfeld modules, for `analyze`, `weil` and their
    replays;
  * `elimination`: F_p row reduction, for the extension sweeps of
    `tate` and `weil`, for `solve` and for their replays;
  * `embedding`: the canonical embeddings between finite fields, for
    the requests that change field (`tate` and `weil`);
  * `localfield`: the local fields F_{q^m}((zeta)), for a request over
    a local base;
  * `rings`: ring-tower membership, for `solve` and the good models of
    `analyze`;
  * `semilinear`: the scalar and fixed-point solvers, for `solve` and
    `tate`;
  * `skew`: twisted polynomials and Laurent series in tau^-1, for
    `weil` and `tate`;
  * `tateweil`: slope-zero Tate spaces and Weil valuations;
  * `verify`: the certificate replays.

`corpusgen`, which only `corpus --generate` runs, is imported there.

So an `isocrystal slopes` or `purity` request over a finite base runs
none of them, and the `verify` of a purity report runs `verify` alone.
They are registered rather than imported inside the functions that use
them because tools that wrap the library, such as the layer tracer of
the benchmark, find each module in `sys.modules` right after
`import taumod.cli`. The modules hold these modules as modules
(`drinfeld.m_infinity(...)`) rather than importing names from them,
which would run them, and they are registered before `basefield` is
imported, which holds two of them.
"""

import importlib.util
import sys

__version__ = "0.1.0"


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


_register_lazy("commands", "drinfeld", "elimination", "embedding", "localfield", "rings",
               "semilinear", "skew", "tateweil", "verify")

from taumod.basefield import FieldDescriptor  # noqa: E402

__all__ = ["FieldDescriptor", "__version__"]
