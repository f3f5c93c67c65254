"""Pure-Python numerical computing toolkit.

Dense linear algebra, decompositions, reverse-mode autodiff, root finding,
interpolation, quadrature, FFT-based spectral tools, optimizers, ODE/PDE
integrators, and small learning demos, with a deterministic CLI on top.
The core has no third-party dependencies.
"""

import importlib

from . import (
    autodiff,
    dynamics,
    errors,
    interp,
    lindecomp,
    microlearn,
    ndcore,
    optimize,
    quadrature,
    roots,
    spectral,
)

__all__ = [
    "autodiff",
    "dynamics",
    "errors",
    "interp",
    "lindecomp",
    "microlearn",
    "ndcore",
    "numcli",
    "optimize",
    "quadrature",
    "roots",
    "spectral",
]


def __getattr__(name):
    # numcli loads on first access (PEP 562): were it imported with the
    # package, `python -m desknum.numcli` would find it already in
    # sys.modules and warn before running it a second time
    if name == "numcli":
        return importlib.import_module(".numcli", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
