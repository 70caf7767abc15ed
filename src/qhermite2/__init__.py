"""Verification-grade toolkit for the q-oscillator of discrete
q-Hermite polynomials of type II.

Exact rational/Q(i) polynomial arithmetic wherever an identity is
algebraic, arbitrary-precision floating point (mpmath) wherever it is
analytic, and machine-checkable reports for every identity the package
claims.  The generating function of the htilde_n is checked order by
order in exact arithmetic: its closed form is expanded in tau in one
pass, each factor 1/(1 - i tau q^j) as a running sum and the Euler
product as one polynomial product.  See the discrepancy registry for
formula variants that verification rejected.

The package API is the union of the ``__all__`` lists of its modules,
each declared once, in that module.  A layer module's ``__all__`` is
also the list of functions the benchmark tracer wraps.
"""

from __future__ import annotations

from . import (
    coherent, context, discrepancies, errors, exact, extremal, qcalculus,
    qhermite, qkernel, qmeasure, qoscillator,
)
from .coherent import *  # noqa: F401,F403
from .context import *  # noqa: F401,F403
from .discrepancies import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .exact import *  # noqa: F401,F403
from .extremal import *  # noqa: F401,F403
from .qcalculus import *  # noqa: F401,F403
from .qhermite import *  # noqa: F401,F403
from .qkernel import *  # noqa: F401,F403
from .qmeasure import *  # noqa: F401,F403
from .qoscillator import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (
        context, errors, exact, qkernel, qhermite, qoscillator, qcalculus,
        coherent, qmeasure, extremal, discrepancies,
    )
    for name in module.__all__
]
