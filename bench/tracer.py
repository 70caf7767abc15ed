"""Per-layer tracing installed from outside the package.

``Tracer.install`` wraps every plain function named in the ``__all__``
of each layer module, plus ``cli.main`` and the construction of a
``PrecisionContext`` (``PrecisionContext.__post_init__``, the fixed
per-job cost of the context layer).  Modules import these functions by
name (``from .qkernel import b_coeff``), so every module attribute of
the package that refers to a wrapped function is rebound to its
wrapper; ``uninstall`` puts every original back.

Each wrapper adds to running totals (calls, inclusive and self time,
errors) instead of recording one span per call, because the hot leaves
run hundreds of thousands of times per job.  Self time is inclusive
time minus the inclusive time of wrapped calls made inside it.  Spans
(name, start, end, parent) are kept only for each job and the wrapped
calls it makes directly, the boundaries between the CLI and the layers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from fractions import Fraction
from typing import Callable, Dict, List, Tuple

__all__ = ["LAYERS", "Tracer"]

LAYERS = (
    "cli",
    "context",
    "exact",
    "qkernel",
    "qhermite",
    "qoscillator",
    "qcalculus",
    "coherent",
    "qmeasure",
    "extremal",
)

# Wrapped calls whose size is recorded per call, for comparing per-call
# costs with the per-call baselines in ROADMAP.md: name -> size label
# made from the first argument.
_SIZED = {
    "qhermite.psi_sequence": lambda first: f"nmax={first}",
    "qoscillator.mat_mul": lambda first: f"dim={first.dim}",
    "qoscillator.verify_algebra": lambda first: f"dim={first}",
    "qhermite.hermite2_eval_direct": lambda first: f"n={first}",
    "qmeasure.lattice_weight": lambda first: f"K={first}",
    "qmeasure.unity_check": lambda first: f"n_max={first}",
    "qkernel.gen_exponential": lambda first: "",
    "coherent.cs_eigen_residual": lambda first: "",
}


class Stat:
    """Running totals for one wrapped function."""

    __slots__ = ("calls", "incl", "self", "errors", "active", "extra")

    def __init__(self) -> None:
        self.calls = 0
        self.incl = 0.0
        self.self = 0.0
        self.errors = 0
        self.active = 0
        self.extra: Dict[str, float] = {}

    def add(self, key: str, amount: float) -> None:
        self.extra[key] = self.extra.get(key, 0) + amount


def _is_plain_function(obj) -> bool:
    return inspect.isfunction(obj) or hasattr(obj, "cache_info")


class Tracer:
    """Installs and removes the wrappers and holds what they record."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self.stats: Dict[str, Stat] = {}
        self.sized: Dict[Tuple[str, str, int, bool], List[float]] = {}
        self.spans: List[dict] = []
        self.job = -1
        self._stack: List[float] = []
        self._rebound: List[Tuple[object, str, object]] = []
        self._b_coeff = None
        self._cache_start: Tuple[int, int] = (0, 0)

    # -- install / uninstall ---------------------------------------------

    def install(self) -> None:
        originals: Dict[int, Tuple[str, Callable]] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"qhermite2.{layer}")
            names = list(getattr(module, "__all__", ()))
            if layer == "cli":
                names.append("main")
            for name in names:
                obj = getattr(module, name)
                if _is_plain_function(obj) and id(obj) not in originals:
                    owner = obj.__module__.rsplit(".", 1)[-1]
                    if owner in LAYERS:
                        originals[id(obj)] = (f"{owner}.{name}", obj)
        wrappers = {ident: self._wrap(key, fn) for ident, (key, fn) in originals.items()}
        for modname, module in list(sys.modules.items()):
            if modname != "qhermite2" and not modname.startswith("qhermite2."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and originals[id(value)][1] is value:
                    self._rebound.append((module, attr, value))
                    setattr(module, attr, wrapper)
        context_cls = importlib.import_module("qhermite2.context").PrecisionContext
        post_init = context_cls.__dict__["__post_init__"]
        self._rebound.append((context_cls, "__post_init__", post_init))
        setattr(context_cls, "__post_init__", self._wrap("context.PrecisionContext", post_init))
        self._b_coeff = next(
            (fn for key, fn in originals.values() if key == "qkernel.b_coeff"), None
        )
        self._cache_start = self._cache_counts()

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._rebound):
            setattr(owner, attr, value)
        self._rebound.clear()

    def _cache_counts(self) -> Tuple[int, int]:
        info = getattr(self._b_coeff, "cache_info", None)
        if info is None:
            return (0, 0)
        current = info()
        return current.hits, current.misses

    def b_coeff_hit_ratio(self) -> float:
        """Share of b_coeff calls answered by its cache since install."""
        hits, misses = self._cache_counts()
        hits -= self._cache_start[0]
        misses -= self._cache_start[1]
        return hits / (hits + misses) if hits + misses else 0.0

    # -- recording -------------------------------------------------------

    def start_job(self, job_index: int) -> None:
        self.job = job_index

    def _wrap(self, key: str, fn: Callable) -> Callable:
        stat = self.stats.setdefault(key, Stat())
        stack = self._stack  # child time of each open wrapped call
        clock = self._clock
        spans = self.spans
        tracer = self
        post = self._post_hook(key, fn, stat)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            depth = len(stack)
            stack.append(0.0)
            stat.active += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise
            finally:
                elapsed = clock() - start
                stat.active -= 1
                stat.calls += 1
                stat.incl += elapsed
                stat.self += elapsed - stack.pop()
                if depth:
                    stack[-1] += elapsed
                if depth <= 1:
                    spans.append({"job": tracer.job, "name": key, "depth": depth,
                                  "start": start, "end": start + elapsed})
            if post is not None:
                post(args, kwargs, result, elapsed)
            return result

        return wrapper

    def _post_hook(self, key: str, fn: Callable, stat: Stat):
        """Work after a successful call: sizes and derived counts."""
        sized = _SIZED.get(key)
        extra = self._extra_hook(key)
        if sized is None and extra is None:
            return None
        params = list(inspect.signature(fn).parameters)
        first_name = params[0] if params else None

        def post(args, kwargs, result, elapsed):
            first = args[0] if args else kwargs.get(first_name)
            if sized is not None:
                label = (key, sized(first), *_context_of(args, kwargs))
                self.sized.setdefault(label, []).append(elapsed)
            if extra is not None:
                extra(stat, first, result)

        return post

    def _extra_hook(self, key: str):
        if key == "qhermite.psi_sequence":
            def psi(stat, first, result):
                stat.add("steps", first)
                roots_stat = self.stats.get("extremal.carrier_roots")
                if roots_stat is not None and roots_stat.active:
                    roots_stat.add("evals", 1)
            return psi
        if key == "qoscillator.mat_mul":
            return lambda stat, first, result: stat.add("madds", first.dim ** 3)
        if key == "extremal.carrier_roots":
            return lambda stat, first, result: stat.add("roots", len(result) // 2)
        return None


def _context_of(args, kwargs) -> Tuple[int, bool]:
    """(precision bits, whether q = 1/2) of the call's PrecisionContext."""
    for arg in (*args, *kwargs.values()):
        bits = getattr(arg, "precision_bits", None)
        if isinstance(bits, int):
            return bits, arg.q == Fraction(1, 2)
    return 0, False
