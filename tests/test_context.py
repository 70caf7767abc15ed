"""PrecisionContext: validation, and the free list of mpmath contexts.

A collected context hands its mpmath context to the free list, and the
next context takes it.  These tests pin the rules that make the reuse
invisible: two live contexts never share an mpmath context, a reused one
comes back at the new owner's precision, and a refused construction
takes nothing from the list.
"""

from __future__ import annotations

import threading
from fractions import Fraction

import pytest
from mpmath import mpf
from mpmath.libmp import from_rational

from qhermite2 import context, suites
from qhermite2.coherent import cs_eigen_residual
from qhermite2.context import PrecisionContext, as_fraction
from qhermite2.errors import DomainError
from qhermite2.qhermite import hermite2_eval_direct

_BITS = 128


def test_live_contexts_hold_different_mp():
    a = PrecisionContext(q=Fraction(1, 2), precision_bits=_BITS)
    b = PrecisionContext(q=Fraction(1, 2), precision_bits=_BITS)
    assert a == b
    assert a.mp is not b.mp


@pytest.mark.parametrize("bits", [_BITS, 64, 512])
def test_dropped_context_hands_its_mp_to_the_next(bits):
    a = PrecisionContext(q=Fraction(1, 3), precision_bits=_BITS)
    mp = a.mp
    mp.prec = 999  # the old owner changes its precision by hand
    del a
    b = PrecisionContext(q=Fraction(2, 5), precision_bits=bits)
    assert b.mp is mp
    assert b.mp.prec == bits
    assert b.mpf(Fraction(1, 3))._mpf_ == from_rational(1, 3, bits, "n")


def test_live_values_do_not_move_under_another_contexts_workprec():
    a = PrecisionContext(q=Fraction(1, 3), precision_bits=_BITS)
    b = PrecisionContext(q=Fraction(1, 3), precision_bits=_BITS)

    def values():
        x = a.mpf(Fraction(-7, 5))
        return [(x / 3)._mpf_, hermite2_eval_direct(5, x, a)._mpc_, a.qm._mpf_]

    before = values()
    with b.mp.workprec(4 * _BITS):
        hermite2_eval_direct(5, b.mpf(Fraction(-7, 5)), b)
        assert a.mp.prec == _BITS
        assert values() == before
    assert values() == before


@pytest.mark.parametrize(
    "value",
    [float("nan"), float("inf"), float("-inf"), mpf("nan"), mpf("inf"), mpf("-inf")],
    ids=repr,
)
def test_non_finite_value_refused_before_taking_a_context(value):
    spare = PrecisionContext(q=Fraction(1, 2), precision_bits=_BITS).mp
    idle = context._IDLE
    assert idle[-1] is spare
    with pytest.raises(DomainError, match="as a rational"):
        as_fraction(value)
    with pytest.raises(DomainError, match="as a rational"):
        PrecisionContext(q=value, precision_bits=_BITS)
    assert idle[-1] is spare


def _jobs(q: Fraction, held: list) -> list:
    """The raw bits of a cs job, a qdiff job and a recurrence job (which
    computes inside ``mp.workprec``), each on its own context; each
    context is appended to ``held``, which keeps it alive."""
    out = []
    cs = PrecisionContext(q=q, precision_bits=_BITS)
    res = cs_eigen_residual(cs.mpf(Fraction(3, 4)) + cs.mp.mpc(0, 1) / 5, 30, cs)
    out.append([v._mpf_ for v in (res.state.norm_sq, res.residual, res.bound, res.noise_floor)])
    qdiff = PrecisionContext(q=q, precision_bits=_BITS)
    out.append([tuple(c) for c in suites.qdiff(qdiff)])
    recurrence = PrecisionContext(q=q, precision_bits=_BITS)
    out.append([(c.residual._mpf_, c.passed) for c in suites.recurrence(recurrence, n_max=4)])
    held.extend((cs, qdiff, recurrence))
    return out


def test_threads_never_share_an_mp_and_reproduce_one_thread():
    qs = [Fraction(1, 3), Fraction(2, 5), Fraction(5, 8), Fraction(7, 9)]
    expected = [_jobs(q, []) for q in qs]
    results = [None] * len(qs)
    held = [[] for _ in qs]
    errors = []
    done = threading.Barrier(len(qs))

    def worker(k: int) -> None:
        try:
            for _ in range(2):
                PrecisionContext(q=qs[k], precision_bits=_BITS)  # taken and handed back
                results[k] = _jobs(qs[k], held[k])
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)
        done.wait()  # every context stays alive until all threads are done

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(len(qs))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    assert results == expected
    live = [ctx.mp for contexts in held for ctx in contexts]
    assert len(live) == 6 * len(qs)
    assert len({id(mp) for mp in live}) == len(live)
