"""Registry of formula variants resolved by machine verification.

Several of the identities this package implements circulate in displays
whose scale factors, argument scalings, or signs are mutually
inconsistent.  Every such ambiguity met during implementation was
settled by an exact or high-precision check; this registry records, for
each one, the variant the checks reject, the variant they confirm, and
the measured evidence separating the two.  Verification reports embed
these entries so a documented formula defect is never mistaken for an
implementation bug.

Entries are frozen data; iterate ``REGISTRY``, or ``as_dicts`` for plain
dictionaries.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Tuple

__all__ = ["DiscrepancyEntry", "REGISTRY", "as_dicts"]


@dataclass(frozen=True)
class DiscrepancyEntry:
    """One resolved formula ambiguity.

    ``rejected`` is the variant that fails verification, ``resolved``
    the variant the package implements, ``evidence`` the decisive
    numerical or symbolic observation.
    """

    identifier: str
    topic: str
    rejected: str
    resolved: str
    evidence: str


REGISTRY: Tuple[DiscrepancyEntry, ...] = (
    DiscrepancyEntry(
        identifier="qdiff_n1",
        topic="q-difference equation for the monic polynomials",
        rejected="the displayed equation annihilates every degree",
        resolved=(
            "degree 0 gives residual exactly 0; degree 1 leaves the exact "
            "polynomial residual i*(1-q) + i*x^2 + (1-q)*x^3"
        ),
        evidence=(
            "exact polynomial arithmetic over Q(i); the degree-1 residual "
            "is reproduced coefficient-by-coefficient"
        ),
    ),
    DiscrepancyEntry(
        identifier="gf_weight_order1",
        topic="generating-function weight of the monic polynomials",
        rejected=(
            "series weight 1 (bare sum) and weight q^binom(n,2)/(q;q)_n: "
            "the bare sum fails at order tau^1 by exactly the factor "
            "(1-q); the single-power weight fails at order tau^2 by "
            "exactly q^2"
        ),
        resolved="series weight q^(n(n-1))/(q;q)_n matches every order",
        evidence=(
            "exact order-by-order expansion over Q(i) through order 10: "
            "residuals are identically zero rationals only for the "
            "resolved weight; failing orders and exact ratios recorded in "
            "GenFnReport"
        ),
    ),
    DiscrepancyEntry(
        identifier="hat_integral_prefactor",
        topic="two-sided lattice integral normalization",
        rejected="prefactor (1-q)/q^2 in front of the lattice sum",
        resolved="prefactor 1/q: integral = (1/q) sum_j q^j g(q^j)",
        evidence=(
            "the two-branch index split {q^(1-k)} union {q^(k+2)} "
            "enumerates every integer power exactly once; with 1/q the "
            "fundamental-theorem check on 1/(-x;q)_inf gives exactly -1, "
            "and moment 0 of the weight equals 1 to 1e-11"
        ),
    ),
    DiscrepancyEntry(
        identifier="ibp_boundary_points",
        topic="integration by parts on the finite lattice",
        rejected="boundary term evaluated at the endpoint a",
        resolved="boundary term evaluated at q^(-2) a (and at 0)",
        evidence=(
            "polynomial pairs cancel to working precision only with the "
            "q^(-2) a boundary point; at a the residual is order (1-q)"
        ),
    ),
    DiscrepancyEntry(
        identifier="ibp_infinite_jacobian",
        topic="integration by parts on the two-sided lattice",
        rejected="left side integral of u(x) (Dv)(q x) with unit factor",
        resolved="left side carries the substitution Jacobian q",
        evidence=(
            "monomial pairs: residual vanishes to 1e-25 with the factor "
            "q and is off by exactly 1/q without it"
        ),
    ),
    DiscrepancyEntry(
        identifier="recurrence_missing_x",
        topic="three-term recurrence of the orthonormal family",
        rejected="Psi_n = b_n Psi_{n+1} + b_{n-1} Psi_{n-1} (no x)",
        resolved="x Psi_n = b_n Psi_{n+1} + b_{n-1} Psi_{n-1}",
        evidence=(
            "degree bookkeeping (left side must raise degree by one) and "
            "the n=1 instantiation; cross-representation agreement to "
            "1e-25 uses the x form"
        ),
    ),
    DiscrepancyEntry(
        identifier="normalizer_base",
        topic="coherent-state normalizer argument",
        rejected="N^2(|z|^2) = gex((1-q) |z|^2)",
        resolved="N^2(|z|^2) = gex((1-q)/q * |z|^2)",
        evidence=(
            "rho_n! = (q/(1-q))^n I_n, so the ratio-law coefficients have "
            "unit norm within the cs tail bound only with the /q base; the "
            "z-plane ring masses read N^2 at the same base"
        ),
    ),
    DiscrepancyEntry(
        identifier="cs_phase_argument",
        topic="coherent-state closed form series argument",
        rejected="confluent series argument -i q",
        resolved=(
            "argument -i tau with tau = z sqrt(q (1-q)); closed form "
            "(i tau; q)_inf * phi_11(i x; i tau; q, -i tau) / N"
        ),
        evidence=(
            "when the closed form was last evaluated, a direct Fock sum "
            "matched the resolved reading to 1e-30 across z, x samples; "
            "the -i q reading does not depend on z and cannot; the cs "
            "command now gates the ratio-law vector, not the closed form"
        ),
    ),
    DiscrepancyEntry(
        identifier="lattice_weight_scheme",
        topic="evaluation scheme for the lattice weight recursion",
        rejected=(
            "backward recursion seeded g_M = g_{M+1} = 1 at the decaying "
            "tail"
        ),
        resolved=(
            "deep seed on the dominated side, upward sweep, tail "
            "normalization (minimal-solution evaluation)"
        ),
        evidence=(
            "the backward scheme collapses in two steps (g_{M-1} = 0, "
            "g_{M-2} < 0); the weight is the theta_3 member "
            "f(q^n) = (q;q)_inf / theta_3 sum_{i >= ceil(-n/2)} "
            "q^(i^2) / (q;q)_(n+2i), seeded at the window's two lowest "
            "points and run upward, and every window value equals that "
            "series rounded once at 96 (q, precision, depth) test points"
        ),
    ),
    DiscrepancyEntry(
        identifier="measure_prefactor",
        topic="point masses of the lattice orthogonality measure",
        rejected="mass (1-q)/q^2 * y * f(q^(-2) y) at y = q^m",
        resolved="mass q^(m-1) f(q^(m-2)) at y = q^m (prefactor 1/q)",
        evidence=(
            "moment 0 equals 1 and all moments reproduce "
            "q^(-n^2) (q;q)_n only with the 1/q prefactor; the rejected "
            "form is off by exactly (1-q)/q"
        ),
    ),
    DiscrepancyEntry(
        identifier="eigen_residual_rounding_floor",
        topic="coherent-state eigenvector residual evaluation",
        rejected=(
            "matrix-apply residual norm as the certified quantity"
        ),
        resolved=(
            "cancellation-free analytic residual |z| |c_trunc| (a^- "
            "telescopes all interior terms exactly)"
        ),
        evidence=(
            "the matrix path plateaus at the rounding floor "
            "~2^(-precision) * scale and cannot certify bounds below it; "
            "the analytic path reaches the truncation bound < 1e-30 at "
            "256 bits"
        ),
    ),
    DiscrepancyEntry(
        identifier="second_kind_scaling",
        topic="second-kind polynomial closed-form normalization",
        rejected=(
            "closed-form beta coefficients evaluated at the same "
            "argument as the recurrence"
        ),
        resolved=(
            "closed form lives in the rescaled argument x / b_0; "
            "recurrence S_n(x) equals the closed form at x / b_0 for "
            "all q"
        ),
        evidence=(
            "symbolic check: S_2(x) = x/b_1 vs closed form x/sqrt([2]!) "
            "= x b_0 / b_1; they coincide exactly at b_0 = 1 (q = 1/2) "
            "and differ by b_0 powers otherwise"
        ),
    ),
    DiscrepancyEntry(
        identifier="carrier_variable_scaling",
        topic="carrier series variable convention",
        rejected=(
            "mixing original-argument Psi series with scaled-argument "
            "coefficient polynomials for arbitrary q"
        ),
        resolved=(
            "carrier and loading series evaluated in one convention "
            "(original argument, S_1 = 1 normalization); at b_0 = 1 this "
            "is the Nevanlinna construction and loadings equal the "
            "kernel masses 1/sum_n Psi_n(x_k)^2"
        ),
        evidence=(
            "at q = 1/2: loadings match kernel masses to ~1e-13 and the "
            "carrier-mass total is 1 - 8e-14; the kernel mass is "
            "computed alongside every loading as a convention-free "
            "cross-check"
        ),
    ),
    DiscrepancyEntry(
        identifier="bracket_arithmetic",
        topic="scaled bracket values at q = 1/2",
        rejected="[4] = 240 and hence [2]+[3]+[4] = 246",
        resolved="[4] = q^(-7)(1 - q^4)/(q^(-1)(1 - q)) = 120; sum 154",
        evidence=(
            "direct evaluation of [s] = b_{s-1}^2/b_0^2 by two exact "
            "routes (ratio of b's and q^(-2(s-1))[s]_q) agree on 120"
        ),
    ),
    DiscrepancyEntry(
        identifier="nested_sum_empty_window",
        topic="first-kind coefficient edge conventions",
        rejected="a single surviving term for the (m=1, n=1) coefficient",
        resolved=(
            "empty outer summation windows give 0; the first single-term "
            "case is (m=1, n=2) with value [1] = 1"
        ),
        evidence="window bounds 2m-1..n-1 are empty for n = 1, m = 1",
    ),
    DiscrepancyEntry(
        identifier="reference_value_digits",
        topic="quoted value of gen_exponential(1) at q = 1/2",
        rejected="2.1726668...",
        resolved="2.172668750849663656... (digit transposition)",
        evidence=(
            "350-bit series evaluation with interval cross-check; the "
            "series is alternating-free and monotone so the partial sums "
            "bracket the limit"
        ),
    ),
)

def as_dicts() -> Tuple[Dict[str, str], ...]:
    """All entries as plain dictionaries (stable order, for reports)."""
    names = [f.name for f in fields(DiscrepancyEntry)]
    return tuple({name: getattr(e, name) for name in names} for e in REGISTRY)
