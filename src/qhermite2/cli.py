"""Batch command-line front end.

Subcommands
-----------
poly     tabulate monic and orthonormal polynomial values
verify   run a named verification suite, exit 0 iff it passes
table    tabulate spectra, recurrence coefficients, or closed-form moments
measure  export lattice or extremal measures (supports and masses)
cs       coherent-state diagnostics for one z

Conventions
-----------
Exit codes: 0 pass, 1 verification failure, 2 usage error (a
``DomainError``, which every input check raises; an ``--out`` path that
cannot be written also prints a JSON error object to stdout), 3 numeric
or convergence failure (with a JSON error object), 4 internal error (any
other exception, a bare ``ValueError`` included: traceback on stderr,
JSON error object).
CSV output is comma-separated with a fixed header row and LF line
endings; JSON output is a single top-level object carrying
``schema_version``.
All numerics are printed as decimal strings that parse back to the same
value at the same working precision.  Identical invocations produce
byte-identical output.  Verification reports embed the discrepancy
registry so known formula defects are never mistaken for implementation
bugs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .coherent import cs_coeffs, cs_eigen_residual
from .context import PrecisionContext, as_fraction
from .discrepancies import REGISTRY
from .errors import (
    AlgebraViolation,
    DegenerateRootError,
    DomainError,
    FormalSeriesError,
    InstabilityError,
    NoConvergenceError,
    TruncationError,
)
from .exact import (
    GaussianRational,
    Poly,
    bn_squared_exact,
    lambda_exact,
    moment_In_exact,
)
from .extremal import carrier_roots, loadings, orthonormality_gram
from .qcalculus import (
    deformed_derivative,
    ibp_residual,
    jackson_integral_poly,
    leibniz_residual,
    q_derivative_poly,
)
from .qhermite import (
    WEIGHT_HYPOTHESES,
    generating_fn_report,
    hermite2_coeffs,
    hermite2_eval_direct,
    psi_eval,
    qdiff_equation_check,
)
from .qkernel import b_coeff, gen_exponential
from .qmeasure import build_measure, lattice_weight, moment_In, unity_check
from .qoscillator import verify_algebra

__all__ = ["main", "SUITES", "SCHEMA_VERSION"]

SCHEMA_VERSION = "1"
SUITES = (
    "recurrence",
    "qcalculus",
    "commutators",
    "generating",
    "qdiff",
    "moments",
    "unity",
    "orthonormality",
)
_EXIT_PASS = 0
_EXIT_FAIL = 1
_EXIT_USAGE = 2
_EXIT_NUMERIC = 3
_EXIT_INTERNAL = 4

_VERIFY_COLUMNS = (
    "record",
    "identity",
    "parameters",
    "residual",
    "bound",
    "passed",
    "note",
)


# --------------------------------------------------------------------------
# Formatting
# --------------------------------------------------------------------------


def _fraction_str(fr: Fraction, ctx: PrecisionContext) -> str:
    """Exact decimal string when terminating, working-precision otherwise."""
    den = fr.denominator
    shift2 = 0
    while den % 2 == 0:
        den //= 2
        shift2 += 1
    shift5 = 0
    while den % 5 == 0:
        den //= 5
        shift5 += 1
    if den != 1:
        return ctx.nstr(ctx.mpf(fr), ctx.decimal_digits)
    shift = max(shift2, shift5)
    scaled = abs(int(fr * 10**shift))
    sign = "-" if fr < 0 else ""
    if shift == 0:
        return f"{sign}{scaled}"
    digits = str(scaled).rjust(shift + 1, "0")
    return f"{sign}{digits[:-shift]}.{digits[-shift:]}"


def _fmt(ctx: PrecisionContext, value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        return _fraction_str(value, ctx)
    if isinstance(value, GaussianRational):
        if value.im == 0:
            return _fraction_str(value.re, ctx)
        re_s = _fraction_str(value.re, ctx)
        im_s = _fraction_str(value.im, ctx)
        sign = "+" if value.im >= 0 else ""
        return f"{re_s}{sign}{im_s}i"
    if hasattr(value, "imag") and getattr(value, "imag", 0) != 0:
        re = ctx.nstr(value.real, ctx.decimal_digits)
        im = ctx.nstr(value.imag, ctx.decimal_digits)
        return f"{re}{'+' if value.imag >= 0 else ''}{im}i"
    if hasattr(value, "real") and not isinstance(value, float):
        value = value.real
    return ctx.nstr(ctx.mpf(value), ctx.decimal_digits)


def _flag(value: bool) -> str:
    return "true" if value else "false"


# --------------------------------------------------------------------------
# Output assembly
# --------------------------------------------------------------------------


@dataclass
class CommandOutput:
    command: str
    columns: Tuple[str, ...]
    rows: List[List[str]]
    extra: "Dict[str, object]"
    exit_code: int
    include_ledger: bool = False


def _ledger_rows() -> List[List[str]]:
    rows = []
    for e in REGISTRY:
        rows.append(
            ["ledger", e.identifier, e.topic, "", "", "", e.resolved]
        )
    return rows


def _ledger_json() -> List[Dict[str, str]]:
    return [
        {
            "identifier": e.identifier,
            "topic": e.topic,
            "rejected": e.rejected,
            "resolved": e.resolved,
            "evidence": e.evidence,
        }
        for e in REGISTRY
    ]


def _render(out: CommandOutput, ns: argparse.Namespace) -> str:
    if ns.fmt == "csv":
        lines = [",".join(out.columns)]
        rows = list(out.rows)
        if out.include_ledger:
            rows += _ledger_rows()
        for row in rows:
            lines.append(",".join(_csv_cell(c) for c in row))
        return "\n".join(lines) + "\n"
    obj: Dict[str, object] = {
        "schema_version": SCHEMA_VERSION,
        "command": out.command,
        "config": _config_echo(ns),
        "columns": list(out.columns),
        "rows": [list(r) for r in out.rows],
    }
    obj.update(out.extra)
    if out.include_ledger:
        obj["discrepancy_ledger"] = _ledger_json()
    return json.dumps(obj, indent=2) + "\n"


def _csv_cell(cell: str) -> str:
    if any(c in cell for c in (",", '"', "\n")):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _config_echo(ns: argparse.Namespace) -> Dict[str, str]:
    echo = {
        "q": ns.q,
        "precision_bits": str(ns.precision_bits),
        "format": ns.fmt,
    }
    for key in (
        "tol",
        "suite",
        "n",
        "x",
        "kind",
        "n_max",
        "dim",
        "order",
        "what",
        "mtype",
        "variable",
        "k_depth",
        "tail",
        "bound",
        "z_re",
        "z_im",
        "trunc",
    ):
        if hasattr(ns, key) and getattr(ns, key) is not None:
            echo[key.replace("_", "-")] = str(getattr(ns, key))
    return echo


def _emit(ns, text: str, code: int) -> int:
    """Write ``text`` to ``--out`` (else stdout) and return ``code``.

    An ``--out`` path that cannot be written is a usage error: exit 2,
    with the JSON error object on stdout instead.
    """
    out_path = getattr(ns, "out", None)
    if out_path is None:
        sys.stdout.write(text)
        return code
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        sys.stderr.write(f"usage error: cannot write --out: {exc}\n")
        sys.stdout.write(_error_payload(ns, exc))
        return _EXIT_USAGE
    return code


def _error_payload(ns, exc: Exception) -> str:
    obj = {
        "schema_version": SCHEMA_VERSION,
        "command": getattr(ns, "command", ""),
        "error": {
            "type": type(exc).__name__,
            "message": str(exc),
        },
    }
    return json.dumps(obj, indent=2) + "\n"


# --------------------------------------------------------------------------
# Commands
# --------------------------------------------------------------------------


def _cmd_poly(ns, ctx: PrecisionContext) -> CommandOutput:
    if ns.n < 0:
        raise DomainError(f"--n must be >= 0, got {ns.n}")
    x_frac: Optional[Fraction]
    try:
        x_frac = as_fraction(ns.x)
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"could not parse --x value {ns.x!r}")
    poly = hermite2_coeffs(ns.n, ctx)
    h_exact = poly(x_frac)
    h_str = _fmt(ctx, h_exact)
    psi_str = _fmt(ctx, psi_eval(ns.n, ctx.mpf(x_frac), ctx))
    if ns.kind == "h":
        columns = ("n", "x", "h_tilde")
        row = [str(ns.n), ns.x, h_str]
    elif ns.kind == "psi":
        columns = ("n", "x", "psi")
        row = [str(ns.n), ns.x, psi_str]
    else:
        columns = ("n", "x", "h_tilde", "psi")
        row = [str(ns.n), ns.x, h_str, psi_str]
    return CommandOutput("poly", columns, [row], {}, _EXIT_PASS)


def _cmd_table(ns, ctx: PrecisionContext) -> CommandOutput:
    if ns.n_max < 0:
        raise DomainError(f"--n-max must be >= 0, got {ns.n_max}")
    rows: List[List[str]] = []
    if ns.what == "spectrum":
        columns = ("n", "lambda_n")
        for n in range(ns.n_max + 1):
            rows.append([str(n), _fmt(ctx, lambda_exact(n, ctx.q))])
    elif ns.what == "bn":
        columns = ("n", "b_n")
        for n in range(ns.n_max + 1):
            rows.append([str(n), _fmt(ctx, b_coeff(n, ctx))])
    else:
        columns = ("n", "I_n")
        for n in range(ns.n_max + 1):
            rows.append([str(n), _fmt(ctx, moment_In_exact(n, ctx.q))])
    return CommandOutput("table", columns, rows, {}, _EXIT_PASS)


def _cmd_measure(ns, ctx: PrecisionContext) -> CommandOutput:
    if ns.mtype == "jackson":
        target = {
            "y": "y-variable",
            "x": "x-variable",
            "z-radial": "z-plane-radial",
        }[ns.variable]
        measure = build_measure(target, ctx, K=ns.k_depth, M=ns.tail)
        columns = ("branch", "exponent", "support", "mass")
        rows = []
        for i, (m, s, w) in enumerate(
            zip(measure.exponents, measure.support, measure.weights)
        ):
            branch = "grow" if i < measure.branch_split else "shrink"
            rows.append([branch, str(m), _fmt(ctx, s), _fmt(ctx, w)])
        extra = {
            "variable": measure.variable,
            "total_mass": _fmt(ctx, measure.total_mass),
            "constants": dict(measure.constants),
        }
        return CommandOutput("measure", columns, rows, extra, _EXIT_PASS)

    bound = as_fraction(ns.bound)
    if bound <= 0:
        raise DomainError(f"--bound must be > 0, got {ns.bound}")
    roots = carrier_roots(bound, ctx)
    points = loadings(roots, ctx)
    columns = ("x", "sigma0", "kernel_mass", "carrier_residual", "terms_used")
    rows = []
    total = ctx.mp.mpf(0)
    for p in points:
        total = total + p.sigma0
        rows.append(
            [
                _fmt(ctx, p.x),
                _fmt(ctx, p.sigma0),
                _fmt(ctx, p.kernel_mass),
                _fmt(ctx, p.carrier_residual),
                str(p.terms_used),
            ]
        )
    extra = {"total_mass": _fmt(ctx, total), "root_count": str(len(points))}
    return CommandOutput("measure", columns, rows, extra, _EXIT_PASS)


def _cmd_cs(ns, ctx: PrecisionContext) -> CommandOutput:
    z = ctx.mpf(as_fraction(ns.z_re)) + ctx.mp.mpc(0, 1) * ctx.mpf(
        as_fraction(ns.z_im)
    )
    if ns.trunc < 4:
        raise DomainError(f"--trunc must be >= 4, got {ns.trunc}")
    state = cs_coeffs(z, ns.trunc, ctx)
    res = cs_eigen_residual(z, ns.trunc, ctx)
    columns = ("field", "value")
    rows = [
        ["z_re", ns.z_re],
        ["z_im", ns.z_im],
        ["trunc", str(ns.trunc)],
        ["norm_sq", _fmt(ctx, state.norm_sq)],
        ["tail_bound", _fmt(ctx, state.tail_bound)],
        ["residual", _fmt(ctx, res.residual)],
        ["bound", _fmt(ctx, res.bound)],
        ["noise_floor", _fmt(ctx, res.noise_floor)],
        ["residual_below_bound", _flag(res.residual <= res.bound)],
    ]
    return CommandOutput("cs", columns, rows, {}, _EXIT_PASS)


# --------------------------------------------------------------------------
# Verification suites
# --------------------------------------------------------------------------


def _check(identity, parameters, residual, bound, passed, note="") -> List[str]:
    return ["check", identity, parameters, residual, bound, _flag(passed), note]


def _diag(identity, parameters, residual, bound, note="") -> List[str]:
    return ["diagnostic", identity, parameters, residual, bound, "", note]


def _tol_or(ns, default: Fraction) -> Fraction:
    if ns.tol is None:
        return default
    try:
        return as_fraction(ns.tol)
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"could not parse --tol value {ns.tol!r}")


def _suite_recurrence(ns, ctx: PrecisionContext):
    n_max = ns.n_max if ns.n_max is not None else 12
    tol = _tol_or(ns, Fraction(1, 10**25))
    tol_mp = ctx.mpf(tol)
    xs = [
        Fraction(0),
        Fraction(1, 2),
        Fraction(-1, 2),
        Fraction(1),
        Fraction(-1),
        Fraction(2),
        Fraction(-2),
    ]
    rows = []
    ok_all = True
    for n in range(n_max + 1):
        poly = hermite2_coeffs(n, ctx)
        worst = ctx.mp.mpf(0)
        for x in xs:
            xv = ctx.mpf(x)
            direct = hermite2_eval_direct(n, xv, ctx)
            via = poly.eval_mp(ctx, xv)
            scale = max(abs(via), ctx.mp.mpf(1))
            worst = max(worst, abs(direct - via) / scale)
        ok = worst <= tol_mp
        ok_all = ok_all and ok
        rows.append(
            _check(
                f"cross-representation n={n}",
                f"q={ns.q}; x in {{0,+-1/2,+-1,+-2}}",
                _fmt(ctx, worst),
                _fmt(ctx, tol),
                ok,
            )
        )
    return rows, ok_all


def _suite_qcalculus(ns, ctx: PrecisionContext):
    tol = _tol_or(ns, Fraction(1, 10**20))
    tol_mp = ctx.mpf(tol)
    rows = []
    ok_all = True

    def gex(t):
        return gen_exponential(t, ctx)

    worst = ctx.mp.mpf(0)
    for x in (
        Fraction(1, 10),
        Fraction(1, 2),
        Fraction(1),
        Fraction(3, 2),
        Fraction(2),
    ):
        xv = ctx.mpf(x)
        lhs = deformed_derivative(gex, xv, ctx)
        ref = gen_exponential(xv, ctx)
        worst = max(worst, abs(lhs - ref) / abs(ref))
    ok = worst <= tol_mp
    ok_all = ok_all and ok
    rows.append(
        _check(
            "deformed-derivative-reproduces-gen-exponential",
            f"q={ns.q}; x in [1/10, 2]",
            _fmt(ctx, worst),
            _fmt(ctx, tol),
            ok,
        )
    )

    u = Poly((1, 0, 1))
    v = Poly((0, -1, 0, 1))
    for variant in ("first", "second"):
        residual = leibniz_residual(u, v, variant, ctx.q)
        ok = residual.is_zero()
        ok_all = ok_all and ok
        rows.append(
            _check(
                f"leibniz-{variant}",
                f"q={ns.q}; u=x^2+1, v=x^3-x",
                "0" if ok else str(residual),
                "exact zero",
                ok,
            )
        )

    for variant in ("ip1", "ip2"):
        residual = ibp_residual(u, v, variant, Fraction(1), ctx)
        ok = residual <= tol_mp
        ok_all = ok_all and ok
        rows.append(
            _check(
                f"integration-by-parts-{variant}",
                f"q={ns.q}; a=1; u=x^2+1, v=x^3-x",
                _fmt(ctx, residual),
                _fmt(ctx, tol),
                ok,
                "boundary at q^-2 a (ledger ibp_boundary_points)",
            )
        )

    qf = float(ctx.q)
    k_inf = max(80, math.ceil(math.log(float(tol)) / math.log(qf)) + 40)

    def u_dec(t):
        return 1 / (1 + t * t) ** 3

    def v_dec(t):
        return t / (1 + t * t) ** 2

    residual = ibp_residual(u_dec, v_dec, "ip3", None, ctx, K=k_inf)
    ok = residual <= tol_mp
    ok_all = ok_all and ok
    rows.append(
        _check(
            "integration-by-parts-ip3",
            f"q={ns.q}; K={k_inf}; decaying rational pair",
            _fmt(ctx, residual),
            _fmt(ctx, tol),
            ok,
            "left side carries Jacobian q (ledger ibp_infinite_jacobian)",
        )
    )

    p = Poly((1, 2, 3, 0, 5))
    x0 = Fraction(3, 2)
    recovered = jackson_integral_poly(q_derivative_poly(p, ctx.q), x0, ctx.q)
    target = p(x0) - p(Fraction(0))
    ok = (recovered - target).is_zero()
    ok_all = ok_all and ok
    rows.append(
        _check(
            "jackson-endpoint-recovery",
            f"q={ns.q}; p=5x^4+3x^2+2x+1; x=3/2",
            "0" if ok else _fmt(ctx, recovered - target),
            "exact zero",
            ok,
        )
    )
    return rows, ok_all


def _suite_commutators(ns, ctx: PrecisionContext):
    rows = []
    ok_all = True
    try:
        report = verify_algebra(ns.dim, ctx)
        for name in sorted(report.max_residuals):
            residual = report.max_residuals[name]
            bound = (
                report.ulp_bound * report.scales[name] * ctx.eps
            )
            ok = residual <= bound
            ok_all = ok_all and ok
            rows.append(
                _check(
                    name,
                    f"q={ns.q}; dim={ns.dim}; valid_block={report.valid_block}",
                    _fmt(ctx, residual),
                    _fmt(ctx, bound),
                    ok,
                )
            )
    except AlgebraViolation as exc:
        ok_all = False
        rows.append(
            _check(
                "operator-algebra",
                f"q={ns.q}; dim={ns.dim}",
                "violation",
                "4 ulp",
                False,
                str(exc),
            )
        )

    worst_n = -1
    for n in range(0, 9):
        lhs = lambda_exact(n, ctx.q)
        rhs = (ctx.q / (1 - ctx.q)) * (
            bn_squared_exact(n - 1, ctx.q) + bn_squared_exact(n, ctx.q)
        )
        if lhs != rhs:
            worst_n = n
    ok = worst_n < 0
    ok_all = ok_all and ok
    rows.append(
        _check(
            "spectrum-two-paths",
            f"q={ns.q}; n<=8",
            "0" if ok else f"mismatch at n={worst_n}",
            "exact zero",
            ok,
        )
    )
    return rows, ok_all


def _suite_generating(ns, ctx: PrecisionContext):
    x = as_fraction(ns.x)
    order = ns.order
    rep = generating_fn_report(x, ctx.mpf(Fraction(1, 2)), order, ctx)
    rows = []
    resolved_tag = "divided-with-qpower-squared"
    ok_all = rep.matched_hypothesis == resolved_tag
    rows.append(
        _check(
            "resolved-weight-matches-all-orders",
            f"q={ns.q}; x={ns.x}; orders<={order}",
            "0" if ok_all else "mismatch",
            "exact zero per order",
            ok_all,
            f"matched hypothesis: {rep.matched_hypothesis}",
        )
    )
    for tag in WEIGHT_HYPOTHESES:
        residuals = rep.residuals[tag]
        first_bad = next(
            (k for k, r in enumerate(residuals) if not r.is_zero()), None
        )
        if first_bad is None:
            rows.append(
                _diag(
                    f"weight-{tag}",
                    f"x={ns.x}; orders<={order}",
                    "0",
                    "exact zero",
                    "matches every computed order",
                )
            )
        else:
            ratio = rep.ratios[tag][first_bad]
            note = (
                f"first mismatch at order {first_bad}"
                + (f"; printed/closed ratio {ratio}" if ratio is not None else "")
                + "; expected (ledger gf_weight_order1)"
            )
            rows.append(
                _diag(
                    f"weight-{tag}",
                    f"x={ns.x}; orders<={order}",
                    str(rep.residuals[tag][first_bad]),
                    "exact zero",
                    note,
                )
            )
    return rows, ok_all


def _expected_qdiff_n1(ctx: PrecisionContext) -> Poly:
    one_minus_q = 1 - ctx.q
    return Poly(
        (
            GaussianRational(Fraction(0), one_minus_q),
            GaussianRational(Fraction(0), Fraction(0)),
            GaussianRational(Fraction(0), Fraction(1)),
            GaussianRational(one_minus_q, Fraction(0)),
        )
    )


def _suite_qdiff(ns, ctx: PrecisionContext):
    n_max = ns.n_max if ns.n_max is not None else 4
    rows = []
    res0 = qdiff_equation_check(0, ctx)
    ok0 = res0.is_zero()
    rows.append(
        _check(
            "qdiff-residual-n0",
            f"q={ns.q}",
            "0" if ok0 else str(res0),
            "exact zero",
            ok0,
        )
    )
    res1 = qdiff_equation_check(1, ctx)
    expected = _expected_qdiff_n1(ctx)
    ok1 = res1 == expected
    rows.append(
        _check(
            "qdiff-residual-n1-reproduced",
            f"q={ns.q}",
            str(res1),
            str(expected),
            ok1,
            "nonzero residual is the documented defect (ledger qdiff_n1)",
        )
    )
    for n in range(2, n_max + 1):
        res = qdiff_equation_check(n, ctx)
        rows.append(
            _diag(
                f"qdiff-residual-n{n}",
                f"q={ns.q}",
                "0" if res.is_zero() else str(res),
                "",
                "diagnostic listing only",
            )
        )
    return rows, ok0 and ok1


def _suite_moments(ns, ctx: PrecisionContext):
    n_max = ns.n_max if ns.n_max is not None else 8
    tol = _tol_or(ns, Fraction(1, 10**8))
    tol_mp = ctx.mpf(tol)
    K, M = ns.k_depth, ns.tail
    weight = lattice_weight(K + 1, max(M, K + 2), ctx)
    rows = []
    ok_all = True
    lattice_values = []
    for n in range(n_max + 1):
        result = moment_In(n, ctx, K=K, M=M, weight=weight)
        lattice_values.append(result.lattice_value)
        ok = result.rel_deviation <= tol_mp
        ok_all = ok_all and ok
        rows.append(
            _check(
                f"moment-closed-form n={n}",
                f"q={ns.q}; K={K}; M={M}",
                _fmt(ctx, result.rel_deviation),
                _fmt(ctx, tol),
                ok,
                "lattice prefactor 1/q (ledger hat_integral_prefactor)",
            )
        )
    for n in range(1, n_max + 1):
        step = ctx.mpf(bn_squared_exact(n - 1, ctx.q)) * lattice_values[n - 1]
        rel = abs(lattice_values[n] - step) / abs(step)
        ok = rel <= tol_mp
        ok_all = ok_all and ok
        rows.append(
            _check(
                f"moment-telescoping n={n}",
                f"q={ns.q}; K={K}; M={M}",
                _fmt(ctx, rel),
                _fmt(ctx, tol),
                ok,
            )
        )
    return rows, ok_all


def _suite_unity(ns, ctx: PrecisionContext):
    n_max = ns.n_max if ns.n_max is not None else 6
    tol = _tol_or(ns, Fraction(1, 10**6))
    tol_mp = ctx.mpf(tol)
    report = unity_check(n_max, ctx, K=ns.k_depth, M=ns.tail)
    rows = []
    ok_all = True
    for n, g in enumerate(report.diagonal):
        dev = abs(g - 1)
        ok = dev <= tol_mp
        ok_all = ok_all and ok
        rows.append(
            _check(
                f"gram-diagonal n={n}",
                f"q={ns.q}; K={ns.k_depth}; M={ns.tail}",
                _fmt(ctx, dev),
                _fmt(ctx, tol),
                ok,
                "measure prefactor 1/q (ledger measure_prefactor)",
            )
        )
    rows.append(
        _check(
            "gram-off-diagonal",
            f"q={ns.q}; n<={n_max}",
            "0",
            "exact zero",
            True,
            report.off_diagonal,
        )
    )
    return rows, ok_all


def _suite_orthonormality(ns, ctx: PrecisionContext):
    tol = _tol_or(ns, Fraction(1, 10**3))
    tol_mp = ctx.mpf(tol)
    bound = as_fraction(ns.bound)
    roots = carrier_roots(bound, ctx)
    points = loadings(roots, ctx)
    rows = []
    ok_all = True

    _, worst = orthonormality_gram(points, 3, ctx)
    ok = worst <= tol_mp
    ok_all = ok_all and ok
    rows.append(
        _check(
            "extremal-gram-identity",
            f"q={ns.q}; bound={ns.bound}; m,n<=3",
            _fmt(ctx, worst),
            _fmt(ctx, tol),
            ok,
            "loadings vs orthonormality (ledger carrier_variable_scaling)",
        )
    )

    sym_worst = ctx.mp.mpf(0)
    for p, pm in zip(points, reversed(points)):
        sym_worst = max(
            sym_worst, abs(p.sigma0 - pm.sigma0) / max(abs(p.sigma0), ctx.eps)
        )
    ok = sym_worst <= ctx.mpf(Fraction(1, 10**20))
    ok_all = ok_all and ok
    rows.append(
        _check(
            "loading-symmetry",
            f"q={ns.q}; bound={ns.bound}",
            _fmt(ctx, sym_worst),
            "1e-20 relative",
            ok,
        )
    )

    total = ctx.mp.mpf(0)
    for p in points:
        total = total + p.sigma0
    rows.append(
        _diag(
            "total-mass",
            f"q={ns.q}; bound={ns.bound}; roots={len(points)}",
            _fmt(ctx, total),
            "target 1 (diagnostic)",
            "mass outside the search bound is not captured",
        )
    )

    kern_worst = ctx.mp.mpf(0)
    for p in points:
        kern_worst = max(
            kern_worst, abs(p.sigma0 - p.kernel_mass) / abs(p.kernel_mass)
        )
    rows.append(
        _diag(
            "loading-vs-kernel-mass",
            f"q={ns.q}; bound={ns.bound}",
            _fmt(ctx, kern_worst),
            "convention cross-check",
            "exact agreement expected only at b_0 = 1 (q = 1/2)",
        )
    )
    return rows, ok_all


_SUITE_RUNNERS = {
    "recurrence": _suite_recurrence,
    "qcalculus": _suite_qcalculus,
    "commutators": _suite_commutators,
    "generating": _suite_generating,
    "qdiff": _suite_qdiff,
    "moments": _suite_moments,
    "unity": _suite_unity,
    "orthonormality": _suite_orthonormality,
}


def _cmd_verify(ns, ctx: PrecisionContext) -> CommandOutput:
    runner = _SUITE_RUNNERS[ns.suite]
    rows, ok = runner(ns, ctx)
    extra = {
        "suite": ns.suite,
        "overall_pass": bool(ok),
        "diagnostic_class": ns.suite in ("qdiff", "generating"),
    }
    return CommandOutput(
        "verify",
        _VERIFY_COLUMNS,
        rows,
        extra,
        _EXIT_PASS if ok else _EXIT_FAIL,
        include_ledger=True,
    )


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--q", default="1/2", help="deformation parameter in (0,1)")
    sp.add_argument(
        "--precision-bits",
        type=int,
        default=None,
        help="working precision (default: env QH_PRECISION_BITS or 256)",
    )
    sp.add_argument("--tol", default=None, help="override gate tolerance")
    sp.add_argument(
        "--format", choices=("csv", "json"), default="csv", dest="fmt"
    )
    sp.add_argument("--out", default=None, help="output path (default stdout)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qhermite2",
        description=(
            "Tables, verification suites, and measure export for the "
            "q-oscillator of discrete q-Hermite polynomials of type II."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    poly = sub.add_parser("poly", help="tabulate polynomial values")
    _add_common(poly)
    poly.add_argument("--n", type=int, required=True)
    poly.add_argument("--x", required=True)
    poly.add_argument("--kind", choices=("h", "psi", "both"), default="both")

    verify = sub.add_parser("verify", help="run a verification suite")
    _add_common(verify)
    verify.add_argument("--suite", required=True, choices=SUITES)
    verify.add_argument("--n-max", type=int, default=None, dest="n_max")
    verify.add_argument("--dim", type=int, default=16)
    verify.add_argument("--order", type=int, default=10)
    verify.add_argument("--x", default="1/2")
    verify.add_argument("--k-depth", type=int, default=60, dest="k_depth")
    verify.add_argument("--tail", type=int, default=120)
    verify.add_argument("--bound", default="40")

    table = sub.add_parser("table", help="tabulate derived quantities")
    _add_common(table)
    table.add_argument(
        "--what", required=True, choices=("spectrum", "bn", "moments")
    )
    table.add_argument("--n-max", type=int, default=8, dest="n_max")

    measure = sub.add_parser("measure", help="export a discrete measure")
    _add_common(measure)
    measure.add_argument(
        "--type", required=True, choices=("jackson", "extremal"), dest="mtype"
    )
    measure.add_argument("--k-depth", type=int, default=60, dest="k_depth")
    measure.add_argument("--tail", type=int, default=120)
    measure.add_argument(
        "--variable", choices=("y", "x", "z-radial"), default="y"
    )
    measure.add_argument("--bound", default="40")

    cs = sub.add_parser("cs", help="coherent-state diagnostics")
    _add_common(cs)
    cs.add_argument("--z-re", default="1/2", dest="z_re")
    cs.add_argument("--z-im", default="0", dest="z_im")
    cs.add_argument("--trunc", type=int, default=60)
    return parser


# Options whose value is a rational number, which may be negative.
_RATIONAL_OPTIONS = frozenset(("--q", "--tol", "--x", "--bound", "--z-re", "--z-im"))


def _join_negative_values(argv: Sequence[str]) -> List[str]:
    """Write ``--x -13/5`` as ``--x=-13/5`` for the rational options.

    argparse takes a separate value that starts with '-' for an option
    unless it looks like a plain negative number, which -13/5 does not.
    """
    out: List[str] = []
    for arg in argv:
        negative = arg[:1] == "-" and (arg[1:2].isdigit() or arg[1:2] == ".")
        if negative and out and out[-1] in _RATIONAL_OPTIONS:
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else _EXIT_USAGE
        return code if code == 0 else _EXIT_USAGE

    try:
        ctx = PrecisionContext(
            q=as_fraction(ns.q), precision_bits=ns.precision_bits
        )
        ns.precision_bits = ctx.precision_bits
        if ns.command == "poly":
            out = _cmd_poly(ns, ctx)
        elif ns.command == "verify":
            out = _cmd_verify(ns, ctx)
        elif ns.command == "table":
            out = _cmd_table(ns, ctx)
        elif ns.command == "measure":
            out = _cmd_measure(ns, ctx)
        else:
            out = _cmd_cs(ns, ctx)
        text = _render(out, ns)
    except DomainError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return _EXIT_USAGE
    except (
        NoConvergenceError,
        TruncationError,
        InstabilityError,
        FormalSeriesError,
        DegenerateRootError,
    ) as exc:
        return _emit(ns, _error_payload(ns, exc), _EXIT_NUMERIC)
    except AlgebraViolation as exc:
        return _emit(ns, _error_payload(ns, exc), _EXIT_FAIL)
    except Exception as exc:  # a fault of ours must not read as a failed gate
        import traceback  # only this path needs it; keeps it out of start-up

        traceback.print_exc(file=sys.stderr)
        return _emit(ns, _error_payload(ns, exc), _EXIT_INTERNAL)

    return _emit(ns, text, out.exit_code)


if __name__ == "__main__":
    sys.exit(main())
