"""Batch command-line front end.

Subcommands
-----------
poly     tabulate monic and orthonormal polynomial values
verify   run a suite from ``qhermite2.suites``, exit 0 iff it passes
table    tabulate spectra, recurrence coefficients, or closed-form moments
measure  export lattice or extremal measures (supports and masses)
cs       coherent-state diagnostics for one z

Every subcommand takes ``--q``, ``--precision-bits``, ``--format`` and
``--out``; ``--tol`` is a ``verify`` option.  ``verify`` passes a suite
only the options it reads and refuses ``--tol`` or ``--n-max`` for a
suite that does not read it.  A default the parser shares with the
library is read from the library's constant (``suites.OPERATOR_DIM``,
``qcalculus.HAT_DEPTH``, ...), so each is declared once.

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
bugs.  ``verify`` renders the suite's ``Check`` records and exits on
their verdict; the suites themselves compute and gate.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Dict, List, Optional, Sequence, Tuple

from .coherent import CS_TRUNC, cs_eigen_residual
from .context import PrecisionContext, as_fraction
from .discrepancies import REGISTRY, as_dicts
from .errors import (
    AlgebraViolation,
    DegenerateRootError,
    DomainError,
    InstabilityError,
    NoConvergenceError,
    TruncationError,
)
from . import suites
from .exact import GaussianRational, _oscillator_rows, moment_In_exact
from .extremal import carrier_roots, loadings
from .qcalculus import HAT_DEPTH
from .qhermite import hermite2_coeffs, psi_eval
from .qkernel import b_table
from .qmeasure import TAIL_INDEX, build_measure

__all__ = ["main", "SUITES", "SCHEMA_VERSION"]

SCHEMA_VERSION = "1"
_EXIT_PASS = 0
_EXIT_FAIL = 1
_EXIT_USAGE = 2
_EXIT_NUMERIC = 3
_EXIT_INTERNAL = 4

_VERIFY_COLUMNS = ("record",) + suites.Check._fields


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
        obj["discrepancy_ledger"] = list(as_dicts())
    return json.dumps(obj, indent=2) + "\n"


def _csv_cell(cell: str) -> str:
    if "," in cell or '"' in cell or "\n" in cell:
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
    try:
        x_frac = as_fraction(ns.x)
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"could not parse --x value {ns.x!r}")
    columns = ("n", "x")
    row = [str(ns.n), ns.x]
    if ns.kind != "psi":
        columns += ("h_tilde",)
        row.append(_fmt(ctx, hermite2_coeffs(ns.n, ctx)(x_frac)))
    if ns.kind != "h":
        columns += ("psi",)
        row.append(_fmt(ctx, psi_eval(ns.n, ctx.mpf(x_frac), ctx)))
    return CommandOutput("poly", columns, [row], {}, _EXIT_PASS)


def _cmd_table(ns, ctx: PrecisionContext) -> CommandOutput:
    if ns.n_max < 0:
        raise DomainError(f"--n-max must be >= 0, got {ns.n_max}")
    rows: List[List[str]] = []
    if ns.what == "spectrum":
        columns = ("n", "lambda_n")
        levels = islice(_oscillator_rows(ctx.q), ns.n_max + 1)
        for n, (_, _, _, level) in enumerate(levels):
            rows.append([str(n), _fmt(ctx, Fraction(*level))])
    elif ns.what == "bn":
        columns = ("n", "b_n")
        for n, b in enumerate(b_table(ns.n_max + 1, ctx)[: ns.n_max + 1]):
            rows.append([str(n), _fmt(ctx, b)])
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
    res = cs_eigen_residual(z, ns.trunc, ctx)
    columns = ("field", "value")
    rows = [
        ["z_re", ns.z_re],
        ["z_im", ns.z_im],
        ["trunc", str(ns.trunc)],
        ["norm_sq", _fmt(ctx, res.state.norm_sq)],
        ["tail_bound", _fmt(ctx, res.state.tail_bound)],
        ["residual", _fmt(ctx, res.residual)],
        ["bound", _fmt(ctx, res.bound)],
        ["noise_floor", _fmt(ctx, res.noise_floor)],
        ["residual_below_bound", _fmt(ctx, res.residual <= res.bound)],
    ]
    return CommandOutput("cs", columns, rows, {}, _EXIT_PASS)


# --------------------------------------------------------------------------
# Verification suites
# --------------------------------------------------------------------------


# Suite name -> (suite, the verify options it reads); an option left
# unset keeps the suite's own default.  --tol and --n-max have no parser
# default, so one set for a suite that does not read it is refused.
_SUITES = {
    "recurrence": (suites.recurrence, ("n_max", "tol")),
    "qcalculus": (suites.qcalculus, ()),
    "commutators": (suites.commutators, ("dim",)),
    "generating": (suites.generating, ("x", "order")),
    "qdiff": (suites.qdiff, ("n_max",)),
    "moments": (suites.moments, ("tol", "n_max", "k_depth", "tail")),
    "unity": (suites.unity, ("tol", "n_max", "k_depth", "tail")),
    "orthonormality": (suites.orthonormality, ("tol", "bound")),
}
SUITES = tuple(_SUITES)


def _suite_inputs(ns, options) -> Dict[str, object]:
    """Keyword inputs for a suite: the options set, rationals parsed."""
    for key in ("tol", "n_max"):
        if getattr(ns, key) is not None and key not in options:
            raise DomainError(f"suite {ns.suite} does not read --{key.replace('_', '-')}")
    inputs: Dict[str, object] = {}
    for key in options:
        value = getattr(ns, key)
        if value is None:
            continue
        if key == "tol":
            try:
                value = as_fraction(value)
            except (ValueError, ZeroDivisionError):
                raise DomainError(f"could not parse --tol value {ns.tol!r}")
            if value <= 0:
                raise DomainError(f"--tol must be > 0, got {ns.tol}")
        elif key in ("x", "bound"):
            value = as_fraction(value)
        inputs[key] = value
    return inputs


def _cmd_verify(ns, ctx: PrecisionContext) -> CommandOutput:
    suite, options = _SUITES[ns.suite]
    checks = suite(ctx, **_suite_inputs(ns, options))
    ok = suites.passed(checks)
    rows = [
        [check.kind]
        + [c if isinstance(c, str) else "" if c is None else _fmt(ctx, c) for c in check]
        for check in checks
    ]
    extra = {
        "suite": ns.suite,
        "overall_pass": ok,
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
    sp.add_argument(
        "--format", choices=("csv", "json"), default="csv", dest="fmt"
    )
    sp.add_argument("--out", default=None, help="output path (default stdout)")


# Built on the first ``main`` call, not at import, and reused by later
# calls in the same process: building it costs about as much as a short
# job, and parse_args keeps no state between calls.
@functools.cache
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
    verify.add_argument("--tol", default=None, help="override gate tolerance")
    verify.add_argument("--n-max", type=int, default=None, dest="n_max")
    verify.add_argument("--dim", type=int, default=suites.OPERATOR_DIM)
    verify.add_argument("--order", type=int, default=suites.GENFN_ORDER)
    verify.add_argument("--x", default=suites.GENFN_X)
    verify.add_argument("--k-depth", type=int, default=HAT_DEPTH, dest="k_depth")
    verify.add_argument("--tail", type=int, default=TAIL_INDEX)
    verify.add_argument("--bound", default=suites.SEARCH_BOUND)

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
    measure.add_argument("--k-depth", type=int, default=HAT_DEPTH, dest="k_depth")
    measure.add_argument("--tail", type=int, default=TAIL_INDEX)
    measure.add_argument(
        "--variable", choices=("y", "x", "z-radial"), default="y"
    )
    measure.add_argument("--bound", default=suites.SEARCH_BOUND)

    cs = sub.add_parser("cs", help="coherent-state diagnostics")
    _add_common(cs)
    cs.add_argument("--z-re", default="1/2", dest="z_re")
    cs.add_argument("--z-im", default="0", dest="z_im")
    cs.add_argument("--trunc", type=int, default=CS_TRUNC)
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
    try:
        ns = _build_parser().parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
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
