"""Output checks for one benchmark job.

``check`` sorts every finished job into one of three outcomes:

* certified - exit 0 and the output shows a passing result;
* failed - a documented non-pass: a gate that did not hold (exit 1 with
  a well-formed report) or an uncertifiable input (exit 3 with a JSON
  error object).  These count in ``failed`` but are the program's
  current behaviour, not a wrong answer;
* a problem - output that breaks the CLI contract or a known value: an
  exit code outside {0, 1, 3}, unparsable output, a verdict that
  contradicts the exit code, or extremal roots that miss the frozen
  values.  Any problem makes the whole run incorrect.

The parsing here reads only the CLI's documented output formats; it
does not import the package.
"""

from __future__ import annotations

import csv
import io
import json
from decimal import Decimal
from fractions import Fraction
from typing import List, Optional, Tuple

__all__ = ["check", "POSITIVE_ROOTS_HALF"]

# Positive carrier roots at q = 1/2.  The first three are
# POSITIVE_ROOTS_HALF of tests/test_extremal.py; the fourth is this
# program's own 256-bit value, kept as a regression reference.
POSITIVE_ROOTS_HALF = (
    Decimal("0.8790392111498304256062"),
    Decimal("5.19714951138730836842"),
    Decimal("22.18176973082489005385"),
    Decimal("90.0673154950769431246470"),
)
ROOT_TOL = Decimal("1e-18")

_VERIFY_COLUMNS = ["record", "identity", "parameters", "residual", "bound", "passed", "note"]

Outcome = Tuple[bool, Optional[str]]  # (certified, problem)


def _option(argv, name: str) -> Optional[str]:
    prefix = f"--{name}="
    for arg in argv:
        if arg.startswith(prefix):
            return arg[len(prefix):]
    return None


def _table(text: str) -> Tuple[List[str], List[List[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise ValueError("empty CSV output")
    return rows[0], rows[1:]


def _parse(argv, text: str):
    """(columns, rows, extra) from CSV or JSON output."""
    if _option(argv, "format") == "json":
        obj = json.loads(text)
        if obj.get("schema_version") != "1":
            raise ValueError("missing schema_version")
        return obj["columns"], obj["rows"], obj
    columns, rows = _table(text)
    return columns, rows, None


def _verify_verdict(argv, text: str) -> bool:
    columns, rows, extra = _parse(argv, text)
    if columns != _VERIFY_COLUMNS:
        raise ValueError(f"unexpected verify columns {columns}")
    checks = [r for r in rows if r[0] == "check"]
    if not checks:
        raise ValueError("verify output holds no check rows")
    all_passed = all(r[5] == "true" for r in checks)
    if extra is not None and extra["overall_pass"] is not all_passed:
        raise ValueError("overall_pass disagrees with the check rows")
    return all_passed


def _check_roots(argv, rows) -> None:
    bound = Fraction(_option(argv, "bound"))
    expected = [r for r in POSITIVE_ROOTS_HALF if r < bound]
    positives = sorted(Decimal(r[0]) for r in rows if Decimal(r[0]) > 0)
    if len(positives) != len(expected) or len(rows) != 2 * len(expected):
        raise ValueError(f"{len(rows)} roots below bound {bound}, expected {2 * len(expected)}")
    for got, want in zip(positives, expected):
        if abs(got - want) >= ROOT_TOL:
            raise ValueError(f"root {got} differs from frozen {want}")


def _check_pass(kind: str, argv, text: str) -> bool:
    """Parse an exit-0 output; return its verdict or raise ValueError."""
    if argv[0] == "verify":
        if not _verify_verdict(argv, text):
            raise ValueError("exit 0 with a failing verify report")
        if kind == "orthonormality":
            _, rows, _ = _parse(argv, text)
            mass = next(r for r in rows if r[1] == "total-mass")
            roots = int(mass[2].rsplit("roots=", 1)[1])
            bound = Fraction(_option(argv, "bound"))
            want = 2 * sum(1 for r in POSITIVE_ROOTS_HALF if r < bound)
            if roots != want:
                raise ValueError(f"{roots} roots below bound {bound}, expected {want}")
        return True
    _, rows, _ = _parse(argv, text)
    if kind.startswith("extremal"):
        _check_roots(argv, rows)
        return True
    if not rows:
        raise ValueError(f"{argv[0]} printed no rows")
    if kind == "cs":
        fields = {r[0]: r[1] for r in rows}
        return fields["residual_below_bound"] == "true"
    if kind.startswith("table-"):
        if [r[0] for r in rows] != [str(n) for n in range(len(rows))]:
            raise ValueError("table rows are not numbered 0..n_max")
        if int(_option(argv, "n-max")) + 1 != len(rows):
            raise ValueError("table row count differs from --n-max")
        if kind in ("table-spectrum", "table-moments") and rows[0][1] != "1":
            raise ValueError(f"{kind} row 0 is {rows[0][1]}, expected 1")
    return True


def _error_payload(text: str) -> bool:
    try:
        obj = json.loads(text)
    except ValueError:
        return False
    return isinstance(obj, dict) and bool(obj.get("error", {}).get("type"))


def check(kind: str, argv, exit_code: int, text: str) -> Outcome:
    """Classify one finished job; see the module docstring."""
    try:
        if exit_code == 0:
            return _check_pass(kind, argv, text), None
        if exit_code not in (1, 3):
            return False, f"exit code {exit_code}"
        if _error_payload(text):
            return False, None
        if exit_code == 1 and argv[0] == "verify":
            if _verify_verdict(argv, text):
                raise ValueError("exit 1 with a passing verify report")
            return False, None
        raise ValueError(f"exit {exit_code} without a JSON error object")
    except (ValueError, KeyError, IndexError, StopIteration, TypeError) as exc:
        return False, f"{type(exc).__name__}: {exc}"
