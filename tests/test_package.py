"""The package API is the union of its modules' ``__all__`` lists, and
every module reads each name it imports."""

from __future__ import annotations

import ast
import importlib
from collections import Counter
from pathlib import Path

import qhermite2

MODULES = (
    "context",
    "errors",
    "exact",
    "qkernel",
    "qhermite",
    "qoscillator",
    "qcalculus",
    "coherent",
    "qmeasure",
    "extremal",
    "discrepancies",
)


def test_all_is_version_plus_module_lists():
    names = ["__version__"]
    for name in MODULES:
        names += importlib.import_module(f"qhermite2.{name}").__all__
    assert qhermite2.__all__ == names
    assert len(set(names)) == len(names)


def test_every_name_is_the_module_object():
    for name in MODULES:
        module = importlib.import_module(f"qhermite2.{name}")
        for attr in module.__all__:
            assert getattr(qhermite2, attr) is getattr(module, attr), (name, attr)


def test_names_added_to_the_package():
    # Exported by their modules before, missing from the package list.
    for attr in ("ENV_PRECISION", "as_dicts", "mat_mul", "mat_scale", "mat_sub"):
        assert attr in qhermite2.__all__


def test_every_import_is_used():
    # A name a module imports and never reads, outside its __all__.
    src = Path(qhermite2.__file__).parent
    unused = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    if alias.name != "*":
                        imported[alias.asname or alias.name] = node.lineno
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                read |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in read]
    assert unused == []


def _reads(node) -> list:
    """Names node reads: Name loads and attribute names."""
    return [
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) or isinstance(n, ast.Attribute)
    ]


def test_every_private_definition_is_read():
    # A top-level private function, class or constant that nothing in the
    # package reads outside its own definition.
    src = Path(qhermite2.__file__).parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(src.glob("*.py"))}
    reads = Counter(name for tree in trees.values() for name in _reads(tree))
    unread = []
    for file, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            own = Counter(_reads(node))
            unread += [
                f"{file}:{node.lineno} {name}"
                for name in names
                if name.startswith("_") and not name.startswith("__") and reads[name] <= own[name]
            ]
    assert unread == []


# Public names that nothing reachable from the CLI reads, each kept for a
# stated reason.
RESERVED = {
    "qfactorial_exact": "test reference",
    "rho_factorial_exact": "test reference",
    "rho_factorial": "test reference",
    "build_hamiltonian": "test reference",
    "lambda_exact": "test reference",
    "first_kind_eval": "ROADMAP item 4",
    "second_kind_eval": "ROADMAP item 4",
    "bracket_double_factorial": "ROADMAP item 4",
    "formal_series_partial": "ROADMAP item 11",
    "weight_W": "ROADMAP item 21",
    "hat_q_integral": "the hat-lattice sum for any callable integrand",
    "spectrum": "kept public face",
}


def _reachable(trees, roots) -> set:
    """Top-level names of the package that running it can reach: a
    function, class or constant counts once a reachable piece of code
    reads it (a Name load or an attribute name, as :func:`_reads` counts
    them), starting from the module-level statements other than
    definitions and imports and from the definitions of ``roots``.
    Reads by code nothing reaches do not count."""
    defined, work = {}, []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            else:
                work.append(node)
                continue
            for name in names:
                defined.setdefault(name, []).append(node)
    reached = set(roots)
    work += [node for name in reached for node in defined.get(name, ())]
    while work:
        for name in _reads(work.pop()):
            if name in defined and name not in reached:
                reached.add(name)
                work += defined[name]
    return reached


def test_every_public_name_is_reachable():
    # A public name that only unreachable code reads (a chain that only
    # looks used) is dead code; a reserved name is kept for its reason.
    src = Path(qhermite2.__file__).parent
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(src.glob("*.py"))]
    reached = _reachable(trees, {"main", *RESERVED})
    unreached = [
        f"{name}.{attr}"
        for name in MODULES + ("cli",)
        for attr in importlib.import_module(f"qhermite2.{name}").__all__
        if attr not in reached
    ]
    assert unreached == []
    # Each reservation is needed: cli.main alone reaches none of them.
    assert set(RESERVED) <= set(qhermite2.__all__) - _reachable(trees, {"main"})


def test_no_module_uses_a_retired_mpmath_routine():
    # Powers of q, complex quotients and moduli are the exact results
    # rounded once (qhermite2._pairs, qhermite2.qkernel); these mpmath
    # routines truncate intermediates or round twice, and the copies of
    # them are gone, so no module imports or reads them.
    retired = {"mpf_pow_int", "mpc_div", "mpc_abs", "mpc_mpf_div"}
    src = Path(qhermite2.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names if name in retired]
    assert found == []


def test_no_module_raises_a_working_precision():
    # No module calls an mpmath context's workprec: every rounded value
    # is formed at the precision of the call, so a value a caller holds
    # never comes from a context whose precision the package changed.
    src = Path(qhermite2.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "workprec":
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []
