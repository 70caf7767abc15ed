"""The package API is the union of its modules' ``__all__`` lists."""

from __future__ import annotations

import importlib

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
