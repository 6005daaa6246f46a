"""The package's export list matches what the package defines."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

import steerkit as sk
from helpers import python_env


def test_all_names_resolve_once():
    assert len(sk.__all__) == len(set(sk.__all__))
    missing = [name for name in sk.__all__ if not hasattr(sk, name)]
    assert missing == []


def test_star_import_binds_every_listed_name():
    assert set(sk.__all__) <= set(dir(sk))
    namespace = {}
    exec("from steerkit import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(sk.__all__)
    assert len(sk.__all__) == 42


def test_every_export_has_a_caller_outside_tests():
    # An export that only the tests reach is a route the package need not ship.
    root = Path(__file__).resolve().parents[1]
    loaded = set()
    for path in (root / "src" / "steerkit").glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    outside = "\n".join(path.read_text() for folder in ("scripts", "perfbench")
                        for path in (root / folder).rglob("*.py"))
    uncalled = [name for name in sk.__all__
                if name not in loaded and not re.search(rf"\b{name}\b", outside)]
    assert uncalled == []


def test_each_export_is_its_module_binding():
    exports = {name: getattr(sk, name) for name in sk.__all__}
    differ = [name for name, value in exports.items()
              if vars(sys.modules[value.__module__]).get(name) is not value]
    assert differ == []


def test_lazy_export_follows_a_patched_module(monkeypatch):
    # Tracers and fault tests patch the defining module; the package name
    # must reach the patch, not a copy taken at first access. One name per
    # module; ``svd3`` alone is bound eagerly.
    for module, name in [("criteria", "ladder"), ("families", "werner"),
                         ("states", "pauli_expansion"), ("oracle", "model_state_overlap"),
                         ("sphere", "sphere_grid"), ("svd3", "SchmidtForm")]:
        getattr(sk, name)
        patched = object()
        # By the module object: the dotted path "steerkit.svd3" names the function.
        monkeypatch.setattr(sys.modules[f"steerkit.{module}"], name, patched)
        assert getattr(sk, name) is patched, name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        sk.no_such_name


LAZY_IMPORT = """
import sys, steerkit

def loaded():
    return sorted(m for m in sys.modules if m.startswith("steerkit."))

before = loaded()
from steerkit import oracle, sphere
print(before, {"steerkit.oracle", "steerkit.sphere"} <= set(loaded()),
      steerkit.sphere_grid is sphere.sphere_grid, steerkit.oracle is oracle)
"""


def test_package_import_defers_oracle_and_sphere():
    # Every export but ``svd3`` loads on first access, so the import loads
    # no other submodule; importing two of them binds them as usual.
    proc = subprocess.run([sys.executable, "-c", LAZY_IMPORT], capture_output=True,
                          text=True, env=python_env(), check=True)
    assert proc.stdout.strip() == "['steerkit.svd3'] True True True"


SVD3_AFTER_SUBMODULES = """
import sys
import steerkit.svd3, steerkit.states
print(steerkit.svd3 is sys.modules["steerkit.svd3"].svd3)
"""


def test_svd3_stays_the_function_after_its_module_is_imported():
    proc = subprocess.run([sys.executable, "-c", SVD3_AFTER_SUBMODULES], capture_output=True,
                          text=True, env=python_env(), check=True)
    assert proc.stdout.strip() == "True"
