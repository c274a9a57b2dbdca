"""The names the benchmark's tracer pins on the program.

``perfbench/tracer.py`` wraps every function in its ``WRAPPED`` table,
plus ``simulate.apply_op`` and ``cli.main``, and maps op classes of
``schedule`` to op kinds, all by name; a traced run fails to install once
any of them is gone.  The tracer is read, never installed:
``Tracer.install`` patches the qwalk modules process-wide.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("qwalk_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _install_names():
    """Every (module, name) that ``Tracer.install`` reads as an attribute
    of a qwalk module it binds to a local, as in
    ``sched = self.modules["schedule"]`` and then ``sched.OraclePhase``."""
    tree = ast.parse(TRACER.read_text())
    install = next(node for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef) and node.name == "install")
    local = {}
    for node in ast.walk(install):
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Subscript)
                and ast.unparse(node.value.value) == "self.modules"):
            local[node.targets[0].id] = ast.literal_eval(node.value.slice)
    return sorted({(local[node.value.id], node.attr) for node in ast.walk(install)
                   if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                   and node.value.id in local})


PINNED = sorted({(m, f) for m, f, _ in _tracer_module().WRAPPED} | set(_install_names()))


def test_install_reads_the_op_kinds_apply_op_and_main():
    names = _install_names()
    assert ("simulate", "apply_op") in names and ("cli", "main") in names
    assert ("schedule", "OraclePhase") in names


@pytest.mark.parametrize(("module", "name"), PINNED, ids=[f"{m}.{f}" for m, f in PINNED])
def test_pinned_name_resolves(module, name):
    assert hasattr(importlib.import_module(f"qwalk.{module}"), name)
