"""The package imports only the standard library, numpy and itself, so no
runtime dependency can come back unnoticed."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "speculus"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "speculus"}


def test_absolute_imports_are_stdlib_numpy_or_speculus():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found += [(path.name, a.name) for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found += [(path.name, node.module)]
    assert found
    assert [(f, m) for f, m in found if m.split(".")[0] not in ALLOWED] == []


def test_cli_and_quad_do_not_load_numpy_polynomial():
    """quad carries its Gauss-Legendre nodes as constants, so a CLI process
    never imports numpy.polynomial."""
    code = ("import sys, speculus.cli, speculus.quad; "
            "print('numpy.polynomial' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "False\n"


def test_only_piecewise_groups_points():
    """Point sets own their sign-pattern routing: no module but piecewise
    names ``pattern_groups``, and no function takes groups from a caller."""
    named, params = [], []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if path.name != "piecewise.py" and (
                    isinstance(node, ast.Name) and node.id == "pattern_groups"
                    or isinstance(node, ast.Attribute) and node.attr == "pattern_groups"
                    or isinstance(node, ast.alias) and node.name == "pattern_groups"):
                named.append(path.name)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                params += [(path.name, getattr(node, "name", "<lambda>"))
                           for a in args.posonlyargs + args.args + args.kwonlyargs if a.arg == "groups"]
    assert named == [] and params == []


def test_quad_does_not_import_specular():
    """quad sits below specular: no import of quad names a ``specular``
    module.  The verifiers that needed specular fields live beside the
    tests, in ``paper_checks.py``."""
    names = []
    for node in ast.walk(ast.parse((SRC / "quad.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            names += [node.module or ""] + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names += [a.name for a in node.names]
    assert [n for n in names if "specular" in n.split(".")] == []


def test_residual_is_defined_in_waves():
    """``waves.residual_column`` is the one PDE residual of ``solve`` and
    ``check``: cli.py names none of the operators it is built from."""
    operators = {"wave_operator_fields", "transport_operator", "transport_operator_many"}
    named = [getattr(node, "id", None) or getattr(node, "attr", None) or node.name
             for node in ast.walk(ast.parse((SRC / "cli.py").read_text(encoding="utf-8")))
             if isinstance(node, (ast.Name, ast.Attribute, ast.alias))]
    assert named and operators.isdisjoint(named)
