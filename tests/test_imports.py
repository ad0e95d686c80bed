"""The package imports only the standard library, numpy and itself, so no
runtime dependency can come back unnoticed."""

import ast
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
