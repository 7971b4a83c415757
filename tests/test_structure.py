"""Module boundaries inside the package."""

import ast
from pathlib import Path

import dvfsflow

PACKAGE = Path(dvfsflow.__file__).parent


def test_no_module_imports_a_private_name_of_a_sibling():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "dvfsflow"):
                found += [f"{path.name}: {alias.name}" for alias in node.names
                          if alias.name.startswith("_")]
    assert found == []
