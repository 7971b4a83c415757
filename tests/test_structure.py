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


def test_evalkit_imports_only_the_errors_of_the_package():
    # the metrics work on plain arrays, so they need no codec, flow or config
    tree = ast.parse((PACKAGE / "evalkit.py").read_text(encoding="utf-8"))
    found = [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             and (node.level or (node.module or "").split(".")[0] == "dvfsflow")]
    assert found == ["errors"]


def test_only_the_cli_imports_spread():
    # a run does its own work in one process; only ``dvfsflow run`` forks
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "dvfsflow"):
                module = (node.module or "").split(".")[-1]
                if module == "spread" or any(a.name == "spread" for a in node.names):
                    found.append(path.name)
    assert found == ["cli.py"]


def _int_literal(node) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) is int


def test_row_readers_index_columns_only_through_the_codec_groups():
    # x[:, 4] or x[:, :5] restates the row layout that flow's column groups name
    found = []
    for name in ("agent.py", "forest.py", "orchestrate.py"):
        tree = ast.parse((PACKAGE / name).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple):
                for index in node.slice.elts[1:]:
                    bounds = ([index.lower, index.upper, index.step]
                              if isinstance(index, ast.Slice) else [index])
                    if any(_int_literal(b) for b in bounds):
                        found.append(f"{name}:{node.lineno}: {ast.unparse(node)}")
    assert found == []


def test_no_module_imports_a_name_it_never_reads():
    # a name a module imports is read there or re-exported through __all__
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Assign) and isinstance(node.value, ast.List)
                    and any(isinstance(t, ast.Name) and t.id == "__all__"
                            for t in node.targets)):
                read |= {elt.value for elt in node.value.elts}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found += [f"{path.name}: {name}" for name in
                          ((alias.asname or alias.name).split(".")[0] for alias in node.names)
                          if name not in read]
    assert found == []
