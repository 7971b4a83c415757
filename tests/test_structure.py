"""Module boundaries inside the package."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import dvfsflow
from conftest import write_run_dir

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


def _imports(node, name: str) -> bool:
    """Whether ``node`` imports the sibling module ``name`` or a name of it."""
    if not (isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "dvfsflow")):
        return False
    return (node.module or "").split(".")[-1] == name or any(a.name == name for a in node.names)


def _importers(name: str) -> list[str]:
    """The package files that import the sibling module ``name`` or a name of it."""
    return [path.name for path in sorted(PACKAGE.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if _imports(node, name)]


def test_only_the_cli_imports_spread():
    # a run does its own work in one process; only ``dvfsflow run`` forks
    assert _importers("spread") == ["cli.py"]


def test_only_the_cli_imports_files():
    # the CSV files are the CLI's and its report's; no module that ``import dvfsflow``
    # loads needs them.  Four one-call functions import it when called, for the
    # benchmark in perfbench/.
    at_top, in_functions = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        at_top += [path.name for node in tree.body if _imports(node, "files")]
        in_functions += [f"{path.name}: {fn.name}" for fn in tree.body
                         if isinstance(fn, ast.FunctionDef)
                         for node in ast.walk(fn) if _imports(node, "files")]
    assert at_top == ["cli.py", "report.py"]
    assert in_functions == ["flow.py: save_batch_csv", "flow.py: load_batch_csv",
                            "orchestrate.py: runlog_to_csv", "orchestrate.py: runlog_from_csv"]
    assert len(_importers("files")) == len(at_top) + len(in_functions)     # and nowhere else


def test_importing_the_package_and_its_config_loads_neither_files_nor_the_cli():
    # nor ``csv``, which no module of the package uses, not even once the CLI and
    # its report are loaded
    code = ("import sys, dvfsflow, dvfsflow.config; "
            "print(sorted(m for m in sys.modules if m.startswith('dvfsflow') or m == 'csv')); "
            "import dvfsflow.cli, dvfsflow.report; print('csv' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout.splitlines()
    loaded = ast.literal_eval(out[0])
    assert "dvfsflow.config" in loaded
    assert "dvfsflow.files" not in loaded and "dvfsflow.cli" not in loaded
    assert "csv" not in loaded
    assert out[1:] == ["False"]


def test_no_module_imports_csv():
    # the files hold no quoting, so their readers split lines on commas
    found = [path.name for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Import) and any(a.name == "csv" for a in node.names)
             or isinstance(node, ast.ImportFrom) and node.module == "csv"]
    assert found == []


def test_the_cli_reads_and_writes_its_files_through_files():
    from dvfsflow import cli, files, report
    for module, names in ((cli, ("save_batch_csv", "runlog_to_csv", "load_finite_batch",
                                 "write_json")),
                          (report, ("runlog_from_csv", "load_finite_batch", "write_json"))):
        for name in names:
            assert getattr(module, name) is getattr(files, name), (module.__name__, name)


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


def test_report_leaves_numpy_ma_unloaded(tmp_path):
    # np.median loads numpy.ma on its first call; the report's medians go through
    # evalkit.median, which does not
    write_run_dir(tmp_path, [("dfm", 0, 60, 30, 20), ("model_free", 0, 60, 30, None),
                             ("dfm", 1, 60, 30, 20), ("model_free", 1, 60, 30, None)])
    code = ("import sys; from dvfsflow.cli import main; "
            f"assert main(['report', '--run-dir', {str(tmp_path)!r}]) == 0; "
            "print('numpy.ma' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.splitlines() == [f"report written under {tmp_path / 'report'}", "False"]
