"""The runtime of facetor imports only the standard library and itself,
and the tests use every package their extra installs."""

import ast
import pathlib
import re
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "facetor"


def absolute_imports(path):
    """(line, top-level module name) of every absolute import in a file;
    relative imports stay inside the package."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_runtime_imports_only_the_standard_library():
    files = sorted(SRC.glob("*.py"))
    assert len(files) > 5
    stray = ["%s:%d imports %s" % (path.name, line, name)
             for path in files for line, name in absolute_imports(path)
             if name != "facetor" and name not in sys.stdlib_module_names]
    assert stray == []


def test_every_test_dependency_is_imported_by_a_test():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with open(ROOT / "pyproject.toml", "rb") as fh:
        extra = tomllib.load(fh)["project"]["optional-dependencies"]["test"]
    wanted = {re.match(r"[\w.-]+", req).group().lower().replace("-", "_")
              for req in extra}
    imported = {name for path in (ROOT / "tests").glob("*.py")
                for _, name in absolute_imports(path)}
    assert wanted and sorted(wanted - imported) == []
