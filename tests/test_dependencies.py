"""The runtime of facetor imports only the standard library and itself."""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "facetor"


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
