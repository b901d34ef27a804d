"""Module boundaries of the package, checked on its source."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "contacttrack"


def private_imports(src):
    """'<file>:<line> <name>' for each leading-underscore name that a
    module under src imports from a module of the package."""
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "contacttrack"):
                found += [f"{path.name}:{node.lineno} {a.name}"
                          for a in node.names if a.name.startswith("_")]
    return found


def test_no_module_imports_a_private_name_of_another():
    # A leading underscore marks a name its module may change freely; a
    # sibling that imports one couples itself to that module's insides.
    assert private_imports(SRC) == []
