"""Module boundaries of the package, checked on its source."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "contacttrack"


def imports(src):
    """(file name, node) for each import statement of a module under src."""
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                yield path.name, node


def private_imports(src):
    """'<file>:<line> <name>' for each leading-underscore name that a
    module under src imports from a module of the package."""
    return [f"{name}:{node.lineno} {a.name}"
            for name, node in imports(src)
            if isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").split(".")[0] == "contacttrack")
            for a in node.names if a.name.startswith("_")]


def foreign_imports(src):
    """'<file>:<line> <module>' for each module that a module under src
    imports from outside the standard library, numpy and the package."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "contacttrack"}
    found = []
    for name, node in imports(src):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        else:
            modules = [] if node.level else [node.module]
        found += [f"{name}:{node.lineno} {m}" for m in modules if m.split(".")[0] not in allowed]
    return found


def text_decoders(src):
    """'<file>:<line> <name>' for each .decode() call and each use of the
    name UnicodeDecodeError in a module under src, outside io._lines, the
    one reader of text lines."""
    found = []
    for path in sorted(src.glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            if path.name == "io.py" and isinstance(top, ast.FunctionDef) and top.name == "_lines":
                continue
            for node in ast.walk(top):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "decode"):
                    found.append(f"{path.name}:{node.lineno} .decode()")
                elif isinstance(node, ast.Name) and node.id == "UnicodeDecodeError":
                    found.append(f"{path.name}:{node.lineno} UnicodeDecodeError")
    return found


def unused_imports(root, dirs):
    """'<path>:<line> <name>' for each name that an import statement of a
    module under root's dirs binds and the module never reads; path is
    relative to root. A name counts as read where it is loaded, alone or
    as the base of an attribute. __future__ imports bind no name."""
    found = []
    for path in sorted(p for d in dirs for p in (root / d).rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found += [f"{path.relative_to(root)}:{node.lineno} {name}"
                          for name in (a.asname or a.name.split(".")[0] for a in node.names)
                          if name not in read]
    return found


def test_no_module_imports_a_private_name_of_another():
    # A leading underscore marks a name its module may change freely; a
    # sibling that imports one couples itself to that module's insides.
    assert private_imports(SRC) == []


def test_package_needs_numpy_only():
    # numpy is the one dependency pyproject.toml declares; scipy,
    # hypothesis and pytest serve the tests alone.
    assert foreign_imports(SRC) == []


def test_only_io_lines_decodes_text():
    # A second decoder of text lines would keep its own rule for a bad
    # byte and its own message.
    assert text_decoders(SRC) == []


def test_text_decoders_flags_a_stray_decode(tmp_path):
    (tmp_path / "io.py").write_text(
        "def _lines(b):\n"
        "    try:\n"
        "        return b.decode('utf-8')\n"
        "    except UnicodeDecodeError:\n"
        "        raise\n"
        "\n"
        "def read(b):\n"
        "    return b.decode()\n")
    (tmp_path / "stray.py").write_text(
        "try:\n"
        "    text = open('f', 'rb').read().decode('utf-8')\n"
        "except UnicodeDecodeError:\n"
        "    text = ''\n")
    assert text_decoders(tmp_path) == [
        "io.py:8 .decode()", "stray.py:2 .decode()", "stray.py:3 UnicodeDecodeError"]


def test_no_import_goes_unread():
    # No linter is part of the test run; an import left behind after its
    # last use would otherwise stay unseen.
    assert unused_imports(ROOT, ["src", "tests", "bench"]) == []


def test_unused_imports_flags_a_name_never_read(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as j\n"
        "from math import pi, tau\n"
        "\n"
        "def f(x):\n"
        "    return os.path.join(x, str(pi))\n")
    assert unused_imports(tmp_path, ["pkg"]) == ["pkg/mod.py:3 j", "pkg/mod.py:4 tau"]
