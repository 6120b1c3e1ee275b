"""src/hanst holds only code that hanst, scripts/ or perfbench/ can reach.

A module-level function or class that no code there names is called by the
tests alone; such reference code lives under tests/ (see oracles.py).
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hanst"


def program_files():
    for directory in (PACKAGE, ROOT / "scripts", ROOT / "perfbench"):
        for path in sorted(directory.rglob("*.py")):
            if "tests" not in path.relative_to(directory).parts:
                yield path


def test_every_module_level_definition_is_named_elsewhere():
    defined = []
    named = set()
    for path in program_files():
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        if PACKAGE in path.parents:
            defined.extend((path.relative_to(ROOT).as_posix(), node.name) for node in tree.body
                           if isinstance(node, (ast.FunctionDef, ast.ClassDef)))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name.rpartition(".")[2])
    assert [f"{path}: {name}" for path, name in defined if name not in named] == []
