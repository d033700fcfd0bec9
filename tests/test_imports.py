"""Every module-level import of the orbitlab package is used.

No linter ships with the project, so this keeps deletions from leaving
dead imports behind: each name a module imports at top level must be
read somewhere in that module.
"""

import ast
import pathlib

import pytest

import orbitlab

PACKAGE = pathlib.Path(orbitlab.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source):
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detector_flags_an_unused_name():
    source = "import math\nfrom os import path, sep\n\nprint(path)\n"
    assert unused_imports(source) == [(1, "math"), (2, "sep")]
