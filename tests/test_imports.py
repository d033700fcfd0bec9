"""Every module-level import, private helper and constant of the
orbitlab package is used.

No linter ships with the project, so this keeps deletions from leaving
dead code behind: each name a module imports at top level must be read
somewhere in that module, and each private module-level function or
class, each private method, and each module-level UPPER_CASE constant
(a tolerance, say) must be read by some module of the package, and
each exception class of errors.py by some other module. Reads are
matched by name, so each private name is defined once in the package.
Each public module-level function or class must be reached from the
package's own top-level code, the benchmark or the acceptance
criteria, save a short list of test oracles and paper quantities.
The half-length formula, the inverse hyperbolic functions, is read in
hypdisc alone. In tests/, each module-level function or class that is
not a test, a Test class or a fixture must be read by some test module,
so that a retired test leaves no helper behind.
"""

import ast
import importlib.util
import os
import pathlib
import re
import subprocess
import sys

import pytest

import orbitlab

PACKAGE = pathlib.Path(orbitlab.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
REPO = pathlib.Path(__file__).resolve().parents[1]


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


def private_definitions(source):
    """(line, name) of the private module-level functions and classes of
    a module and the private methods of its classes; dunders are not
    private."""
    def private(node):
        return (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name.startswith("_") and not node.name.endswith("__"))
    found = []
    for node in ast.parse(source).body:
        if private(node):
            found.append((node.lineno, node.name))
        if isinstance(node, ast.ClassDef):
            found += [(item.lineno, item.name) for item in node.body if private(item)]
    return found


def constant_definitions(source):
    """(line, name) of the module-level UPPER_CASE names a module
    assigns."""
    return [(node.lineno, target.id) for node in ast.parse(source).body
            if isinstance(node, ast.Assign) for target in node.targets
            if isinstance(target, ast.Name)
            and re.fullmatch(r"[A-Z][A-Z0-9_]*", target.id)]


def read_names(source):
    """Names a module reads, bare or as an attribute."""
    return names_read_by(ast.parse(source))


def names_read_by(tree):
    """Names a syntax tree reads, bare or as an attribute."""
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)})


def unread_names(sources, definitions):
    """(module, line, name) of each name that definitions finds in the
    given module sources, a name-to-text dict, and none of them reads."""
    read = set().union(*(read_names(text) for text in sources.values()))
    return sorted((module, line, name) for module, text in sources.items()
                  for line, name in definitions(text) if name not in read)


def test_no_unread_private_helpers():
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    assert unread_names(sources, private_definitions) == []


def test_detector_flags_an_unread_private_helper():
    sources = {
        "a.py": "def _used():\n    pass\n\n\ndef _dead():\n    pass\n",
        "b.py": ("from a import _used\n\n\nclass _Box:\n"
                 "    def _spare(self):\n        pass\n\n"
                 "    def __len__(self):\n        return 0\n\n\n"
                 "print(_used(), _Box)\n"),
    }
    assert unread_names(sources, private_definitions) == [
        ("a.py", 5, "_dead"), ("b.py", 5, "_spare")]


TESTS = sorted((REPO / "tests").glob("*.py"))


def helper_definitions(source):
    """(line, name) of the module-level functions and classes of a test
    module that pytest neither collects nor injects: no test, Test class
    or fixture."""
    def fixture(node):
        return any("fixture" in names_read_by(d) for d in node.decorator_list)
    return [(node.lineno, node.name) for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith(("test", "Test")) and not fixture(node)]


def test_no_unread_test_helpers():
    sources = {p.name: p.read_text(encoding="utf-8") for p in TESTS}
    assert len(sources) > 10
    assert unread_names(sources, helper_definitions) == []


def test_detector_flags_an_unread_test_helper():
    sources = {
        "tools.py": "def used():\n    pass\n\n\ndef orphan():\n    pass\n",
        "test_a.py": ("import pytest\nfrom tools import used\n\n\n"
                      "@pytest.fixture\ndef rows():\n    return []\n\n\n"
                      "class TestBox:\n    def test_b(self, rows):\n        used()\n\n\n"
                      "def spare():\n    return 0\n\n\n"
                      "def test_c():\n    pass\n"),
    }
    assert unread_names(sources, helper_definitions) == [
        ("test_a.py", 15, "spare"), ("tools.py", 5, "orphan")]


def duplicate_private_names(sources):
    """(name, [(module, line), ...]) of each private function, class or
    method name that sources, a name-to-text dict, define more than once.
    unread_names finds names by name alone, so a second definition would
    pass for read whenever the first is."""
    where = {}
    for module, text in sorted(sources.items()):
        for line, name in private_definitions(text):
            where.setdefault(name, []).append((module, line))
    return sorted((name, found) for name, found in where.items() if len(found) > 1)


def test_private_names_are_defined_once():
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    assert duplicate_private_names(sources) == []


def test_detector_flags_a_twice_defined_private_name():
    sources = {
        "a.py": ("class Box:\n    def _wrap(self):\n        pass\n\n\n"
                 "def _once():\n    pass\n"),
        "b.py": ("class Crate:\n    def _wrap(self):\n        pass\n\n\n"
                 "Crate()._wrap()\n"),
    }
    assert unread_names(sources, private_definitions) == [("a.py", 6, "_once")]
    assert duplicate_private_names(sources) == [
        ("_wrap", [("a.py", 2), ("b.py", 2)])]


def test_no_unread_constants():
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    assert unread_names(sources, constant_definitions) == []


def test_detector_flags_an_unread_constant():
    sources = {
        "a.py": "LIMIT = 3\nSPARE_TOL = 1e-8\nlower = 1\n_X = 2\n",
        "b.py": "from a import LIMIT\n\nprint(LIMIT)\n",
    }
    assert unread_names(sources, constant_definitions) == [("a.py", 2, "SPARE_TOL")]


def unread_error_classes(sources):
    """(line, name) of the classes errors.py defines that no other module
    of sources, a name-to-text dict, reads: raises, catches or
    subclasses."""
    read = set().union(*(read_names(text) for module, text in sources.items()
                         if module != "errors.py"))
    return [(node.lineno, node.name) for node in ast.parse(sources["errors.py"]).body
            if isinstance(node, ast.ClassDef) and node.name not in read]


def test_no_unread_error_classes():
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    assert unread_error_classes(sources) == []


def test_detector_flags_an_unread_error_class():
    sources = {
        "errors.py": ("class BaseError(Exception):\n    pass\n\n\n"
                      "class Raised(BaseError):\n    pass\n\n\n"
                      "class Spare(BaseError):\n    pass\n"),
        "a.py": ("import errors\nfrom errors import Raised\n\n\n"
                 "class Local(errors.BaseError):\n    pass\n\n\n"
                 "raise Raised()\n"),
    }
    assert unread_error_classes(sources) == [(9, "Spare")]


def top_level_names(source):
    """Names a module binds at its top level: functions, classes,
    assigned names and imports."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {a.asname or a.name.split(".")[0] for a in node.names}
    return names


def stale_references(sources):
    """(module, line, reference) of each module.name that the text of
    sources, a name-to-text dict, mentions, in code, a docstring or a
    comment, where module is one of sources and binds no such name at
    its top level: a reference a rename or a deletion left behind."""
    bound = {module[:-3]: top_level_names(text) for module, text in sources.items()}
    mention = re.compile(r"(?<![\w.])(%s)\.(\w+)" % "|".join(sorted(bound)))
    return [(module, line, "%s.%s" % (target, name))
            for module, text in sorted(sources.items())
            for line, row in enumerate(text.splitlines(), 1)
            for target, name in mention.findall(row)
            if name not in bound[target]]


def test_no_stale_module_references():
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    assert stale_references(sources) == []


def test_detector_flags_a_stale_reference():
    sources = {
        "a.py": "import math\n\nLIMIT = 3\n\n\ndef walk():\n    pass\n",
        "b.py": ('"""Reads a.walk and a.LIMIT, once a._gone too."""\n\n'
                 "import a\n\nprint(a.math.pi, a.walk())  # a.spare, not b.a.walk\n"),
    }
    assert stale_references(sources) == [("b.py", 1, "a._gone"), ("b.py", 5, "a.spare")]


HALF_LENGTH_NAMES = {"arccosh", "acosh", "arcsinh"}


def half_length_readers(sources):
    """(module, name) of each inverse hyperbolic function that a module
    of sources, a name-to-text dict, other than hypdisc.py reads: a
    second home of the half-length formula, which hypdisc._half_lengths
    holds once so that a fix lands in one place."""
    return sorted((module, name) for module, text in sources.items()
                  if module != "hypdisc.py"
                  for name in read_names(text) & HALF_LENGTH_NAMES)


def test_half_length_formula_lives_in_hypdisc():
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    assert half_length_readers(sources) == []
    assert read_names(sources["hypdisc.py"]) & HALF_LENGTH_NAMES


def test_detector_flags_a_planted_half_length():
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    sources["cartan.py"] += "\n\ndef _mu(x):\n    return 0.5 * np.arccosh(x)\n"
    sources["words.py"] += "\n\nD = math.acosh(2.0)\n"
    assert half_length_readers(sources) == [("cartan.py", "arccosh"),
                                            ("words.py", "acosh")]


# public names and methods no caller reaches, each kept for a reason
UNCALLED = {
    "custom_rep": "oracle: a structureless rep checks the factor route",
    "poincare_series": "paper quantity: the series that defines the exponent",
}


def public_methods(node):
    """The public methods of a class definition; dunders are not public."""
    return [item for item in node.body if isinstance(item, ast.FunctionDef)
            and not item.name.startswith("_")]


def uncalled_public_names(sources, outside):
    """(module, name) of each public module-level function or class of
    sources, a name-to-text dict, and (module, "Class.method") of each
    public method of a public class, that nothing reaches. The roots are
    the names outside, a name-to-text dict of callers beyond the package,
    reads, with their string constants (the benchmark patches functions
    by name), and the names the package's top-level statements other
    than definitions and imports read; a definition a root reaches
    reaches every name its body reads in turn, so a name read only by
    definitions nothing reaches stays unreached. A class's body is all
    of it but its public methods, so its dunders come with it, and a
    public method is reached by its name alone."""
    body = {}
    reached = set()
    for text in outside.values():
        tree = ast.parse(text)
        reached |= names_read_by(tree) | {
            node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    for text in sources.values():
        for node in ast.parse(text).body:
            if isinstance(node, ast.ClassDef):
                methods = public_methods(node)
                for item in methods:
                    body.setdefault(item.name, set()).update(names_read_by(item))
                rest = [item for item in node.body if item not in methods]
                body.setdefault(node.name, set()).update(*(
                    names_read_by(item)
                    for item in rest + node.bases + node.decorator_list))
            elif isinstance(node, ast.FunctionDef):
                body.setdefault(node.name, set()).update(names_read_by(node))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                reached |= names_read_by(node)
    todo = list(reached)
    while todo:
        for name in body.get(todo.pop(), ()):
            if name not in reached:
                reached.add(name)
                todo.append(name)
    found = []
    for module, text in sources.items():
        for node in ast.parse(text).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                found += [(module, node.name)] if node.name not in reached else []
                if isinstance(node, ast.ClassDef):
                    found += [(module, "%s.%s" % (node.name, item.name))
                              for item in public_methods(node)
                              if item.name not in reached]
    return sorted(found)


def test_public_names_have_a_caller():
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    callers = sorted((REPO / "perfbench").glob("*.py")) + [
        REPO / "tests" / "test_acceptance.py"]
    outside = {str(p): p.read_text(encoding="utf-8") for p in callers}
    assert len(outside) > 1
    assert sorted(name for _, name in uncalled_public_names(sources, outside)) == sorted(
        UNCALLED)


def test_detector_flags_an_uncalled_public_name():
    sources = {
        "a.py": ("def entry():\n    return helper()\n\n\n"
                 "def helper():\n    return Box()\n\n\n"
                 "class Box:\n    pass\n\n\n"
                 "def spare():\n    return oracle()\n\n\n"
                 "def oracle():\n    return oracle()\n\n\n"
                 "def patched():\n    pass\n"),
        "b.py": ("from a import entry\n\n\n"
                 "def main():\n    entry()\n\n\n"
                 "if __name__ == '__main__':\n    main()\n"),
    }
    outside = {"bench.py": 'TRACED = ("patched",)\n'}
    assert uncalled_public_names(sources, outside) == [
        ("a.py", "oracle"), ("a.py", "spare")]
    assert uncalled_public_names(sources, {}) == [
        ("a.py", "oracle"), ("a.py", "patched"), ("a.py", "spare")]


def test_detector_flags_an_uncalled_public_method():
    sources = {
        "a.py": ("class Box:\n"
                 "    def __init__(self):\n        self.n = _count()\n\n"
                 "    def size(self):\n        return self.n\n\n"
                 "    def spare(self):\n        return self.oracle()\n\n"
                 "    def oracle(self):\n        return 0\n\n"
                 "    def _inner(self):\n        return 1\n\n\n"
                 "def _count():\n    return 2\n\n\n"
                 "class _Hidden:\n    def spare(self):\n        pass\n"),
        "b.py": "from a import Box\n\nprint(Box().size())\n",
    }
    assert uncalled_public_names(sources, {}) == [
        ("a.py", "Box.oracle"), ("a.py", "Box.spare")]
    assert uncalled_public_names(sources, {"bench.py": "x.spare()\n"}) == []


def traced_names():
    """(module, class or None, attribute) of each entry of the benchmark
    tracer's TRACED tuple, read from perfbench/tracer.py as a file."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", REPO / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [entry[:3] for entry in tracer.TRACED]


def test_traced_names_resolve():
    # the tracer wraps vars(owner)[attribute]; a deleted or renamed
    # name breaks every traced run of the benchmark
    names = traced_names()
    check = (
        "import importlib\n"
        "for module, cls, attr in %r:\n"
        "    owner = importlib.import_module('orbitlab.' + module)\n"
        "    owner = vars(owner).get(cls) if cls else owner\n"
        "    if owner is None or attr not in vars(owner):\n"
        "        print(module, cls, attr)\n" % (names,))
    run = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)), check=True)
    assert len(names) > 10
    assert run.stdout == ""


def test_cli_import_leaves_scipy_stats_out():
    # scipy.stats adds most of a second to every CLI start; the package's
    # one line fit is numpy's (critexp._line_fit)
    check = "import sys\nimport orbitlab.cli\nprint('scipy.stats' in sys.modules)\n"
    run = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)), check=True)
    assert run.stdout == "False\n"


def test_cli_import_loads_no_scipy():
    # scipy is a test dependency only: no module of the package imports it
    check = ("import sys\nimport orbitlab.cli\n"
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    run = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)), check=True)
    assert run.stdout == "[]\n"
