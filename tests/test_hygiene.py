"""Source hygiene: no module of the package or of the tests imports a name
it never uses, every import sits at module level, no public function,
class, method or property of any module, `standard` included, is there
only for the tests (the allow-lists hold only what the acceptance gate
or README's usage example calls), every function the benchmark's tracer
names exists, importing the CLI loads every module the
benchmark reads, only `core` compares objects by identity, and FinCat's
constructor takes only the data that defines a category, while its
derived tables stay out of construction, `repr` and comparison.

A stdlib-only stand-in for an unused-import lint.  `__init__.py` is left
out of the unused-import check because its imports are the package's
public re-exports, and its re-exports do not count as uses.
"""

import ast
import dataclasses
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sitecolim.core import FinCat

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sitecolim"
ALL_MODULES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in ALL_MODULES if p.name != "__init__.py"]
TEST_MODULES = sorted((ROOT / "tests").glob("*.py"))
# the paper's API that only the acceptance gate calls, and the standard
# diagrams it builds its cases from
TEST_ONLY_ALLOWED = {"conjugate", "trivial_site", "chain2_twocat",
                     "const_two_diagram", "inclusion_chain_diagram",
                     "diamond_chain_diagram", "swap_chain_diagram",
                     "point_diagram", "walking_iso_diagram"}
# the acceptance gate calls the first, README's usage example the second
TEST_ONLY_METHODS_ALLOWED = {"FinCat.is_identity", "BicolimReport.isomorphism"}


def unused_imports(source):
    """(line, name) of every imported name that is never loaded."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= {n.value.id for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_unused_imports_detected():
    src = "import os\nimport sys as system\nfrom a import b, c\nprint(c)\n"
    assert unused_imports(src) == [(1, "os"), (2, "system"), (3, "b")]


@pytest.mark.parametrize("path", MODULES + TEST_MODULES,
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def local_imports(source):
    """(line, function) of every import statement inside a function."""
    tree = ast.parse(source)
    found = set()
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.update((node.lineno, fn.name) for node in ast.walk(fn)
                         if isinstance(node, (ast.Import, ast.ImportFrom)))
    return sorted(found)


def test_local_imports_detected():
    src = ("import os\n"
           "def f():\n    import sys\n    def g():\n        from a import b\n"
           "class C:\n    def m(self):\n        import re\n")
    assert local_imports(src) == [(3, "f"), (5, "f"), (5, "g"), (8, "m")]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_no_function_local_imports(path):
    assert local_imports(path.read_text()) == []


def public_definitions(source):
    """Names of the public top-level classes, decorated or not, and of the
    undecorated public top-level functions."""
    return [n.name for n in ast.parse(source).body
            if (isinstance(n, ast.ClassDef)
                or isinstance(n, ast.FunctionDef) and not n.decorator_list)
            and not n.name.startswith("_")]


def referenced_names(source):
    """Every name the source loads, reads as an attribute or spells as a
    string, except where a top-level definition names itself."""
    found = set()
    for top in ast.parse(source).body:
        own = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                               str):
                name = node.value
            else:
                continue
            if name != own:
                found.add(name)
    return found


def public_methods(source):
    """Class.method for each public method or property of a public
    top-level class."""
    return ["%s.%s" % (c.name, m.name) for c in ast.parse(source).body
            if isinstance(c, ast.ClassDef) and not c.name.startswith("_")
            for m in c.body
            if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]


def unreferenced_definitions(modules, users, allowed=(),
                             definitions=public_definitions):
    """(module, name) for each of the `definitions` of `modules`
    (name -> source) whose last dotted part no source in `users`
    references."""
    used = set().union(*map(referenced_names, users))
    return sorted((m, f) for m, source in modules.items()
                  for f in definitions(source)
                  if f.rpartition(".")[2] not in used and f not in allowed)


def test_unreferenced_functions_detected():
    lib = ("def used():\n    return 1\n"
           "def only_tests():\n    return only_tests()\n"
           "def by_name():\n    pass\n"
           "@command\ndef cli():\n    pass\n"
           "def _private():\n    pass\n"
           "def allowed():\n    pass\n"
           "class K:\n    def method(self):\n        pass\n"
           "class Error(Exception):\n    pass\n"
           "class Raised(Error):\n    pass\n"
           "@dataclass\nclass Record:\n    x: int\n"
           "class _Hidden:\n    pass\n"
           "def f():\n    raise Raised()\n")
    users = [lib, "x = mod.used()\nLAYERS = ('by_name',)\nmod.f()\n"]
    assert unreferenced_definitions({"lib": lib}, users, {"allowed"}) == [
        ("lib", "K"), ("lib", "Record"), ("lib", "only_tests")]


def test_unreferenced_methods_detected():
    lib = ("class K:\n"
           "    def used(self):\n        return self.helper()\n"
           "    def helper(self):\n        pass\n"
           "    @property\n    def unread(self):\n        pass\n"
           "    def only_tests(self):\n        pass\n"
           "    def allowed(self):\n        pass\n"
           "    def _private(self):\n        pass\n"
           "class _Hidden:\n    def method(self):\n        pass\n")
    users = [lib, "k.used()\n"]
    assert unreferenced_definitions({"lib": lib}, users, {"K.allowed"},
                                    public_methods) == [
        ("lib", "K.only_tests"), ("lib", "K.unread")]


def test_no_test_only_functions():
    users = [p.read_text() for p in MODULES]
    users += [p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))]
    users.append((ROOT / "fixtures" / "gen.py").read_text())
    modules = {p.name: p.read_text() for p in MODULES}
    assert unreferenced_definitions(modules, users, TEST_ONLY_ALLOWED) == []


def test_no_test_only_methods():
    """The same sources as above.  Methods and properties are matched by
    name, so one whose name another attribute shares counts as
    referenced."""
    users = [p.read_text() for p in MODULES]
    users += [p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))]
    users.append((ROOT / "fixtures" / "gen.py").read_text())
    modules = {p.name: p.read_text() for p in MODULES}
    assert unreferenced_definitions(modules, users, TEST_ONLY_METHODS_ALLOWED,
                                    public_methods) == []


def assigned_literal(source, name):
    """The literal value of the top-level assignment to `name`."""
    return next(ast.literal_eval(n.value) for n in ast.parse(source).body
                if isinstance(n, ast.Assign)
                and any(getattr(t, "id", None) == name for t in n.targets))


def missing_layers(tracer_source, modules):
    """(module, entry) for each entry of the tracer's LAYERS table that
    names no top-level function, nor Class.method, of `modules`
    (name -> source)."""
    layers = assigned_literal(tracer_source, "LAYERS")
    missing = []
    for module, entries in layers.items():
        defined = set()
        for n in ast.parse(modules.get(module, "")).body:
            if isinstance(n, ast.FunctionDef):
                defined.add(n.name)
            elif isinstance(n, ast.ClassDef):
                defined.update("%s.%s" % (n.name, m.name) for m in n.body
                               if isinstance(m, ast.FunctionDef))
        missing += [(module, f) for f in entries if f not in defined]
    return missing


def test_missing_layers_detected():
    tracer = ('X = 1\nLAYERS = {"m": ("f", "K.g", "K.f", "gone"),\n'
              '          "other": ("f",)}\n')
    lib = "def f():\n    pass\nclass K:\n    def g(self):\n        pass\n"
    assert missing_layers(tracer, {"m": lib}) == [
        ("m", "K.f"), ("m", "gone"), ("other", "f")]


def test_traced_layers_exist():
    """`perfbench/tracer.py` wraps the functions LAYERS names; one that is
    renamed or removed breaks every `--trace 1` run, which no other test
    makes."""
    tracer = (ROOT / "perfbench" / "tracer.py").read_text()
    modules = {p.stem: p.read_text() for p in MODULES}
    assert missing_layers(tracer, modules) == []


def test_cli_import_loads_benchmarked_modules():
    """`perfbench/run.py`'s load_program imports sitecolim.cli afresh and
    reads each module its MODULES names from sys.modules; one that the
    import leaves unloaded (a lazy `__init__`, say) fails every benchmark
    run with KeyError."""
    wanted = assigned_literal((ROOT / "perfbench" / "run.py").read_text(),
                              "MODULES")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, sitecolim.cli; print(*sorted(sys.modules))"],
        env=env, capture_output=True, text=True, check=True).stdout.split()
    assert wanted and {"sitecolim." + m for m in wanted} <= set(out)


def id_loaders(modules):
    """The names of `modules` (name -> source) that load the name `id`."""
    return sorted(m for m, source in modules.items()
                  if any(isinstance(n, ast.Name) and n.id == "id"
                         and isinstance(n.ctx, ast.Load)
                         for n in ast.walk(ast.parse(source))))


def test_id_loaders_detected():
    modules = {"a": "key = (fn, *map(id, args))\n",
               "b": "seen = {id(x): x}\n", "c": "id = 3\nx.id = id_x\n"}
    assert id_loaders(modules) == ["a", "b"]


def test_only_core_compares_by_identity():
    """A decision made once per distinct object, compared by identity, is
    core.once_per_object's: any other module that loads `id` hand-rolls a
    second such cache."""
    modules = {p.name: p.read_text() for p in ALL_MODULES}
    assert id_loaders(modules) == ["core.py"]


def name_comparisons(source):
    """The lines of `source` with an `==` or `!=` that reads `.name` on
    both sides."""
    def reads_name(node):
        return any(isinstance(n, ast.Attribute) and n.attr == "name"
                   for n in ast.walk(node))

    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            sides = [node.left] + node.comparators
            for op, left, right in zip(node.ops, sides, sides[1:]):
                if (isinstance(op, (ast.Eq, ast.NotEq))
                        and reads_name(left) and reads_name(right)):
                    lines.add(node.lineno)
    return sorted(lines)


def test_name_comparisons_detected():
    source = ("assert F.target.name == G.source.name\n"
              "if (F.source.name, D.name) != (G.source.name, y):\n"
              "    pass\n"
              "ok = F.target == G.source and F.name == 'id'\n"
              "same = a.name is b.name or a.name < b.name\n")
    assert name_comparisons(source) == [1, 2]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_name_comparisons(path):
    """A name is a label, and two categories can share one: categories,
    functors and diagrams are compared with `==`, which core.FinCat
    decides by identity, then by the six defining tables."""
    assert name_comparisons(path.read_text()) == []


def test_fincat_takes_only_its_defining_data():
    """FinCat's derived tables are set by the class itself, never passed
    to its constructor."""
    assert list(inspect.signature(FinCat).parameters) == [
        "name", "objects", "mor_src", "mor_tgt", "identities", "comp"]


def test_fincat_derived_tables_are_hidden():
    """Every underscore field of FinCat, the derived tables and the
    verdict table `_limiting` among them, is declared init=False,
    repr=False, compare=False: none enters construction, `repr` or
    dataclass comparison."""
    hidden = [f for f in dataclasses.fields(FinCat) if f.name.startswith("_")]
    assert "_limiting" in {f.name for f in hidden}
    assert [f.name for f in hidden if f.init or f.repr or f.compare] == []
