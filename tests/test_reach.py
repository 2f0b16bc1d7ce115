"""Every function in src/ is entered by the golden cases or by
fixtures/gen.py, apart from a named allow-list.

The test runs every case of test_golden.CASES and fixtures/gen.py (into a
temporary directory) in process under sys.setprofile, and records the
code objects entered.  A function is a `def` anywhere in src/sitecolim,
nested ones and methods included, named by module and qualified name.
The functions never entered must be exactly those of ALLOWED: a new
function with no golden input fails the test, and so does an allow-list
entry that has gone or that a golden input now reaches.
"""

import ast
import contextlib
import io
import runpy
import shutil
import sys
from pathlib import Path

import sitecolim

from test_golden import CASES, FIXTURE_DIR, run_case

SRC = Path(sitecolim.__file__).resolve().parent

# reason -> the functions no golden case or gen.py enters
ALLOWED_BY_REASON = {
    "acceptance gate": {
        "cones.conjugate", "core.whisker_nat_functor", "core.invert_nat",
        "sites.trivial_site", "colim.lift_diagram", "colim.reindex_iso",
        "core.FinCat.is_identity",
        # the gate's standard diagrams and what builds them
        "standard.chain2_twocat", "standard.const_two_diagram",
        "standard.inclusion_chain_diagram", "standard.diamond_chain_diagram",
        "standard.swap_chain_diagram", "standard.point_diagram",
        "standard.point_twocat", "standard.walking_iso_diagram",
        "twocat.constant_diagram"},
    "named in the tracer's LAYERS": {
        "colim.span_related", "cones.postcompose_cone",
        "cones.postcompose_cell"},
    "the benchmark's search workload": {
        "core.equivalence_witness", "core._essentially_surjective",
        "core._fully_faithful_keeping_sizes",
        "core.enumerate_functors.hom_sizes_equal"},
    "README's usage example": {"colim.BicolimReport.isomorphism"},
    "error path": {"cli._cannot_write"},
    # the Mapping protocol requires it; only tests iterate a thin table
    "Mapping protocol": {"colim._ThinComp.__iter__"},
}
ALLOWED = set().union(*ALLOWED_BY_REASON.values())


def src_functions():
    """(file, first line of its code object) -> module.qualified name, for
    every function defined in src/sitecolim.  A decorated function's code
    starts at its first decorator."""
    out = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                out[(str(path), first)] = "%s.%s" % (path.stem, name)
                walk(child, path, name + ".")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".")
            else:
                walk(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text()), path, "")
    return out


def entered_functions(tmp_path):
    """(resolved file, first line) of every code object entered while the
    golden cases and fixtures/gen.py run."""
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno))

    shutil.copy(FIXTURE_DIR / "gen.py", tmp_path / "gen.py")
    sys.setprofile(profile)
    try:
        for name in sorted(CASES):
            run_case(name, tmp_path / ("%s.report" % name))
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(tmp_path / "gen.py"))
    finally:
        sys.setprofile(None)
    files = {f: str(Path(f).resolve()) for f, _ in entered}
    return {(files[f], line) for f, line in entered}


def test_every_function_is_reached(tmp_path):
    functions = src_functions()
    entered = entered_functions(tmp_path)
    unentered = {name for key, name in functions.items()
                 if key not in entered}
    assert sorted(unentered - ALLOWED) == []
    assert sorted(ALLOWED - unentered) == []
