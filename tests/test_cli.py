import errno
import os
import random
import re

import pytest
from click.testing import CliRunner

from sitecolim import cli, colim
from sitecolim.cli import main
from sitecolim.colim import BicolimReport
from sitecolim.core import Presentation, build_category, identity_functor
from sitecolim.fixtures import (CategoryBlock, print_category, print_functor,
                                print_twocat, render)

from test_colim import COLLISIONS


@pytest.fixture()
def runner():
    return CliRunner()


def run(runner, fixture_dir, *args, **kw):
    return runner.invoke(main, ["--fixture-dir", str(fixture_dir)]
                         + list(args), **kw)


def report(runner, fixture_dir, tmp_path, *args):
    out = tmp_path / "report.txt"
    res = runner.invoke(main, ["--fixture-dir", str(fixture_dir),
                               "--report", str(out)] + list(args))
    return res, out.read_text() if out.exists() else None


def test_validate_one_exits_zero(runner, fixture_dir):
    res = run(runner, fixture_dir, "validate", "one.cat")
    assert res.exit_code == 0
    assert "outcome pass" in res.output


def test_validate_all_corpus(runner, fixture_dir):
    for f in ("one.cat", "two.cat", "chaotic.cat", "diamond.cat",
              "chain3.2cat", "consttwo.diag", "inclchain.diag",
              "swapchain.diag", "covereddiamond.diag", "sheaves.pre"):
        res = run(runner, fixture_dir, "validate", f)
        assert res.exit_code == 0, (f, res.output)


def test_validate_broken_category_exits_one(runner, fixture_dir, tmp_path):
    bad = tmp_path / "bad.cat"
    bad.write_text("%fixture 1\n[category bad]\nobject x\n"
                   "mor id_x : x -> x\nid x = id_x\n")  # missing composite
    res = run(runner, fixture_dir, "validate", str(bad))
    assert res.exit_code == 1
    assert "outcome fail" in res.output


def test_validate_checks_site_lines_without_limit_lines(runner, fixture_dir,
                                                       tmp_path):
    bad = tmp_path / "bare.cat"
    bad.write_text("%fixture 1\n[category bare]\nobject o\n"
                   "mor id_o : o -> o\nid o = id_o\ncomp id_o . id_o = id_o\n"
                   "cover zz : nosuch\ngenerator qq\n")
    res = run(runner, fixture_dir, "validate", str(bad))
    assert res.exit_code == 1, res.output
    assert ("violation bare cover block for unknown object zz\n"
            "violation bare unknown generator qq\nviolations 2\n"
            "outcome fail\n") in res.output


def test_validate_non_thin_complete_assignment_exits_one(runner, fixture_dir,
                                                         tmp_path):
    """A complete limit assignment on Z/2 is refused by one parallel pair,
    not by four failed cone checks."""
    bad = tmp_path / "z2.cat"
    bad.write_text(
        "%fixture 1\n[category z2]\nobject o\nmor id : o -> o\n"
        "mor s : o -> o\nid o = id\ncomp id . id = id\ncomp id . s = s\n"
        "comp s . id = s\ncomp s . s = id\nterminal o\ntmap o = id\n"
        "product o o = o id id\n" + "".join(
            "equalizer %s %s = o id\n" % (f, g)
            for f in ("id", "s") for g in ("id", "s")))
    res = run(runner, fixture_dir, "validate", str(bad))
    assert res.exit_code == 1, res.output
    assert ("violation z2 complete assignment on a non-thin category: id "
            "and s are parallel o -> o\nviolations 1\n") in res.output


def test_missing_file_exits_two(runner, fixture_dir):
    res = run(runner, fixture_dir, "validate", "nonexistent.cat")
    assert res.exit_code == 2
    assert "outcome error" in res.output


def test_parse_error_reports_line(runner, fixture_dir, tmp_path):
    bad = tmp_path / "bad.cat"
    bad.write_text("%fixture 1\n[category c]\nmor oops\n")
    res = run(runner, fixture_dir, "validate", str(bad))
    assert res.exit_code == 2
    assert "line 3" in res.output


def test_non_utf8_fixture_exits_two(runner, fixture_dir, tmp_path):
    bad = tmp_path / "bad.cat"
    bad.write_bytes(b"%fixture 1\n[category c]\nobject \xff\n")
    res = run(runner, fixture_dir, "validate", str(bad))
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert "line 3: not UTF-8 text (byte 0xff)" in res.output
    assert "outcome error" in res.output


@pytest.mark.parametrize("where", ["directory", "missing parent"])
def test_unwritable_report_exits_two(runner, fixture_dir, tmp_path,
                                     monkeypatch, where):
    """A --report path that is a directory or lacks its parent directory
    is refused before any fixture is read or colimit built."""
    path = tmp_path if where == "directory" else tmp_path / "no" / "r.txt"
    reason = "Is a directory" if where == "directory" else \
        "No such file or directory"

    def refused(*args):
        raise AssertionError("the run went ahead")

    monkeypatch.setattr(cli, "build_pseudocolimit", refused)
    monkeypatch.setattr(cli, "_load", refused)
    res = runner.invoke(main, ["--fixture-dir", str(fixture_dir),
                               "--report", str(path), "colim",
                               "swapchain.diag"])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert res.output == "error cannot write report %s: %s\n" % (path,
                                                                 reason)


def test_failed_report_write_exits_two(runner, fixture_dir, tmp_path,
                                       monkeypatch):
    """A report write that fails after the run, say on a full disk, still
    ends it with exit 2 and the error line."""
    def full(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(cli.Path, "write_text", full)
    path = tmp_path / "r.txt"
    res = runner.invoke(main, ["--fixture-dir", str(fixture_dir),
                               "--report", str(path), "validate", "one.cat"])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert "error cannot write report %s: %s\n" % (
        path, os.strerror(errno.ENOSPC)) in res.output
    assert "wall-time" in res.output


def test_negative_budget_exits_two(runner, fixture_dir):
    res = run(runner, fixture_dir, "--budget", "-5", "colim",
              "swapchain.diag")
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert "Invalid value for '--budget'" in res.output
    assert "outcome" not in res.output
    res = run(runner, fixture_dir, "--budget", "0", "validate", "one.cat")
    assert res.exit_code == 0
    assert "budget 0\n" in res.output


def test_colim_consttwo(runner, fixture_dir):
    res = run(runner, fixture_dir, "colim", "consttwo.diag")
    assert res.exit_code == 0
    assert "objects 6" in res.output
    assert "morphisms 27" in res.output


def test_colim_not_filtered_exits_two(runner, fixture_dir):
    res = run(runner, fixture_dir, "colim", "notfiltered.diag")
    assert res.exit_code == 2
    assert "F1" in res.output


def test_budget_exceeded_exits_three(runner, fixture_dir):
    res = runner.invoke(main, ["--fixture-dir", str(fixture_dir),
                               "--budget", "50", "colim",
                               "covereddiamond.diag"])
    assert res.exit_code == 3
    assert "outcome budget" in res.output


def test_verify_bicolim_consttwo(runner, fixture_dir):
    res = run(runner, fixture_dir, "verify-bicolim", "consttwo.diag",
              "--vertex", "two.cat")
    assert res.exit_code == 0
    assert "functor_objects 3" in res.output
    assert "cone_objects 3" in res.output
    assert "objects_bijective true" in res.output


def test_site_colim(runner, fixture_dir):
    res = run(runner, fixture_dir, "site-colim", "covereddiamond.diag")
    assert res.exit_code == 0
    assert "objects 12" in res.output
    assert "covers 3" in res.output


def test_verify_site(runner, fixture_dir):
    res = run(runner, fixture_dir, "verify-site", "covereddiamond.diag",
              "--vertex", "one.cat")
    assert res.exit_code == 0
    assert "factored_functors_continuous true" in res.output


def test_verify_site_fails_on_strict_triangle(runner, fixture_dir,
                                              monkeypatch):
    """A site report whose only false field is strict_triangle prints that
    field and is a verified failure."""
    rep = BicolimReport("one", 1, 1, 1, 1, True, True, False, True)
    monkeypatch.setattr(cli, "verify_site_pseudocolimit",
                        lambda *args: rep)
    res = run(runner, fixture_dir, "verify-site", "covereddiamond.diag",
              "--vertex", "one.cat")
    assert res.exit_code == 1
    assert "strict_triangle false\n" in res.output
    assert "outcome fail" in res.output


@pytest.mark.parametrize("command", [
    ["colim", "constz2.diag"],
    ["verify-bicolim", "constz2.diag", "--vertex", "z2.cat"],
    ["site-colim", "covereddiamond.diag"],
    ["verify-site", "covereddiamond.diag", "--vertex", "one.cat"],
], ids=lambda c: c[0])
def test_unstable_seed_fails(runner, fixture_dir, monkeypatch, command):
    """A seeded recomposition whose table differs is reported as
    `seed_stable false` and fails the run.  A site colimit is thin, so its
    table is forced: the seeded check recomposes nothing and reports
    `seed_stable true`."""
    seeds = []
    monkeypatch.setattr(cli, "recompose",
                        lambda R, seed, budget: seeds.append(seed) or {})
    res = runner.invoke(main, ["--fixture-dir", str(fixture_dir), "--seed",
                               "7"] + command)
    if command[0] in ("site-colim", "verify-site"):
        assert res.exit_code == 0, res.output
        assert "seed 7\nseed_stable true\n" in res.output
        assert res.output.endswith("outcome pass\n")
        assert seeds == []
    else:
        assert res.exit_code == 1, res.output
        assert "seed 7\nseed_stable false\n" in res.output
        assert res.output.endswith("outcome fail\n")
        assert seeds == [7]


def test_seeded_colim_builds_once(runner, fixture_dir, monkeypatch):
    """The seeded check recomposes the classes of the one build."""
    calls = []
    build = cli.build_pseudocolimit

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(cli, "build_pseudocolimit", counted)
    res = run(runner, fixture_dir, "--seed", "7", "colim", "consttwo.diag")
    assert res.exit_code == 0, res.output
    assert "seed_stable true\n" in res.output
    assert len(calls) == 1


def test_seeded_check_runs_the_builds_pass(runner, fixture_dir,
                                          monkeypatch):
    """--seed runs compose_spans, the build's composition pass, a second
    time on constz2, whose hom-sets hold two classes: first in sorted apex
    order for the build, then in the order Random(7) shuffles it to.  On
    the thin swapchain it runs once, for the build."""
    orders = []
    compose = colim.compose_spans

    def spied(*args):
        orders.append(list(args[5]))
        return compose(*args)

    monkeypatch.setattr(colim, "compose_spans", spied)
    shuffled = ["0", "1", "2"]
    random.Random(7).shuffle(shuffled)
    for name, want in [("constz2.diag", [["0", "1", "2"], shuffled]),
                       ("swapchain.diag", [["0", "1", "2"]])]:
        orders.clear()
        res = run(runner, fixture_dir, "--seed", "7", "colim", name)
        assert res.exit_code == 0, res.output
        assert "seed_stable true\n" in res.output
        assert orders == want


def test_value_named_false_is_not_a_verdict(runner, fixture_dir, tmp_path):
    """The outcome reads the type of a reported value, not its text."""
    path = _mutated(fixture_dir, tmp_path, "[diagram consttwo]\n",
                    "[diagram false]\n")
    res = run(runner, fixture_dir, "colim", path)
    assert res.exit_code == 0, res.output
    assert "diagram false\n" in res.output


def test_restrict(runner, fixture_dir):
    res = run(runner, fixture_dir, "restrict", "covereddiamond.diag")
    assert res.exit_code == 0
    assert "rounds 1" in res.output
    assert "objects 0 a b bot top" in res.output


def test_restrict_without_generator_sets_exits_two(runner, fixture_dir,
                                                  tmp_path):
    """Every fiber of covereddiamond.diag has its limits: with its
    `generators` lines gone, the generator sets are what restrict lacks."""
    lines = (fixture_dir / "covereddiamond.diag").read_text().splitlines(
        keepends=True)
    path = tmp_path / "nogenerators.diag"
    path.write_text("".join(line for line in lines
                            if not line.startswith("generators ")))
    res = run(runner, fixture_dir, "restrict", str(path))
    assert res.exit_code == 2, res.output
    assert "error diagram has no generator sets\n" in res.output


def test_sheaf_check_pass_and_fail(runner, fixture_dir):
    res = run(runner, fixture_dir, "sheaf-check", "sheaves.pre")
    assert res.exit_code == 0
    assert "sheaf pt true" in res.output
    res = run(runner, fixture_dir, "sheaf-check", "nonsheaf.pre")
    assert res.exit_code == 1
    assert "sheaf doubletop false" in res.output


def test_seeded_colim_stable(runner, fixture_dir):
    res = runner.invoke(main, ["--fixture-dir", str(fixture_dir),
                               "--seed", "42", "colim", "swapchain.diag"])
    assert res.exit_code == 0
    assert "seed_stable true" in res.output


@pytest.mark.parametrize("budget, code", [(262, 3), (263, 0)])
def test_budget_caps_seed_check(runner, fixture_dir, budget, code):
    """--budget caps the seeded recomposition together with the build:
    155 candidates for the build of constz2 plus 108 for recomposing."""
    res = run(runner, fixture_dir, "--budget", str(budget), "--seed", "42",
              "colim", "constz2.diag")
    assert res.exit_code == code, res.output
    if code == 3:
        assert ("error enumeration used 263 candidates (budget 262)\n"
                in res.output)
    else:
        assert "seed_stable true\n" in res.output


def test_report_file_and_determinism(runner, fixture_dir, tmp_path):
    res1, text1 = report(runner, fixture_dir, tmp_path,
                         "colim", "consttwo.diag")
    res2, text2 = report(runner, fixture_dir, tmp_path,
                         "colim", "consttwo.diag")
    assert res1.exit_code == res2.exit_code == 0
    assert text1 == text2
    assert text1.startswith("%report 1\n")
    assert "sha256" in text1


def test_wall_time_not_in_report(runner, fixture_dir, tmp_path):
    _, text = report(runner, fixture_dir, tmp_path, "validate", "one.cat")
    assert "wall-time" not in text


@pytest.mark.parametrize("command, diagram", [
    ("verify-bicolim", "consttwo.diag"),
    ("verify-site", "covereddiamond.diag"),
])
def test_vertex_without_category_exits_two(runner, fixture_dir, command,
                                           diagram):
    res = run(runner, fixture_dir, command, diagram, "--vertex", "chain3.2cat")
    assert res.exit_code == 2
    assert "error no category in the given fixtures" in res.output
    assert "outcome error" in res.output


# a command, the text of one more fixture file read after its arguments (or
# None), and the error line it exits 2 with
REFUSALS = [
    (["colim", "consttwo.diag", "--name", "nosuch"], None,
     "error no diagram named nosuch"),
    (["validate"], "[widget w]\n", "unknown block kind widget"),
    (["validate", "chain3.2cat"], "[presheaf p]\ncategory chain3\n",
     "category must name a category"),
    (["validate", "chain3.2cat", "two.cat"],
     "[functor f]\nsource chain3\ntarget two\n",
     "source must name a category"),
    (["site-colim", "consttwo.diag"], None,
     "error category two has no limit assignment; cannot form a site"),
]


@pytest.mark.parametrize("args, text, message", REFUSALS, ids=[
    "no-such-diagram", "block-kind", "presheaf-category", "functor-source",
    "site-no-limits"])
def test_refusal_exits_two(runner, fixture_dir, tmp_path, args, text,
                           message):
    if text is not None:
        args = args + [_write(tmp_path, "extra.fix", "%fixture 1\n" + text)]
    res = run(runner, fixture_dir, *args)
    assert res.exit_code == 2, res.output
    assert message in res.output
    assert res.output.endswith("outcome error\n")


def _mutated(fixture_dir, tmp_path, old, new, name="consttwo.diag"):
    text = (fixture_dir / name).read_text()
    assert text.count(old) == 1
    path = tmp_path / name
    path.write_text(text.replace(old, new))
    return str(path)


DIAGRAM_COMMANDS = [("colim",), ("site-colim",), ("restrict",),
                    ("verify-bicolim", "--vertex", "two.cat"),
                    ("verify-site", "--vertex", "one.cat")]


@pytest.mark.parametrize("command", DIAGRAM_COMMANDS,
                         ids=[c[0] for c in DIAGRAM_COMMANDS])
def test_missing_index_composite_exits_two(runner, fixture_dir, tmp_path,
                                           command):
    """A diagram whose index misses a composite is refused before any
    construction instead of crashing inside the span quotient."""
    bad = _mutated(fixture_dir, tmp_path, "comp 0_1 . id_0 = 0_1\n", "")
    res = run(runner, fixture_dir, command[0], bad, *command[1:])
    assert res.exit_code == 2, res.output
    assert ("error index chain3: 1-cell layer: missing composite 0_1 . id_0"
            in res.output)
    assert "outcome error" in res.output


@pytest.mark.parametrize("command", DIAGRAM_COMMANDS,
                         ids=[c[0] for c in DIAGRAM_COMMANDS])
def test_missing_fiber_line_exits_two(runner, fixture_dir, tmp_path,
                                      command):
    bad = _mutated(fixture_dir, tmp_path, "fiber 2 = two\n", "")
    res = run(runner, fixture_dir, command[0], bad, *command[1:])
    assert res.exit_code == 2, res.output
    assert ("error diagram consttwo: no fiber for index object 2"
            in res.output)
    assert "outcome error" in res.output


def test_missing_fiber_composite_exits_two(runner, fixture_dir, tmp_path):
    bad = _mutated(fixture_dir, tmp_path, "comp a . id_0 = a\n", "")
    res = run(runner, fixture_dir, "colim", bad)
    assert res.exit_code == 2, res.output
    assert "error fiber 0 (two): missing composite a . id_0" in res.output


def test_invalid_transition_exits_two(runner, fixture_dir, tmp_path):
    bad = _mutated(fixture_dir, tmp_path, "mor a -> a\n", "mor a -> id_0\n")
    res = run(runner, fixture_dir, "colim", bad)
    assert res.exit_code == 2, res.output
    assert re.search(r"error diagram consttwo: functor at \S+ is invalid",
                     res.output)
    # validate words the same 2-functor violation without the prefix
    res = run(runner, fixture_dir, "validate", bad)
    assert res.exit_code == 1, res.output
    assert re.search(r"violation consttwo functor at \S+ is invalid",
                     res.output)


def test_repeated_block_name_exits_two(runner, fixture_dir, tmp_path):
    bad = tmp_path / "twice.cat"
    bad.write_text((fixture_dir / "two.cat").read_text()
                   + "\n[category two]\nobject x\nmor id_x : x -> x\n"
                   "id x = id_x\ncomp id_x . id_x = id_x\n")
    res = run(runner, fixture_dir, "validate", str(bad))
    assert res.exit_code == 2, res.output
    assert re.search(r"error line \d+: block name two repeated in one file",
                     res.output)


def test_block_name_may_repeat_across_files(runner, fixture_dir):
    res = run(runner, fixture_dir, "validate", "two.cat", "consttwo.diag")
    assert res.exit_code == 0, res.output


def _shadowing(fixture_dir, tmp_path, objects):
    """consttwo.diag cut in two before its diagram block, and a file that
    redefines `two` as the discrete category on `objects`, with its
    identity functor id_two: (head, tail, redefinition) paths."""
    text = (fixture_dir / "consttwo.diag").read_text()
    cut = text.index("[diagram consttwo]")
    shadow = build_category(Presentation(objects, ()), 1, "two")
    return [_write(tmp_path, name, body) for name, body in (
        ("head.diag", text[:cut]),
        ("tail.diag", "%fixture 1\n" + text[cut:]),
        ("shadow.cat", render([print_category(CategoryBlock(shadow)),
                               print_functor(identity_functor(shadow))])))]


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_fiber_redefined_before_its_diagram_is_a_violation(
        runner, fixture_dir, tmp_path):
    """The transitions keep the `two` they were read against, and the
    diagram block reads the redefined one.  So each 1-cell's boundary is
    another category of the same name: a violation, not a crash in
    compose_functors."""
    head, tail, shadow = _shadowing(fixture_dir, tmp_path, ("p", "q", "r"))
    res = run(runner, fixture_dir, "validate", head, shadow, tail)
    assert res.exit_code == 1, res.output
    assert ("violation consttwo functor at 0_1 has wrong boundary\n"
            in res.output)
    for command in DIAGRAM_COMMANDS:
        res = run(runner, fixture_dir, command[0], head, shadow, tail,
                  *command[1:])
        assert res.exit_code == 2, (command, res.output)
        assert ("error diagram consttwo: functor at 0_1 has wrong boundary\n"
                in res.output)


def test_transformation_across_a_redefinition_is_a_violation(
        runner, fixture_dir, tmp_path):
    """idtwo is on the first `two` and id_two on its one-object
    redefinition: they are not parallel, though their categories share a
    name."""
    head, _, shadow = _shadowing(fixture_dir, tmp_path, ("p",))
    cell = _write(tmp_path, "cell.cat", render([
        ["[nattrans n]", "source idtwo", "target id_two", "at 0 = id_0",
         "at 1 = id_1"]]))
    res = run(runner, fixture_dir, "validate", head, shadow, cell)
    assert res.exit_code == 1, res.output
    assert ("violation n source and target functors are not parallel\n"
            in res.output)


def test_cone_across_a_redefinition_is_a_violation(runner, fixture_dir,
                                                   tmp_path):
    """A cone whose vertex is the redefined `two` and whose legs end in the
    first one has mislabelled legs.  The same cone read without the
    redefinition is valid."""
    head, tail, shadow = _shadowing(fixture_dir, tmp_path, ("p", "q", "r"))
    cell = _write(tmp_path, "cell.cat", render([
        ["[nattrans ididtwo]", "source idtwo", "target idtwo",
         "at 0 = id_0", "at 1 = id_1"]]))
    cone = _write(tmp_path, "cone.cat", render([
        ["[cone k]", "diagram consttwo", "vertex two"]
        + ["leg %s = idtwo" % A for A in ("0", "1", "2")]
        + ["coh %s = ididtwo" % u for u in ("0_1", "0_2", "1_2")]]))
    res = run(runner, fixture_dir, "validate", head, tail, cell, cone)
    assert res.exit_code == 0, res.output
    res = run(runner, fixture_dir, "validate", head, tail, cell, shadow, cone)
    assert res.exit_code == 1, res.output
    assert "violation k leg at 0 missing or mislabelled\n" in res.output


def test_validate_stops_at_a_broken_category(runner, fixture_dir, tmp_path):
    """A category with limits that misses a composite is reported, and its
    limit assignment is not checked against the broken table."""
    bad = _mutated(fixture_dir, tmp_path, "comp a . id_0 = a\n", "",
                   "two.cat")
    res = run(runner, fixture_dir, "validate", bad)
    assert res.exit_code == 1, res.output
    assert "violation two missing composite a . id_0" in res.output
    assert "outcome fail" in res.output


def test_validate_diagram_over_a_broken_fiber(runner, fixture_dir, tmp_path):
    bad = _mutated(fixture_dir, tmp_path, "comp a . id_0 = a\n", "")
    res = run(runner, fixture_dir, "validate", bad)
    assert res.exit_code == 1, res.output
    assert "violation two missing composite a . id_0" in res.output
    assert ("violation consttwo fiber 0 (two): missing composite a . id_0"
            in res.output)
    assert ("violation idtwo source two: missing composite a . id_0"
            in res.output)
    assert "violations 3" in res.output


def test_twocat_comp_line_arity_exits_two(runner, fixture_dir, tmp_path):
    bad = _mutated(fixture_dir, tmp_path, "comp 1_2 . 0_1 = 0_2\n",
                   "comp 1_2 . 0_1\n", "chain3.2cat")
    res = run(runner, fixture_dir, "validate", bad)
    assert res.exit_code == 2, res.output
    assert re.search(r"error line \d+: comp g \. f = h", res.output)


def test_unmapped_transition_object(runner, fixture_dir, tmp_path):
    """validate reports the functor; a diagram command refuses the diagram
    before deriving identity 2-cells from it."""
    bad = _mutated(fixture_dir, tmp_path, "obj 0 -> 0\n", "")
    res = run(runner, fixture_dir, "validate", bad)
    assert res.exit_code == 1, res.output
    assert "violation idtwo object 0 not mapped into target" in res.output
    res = run(runner, fixture_dir, "colim", bad)
    assert res.exit_code == 2, res.output
    assert "error diagram consttwo: functor at 0_1 is invalid" in res.output


def test_sheaf_check_refuses_a_broken_category(runner, fixture_dir,
                                               tmp_path):
    bad = _mutated(fixture_dir, tmp_path, "object bot\n", "", "sheaves.pre")
    res = run(runner, fixture_dir, "sheaf-check", bad)
    assert res.exit_code == 2, res.output
    assert ("error category diamond: morphism bot_a has unknown source bot"
            in res.output)


@pytest.mark.parametrize("command, diagram", [
    ("verify-bicolim", "consttwo.diag"),
    ("verify-site", "covereddiamond.diag"),
])
def test_broken_vertex_exits_two(runner, fixture_dir, tmp_path, command,
                                 diagram):
    bad = _mutated(fixture_dir, tmp_path, "comp a . id_0 = a\n", "",
                   "two.cat")
    res = run(runner, fixture_dir, command, diagram, "--vertex", bad)
    assert res.exit_code == 2, res.output
    assert "error category two: missing composite a . id_0" in res.output


@pytest.mark.parametrize("command", DIAGRAM_COMMANDS,
                         ids=[c[0] for c in DIAGRAM_COMMANDS])
def test_malformed_fiber_cover_exits_two(runner, fixture_dir, tmp_path,
                                         command):
    """Every command refuses a diagram whose fiber site is malformed, also
    those that never read the covers."""
    bad = _mutated(fixture_dir, tmp_path, "cover top : a_top b_top\n",
                   "cover top : a_top bot_a\n", "covereddiamond.diag")
    res = run(runner, fixture_dir, command[0], bad, *command[1:])
    assert res.exit_code == 2, res.output
    assert ("error fiber 0 (diamond): cover of top contains bot_a not into "
            "it" in res.output)


VERTEX_COMMANDS = [("verify-bicolim", "consttwo.diag"),
                   ("verify-site", "covereddiamond.diag")]


@pytest.mark.parametrize("name, old, new, message", [
    ("one.cat", "tmap o = id_o\n", "tmap o = zz\n",
     "tmap at o names unknown zz"),
    ("one.cat", "product o o = o id_o id_o\n", "product o o = o zz id_o\n",
     "chosen product of (o, o) names unknown zz"),
    ("diamond.cat", "equalizer bot_a bot_a = bot id_bot\n",
     "equalizer bot_a bot_a = bot a_top\n",
     "chosen equalizer of (bot_a, bot_a): a_top is not a morphism "
     "bot -> bot"),
])
def test_ill_named_limit_line(runner, fixture_dir, tmp_path, name, old, new,
                              message):
    """validate reports the limit line; a command reading the category as
    its vertex refuses it."""
    bad = _mutated(fixture_dir, tmp_path, old, new, name)
    res = run(runner, fixture_dir, "validate", bad)
    assert res.exit_code == 1, res.output
    assert "violation %s %s" % (name[:-4], message) in res.output
    for command, diagram in VERTEX_COMMANDS:
        res = run(runner, fixture_dir, command, diagram, "--vertex", bad)
        assert res.exit_code == 2, res.output
        assert "error category %s: %s" % (name[:-4], message) in res.output


@pytest.mark.parametrize("drop, tmap, message", [
    (["terminal o\n"], "id_o", "tmap at o has no chosen terminal"),
    (["terminal o\n"], "zz", "tmap at o names unknown zz"),
    (["terminal o\n", "product o o = o id_o id_o\n",
      "equalizer id_o id_o = o id_o\n"], "zz", "tmap at o names unknown zz"),
], ids=["no-terminal", "unknown", "only-tmap"])
def test_tmap_without_terminal_is_checked(runner, fixture_dir, tmp_path,
                                          drop, tmap, message):
    """A tmap line makes a limit assignment and is checked with no chosen
    terminal: validate reports it, a vertex command refuses it."""
    text = (fixture_dir / "one.cat").read_text()
    for line in drop:
        assert text.count(line) == 1
        text = text.replace(line, "")
    bad = tmp_path / "one.cat"
    bad.write_text(text.replace("tmap o = id_o", "tmap o = %s" % tmap))
    res = run(runner, fixture_dir, "validate", str(bad))
    assert res.exit_code == 1, res.output
    assert "violation one %s" % message in res.output
    for command, diagram in VERTEX_COMMANDS:
        res = run(runner, fixture_dir, command, diagram, "--vertex", str(bad))
        assert res.exit_code == 2, res.output
        assert "error category one: %s" % message in res.output


@pytest.mark.parametrize("command", DIAGRAM_COMMANDS,
                         ids=[c[0] for c in DIAGRAM_COMMANDS])
def test_unknown_generator_exits_two(runner, fixture_dir, tmp_path, command):
    bad = _mutated(fixture_dir, tmp_path, "generators 0 : a b\n",
                   "generators 0 : zz\n", "covereddiamond.diag")
    res = run(runner, fixture_dir, "validate", bad)
    assert res.exit_code == 1, res.output
    message = "generators 0: zz is not an object of diamond"
    assert "violation covereddiamond %s" % message in res.output
    res = run(runner, fixture_dir, command[0], bad, *command[1:])
    assert res.exit_code == 2, res.output
    assert "error diagram covereddiamond: %s" % message in res.output


def test_generators_off_the_index_are_reported(runner, fixture_dir,
                                                tmp_path):
    bad = _mutated(fixture_dir, tmp_path, "generators 0 : a b\n",
                   "generators 0 : a b\ngenerators 9 : a\n",
                   "covereddiamond.diag")
    res = run(runner, fixture_dir, "validate", bad)
    assert res.exit_code == 1, res.output
    assert ("violation covereddiamond generators 9: 9 is not an index object"
            in res.output)


@pytest.mark.parametrize("command", [("colim",),
                                     ("verify-bicolim", "--vertex", "one.cat")],
                         ids=["colim", "verify-bicolim"])
def test_empty_index_exits_two(runner, fixture_dir, tmp_path, command):
    """validate accepts a diagram over the empty 2-category, and the
    commands that build its colimit refuse it as not 2-filtered."""
    path = tmp_path / "empty.diag"
    path.write_text("%fixture 1\n[twocat empty]\n[diagram nothing]\n"
                    "index empty\n")
    assert run(runner, fixture_dir, "validate", str(path)).exit_code == 0
    res = run(runner, fixture_dir, command[0], str(path), *command[1:])
    assert res.exit_code == 2, res.output
    assert ("error index is not 2-filtered: index fails F0 at ()\n"
            in res.output)


@pytest.mark.parametrize("build, message", COLLISIONS,
                         ids=["objects", "classes"])
def test_colliding_colimit_names_exit_two(runner, fixture_dir, tmp_path,
                                          build, message):
    """A constant diagram that validate accepts, whose colimit would give
    two objects or two classes one name, is refused naming both."""
    dia = build()
    C = dia.fibers[dia.index.objects()[0]]
    ident = identity_functor(C)
    path = tmp_path / "collide.diag"
    path.write_text(render([
        print_twocat(dia.index), print_category(CategoryBlock(C)),
        print_functor(ident),
        ["[diagram collide]", "index %s" % dia.index.name]
        + ["fiber %s = %s" % (A, C.name) for A in dia.index.objects()]
        + ["transition %s = %s" % (u, ident.name)
           for u in dia.index.one_cells()]]))
    assert run(runner, fixture_dir, "validate", str(path)).exit_code == 0
    res = run(runner, fixture_dir, "colim", str(path))
    assert res.exit_code == 2, res.output
    assert "error %s\n" % message in res.output
