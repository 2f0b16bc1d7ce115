import os
import random
import shutil
import subprocess
import sys

import pytest
from click.testing import CliRunner

import oracle_kernel as oracle
from sitecolim import cli, fixtures
from sitecolim.cli import main
from sitecolim.core import Functor, validate_category
from sitecolim.errors import FixtureError, SitecolimError
from sitecolim.fixtures import (CategoryBlock, DiagramBlock, Environment,
                                parse, print_category, print_functor,
                                print_presheaf, print_twocat, render)
from sitecolim.sites import Presheaf, check_sheaf
from sitecolim.twocat import TwoCat, check_two_functor
from strategies import z2_idempotent_twocat
from test_kernel import z2

ALL_FIXTURES = ["one.cat", "two.cat", "chaotic.cat", "diamond.cat",
                "chain3.2cat", "consttwo.diag", "inclchain.diag",
                "swapchain.diag", "walkingiso.diag", "notfiltered.diag",
                "covereddiamond.diag", "sheaves.pre", "nonsheaf.pre",
                "z2.cat", "finset2.cat", "constz2.diag", "flipcone.cone",
                "consttwoop.diag", "z2idem.diag", "constz2t.diag"]


def print_environment(env: Environment) -> str:
    """Canonical text for the printable members of an environment."""
    blocks = []
    for name, v in env.items():
        if isinstance(v, CategoryBlock):
            blocks.append(print_category(v))
        elif isinstance(v, TwoCat):
            blocks.append(print_twocat(v))
        elif isinstance(v, Functor):
            blocks.append(print_functor(v))
        elif isinstance(v, Presheaf):
            blocks.append(print_presheaf(v))
    return render(blocks)


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_corpus_parses(fixture_dir, name):
    env = parse((fixture_dir / name).read_text())
    assert env
    for v in env.values():
        if isinstance(v, CategoryBlock):
            assert validate_category(v.cat) == []
        elif isinstance(v, DiagramBlock):
            ok, why = check_two_functor(v.diagram)
            assert ok, why


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_round_trip_is_canonical(fixture_dir, name):
    text = (fixture_dir / name).read_text()
    printed = print_environment(parse(text))
    assert print_environment(parse(printed)) == printed


def test_generated_corpus_is_canonical(fixture_dir):
    """Printable blocks of the shipped files are already in canonical form."""
    for name in ("one.cat", "two.cat", "chaotic.cat", "diamond.cat",
                 "chain3.2cat"):
        text = (fixture_dir / name).read_text()
        assert print_environment(parse(text)) == text


def test_corpus_cell_lines(fixture_dir):
    """walkingiso.diag sends both non-identity 2-cells to its one named
    transformation and derives the identity 2-cells."""
    env = parse((fixture_dir / "walkingiso.diag").read_text())
    dia = env["walkingiso"].diagram
    assert dia.on2["g"] is env["ididtwo"] is dia.on2["ginv"]
    assert sorted(dia.on2) == sorted(dia.index.two_cells())


def test_non_thin_corpus_is_the_tests_structures(fixture_dir):
    """z2.cat holds test_kernel's z2 and z2idem.diag's index is
    strategies' z2_idempotent_twocat, table for table; finset2.cat has
    a plural hom-set, an equalizer for each of its 25 parallel pairs and
    no products."""
    assert parse((fixture_dir / "z2.cat").read_text())["z2"].cat == z2()
    got = parse((fixture_dir / "z2idem.diag").read_text())["z2_idempotent"]
    want = z2_idempotent_twocat("z", "a")
    assert got.name == want.name
    for table in ("objects", "mor_src", "mor_tgt", "identities", "comp"):
        assert getattr(got.cells1, table) == getattr(want.cells1, table)
    for table in ("two_src", "two_tgt", "two_id", "vcomp", "hcomp"):
        assert getattr(got, table) == getattr(want, table)
    block = parse((fixture_dir / "finset2.cat").read_text())["finset2"]
    assert len(block.cat.hom("2", "2")) == 4
    assert len(block.limits.equalizers) == 25 and block.limits.products == {}


def test_missing_header():
    with pytest.raises(FixtureError, match="header"):
        parse("[category c]\nobject x\n")


def test_error_carries_line_number():
    text = "%fixture 1\n[category c]\nobject x\nmor broken line\n"
    with pytest.raises(FixtureError, match="line 4"):
        parse(text)


def test_unknown_reference():
    text = ("%fixture 1\n[functor F]\nsource nowhere\n")
    with pytest.raises(FixtureError, match="unknown name"):
        parse(text)


def test_content_before_block():
    with pytest.raises(FixtureError, match="before first block"):
        parse("%fixture 1\nobject x\n")


def test_comments_and_blank_lines():
    text = ("%fixture 1\n\n# a comment\n[category c]\n"
            "object x  # trailing comment\nmor id_x : x -> x\n"
            "id x = id_x\ncomp id_x . id_x = id_x\n")
    env = parse(text)
    assert validate_category(env["c"].cat) == []


def test_environment_chaining(fixture_dir):
    env = parse((fixture_dir / "two.cat").read_text())
    text = ("%fixture 1\n[functor e]\nsource two\ntarget two\n"
            "obj 0 -> 0\nobj 1 -> 1\nmor a -> a\n"
            "mor id_0 -> id_0\nmor id_1 -> id_1\n")
    env2 = parse(text, env)
    assert isinstance(env2["e"], Functor)
    assert "two" in env  # original env not mutated beyond copying
    assert "e" not in env


def test_diagram_identity_transitions_filled(fixture_dir):
    env = parse((fixture_dir / "consttwo.diag").read_text())
    dia = env["consttwo"].diagram
    assert dia.on1["id_0"].obj_map == {"0": "0", "1": "1"}
    ok, why = check_two_functor(dia)
    assert ok, why


@pytest.mark.parametrize("name", ["consttwo.diag", "covereddiamond.diag"])
def test_identity_one_cells_share_one_functor(fixture_dir, name):
    """A constant diagram's identity 1-cells share one identity functor,
    and its fibers one site, so each transition is checked once."""
    block = [v for v in parse((fixture_dir / name).read_text()).values()
             if isinstance(v, DiagramBlock)][-1]
    dia = block.diagram
    idx = dia.index
    ids = [dia.on1[idx.cells1.identities[A]] for A in idx.objects()]
    assert len(ids) == 3 and all(f is ids[0] for f in ids)
    if name == "covereddiamond.diag":
        sites = list(cli._site_diagram(block).sites.values())
        assert len(sites) == 3 and all(S is sites[0] for S in sites)


def test_presheaf_block(fixture_dir):
    env = parse((fixture_dir / "sheaves.pre").read_text())
    P = env["pt"]
    assert isinstance(P, Presheaf)
    from sitecolim.sites import validate_presheaf
    assert validate_presheaf(P) == []


def test_op_orientation_flips_index(fixture_dir):
    base = (fixture_dir / "consttwo.diag").read_text()
    flipped = base.replace("orientation covariant", "orientation op")
    env = parse(flipped)
    dia = env["consttwo"].diagram
    # the stored index is flipped: 0_1 now runs 1 -> 0
    assert dia.index.cells1.mor_src["0_1"] == "1"


def test_repeated_block_name_in_one_text():
    block = "[category c]\nobject x\nmor id_x : x -> x\nid x = id_x\n"
    with pytest.raises(FixtureError,
                       match="line 6: block name c repeated in one file"):
        parse("%fixture 1\n" + block + block)


def test_block_name_may_repeat_across_texts():
    def text(o):
        return ("%%fixture 1\n[category c]\nobject %s\nmor i : %s -> %s\n"
                "id %s = i\ncomp i . i = i\n" % (o, o, o, o))
    env = parse(text("y"), parse(text("x")))
    assert env["c"].cat.objects == ("y",)


IDENTITY_CELL = ("[nattrans one_idtwo]\nsource idtwo\ntarget idtwo\n"
                 "at 0 = id_0\nat 1 = id_1\n")


def _cone(legs, coherences=()):
    return "".join(["\n[cone c]\ndiagram consttwo\nvertex two\n"]
                   + ["leg %s = idtwo\n" % A for A in legs]
                   + ["coh %s = one_idtwo\n" % u for u in coherences])


def test_cone_block_derives_identity_coherences(fixture_dir):
    text = (fixture_dir / "consttwo.diag").read_text()
    env = parse(text + "\n" + IDENTITY_CELL
                + _cone("012", ["0_1", "0_2", "1_2"]))
    assert env.violations["one_idtwo"] == []
    assert env.violations["c"] == []
    assert env["c"].coherence["id_1"].components == {"0": "id_0",
                                                      "1": "id_1"}


def test_cone_block_without_a_leg(fixture_dir, tmp_path):
    path = tmp_path / "cone.diag"
    path.write_text((fixture_dir / "consttwo.diag").read_text()
                    + _cone("12"))
    res = CliRunner().invoke(main, ["validate", str(path)])
    assert res.exit_code == 1, res.output
    assert "violation c leg at 0 missing or mislabelled" in res.output


def test_unknown_cone_line_is_refused(fixture_dir):
    text = (fixture_dir / "consttwo.diag").read_text() + _cone("012")
    with pytest.raises(FixtureError, match="unknown cone line apex"):
        parse(text + "apex two\n")


def test_index_naming_a_category_is_refused(fixture_dir):
    text = (fixture_dir / "consttwo.diag").read_text()
    with pytest.raises(FixtureError,
                       match="two is a CategoryBlock, not one of TwoCat"):
        parse(text.replace("index chain3\n", "index two\n"))


def test_cone_block_over_a_broken_diagram(fixture_dir):
    text = (fixture_dir / "consttwo.diag").read_text()
    env = parse(text.replace("comp a . id_0 = a\n", "") + _cone("012"))
    assert env.violations["c"] == [
        ("diagram consttwo", "fiber 0 (two): missing composite a . id_0")]
    assert env["c"].coherence == {}


def test_print_category_keeps_tmap_without_terminal():
    """A tmap line with no terminal line survives parse -> print -> parse,
    and so does its violation."""
    text = ("%fixture 1\n[category c]\nobject x\nmor id_x : x -> x\n"
            "id x = id_x\ncomp id_x . id_x = id_x\ntmap x = id_x\n")
    env = parse(text)
    printed = render([print_category(env["c"])])
    assert "tmap x = id_x" in printed.splitlines()
    assert parse(printed).violations["c"] == env.violations["c"] == [
        (None, "tmap at x has no chosen terminal")]


def test_gen_rewrites_the_corpus(fixture_dir, tmp_path):
    """fixtures/gen.py writes exactly the committed corpus, byte for byte:
    the goldens hash only the committed files, not how they were made."""
    shutil.copy(fixture_dir / "gen.py", tmp_path / "gen.py")
    env = dict(os.environ, PYTHONPATH=str(fixture_dir.parent / "src"))
    subprocess.run([sys.executable, str(tmp_path / "gen.py")], env=env,
                   cwd=tmp_path, check=True, capture_output=True)

    def corpus(d):
        return sorted(p.name for p in d.iterdir()
                      if p.is_file() and p.suffix != ".py")

    written, committed = corpus(tmp_path), corpus(fixture_dir)
    assert written == committed
    for name in written:
        assert ((tmp_path / name).read_bytes()
                == (fixture_dir / name).read_bytes()), name


# one block per kind over the blocks of consttwo.diag, its last line
# setting again the entry named by the key (the cone's block follows the
# identity transformation it names)
REPEATS = {
    "category": (["[category c]", "object o", "mor id_o : o -> o",
                  "mor e : o -> o", "id o = id_o", "comp id_o . id_o = id_o",
                  "comp e . id_o = e", "comp id_o . e = e", "comp e . e = e",
                  "comp e . e = id_o"], "comp e . e"),
    "twocat": (["[twocat t]", "object o", "mor id_o : o -> o",
                "id o = id_o", "comp id_o . id_o = id_o",
                "twocell i : id_o => id_o", "twoid id_o = i",
                "vcomp i . i = i", "hcomp i * i = i", "twoid id_o = i"],
               "twoid id_o"),
    "functor": (["[functor f]", "source two", "target two", "obj 0 -> 0",
                 "obj 1 -> 1", "mor a -> a", "mor id_0 -> id_0",
                 "mor id_1 -> id_1", "obj 0 -> 1"], "obj 0"),
    "nattrans": (["[nattrans n]", "source idtwo", "target idtwo",
                  "at 0 = id_0", "at 1 = id_1", "target idtwo"], "target"),
    "diagram": (["[diagram d]", "index chain3", "fiber 0 = two",
                 "fiber 1 = two", "fiber 2 = two", "transition 0_1 = idtwo",
                 "transition 0_2 = idtwo", "transition 1_2 = idtwo",
                 "fiber 1 = two"],
                "fiber 1"),
    "cone": (IDENTITY_CELL.splitlines() + [
        "[cone k]", "diagram consttwo", "vertex two", "leg 0 = idtwo",
        "leg 1 = idtwo", "leg 2 = idtwo", "coh 0_1 = one_idtwo",
        "coh 0_2 = one_idtwo", "coh 1_2 = one_idtwo", "vertex two"],
        "vertex"),
    "presheaf": (["[presheaf p]", "category two", "set 0 : e",
                  "set 1 : e", "map a e = e", "map id_0 e = e",
                  "map id_1 e = e", "set 0 : e f"], "set 0"),
}


def _after_consttwo(fixture_dir, block):
    """consttwo.diag with the lines of `block` appended, and the line
    number of its first line."""
    base = (fixture_dir / "consttwo.diag").read_text()
    return base + "\n" + "\n".join(block) + "\n", base.count("\n") + 2


@pytest.mark.parametrize("kind", sorted(REPEATS))
def test_repeated_entry_names_both_lines(fixture_dir, kind):
    """A line that sets an entry an earlier line of its block set is an
    error, not a silent overwrite."""
    block, key = REPEATS[kind]
    text, head = _after_consttwo(fixture_dir, block)
    lines = [head + i for i, line in enumerate(block)
             if line == key or line.startswith(key + " ")]
    assert len(lines) == 2 and lines[1] == head + len(block) - 1
    with pytest.raises(FixtureError, match="^line %d: %s repeats line %d$"
                       % (lines[1], key, lines[0])):
        parse(text)
    env = parse(text.rsplit("\n", 2)[0] + "\n")  # without the repeat
    for line in block:
        if line.startswith("["):
            assert env.violations[line[1:-1].split()[1]] == []


def test_repeated_composite_exits_two(fixture_dir, tmp_path):
    block, _ = REPEATS["category"]
    path = tmp_path / "c.cat"
    path.write_text("%fixture 1\n" + "\n".join(block) + "\n")
    res = CliRunner().invoke(main, ["validate", str(path)])
    assert res.exit_code == 2, res.output
    assert "line 11: comp e . e repeats line 10" in res.output


def test_adding_lines_may_repeat(fixture_dir):
    """object, cover and generator lines add entries; a repeated object
    stays a violation of the category."""
    text = (fixture_dir / "covereddiamond.diag").read_text()
    env = parse(text.replace("generator a\n", "generator a\ngenerator a\n")
                .replace("cover top : a_top b_top\n",
                         "cover top : a_top b_top\ncover top : a_top b_top\n"))
    assert env.violations["diamond"] == []
    assert env["diamond"].covers["top"].count(("a_top", "b_top")) == 2
    env = parse("%fixture 1\n[category c]\nobject x\nobject x\n"
                "mor id_x : x -> x\nid x = id_x\ncomp id_x . id_x = id_x\n")
    assert (None, "duplicate object x") in env.violations["c"]


BARE_CATEGORY = ("%fixture 1\n[category c]\nobject o\nmor id_o : o -> o\n"
                 "id o = id_o\ncomp id_o . id_o = id_o\n")


def test_site_lines_checked_without_limit_lines():
    """Cover and generator lines are checked on a category block with no
    limit lines as well: there is no site to form, but a line naming what
    the category lacks is still a violation."""
    env = parse(BARE_CATEGORY + "cover zz : nosuch\ngenerator qq\n")
    assert env["c"].limits is None
    assert env.violations["c"] == [
        (None, "cover block for unknown object zz"),
        (None, "unknown generator qq")]
    env = parse(BARE_CATEGORY + "cover o : id_o\ngenerator o\n")
    assert env.violations["c"] == []


def test_one_site_per_block(fixture_dir, monkeypatch):
    """A covered category block makes one Site, which the parser validates
    and the commands read; a block with no limit lines makes one too, to
    report its cover and generator lines, and still refuses `site`."""
    made = []
    site = fixtures.Site

    def counted(cat, *args):
        made.append(cat.name)
        return site(cat, *args)

    monkeypatch.setattr(fixtures, "Site", counted)
    for args in (["site-colim", "covereddiamond.diag"],
                 ["sheaf-check", "sheaves.pre"]):
        res = CliRunner().invoke(main, ["--fixture-dir", str(fixture_dir)]
                                 + args)
        assert res.exit_code == 0, res.output
        assert made == ["diamond"]
        made.clear()
    env = parse(BARE_CATEGORY + "cover zz : nosuch\ngenerator qq\n")
    assert env.violations["c"] == [
        (None, "cover block for unknown object zz"),
        (None, "unknown generator qq")]
    with pytest.raises(FixtureError, match="^category c has no limit "
                       "assignment; cannot form a site$"):
        env["c"].site
    assert made == ["c"]


# an entry at a name its block lacks, one per line kind that names one, and
# the violation it gets
STRAYS = [
    ("category", "id zz = id_o", "identity at zz, which is not an object"),
    ("twocat", "twoid zz = i",
     "vertical layer: identity at zz, which is not an object"),
    ("functor", "obj zz -> 0", "maps object zz, which two lacks"),
    ("functor", "mor zz -> a", "maps morphism zz, which two lacks"),
    ("nattrans", "at zz = id_0", "component at zz, which two lacks"),
    ("diagram", "fiber zz = two", "fiber zz: zz is not an index object"),
    ("diagram", "transition zz = idtwo", "transition zz: zz is not a 1-cell"),
    ("diagram", "cell zz = one_idtwo", "cell zz: zz is not a 2-cell"),
    ("cone", "leg zz = idtwo", "leg zz: zz is not an index object"),
    ("cone", "coh zz = one_idtwo", "coh zz: zz is not a 1-cell"),
    ("presheaf", "set zz : e", "value set at zz, which two lacks"),
    ("presheaf", "map zz e = e", "action of zz, which two lacks"),
]


@pytest.mark.parametrize("kind, stray, message", STRAYS,
                         ids=[s.split(" = ")[0] for _, s, _ in STRAYS])
def test_stray_entry_is_a_violation(fixture_dir, kind, stray, message):
    """A line at a name its block lacks is reported, not kept or ignored:
    each block of REPEATS, without its repeated line, with one such line
    added."""
    block = REPEATS[kind][0][:-1] + [stray]
    if kind == "diagram":
        block = IDENTITY_CELL.splitlines() + block
    text, _ = _after_consttwo(fixture_dir, block)
    name = [line for line in block if line[0] == "["][-1][1:-1].split()[1]
    assert parse(text).violations[name] == [(None, message)]


@pytest.mark.parametrize("header", ["[category ]", "[category]"])
def test_block_name_may_not_be_empty(header):
    with pytest.raises(FixtureError, match="^line 2: malformed block header$"):
        parse("%%fixture 1\n%s\nobject o\n" % header)


# a block of each kind with no naming line, and the message it gets
NO_NAMING_LINE = {
    "functor": ("obj 0 -> 0", "functor needs source and target"),
    "nattrans": ("at 0 = id_0", "nattrans needs source and target"),
    "diagram": ("fiber 0 = two", "diagram needs an index"),
    "cone": ("leg 0 = idtwo", "cone needs diagram and vertex"),
    "presheaf": ("set 0 : e", "presheaf needs a category"),
}


@pytest.mark.parametrize("empty", [True, False], ids=["empty", "body"])
@pytest.mark.parametrize("kind", sorted(NO_NAMING_LINE))
def test_missing_naming_line_points_at_the_header(fixture_dir, kind, empty):
    line, message = NO_NAMING_LINE[kind]
    block = ["[%s x]" % kind] + ([] if empty else [line])
    text, head = _after_consttwo(fixture_dir, block)
    with pytest.raises(FixtureError,
                       match="^line %d: %s$" % (head, message)):
        parse(text)


def _empty_cover(fixture_dir):
    """one.cat with o covered by the empty family."""
    text = (fixture_dir / "one.cat").read_text()
    return text.replace("generator o\n", "cover o :\ngenerator o\n")


def _point(name, elements):
    maps = "".join("map id_o %s = %s\n" % (e, e) for e in elements)
    return ("\n[presheaf %s]\ncategory one\nset o :%s\n%s"
            % (name, "".join(" " + e for e in elements), maps))


def test_empty_cover_round_trips(fixture_dir):
    """`cover o :` names the empty family and prints back without a
    trailing space."""
    text = _empty_cover(fixture_dir)
    env = parse(text)
    assert env.violations["one"] == []
    assert env["one"].covers == {"o": ((),)}
    assert print_environment(env) == text


def test_empty_cover_validates(fixture_dir, tmp_path):
    path = tmp_path / "empty.cat"
    path.write_text(_empty_cover(fixture_dir))
    res = CliRunner().invoke(main, ["validate", str(path)])
    assert res.exit_code == 0, res.output


def test_presheaf_keeps_the_block_it_named(fixture_dir):
    """A category block makes one site, and a presheaf keeps the block its
    category line named when a later file redefines that name."""
    env = parse((fixture_dir / "sheaves.pre").read_text())
    block = env["diamond"]
    assert block.site is block.site
    env = parse(BARE_CATEGORY.replace("[category c]", "[category diamond]"),
                env)
    assert env["diamond"] is not block
    assert env.presheaf_blocks["pt"] is block


def test_empty_cover_sheaves(fixture_dir, tmp_path):
    """A sheaf for the empty cover of o has exactly one element at o: the
    empty family has exactly one amalgamation."""
    text = _empty_cover(fixture_dir) + _point("pt", ["*"]) \
        + _point("none", []) + _point("two", ["a", "b"])
    env = parse(text)
    site = env["one"].site
    assert [check_sheaf(env[n], site) for n in ("pt", "none", "two")] == \
        [(True, None), (False, ("o", ())), (False, ("o", ()))]
    path = tmp_path / "points.pre"
    path.write_text(text)
    res = CliRunner().invoke(main, ["sheaf-check", str(path)])
    assert res.exit_code == 1, res.output
    for line in ("sheaf pt true", "sheaf none false", "sheaf two false",
                 "counterexample none o\n", "counterexample two o\n"):
        assert line in res.output


def _outcome(reader, text):
    """What `reader` makes of `text`: its error's class and text, or the
    blocks (with their names) and violations of the environment."""
    try:
        env = reader(text)
    except SitecolimError as e:
        return type(e).__name__, str(e), getattr(e, "line", None)
    return repr(dict(env)), env.violations, env.presheaf_blocks.keys()


def _mutations(text, seed, per_kind=12):
    """Copies of `text` with one line changed: blanked, duplicated, two of
    its tokens swapped, a token of the file inserted into it, or one of
    its tokens deleted."""
    rng = random.Random(seed)
    lines = text.splitlines()
    vocab = sorted({tok for line in lines for tok in line.split()}
                   | {"#", "[", "]", "[x", "y]"})
    for _ in range(per_kind):
        for kind in ("blank", "duplicate", "swap", "insert", "delete"):
            i = rng.randrange(len(lines))
            toks = lines[i].split()
            if kind == "blank":
                new = [""]
            elif kind == "duplicate":
                new = [lines[i], lines[i]]
            elif kind == "swap" and len(toks) > 1:
                a, b = rng.sample(range(len(toks)), 2)
                toks[a], toks[b] = toks[b], toks[a]
                new = [" ".join(toks)]
            elif kind == "insert":
                toks.insert(rng.randrange(len(toks) + 1), rng.choice(vocab))
                new = [" ".join(toks)]
            elif kind == "delete" and toks:
                del toks[rng.randrange(len(toks))]
                new = [" ".join(toks)]
            else:
                continue
            yield "\n".join(lines[:i] + new + lines[i + 1:]) + "\n"


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_one_pass_reader_matches_two_pass_reader(fixture_dir, name):
    """parse, which splits each line once and reads its entry in the same
    pass, raises the same error at the same line as the two-pass reader,
    or gives the same blocks and violations, on every corpus fixture,
    the fixture with its last block's lines repeated (every entry of that
    block repeats; the first repeat is the one raised) and seeded
    one-line mutations of it."""
    text = (fixture_dir / name).read_text()
    seed = ALL_FIXTURES.index(name)
    last_body = text.rstrip("\n").rsplit("\n[", 1)[1].split("\n", 1)[1]
    for mutated in [text, text + last_body + "\n",
                    *_mutations(text, seed)]:
        assert (_outcome(parse, mutated)
                == _outcome(oracle.parse, mutated)), mutated
