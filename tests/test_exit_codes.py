"""The exit-code contract under single-line edits of the corpus.

Each case edits one line of one corpus fixture and runs, in process,
`validate` and every other command that reads that kind of file.  There
are three sweeps:

- every deletion of one non-blank line other than the `%fixture 1` header;
- one substitution per line kind (a block kind and a first token, such as
  `tmap` in a category or `generators` in a diagram): the last name on the
  first such line becomes the unknown name `zz`.  A deletion never brings
  in an unknown name; this sweep does.  A wider sweep substitutes every
  name position of that line, both with `zz` and with each name from
  another slot of the line, which puts known names of the wrong kind in
  a slot (a morphism where an object is expected);
- after the first line of each kind, an inserted copy whose first name is
  `zz`: an entry at a name its block lacks, which `validate` must reject.

An edited `one.cat`, `two.cat` or `diamond.cat` is also read as the
`--vertex` of `verify-bicolim` and `verify-site`.  For every run:

- no exception other than `SystemExit` escapes the command;
- the exit code is one of 0 pass, 1 verified failure, 2 input error,
  3 budget;
- a command other than `validate` exits 0 or 1 only when `validate` exits 0
  on the mutated file.

Last, every golden command other than `validate` is run again with one more
file after its inputs, which redefines each category they define as a
one-object category: a block read earlier keeps the category it was read
against, so the report and the exit code stay those of the golden case.
"""

from pathlib import Path

import pytest
from click.testing import CliRunner

from sitecolim.cli import main
from sitecolim.fixtures import CategoryBlock, Environment, parse

from test_golden import CASES, GOLDEN_DIR

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"

# fixture suffix -> the commands besides validate that read such a file
DIAGRAM_COMMANDS = [["colim"], ["site-colim"], ["restrict"],
                    ["verify-bicolim", "--vertex", "one.cat"],
                    ["verify-site", "--vertex", "one.cat"]]
COMMANDS = {".cat": [], ".2cat": [], ".diag": DIAGRAM_COMMANDS,
            ".pre": [["sheaf-check"]]}

# The constant diagram of sites on `one` over chain3, read together with
# chain3.2cat and one.cat: verify-site against a diamond vertex then takes
# milliseconds, where covereddiamond.diag takes about a second.
CONSTONE = """%fixture 1
[functor idone]
source one
target one
obj o -> o
mor id_o -> id_o
[diagram constone]
index chain3
fiber 0 = one
fiber 1 = one
fiber 2 = one
transition 0_1 = idone
transition 0_2 = idone
transition 1_2 = idone
"""


def deletions(name):
    """(line number, text without that line) for each deletable line."""
    lines = (FIXTURE_DIR / name).read_text().splitlines(keepends=True)
    for i, line in enumerate(lines):
        if line.strip() and not line.startswith("%fixture"):
            yield i + 1, "".join(lines[:i] + lines[i + 1:])


def first_lines(name):
    """(line index, all lines, tokens) for the first line of each kind."""
    lines = (FIXTURE_DIR / name).read_text().splitlines(keepends=True)
    block, seen = None, set()
    for i, line in enumerate(lines):
        tokens = line.split("#", 1)[0].split()
        if not tokens or tokens[0] == "%fixture":
            continue
        if tokens[0].startswith("["):
            block = tokens[0]
            continue
        if (block, tokens[0]) in seen:
            continue
        seen.add((block, tokens[0]))
        yield i, lines, tokens


def edited(lines, i, tokens):
    return "".join(lines[:i] + [" ".join(tokens) + "\n"] + lines[i + 1:])


def substitutions(name):
    """(line number, text with that line's last name replaced by `zz`) for
    the first line of each kind."""
    for i, lines, tokens in first_lines(name):
        yield i + 1, edited(lines, i, tokens[:-1] + ["zz"])


SEPARATORS = (":", "=", "->", "=>", ".", "*")


def wider_substitutions(name):
    """(line number and edit, edited text) for the first line of each kind:
    each name position replaced by `zz` (but for the last, which
    substitutions covers) and by each other name on the line."""
    for i, lines, tokens in first_lines(name):
        slots = [k for k in range(1, len(tokens))
                 if tokens[k] not in SEPARATORS]
        for k in slots:
            names = sorted({tokens[j] for j in slots} - {tokens[k]})
            if k != len(tokens) - 1:
                names.append("zz")
            for n in names:
                yield ("%d (token %d -> %s)" % (i + 1, k, n),
                       edited(lines, i, tokens[:k] + [n] + tokens[k + 1:]))


def insertions(name):
    """(line number, text with a copy of that line, first name `zz`,
    inserted after it) for the first line of each kind."""
    for i, lines, tokens in first_lines(name):
        copy = " ".join([tokens[0], "zz"] + tokens[2:]) + "\n"
        yield i + 1, "".join(lines[:i + 1] + [copy] + lines[i + 1:])


def invoke(args):
    """(exit code, None) for a command that exited, or (None, exception)
    for one that raised anything else."""
    res = CliRunner().invoke(main, ["--fixture-dir", str(FIXTURE_DIR)]
                             + args)
    if res.exception is not None and not isinstance(res.exception,
                                                    SystemExit):
        return None, res.exception
    return res.exit_code, None


def sweep(name, mutations, tmp_path, commands, rejected=False):
    """Every breach of the contract over the mutations of fixture `name`:
    each mutated file is passed to `validate`, then to each argument list
    of commands(path).  With `rejected`, `validate` must not pass it."""
    out = []
    path = tmp_path / name
    for line, text in mutations(name):
        path.write_text(text)
        validated = None
        for args in [["validate", str(path)]] + commands(str(path)):
            code, exc = invoke(args)
            if validated is None:
                validated = code == 0
            if exc is not None:
                why = "raised %r" % exc
            elif code not in (0, 1, 2, 3):
                why = "exited %d" % code
            elif rejected and code == 0 and args[0] == "validate":
                why = "passed"
            elif code in (0, 1) and args[0] != "validate" and not validated:
                why = "exited %d on input validate rejects" % code
            else:
                continue
            out.append("line %s: %s %s" % (line, " ".join(args), why))
    return out


FIXTURES = sorted(p.name for p in FIXTURE_DIR.iterdir()
                  if p.suffix in COMMANDS)
VERTICES = ["one.cat", "two.cat", "diamond.cat"]


def commands_for(name):
    suffix = name[name.rindex("."):]
    return lambda path: [[c[0], path] + c[1:] for c in COMMANDS[suffix]]


def vertex_commands(tmp_path):
    constone = tmp_path / "constone.diag"
    constone.write_text(CONSTONE)
    return lambda path: [
        ["verify-bicolim", "consttwo.diag", "--vertex", path],
        ["verify-site", "chain3.2cat", "one.cat", str(constone),
         "--vertex", path]]


@pytest.mark.parametrize("name", FIXTURES)
def test_every_deletion_keeps_the_exit_contract(name, tmp_path):
    assert sweep(name, deletions, tmp_path, commands_for(name)) == []


@pytest.mark.parametrize("name", VERTICES)
def test_every_vertex_deletion_keeps_the_exit_contract(name, tmp_path):
    assert sweep(name, deletions, tmp_path, vertex_commands(tmp_path)) == []


@pytest.mark.parametrize("name", FIXTURES)
def test_every_substitution_keeps_the_exit_contract(name, tmp_path):
    assert sweep(name, substitutions, tmp_path, commands_for(name)) == []


@pytest.mark.parametrize("name", VERTICES)
def test_every_vertex_substitution_keeps_the_exit_contract(name, tmp_path):
    assert sweep(name, substitutions, tmp_path,
                 vertex_commands(tmp_path)) == []


@pytest.mark.parametrize("name", FIXTURES)
def test_every_wider_substitution_keeps_the_exit_contract(name, tmp_path):
    """covereddiamond's verify-site takes about a second a run, and the
    narrower sweeps already run it."""
    skipped = "verify-site" if name == "covereddiamond.diag" else None

    def commands(path):
        return [c for c in commands_for(name)(path) if c[0] != skipped]

    assert sweep(name, wider_substitutions, tmp_path, commands) == []


@pytest.mark.parametrize("name", VERTICES)
def test_every_wider_vertex_substitution_keeps_the_exit_contract(
        name, tmp_path):
    assert sweep(name, wider_substitutions, tmp_path,
                 vertex_commands(tmp_path)) == []


@pytest.mark.parametrize("name", FIXTURES)
def test_every_stray_entry_is_rejected(name, tmp_path):
    assert sweep(name, insertions, tmp_path, commands_for(name),
                 rejected=True) == []


def shadowing_file(files):
    """A fixture text redefining every category that `files` define as a
    one-object category."""
    env = Environment()
    for name in files:
        path = FIXTURE_DIR / name
        if path.exists():  # colim-missing-file names a file that is not
            env = parse(path.read_text(), env)
    names = [n for n, v in env.items() if isinstance(v, CategoryBlock)]
    return "%fixture 1\n" + "".join(
        "[category %s]\nobject o\nmor id_o : o -> o\nid o = id_o\n"
        "comp id_o . id_o = id_o\n" % n for n in names)


def without_inputs(report):
    return [line for line in report.splitlines()
            if not line.startswith("input ")]


@pytest.mark.parametrize("name", sorted(n for n in CASES
                                        if CASES[n][1][0] != "validate"))
def test_a_later_redefinition_changes_no_report(name, tmp_path):
    opts, args, code = CASES[name]
    cut = next((i for i, a in enumerate(args) if a.startswith("--")),
               len(args))
    shadow = tmp_path / "shadow.cat"
    shadow.write_text(shadowing_file(args[1:cut]))
    report = tmp_path / "report.txt"
    res = CliRunner().invoke(main, ["--fixture-dir", str(FIXTURE_DIR),
                                    "--report", str(report)] + opts
                             + args[:cut] + [str(shadow)] + args[cut:])
    golden = (GOLDEN_DIR / ("%s.report" % name)).read_text()
    assert without_inputs(report.read_text()) == without_inputs(golden)
    assert res.exit_code == code
