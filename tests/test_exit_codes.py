"""The exit-code contract under every single-line deletion of the corpus.

Each case deletes one non-blank line (other than the `%fixture 1` header)
from one corpus fixture and runs, in process, `validate` and every other
command that reads that kind of file.  A deletion in `one.cat`, `two.cat`
or `diamond.cat` is also read as the `--vertex` of `verify-bicolim` and
`verify-site`.  For every run:

- no exception other than `SystemExit` escapes the command;
- the exit code is one of 0 pass, 1 verified failure, 2 input error,
  3 budget;
- a command other than `validate` exits 0 or 1 only when `validate` exits 0
  on the mutated file.
"""

from pathlib import Path

import pytest
from click.testing import CliRunner

from sitecolim.cli import main

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


def invoke(args):
    """(exit code, None) for a command that exited, or (None, exception)
    for one that raised anything else."""
    res = CliRunner().invoke(main, ["--fixture-dir", str(FIXTURE_DIR)]
                             + args)
    if res.exception is not None and not isinstance(res.exception,
                                                    SystemExit):
        return None, res.exception
    return res.exit_code, None


def sweep(name, tmp_path, commands):
    """Every breach of the contract over the deletions of fixture `name`:
    each mutated file is passed to `validate`, then to each argument list
    of commands(path)."""
    out = []
    path = tmp_path / name
    for line, text in deletions(name):
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
            elif code in (0, 1) and args[0] != "validate" and not validated:
                why = "exited %d on input validate rejects" % code
            else:
                continue
            out.append("line %d: %s %s" % (line, " ".join(args), why))
    return out


@pytest.mark.parametrize("name", sorted(
    p.name for p in FIXTURE_DIR.iterdir() if p.suffix in COMMANDS))
def test_every_deletion_keeps_the_exit_contract(name, tmp_path):
    suffix = name[name.rindex("."):]
    assert sweep(name, tmp_path, lambda path: [
        [c[0], path] + c[1:] for c in COMMANDS[suffix]]) == []


@pytest.mark.parametrize("name", ["one.cat", "two.cat", "diamond.cat"])
def test_every_vertex_deletion_keeps_the_exit_contract(name, tmp_path):
    constone = tmp_path / "constone.diag"
    constone.write_text(CONSTONE)
    assert sweep(name, tmp_path, lambda path: [
        ["verify-bicolim", "consttwo.diag", "--vertex", path],
        ["verify-site", "chain3.2cat", "one.cat", str(constone),
         "--vertex", path]]) == []
