"""Byte-for-byte reports of the CLI on the fixture corpus.

Each case runs one command and compares its report with
`tests/golden/<name>.report`, and its exit code with the table below.
After a change that alters reports on purpose, rewrite the golden files
with `PYTHONPATH=src python3 tests/test_golden.py` and review the diff.
It runs every case into a temporary directory first, and if any exit code
differs from the table it writes no golden file and exits 1.
"""

import sys
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner

from sitecolim.cli import main

ROOT = Path(__file__).resolve().parent
FIXTURE_DIR = ROOT.parent / "fixtures"
GOLDEN_DIR = ROOT / "golden"

# name -> (global options, command and arguments, exit code)
CASES = {
    "validate-one": ([], ["validate", "one.cat"], 0),
    "validate-covereddiamond": ([], ["validate", "covereddiamond.diag"], 0),
    "colim-consttwo": ([], ["colim", "consttwo.diag"], 0),
    "colim-swapchain": ([], ["colim", "swapchain.diag"], 0),
    "site-colim-covereddiamond": ([], ["site-colim", "covereddiamond.diag"],
                                  0),
    "restrict-covereddiamond": ([], ["restrict", "covereddiamond.diag"], 0),
    "verify-bicolim-consttwo-two": (
        [], ["verify-bicolim", "consttwo.diag", "--vertex", "two.cat"], 0),
    "verify-site-covereddiamond-one": (
        [], ["verify-site", "covereddiamond.diag", "--vertex", "one.cat"], 0),
    "sheaf-check-sheaves": ([], ["sheaf-check", "sheaves.pre"], 0),
    "sheaf-check-nonsheaf": ([], ["sheaf-check", "nonsheaf.pre"], 1),
    "seed-colim-swapchain": (["--seed", "42"], ["colim", "swapchain.diag"],
                             0),
    "seed-verify-bicolim-consttwo-two": (
        ["--seed", "7"],
        ["verify-bicolim", "consttwo.diag", "--vertex", "two.cat"], 0),
    "colim-inclchain": ([], ["colim", "inclchain.diag"], 0),
    "colim-covereddiamond": ([], ["colim", "covereddiamond.diag"], 0),
    "verify-bicolim-consttwo-diamond": (
        [], ["verify-bicolim", "consttwo.diag", "--vertex", "diamond.cat"], 0),
    "verify-bicolim-inclchain-two": (
        [], ["verify-bicolim", "inclchain.diag", "--vertex", "two.cat"], 0),
    "verify-bicolim-swapchain-two": (
        [], ["verify-bicolim", "swapchain.diag", "--vertex", "two.cat"], 0),
    "verify-site-covereddiamond-two": (
        [], ["verify-site", "covereddiamond.diag", "--vertex", "two.cat"], 0),
    "validate-corpus": ([], ["validate", "two.cat", "chaotic.cat",
                             "diamond.cat", "chain3.2cat", "consttwo.diag",
                             "inclchain.diag", "swapchain.diag",
                             "notfiltered.diag", "sheaves.pre",
                             "nonsheaf.pre"], 0),
    "colim-notfiltered": ([], ["colim", "notfiltered.diag"], 2),
    "colim-missing-file": ([], ["colim", "nonexistent.diag"], 2),
    "verify-site-no-site": (
        [], ["verify-site", "consttwo.diag", "--vertex", "one.cat"], 2),
    "restrict-no-generators": ([], ["restrict", "consttwo.diag"], 2),
    "sheaf-check-no-presheaf": ([], ["sheaf-check", "one.cat"], 2),
    "budget-colim-swapchain": (["--budget", "50"], ["colim", "swapchain.diag"],
                               3),
    # the quotient charges 315 candidates, the composition table 432 and
    # the build 747: the first budget runs out inside composition; the
    # colimit is thin, so the seeded check recomposes nothing and the
    # second run ends with 747 of its 1,000 candidates used
    "budget-colim-swapchain-compose": (
        ["--budget", "500"], ["colim", "swapchain.diag"], 3),
    "budget-seed-colim-swapchain": (
        ["--budget", "1000", "--seed", "42"], ["colim", "swapchain.diag"], 0),
    # the build charges 201 candidates, the functors L -> two reach 294,
    # the pseudocones 356 and the whole run 438: the first budget runs out
    # in the functor enumeration, the second among the transformations
    "budget-verify-bicolim-consttwo-two-functors": (
        ["--budget", "250"],
        ["verify-bicolim", "consttwo.diag", "--vertex", "two.cat"], 3),
    "budget-verify-bicolim-consttwo-two-transformations": (
        ["--budget", "400"],
        ["verify-bicolim", "consttwo.diag", "--vertex", "two.cat"], 3),
    # against diamond the build charges 201, the functors reach 554, the
    # pseudocones 838 and the whole run 1,358: the first budget runs out
    # among the pseudocones, the second at a modification candidate of
    # the pair loop
    "budget-verify-bicolim-consttwo-diamond-pseudocones": (
        ["--budget", "700"],
        ["verify-bicolim", "consttwo.diag", "--vertex", "diamond.cat"], 3),
    "budget-verify-bicolim-consttwo-diamond-modifications": (
        ["--budget", "1194"],
        ["verify-bicolim", "consttwo.diag", "--vertex", "diamond.cat"], 3),
    # the non-thin corpus: z2 has an automorphism, finset2 a plural
    # hom-set under every equalizer, and z2idem's index an endomorphism of
    # its weakly terminal object and an invertible 2-cell
    "validate-z2": ([], ["validate", "z2.cat"], 0),
    "validate-finset2": ([], ["validate", "finset2.cat"], 0),
    "validate-constz2": ([], ["validate", "constz2.diag"], 0),
    "validate-flipcone": ([], ["validate", "flipcone.cone"], 0),
    "validate-consttwoop": ([], ["validate", "consttwoop.diag"], 0),
    "validate-z2idem": ([], ["validate", "z2idem.diag"], 0),
    "validate-walkingiso": ([], ["validate", "walkingiso.diag"], 0),
    "colim-constz2": ([], ["colim", "constz2.diag"], 0),
    "colim-z2idem": ([], ["colim", "z2idem.diag"], 0),
    "seed-colim-constz2": (["--seed", "3"], ["colim", "constz2.diag"], 0),
    "verify-bicolim-constz2-z2": (
        [], ["verify-bicolim", "constz2.diag", "--vertex", "z2.cat"], 0),
    # the quotient charges 47 candidates and the composition table 108,
    # every block of it holding two classes: the budget runs out inside
    # the refinement search
    "budget-colim-constz2-refinement": (
        ["--budget", "100"], ["colim", "constz2.diag"], 3),
    # constz2t's colimit has 6 objects, 36 morphisms and 216 composites,
    # 108 of them in blocks of one class and 108 in blocks of two.  The
    # quotient charges 112 candidates and the build 328: the first budget
    # runs out inside the composition table, the second in the seeded
    # recomposition
    "validate-constz2t": ([], ["validate", "constz2t.diag"], 0),
    "colim-constz2t": ([], ["colim", "constz2t.diag"], 0),
    "seed-colim-constz2t": (["--seed", "3"], ["colim", "constz2t.diag"], 0),
    "budget-colim-constz2t-compose": (
        ["--budget", "200"], ["colim", "constz2t.diag"], 3),
    "budget-seed-colim-constz2t": (
        ["--budget", "400", "--seed", "3"], ["colim", "constz2t.diag"], 3),
}


def run_case(name, report_path):
    opts, args, _ = CASES[name]
    res = CliRunner().invoke(
        main, ["--fixture-dir", str(FIXTURE_DIR), "--report", str(report_path)]
        + opts + args)
    return res.exit_code, Path(report_path).read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name, tmp_path):
    code, text = run_case(name, tmp_path / "report.txt")
    assert text == (GOLDEN_DIR / ("%s.report" % name)).read_bytes()
    assert code == CASES[name][2]


if __name__ == "__main__":
    reports, wrong = {}, []
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CASES):
            code, reports[name] = run_case(name,
                                           Path(tmp) / ("%s.report" % name))
            print("%s exit %d" % (name, code))
            if code != CASES[name][2]:
                wrong.append("%s exited %d, not %d" % (name, code,
                                                       CASES[name][2]))
    if wrong:
        print("no golden written:\n" + "\n".join(wrong), file=sys.stderr)
        sys.exit(1)
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, text in reports.items():
        (GOLDEN_DIR / ("%s.report" % name)).write_bytes(text)
