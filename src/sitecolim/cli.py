"""Batch front-end: parse fixture files, run constructions and verifiers,
emit deterministic line-oriented reports.

Reports start with `%report 1` and contain `key value` lines in a fixed
order; wall-clock time goes to stderr so reports are byte-stable.  Exit
codes: 0 pass, 1 verified failure or counterexample, 2 input error,
3 enumeration budget exceeded.
"""

from __future__ import annotations

import dataclasses
import errno
import hashlib
import os
import sys
import time
from pathlib import Path

import click

from .colim import build_pseudocolimit, recompose, verify_bicolimit
from .core import Budget
from .errors import BudgetExceeded, FixtureError, NotFiltered, SitecolimError
from .fixtures import CategoryBlock, DiagramBlock, Environment, parse
from .restriction import AmbientDiagram, restrict_diagram, verify_restriction
from .sites import (Presheaf, SiteDiagram, build_colim_site, check_sheaf,
                    validate_site, verify_site_pseudocolimit)


class Run:
    """Collects report lines and input digests for one invocation, and
    decides its outcome: a run passes iff it reports no false boolean and
    no `violation` line.  Both are recorded as the line is added, from the
    value's type and the key, never from the printed text."""

    def __init__(self, command, budget, report_path):
        self.lines = [("command", command), ("budget", str(budget.limit))]
        self.budget = budget
        self.report_path = report_path
        self.started = time.monotonic()
        self.failed = False

    def add(self, key, value):
        if isinstance(value, bool):
            self.failed |= not value
            value = "true" if value else "false"
        elif key.split()[0] == "violation":
            self.failed = True
        self.lines.append((key, str(value)))

    def finish(self, outcome=None, code=None):
        """Write the report and exit; without an outcome, pass (exit 0) or
        fail (exit 1) by the lines added."""
        if outcome is None:
            outcome, code = ("fail", 1) if self.failed else ("pass", 0)
        self.add("outcome", outcome)
        text = "%report 1\n" + "".join("%s %s\n" % kv for kv in self.lines)
        if self.report_path:
            try:
                Path(self.report_path).write_text(text)
            except OSError as exc:
                _cannot_write(self.report_path, exc.strerror)
                code = 2
        else:
            sys.stdout.write(text)
        elapsed = time.monotonic() - self.started
        click.echo("wall-time %.3fs" % elapsed, err=True)
        sys.exit(code)


def _cannot_write(path, reason):
    click.echo("error cannot write report %s: %s" % (path, reason), err=True)


def _refuse_unwritable(path):
    """Exit 2 before any work when the --report path is a directory or its
    parent directory is missing.  Other faults (permissions, a full disk)
    show only at the write, which Run.finish reports the same way."""
    if path is None:
        return
    p = Path(path)
    if p.is_dir():
        _cannot_write(path, os.strerror(errno.EISDIR))
    elif not p.parent.is_dir():
        _cannot_write(path, os.strerror(errno.ENOENT))
    else:
        return
    sys.exit(2)


def _resolve(path, fixture_dir):
    p = Path(path)
    if not p.exists() and fixture_dir:
        q = Path(fixture_dir) / path
        if q.exists():
            return q
    return p


def _load(run: Run, paths, fixture_dir) -> Environment:
    env = Environment()
    for path in paths:
        p = _resolve(path, fixture_dir)
        try:
            data = p.read_bytes()
        except OSError as exc:
            raise FixtureError("cannot read %s: %s" % (path, exc))
        run.add("input %s sha256" % p.name, hashlib.sha256(data).hexdigest())
        try:
            text = data.decode()
        except UnicodeDecodeError as exc:
            raise FixtureError("%s line %d: not UTF-8 text (byte 0x%02x)" % (
                path, data.count(b"\n", 0, exc.start) + 1, data[exc.start]))
        env = parse(text, env)
    return env


def _pick(env: Environment, kinds, name, what):
    """The named (or last) block of one of `kinds`, refused with its first
    violation unless it holds."""
    if name:
        if not isinstance(env.get(name), kinds):
            raise FixtureError("no %s named %s" % (what, name))
    else:
        found = [n for n, v in env.items() if isinstance(v, kinds)]
        if not found:
            raise FixtureError("no %s in the given fixtures" % what)
        name = found[-1]
    for where, msg in env.violations[name][:1]:
        raise FixtureError("%s: %s" % (where or "%s %s" % (what, name), msg))
    return env[name]


def _vertex(run: Run, path, fixture_dir) -> CategoryBlock:
    """The last category block of the vertex file, read on its own."""
    env = _load(run, [path], fixture_dir)
    return _pick(env, (CategoryBlock,), None, "category")


def _checked(obj):
    bad = obj.validate()
    if bad:
        raise FixtureError("; ".join(bad))
    return obj


def _site_diagram(block: DiagramBlock) -> SiteDiagram:
    if not block.fiber_blocks:
        raise FixtureError("diagram has no fiber categories with sites")
    sites = {A: b.site for A, b in block.fiber_blocks.items()}
    return _checked(SiteDiagram(block.diagram, sites))


def _ambient(block: DiagramBlock) -> AmbientDiagram:
    limits = {}
    for A, b in block.fiber_blocks.items():
        if b.limits is None:
            raise FixtureError("fiber %s has no limit assignment" % A)
        limits[A] = b.limits
    if not block.generators:
        raise FixtureError("diagram has no generator sets")
    return _checked(AmbientDiagram(block.diagram, limits, block.generators))


def _guard(run: Run, fn):
    """Run fn(); map library faults to report outcomes and exit codes."""
    try:
        fn()
    except NotFiltered as exc:
        run.add("error", "index is not 2-filtered: %s" % exc)
        run.finish("error", 2)
    except BudgetExceeded as exc:
        run.add("error", str(exc))
        run.finish("budget", 3)
    except SitecolimError as exc:
        run.add("error", str(exc))
        run.finish("error", 2)


def _execute(ctx, command, files, body):
    """Load `files`, run body(run, env) and finish the report."""
    _refuse_unwritable(ctx.obj["report"])
    run = Run(command, Budget(ctx.obj["budget"]), ctx.obj["report"])
    _guard(run, lambda: body(run, _load(run, files, ctx.obj["fixture_dir"])))
    run.finish()


@click.group()
@click.option("--budget", default=10 ** 6, show_default=True,
              type=click.IntRange(min=0),
              help="Cap on enumeration candidates per run.")
@click.option("--fixture-dir", default=None, type=click.Path(),
              help="Directory searched for fixture files.")
@click.option("--report", "report_path", default=None, type=click.Path(),
              help="Write the report here instead of stdout.")
@click.option("--seed", default=None, type=int,
              help="Shuffle seed for refinement-order stress checks.")
@click.pass_context
def main(ctx, budget, fixture_dir, report_path, seed):
    """Finite 2-categorical kernel: validate fixtures, build pseudocolimits
    of categories and sites, and verify their universal properties."""
    ctx.obj = {"budget": budget, "fixture_dir": fixture_dir,
               "report": report_path, "seed": seed}


@main.command()
@click.argument("files", nargs=-1, required=True)
@click.pass_context
def validate(ctx, files):
    """Validate every block in the given fixture files."""
    def body(run, env):
        for name, v in env.items():
            run.add("checked %s" % name, type(v).__name__)
            for where, msg in env.violations[name]:
                run.add("violation %s" % name,
                        "%s: %s" % (where, msg) if where else msg)
        run.add("violations", sum(len(env.violations[n]) for n in env))

    _execute(ctx, "validate", files, body)


def _seed_stable(run: Run, ctx, R):
    """With --seed, run the build's composition pass again over R's
    classes in the seeded apex order, and report whether the composition
    table is unchanged."""
    seed = ctx.obj["seed"]
    if seed is None:
        return
    stable = recompose(R, seed, run.budget) == R.category.comp
    run.add("seed", seed)
    run.add("seed_stable", stable)


@main.command()
@click.argument("files", nargs=-1, required=True)
@click.option("--name", default=None, help="Diagram block to use.")
@click.pass_context
def colim(ctx, files, name):
    """Build the pseudocolimit category of a diagram."""
    def body(run, env):
        block = _pick(env, (DiagramBlock,), name, "diagram")
        R = build_pseudocolimit(block.diagram, run.budget)
        run.add("diagram", block.diagram.name)
        run.add("objects", len(R.category.objects))
        run.add("morphisms", len(R.category.morphisms()))
        for o in R.category.objects:
            run.add("object", o)
        _seed_stable(run, ctx, R)

    _execute(ctx, "colim", files, body)


@main.command("site-colim")
@click.argument("files", nargs=-1, required=True)
@click.option("--name", default=None, help="Diagram block to use.")
@click.pass_context
def site_colim(ctx, files, name):
    """Build the colimit site of a diagram of sites."""
    def body(run, env):
        block = _pick(env, (DiagramBlock,), name, "diagram")
        S, R = build_colim_site(_site_diagram(block), run.budget)
        run.add("diagram", block.diagram.name)
        run.add("objects", len(S.cat.objects))
        run.add("morphisms", len(S.cat.morphisms()))
        run.add("covers", sum(len(f) for f in S.basis.values()))
        run.add("generators", " ".join(sorted(S.generators)))
        for msg in validate_site(S):
            run.add("violation", msg)
        _seed_stable(run, ctx, R)

    _execute(ctx, "site-colim", files, body)


@main.command()
@click.argument("files", nargs=-1, required=True)
@click.option("--name", default=None, help="Diagram block to use.")
@click.pass_context
def restrict(ctx, files, name):
    """Close generator sets under finite limits and transitions."""
    def body(run, env):
        block = _pick(env, (DiagramBlock,), name, "diagram")
        r = restrict_diagram(_ambient(block))
        run.add("diagram", block.diagram.name)
        run.add("rounds", r.rounds)
        for A in sorted(r.objects):
            run.add("objects %s" % A, " ".join(sorted(r.objects[A])))
        for msg in verify_restriction(r):
            run.add("violation", msg)

    _execute(ctx, "restrict", files, body)


def _add_report(run: Run, rep):
    """Every field the verifier's report sets, in field order."""
    for f in dataclasses.fields(rep):
        value = getattr(rep, f.name)
        if value is not None:
            run.add(f.name, value)


@main.command("verify-bicolim")
@click.argument("files", nargs=-1, required=True)
@click.option("--vertex", required=True,
              help="Fixture file whose last category is the test vertex.")
@click.option("--name", default=None, help="Diagram block to use.")
@click.pass_context
def verify_bicolim_cmd(ctx, files, vertex, name):
    """Check the universal property of a pseudocolimit by enumeration."""
    def body(run, env):
        vblock = _vertex(run, vertex, ctx.obj["fixture_dir"])
        block = _pick(env, (DiagramBlock,), name, "diagram")
        R = build_pseudocolimit(block.diagram, run.budget)
        rep = verify_bicolimit(R, vblock.cat, run.budget)
        run.add("diagram", block.diagram.name)
        _add_report(run, rep)
        _seed_stable(run, ctx, R)

    _execute(ctx, "verify-bicolim", files, body)


@main.command("verify-site")
@click.argument("files", nargs=-1, required=True)
@click.option("--vertex", required=True,
              help="Fixture file whose last category block is the test site.")
@click.option("--name", default=None, help="Diagram block to use.")
@click.pass_context
def verify_site_cmd(ctx, files, vertex, name):
    """Check the universal property of a colimit site by enumeration."""
    def body(run, env):
        vblock = _vertex(run, vertex, ctx.obj["fixture_dir"])
        block = _pick(env, (DiagramBlock,), name, "diagram")
        X = vblock.site
        D = _site_diagram(block)
        S, R = build_colim_site(D, run.budget)
        rep = verify_site_pseudocolimit(D, S, R, X, run.budget)
        run.add("diagram", block.diagram.name)
        _add_report(run, rep)
        _seed_stable(run, ctx, R)

    _execute(ctx, "verify-site", files, body)


@main.command("sheaf-check")
@click.argument("files", nargs=-1, required=True)
@click.pass_context
def sheaf_check(ctx, files):
    """Check every presheaf in the fixtures against its category's site."""
    def body(run, env):
        names = [n for n, v in env.items() if isinstance(v, Presheaf)]
        if not names:
            raise FixtureError("no presheaf in the given fixtures")
        for pname in names:
            P = _pick(env, (Presheaf,), pname, "presheaf")
            S = env.presheaf_blocks[pname].site
            ok, where = check_sheaf(P, S)
            run.add("sheaf %s" % pname, ok)
            if not ok:
                run.add("counterexample %s" % pname,
                        " ".join([where[0], *where[1]]))

    _execute(ctx, "sheaf-check", files, body)


if __name__ == "__main__":
    main()
