"""Seeded inputs, job lists and answer checks for the benchmark workloads.

Every input is generated from the seed, the way `fixtures/gen.py` builds
the corpus: posets get fresh element names (so the enumeration order
changes from seed to seed), swap diagrams get a seeded automorphism and
restriction gets seeded generator sets.  The shape of each job list is the
same for every seed, so the work per pass stays comparable across seeds.

Checks compare exit codes and verdict fields, never whole reports, and
every expected answer is derived here from the input's shape, never from a
stored table.
"""

import contextlib
import io
import itertools
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]  # None when the answer is right
    root: str | None = None  # root span name when traced


class Input(NamedTuple):
    """A generated diagram file and what its checks need to know."""
    path: str
    poset: "Poset"
    n: int  # number of index objects
    generators: dict  # index object -> restriction generators


# ---------------------------------------------------------------------------
# poset shapes: (size, relation on 0..size-1, reflexive and transitive)


def _closure(size, pairs):
    rel = {(i, i) for i in range(size)} | set(pairs)
    while True:
        more = {(a, d) for (a, b) in rel for (c, d) in rel if b == c} - rel
        if not more:
            return frozenset(rel)
        rel |= more


def _chain(k):
    return k, _closure(k, [(i, i + 1) for i in range(k - 1)])


def _boolean(k):
    n = 2 ** k
    return n, frozenset((a, b) for a in range(n) for b in range(n)
                        if a & ~b == 0)


SHAPES = {
    "one": _chain(1),
    "two": _chain(2),
    "chain3": _chain(3),
    "chain4": _chain(4),
    "diamond": _boolean(2),
    "bool3": _boolean(3),
    "vee": (3, _closure(3, [(0, 1), (0, 2)])),
    "wedge": (3, _closure(3, [(0, 2), (1, 2)])),
    "zigzag": (4, _closure(4, [(0, 2), (1, 2), (1, 3)])),
    "fork": (4, _closure(4, [(0, 1), (1, 2), (1, 3)])),
}


class Poset:
    """A seeded relabelling of a shape, with its sitecolim category."""

    def __init__(self, lib, shape, name, labels):
        self.size, self.rel = SHAPES[shape]
        self.labels = labels
        self.index = {x: i for i, x in enumerate(labels)}
        self.cat = lib.standard.poset_category(name, labels, self.le)
        self.perm = tuple(range(self.size))

    def le(self, x, y):
        return (self.index[x], self.index[y]) in self.rel

    def top(self):
        tops = [x for x in self.labels if all(self.le(y, x) for y in self.labels)]
        return tops[0] if len(tops) == 1 else None

    def apply(self, power, x):
        i = self.index[x]
        for _ in range(power):
            i = self.perm[i]
        return self.labels[i]

    def order(self):
        k, i = 1, self.perm
        while i != tuple(range(self.size)):
            i = tuple(self.perm[j] for j in i)
            k += 1
        return k


def is_isomorphic(size, rel, size2, rel2):
    """Brute force over all bijections."""
    if size != size2 or len(rel) != len(rel2):
        return False
    return any(all(((p[a], p[b]) in rel2) == ((a, b) in rel)
                   for a in range(size) for b in range(size))
               for p in itertools.permutations(range(size)))


def poset_reflection(C):
    """(size, relation) of the poset reflection of a thin category, or None
    when some hom-set has two morphisms."""
    objs = list(C.objects)
    if any(len(C.hom(a, b)) > 1 for a in objs for b in objs):
        return None
    classes = []
    for a in objs:
        for cls in classes:
            b = cls[0]
            if C.hom(a, b) and C.hom(b, a):
                cls.append(a)
                break
        else:
            classes.append([a])
    rel = frozenset((i, j) for i, ci in enumerate(classes)
                    for j, cj in enumerate(classes) if C.hom(ci[0], cj[0]))
    return len(classes), rel


# ---------------------------------------------------------------------------
# fixture text generation


class Generator:
    def __init__(self, lib, seed, workdir):
        self.lib = lib
        self.rng = random.Random(seed)
        self.dir = workdir
        self.files = 0

    def poset(self, shape, name, swap=False):
        size = SHAPES[shape][0]
        labels = tuple("q%d" % n for n in self.rng.sample(range(10, 100), size))
        P = Poset(self.lib, shape, name, labels)
        if swap:
            k = size.bit_length() - 1  # boolean shapes: permute two atoms
            b1, b2 = self.rng.sample(range(k), 2)

            def flip(i):
                x, y = (i >> b1) & 1, (i >> b2) & 1
                return i & ~((1 << b1) | (1 << b2)) | (x << b2) | (y << b1)
            P.perm = tuple(flip(i) for i in range(size))
        return P

    def write(self, blocks):
        self.files += 1
        path = self.dir / ("in%03d.fix" % self.files)
        path.write_text(self.lib.fixtures.render(blocks))
        return str(path)

    def category_block(self, P, limits=False, covered=False):
        fx, std = self.lib.fixtures, self.lib.standard
        lim = std.poset_limits(P.cat, P.le) if limits else None
        covers, gens = {}, frozenset()
        if covered:
            top = P.top()
            coatoms = [x for x in P.labels if x != top and P.le(x, top)
                       and not any(y not in (x, top) and P.le(x, y)
                                   for y in P.labels)]
            covers = {top: (tuple(P.cat.hom(c, top)[0] for c in coatoms),)}
            gens = frozenset(x for x in P.labels if x != top)
        return fx.print_category(fx.CategoryBlock(P.cat, lim, covers, gens))

    def functor(self, name, src, tgt, obj_map):
        mor_map = {m: tgt.cat.hom(obj_map[src.cat.mor_src[m]],
                                  obj_map[src.cat.mor_tgt[m]])[0]
                   for m in src.cat.morphisms()}
        F = self.lib.core.Functor(name, src.cat, tgt.cat, obj_map, mor_map)
        return self.lib.fixtures.print_functor(F)

    def diagram(self, name, index, fibers, transitions, cells=(),
                generators=None):
        """fibers: index object -> Poset; transitions: 1-cell -> functor
        name; cells: (2-cell, nattrans name) pairs."""
        out = ["[diagram %s]" % name, "index %s" % index, "orientation covariant"]
        out += ["fiber %s = %s" % (A, P.cat.name) for A, P in fibers.items()]
        out += ["transition %s = %s" % kv for kv in transitions.items()]
        out += ["cell %s = %s" % kv for kv in cells]
        for A, gens in (generators or {}).items():
            out.append("generators %s : %s" % (A, " ".join(sorted(gens))))
        return out

    def power_diagram(self, name, index_kind, n, shape, swap, limits=False,
                      covered=False, generators=False):
        """Constant (swap=False) or swap diagram of a seeded poset over
        chain_n ("chain") or the walking isomorphism ("iso")."""
        lib = self.lib
        P = self.poset(shape, "fib", swap)
        if index_kind == "chain":
            tc = lib.twocat.two_cat_from_cat(lib.standard.chain_cat(n),
                                             "chain%d" % n)
            objs = [str(i) for i in range(n)]
            steps = {"%d_%d" % (i, j): j - i
                     for i in range(n) for j in range(i + 1, n)}
        else:
            tc = lib.standard.walking_iso_twocat()
            objs = ["A", "B"]
            steps = {"u": 1, "v": 1}
        order = P.order()
        blocks = [lib.fixtures.print_twocat(tc),
                  self.category_block(P, limits, covered)]
        used = sorted({p % order for p in steps.values()})
        for p in used:
            blocks.append(self.functor("sig%d" % p, P, P,
                                       {x: P.apply(p, x) for x in P.labels}))
        cells = []
        if index_kind == "iso":
            sig = "sig%d" % (1 % order)
            blocks.append(["[nattrans cellsig]", "source " + sig, "target " + sig]
                          + ["at %s = %s" % (x, P.cat.identities[P.apply(1, x)])
                             for x in P.labels])
            cells = [("g", "cellsig"), ("ginv", "cellsig")]
        gens = {}
        if generators:
            gens = {A: frozenset(self.rng.sample(P.labels, 2)) for A in objs}
        blocks.append(self.diagram(
            name, tc.name, {A: P for A in objs},
            {u: "sig%d" % (p % order) for u, p in steps.items()}, cells, gens))
        return Input(self.write(blocks), P, len(objs), gens)

    def vertex(self, shape):
        P = self.poset(shape, "v%s" % shape)
        return self.write([self.category_block(P, limits=True)])

    def incl_chain(self):
        """one -> two -> two over chain3: an endpoint inclusion, then the
        identity (the corpus inclchain, relabelled)."""
        lib = self.lib
        O, T = self.poset("one", "one"), self.poset("two", "two")
        end = self.rng.choice(T.labels)
        tc = lib.standard.chain3_twocat()
        blocks = [lib.fixtures.print_twocat(tc), self.category_block(O),
                  self.category_block(T),
                  self.functor("incl", O, T, {O.labels[0]: end}),
                  self.functor("idtwo", T, T, {x: x for x in T.labels})]
        blocks.append(self.diagram("inclchain", "chain3",
                                   {"0": O, "1": T, "2": T},
                                   {"0_1": "incl", "1_2": "idtwo",
                                    "0_2": "incl"}))
        return self.write(blocks)

    def not_filtered(self):
        lib = self.lib
        O = self.poset("one", "one")
        blocks = [lib.fixtures.print_twocat(lib.standard.discrete_pair_twocat()),
                  self.category_block(O),
                  ["[diagram notfiltered]", "index discrete_pair",
                   "orientation covariant",
                   "fiber x = one", "fiber y = one"]]
        return self.write(blocks)

    def presheaf(self, doubled):
        """The corpus sheaves.pre (terminal presheaf) or nonsheaf.pre
        (top doubled, so the cover of the top cannot glue), relabelled."""
        lib = self.lib
        P = self.poset("diamond", "diamond")
        top = P.top()
        C = P.cat
        if doubled:
            sets = {x: ("s", "t") if x == top else ("*",) for x in P.labels}
            maps = {}
            for m in C.morphisms():
                if C.mor_src[m] == top:
                    maps[m] = {"s": "s", "t": "t"}
                elif C.mor_tgt[m] == top:
                    maps[m] = {"s": "*", "t": "*"}
                else:
                    maps[m] = {"*": "*"}
            pre = lib.sites.Presheaf("doubletop", C, sets, maps)
        else:
            pre = lib.sites.Presheaf("pt", C, {x: ("*",) for x in P.labels},
                                     {m: {"*": "*"} for m in C.morphisms()})
        return self.write([self.category_block(P, limits=True, covered=True),
                           lib.fixtures.print_presheaf(pre, "diamond")])


# ---------------------------------------------------------------------------
# jobs and checks


def invoke(main, argv):
    """One in-process CLI run: (exit code, report text)."""
    out = io.StringIO()
    code = None
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            main.main(argv, standalone_mode=False)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def report_values(text, key):
    prefix = key + " "
    return [ln[len(prefix):] for ln in text.splitlines() if ln.startswith(prefix)]


def expect(want_code, fields):
    """A check on the exit code and on named report fields."""
    def check(outcome):
        got_code, text = outcome
        if got_code != want_code:
            return "exit %r, expected %d" % (got_code, want_code)
        for key, want in fields.items():
            got = report_values(text, key)
            if got != [str(want)]:
                return "%s %r, expected %r" % (key, got, want)
        return None
    return check


def _no_violation(check):
    def wrapped(outcome):
        if report_values(outcome[1], "violation"):
            return "report lists a violation"
        return check(outcome)
    return wrapped


def _counts_match(check):
    def wrapped(outcome):
        text = outcome[1]
        for side in ("objects", "morphisms"):
            if report_values(text, "functor_" + side) != \
                    report_values(text, "cone_" + side):
                return "functor_%s differs from cone_%s" % (side, side)
        return check(outcome)
    return wrapped


def verify_check(site):
    last = "factored_functors_continuous" if site else "strict_triangle"
    return _counts_match(expect(0, {
        "outcome": "pass", "objects_bijective": "true",
        "morphisms_bijective": "true", last: "true"}))


def colim_check(inp, seeded):
    """The colimit of a constant or swap diagram of P over chain_n has
    n.|P| objects and n^2.|<=_P| morphisms."""
    n, P = inp.n, inp.poset
    fields = {"outcome": "pass", "objects": n * P.size,
              "morphisms": n * n * len(P.rel)}
    if seeded:
        fields["seed_stable"] = "true"
    return _no_violation(expect(0, fields))


def restrict_check(inp):
    """Expected closure: meets and top of the generators, pushed forward
    along the transitions sigma^(j-i), to a fixpoint."""
    P = inp.poset

    def meet_close(S):
        S = set(S) | {P.top()}
        while True:
            more = set()
            for a in S:
                for b in S:
                    lower = [c for c in P.labels if P.le(c, a) and P.le(c, b)]
                    more |= {m for m in lower
                             if all(P.le(c, m) for c in lower)}
            if more <= S:
                return S
            S |= more

    objs = [str(i) for i in range(inp.n)]
    cur = {A: meet_close(inp.generators[A]) for A in objs}
    while True:
        nxt = {B: meet_close(set().union(*(
            {P.apply(int(B) - int(A), x) for x in cur[A]}
            for A in objs if int(A) <= int(B)))) for B in objs}
        if nxt == cur:
            break
        cur = nxt
    fields = {"objects %s" % A: " ".join(sorted(cur[A])) for A in objs}
    fields["outcome"] = "pass"
    return _no_violation(expect(0, fields))


def cli_job(lib, name, argv, check):
    main = lib.cli.main
    return Job(name, lambda: invoke(main, argv), check, root="cli")


# Job counts are 25, 45 and 15: with 5 mod 10 jobs, the pooled median and
# 90th percentile fall in the middle of one job's samples, not on the gap
# between two jobs of different cost.
VERTICES = ("one", "two", "chain3", "diamond")


def verify_jobs(lib, gen):
    vertices = {s: gen.vertex(s) for s in VERTICES}
    diagrams = [
        ("consttwo", gen.power_diagram("consttwo", "chain", 3, "two", False).path,
         VERTICES),
        ("inclchain", gen.incl_chain(), VERTICES),
        ("swapchain", gen.power_diagram("swapchain", "chain", 3, "diamond",
                                        True).path, VERTICES[:3]),
        ("isotwo", gen.power_diagram("isotwo", "iso", 2, "two", False).path,
         VERTICES),
        ("isoswap", gen.power_diagram("isoswap", "iso", 2, "diamond", True).path,
         VERTICES[:3]),
        ("constvee", gen.power_diagram("constvee", "chain", 3, "vee", False).path,
         VERTICES[:2]),
        ("isowedge", gen.power_diagram("isowedge", "iso", 2, "wedge", False).path,
         VERTICES[:2]),
        ("constchain3", gen.power_diagram("constchain3", "chain", 3, "chain3",
                                          False).path, ("two",)),
    ]
    jobs = [cli_job(lib, "verify-bicolim %s %s" % (dname, v),
                    ["verify-bicolim", path, "--vertex", vertices[v]],
                    verify_check(site=False))
            for dname, path, verts in diagrams for v in verts]
    covered = gen.power_diagram("covereddiamond", "chain", 3, "diamond", False,
                                limits=True, covered=True, generators=True)
    for v in VERTICES[:2]:
        jobs.append(cli_job(lib, "verify-site covereddiamond %s" % v,
                            ["verify-site", covered.path, "--vertex",
                             vertices[v]],
                            verify_check(site=True)))
    return jobs


# (shape, n, swap) rungs of the construct ladder; every fiber is a
# meet-semilattice with top, so each rung also feeds site-colim and restrict
CONSTRUCT_LADDER = (
    ("diamond", 6, False), ("diamond", 9, True), ("bool3", 4, False),
    ("bool3", 3, True), ("chain3", 8, False), ("chain4", 5, False),
    ("two", 9, False), ("diamond", 3, True),
)
VALID = {"outcome": "pass", "violations": 0}


def construct_jobs(lib, gen):
    jobs = []
    for shape, n, swap in CONSTRUCT_LADDER:
        inp = gen.power_diagram(
            "%s%s%d" % ("swap" if swap else "const", shape, n), "chain", n,
            shape, swap, limits=True, covered=shape in ("diamond", "bool3"),
            generators=True)
        tag = "%s %s n=%d" % ("swap" if swap else "const", shape, n)
        seed = gen.rng.randrange(1000)
        jobs += [
            cli_job(lib, "colim " + tag, ["--seed", str(seed), "colim", inp.path],
                    colim_check(inp, seeded=True)),
            cli_job(lib, "site-colim " + tag, ["site-colim", inp.path],
                    colim_check(inp, seeded=False)),
            cli_job(lib, "restrict " + tag, ["restrict", inp.path],
                    restrict_check(inp)),
            cli_job(lib, "validate " + tag, ["validate", inp.path],
                    expect(0, VALID)),
        ]
    corpus = [
        ("consttwo", gen.power_diagram("consttwo", "chain", 3, "two", False)),
        ("swapchain", gen.power_diagram("swapchain", "chain", 3, "diamond",
                                        True)),
        ("covereddiamond", gen.power_diagram(
            "covereddiamond", "chain", 3, "diamond", False, limits=True,
            covered=True, generators=True)),
    ]
    for name, inp in corpus:
        jobs.append(cli_job(lib, "colim " + name, ["colim", inp.path],
                            colim_check(inp, seeded=False)))
        jobs.append(cli_job(lib, "validate " + name, ["validate", inp.path],
                            expect(0, VALID)))
    covered = corpus[-1][1]
    jobs.append(cli_job(lib, "restrict covereddiamond",
                        ["restrict", covered.path], restrict_check(covered)))
    # one -> two -> two: 1 + 2 + 2 objects; 3 morphisms between each pair of
    # the four two-objects' levels (12), 1 at o, and 6 between o and them,
    # as o goes to an endpoint of two that lies below (or above) 2 of the 4
    jobs.append(cli_job(lib, "colim inclchain", ["colim", gen.incl_chain()],
                        expect(0, {"outcome": "pass", "objects": 5,
                                   "morphisms": 19})))
    jobs.append(cli_job(lib, "colim notfiltered", ["colim", gen.not_filtered()],
                        expect(2, {"outcome": "error"})))
    sheaves, nonsheaf = gen.presheaf(doubled=False), gen.presheaf(doubled=True)
    jobs.append(cli_job(lib, "sheaf-check sheaves", ["sheaf-check", sheaves],
                        expect(0, {"outcome": "pass", "sheaf pt": "true"})))
    jobs.append(cli_job(lib, "sheaf-check nonsheaf", ["sheaf-check", nonsheaf],
                        expect(1, {"outcome": "fail",
                                   "sheaf doubletop": "false"})))
    for name, path in (("sheaves", sheaves), ("nonsheaf", nonsheaf)):
        jobs.append(cli_job(lib, "validate " + name, ["validate", path],
                            expect(0, VALID)))
    return jobs


# (diagram shape, n, swap, target shape): the colimit L of the diagram is
# equivalent to its fiber, so half the pairs have a witness (target = fiber)
# and half must be searched exhaustively (a target of the same size that is
# not isomorphic to the fiber)
SEARCH_PAIRS = (
    ("diamond", 3, True, "diamond"), ("diamond", 2, False, "zigzag"),
    ("chain3", 3, False, "chain3"), ("chain3", 3, False, "vee"),
    ("vee", 3, False, "vee"), ("wedge", 3, False, "chain3"),
    ("chain4", 2, False, "chain4"), ("diamond", 2, False, "fork"),
    ("wedge", 3, False, "wedge"), ("vee", 3, False, "wedge"),
    ("diamond", 2, True, "diamond"), ("chain4", 2, False, "diamond"),
    ("zigzag", 2, False, "zigzag"), ("zigzag", 2, False, "fork"),
    ("two", 4, False, "two"),
)


def search_jobs(lib, gen):
    jobs = []
    for shape, n, swap, target in SEARCH_PAIRS:
        inp = gen.power_diagram("d", "chain", n, shape, swap)
        block = lib.fixtures.parse(Path(inp.path).read_text())["d"]
        L = lib.colim.build_pseudocolimit(block.diagram).category
        Q = gen.poset(target, "Q")
        refl = poset_reflection(L)
        want = refl is not None and is_isomorphic(*refl, Q.size, Q.rel)
        jobs.append(Job("equivalence_witness %s%d %s -> %s"
                        % ("swap " if swap else "", n, shape, target),
                        _witness_run(lib, L, Q.cat), _witness_check(want)))
    return jobs


def _witness_run(lib, L, Q):
    core = lib.core
    return lambda: core.equivalence_witness(L, Q, core.Budget())


def _witness_check(want):
    def check(result):
        found = result.witness is not None
        if found != want:
            return "witness %s, expected %s" % (found, want)
        if result.exhausted == found:
            return "exhausted flag disagrees with the witness"
        return None
    return check


BUILDERS = {"verify": verify_jobs, "construct": construct_jobs,
            "search": search_jobs}
