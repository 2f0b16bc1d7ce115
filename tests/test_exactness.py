"""check_exact against the frozen exhaustive check in oracle_kernel.py.

Each image cone is decided by is_limiting_cone on the target: by a
down-set test when the target is thin, with no cone enumerated, and
exhaustively otherwise.  The target needs no limit assignment.  Both must
give the oracle's (ok, counterexample).  Each distinct limit, keyed by its
kind and its names, is decided once per category object, across parse-time
validation and every check_exact call.
"""

from collections import Counter

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import oracle_kernel as oracle
from conftest import FIXTURE_DIR
from sitecolim import limits, sites, standard
from sitecolim.cli import main
from sitecolim.colim import build_pseudocolimit, colim_limit_assignment
from sitecolim.cones import enumerate_pseudocones
from sitecolim.core import (FinCat, Functor, Presentation, build_category,
                            enumerate_functors, identity_functor,
                            validate_category, validate_functor)
from sitecolim.fixtures import CategoryBlock, DiagramBlock, parse
from sitecolim.limits import (LimitAssignment, check_exact, discrete_pair,
                              empty_diagram, parallel_pair,
                              validate_assignment)
from sitecolim.sites import SiteDiagram, build_colim_site
from strategies import fibers


def agrees(F, src, exhaustive_calls):
    """check_exact gives the oracle's answer, enumerating no cone when the
    target is thin; returns that answer."""
    before = len(exhaustive_calls)
    got = check_exact(F, src)
    assert len(exhaustive_calls) == before or not F.target._thin
    assert got == oracle.check_exact(F, src), F.name
    return got


def poset_limits(C):
    return standard.poset_limits(C, lambda a, b: bool(C.hom(a, b)))


def site_cases(diagram_file, vertex_file):
    """Every site-morphism leg and enumerated functor that verify-site
    checks for exactness, with its source assignment."""
    block = next(v for v in parse((FIXTURE_DIR / diagram_file).read_text())
                 .values() if isinstance(v, DiagramBlock))
    X = [v for v in parse((FIXTURE_DIR / vertex_file).read_text()).values()
         if isinstance(v, CategoryBlock)][-1].site
    D = SiteDiagram(block.diagram,
                    {A: b.site for A, b in block.fiber_blocks.items()})
    S, R = build_colim_site(D)
    cases = [(t, S.limits) for t in enumerate_functors(S.cat, X.cat)]
    for h in enumerate_pseudocones(D.diagram, X.cat):
        cases += [(h.legs[A], D.sites[A].limits) for A in h.legs]
    return cases


@pytest.mark.parametrize("name", ["consttwo.diag", "covereddiamond.diag",
                                  "inclchain.diag", "swapchain.diag"])
def test_corpus_transitions(name, exhaustive_calls):
    env = parse((FIXTURE_DIR / name).read_text())
    seen = 0
    for block in env.values():
        if not isinstance(block, DiagramBlock):
            continue
        dia, fl = block.diagram, block.fiber_blocks
        C1 = dia.index.cells1
        for u in dia.index.one_cells():
            src = fl[C1.mor_src[u]].limits
            if src is None:
                continue
            agrees(dia.on1[u], src, exhaustive_calls)
            seen += 1
    assert seen or name != "covereddiamond.diag"


@pytest.mark.parametrize("vertex, verdicts", [
    ("one.cat", {True}), ("two.cat", {True, False}),
    ("diamond.cat", {True, False})])
def test_corpus_site_morphisms(vertex, verdicts, exhaustive_calls):
    assert verdicts == {
        agrees(F, src, exhaustive_calls)[0]
        for F, src in site_cases("covereddiamond.diag", vertex)}


@pytest.mark.parametrize("build", [
    standard.const_two_diagram, standard.inclusion_chain_diagram,
    standard.diamond_chain_diagram, standard.swap_chain_diagram,
    standard.walking_iso_diagram], ids=lambda b: b.__name__)
def test_standard_diagrams(build, exhaustive_calls):
    """Transitions, the colimit's functors into small posets and the legs
    of every pseudocone into them."""
    dia = build()
    fl = {A: poset_limits(C) for A, C in dia.fibers.items()}
    C1 = dia.index.cells1
    for u in dia.index.one_cells():
        F = dia.on1[u]
        assert F.source is dia.fibers[C1.mor_src[u]]
        assert F.target is dia.fibers[C1.mor_tgt[u]]
        agrees(F, fl[C1.mor_src[u]], exhaustive_calls)
    R = build_pseudocolimit(dia)
    L = colim_limit_assignment(R, fl)
    verdicts = set()
    for X in (standard.one(), standard.two(), standard.diamond()):
        for t in enumerate_functors(R.category, X):
            verdicts.add(agrees(t, L, exhaustive_calls)[0])
        for h in enumerate_pseudocones(dia, X):
            for A, leg in h.legs.items():
                verdicts.add(agrees(leg, fl[A], exhaustive_calls)[0])
    assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# a non-exact functor for each limit kind


def finset_1x():
    """The full subcategory of finite sets on 1 and a two-element set X,
    with the terminal 1 as its only chosen limit.  Not thin: X has four
    endomorphisms."""
    C = build_category(Presentation(
        ("1", "X"),
        (("p0", "1", "X"), ("p1", "1", "X"), ("bang", "X", "1"),
         ("swap", "X", "X")),
        ((("p0", "bang"), ()), (("p1", "bang"), ()),
         (("swap", "swap"), ()), (("p0", "swap"), ("p1",)),
         (("p1", "swap"), ("p0",)), (("swap", "bang"), ("bang",)))),
        2, "finset_1x")
    return C, LimitAssignment(C, "1", {"1": "id_1", "X": "bang"})


def test_finset_is_not_thin():
    C, _ = finset_1x()
    assert len(C.hom("X", "X")) == 4
    assert C.hom("X", "1") == ("bang",) and len(C.hom("1", "X")) == 2


def test_point_to_two_element_set_is_not_exact(exhaustive_calls):
    """The mediator X -> 1 has a right inverse but no left inverse."""
    C, tl = finset_1x()
    assert validate_assignment(tl) == [] and exhaustive_calls
    one = standard.one()
    F = Functor("pick_X", one, C, {"o": "X"}, {"id_o": "id_X"})
    exhaustive_calls.clear()
    ok, bad = agrees(F, poset_limits(one), exhaustive_calls)
    assert not ok and bad == empty_diagram() and exhaustive_calls


def test_split_mono_into_a_product_is_not_exact(exhaustive_calls):
    """The mediator 1 -> X into the product X = X x 1 has a left inverse
    but no right inverse."""
    C, _ = finset_1x()
    S = build_category(Presentation(
        ("P", "A", "B"), (("pa", "P", "A"), ("pb", "P", "B"))), 1, "span")
    src = LimitAssignment(S, products={("A", "B"): ("P", "pa", "pb")})
    assert validate_assignment(src) == []
    F = Functor("point_of_X", S, C, {"P": "1", "A": "X", "B": "1"},
                {"id_P": "id_1", "id_A": "id_X", "id_B": "id_1",
                 "pa": "p0", "pb": "id_1"})
    exhaustive_calls.clear()
    ok, bad = agrees(F, src, exhaustive_calls)
    assert not ok and bad.nodes == {"l": "A", "r": "B"} and exhaustive_calls


def test_terminal_not_preserved(diamond, exhaustive_calls):
    const_bot = Functor("cbot", diamond, diamond,
                        {o: "bot" for o in diamond.objects},
                        {m: "id_bot" for m in diamond.morphisms()})
    dl = poset_limits(diamond)
    assert agrees(const_bot, dl, exhaustive_calls) == (
        False, empty_diagram())


def b_to_top(D):
    """The monotone map of the diamond sending b to top, fixing the rest:
    it keeps the terminal but not the meet of a and b."""
    objs = {"bot": "bot", "a": "a", "b": "top", "top": "top"}
    return Functor("b_top", D, D, objs,
                   {m: D.hom(objs[D.mor_src[m]], objs[D.mor_tgt[m]])[0]
                    for m in D.morphisms()})


def test_product_not_preserved(diamond, exhaustive_calls):
    dl = poset_limits(diamond)
    ok, bad = agrees(b_to_top(diamond), dl, exhaustive_calls)
    assert not ok and not bad.edges and len(bad.nodes) == 2


def walking_equalizer():
    """i : E -> A equalizing f, g : A -> B, and the functor into the same
    shape with f = g, where E is no longer the equalizer."""
    S = build_category(Presentation(
        ("E", "A", "B"), (("i", "E", "A"), ("f", "A", "B"), ("g", "A", "B")),
        ((("i", "f"), ("i", "g")),)), 2, "walking_equalizer")
    T = build_category(Presentation(
        ("E", "A", "B"), (("i", "E", "A"), ("f", "A", "B"))), 2, "merged")
    mor = {m: m for m in S.morphisms() if m in T.mor_src}
    mor["g"] = "f"
    mor.update({h: T.comp[("f", "i")] for h in S.hom("E", "B")})
    F = Functor("merge", S, T, {o: o for o in S.objects}, mor)
    src = LimitAssignment(S, equalizers={("f", "g"): ("E", "i")})
    return F, src


def test_equalizer_not_preserved(exhaustive_calls):
    """The source, with f and g parallel, is validated by enumeration; the
    thin target decides the image without it."""
    F, src = walking_equalizer()
    assert validate_assignment(src) == [] and exhaustive_calls
    exhaustive_calls.clear()
    ok, bad = agrees(F, src, exhaustive_calls)
    assert (ok, bad) == (False, parallel_pair(F.source, "f", "g"))
    assert exhaustive_calls == []


# ---------------------------------------------------------------------------
# no target assignment is read


def test_target_assignment_without_the_product(diamond, exhaustive_calls):
    """No assignment on the diamond holds the product that b_to_top fails
    to preserve; the thin target decides it without enumerating a cone."""
    dl = poset_limits(diamond)
    ok, bad = check_exact(b_to_top(diamond), dl)
    assert (ok, bad) == oracle.check_exact(b_to_top(diamond), dl) and not ok
    assert len(bad.nodes) == 2 and not bad.edges
    assert exhaustive_calls == []


def test_target_assignment_without_the_equalizer(exhaustive_calls):
    F, src = walking_equalizer()
    assert check_exact(F, src) == oracle.check_exact(F, src)
    assert exhaustive_calls == []


def test_other_categorys_limits_are_refused(two_cat, diamond):
    """Limits of a category other than F's source are refused, under
    `python -O` too, before any cone is read."""
    with pytest.raises(ValueError, match="^limits of diamond given for a "
                       "functor from two$"):
        check_exact(identity_functor(two_cat), poset_limits(diamond))


# ---------------------------------------------------------------------------
# each distinct limit is decided once per category object


def limit_key(D, cone):
    """The key under which check_exact and validate_assignment keep the
    verdict on the limit of D at `cone`."""
    legs = tuple(cone.legs[n] for n in sorted(cone.legs))
    if not D.nodes:
        return ("t", cone.apex)
    if not D.edges:
        return ("p", D.nodes["l"], D.nodes["r"], cone.apex) + legs
    return ("e", D.edges["f"][2], D.edges["g"][2], cone.apex) + legs


@pytest.fixture
def limit_tests(monkeypatch):
    """(category, key) of every is_limiting_cone call."""
    calls = []
    real = limits.is_limiting_cone

    def spy(C, D, cone):
        calls.append((C, limit_key(D, cone)))
        return real(C, D, cone)

    monkeypatch.setattr(limits, "is_limiting_cone", spy)
    return calls


def decided_twice(calls):
    """(category name, key) of each limit decided more than once on one
    category object.  `calls` holds the objects, so no id is reused."""
    counts = Counter((id(C), key) for C, key in calls)
    return sorted((C.name, key) for C, key in calls
                  if counts[(id(C), key)] > 1)


@pytest.mark.parametrize("vertex", ["one.cat", "two.cat", "diamond.cat"])
def test_one_decision_per_image_limit(vertex, limit_tests, monkeypatch):
    """Over one in-process verify-site run, parse-time validation and every
    check_exact call together decide each limit at most once per category
    object, some check_exact calls decide nothing at all, and each still
    gives the oracle's answer."""
    checked = []
    real = sites.check_exact

    def spy(F, src):
        before = len(limit_tests)
        got = real(F, src)
        checked.append((F, src, got, len(limit_tests) - before))
        return got

    monkeypatch.setattr(sites, "check_exact", spy)
    res = CliRunner().invoke(main, ["--fixture-dir", str(FIXTURE_DIR),
                                    "verify-site", "covereddiamond.diag",
                                    "--vertex", vertex])
    assert res.exit_code == 0, res.output
    assert checked and decided_twice(limit_tests) == []
    assert 0 in {decided for *_, decided in checked}
    for F, src, got, _ in checked:
        assert got == oracle.check_exact(F, src), F.name


def named_poset(name, arrows):
    """The thin category on the objects of `arrows` (name -> (source,
    target)), which must be closed under composition, with identities
    id_<object>."""
    objs = sorted({o for ends in arrows.values() for o in ends})
    ends = dict(arrows, **{"id_" + o: (o, o) for o in objs})
    named = {e: m for m, e in ends.items()}
    return FinCat(name, objs, {m: e[0] for m, e in ends.items()},
                  {m: e[1] for m, e in ends.items()},
                  {o: "id_" + o for o in objs},
                  {(g, f): named[(ends[f][0], ends[g][1])]
                   for f in ends for g in ends if ends[f][1] == ends[g][0]})


@pytest.mark.parametrize("first", ["low", "high"])
def test_verdicts_are_kept_per_category_object(first, limit_tests):
    """Two categories named c share every object and morphism name: P is
    the product of A and B in `low`, where W -> P, and not in `high`,
    where P -> W.  A verdict made on one is never read for the other,
    whichever is decided first."""
    arrows = {"pa": ("P", "A"), "pb": ("P", "B"), "wa": ("W", "A"),
              "wb": ("W", "B")}
    low = named_poset("c", dict(arrows, w=("W", "P")))
    high = named_poset("c", dict(arrows, w=("P", "W")))
    assert validate_category(low) == validate_category(high) == []
    assert low.objects == high.objects and low != high
    assert sorted(low.mor_src) == sorted(high.mor_src)
    span = named_poset("span", {"pa": ("P", "A"), "pb": ("P", "B")})
    src = LimitAssignment(span, products={("A", "B"): ("P", "pa", "pb")})
    cases = {"low": (low, [], (True, None)),
             "high": (high, ["chosen product of (A, B) is not a product"],
                      (False, discrete_pair("A", "B")))}
    for name in (first, {"low": "high", "high": "low"}[first]):
        C, violations, exact = cases[name]
        F = Functor("into_" + name, span, C, {o: o for o in span.objects},
                    {m: m for m in span.mor_src})
        assert check_exact(F, src) == oracle.check_exact(F, src) == exact
        assert validate_assignment(LimitAssignment(
            C, products=src.products)) == violations
    assert len(limit_tests) == 2 and decided_twice(limit_tests) == []


def finset_points():
    """one -> finset_1x at X, which keeps no terminal, and at 1, which is
    exact, with one's limits."""
    C, _ = finset_1x()
    one = standard.one()
    return (poset_limits(one),
            Functor("pick_X", one, C, {"o": "X"}, {"id_o": "id_X"}),
            Functor("pick_1", one, C, {"o": "1"}, {"id_o": "id_1"}))


def diamond_maps():
    """b_to_top, which keeps no meet of a and b, and the identity, with
    the diamond's limits."""
    D = standard.diamond()
    return poset_limits(D), b_to_top(D), identity_functor(D)


@pytest.mark.parametrize("case", [diamond_maps, finset_points],
                         ids=lambda c: c.__name__)
def test_a_failure_is_never_kept_as_a_pass(case, limit_tests):
    """A non-exact functor checked twice, then again after an exact
    functor into the same target object has filled its table, fails at
    the oracle's first failing diagram every time."""
    src, bad, good = case()
    assert bad.target is good.target
    for F in (bad, bad, good, bad):
        got = check_exact(F, src)
        assert got == oracle.check_exact(F, src)
        assert got[0] == (F is good) and (got[1] is None) == got[0]
    assert decided_twice(limit_tests) == []


def test_a_non_functor_leaves_the_table_sound():
    """A map that sends the equalized pair's domain A to B, as no functor
    does, is checked on the image its key names, so the identity checked
    after it into the same object still gets the oracle's answer."""
    _, src = walking_equalizer()
    S = src.cat
    ident = identity_functor(S)
    bad = Functor("bad", S, S, dict(ident.obj_map, A="B"), ident.mor_map)
    assert validate_functor(bad)
    check_exact(bad, src)
    assert check_exact(ident, src) == oracle.check_exact(ident, src) == (
        True, None)


def test_kinds_are_keyed_apart(one_cat, limit_tests):
    """Into one object whose identity bears the object's name, the
    terminal and the product of `one` and the equalizer of the walking
    equalizer's pair (f, g) have the same image names; only their kind
    tells them apart, so three cones are decided, not two.  `one`'s own
    equalizer, of (id_o, id_o) by an isomorphism, needs no decision."""
    src = poset_limits(one_cat)
    assert (src.terminal, src.products, src.equalizers) == (
        "o", {("o", "o"): ("o", "id_o", "id_o")},
        {("id_o", "id_o"): ("o", "id_o")})
    x = FinCat("x", ("x",), {"x": "x"}, {"x": "x"}, {"x": "x"},
               {("x", "x"): "x"})
    F = Functor("to_x", one_cat, x, {"o": "x"}, {"id_o": "x"})
    assert check_exact(F, src) == oracle.check_exact(F, src) == (True, None)
    _, eq = walking_equalizer()
    G = Functor("eq_to_x", eq.cat, x, {o: "x" for o in eq.cat.objects},
                {m: "x" for m in eq.cat.mor_src})
    assert check_exact(G, eq) == oracle.check_exact(G, eq) == (True, None)
    assert sorted(key for _, key in limit_tests) == [
        ("e",) + ("x",) * 5, ("p",) + ("x",) * 5, ("t", "x")]


def test_equalizers_on_a_non_thin_source(limit_tests):
    """On finset_1x, the pair (swap, swap) chosen with the isomorphism
    swap needs no decision.  With the non-isomorphism p0, or with swap
    at an apex it does not leave, it is decided and fails.  The pair
    (id_X, p0 . bang), whose equalizer p0 is a real one, is decided and
    passes, and (id_X, swap) with the isomorphism id_X, which does not
    equalize it, is decided and fails, as the oracle says."""
    C, _ = finset_1x()
    const0 = C.comp[("p0", "bang")]
    F = identity_functor(C)

    def decided(equalizers):
        limit_tests.clear()
        src = LimitAssignment(C, equalizers=equalizers)
        got = check_exact(F, src)
        assert got == oracle.check_exact(F, src)
        return got, [key for _, key in limit_tests]

    assert decided({("swap", "swap"): ("X", "swap"),
                    ("id_X", const0): ("1", "p0")}) == (
        (True, None), [("e", "id_X", const0, "1", "p0", "p0")])
    assert decided({("swap", "swap"): ("1", "p0")}) == (
        (False, parallel_pair(C, "swap", "swap")),
        [("e", "swap", "swap", "1", "p0", "p1")])
    assert decided({("swap", "swap"): ("1", "swap")}) == (
        (False, parallel_pair(C, "swap", "swap")),
        [("e", "swap", "swap", "1", "swap", "id_X")])
    assert decided({("id_X", "swap"): ("X", "id_X")}) == (
        (False, parallel_pair(C, "id_X", "swap")),
        [("e", "id_X", "swap", "X", "id_X", "id_X")])


def test_first_failure_in_sorted_order(diamond):
    """b_to_top keeps neither the product of (a, b) nor that of (b, a).
    Listed in reverse, the products still fail at (a, b), the first in
    sorted order."""
    src = poset_limits(diamond)
    failing = [ab for ab in src.products
               if not check_exact(b_to_top(diamond), LimitAssignment(
                   diamond, products={ab: src.products[ab]}))[0]]
    assert sorted(failing) == [("a", "b"), ("b", "a")]
    backwards = LimitAssignment(diamond, src.terminal, src.tmap,
                                dict(reversed(src.products.items())),
                                dict(reversed(src.equalizers.items())))
    assert list(backwards.products)[-1] < list(backwards.products)[0]
    for limits_ in (src, backwards):
        got = check_exact(b_to_top(diamond), limits_)
        assert got == oracle.check_exact(b_to_top(diamond), limits_) == (
            False, discrete_pair("a", "b"))


def test_entries_after_a_failure_are_not_read(diamond):
    """A product and an equalizer that name what b_to_top cannot map, both
    sorted after the failing product of (a, b), are never read: the check
    still returns (a, b), and raises only once (a, b) passes."""
    src = poset_limits(diamond)
    odd = LimitAssignment(diamond, src.terminal, src.tmap,
                          {**src.products, ("zz", "zz"): ("zz", "p", "q")},
                          {**src.equalizers, ("zz", "zz"): ("zz", "zz")})
    assert check_exact(b_to_top(diamond), odd) == (
        False, discrete_pair("a", "b"))
    with pytest.raises(KeyError):
        check_exact(identity_functor(diamond), odd)


def test_legs_are_keyed(exhaustive_calls):
    """Two products of the same image pair with the same apex and first
    leg: the first second leg is id_X, a product 1 x X, the second a
    constant map, which is none.  Only the legs tell them apart."""
    C, _ = finset_1x()
    S = build_category(Presentation(
        ("A", "A2", "B", "B2", "P", "Q"),
        (("pa", "P", "A"), ("pb", "P", "B"), ("qa", "Q", "A2"),
         ("qb", "Q", "B2"))), 1, "two_spans")
    src = LimitAssignment(S, products={("A", "B"): ("P", "pa", "pb"),
                                       ("A2", "B2"): ("Q", "qa", "qb")})
    assert validate_assignment(src) == []
    obj = {"A": "1", "A2": "1", "B": "X", "B2": "X", "P": "X", "Q": "X"}
    gen = {"pa": "bang", "qa": "bang", "pb": "id_X",
           "qb": C.comp[("p0", "bang")]}
    F = Functor("legs", S, C, obj,
                {m: gen.get(m) or C.identities[obj[S.mor_src[m]]]
                 for m in S.morphisms()})
    ok, bad = agrees(F, src, exhaustive_calls)
    assert not ok and bad == discrete_pair("A2", "B2")

def is_poset(C):
    return C._thin and not any(a != b and C.hom(a, b) and C.hom(b, a)
                               for a in C.objects for b in C.objects)


def is_meet_semilattice(C):
    """A poset with a top and a meet of every pair: poset_limits' input."""
    def greatest(xs):
        return [m for m in xs if all(C.hom(x, m) for x in xs)]

    return is_poset(C) and len(greatest(C.objects)) == 1 and all(
        len(greatest([c for c in C.objects if C.hom(c, a) and C.hom(c, b)]))
        == 1 for a in C.objects for b in C.objects)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(fibers("S").filter(is_meet_semilattice), fibers("T").filter(is_poset))
def test_poset_functors_match_oracle(S, T):
    src = poset_limits(S)
    for F in enumerate_functors(S, T):
        assert check_exact(F, src) == oracle.check_exact(F, src), F.name


@settings(max_examples=40, deadline=None, derandomize=True)
@given(fibers("T"), st.lists(fibers("S").filter(is_meet_semilattice),
                             min_size=1, max_size=3),
       st.booleans(), st.randoms(use_true_random=False))
def test_warm_table_matches_oracle(T, sources, validate_first, order):
    """Functors from a few meet-semilattices into one target object, in a
    drawn order and then once more: each check_exact call, made on a
    verdict table that T's own validation and the earlier calls have
    filled, gives the oracle's answer."""
    if validate_first and is_meet_semilattice(T):
        assert validate_assignment(poset_limits(T)) == []
    cases = [(F, src) for S in sources for src in [poset_limits(S)]
             for F in enumerate_functors(S, T)]
    order.shuffle(cases)
    for F, src in cases + cases:
        assert check_exact(F, src) == oracle.check_exact(F, src), F.name
