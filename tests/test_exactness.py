"""check_exact with a target assignment against the frozen exhaustive check
in oracle_kernel.py.

With a validated target assignment, each image cone is decided by one
question: is its mediator into the target's chosen limit of the same
diagram an isomorphism?  Without one (no assignment, an assignment on
another category of the same name, or a missing entry) the image cone is
decided exhaustively.  Both must give the oracle's (ok, counterexample).
"""

import pytest

import oracle_kernel as oracle
from conftest import FIXTURE_DIR
from sitecolim import standard
from sitecolim.colim import build_pseudocolimit, colim_limit_assignment
from sitecolim.cones import enumerate_pseudocones
from sitecolim.core import (Functor, Presentation, build_category,
                            enumerate_functors, identity_functor)
from sitecolim.fixtures import CategoryBlock, DiagramBlock, parse
from sitecolim.limits import (LimitAssignment, check_exact, empty_diagram,
                              parallel_pair, validate_assignment)
from sitecolim.sites import SiteDiagram, build_colim_site


def agrees(F, src, tgt, exhaustive_calls):
    """check_exact with the target assignment gives the oracle's answer
    without an exhaustive check; returns that answer."""
    assert validate_assignment(tgt) == []
    before = len(exhaustive_calls)
    got = check_exact(F, src, tgt)
    assert len(exhaustive_calls) == before
    assert got == oracle.check_exact(F, src), F.name
    return got


def poset_limits(C):
    return standard.poset_limits(C, lambda a, b: bool(C.hom(a, b)))


def site_cases(diagram_file, vertex_file):
    """Every site-morphism leg and enumerated functor that verify-site
    checks for exactness, with source and target assignments."""
    block = next(v for v in parse((FIXTURE_DIR / diagram_file).read_text())
                 .values() if isinstance(v, DiagramBlock))
    X = [v for v in parse((FIXTURE_DIR / vertex_file).read_text()).values()
         if isinstance(v, CategoryBlock)][-1].site()
    D = SiteDiagram(block.diagram,
                    {A: b.site() for A, b in block.fiber_blocks.items()})
    S, R = build_colim_site(D)
    cases = [(t, S.limits, X.limits)
             for t in enumerate_functors(S.cat, X.cat)]
    for h in enumerate_pseudocones(D.diagram, X.cat):
        cases += [(h.legs[A], D.sites[A].limits, X.limits) for A in h.legs]
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
            tgt = fl[C1.mor_tgt[u]].limits
            if src is None or tgt is None:
                continue
            assert tgt.cat is dia.on1[u].target
            agrees(dia.on1[u], src, tgt, exhaustive_calls)
            seen += 1
    assert seen or name != "covereddiamond.diag"


@pytest.mark.parametrize("vertex, verdicts", [
    ("one.cat", {True}), ("two.cat", {True, False}),
    ("diamond.cat", {True, False})])
def test_corpus_site_morphisms(vertex, verdicts, exhaustive_calls):
    assert verdicts == {
        agrees(F, src, tgt, exhaustive_calls)[0]
        for F, src, tgt in site_cases("covereddiamond.diag", vertex)}


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
        agrees(F, fl[C1.mor_src[u]], fl[C1.mor_tgt[u]], exhaustive_calls)
    R = build_pseudocolimit(dia)
    L = colim_limit_assignment(R, fl)
    verdicts = set()
    for X in (standard.one(), standard.two(), standard.diamond()):
        XL = poset_limits(X)
        for t in enumerate_functors(R.category, X):
            verdicts.add(agrees(t, L, XL, exhaustive_calls)[0])
        for h in enumerate_pseudocones(dia, X):
            for A, leg in h.legs.items():
                verdicts.add(agrees(leg, fl[A], XL, exhaustive_calls)[0])
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
    one = standard.one()
    F = Functor("pick_X", one, C, {"o": "X"}, {"id_o": "id_X"})
    ok, bad = agrees(F, poset_limits(one), tl, exhaustive_calls)
    assert not ok and bad == empty_diagram()


def test_split_mono_into_a_product_is_not_exact(exhaustive_calls):
    """The mediator 1 -> X into the product X = X x 1 has a left inverse
    but no right inverse."""
    C, tl = finset_1x()
    tl.products[("X", "1")] = ("X", "id_X", "bang")
    S = build_category(Presentation(
        ("P", "A", "B"), (("pa", "P", "A"), ("pb", "P", "B"))), 1, "span")
    src = LimitAssignment(S, products={("A", "B"): ("P", "pa", "pb")})
    assert validate_assignment(src) == []
    F = Functor("point_of_X", S, C, {"P": "1", "A": "X", "B": "1"},
                {"id_P": "id_1", "id_A": "id_X", "id_B": "id_1",
                 "pa": "p0", "pb": "id_1"})
    ok, bad = agrees(F, src, tl, exhaustive_calls)
    assert not ok and bad.nodes == {"l": "A", "r": "B"}


def test_terminal_not_preserved(diamond, exhaustive_calls):
    const_bot = Functor("cbot", diamond, diamond,
                        {o: "bot" for o in diamond.objects},
                        {m: "id_bot" for m in diamond.morphisms()})
    dl = poset_limits(diamond)
    assert agrees(const_bot, dl, dl, exhaustive_calls) == (
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
    ok, bad = agrees(b_to_top(diamond), dl, dl, exhaustive_calls)
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
    tgt = LimitAssignment(T, equalizers={("f", "f"): ("A", "id_A")})
    return F, src, tgt


def test_equalizer_not_preserved(exhaustive_calls):
    F, src, tgt = walking_equalizer()
    assert validate_assignment(src) == []
    ok, bad = agrees(F, src, tgt, exhaustive_calls)
    assert (ok, bad) == (False, parallel_pair(F.source, "f", "g"))


# ---------------------------------------------------------------------------
# fallbacks to the exhaustive check


def test_no_target_assignment(diamond, exhaustive_calls):
    dl = poset_limits(diamond)
    F = b_to_top(diamond)
    assert check_exact(F, dl, None) == oracle.check_exact(F, dl)
    assert exhaustive_calls


def test_target_assignment_on_a_namesake(diamond, exhaustive_calls):
    other = poset_limits(standard.diamond())
    assert other.cat is not diamond and other.cat.name == diamond.name
    assert validate_assignment(other) == []
    dl = poset_limits(diamond)
    for F in (identity_functor(diamond), b_to_top(diamond)):
        exhaustive_calls.clear()
        assert check_exact(F, dl, other) == oracle.check_exact(F, dl)
        assert exhaustive_calls


def test_target_assignment_without_the_product(diamond, exhaustive_calls):
    dl = poset_limits(diamond)
    partial = LimitAssignment(diamond, dl.terminal, dict(dl.tmap))
    assert validate_assignment(partial) == []
    exhaustive_calls.clear()
    F = b_to_top(diamond)
    ok, bad = check_exact(F, dl, partial)
    assert (ok, bad) == oracle.check_exact(F, dl) and not ok
    assert exhaustive_calls and all(len(D.nodes) == 2 and not D.edges
                                    for _, D, _ in exhaustive_calls)


def test_target_assignment_without_the_equalizer(exhaustive_calls):
    F, src, tgt = walking_equalizer()
    partial = LimitAssignment(tgt.cat)
    assert validate_assignment(partial) == []
    exhaustive_calls.clear()
    assert check_exact(F, src, partial) == oracle.check_exact(F, src)
    assert len(exhaustive_calls) == 1

