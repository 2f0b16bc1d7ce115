"""validate_assignment and is_limiting_cone against the frozen exhaustive
versions in oracle_kernel.py.

On a thin category, complete assignment or partial, each chosen cone is
decided by a down-set test: every object with a morphism to each node of
the diagram must have one to the apex.  On any other category the
universal property is checked exhaustively.  Both must give the oracle's
violation list, item for item, and the oracle's verdict on every cone.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

import itertools

import oracle_kernel as oracle
from conftest import FIXTURE_DIR
from sitecolim import standard
from sitecolim.colim import build_pseudocolimit
from sitecolim.fixtures import CategoryBlock, DiagramBlock, parse
from sitecolim.limits import (Cone, LimitAssignment, discrete_pair,
                              empty_diagram, is_limiting_cone, parallel_pair,
                              validate_assignment)
from strategies import fibers, posets_with_top
from test_exactness import poset_limits
from test_kernel import z2
from test_limits import _with, split_idempotent


def corpus_assignments():
    """(file:category, assignment) for every distinct limit assignment a
    corpus file gives a category or a fiber."""
    out = {}
    for path in sorted(FIXTURE_DIR.iterdir()):
        if path.suffix not in (".cat", ".diag", ".pre", ".2cat"):
            continue
        for v in parse(path.read_text()).values():
            blocks = ([v] if isinstance(v, CategoryBlock)
                      else list(v.fiber_blocks.values())
                      if isinstance(v, DiagramBlock) else [])
            for b in blocks:
                if b.limits is not None:
                    out.setdefault(id(b.limits), (
                        "%s:%s" % (path.name, b.cat.name), b.limits))
    return list(out.values())


def boolean_cat(k):
    """The subsets of {0, ..., k-1} under inclusion, as bit masks."""
    return standard.poset_category(
        "bool%d" % k, ["s%d" % i for i in range(2 ** k)],
        lambda a, b: int(a[1:]) & ~int(b[1:]) == 0)


POSETS = [standard.two(), standard.chain_cat(2), standard.chain_cat(3),
          standard.chain_cat(4), standard.diamond(), boolean_cat(3)]


NAMED = corpus_assignments() + [(C.name, poset_limits(C)) for C in POSETS]


def _agree(A):
    got = validate_assignment(A)
    assert got == oracle.validate_assignment(A)
    return got


@pytest.mark.parametrize("A", [A for _, A in NAMED],
                         ids=[label for label, _ in NAMED])
def test_named_assignments_match_reference(A):
    assert A.is_complete()
    assert _agree(A) == []


def _cone_at(C, apex, *nodes):
    """Legs from apex to each node: the one morphism where there is one,
    else the apex's identity, which has the wrong target."""
    return tuple((C.hom(apex, n) or (C.identities[apex],))[0] for n in nodes)


def _replaced_entry(C, data, A):
    """One entry of A, moved to an object drawn from C, with legs from
    _cone_at: (field, key, value)."""
    apex = data.draw(st.sampled_from(C.objects))
    kind = data.draw(st.sampled_from(["terminal", "products", "equalizers"]))
    if kind == "terminal":
        return "terminal", None, apex
    if kind == "products":
        a, b = data.draw(st.sampled_from(sorted(A.products)))
        return "products", (a, b), (apex, *_cone_at(C, apex, a, b))
    f, g = data.draw(st.sampled_from(sorted(A.equalizers)))
    return "equalizers", (f, g), (apex, *_cone_at(C, apex, C.mor_src[f]))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([A for _, A in NAMED]), st.data())
def test_moved_entries_match_reference(A, data):
    """Up to three chosen cones moved to other apexes: lower bounds that
    are not the greatest, apexes that are not lower bounds, legs with the
    wrong target, and terminals below the top."""
    C = A.cat
    A = dataclasses.replace(A, products=dict(A.products),
                            equalizers=dict(A.equalizers))
    for _ in range(data.draw(st.integers(1, 3))):
        field, key, value = _replaced_entry(C, data, A)
        if field == "terminal":
            A.terminal = value
        else:
            getattr(A, field)[key] = value
    assert A.is_complete()
    _agree(A)


def _drawn_assignment(C, data):
    """An assignment on C with every entry at an apex drawn from C, then
    with a drawn set of entries dropped (often none, so complete)."""
    objs = C.objects
    top = data.draw(st.sampled_from(objs))
    tmap = {o: _cone_at(C, o, top)[0] for o in objs}
    products = {(a, b): (p, *_cone_at(C, p, a, b))
                for a in objs for b in objs
                for p in [data.draw(st.sampled_from(objs))]}
    equalizers = {(f, g): (e, *_cone_at(C, e, C.mor_src[f]))
                  for f in C.morphisms()
                  for g in C.hom(C.mor_src[f], C.mor_tgt[f])
                  for e in [data.draw(st.sampled_from(objs))]}
    A = LimitAssignment(C, top, tmap, products, equalizers)
    if data.draw(st.booleans()):
        for table in (A.tmap, A.products, A.equalizers):
            for key in data.draw(st.lists(st.sampled_from(sorted(table)),
                                          max_size=2)):
                table.pop(key, None)
    return A


@settings(max_examples=150, deadline=None)
@given(st.one_of(fibers("C"), posets_with_top()), st.data())
def test_drawn_assignments_match_reference(C, data):
    """The fibers and poset indices that the random diagrams draw, thin or
    not, with complete and partial assignments."""
    _agree(_drawn_assignment(C, data))


@pytest.mark.parametrize("C, changes, message", [
    (standard.chain_cat(4), {"products": {("2", "3"): ("0", "0_2", "0_3")}},
     "chosen product of (2, 3) is not a product"),
    (boolean_cat(3), {"products": {("s3", "s5"): ("s0", "s0_s3", "s0_s5")}},
     "chosen product of (s3, s5) is not a product"),
    (standard.diamond(), {"terminal": "a"},
     "chosen terminal a is not terminal"),
    (standard.diamond(),
     {"equalizers": {("a_top", "a_top"): ("bot", "bot_a")}},
     "chosen equalizer of (a_top, a_top) is not an equalizer"),
    (standard.diamond(),
     {"products": {("a", "b"): ("bot", "bot_a", "bot_a")}},
     "chosen product of (a, b) is not a product"),
], ids=["lower bound, not greatest", "bool3 meet", "terminal below top",
        "equalizer below", "leg with wrong target"])
def test_broken_complete_assignments(C, changes, message):
    A = _with(poset_limits(C), **changes)
    assert A.is_complete()
    assert message in _agree(A)


@pytest.mark.parametrize("C", POSETS, ids=lambda C: C.name)
def test_complete_thin_assignment_checks_no_cone_exhaustively(
        C, exhaustive_calls):
    """An assignment on a thin category is decided without enumerating a
    cone, complete or partial, valid or broken."""
    A = poset_limits(C)
    assert validate_assignment(A) == []
    assert validate_assignment(_with(A, terminal=C.objects[0])) != []
    partial = dataclasses.replace(A, equalizers={})
    assert validate_assignment(partial) == []
    assert exhaustive_calls == []


def test_partial_assignment_on_z2_is_enumerated(exhaustive_calls):
    """On a category that is not thin the cones are enumerated: the one
    object of z2 has two endomorphisms, so it is neither terminal nor the
    product of itself with itself."""
    Z = z2()
    A = LimitAssignment(Z, "*", products={("*", "*"): ("*", "e", "e")})
    assert _agree(A) == ["chosen terminal * is not terminal",
                         "chosen product of (*, *) is not a product"]
    assert len(exhaustive_calls) == 2


# ---------------------------------------------------------------------------
# is_limiting_cone on every cone over every small diagram


def covereddiamond_colimit():
    block = next(v for v in parse((FIXTURE_DIR / "covereddiamond.diag")
                                  .read_text()).values()
                 if isinstance(v, DiagramBlock))
    return build_pseudocolimit(block.diagram).category


THIN = POSETS + [covereddiamond_colimit()]
NOT_THIN = [z2(), standard.parallel_pair_cat(), split_idempotent()]


def small_diagrams(C):
    """The empty diagram, every discrete pair and every parallel pair."""
    yield empty_diagram()
    for a, b in itertools.product(C.objects, repeat=2):
        yield discrete_pair(a, b)
    for f in C.morphisms():
        for g in C.hom(C.mor_src[f], C.mor_tgt[f]):
            yield parallel_pair(C, f, g)


@pytest.mark.parametrize("C", THIN + NOT_THIN, ids=lambda C: C.name)
def test_limiting_cones_match_reference(C, exhaustive_calls):
    """Every apex, every choice of legs in the hom-sets into the nodes, and
    an apex that is not an object, over the empty diagram and with each
    object's identity as every leg.  The cones are enumerated only when C
    is not thin."""
    verdicts = set()
    for D in small_diagrams(C):
        nodes = sorted(D.nodes)
        cones = [Cone("zz", {})] + [
            Cone("zz", {n: C.identities[D.nodes[n]] for n in nodes})]
        for w in C.objects:
            for legs in itertools.product(
                    *(C.hom(w, D.nodes[n]) for n in nodes)):
                cones.append(Cone(w, dict(zip(nodes, legs))))
        for cone in cones:
            got = is_limiting_cone(C, D, cone)
            assert got == oracle.is_limiting_cone(C, D, cone), (D, cone)
            verdicts.add(got)
    assert verdicts == {True, False}
    assert bool(exhaustive_calls) == (C in NOT_THIN)
