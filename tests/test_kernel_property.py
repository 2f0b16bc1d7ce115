"""Property tests against the frozen reference code in oracle_kernel.py:
the watch-list kernel enumerates the same functors and natural
transformations, in the same order and under the same names, and charges
the same Budget; the indexed validators report the same violations, in the
same order, on randomly broken tables, and reject every broken 2-category
table that the old table-by-table validator rejected."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import (assume, given, settings,  # noqa: E402
                        strategies as st)

import oracle_kernel as oracle  # noqa: E402
from sitecolim import standard  # noqa: E402
from sitecolim.core import (Budget, FinCat, enumerate_functors,  # noqa: E402
                            enumerate_nat_trans, validate_category)
from sitecolim.errors import BudgetExceeded  # noqa: E402
from sitecolim.twocat import (TwoCat, TwoDiagram,  # noqa: E402
                              check_two_functor, two_cat_from_cat,
                              validate_two_cat)
from test_kernel import walking_iso_flip, z2  # noqa: E402
from test_twocat import walking_two_cell, z2_loop_twocat  # noqa: E402

NAMED = [standard.one(), standard.two(), standard.chaotic_pair(),
         standard.diamond(), oracle.parallel_pair_cat(),
         standard.chain_cat(3)]


@st.composite
def posets(draw):
    """A poset on up to four relabelled elements, so that the sorted
    variable order differs from the order of the relation."""
    n = draw(st.integers(1, 4))
    labels = draw(st.permutations("pqrs"))[:n]
    below = draw(st.sets(st.tuples(st.integers(0, n - 1),
                                   st.integers(0, n - 1))
                         .filter(lambda ij: ij[0] < ij[1])))
    le = {(i, i) for i in range(n)} | below
    for k in range(n):  # transitive closure
        le |= {(i, j) for i, a in le for b, j in le if a == b == k}
    rank = {x: i for i, x in enumerate(labels)}
    return standard.poset_category("P", labels,
                                   lambda x, y: (rank[x], rank[y]) in le)


categories = st.one_of(st.sampled_from(NAMED), posets())


def _functors(F):
    return (F.name, list(F.obj_map.items()), list(F.mor_map.items()))


@settings(max_examples=80, deadline=None)
@given(categories, categories)
def test_functors_match_reference(C, D):
    new, old = Budget(), Budget()
    got = [_functors(F) for F in enumerate_functors(C, D, new)]
    want = [_functors(F) for F in oracle.enumerate_functors(C, D, old)]
    assert got == want
    assert new.used == old.used


@settings(max_examples=80, deadline=None)
@given(categories, categories, st.data())
def test_nat_trans_match_reference(C, D, data):
    functors = oracle.enumerate_functors(C, D)
    F = data.draw(st.sampled_from(functors))
    G = data.draw(st.sampled_from(functors))
    new, old = Budget(), Budget()
    got = [(a.name, list(a.components.items()))
           for a in enumerate_nat_trans(F, G, new)]
    want = [(a.name, list(a.components.items()))
            for a in oracle.enumerate_nat_trans(F, G, old)]
    assert got == want
    assert new.used == old.used


# targets on both sides of the kernel's thin switch: posets and
# chaotic_pair (every nonempty hom-set a singleton, though not a poset),
# and parallel_pair and z2, which have parallel morphisms
thin_or_not = st.one_of(posets(), st.sampled_from(
    [standard.chaotic_pair(), oracle.parallel_pair_cat(), z2()]))


def _overrun(run, limit):
    """What run(budget) yields before a Budget of `limit` runs out, and
    the candidates used by then."""
    bud, got = Budget(limit), []
    with pytest.raises(BudgetExceeded):
        for x in run(bud):
            got.append(x)
    return got, bud.used


@settings(max_examples=80, deadline=None)
@given(categories, thin_or_not, st.data())
def test_functor_budget_overrun_matches_reference(C, D, data):
    full = Budget()
    want = [_functors(F) for F in oracle.enumerate_functors(C, D, full)]
    limit = data.draw(st.integers(0, full.used - 1))
    got, used = _overrun(lambda bud: enumerate_functors(C, D, bud), limit)
    _, old = _overrun(lambda bud: oracle.enumerate_functors(C, D, bud),
                      limit)
    assert used == old == limit + 1
    assert [_functors(F) for F in got] == want[:len(got)]


@settings(max_examples=80, deadline=None)
@given(categories, thin_or_not, st.data())
def test_nat_trans_budget_overrun_matches_reference(C, D, data):
    functors = oracle.enumerate_functors(C, D)
    F = data.draw(st.sampled_from(functors))
    G = data.draw(st.sampled_from(functors))
    full = Budget()
    oracle.enumerate_nat_trans(F, G, full)
    assume(full.used > 0)  # else the first component has no candidate
    limit = data.draw(st.integers(0, full.used - 1))
    _, used = _overrun(lambda bud: enumerate_nat_trans(F, G, bud), limit)
    _, old = _overrun(lambda bud: oracle.enumerate_nat_trans(F, G, bud),
                      limit)
    assert used == old == limit + 1


# ---------------------------------------------------------------------------
# the indexed validators give the reference messages, in order, on broken
# tables too

def _outcome(fn, x):
    try:
        return fn(x)
    except (KeyError, TypeError) as exc:
        return type(exc)


def _pick(data, items):
    return data.draw(st.sampled_from(sorted(items)))


def _mutated_category(C, data):
    """C with one to three random edits of its tables."""
    mor_src, mor_tgt = dict(C.mor_src), dict(C.mor_tgt)
    identities, comp = dict(C.identities), dict(C.comp)
    mors, objs = C.morphisms(), C.objects
    for _ in range(data.draw(st.integers(1, 3))):
        kind = data.draw(st.sampled_from(
            ["drop", "redirect", "spurious", "retarget", "identity"]))
        if kind == "drop" and comp:
            del comp[_pick(data, comp)]
        elif kind == "redirect" and comp:
            comp[_pick(data, comp)] = _pick(data, mors)
        elif kind == "spurious":
            comp[(_pick(data, mors), _pick(data, mors))] = _pick(data, mors)
        elif kind == "retarget":
            mor_tgt[_pick(data, mors)] = _pick(data, objs)
        elif kind == "identity":
            identities[_pick(data, objs)] = _pick(data, mors)
    return FinCat(C.name, objs, mor_src, mor_tgt, identities, comp)


@settings(max_examples=150, deadline=None)
@given(categories, st.data())
def test_validate_category_matches_reference(C, data):
    broken = _mutated_category(C, data)
    assert (_outcome(validate_category, broken)
            == _outcome(oracle.validate_category, broken))


TWO_CATS = [standard.chain3_twocat(), standard.walking_iso_twocat(),
            standard.discrete_pair_twocat(),
            two_cat_from_cat(standard.diamond(), "diamond"),
            z2_loop_twocat(), walking_two_cell()]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(TWO_CATS), st.data())
def test_validate_two_cat_matches_reference(A, data):
    cells1 = A.cells1
    two_src, two_tgt = dict(A.two_src), dict(A.two_tgt)
    two_id, vcomp, hcomp = dict(A.two_id), dict(A.vcomp), dict(A.hcomp)
    cells, ones = A.two_cells(), A.one_cells()
    for _ in range(data.draw(st.integers(1, 3))):
        kind = data.draw(st.sampled_from(
            ["cells1", "boundary", "identity", "vdrop", "vspurious",
             "vredirect", "hdrop", "hspurious", "hredirect"]))
        table = hcomp if kind[0] == "h" else vcomp
        if kind == "cells1":
            cells1 = _mutated_category(cells1, data)
        elif kind == "boundary":
            side = two_src if data.draw(st.booleans()) else two_tgt
            side[_pick(data, cells)] = _pick(data, ones)
        elif kind == "identity":
            two_id[_pick(data, ones)] = _pick(data, cells)
        elif kind.endswith("drop") and table:
            del table[_pick(data, table)]
        elif kind.endswith("spurious"):
            table[(_pick(data, cells), _pick(data, cells))] = \
                _pick(data, cells)
        elif kind.endswith("redirect") and table:
            table[_pick(data, table)] = _pick(data, cells)
    broken = TwoCat(A.name, cells1, two_src, two_tgt, two_id, vcomp, hcomp)
    got = _outcome(validate_two_cat, broken)
    assert got == _outcome(oracle.validate_two_cat, broken)
    # every table the table-by-table validator rejected is still rejected
    if oracle.validate_two_cat_by_tables(broken):
        assert got


DIAGRAMS = [standard.const_two_diagram(), standard.inclusion_chain_diagram(),
            standard.swap_chain_diagram(), standard.walking_iso_diagram(),
            walking_iso_flip()]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(DIAGRAMS), st.data())
def test_check_two_functor_matches_reference(D, data):
    on1, on2 = dict(D.on1), dict(D.on2)
    for _ in range(data.draw(st.integers(0, 2))):
        if data.draw(st.booleans()):
            u = _pick(data, on1)
            F = on1[u]
            on1[u] = data.draw(st.sampled_from(
                list(enumerate_functors(F.source, F.target))))
        else:
            g = _pick(data, on2)
            a = on2[g]
            others = enumerate_nat_trans(a.source, a.target)
            if others:
                on2[g] = data.draw(st.sampled_from(others))
    broken = TwoDiagram(D.name, D.index, D.fibers, on1, on2)
    assert check_two_functor(broken) == oracle.check_two_functor(broken)
