"""The equivalence search over hom-size-preserving functors against the
frozen full search in oracle_kernel.py, on random pairs of fibers from
strategies.fibers (posets and the non-thin z2, z2_terminal, idempotent
and chaotic_pair) and parallel_pair_cat: the pruned stream is the full
stream filtered by hom-set sizes, item for item, and keeps every fully
faithful functor; on each functor of it the reduced full-faithfulness
test agrees with the reference's; the witness and the exhausted flag are
the reference's."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

import oracle_kernel as oracle  # noqa: E402
from sitecolim import core, standard  # noqa: E402
from sitecolim.core import (FinCat, enumerate_functors,  # noqa: E402
                            equivalence_witness)
from strategies import fibers  # noqa: E402


def named(C, name):
    return FinCat(name, C.objects, C.mor_src, C.mor_tgt, C.identities,
                  C.comp)


def categories(name):
    return st.one_of(fibers(name), st.builds(
        lambda: named(standard.parallel_pair_cat(), name)))


@st.composite
def pairs(draw):
    """(C, D), where D is often a copy of C, so that many pairs have a
    witness."""
    C = draw(categories("C"))
    return C, draw(st.one_of(st.just(named(C, "D")), categories("D")))


def _maps(F):
    return F.obj_map, F.mor_map


def _preserves_hom_sizes(F):
    C, D = F.source, F.target
    return all(len(D.hom(F.obj_map[a], F.obj_map[b])) == len(C.hom(a, b))
               for a in C.objects for b in C.objects)


@settings(max_examples=150, deadline=None)
@given(pairs())
def test_pruned_stream_is_the_filtered_full_stream(CD):
    full = list(enumerate_functors(*CD))
    pruned = list(enumerate_functors(*CD, same_hom_sizes=True))
    assert [_maps(F) for F in pruned] == [
        _maps(F) for F in full if _preserves_hom_sizes(F)]
    assert [F.name for F in pruned] == ["F%d" % k for k in range(len(pruned))]
    kept = [_maps(F) for F in pruned]
    assert all(_maps(F) in kept for F in full if oracle.fully_faithful(F))


@settings(max_examples=150, deadline=None)
@given(pairs())
def test_reduced_full_faithfulness_matches_reference(CD):
    """On every functor of the hom-size-preserving stream, injectivity on
    the plural hom-sets decides full faithfulness as the reference's full
    test does."""
    for F in enumerate_functors(*CD, same_hom_sizes=True):
        assert (core._fully_faithful_keeping_sizes(F)
                == oracle.fully_faithful(F))


def _witness(res):
    if res.witness is None:
        return None
    F, G, eta, eps = res.witness
    return (_maps(F), _maps(G), eta.components, eps.components)


@settings(max_examples=150, deadline=None)
@given(pairs())
def test_witness_matches_reference(CD):
    got, want = equivalence_witness(*CD), oracle.equivalence_witness(*CD)
    assert got.exhausted == want.exhausted
    assert _witness(got) == _witness(want)
