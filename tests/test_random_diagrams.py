"""The colimit of random 2-filtered diagrams (strategies.diagrams) against
the frozen all-pairs reference: oracle_kernel.build_pseudocolimit compares
every pair of spans, the library only the spans at one weakly terminal
apex.  Both must give the same objects, classes with the same names and
members, identities, composition table in the same insertion order, and
cone; the reference built with its apexes searched in a seeded order, and
the library's table recomposed in that order, must give the same table,
with one candidate charged per entry and a refinement searched for every
entry of a colimit with a hom block of two or more classes, and for none
of a thin one.  A thin colimit's table is read off its hom blocks and must
answer as the reference's.
Every morphism of the colimit, as a one-edge diagram, must lift to one
fiber and push forward to itself.  On the same draws, L is a category,
lambda a pseudocone, and every member pair of every composable class pair
composes, in the sorted and in the seeded apex order, into the class
L.comp records, and postcomposition with lambda is an isomorphism from
functors L -> X onto pseudocones with vertex X, for X = one and two on
every draw and X = z2 on the draws whose colimit has at most 4 objects
(on larger ones a single draw can pass 10^6 candidates against z2)."""

import random

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402

import oracle_kernel as oracle  # noqa: E402
from sitecolim import colim, standard  # noqa: E402
from sitecolim.cones import check_pseudocone  # noqa: E402
from sitecolim.core import (Budget, Functor, identity_functor,  # noqa: E402
                            identity_nat, validate_category)
from sitecolim.limits import Diagram  # noqa: E402
from sitecolim.twocat import TwoDiagram  # noqa: E402
from strategies import diagrams, z2_idempotent_twocat  # noqa: E402
from test_kernel import z2  # noqa: E402
from test_span_layer import (check_thin_table,  # noqa: E402
                             multi_class_entries, recompose_traced)

SEED = 7


def collapsed_pair():
    """The discrete category on p, q over the Z/2 loop made 2-filtered,
    its idempotent z sent to the constant functor at p.  The morphism
    *.p -> *.q of the colimit has the members (id, z, id_p) and
    (z, z, id_p) only, so lifting it along (id, id), the first pair of
    1-cells tried, must fail on the right leg."""
    index = z2_idempotent_twocat("z", "a")
    C = standard.poset_category("F*", "pq", lambda a, b: a == b)
    ident = identity_functor(C)
    const = Functor("const_p", C, C, {"p": "p", "q": "p"},
                    {"id_p": "id_p", "id_q": "id_p"})
    return TwoDiagram("collapsed_pair", index, {"*": C},
                      {"id": ident, "z": const},
                      {"i": identity_nat(ident), "a": identity_nat(ident),
                       "j": identity_nat(const)})


@settings(max_examples=60, deadline=None, derandomize=True)
@given(diagrams())
def test_build_matches_reference(F):
    got = colim.build_pseudocolimit(F)
    L = got.category
    for seed in (None, SEED):
        want = oracle.build_pseudocolimit(F, apex_seed=seed)
        M = want.category
        assert L.objects == M.objects
        assert list(got.class_members.items()) == \
            list(want.class_members.items())
        assert got.span_class == want.span_class
        assert L.identities == M.identities
        assert list(L.comp.items()) == list(M.comp.items())
        assert got.cone.key() == want.cone.key()
    assert list(colim.recompose(got, SEED, Budget()).items()) == \
        list(L.comp.items())


@settings(max_examples=60, deadline=None, derandomize=True)
@given(diagrams())
def test_recompose_searches_only_multi_class_blocks(F):
    R = colim.build_pseudocolimit(F)
    L = R.category
    b = Budget()
    _, entries = recompose_traced(R, SEED, b)
    assert b.used == len(L.comp)
    assert len(entries) == len(set(entries))
    assert entries == (list(L.comp) if multi_class_entries(L) else [])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(diagrams())
def test_thin_colimit_reads_composites_off_hom_blocks(F):
    R = colim.build_pseudocolimit(F)
    L = R.category
    if all(len(L.hom(L.mor_src[m], L.mor_tgt[m])) == 1
           for m in L.morphisms()):
        check_thin_table(R, oracle.build_pseudocolimit(F).category.comp)
    else:
        assert type(L.comp) is dict


@settings(max_examples=60, deadline=None, derandomize=True)
@given(diagrams())
@example(collapsed_pair())
def test_one_edge_diagrams_lift(F):
    R = colim.build_pseudocolimit(F)
    L = R.category
    for m in L.morphisms():
        if L.is_identity(m):
            continue
        A, pick, lifted = colim.lift_diagram(R, Diagram(
            {"s": L.mor_src[m], "t": L.mor_tgt[m]}, {"e": ("s", "t", m)}))
        _, _, f = lifted.edges["e"]
        fiber = F.fibers[A]
        assert lifted.nodes == {"s": fiber.mor_src[f], "t": fiber.mor_tgt[f]}
        into_s = colim.reindex_iso(R, A, pick["s"], L.mor_src[m])
        into_t = colim.reindex_iso(R, A, pick["t"], L.mor_tgt[m])
        pushed = R.cone.legs[A].mor_map[f]
        assert L.compose_path(into_t, pushed, L.inverse(into_s)) == m


@settings(max_examples=60, deadline=None, derandomize=True)
@given(diagrams())
def test_colimit_is_a_category_with_well_defined_composition(F):
    R = colim.build_pseudocolimit(F)
    L = R.category
    assert validate_category(L) == []
    ok, why = check_pseudocone(R.cone)
    assert ok, why
    shuffled = sorted(F.index.objects())
    random.Random(SEED).shuffle(shuffled)
    for order in (sorted(F.index.objects()), shuffled):
        for (m2, m1), m in L.comp.items():
            for s in R.class_members[m1]:
                for t in R.class_members[m2]:
                    composite = oracle.compose_spans(F, s, t, order)
                    assert R.span_class[composite] == m, (s, t)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(diagrams())
def test_postcomposition_is_an_isomorphism(F):
    """Functors L -> X and pseudocones with vertex X are isomorphic
    categories under postcomposition with lambda, for X = one and two,
    and for X = z2 when L has at most 4 objects."""
    R = colim.build_pseudocolimit(F)
    vertices = [standard.one(), standard.two()]
    if len(R.category.objects) <= 4:
        vertices.append(z2())
    for X in vertices:
        report = colim.verify_bicolimit(R, X)
        assert report.isomorphism, (X.name, report)
