"""The span layer of the pseudocolimit against its frozen reference, and
the invariants the construction only claims, checked after the build.

The library searches a composing refinement once per distinct index key
of a composition pass; oracle_kernel.build_pseudocolimit searches the
index afresh for every span comparison and composite.  Both must give the same colimit
category (with `comp` in the same insertion order) and the same classes;
the library's table recomposed in a seeded apex order must equal the
oracle's table built in that order.  The oracle compares every pair of
spans, the library joins the spans at the weakly terminal apex T along
their generating steps, so the library's Budget count is computed here
from the index and the oracle's spans.  The library composes without a
refinement search wherever a hom-set of the colimit holds one class; the
searches it does make are counted through the index's
invertible_cells_between.  The seeded recomposition runs the build's
own pass, compose_spans, again in the shuffled apex order; it hands only
the entries of multi-class hom-sets to the search, which is recorded by
wrapping colim._refinement_search.  On a thin colimit every hom-set holds
one class: its table is read off the hom blocks, not stored, is charged
in one call, and compares with another thin table block by block.
"""

import random
from unittest import mock

import pytest

import oracle_kernel as oracle
from sitecolim import colim, standard
from sitecolim.cones import check_pseudocone
from sitecolim.core import (Budget, NatTrans, identity_functor, identity_nat,
                            validate_category)
from sitecolim.fixtures import parse
from sitecolim.twocat import (TwoDiagram, check_two_functor,
                              constant_diagram, two_cat_from_cat)

from conftest import FIXTURE_DIR
from test_kernel import z2, z2_terminal


def covered_diamond():
    return parse((FIXTURE_DIR / "covereddiamond.diag").read_text())[
        "covereddiamond"].diagram


def const_z2():
    """The constant diagram at z2 over chain3: unlike the poset fibers of
    the standard diagrams, its hom-sets have two elements, so the fiber
    equation of span_related decides."""
    return constant_diagram(standard.chain3_twocat(), z2(), "constz2")


def walking_iso_z2():
    """The walking iso's invertible 2-cell sent to the automorphism s of
    the identity functor on z2: spans are identified only through the
    transport along s."""
    idx = standard.walking_iso_twocat()
    Z = z2()
    ident = identity_functor(Z)
    flip = NatTrans("flip", ident, ident, {"*": "s"})
    on2 = {g: flip if g in ("g", "ginv") else identity_nat(ident)
           for g in idx.two_cells()}
    F = TwoDiagram("walkingiso_z2", idx, {"A": Z, "B": Z},
                   {u: ident for u in idx.one_cells()}, on2)
    assert check_two_functor(F) == (True, None)
    return F


def const_z2_terminal():
    """The constant diagram at z2_terminal over chain3: its hom blocks
    x -> o and o -> o hold one class and x -> x two, so one composition
    table fills entries both with and without a refinement search."""
    return constant_diagram(standard.chain3_twocat(), z2_terminal(),
                            "constz2terminal")


STANDARD = {
    "consttwo": standard.const_two_diagram,
    "inclchain": standard.inclusion_chain_diagram,
    "swapchain": standard.swap_chain_diagram,
    "diamondchain": standard.diamond_chain_diagram,
    "walkingiso": standard.walking_iso_diagram,
    "covereddiamond": covered_diamond,
    "constz2": const_z2,
    "walkingiso_z2": walking_iso_z2,
}


def chain_diagram(n, fiber):
    """The constant diagram at `fiber` over the linear order chain_n."""
    index = two_cat_from_cat(standard.chain_cat(n), "chain%d" % n)
    return constant_diagram(index, fiber(), "chain%d_%s" % (n, fiber.__name__))


LADDER = {"chain%d_%s" % (n, fiber.__name__):
          (lambda n=n, fiber=fiber: chain_diagram(n, fiber))
          for n in (3, 6, 9) for fiber in (standard.two, standard.diamond)}

CASES = {**STANDARD, **LADDER, "const_z2_terminal": const_z2_terminal}

# the cases with a hom-set of two or more classes
MANY_CLASSES = {"constz2", "walkingiso_z2", "const_z2_terminal"}


def weakly_terminal(F):
    """The first index object, in sorted order, with a 1-cell from every
    object."""
    C1 = F.index.cells1
    return min(T for T in F.index.objects()
               if all(C1.hom(A, T) for A in F.index.objects()))


def build_budget(F, R):
    """The library build's exact Budget count: per object pair with k
    spans, k_T of them at T, k + 1 for the pair and k - k_T transports;
    per T-span, one per generating step: |hom(T, T)| - 1 transports and
    one conjugate per non-identity invertible 2-cell out of either leg
    (each a 1-cell into T); then one per entry of R's composition table."""
    index = F.index
    C1 = index.cells1
    T = weakly_terminal(F)

    def conjugates(w):
        return sum(g != index.two_id[w] and index.vertical.is_iso(g)
                   for g in index.two_cells() if index.two_src[g] == w)

    used = 0
    for p in R.category.objects:
        for q in R.category.objects:
            spans = oracle.all_spans(F, *R.obj_info[p], *R.obj_info[q])
            at_T = [s for s in spans if s.apex == T]
            k, k_T = len(spans), len(at_T)
            used += (k + 1) + (k - k_T) + sum(
                len(C1.hom(T, T)) - 1 + conjugates(s.left)
                + conjugates(s.right) for s in at_T)
    return used + len(R.category.comp)


@pytest.mark.parametrize("seed", [None, 7], ids=["sorted", "seed7"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_build_matches_reference(case, seed):
    F = CASES[case]()
    got_budget = Budget()
    got = colim.build_pseudocolimit(F, got_budget)
    want = oracle.build_pseudocolimit(F, apex_seed=seed)
    L, M = got.category, want.category
    assert L.objects == M.objects
    assert L.morphisms() == M.morphisms()
    assert (L.mor_src, L.mor_tgt) == (M.mor_src, M.mor_tgt)
    assert L.identities == M.identities
    assert list(L.comp.items()) == list(M.comp.items())
    assert got.class_members == want.class_members
    assert got.span_class == want.span_class
    assert got.cone.key() == want.cone.key()
    assert got_budget.used == build_budget(F, want)


@pytest.mark.parametrize("case", sorted(CASES))
def test_one_class_blocks_search_no_refinement(case, monkeypatch):
    """compose_spans fills an entry whose hom block holds one class with
    that class: the seeded recomposition asks the index for invertible
    2-cells only where some hom-set of L has two or more classes, and
    searches each distinct (s.apex, s.right, t.apex, t.left) of the least
    members s, t of such entries once, trying (D, w1, w2) in the shuffled
    apex order up to the first with an invertible comparison 2-cell."""
    F = CASES[case]()
    R = colim.build_pseudocolimit(F)
    calls = []
    cells = F.index.invertible_cells_between

    def counted(u, v):
        calls.append((u, v))
        return cells(u, v)

    monkeypatch.setattr(F.index, "invertible_cells_between", counted)
    colim.recompose(R, 7, Budget())
    L = R.category
    thin = all(len(L.hom(p, q)) <= 1 for p in L.objects for q in L.objects)
    assert thin == (case not in MANY_CLASSES)
    assert (len(calls) == 0) == thin
    C1 = F.index.cells1
    order = sorted(F.index.objects())
    random.Random(7).shuffle(order)
    searched = {(s.apex, s.right, t.apex, t.left)
                for (m2, m1) in L.comp
                if len(L.hom(L.mor_src[m1], L.mor_tgt[m2])) > 1
                for s in R.class_members[m1][:1]
                for t in R.class_members[m2][:1]}

    def tries(s_apex, s_right, t_apex, t_left):
        n = 0
        for D in order:
            for w1 in C1.hom(s_apex, D):
                for w2 in C1.hom(t_apex, D):
                    n += 1
                    if cells(C1.comp[(w1, s_right)], C1.comp[(w2, t_left)]):
                        return n

    assert len(calls) == sum(tries(*key) for key in searched)


def multi_class_entries(L):
    """The entries (m2, m1) of L's table whose block, from the source of
    m1 to the target of m2, holds two or more classes."""
    return [(m2, m1) for (m2, m1) in L.comp
            if len(L.hom(L.mor_src[m1], L.mor_tgt[m2])) > 1]


def recompose_traced(R, seed, budget):
    """colim.recompose(R, seed, budget) and the entries, in order, that it
    hands to the refinement search."""
    entries = []
    search = colim._refinement_search

    def traced(*args):
        fill = search(*args)

        def traced_fill(comp, block1, block2):
            entries.extend((m2, m1) for m1, _ in block1 for m2, _ in block2)
            fill(comp, block1, block2)

        return traced_fill

    with mock.patch.object(colim, "_refinement_search", traced):
        table = colim.recompose(R, seed, budget)
    return table, entries


@pytest.mark.parametrize("seed", [7, 11])
@pytest.mark.parametrize("case", sorted(CASES))
def test_recompose_searches_only_multi_class_blocks(case, seed, monkeypatch):
    """recompose leaves R's table as it is, returns the reference's table
    in the seeded apex order item for item, charges one candidate per
    entry, and searches a refinement for the entries of blocks with two or
    more classes only, each once; on a thin L it asks the index for no
    invertible 2-cell at all."""
    F = CASES[case]()
    R = colim.build_pseudocolimit(F)
    L = R.category
    before = list(L.comp.items())
    want = oracle.build_pseudocolimit(F, apex_seed=seed).category
    calls = []
    cells = F.index.invertible_cells_between
    monkeypatch.setattr(F.index, "invertible_cells_between",
                        lambda u, v: calls.append((u, v)) or cells(u, v))
    b = Budget()
    table, entries = recompose_traced(R, seed, b)
    assert list(L.comp.items()) == before
    assert list(table.items()) == list(want.comp.items())
    assert b.used == len(L.comp)
    assert len(entries) == len(set(entries))
    assert set(entries) == set(multi_class_entries(L))
    if case not in MANY_CLASSES:
        assert entries == calls == []


@pytest.mark.parametrize("case", sorted(MANY_CLASSES))
def test_recompose_catches_a_wrong_searched_entry(case):
    """An entry of a multi-class block set to another class of its block
    is searched again and put right, so the seeded table differs from the
    build's and the CLI reports seed_stable false."""
    F = CASES[case]()
    R = colim.build_pseudocolimit(F)
    L = R.category
    keys = multi_class_entries(L)
    assert keys
    for key in keys:
        right = L.comp[key]
        m2, m1 = key
        L.comp[key] = next(m for m in L.hom(L.mor_src[m1], L.mor_tgt[m2])
                           if m != right)
        table = colim.recompose(R, 7, Budget())
        assert table[key] == right
        assert table != L.comp
        L.comp[key] = right
    assert colim.recompose(R, 7, Budget()) == L.comp


@pytest.mark.parametrize("case", sorted(MANY_CLASSES))
def test_recompose_runs_the_builds_pass(case, monkeypatch):
    """The seeded recomposition is compose_spans over the build's classes,
    called with the apexes in the Random(7)-shuffled order after the
    build's call in sorted order, and returns that call's table."""
    calls = []
    compose = colim.compose_spans

    def spied(*args):
        calls.append((args, compose(*args)))
        return calls[-1][1]

    monkeypatch.setattr(colim, "compose_spans", spied)
    F = CASES[case]()
    R = colim.build_pseudocolimit(F)
    table = colim.recompose(R, 7, Budget())
    order = sorted(F.index.objects())
    shuffled = list(order)
    random.Random(7).shuffle(shuffled)
    assert [args[5] for args, _ in calls] == [order, shuffled]
    L = R.category
    assert calls[1][0][1:5] == (R.class_members, R.span_class, L.mor_src,
                                L.mor_tgt)
    assert calls[0][1] is L.comp and calls[1][1] is table


def check_thin_table(R, want):
    """R.category.comp of a thin L is a read-only mapping, not a dict, that
    agrees with the reference's table `want` in len, order, in, get, [] and
    L.compose on every composable pair, and misses every other key: a pair
    that does not compose, an unknown name or a malformed key.  L is a
    category, and the seeded recomposition returns an equal table,
    charging one candidate per entry.  Two thin tables compare by their
    blocks, without reading an entry: the tables of two builds of one
    diagram are equal, and a table differs from that of another thin
    colimit and from a copy with one block's class renamed; a thin table
    and its dict copy compare entry by entry."""
    L = R.category
    assert type(L.comp) is not dict
    assert len(L.comp) == len(want)
    assert list(L.comp) == list(want)
    for (g, f), h in want.items():
        assert (g, f) in L.comp
        assert L.comp.get((g, f)) == L.comp[(g, f)] == L.compose(g, f) == h
    mors = L.morphisms()
    rng = random.Random(0)
    m = mors[0]
    for key in [(rng.choice(mors), rng.choice(mors)) for _ in range(500)] + [
            ("nope", m), (m, "nope"), (m,), (m, m, m), m, 5, None]:
        if key in want:
            continue
        assert key not in L.comp
        assert L.comp.get(key) is None
        with pytest.raises(KeyError):
            L.comp[key]
    with pytest.raises(TypeError):
        L.comp[next(iter(want))] = m
    assert validate_category(L) == []
    b = Budget()
    assert colim.recompose(R, 7, b) == L.comp
    assert b.used == len(L.comp)
    copy = dict(L.comp)
    assert L.comp == copy and copy == L.comp
    again = colim.build_pseudocolimit(R.diagram).category.comp
    other = colim.build_pseudocolimit(chain_diagram(
        2 if len(L.objects) != 2 else 3, standard.one)).category.comp
    renamed = renamed_class(R, mors[0])
    with mock.patch.object(colim._ThinComp, "__getitem__",
                           side_effect=AssertionError("entry read")):
        assert L.comp == again and again == L.comp
        assert L.comp != other and other != L.comp
        assert L.comp != renamed and renamed != L.comp


def renamed_class(R, m):
    """R's composition table made again by compose_spans with the class m
    renamed."""
    def rename(n):
        return n + "'" if n == m else n

    L = R.category
    return colim.compose_spans(
        R.diagram, {rename(n): ms for n, ms in R.class_members.items()},
        {s: rename(n) for s, n in R.span_class.items()},
        {rename(n): p for n, p in L.mor_src.items()},
        {rename(n): q for n, q in L.mor_tgt.items()},
        sorted(R.diagram.index.objects()), Budget())


@pytest.mark.parametrize("case", sorted(CASES))
def test_thin_colimit_reads_composites_off_hom_blocks(case):
    """A thin L's composites are read off its hom blocks; an L with a
    hom-set of two or more classes keeps a plain dict."""
    F = CASES[case]()
    R = colim.build_pseudocolimit(F)
    if case in MANY_CLASSES:
        assert type(R.category.comp) is dict
    else:
        check_thin_table(R, oracle.build_pseudocolimit(F).category.comp)


@pytest.mark.parametrize("case", ["chain9_diamond", "const_z2_terminal"])
def test_thin_table_is_charged_at_once(case, monkeypatch):
    """Inside compose_spans, a thin L's table costs one Budget.charge call
    and no refinement search; const_z2_terminal, which is not thin, still
    charges once per entry and searches a refinement for its multi-class
    blocks."""
    inside, charges, searches = [False], [], []
    charge, search = Budget.charge, colim._refinement_search
    compose = colim.compose_spans

    def counted_charge(budget, n=1):
        if inside[0]:
            charges.append(n)
        return charge(budget, n)

    def counted_search(*args):
        fill = search(*args)

        def counted_fill(*blocks):
            searches.append(blocks)
            fill(*blocks)

        return counted_fill

    def traced_compose(*args):
        inside[0] = True
        try:
            return compose(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(Budget, "charge", counted_charge)
    monkeypatch.setattr(colim, "_refinement_search", counted_search)
    monkeypatch.setattr(colim, "compose_spans", traced_compose)
    L = colim.build_pseudocolimit(CASES[case]()).category
    if case in MANY_CLASSES:
        assert charges == [1] * len(L.comp)
        assert searches
    else:
        assert charges == [len(L.comp)]
        assert searches == []


@pytest.mark.parametrize("case", sorted(CASES))
def test_all_spans_sorted(case, monkeypatch):
    """build_pseudocolimit names classes in first-member order and keeps
    their members in span order; both rely on all_spans returning its
    spans sorted.  Each span comes with the key (c.u, c.v, F(c)f) of its
    transport to T along c, the first 1-cell s.apex -> T, or the identity
    at T; and all_spans is the build's only producer of spans."""
    F = CASES[case]()
    calls = []
    produce = colim.all_spans

    def recorded(*args):
        out = produce(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(colim, "all_spans", recorded)
    R = colim.build_pseudocolimit(F)
    C1 = F.index.cells1
    T = weakly_terminal(F)
    assert len(calls) == len(R.category.objects) ** 2
    for args, out in calls:
        spans = [s for s, _ in out]
        assert spans == sorted(spans)
        assert spans == oracle.all_spans(F, *args[:4])
        for s, key in out:
            c = C1.hom(s.apex, T)[0] if s.apex != T else C1.identities[T]
            assert key == (C1.comp[(c, s.left)], C1.comp[(c, s.right)],
                           F.on1[c].mor_map[s.mor])


@pytest.mark.parametrize("case", sorted(STANDARD))
def test_span_related_pins_the_classes(case):
    """The single-step relation the build no longer calls: every span is
    related to its transport to T along the first 1-cell, and no two
    T-spans in different classes are related."""
    F = STANDARD[case]()
    R = colim.build_pseudocolimit(F)
    C1 = F.index.cells1
    T = weakly_terminal(F)
    for p in R.category.objects:
        for q in R.category.objects:
            spans = oracle.all_spans(F, *R.obj_info[p], *R.obj_info[q])
            for s in spans:
                c = C1.hom(s.apex, T)[0] if s.apex != T else C1.identities[T]
                t = s._replace(apex=T, left=C1.comp[(c, s.left)],
                               right=C1.comp[(c, s.right)],
                               mor=F.on1[c].mor_map[s.mor])
                assert colim.span_related(F, s, t), (s, t)
            at_T = [s for s in spans if s.apex == T]
            for s in at_T:
                for t in at_T:
                    if R.span_class[s] != R.span_class[t]:
                        assert not colim.span_related(F, s, t), (s, t)


@pytest.mark.parametrize("case", sorted(STANDARD))
def test_composition_is_well_defined_on_classes(case):
    """Every member pair of every composable class pair composes, in the
    sorted and in a shuffled apex order, into the class L.comp records;
    L is a category and lambda a pseudocone."""
    F = STANDARD[case]()
    R = colim.build_pseudocolimit(F)
    L = R.category
    assert validate_category(L) == []
    ok, why = check_pseudocone(R.cone)
    assert ok, why
    shuffled = sorted(F.index.objects())
    random.Random(7).shuffle(shuffled)
    for order in (sorted(F.index.objects()), shuffled):
        for (m2, m1), m in L.comp.items():
            for s in R.class_members[m1]:
                for t in R.class_members[m2]:
                    composite = oracle.compose_spans(F, s, t, order)
                    assert R.span_class[composite] == m, (s, t)
