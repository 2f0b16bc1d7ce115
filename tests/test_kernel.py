"""The watch-list enumeration kernel, the table-level coherence checks and
the shared-composite 2-functor check against the frozen reference versions
in oracle_kernel.py, and the lazy first-witness equivalence search."""

import itertools

import pytest

import oracle_kernel as oracle
from sitecolim import build_pseudocolimit, cones, core, standard
from sitecolim.cones import Modification
from sitecolim.core import (Budget, FinCat, Functor, NatTrans, Presentation,
                            build_category, enumerate_functors,
                            enumerate_nat_trans, equivalence_witness,
                            identity_functor, identity_nat, validate_category)
from sitecolim.errors import BudgetExceeded
from sitecolim.twocat import TwoDiagram, check_two_functor


def z2():
    """The group of order two as a one-object category: its automorphism
    makes some coherence candidates fail."""
    return FinCat("z2", ("*",), {"e": "*", "s": "*"}, {"e": "*", "s": "*"},
                  {"*": "e"}, {("e", "e"): "e", ("e", "s"): "s",
                               ("s", "e"): "s", ("s", "s"): "e"})


def z2_terminal():
    """z2 at x, and an object o that receives exactly one morphism m from
    x: the automorphism s of x extends to a natural automorphism of the
    identity functor, with the identity at o."""
    pres = Presentation(("x", "o"), (("s", "x", "x"), ("m", "x", "o")),
                        ((("s", "s"), ()), (("s", "m"), ("m",))))
    return build_category(pres, 2, "z2_terminal")


def _with_oracle(monkeypatch, name, reference, seen):
    """Route cones.<name> through a wrapper that asserts the oracle's
    verdict and message on every call and records the result."""
    checked = getattr(cones, name)

    def both(x):
        got = checked(x)
        assert got == reference(x)
        seen.append(got)
        return got
    monkeypatch.setattr(cones, name, both)


# (diagram, vertex, equations some candidate cone violates)
CONE_CASES = [
    (standard.const_two_diagram, z2, {"pc1"}),
    (standard.const_two_diagram, oracle.parallel_pair_cat, set()),
    (standard.const_two_diagram, standard.two, set()),
    (standard.inclusion_chain_diagram, z2, {"pc1"}),
    (standard.inclusion_chain_diagram, standard.chaotic_pair, set()),
    (standard.swap_chain_diagram, standard.two, set()),
    (standard.swap_chain_diagram, oracle.parallel_pair_cat, set()),
    (standard.walking_iso_diagram, z2, {"pc2"}),
    (standard.walking_iso_diagram, oracle.parallel_pair_cat, set()),
]


@pytest.mark.parametrize("diagram,vertex,violated", CONE_CASES,
                         ids=["%s-%s" % (d.__name__, v.__name__)
                              for d, v, _ in CONE_CASES])
def test_coherence_checks_match_oracle(monkeypatch, diagram, vertex,
                                       violated):
    """Into a vertex that is not thin, every candidate
    enumerate_pseudocones and enumerate_modifications build gets the
    reference verdict and first-violation message.  Into a thin vertex
    neither check is called, and what is kept unchecked passes the
    reference checks: every cone found, which are the reference's cones,
    and every modification candidate."""
    dia, X = diagram(), vertex()
    want = oracle.enumerate_pseudocones(dia, X)
    cone_checks, mod_checks = [], []
    _with_oracle(monkeypatch, "check_pseudocone", oracle.check_pseudocone,
                 cone_checks)
    _with_oracle(monkeypatch, "check_modification",
                 oracle.check_modification, mod_checks)
    found = cones.enumerate_pseudocones(dia, X)
    mods = {(g.name, h.name): cones.enumerate_modifications(g, h)
            for g in found for h in found}
    assert found and any(mods.values())
    if X._thin:
        assert cone_checks == mod_checks == [] and not violated
        assert ([(c.name, c.key()) for c in found]
                == [(c.name, c.key()) for c in want])
        assert all(oracle.check_pseudocone(c) == (True, None) for c in found)
        for g in found:
            for h in found:
                objs = sorted(g.legs)
                built = [Modification("m", g, h, dict(zip(objs, combo)))
                         for combo in itertools.product(*(
                             oracle.enumerate_nat_trans(g.legs[A], h.legs[A])
                             for A in objs))]
                assert all(oracle.check_modification(m) == (True, None)
                           for m in built)
                assert ([m.key() for m in mods[g.name, h.name]]
                        == [m.key() for m in built])
        return
    assert [ok for ok, _ in cone_checks].count(True) == len(found)
    assert {why.split()[0] for ok, why in cone_checks if not ok} == violated
    assert any(ok for ok, _ in mod_checks)
    if violated:  # pcM rejects some candidates as well
        assert not all(ok for ok, _ in mod_checks)


# ---------------------------------------------------------------------------
# lazy enumeration


@pytest.fixture(scope="module")
def swapchain_L():
    return build_pseudocolimit(standard.swap_chain_diagram()).category


def _full_count(C, D, **kw):
    bud = Budget()
    n = len(list(enumerate_functors(C, D, bud, **kw)))
    return n, bud.used


def test_witness_stops_at_first_equivalence(swapchain_L):
    Q = standard.diamond()
    _, full = _full_count(swapchain_L, Q)
    bud = Budget()
    res = equivalence_witness(swapchain_L, Q, bud)
    assert res.witness is not None and not res.exhausted
    assert bud.used < full


def test_witness_negative_pair_charges_full_enumeration(swapchain_L):
    """An exhaustive search drains the stream of hom-size-preserving
    functors, which charges less than every functor C -> D."""
    Q = standard.chain_cat(4)
    n, full = _full_count(swapchain_L, Q)
    _, pruned = _full_count(swapchain_L, Q, same_hom_sizes=True)
    assert n > 0
    bud = Budget()
    res = equivalence_witness(swapchain_L, Q, bud)
    assert res.witness is None and res.exhausted
    assert bud.used == pruned < full


def test_enumeration_charges_only_while_iterating(two_cat, diamond):
    bud = Budget(3)
    functors = enumerate_functors(two_cat, diamond, bud)
    assert bud.used == 0
    with pytest.raises(BudgetExceeded):
        for _ in functors:
            pass
    assert bud.used == 4


class _CountedTable(dict):
    """A composition table that counts its lookups."""

    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.reads += 1
        return super().get(key, default)


@pytest.mark.parametrize("target, thin", [
    (standard.diamond, True), (standard.two, True),
    (standard.chaotic_pair, True), (oracle.parallel_pair_cat, False),
    (z2, False)])
@pytest.mark.parametrize("source", [standard.diamond(), standard.chain_cat(3)],
                         ids=["diamond", "chain3"])
def test_thin_target_composition_table_is_never_read(monkeypatch, source,
                                                     target, thin):
    """Into a thin target every composite and naturality square holds by
    construction: the kernel reads no entry of the target's table, and
    enumerates what it does with the table read.  The transformations
    into a thin target are scanned, with no backtracking search."""
    C = source
    plain = target()
    assert plain._thin == thin
    table = _CountedTable(plain.comp)
    D = FinCat(plain.name, plain.objects, plain.mor_src, plain.mor_tgt,
               plain.identities, table)
    functors = list(enumerate_functors(C, D))
    assert ([(F.obj_map, F.mor_map) for F in functors]
            == [(F.obj_map, F.mor_map) for F in oracle.enumerate_functors(
                C, plain)])
    assert (table.reads > 0) == (not thin)
    table.reads = 0
    searches = []
    backtrack = core._backtrack

    def counted(*args):
        searches.append(args[0])
        return backtrack(*args)
    monkeypatch.setattr(core, "_backtrack", counted)
    pairs = [(F, G) for F in functors[:6] for G in functors[:6]]
    got = [[a.components for a in enumerate_nat_trans(F, G)]
           for F, G in pairs]
    assert (table.reads > 0) == (not thin)
    assert (len(searches) > 0) == (not thin)
    assert got == [[a.components for a in oracle.enumerate_nat_trans(F, G)]
                   for F, G in pairs]


def split_idempotent():
    """r : x -> y and i : y -> x with r after i the identity of y, so that
    i after r is an idempotent r.i of x: hom(x, x) = {id_x, r.i} is the
    one hom-set with two elements."""
    pres = Presentation(("x", "y"), (("r", "x", "y"), ("i", "y", "x")),
                        ((("i", "r"), ()),))
    return build_category(pres, 2, "split_idempotent")


def _with_table(C, comp):
    return FinCat(C.name, C.objects, C.mor_src, C.mor_tgt, C.identities,
                  comp)


@pytest.mark.parametrize("make", [
    standard.one, standard.two, standard.diamond, standard.chaotic_pair,
    lambda: standard.chain_cat(5), z2, split_idempotent,
    oracle.parallel_pair_cat],
    ids=["one", "two", "diamond", "chaotic_pair", "chain5", "z2",
         "split_idempotent", "parallel_pair"])
def test_laws_read_the_table_only_in_plural_hom_sets(make):
    """The table checks read each entry of a valid table once.  The
    identity and associativity laws read it only where a hom-set has two
    or more elements, so on a thin category they read nothing."""
    plain = make()
    C = _with_table(plain, _CountedTable(plain.comp))
    assert validate_category(C) == []
    assert (C.comp.reads == len(C.comp)) == C._thin
    assert C.comp.reads >= len(C.comp)


def _redirected(C, key, value):
    return _with_table(C, {**C.comp, key: value})


@pytest.mark.parametrize("C, want", [
    (_redirected(split_idempotent(), ("r.i", "r.i"), "id_x"),
     ["associativity fails on (r.i, i, r)",
      "associativity fails on (i, r, r.i)"]),
    (_redirected(z2(), ("s", "e"), "e"),
     ["identity law fails: s . e != s", "associativity fails on (s, e, s)",
      "associativity fails on (s, s, s)"])],
    ids=["associativity", "identity law"])
def test_law_breaks_match_reference(C, want):
    """One composite redirected inside the plural hom-set: every table
    check passes, and only the laws, tested there, find the fault."""
    assert validate_category(C) == oracle.validate_category(C) == want


def test_witness_budget_exceeded_while_scanning(swapchain_L):
    Q = standard.chain_cat(4)
    bud = Budget()
    equivalence_witness(swapchain_L, Q, bud)
    equivalence_witness(swapchain_L, Q, Budget(bud.used))
    with pytest.raises(BudgetExceeded):
        equivalence_witness(swapchain_L, Q, Budget(bud.used - 1))


@pytest.mark.parametrize("Q", [standard.diamond, lambda: standard.chain_cat(4)],
                         ids=["witness", "exhausted"])
def test_witness_drawn_from_the_module_enumerator(swapchain_L, Q,
                                                  monkeypatch):
    """The search draws its candidates through core.enumerate_functors, so
    a wrapper there sees them, and the witness is named F<k>, k its
    position in the hom-size-preserving stream: a profiler reads how many
    candidates were examined off that name and how many were drawn."""
    Q = Q()
    calls, drawn = [], []
    enumerate_all = core.enumerate_functors

    def spy(*args, **kwargs):
        calls.append(kwargs)
        for F in enumerate_all(*args, **kwargs):
            drawn.append(F.name)
            yield F
    monkeypatch.setattr(core, "enumerate_functors", spy)
    res = core.equivalence_witness(swapchain_L, Q)
    assert calls == [{"same_hom_sizes": True}]
    stream = [F.name for F in enumerate_all(swapchain_L, Q,
                                            same_hom_sizes=True)]
    if res.witness is None:
        assert drawn == stream
    else:
        assert res.witness[0].name == drawn[-1] == "F%d" % (len(drawn) - 1)
        assert drawn == stream[:len(drawn)]


class _ReadLog(_CountedTable):
    """A table that counts its lookups and every pass over it."""

    def __contains__(self, key):
        self.reads += 1
        return super().__contains__(key)

    def __iter__(self):
        self.reads += 1
        return super().__iter__()

    def items(self):
        self.reads += 1
        return super().items()

    def values(self):
        self.reads += 1
        return super().values()


@pytest.mark.parametrize("make", [
    standard.diamond, lambda: standard.chain_cat(4), standard.chaotic_pair,
    z2, split_idempotent, oracle.parallel_pair_cat],
    ids=["diamond", "chain4", "chaotic_pair", "z2", "split_idempotent",
         "parallel_pair"])
def test_full_faithfulness_reads_only_plural_hom_sets(make):
    """Given kept hom-set sizes, full faithfulness reads each hom-set with
    two or more elements once, and the images of its morphisms, and
    nothing of the target: on a thin source it reads no hom-set and no
    image."""
    C, D = make(), make()
    plural = sum(len(C._hom[k]) for k in C._plural)
    F = Functor("F", C, D, {o: o for o in C.objects},
                _ReadLog({m: m for m in C.morphisms()}))
    C._hom, D._hom = _ReadLog(C._hom), _ReadLog(D._hom)
    assert core._fully_faithful_keeping_sizes(F)
    assert C._hom.reads == len(C._plural)
    assert F.mor_map.reads == plural
    assert D._hom.reads == 0
    assert (plural == 0) == C._thin


def test_size_keeping_functor_that_is_not_faithful():
    """The functor z2 -> z2 that sends both morphisms to the identity keeps
    every hom-set's size but is not faithful: the same_hom_sizes stream
    draws it, and the reduced test rejects it, as the reference does."""
    C, D = z2(), z2()
    stream = list(enumerate_functors(C, D, same_hom_sizes=True))
    collapse = [F for F in stream if F.mor_map == {"e": "e", "s": "e"}]
    assert len(collapse) == 1
    assert not core._fully_faithful_keeping_sizes(collapse[0])
    assert not oracle.fully_faithful(collapse[0])
    res = equivalence_witness(C, D)
    assert res.witness[0].mor_map == {"e": "e", "s": "s"}


def walking_iso_flip():
    """The walking iso sent to z2, with its 2-cells g and ginv on the
    non-trivial automorphism: a fiber that is not thin, under
    non-identity 2-cells."""
    idx = standard.walking_iso_twocat()
    X = z2()
    ident = identity_functor(X)
    on1 = {u: ident for u in idx.one_cells()}
    on2 = {g: identity_nat(ident) for g in idx.two_cells()}
    for g in ("g", "ginv"):
        on2[g] = NatTrans(g, ident, ident, {"*": "s"})
    return TwoDiagram("flip", idx, {"A": X, "B": X}, on1, on2)


def test_check_two_functor_compares_horizontal_components():
    """A diagram that fails only at a horizontal composite: walking_iso_flip
    with one hcomp entry of the index redirected to an identity 2-cell."""
    D = walking_iso_flip()
    idx = D.index
    assert check_two_functor(D) == oracle.check_two_functor(D) == (True, None)
    idx.hcomp[("2id_id_B", "g")] = "2id_u"
    want = (False, "horizontal composition 2id_id_B * g not preserved")
    assert check_two_functor(D) == oracle.check_two_functor(D) == want
