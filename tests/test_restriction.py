import pytest

from sitecolim import standard
from sitecolim.core import Functor, NatTrans, identity_functor, identity_nat
from sitecolim.restriction import (AmbientDiagram, finite_limit_closure,
                                   full_subcategory, restrict_diagram,
                                   verify_restriction)
from sitecolim.twocat import TwoDiagram, constant_diagram


@pytest.fixture(scope="module")
def dl():
    return standard.diamond_limits()


def test_closure_contains_terminal(dl):
    assert finite_limit_closure(dl, set()) == frozenset({"top"})


def test_closure_adds_meets(dl):
    assert finite_limit_closure(dl, {"a", "b"}) == \
        frozenset({"a", "b", "bot", "top"})


def test_closure_is_closure_operator(dl):
    import itertools
    objs = dl.cat.objects
    subsets = [frozenset(c) for r in range(len(objs) + 1)
               for c in itertools.combinations(objs, r)]
    for S in subsets:
        C = finite_limit_closure(dl, S)
        assert S <= C  # extensive
        assert finite_limit_closure(dl, C) == C  # idempotent
        for T in subsets:
            if S <= T:  # monotone
                assert C <= finite_limit_closure(dl, T)


def test_full_subcategory(diamond):
    sub, incl = full_subcategory(diamond, ("a", "top"))
    from sitecolim.core import validate_category, validate_functor
    assert validate_category(sub) == []
    assert validate_functor(incl) == []
    assert sub.hom("a", "top") == ("a_top",)
    assert sub.hom("top", "a") == ()


def _diamond_ambient(generators):
    dia = standard.diamond_chain_diagram()
    return AmbientDiagram(dia,
                          {A: standard.diamond_limits() for A in "012"},
                          {A: frozenset(g) for A, g in generators.items()})


def test_fixture1_diamond_chain():
    amb = _diamond_ambient({A: {"a", "b"} for A in "012"})
    assert amb.validate() == []
    r = restrict_diagram(amb)
    assert r.rounds <= 3
    assert all(r.objects[A] == frozenset({"a", "b", "bot", "top"})
               for A in "012")
    assert verify_restriction(r) == []


def test_fixture2_point_index(dl):
    dia = standard.point_diagram(standard.diamond())
    amb = AmbientDiagram(dia, {"o": dl}, {"o": frozenset({"a"})})
    assert amb.validate() == []
    r = restrict_diagram(amb)
    assert r.rounds <= 3
    assert r.objects["o"] == finite_limit_closure(dl, {"a"})
    assert verify_restriction(r) == []


def _chain2_const_top_ambient():
    """Chain2 index, diamond fibers, transition = exact constant-top."""
    idx = standard.chain2_twocat()
    D = standard.diamond()
    const_top = Functor("ctop", D, D, {o: "top" for o in D.objects},
                        {m: "id_top" for m in D.morphisms()})
    on1 = {"id_0": identity_functor(D), "id_1": identity_functor(D),
           "0_1": const_top}
    on2 = {idx.two_id[u]: identity_nat(on1[u]) for u in idx.one_cells()}
    dia = TwoDiagram("consttopchain", idx, {"0": D, "1": D}, on1, on2)
    return AmbientDiagram(dia,
                          {"0": standard.diamond_limits(),
                           "1": standard.diamond_limits()},
                          {"0": frozenset({"a"}), "1": frozenset({"b"})})


def test_fixture3_chain2_const_top():
    amb = _chain2_const_top_ambient()
    assert amb.validate() == []
    r = restrict_diagram(amb)
    assert r.rounds <= 3
    assert r.objects["0"] == frozenset({"a", "top"})
    assert r.objects["1"] == frozenset({"b", "top"})
    assert verify_restriction(r) == []


def test_idempotent():
    amb = _diamond_ambient({A: {"a"} for A in "012"})
    r = restrict_diagram(amb)
    again = AmbientDiagram(amb.diagram, amb.fiber_limits, r.objects)
    r2 = restrict_diagram(again)
    assert r2.objects == r.objects


def test_monotone():
    small = restrict_diagram(_diamond_ambient({A: {"a"} for A in "012"}))
    big = restrict_diagram(_diamond_ambient(
        {"0": {"a", "b"}, "1": {"a"}, "2": {"a"}}))
    for A in "012":
        assert small.objects[A] <= big.objects[A]


def test_validate_catches_missing_limits():
    dia = standard.diamond_chain_diagram()
    amb = AmbientDiagram(dia, {}, {A: frozenset({"a"}) for A in "012"})
    assert any("complete limit" in v for v in amb.validate())


@pytest.mark.parametrize("valid", [(), ("1",)])
def test_validate_reports_a_none_assignment(valid):
    """A fiber whose assignment is None is reported, and no transition
    into or out of it is checked for exactness."""
    D = standard.diamond()
    dia = constant_diagram(standard.chain2_twocat(), D)
    limits = {A: standard.poset_limits(D, standard.diamond_le)
              if A in valid else None for A in "01"}
    amb = AmbientDiagram(dia, limits, {A: frozenset({"a"}) for A in "01"})
    assert amb.validate() == ["fiber %s has no complete limit assignment" % A
                              for A in "01" if A not in valid]


def test_validate_catches_inexact_transition():
    idx = standard.chain2_twocat()
    D = standard.diamond()
    const_bot = Functor("cbot", D, D, {o: "bot" for o in D.objects},
                        {m: "id_bot" for m in D.morphisms()})
    on1 = {"id_0": identity_functor(D), "id_1": identity_functor(D),
           "0_1": const_bot}
    on2 = {idx.two_id[u]: identity_nat(on1[u]) for u in idx.one_cells()}
    dia = TwoDiagram("badchain", idx, {"0": D, "1": D}, on1, on2)
    amb = AmbientDiagram(dia, {"0": standard.diamond_limits(),
                               "1": standard.diamond_limits()},
                         {"0": frozenset({"a"}), "1": frozenset({"a"})})
    assert any("not exact" in v for v in amb.validate())


def test_verify_restriction_detects_tampering():
    amb = _diamond_ambient({A: {"a", "b"} for A in "012"})
    r = restrict_diagram(amb)
    r.objects["1"] = frozenset({"a", "b", "top"})  # drop the product bot
    assert any("product" in v or "missing" in v
               for v in verify_restriction(r))


def _retarget(functors, u, table, key, value):
    """functors[u] with one entry of its obj_map or mor_map replaced."""
    F = functors[u]
    maps = {"obj_map": dict(F.obj_map), "mor_map": dict(F.mor_map)}
    maps[table][key] = value
    functors[u] = Functor(F.name, F.source, F.target, **maps)


def _recomponent(r, g, o, m):
    n = r.restricted.on2[g]
    r.restricted.on2[g] = NatTrans(n.name, n.source, n.target,
                                   dict(n.components, **{o: m}))


# a tampering of the diamond chain's restriction, and a violation it gets
TAMPERINGS = [
    (lambda r: r.ambient.generators.update({"0": frozenset({"a", "zz"})}),
     "generators of 0 not contained in C_0"),
    (lambda r: r.objects.update({"0": r.objects["0"] - {"top"}}),
     "chosen terminal missing from C_0"),
    (lambda r: _retarget(r.restricted.on1, "0_1", "obj_map", "a", "b"),
     "square at 0_1 fails on object a"),
    (lambda r: _retarget(r.restricted.on1, "0_1", "mor_map", "id_a", "id_b"),
     "square at 0_1 fails on morphism id_a"),
    (lambda r: _recomponent(r, "2id_0_1", "a", "bot_a"),
     "2-cell 2id_0_1 component at a not the restriction"),
    (lambda r: _recomponent(r, "2id_0_1", "a", "zz"),
     "2-cell 2id_0_1 component at a leaves C_1"),
]


@pytest.mark.parametrize("tamper, message", TAMPERINGS,
                         ids=[m for _, m in TAMPERINGS])
def test_verify_restriction_names_each_fault(tamper, message):
    r = restrict_diagram(_diamond_ambient({A: {"a", "b"} for A in "012"}))
    assert verify_restriction(r) == []
    tamper(r)
    assert message in verify_restriction(r)
