import re

import pytest

import oracle_kernel as oracle
from sitecolim import standard
from sitecolim.core import (Budget, FinCat, Functor, NatTrans, Presentation,
                            build_category, compose_functors,
                            enumerate_functors, enumerate_nat_trans,
                            equivalence_witness, identity_functor,
                            identity_nat, invert_nat, nat_is_invertible,
                            once_per_object, validate_category, validate_functor,
                            validate_nat_trans, vcomp_nat)
from sitecolim.errors import (BudgetExceeded, IllTypedRelation,
                              SaturationExceeded)

from test_kernel import z2


def test_validate_one_empty(one_cat):
    assert validate_category(one_cat) == []


def test_validate_two_empty(two_cat):
    assert validate_category(two_cat) == []


def test_validate_diamond_empty(diamond):
    assert validate_category(diamond) == []


def test_validate_catches_broken_associativity(two_cat):
    broken = FinCat("broken", two_cat.objects, dict(two_cat.mor_src),
                    dict(two_cat.mor_tgt), dict(two_cat.identities),
                    dict(two_cat.comp))
    broken.comp[("id_1", "a")] = "id_1"
    out = validate_category(broken)
    assert out and any("endpoints" in v or "identity law" in v for v in out)


def test_validate_catches_missing_composite(two_cat):
    comp = dict(two_cat.comp)
    del comp[("id_1", "a")]
    broken = FinCat("broken", two_cat.objects, dict(two_cat.mor_src),
                    dict(two_cat.mor_tgt), dict(two_cat.identities), comp)
    assert any("missing composite" in v for v in validate_category(broken))


def test_validate_catches_composite_of_unknown_morphism(two_cat):
    """Entries that name a deleted morphism are structural faults, found
    before any later phase reads the table."""
    mor_src, mor_tgt = dict(two_cat.mor_src), dict(two_cat.mor_tgt)
    del mor_src["a"], mor_tgt["a"]
    broken = FinCat("broken", two_cat.objects, mor_src, mor_tgt,
                    dict(two_cat.identities), dict(two_cat.comp))
    assert validate_category(broken) == [
        "composite a . id_0 names an unknown morphism",
        "composite id_1 . a names an unknown morphism"]


def test_hom_and_inverse(diamond):
    assert diamond.hom("bot", "top") == ("bot_top",)
    assert diamond.hom("top", "bot") == ()
    assert diamond.inverse("id_a") == "id_a"
    assert diamond.inverse("a_top") is None
    assert diamond.is_iso("id_top")


def _counted():
    """A function returning how many times it has been called, and the
    list of its calls' argument ids; it holds no argument itself."""
    calls = []

    def fn(*args):
        calls.append(tuple(map(id, args)))
        return len(calls)

    return fn, calls


def test_once_per_object_computes_once_per_fn_and_arguments():
    once = once_per_object()
    f, f_calls = _counted()
    g, g_calls = _counted()
    a, b = object(), object()
    assert [once(f, a), once(f, a, b), once(f, a), once(f, b, a),
            once(f, a, b), once(g, a), once(g, a)] == [1, 2, 1, 3, 2, 1, 1]
    assert f_calls == [(id(a),), (id(a), id(b)), (id(b), id(a))]
    assert g_calls == [(id(a),)]


def test_once_per_object_compares_arguments_by_identity(two_cat):
    """Two equal functors that are distinct objects are computed apart."""
    once = once_per_object()
    f, calls = _counted()
    F, G = identity_functor(two_cat), identity_functor(two_cat)
    assert F == G and F is not G
    assert [once(f, F), once(f, G), once(f, F)] == [1, 2, 1]
    assert len(calls) == 2


def test_once_per_object_keeps_its_arguments_alive():
    """A temporary argument is held by the memo, so the next temporary
    cannot take its id and be answered from its entry."""
    once = once_per_object()
    f, calls = _counted()
    assert [once(f, object()), once(f, object())] == [1, 2]
    assert len(calls) == 2


def test_build_category_free_arrow():
    pres = Presentation(("x", "y"), (("f", "x", "y"),))
    C = build_category(pres, bound=1, name="arrow")
    assert validate_category(C) == []
    assert len(C.objects) == 2
    assert len(C.morphisms()) == 3


def test_build_category_idempotent_relation():
    # one object, one generator e with e.e = e
    pres = Presentation(("x",), (("e", "x", "x"),), ((("e", "e"), ("e",)),))
    C = build_category(pres, bound=2)
    assert validate_category(C) == []
    assert len(C.morphisms()) == 2  # id and e


def test_build_category_involution():
    pres = Presentation(("x",), (("s", "x", "x"),), ((("s", "s"), ()),))
    C = build_category(pres, bound=1)
    assert validate_category(C) == []
    assert len(C.morphisms()) == 2
    assert C.inverse("s") == "s"


def test_build_category_saturation_exceeded():
    # free monoid on one generator never closes
    pres = Presentation(("x",), (("f", "x", "x"),))
    with pytest.raises(SaturationExceeded):
        build_category(pres, bound=2)


@pytest.mark.parametrize("relations, message", [
    # f : x -> y equated with the identity at x
    (((("f",), ()),), "relation f = (): sides are not parallel "
                      "(x -> y, x -> x)"),
    (((("f",), ("g",)),), "relation f = g: sides are not parallel "
                          "(x -> y, y -> x)"),
    (((("f", "f"), ("f",)),), "relation f.f = f: f.f is not a path"),
    (((("f", "h"), ("f",)),), "relation f.h = f: f.h is not a path"),
])
def test_build_category_rejects_ill_typed_relation(relations, message):
    pres = Presentation(("x", "y"), (("f", "x", "y"), ("g", "y", "x")),
                        relations)
    with pytest.raises(IllTypedRelation, match=re.escape(message)):
        build_category(pres, bound=2)


def test_build_category_accepts_parallel_and_empty_sides():
    """f.g = () is a loop at x equated with id_x; () = () says nothing."""
    pres = Presentation(("x", "y"), (("f", "x", "y"), ("g", "y", "x")),
                        ((("f", "g"), ()), ((), ())))
    C = build_category(pres, bound=2)
    assert C.comp[("g", "f")] == "id_x"
    assert C.comp[("f", "g")] == "g.f"


def test_enumerate_functors_counts(one_cat, two_cat):
    assert len(list(enumerate_functors(one_cat, two_cat))) == 2
    # two -> two: constant 0, constant 1, identity
    fs = list(enumerate_functors(two_cat, two_cat))
    assert len(fs) == 3
    for F in fs:
        assert validate_functor(F) == []


def test_enumerate_functors_deterministic(two_cat, diamond):
    a = [F.key() for F in enumerate_functors(two_cat, diamond)]
    b = [F.key() for F in enumerate_functors(two_cat, diamond)]
    assert a == b


def test_enumerate_functors_budget(two_cat, diamond):
    with pytest.raises(BudgetExceeded):
        list(enumerate_functors(two_cat, diamond, Budget(3)))


def test_functor_composition(two_cat, diamond):
    F = Functor("F", two_cat, diamond, {"0": "bot", "1": "top"},
                {"id_0": "id_bot", "id_1": "id_top", "a": "bot_top"})
    assert validate_functor(F) == []
    G = compose_functors(identity_functor(diamond), F)
    assert G == F  # equality ignores names


def test_validate_functor_catches_bad_composition(two_cat, diamond):
    F = Functor("bad", two_cat, diamond, {"0": "bot", "1": "bot"},
                {"id_0": "id_bot", "id_1": "id_bot", "a": "id_bot"})
    assert validate_functor(F) == []
    F2 = Functor("bad2", two_cat, diamond, {"0": "bot", "1": "top"},
                 {"id_0": "id_bot", "id_1": "id_bot", "a": "bot_top"})
    assert validate_functor(F2) != []


def test_validate_functor_reports_unmapped_object(two_cat):
    F = Functor("partial", two_cat, two_cat, {"1": "1"},
                {m: m for m in two_cat.morphisms()})
    assert validate_functor(F) == ["object 0 not mapped into target",
                                   "morphism a image has wrong endpoints",
                                   "morphism id_0 image has wrong endpoints"]


def test_validate_nat_trans_reports_non_parallel_functors(two_cat,
                                                          diamond):
    F = identity_functor(two_cat)
    G = Functor("G", two_cat, diamond, {"0": "bot", "1": "top"},
                {"id_0": "id_bot", "id_1": "id_top", "a": "bot_top"})
    a = NatTrans("a", F, G, {"0": "id_0", "1": "id_1"})
    assert validate_nat_trans(a) == [
        "source and target functors are not parallel"]


def shadow_two(objects=("p", "q", "r")):
    """A category named `two` that is not the arrow category: the discrete
    category on `objects`."""
    return build_category(Presentation(objects, ()), 1, "two")


def test_equality_ignores_labels(two_cat):
    F = identity_functor(two_cat)
    G = Functor("relabelled", two_cat, two_cat, dict(F.obj_map),
                dict(F.mor_map))
    assert F == G
    assert identity_nat(F) == NatTrans("relabelled", G, F,
                                       dict(identity_nat(F).components))


def test_equal_tables_make_equal_categories():
    C, D = standard.diamond(), standard.diamond()
    assert C is not D and C == D
    assert identity_functor(C) == identity_functor(D)


def test_a_shared_name_does_not_make_categories_equal(one_cat, two_cat):
    """The discrete `two` on 0 and 1 differs from the arrow category only
    in its tables, so functors with equal maps into them differ too."""
    discrete = shadow_two(("0", "1"))
    assert discrete.name == two_cat.name and discrete != two_cat
    maps = ({"o": "0"}, {"id_o": "id_0"})
    assert (Functor("F", one_cat, two_cat, *maps)
            != Functor("F", one_cat, discrete, *maps))


def test_shadowed_categories_are_not_parallel(two_cat):
    """idtwo and the identity on a one-object `two` share their boundary
    names but not their boundaries: a violation, not a KeyError."""
    a = NatTrans("n", identity_functor(two_cat),
                 identity_functor(shadow_two(("p",))),
                 {"0": "id_0", "1": "id_1"})
    assert validate_nat_trans(a) == [
        "source and target functors are not parallel"]


def test_nat_trans_enumeration_and_algebra(two_cat):
    fs = list(enumerate_functors(two_cat, two_cat))
    const0 = next(F for F in fs if set(F.obj_map.values()) == {"0"})
    const1 = next(F for F in fs if set(F.obj_map.values()) == {"1"})
    ident = next(F for F in fs if F.obj_map == {"0": "0", "1": "1"})
    assert len(enumerate_nat_trans(const0, const1)) == 1
    assert len(enumerate_nat_trans(const1, const0)) == 0
    assert len(enumerate_nat_trans(ident, ident)) == 1
    a = enumerate_nat_trans(const0, ident)[0]
    assert validate_nat_trans(a) == []
    b = enumerate_nat_trans(ident, const1)[0]
    c = vcomp_nat(b, a)
    assert validate_nat_trans(c) == []
    assert c.components == enumerate_nat_trans(const0, const1)[0].components


def test_identity_nat_invertible(two_cat):
    n = identity_nat(identity_functor(two_cat))
    assert nat_is_invertible(n)
    assert invert_nat(n).components == n.components


def test_hcomp_matches_whiskering(two_cat, diamond):
    F = Functor("F", two_cat, diamond, {"0": "bot", "1": "top"},
                {"id_0": "id_bot", "id_1": "id_top", "a": "bot_top"})
    idn = identity_nat(F)
    h = oracle.hcomp_nat(idn, identity_nat(identity_functor(two_cat)))
    assert h.components == idn.components


def test_equivalence_chaotic_pair_vs_one(one_cat):
    chao = standard.chaotic_pair()
    res = equivalence_witness(chao, one_cat)
    assert res.witness is not None
    F, G, eta, eps = res.witness
    assert validate_functor(F) == [] and validate_functor(G) == []
    assert validate_nat_trans(eta) == [] and validate_nat_trans(eps) == []
    assert nat_is_invertible(eta) and nat_is_invertible(eps)


def test_no_equivalence_two_vs_one(one_cat, two_cat):
    res = equivalence_witness(two_cat, one_cat)
    assert res.witness is None
    assert res.exhausted


def test_functor_law_faults_are_named():
    """s |-> s sends the identity e of z2 to s; chain3 -> z2 sending every
    non-identity arrow to s breaks 1_2 . 0_1 = 0_2, as s.s = e."""
    Z = z2()
    bad_id = Functor("bad_id", Z, Z, {"*": "*"}, {"e": "s", "s": "s"})
    assert validate_functor(bad_id)[0] == "identity at * not preserved"
    C = standard.chain_cat(3)
    bad_comp = Functor("bad_comp", C, Z, {o: "*" for o in C.objects},
                       {m: "e" if C.is_identity(m) else "s"
                        for m in C.morphisms()})
    assert validate_functor(bad_comp) == [
        "composition 1_2 . 0_1 not preserved"]


def test_nat_trans_faults_are_named(two_cat):
    """A component with the wrong target, and the identity of z2 => its
    trivial endofunctor, whose one component e is not natural at s."""
    ident = identity_functor(two_cat)
    skew = NatTrans("skew", ident, ident, {"0": "id_0", "1": "a"})
    assert validate_nat_trans(skew) == ["component at 1 has wrong endpoints"]
    Z = z2()
    trivial = Functor("trivial", Z, Z, {"*": "*"}, {"e": "e", "s": "e"})
    eta = NatTrans("eta", identity_functor(Z), trivial, {"*": "e"})
    assert validate_nat_trans(eta) == ["naturality fails at s"]
