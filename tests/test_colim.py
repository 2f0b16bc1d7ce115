import re

import pytest

import oracle_kernel as oracle
from conftest import FIXTURE_DIR
from sitecolim import standard
from sitecolim.colim import (build_pseudocolimit, colim_finite_limit,
                             colim_limit_assignment, factor_cone,
                             lift_diagram, obj_name, recompose,
                             reindex_iso, verify_bicolimit)
from sitecolim.cones import enumerate_modifications, enumerate_pseudocones
from sitecolim.core import (Budget, NatTrans, Presentation, build_category,
                            enumerate_nat_trans, equivalence_witness,
                            validate_category, validate_functor,
                            validate_nat_trans)
from sitecolim.errors import (BudgetExceeded, IncompleteAssignment,
                              IncompleteDiagram, NameCollision, NotFiltered,
                              SitecolimError)
from sitecolim.fixtures import DiagramBlock, parse
from sitecolim.limits import (Diagram, LimitAssignment, check_exact,
                              discrete_pair, empty_diagram, is_limiting_cone,
                              parallel_pair, validate_assignment)
from sitecolim.twocat import constant_diagram, two_cat_from_cat
from test_exactness import poset_limits
from test_span_layer import CASES


class NoSolution(SitecolimError):
    """A mediating cell guaranteed to exist was not found."""


def factor_cell(R, t, phi):
    """The unique 2-cell xi : l => t with (xi . lambda) = phi, where
    l = factor_cone(phi.source).  Invertible whenever phi is."""
    ell = factor_cone(R, phi.source)
    comps = {}
    for p, (A, x) in R.obj_info.items():
        comps[p] = phi.components[A].components[x]
    xi = NatTrans("xi_%s" % phi.name, ell, t, comps)
    bad = validate_nat_trans(xi)
    if bad:
        raise NoSolution("induced 2-cell is not natural: %s" % bad[0])
    return xi


def enumerate_factor_cells(R, ell, t, phi):
    """Brute-force search for all xi with xi . lambda = phi (oracle for the
    uniqueness clause; must return exactly one element)."""
    out = []
    for xi in enumerate_nat_trans(ell, t):
        if all(xi.components[obj_name(A, x)] == phi.components[A].components[x]
               for p, (A, x) in R.obj_info.items()):
            out.append(xi)
    assert len(out) <= 1, "%d mediating 2-cells" % len(out)
    return out


def test_consttwo_colim_shape(consttwo_colim):
    L = consttwo_colim.category
    assert validate_category(L) == []
    assert len(L.objects) == 6
    assert len(L.morphisms()) == 27
    # every hom-set collapses to at most one class here
    assert len(L.hom("0.0", "2.1")) == 1


def test_consttwo_colim_cone_is_pseudocone(consttwo_colim):
    from sitecolim.cones import check_pseudocone
    ok, why = check_pseudocone(consttwo_colim.cone)
    assert ok, why
    for A, leg in consttwo_colim.cone.legs.items():
        assert validate_functor(leg) == []


def test_consttwo_colim_equivalent_to_two(consttwo_colim, two_cat):
    res = equivalence_witness(consttwo_colim.category, two_cat)
    assert res.witness is not None


def test_not_filtered_raises():
    dia = constant_diagram(standard.discrete_pair_twocat(), standard.one())
    with pytest.raises(NotFiltered):
        build_pseudocolimit(dia)


def test_budget_exhausted(diamondchain):
    with pytest.raises(BudgetExceeded):
        build_pseudocolimit(diamondchain, Budget(50))


def test_seed_does_not_change_result(consttwo):
    base = build_pseudocolimit(consttwo)
    for seed in (0, 1, 17):
        assert recompose(base, seed, Budget()) == base.category.comp


def test_walking_iso_colim(two_cat):
    # the invertible 2-cell merges the two parallel transitions
    R = build_pseudocolimit(standard.walking_iso_diagram())
    assert validate_category(R.category) == []
    res = equivalence_witness(R.category, two_cat)
    assert res.witness is not None


def test_verify_bicolimit_consttwo_two(consttwo_colim, two_cat):
    rep = verify_bicolimit(consttwo_colim, two_cat)
    assert rep.functor_objects == rep.cone_objects == 3
    assert rep.functor_morphisms == rep.cone_morphisms == 6
    assert rep.isomorphism


def test_factor_cone_strict_triangle(consttwo_colim, two_cat):
    from sitecolim.cones import postcompose_cone
    for h in enumerate_pseudocones(consttwo_colim.diagram, two_cat):
        ell = factor_cone(consttwo_colim, h)
        assert validate_functor(ell) == []
        back = postcompose_cone(consttwo_colim.cone, ell)
        assert back.key() == h.key()


def test_factor_cell_unique(consttwo_colim, two_cat):
    cones = enumerate_pseudocones(consttwo_colim.diagram, two_cat)
    for g in cones:
        for h in cones:
            ell_g = factor_cone(consttwo_colim, g)
            ell_h = factor_cone(consttwo_colim, h)
            for phi in enumerate_modifications(g, h):
                xi = factor_cell(consttwo_colim, ell_h, phi)
                sols = enumerate_factor_cells(consttwo_colim, ell_g,
                                              ell_h, phi)
                assert len(sols) == 1
                assert sols[0].components == xi.components


def test_inclchain_colim_equivalent_to_two(two_cat):
    R = build_pseudocolimit(standard.inclusion_chain_diagram())
    res = equivalence_witness(R.category, two_cat)
    assert res.witness is not None


def test_swapchain_colim_equivalent_to_diamond(diamond):
    R = build_pseudocolimit(standard.swap_chain_diagram())
    assert len(R.category.objects) == 12
    res = equivalence_witness(R.category, diamond)
    assert res.witness is not None


# -- finite limits in the colimit -------------------------------------------


@pytest.fixture(scope="module")
def diamond_fiber_limits(diamond_limits):
    return {A: diamond_limits for A in "012"}


def test_colim_terminal(diamondchain_colim, diamond_fiber_limits):
    cone = colim_finite_limit(diamondchain_colim, empty_diagram(),
                              diamond_fiber_limits)
    assert cone.apex == "0.top"
    assert is_limiting_cone(diamondchain_colim.category, empty_diagram(), cone)


def test_colim_cross_fiber_product(diamondchain_colim, diamond_fiber_limits):
    L = diamondchain_colim.category
    dia = discrete_pair("0.a", "2.b")
    cone = colim_finite_limit(diamondchain_colim, dia, diamond_fiber_limits)
    _, x = diamondchain_colim.obj_info[cone.apex]
    assert x == "bot"
    assert is_limiting_cone(L, dia, cone)


def test_colim_equalizer(diamondchain_colim, diamond_fiber_limits):
    L = diamondchain_colim.category
    pairs = [(f, g) for f in L.morphisms()
             for g in L.hom(L.mor_src[f], L.mor_tgt[f]) if f != g]
    # identity transitions on a poset: all parallel pairs are equal classes
    assert pairs == []


def _non_identity_morphisms(L):
    return [m for m in L.morphisms() if not L.is_identity(m)]


def test_lift_one_edge_diagrams(diamondchain_colim):
    """Every non-identity morphism m, as a one-edge diagram, lifts to one
    fiber, and the lifted edge pushed forward through lambda_A and the
    re-indexing isos is m again."""
    R = diamondchain_colim
    L = R.category
    ms = _non_identity_morphisms(L)
    assert len(ms) == 69
    for m in ms:
        dia = Diagram({"s": L.mor_src[m], "t": L.mor_tgt[m]},
                      {"e": ("s", "t", m)})
        A, pick, lifted = lift_diagram(R, dia)
        i, j, f = lifted.edges["e"]
        assert (i, j) == ("s", "t")
        fiber = R.diagram.fibers[A]
        assert lifted.nodes == {"s": fiber.mor_src[f], "t": fiber.mor_tgt[f]}
        into_s = reindex_iso(R, A, pick["s"], L.mor_src[m])
        into_t = reindex_iso(R, A, pick["t"], L.mor_tgt[m])
        pushed = R.cone.legs[A].mor_map[f]
        assert L.compose_path(into_t, pushed, L.inverse(into_s)) == m


def test_colim_limits_of_lifted_diagrams(diamondchain_colim,
                                         diamond_fiber_limits):
    R = diamondchain_colim
    L = R.category
    for m in _non_identity_morphisms(L):
        for dia in (Diagram({"s": L.mor_src[m], "t": L.mor_tgt[m]},
                            {"e": ("s", "t", m)}),
                    parallel_pair(L, m, m)):
            cone = colim_finite_limit(R, dia, diamond_fiber_limits)
            assert is_limiting_cone(L, dia, cone), (m, dia)


def test_colim_limit_assignment_valid(diamondchain_colim,
                                      diamond_fiber_limits):
    A = colim_limit_assignment(diamondchain_colim, diamond_fiber_limits)
    assert A.is_complete()
    assert validate_assignment(A) == []


@pytest.mark.parametrize("build", [
    standard.const_two_diagram, standard.inclusion_chain_diagram,
    standard.diamond_chain_diagram, standard.swap_chain_diagram,
    standard.walking_iso_diagram], ids=lambda b: b.__name__)
def test_products_read_off_the_fibers(build):
    """Every chosen product of the colimit is the cone colim_finite_limit
    builds by lifting the discrete pair, and the assignment validates."""
    dia = build()
    fl = {A: standard.poset_limits(C, lambda a, b, C=C: bool(C.hom(a, b)))
          for A, C in dia.fibers.items()}
    R = build_pseudocolimit(dia)
    L = R.category
    got = colim_limit_assignment(R, fl)
    assert len(got.products) == len(L.objects) ** 2
    for a in L.objects:
        for b in L.objects:
            cone = colim_finite_limit(R, discrete_pair(a, b), fl)
            assert got.products[(a, b)] == (cone.apex, cone.legs["l"],
                                            cone.legs["r"]), (a, b)
    assert validate_assignment(got) == []


@pytest.mark.parametrize("drop", ["fiber", "product"])
def test_product_errors_match_lifting(diamondchain_colim, diamond_limits,
                                      drop):
    """Without fiber 2's assignment, or without fiber 1's product of a and
    b, the product table raises what lifting the first failing pair
    raises."""
    R = diamondchain_colim
    L = R.category
    fl = {A: diamond_limits for A in "012"}
    if drop == "fiber":
        del fl["2"]
    else:
        fl["1"] = LimitAssignment(
            diamond_limits.cat, diamond_limits.terminal, diamond_limits.tmap,
            {k: v for k, v in diamond_limits.products.items()
             if k != ("a", "b")}, diamond_limits.equalizers)
    with pytest.raises(IncompleteAssignment) as want:
        for a in L.objects:
            for b in L.objects:
                colim_finite_limit(R, discrete_pair(a, b), fl)
    with pytest.raises(IncompleteAssignment) as got:
        colim_limit_assignment(R, fl)
    assert str(got.value) == str(want.value)
    assert str(got.value) == ("fiber 2 has no limit assignment"
                              if drop == "fiber" else
                              "no chosen product for ('a', 'b') in diamond")


def test_cone_legs_exact(diamondchain_colim, diamond_fiber_limits):
    legs = diamondchain_colim.cone.legs
    assert all(check_exact(legs[A], diamond_fiber_limits[A])[0]
               for A in sorted(legs))


def test_cone_exactness_negative(diamondchain_colim, diamond,
                                 diamond_limits):
    corrupted = LimitAssignment(diamond, diamond_limits.terminal,
                                dict(diamond_limits.tmap),
                                dict(diamond_limits.products),
                                dict(diamond_limits.equalizers))
    corrupted.products[("a", "b")] = ("top", "id_top", "id_top")
    legs = diamondchain_colim.cone.legs
    assert not all(check_exact(legs[A], corrupted)[0] for A in sorted(legs))


def colliding_objects():
    """Index objects 0 and 0.a, each with fiber objects a.b and b: the
    colimit objects (0, a.b) and (0.a, b) are both named 0.a.b."""
    idx = two_cat_from_cat(standard.poset_category(
        "idx", ("0", "0.a"), lambda x, y: x == y or x == "0"))
    C = standard.poset_category("c", ("a.b", "b"), lambda x, y: x == y)
    return constant_diagram(idx, C, "collide")


def colliding_classes():
    """Fiber objects x, x>o.y, y>o.z and z over the point, with
    x <= y>o.z and x>o.y <= z: both hom blocks name their one class
    o.x>o.y>o.z#0."""
    le = {("x", "y>o.z"), ("x>o.y", "z")}
    C = standard.poset_category("c", ("x", "x>o.y", "y>o.z", "z"),
                                lambda a, b: a == b or (a, b) in le)
    return constant_diagram(standard.point_twocat(), C, "collide")


COLLISIONS = [
    (colliding_objects,
     "colimit object 0.a.b names both (0, a.b) and (0.a, b)"),
    (colliding_classes,
     "colimit morphism o.x>o.y>o.z#0 names a class o.x -> o.y>o.z and one "
     "o.x>o.y -> o.z")]


@pytest.mark.parametrize("build, message", COLLISIONS,
                         ids=["objects", "classes"])
def test_colliding_names_are_refused(build, message):
    with pytest.raises(NameCollision, match="^%s$" % re.escape(message)):
        build_pseudocolimit(build())


def test_limit_assignment_refuses_a_non_thin_colimit():
    """Over the point, the colimit of s => t -> e (f and g parallel, both
    equal after a) is that category: every object has one morphism to e,
    and an unvalidated assignment can name a product for every pair, but
    f and g have no equalizer of the form (src f, id)."""
    pres = Presentation(("s", "t", "e"), (("f", "s", "t"), ("g", "s", "t"),
                                          ("a", "t", "e")),
                        ((("f", "a"), ("g", "a")),))
    C = build_category(pres, 2, "fork")
    R = build_pseudocolimit(constant_diagram(standard.point_twocat(), C))
    products = {(x, y): ("s", C.hom("s", x)[0], C.hom("s", y)[0])
                for x in C.objects for y in C.objects}
    fl = {"o": LimitAssignment(C, "e", {}, products, {})}
    with pytest.raises(IncompleteAssignment, match=(
            "^the colimit is not thin: o.s>o.t#0 and o.s>o.t#1 are "
            "parallel$")):
        colim_limit_assignment(R, fl)


@pytest.mark.parametrize("old, new, message", [
    ("comp a . id_0 = a\n", "", "no functor at 0_1"),
    ("mor a -> a\n", "mor a -> id_0\n", "no transformation at 2id_0_1")],
    ids=["fiber", "transition"])
def test_diagram_with_a_violation_is_refused(fixture_dir, old, new, message):
    """A parsed diagram block whose fiber or transition has a violation
    carries no functors or no transformations; building from it names the
    first missing one instead of failing on a lookup."""
    text = (fixture_dir / "consttwo.diag").read_text()
    env = parse(text.replace(old, new))
    assert env.violations["consttwo"]
    with pytest.raises(IncompleteDiagram, match="^%s$" % message):
        build_pseudocolimit(env["consttwo"].diagram)


def corpus_site_diagrams():
    """name -> (diagram, fiber limits) for every diagram of the corpus whose
    fibers all carry a limit assignment."""
    out = {}
    for path in sorted(FIXTURE_DIR.glob("*.diag")):
        for name, v in parse(path.read_text()).items():
            if (isinstance(v, DiagramBlock) and v.fiber_blocks and all(
                    b.limits is not None for b in v.fiber_blocks.values())):
                out["%s:%s" % (path.name, name)] = (v.diagram, {
                    A: b.limits for A, b in v.fiber_blocks.items()})
    return out


def case_fiber_limits(dia):
    """Each thin fiber's poset limits; a fiber with parallel morphisms
    gets an unvalidated assignment that names a terminal only."""
    return {A: poset_limits(C) if C._thin
            else LimitAssignment(C, C.objects[-1], {}, {}, {})
            for A, C in dia.fibers.items()}


def limit_inputs():
    """(name, diagram, fiber limits): every site diagram of the corpus and
    every diagram of test_span_layer.CASES, each as it is, without its
    last index object's assignment, and without one chosen product of its
    first fiber."""
    out = [(name, dia, fl) for name, (dia, fl)
           in sorted(corpus_site_diagrams().items())]
    out += [(name, CASES[name](), None) for name in sorted(CASES)]
    cases = []
    for name, dia, fl in out:
        fl = fl or case_fiber_limits(dia)
        last = max(dia.fibers)
        first = min(dia.fibers)
        short = dict(fl)
        lim = short[first]
        short[first] = LimitAssignment(lim.cat, lim.terminal, lim.tmap, dict(
            list(lim.products.items())[1:]), lim.equalizers)
        cases += [(name, dia, fl),
                  (name + "-no_" + last, dia, {A: v for A, v in fl.items()
                                               if A != last}),
                  (name + "-short_" + first, dia, short)]
    return cases


LIMIT_INPUTS = limit_inputs()


def assignment_outcome(make, R, fl):
    """The whole assignment make(R, fl) builds, its tables in insertion
    order, or the type and text of its refusal."""
    try:
        A = make(R, fl)
    except SitecolimError as e:
        return type(e).__name__, str(e)
    return (A.cat is R.category, A.terminal, list(A.tmap.items()),
            list(A.products.items()), list(A.equalizers.items()))


@pytest.mark.parametrize("name, dia, fl", LIMIT_INPUTS,
                         ids=[case[0] for case in LIMIT_INPUTS])
def test_limit_assignment_matches_reference(name, dia, fl):
    """colim_limit_assignment, which reads each pair of index objects'
    maps once, gives the reference's assignment entry for entry and in
    order, or refuses with the same text."""
    R = build_pseudocolimit(dia)
    assert (assignment_outcome(colim_limit_assignment, R, fl)
            == assignment_outcome(oracle.colim_limit_assignment, R, fl))


def test_limit_inputs_reach_every_refusal():
    """The inputs above give complete assignments and each refusal of
    colim_limit_assignment."""
    got = [assignment_outcome(colim_limit_assignment,
                              build_pseudocolimit(dia), fl)
           for _, dia, fl in LIMIT_INPUTS]
    texts = [o[1] for o in got if len(o) == 2]
    assert any(len(o) == 5 for o in got)
    for start in ("the colimit is not thin", "fiber ", "no chosen product",
                  "no fiber terminal is terminal"):
        assert any(t.startswith(start) for t in texts), start
