import pytest

from sitecolim import restriction, sites, standard
from sitecolim.cones import Pseudocone
from sitecolim.core import (Functor, NatTrans, compose_functors,
                            identity_functor, identity_nat)
from sitecolim.errors import ClosureViolation
from sitecolim.restriction import AmbientDiagram
from sitecolim.sites import (Presheaf, Site, SiteDiagram, build_colim_site,
                             check_continuous, check_sheaf, family_is_cover,
                             site_morphism_violations, trivial_site,
                             validate_presheaf, validate_site,
                             verify_site_pseudocolimit)
from sitecolim.twocat import TwoDiagram, check_two_functor


def restrict_pseudocone(h, inclusions, restricted):
    """Restrict a cone over the ambient diagram along full inclusions that
    are closed under the transitions."""
    F = h.diagram
    C1 = F.index.cells1
    for u in F.index.one_cells():
        a, b = C1.mor_src[u], C1.mor_tgt[u]
        for o in inclusions[a].source.objects:
            amb = F.on1[u].obj_map[inclusions[a].obj_map[o]]
            sub = inclusions[b].obj_map[restricted.on1[u].obj_map[o]]
            if amb != sub:
                raise ClosureViolation(
                    "transition %s does not restrict at %s" % (u, o))
    legs = {A: compose_functors(h.legs[A], inclusions[A]) for A in h.legs}
    coherence = {}
    for u in F.index.one_cells():
        a, b = C1.mor_src[u], C1.mor_tgt[u]
        cell, incl = h.coherence[u], inclusions[a]
        coherence[u] = NatTrans(
            "(%s)%s" % (cell.name, incl.name), legs[a],
            compose_functors(legs[b], restricted.on1[u]),
            {o: cell.components[incl.obj_map[o]] for o in incl.source.objects})
    return Pseudocone("%s|res" % h.name, restricted, h.vertex, legs, coherence)


@pytest.fixture(scope="module")
def covered_diamond(diamond, diamond_limits):
    return Site(diamond, diamond_limits,
                {"top": (("a_top", "b_top"),)},
                frozenset({"a", "b", "bot"}))


@pytest.fixture(scope="module")
def site_diagram(diamondchain, covered_diamond):
    return SiteDiagram(diamondchain, {A: covered_diamond for A in "012"})


@pytest.fixture(scope="module")
def colim_site(site_diagram):
    return build_colim_site(site_diagram)


def test_trivial_site_valid(diamond, diamond_limits):
    assert validate_site(trivial_site(diamond, diamond_limits)) == []


def test_covered_diamond_valid(covered_diamond):
    assert validate_site(covered_diamond) == []


def test_generator_coverage_violation(diamond, diamond_limits):
    S = Site(diamond, diamond_limits, {}, frozenset({"a", "b"}))
    out = validate_site(S)
    assert any("not covered" in v for v in out)


def test_cover_into_wrong_object(diamond, diamond_limits):
    S = Site(diamond, diamond_limits, {"top": (("bot_a",),)},
             frozenset(diamond.objects))
    assert any("not into" in v for v in validate_site(S))


def test_family_is_cover(covered_diamond):
    # the generating cover itself, and any refinement of it
    assert family_is_cover(covered_diamond, "top", ("a_top", "b_top"))
    assert family_is_cover(covered_diamond, "top", ("id_top",))
    assert not family_is_cover(covered_diamond, "top", ("bot_top",))
    # identity cover is implicit everywhere
    assert family_is_cover(covered_diamond, "a", ("id_a",))


def test_site_morphism_swap(covered_diamond):
    assert site_morphism_violations(standard.diamond_swap(),
                                    covered_diamond, covered_diamond) == []


def test_site_morphism_stops_at_inexactness(covered_diamond, diamond,
                                            monkeypatch):
    """Continuity is checked only for an exact functor."""
    calls = []

    def counted(*args):
        calls.append(args)
        return check_continuous(*args)

    monkeypatch.setattr(sites, "check_continuous", counted)
    const_bot = Functor("cbot", diamond, diamond,
                        {o: "bot" for o in diamond.objects},
                        {m: "id_bot" for m in diamond.morphisms()})
    assert (site_morphism_violations(const_bot, covered_diamond,
                                     covered_diamond)
            == ["underlying functor is not exact"])
    assert calls == []
    assert site_morphism_violations(standard.diamond_swap(), covered_diamond,
                                    covered_diamond) == []
    assert len(calls) == 1


def test_continuity_broken_by_cover_removal(covered_diamond, diamond,
                                            diamond_limits):
    bare = trivial_site(diamond, diamond_limits)
    from sitecolim.core import identity_functor
    ok, bad = check_continuous(identity_functor(diamond), covered_diamond,
                               bare)
    assert not ok
    assert bad == ("top", ("a_top", "b_top"))


def test_site_diagram_valid(site_diagram):
    assert site_diagram.validate() == []


def test_site_at_a_name_the_index_lacks_is_named(diamondchain, diamond_limits):
    """A site at zz, which is not an index object, is reported before any
    build could read it."""
    S = trivial_site(diamond_limits.cat, diamond_limits)
    D = SiteDiagram(diamondchain, {A: S for A in ("0", "1", "2", "zz")})
    assert D.validate() == ["site zz: zz is not an index object"]


def _cbot_chain3(diamond):
    """chain3 over diamond with one inexact functor, constant at bot, on
    0_1 and 0_2, and one identity functor on the other four 1-cells."""
    idx = standard.chain3_twocat()
    ident = identity_functor(diamond)
    cbot = Functor("cbot", diamond, diamond,
                   {o: "bot" for o in diamond.objects},
                   {m: "id_bot" for m in diamond.morphisms()})
    on1 = {u: cbot if u in ("0_1", "0_2") else ident
           for u in idx.one_cells()}
    on2 = {idx.two_id[u]: identity_nat(on1[u]) for u in idx.one_cells()}
    dia = TwoDiagram("cbotchain", idx, {A: diamond for A in "012"}, on1, on2)
    assert check_two_functor(dia) == (True, None)
    return dia, ident, cbot


@pytest.mark.parametrize("form", ["site", "ambient"])
def test_each_distinct_transition_checked_once(form, diamond, monkeypatch):
    """Both validate methods give one line per inexact 1-cell, in 1-cell
    order, and call check_exact once per distinct transition.  Fiber 0 has
    its own assignment and fibers 1 and 2 share one, so the six 1-cells
    hold three: the identity at 0, the identity on {1, 2}, and cbot from 0
    into {1, 2}.  They are three (functor, source) pairs as well, which is
    all that check_exact reads."""
    dia, ident, cbot = _cbot_chain3(diamond)
    module = sites if form == "site" else restriction
    calls = []
    real = module.check_exact

    def counted(F, src):
        calls.append((F, src))
        return real(F, src)

    monkeypatch.setattr(module, "check_exact", counted)
    L0, L12 = (standard.poset_limits(diamond, standard.diamond_le)
               for _ in range(2))
    if form == "site":
        S0, S12 = trivial_site(diamond, L0), trivial_site(diamond, L12)
        got = SiteDiagram(dia, {"0": S0, "1": S12, "2": S12}).validate()
        line = "transition %s: underlying functor is not exact"
    else:
        got = AmbientDiagram(dia, {"0": L0, "1": L12, "2": L12},
                             {A: frozenset({"a"}) for A in "012"}).validate()
        line = "transition %s is not exact"
    assert got == [line % u for u in dia.index.one_cells()
                   if dia.on1[u] is cbot]
    assert len(got) == 2
    assert len({tuple(map(id, c)) for c in calls}) == len(calls) == 3
    assert sorted((F is cbot, s is L0) for F, s in calls) == [
        (False, False), (False, True), (True, True)]
    assert all(F is ident or F is cbot for F, _ in calls)


def test_colim_site_shape(colim_site):
    S, R = colim_site
    assert len(S.cat.objects) == 12
    assert sum(len(f) for f in S.basis.values()) == 3
    assert len(S.generators) == 9
    assert validate_site(S) == []
    assert S.limits.is_complete()


def test_verify_site_pseudocolimit_one(site_diagram, colim_site, one_cat):
    from sitecolim.limits import LimitAssignment
    S, R = colim_site
    X = Site(one_cat,
             LimitAssignment(one_cat, "o", {"o": "id_o"},
                             {("o", "o"): ("o", "id_o", "id_o")},
                             {("id_o", "id_o"): ("o", "id_o")}),
             {}, frozenset({"o"}))
    rep = verify_site_pseudocolimit(site_diagram, S, R, X)
    assert rep.functor_objects == rep.cone_objects == 1
    assert rep.isomorphism
    assert rep.factored_functors_continuous


def test_restrict_pseudocone(diamondchain, diamondchain_colim):
    from sitecolim.restriction import full_subcategory, restrict_diagram, \
        AmbientDiagram
    amb = AmbientDiagram(diamondchain,
                         {A: standard.diamond_limits() for A in "012"},
                         {A: frozenset({"top"}) for A in "012"})
    r = restrict_diagram(amb)
    h = restrict_pseudocone(diamondchain_colim.cone, r.inclusions,
                            r.restricted)
    from sitecolim.cones import check_pseudocone
    ok, why = check_pseudocone(h)
    assert ok, why


def test_restrict_pseudocone_closure_violation(diamondchain,
                                               diamondchain_colim, diamond):
    from sitecolim.restriction import full_subcategory
    from sitecolim.twocat import TwoDiagram
    from sitecolim.core import Functor
    # a "restriction" whose transition disagrees with the ambient one
    sub, incl = full_subcategory(diamond, ("a", "top"))
    bogus = Functor("bogus", sub, sub, {"a": "top", "top": "top"},
                    {m: "id_top" for m in sub.morphisms()})
    idx = diamondchain.index
    on1 = {u: bogus for u in idx.one_cells()}
    from sitecolim.core import identity_functor, identity_nat
    on1 = {u: (identity_functor(sub)
               if u in idx.cells1.identities.values() else bogus)
           for u in idx.one_cells()}
    on2 = {g: identity_nat(on1[idx.two_src[g]]) for g in idx.two_cells()}
    bad = TwoDiagram("bogus", idx, {A: sub for A in "012"}, on1, on2)
    with pytest.raises(ClosureViolation):
        restrict_pseudocone(diamondchain_colim.cone,
                            {A: incl for A in "012"}, bad)


# -- presheaves and sheaves --------------------------------------------------


def _terminal_presheaf(C):
    return Presheaf("pt", C, {o: ("*",) for o in C.objects},
                    {m: {"*": "*"} for m in C.morphisms()})


def test_validate_presheaf(diamond):
    P = _terminal_presheaf(diamond)
    assert validate_presheaf(P) == []
    broken = Presheaf("broken", diamond, dict(P.sets), dict(P.maps))
    broken.maps = dict(P.maps)
    broken.maps["bot_top"] = {"*": "missing"}
    assert validate_presheaf(broken)


@pytest.mark.parametrize("sets, maps, messages", [
    ({}, {}, ["no value set at o", "no action for morphism id_o"]),
    ({"o": ("x", "y")}, {"id_o": {"x": "y", "y": "x"}},
     ["identity at o does not act trivially",
      "contravariant composition fails at (id_o, id_o)"]),
    ({"o": (), "zz": ()}, {"id_o": {}, "zz": {}},
     ["value set at zz, which one lacks", "action of zz, which one lacks"]),
], ids=["missing", "identity", "stray"])
def test_presheaf_faults_are_named(one_cat, sets, maps, messages):
    assert validate_presheaf(Presheaf("P", one_cat, sets, maps)) == messages


def test_terminal_presheaf_is_sheaf(covered_diamond, diamond):
    ok, _ = check_sheaf(_terminal_presheaf(diamond), covered_diamond)
    assert ok


def test_doubled_top_not_sheaf(covered_diamond, diamond):
    sets = {"bot": ("*",), "a": ("*",), "b": ("*",), "top": ("s", "t")}
    maps = {}
    for m in diamond.morphisms():
        if diamond.mor_src[m] == "top":
            maps[m] = {"s": "s", "t": "t"}
        elif diamond.mor_tgt[m] == "top":
            maps[m] = {"s": "*", "t": "*"}
        else:
            maps[m] = {"*": "*"}
    P = Presheaf("doubletop", diamond, sets, maps)
    assert validate_presheaf(P) == []
    ok, where = check_sheaf(P, covered_diamond)
    assert not ok
    assert where == ("top", ("a_top", "b_top"))


def test_representables_are_sheaves(covered_diamond, diamond):
    for x in diamond.objects:
        sets = {o: tuple(diamond.hom(o, x)) for o in diamond.objects}
        maps = {m: {e: diamond.comp[(e, m)]
                    for e in diamond.hom(diamond.mor_tgt[m], x)}
                for m in diamond.morphisms()}
        P = Presheaf("y_%s" % x, diamond, sets, maps)
        assert validate_presheaf(P) == []
        ok, _ = check_sheaf(P, covered_diamond)
        assert ok


def test_trivial_topology_everything_is_sheaf(diamond, diamond_limits):
    S = trivial_site(diamond, diamond_limits)
    for x in diamond.objects:
        sets = {o: tuple(diamond.hom(o, x)) for o in diamond.objects}
        maps = {m: {e: diamond.comp[(e, m)]
                    for e in diamond.hom(diamond.mor_tgt[m], x)}
                for m in diamond.morphisms()}
        ok, _ = check_sheaf(Presheaf("y", diamond, sets, maps), S)
        assert ok


def test_sheaf_check_refuses_another_category(diamond, two_cat):
    """A presheaf on diamond is refused by a site on two, which covers 1
    by a, before any of its sets is read."""
    S = Site(two_cat, standard.poset_limits(two_cat, lambda x, y: x <= y),
             {"1": (("a",),)}, frozenset({"0"}))
    with pytest.raises(ValueError, match="^presheaf pt is on diamond, "
                       "not on the site's two$"):
        check_sheaf(_terminal_presheaf(diamond), S)
