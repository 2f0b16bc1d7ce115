"""The universal-property verifier and the pseudocone enumerators against
their frozen references.

The library enumerates each hom-set of pseudocones once per verify call
and maps a transformation to its modification through the leg tables;
oracle_kernel.verify_bicolimit enumerates the modifications between two
images and again between every two cones, and whiskers each
transformation with the colimit cone; oracle_kernel.verify_site_pseudocolimit
factors every cone with factor_cone, where the library reads each image
key off lambda's tables and factors a cone equal to an image t . lambda as
t . phi.  The library's enumerate_pseudocones
enumerates the legs once per fiber object, searches coherence cells only
for leg combinations whose legs agree up to isomorphism along every
1-cell, and reads them from a per-call table; oracle_kernel's enumerates
them afresh for every leg combination.  Both
must give the same cones, modifications and reports, and the library must
spend no more Budget.
"""

import collections
import dataclasses
import itertools

import pytest
from hypothesis import given, settings

import oracle_kernel as oracle
from sitecolim import colim, cones, sites, standard
from sitecolim.cones import (enumerate_modifications, enumerate_pseudocones,
                             postcompose_cone)
from sitecolim.core import (Budget, Functor, compose_functors,
                            enumerate_functors, enumerate_nat_trans,
                            nat_is_invertible)
from sitecolim.errors import BudgetExceeded
from sitecolim.fixtures import parse
from sitecolim.sites import (SiteDiagram, build_colim_site,
                             verify_site_pseudocolimit)

from conftest import FIXTURE_DIR
from strategies import diagrams
from test_kernel import z2, z2_terminal
from test_span_layer import const_z2, walking_iso_z2


def _built(diagram):
    return colim.build_pseudocolimit(diagram())


def _other_cones(R, X):
    """Every pseudocone but the first: one image lies outside the list."""
    return {"cones": enumerate_pseudocones(R.diagram, X)[1:]}


def _repeated_cones(R, X):
    """The pseudocones but the first, then the second again: one image
    lies outside the list, one cone is listed twice, and the other cones
    are equal by key to images, so cone keys repeat."""
    found = enumerate_pseudocones(R.diagram, X)
    return {"cones": found[1:] + found[1:2]}


def _constant_cone(R):
    """lambda postcomposed with the constant endofunctor of L at 0.0, so
    the objects, the morphisms and the strict triangle all fail."""
    L = R.category
    e = Functor("const0", L, L, {o: "0.0" for o in L.objects},
                {m: L.identities["0.0"] for m in L.morphisms()})
    return dataclasses.replace(R, cone=postcompose_cone(R.cone, e))


CASES = {
    "consttwo-one": (standard.const_two_diagram, standard.one, None),
    "consttwo-two": (standard.const_two_diagram, standard.two, None),
    "consttwo-diamond": (standard.const_two_diagram, standard.diamond, None),
    "inclchain-two": (standard.inclusion_chain_diagram, standard.two, None),
    "constz2-z2": (const_z2, z2, None),
    "constz2-two": (const_z2, standard.two, None),
    "walkingiso_z2-z2": (walking_iso_z2, z2, None),
    "walkingiso_z2-two": (walking_iso_z2, standard.two, None),
    "consttwo-two-other_cones": (standard.const_two_diagram, standard.two,
                                 _other_cones),
    "consttwo-diamond-repeated_cones": (standard.const_two_diagram,
                                        standard.diamond, _repeated_cones),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_reference(case):
    diagram, vertex, extra = CASES[case]
    R, X = _built(diagram), vertex()
    kw = extra(R, X) if extra else {}
    got_budget, want_budget = Budget(), Budget()
    got = colim.verify_bicolimit(R, X, got_budget, **kw)
    want = oracle.verify_bicolimit(R, X, want_budget, **kw)
    assert got == want
    assert got_budget.used <= want_budget.used


def test_failing_report_matches_reference():
    R = _constant_cone(_built(standard.const_two_diagram))
    X = standard.two()
    got_budget, want_budget = Budget(), Budget()
    got = colim.verify_bicolimit(R, X, got_budget)
    want = oracle.verify_bicolimit(R, X, want_budget)
    assert got == want
    assert not (got.objects_bijective or got.morphisms_bijective
                or got.strict_triangle)
    assert got_budget.used <= want_budget.used


def _covereddiamond_site(vertex):
    """covereddiamond's site diagram, its colimit site and result, and the
    site of the fixture category `vertex`."""
    block = parse((FIXTURE_DIR / "covereddiamond.diag").read_text())[
        "covereddiamond"]
    D = SiteDiagram(block.diagram,
                    {A: b.site for A, b in block.fiber_blocks.items()})
    X = parse((FIXTURE_DIR / ("%s.cat" % vertex)).read_text())[vertex].site
    return (D, *build_colim_site(D), X)


def test_site_report_matches_reference():
    """The whole report, continuity of the factored cones included, and
    no more Budget than the reference, which factors every cone with
    factor_cone."""
    for vertex in ("one", "two", "diamond"):
        D, S, R, X = _covereddiamond_site(vertex)
        got_budget, want_budget = Budget(), Budget()
        got = verify_site_pseudocolimit(D, S, R, X, got_budget)
        want = oracle.verify_site_pseudocolimit(D, S, R, X, want_budget)
        assert got == want, vertex
        assert got.isomorphism and got.factored_functors_continuous
        assert got_budget.used <= want_budget.used


def test_each_leg_tested_once_as_a_site_morphism(monkeypatch):
    """verify-site covereddiamond into two: the cones share their leg
    objects, and no (functor, site) pair is tested twice in one call."""
    calls = []
    real = sites.site_morphism_violations

    def spy(t, S, X):
        calls.append((t, S))
        return real(t, S, X)

    monkeypatch.setattr(sites, "site_morphism_violations", spy)
    D, S, R, X = _covereddiamond_site("two")
    rep = verify_site_pseudocolimit(D, S, R, X)
    assert rep.isomorphism
    assert not any(t is u and s is v for i, (t, s) in enumerate(calls)
                   for u, v in calls[:i])
    legs = [(t, s) for t, s in calls if s is not S]
    assert len(legs) < rep.cone_objects * len(D.diagram.index.objects())


def _spy(monkeypatch, name):
    """The first argument of every call to colim.<name>."""
    calls = []
    real = getattr(colim, name)

    def counted(first, *rest):
        calls.append(first)
        return real(first, *rest)

    monkeypatch.setattr(colim, name, counted)
    return calls


def test_matched_cones_are_not_factored_again(monkeypatch):
    """When every cone is an image, a verify-site run factors lambda and
    no cone; with no functor to match them, every cone is factored."""
    calls = _spy(monkeypatch, "factor_cone")
    for vertex in ("one", "two", "diamond"):
        D, S, R, X = _covereddiamond_site(vertex)
        calls.clear()
        rep = verify_site_pseudocolimit(D, S, R, X)
        assert rep.isomorphism and rep.cone_objects
        assert len(calls) == 1
    R, X = _built(standard.const_two_diagram), standard.two()
    found = enumerate_pseudocones(R.diagram, X)
    calls.clear()
    rep = colim.verify_bicolimit(R, X, funcs=[], cones=found,
                                 continuous=lambda f: True)
    assert rep.factored_functors_continuous and len(calls) == len(found)


@pytest.mark.parametrize("case", sorted(CASES))
def test_matched_cones_factor_as_t_phi(case):
    """Each cone's factorization, as verify_bicolimit hands it to
    `continuous`, has the tables of factor_cone's, in the cones' order."""
    diagram, vertex, extra = CASES[case]
    R, X = _built(diagram), vertex()
    kw = extra(R, X) if extra else {}
    cs = kw.get("cones") or enumerate_pseudocones(R.diagram, X)
    seen = []
    rep = colim.verify_bicolimit(
        R, X, cones=cs,
        continuous=lambda f: seen.append((f.obj_map, f.mor_map)) or True)
    assert rep.factored_functors_continuous
    assert seen == [(f.obj_map, f.mor_map)
                    for f in (colim.factor_cone(R, h) for h in cs)]


@pytest.mark.parametrize("case", sorted(CASES))
def test_images_built_only_when_unmatched(case, monkeypatch):
    """An image that some cone equals is never built as a cone; the lists
    that leave out the first cone leave one image unmatched."""
    diagram, vertex, extra = CASES[case]
    R, X = _built(diagram), vertex()
    kw = extra(R, X) if extra else {}
    built = _spy(monkeypatch, "postcompose_cone")
    got = colim.verify_bicolimit(R, X, **kw)
    assert got == oracle.verify_bicolimit(R, X, **kw)
    assert len(built) == (1 if extra else 0)


def test_lambda_factored_once(monkeypatch):
    """verify_bicolimit factors the colimit cone once per call, passing or
    failing, and not at all without functors to test."""
    calls = []
    factor = colim.factor_cone

    def counted(R, h):
        calls.append(h)
        return factor(R, h)

    monkeypatch.setattr(colim, "factor_cone", counted)
    R, X = _built(standard.const_two_diagram), standard.two()
    for case in (R, _constant_cone(R)):
        calls.clear()
        colim.verify_bicolimit(case, X)
        assert len(calls) == 1 and calls[0] is case.cone
    calls.clear()
    assert colim.verify_bicolimit(R, X, funcs=[], cones=[]).strict_triangle
    assert calls == []


ENUMERATION_CASES = sorted(k for k, (_, _, extra) in CASES.items()
                           if extra is None)


def _named_keys(items):
    return [(x.name, x.key()) for x in items]


@pytest.mark.parametrize("case", ENUMERATION_CASES)
def test_pseudocones_match_reference(case):
    diagram, vertex, _ = CASES[case]
    F, X = diagram(), vertex()
    got_budget, want_budget = Budget(), Budget()
    got = enumerate_pseudocones(F, X, got_budget)
    want = oracle.enumerate_pseudocones(F, X, want_budget)
    assert _named_keys(got) == _named_keys(want)
    assert got_budget.used <= want_budget.used


@settings(max_examples=40, deadline=None, derandomize=True)
@given(diagrams())
def test_pseudocones_match_reference_on_random_diagrams(F):
    """Vertices thin and not, chaotic_pair's two objects isomorphic."""
    for vertex in (standard.one, standard.two, z2, z2_terminal,
                   standard.parallel_pair_cat, standard.chaotic_pair):
        X = vertex()
        got_budget, want_budget = Budget(), Budget()
        got = enumerate_pseudocones(F, X, got_budget)
        want = oracle.enumerate_pseudocones(F, X, want_budget)
        assert _named_keys(got) == _named_keys(want), X.name
        assert got_budget.used <= want_budget.used, X.name


def _overrun(F, X, limit):
    try:
        enumerate_pseudocones(F, X, Budget(limit))
    except BudgetExceeded as exc:
        return str(exc)
    return None


SHARED_FIBERS = {
    "consttwo": (standard.const_two_diagram,
                 (standard.one, standard.two, standard.diamond)),
    "inclchain": (standard.inclusion_chain_diagram,
                  (standard.two, standard.diamond)),
    "walkingiso": (standard.walking_iso_diagram,
                   (standard.two, standard.chaotic_pair)),
    "swapchain": (standard.swap_chain_diagram, (standard.two,)),
    "constz2": (const_z2, (z2, standard.chaotic_pair)),
    "walkingiso_z2": (walking_iso_z2, (z2, standard.two)),
}


@pytest.mark.parametrize("case", sorted(SHARED_FIBERS))
def test_shared_fibers_charge_as_copies(case):
    """Index objects that share a fiber object share one leg list; with a
    separate copy of the fiber at each index object nothing is shared, and
    the cones, the Budget and the overrun at every limit are the same."""
    diagram, vertices = SHARED_FIBERS[case]
    F = diagram()
    copied = dataclasses.replace(F, fibers={
        A: dataclasses.replace(C) for A, C in F.fibers.items()})
    objs = sorted(F.index.objects())
    for vertex in vertices:
        X = vertex()
        shared_budget, copied_budget = Budget(), Budget()
        got = enumerate_pseudocones(F, X, shared_budget)
        want = enumerate_pseudocones(copied, X, copied_budget)
        assert _named_keys(got) == _named_keys(want), X.name
        assert shared_budget.used == copied_budget.used, X.name
        for A, B in itertools.combinations(objs, 2):
            assert (got[0].legs[A] is got[0].legs[B]) == (
                F.fibers[A] is F.fibers[B])
            assert want[0].legs[A] is not want[0].legs[B]
        for limit in range(shared_budget.used):
            assert _overrun(F, X, limit) == _overrun(copied, X, limit) \
                == "enumeration used %d candidates (budget %d)" % (
                    limit + 1, limit), (X.name, limit)


EMPTY_COHERENCE = {
    ("consttwo", "parallel_pair_cat"): (standard.const_two_diagram,
                                        standard.parallel_pair_cat, 66),
    ("inclchain", "parallel_pair_cat"): (standard.inclusion_chain_diagram,
                                         standard.parallel_pair_cat, 46),
    ("walkingiso", "parallel_pair_cat"): (standard.walking_iso_diagram,
                                          standard.parallel_pair_cat, 44),
    ("diamondchain", "parallel_pair_cat"): (standard.diamond_chain_diagram,
                                            standard.parallel_pair_cat, 509),
    ("const_z2", "z2"): (const_z2, z2, 45),
    ("const_z2", "z2_terminal"): (const_z2, z2_terminal, 55),
    ("walking_iso_z2", "z2"): (walking_iso_z2, z2, 26),
    ("walking_iso_z2", "z2_terminal"): (walking_iso_z2, z2_terminal, 33),
}


@pytest.mark.parametrize("case", sorted(EMPTY_COHERENCE),
                         ids="-".join)
def test_empty_coherence_lists_match_reference(case, monkeypatch):
    """Leg combinations whose classes agree but whose coherence list is
    empty: each such combination is ruled out alone, with the oracle's
    cones, a pinned Budget and the overrun at every limit below it."""
    diagram, vertex, used = EMPTY_COHERENCE[case]
    empty = []
    search = cones.enumerate_nat_trans

    def spied(f, g, budget):
        found = list(search(f, g, budget))
        empty.append(not any(map(nat_is_invertible, found)))
        return found

    monkeypatch.setattr(cones, "enumerate_nat_trans", spied)
    F, X = diagram(), vertex()
    budget = Budget()
    got = enumerate_pseudocones(F, X, budget)
    assert any(empty)
    assert _named_keys(got) == _named_keys(oracle.enumerate_pseudocones(F, X))
    assert budget.used == used
    for limit in range(used):
        assert _overrun(F, X, limit) == \
            "enumeration used %d candidates (budget %d)" % (limit + 1, limit)


@pytest.mark.parametrize("case", ENUMERATION_CASES)
def test_modifications_match_reference(case):
    """Every hom-set of pseudocones: the same list in the same order for
    the same Budget."""
    diagram, vertex, _ = CASES[case]
    found = oracle.enumerate_pseudocones(diagram(), vertex())
    got_budget, want_budget = Budget(), Budget()
    for g, h in itertools.product(found, repeat=2):
        assert _named_keys(enumerate_modifications(g, h, got_budget)) \
            == _named_keys(oracle.enumerate_modifications(g, h, want_budget))
    assert got_budget.used == want_budget.used


@pytest.mark.parametrize("case, rejected", [
    ("constz2-z2", {"pc1", "pcM"}), ("walkingiso_z2-z2", {"pc2", "pcM"})])
def test_z2_cases_reject_candidates(case, rejected, monkeypatch):
    """The comparisons above see the coherence checks fail, not only
    pass."""
    seen = set()
    check_cone, check_mod = cones.check_pseudocone, cones.check_modification

    def cone_verdict(h):
        ok, why = check_cone(h)
        seen.update([] if ok else [why.split()[0]])
        return ok, why

    def mod_verdict(phi):
        ok, why = check_mod(phi)
        seen.update([] if ok else ["pcM"])
        return ok, why

    monkeypatch.setattr(cones, "check_pseudocone", cone_verdict)
    monkeypatch.setattr(cones, "check_modification", mod_verdict)
    diagram, vertex, _ = CASES[case]
    found = enumerate_pseudocones(diagram(), vertex())
    for g, h in itertools.product(found, repeat=2):
        enumerate_modifications(g, h)
    assert seen == rejected


def _coherence_keys(F, X):
    """The (u, leg at src u, leg at tgt u) the pseudocone search reaches,
    legs by position among the oracle's, each with the two functors whose
    transformations it enumerates: in each leg combination that sends x
    and Fu x to isomorphic objects of X for every non-identity 1-cell u and
    every x, the non-identity 1-cells in order up to the first with no
    invertible candidate."""
    C1 = F.index.cells1
    objs = sorted(F.index.objects())
    legs = {B: list(enumerate_functors(F.fibers[B], X)) for B in objs}
    iso = {(p, q) for p in X.objects for q in X.objects
           if any(map(X.is_iso, X.hom(p, q)))}
    non_id = [u for u in F.index.one_cells()
              if u not in C1.identities.values()]
    keys = {}
    for combo in itertools.product(*(range(len(legs[B])) for B in objs)):
        pick = dict(zip(objs, combo))
        h = {B: legs[B][pick[B]] for B in objs}
        if not all((h[C1.mor_src[u]].obj_map[x],
                    h[C1.mor_tgt[u]].obj_map[F.on1[u].obj_map[x]]) in iso
                   for u in non_id for x in F.fibers[C1.mor_src[u]].objects):
            continue
        for u in non_id:
            a, b = C1.mor_src[u], C1.mor_tgt[u]
            source, target = h[a], compose_functors(h[b], F.on1[u])
            keys[(u, pick[a], pick[b])] = source, target
            if not any(map(nat_is_invertible,
                           enumerate_nat_trans(source, target))):
                break
    return keys


def _count_nat_trans_calls(monkeypatch):
    calls = collections.Counter()
    for module in (cones, colim):
        def counted(F, G, budget=None, _name=module.__name__):
            calls[_name] += 1
            return enumerate_nat_trans(F, G, budget)
        monkeypatch.setattr(module, "enumerate_nat_trans", counted)
    return calls


def test_each_coherence_list_enumerated_once(monkeypatch):
    """consttwo x diamond: enumerate_pseudocones enumerates one list per
    (u, leg, leg) key that the iso-compatible walk reaches, on the key's
    two functors, and gives the oracle's cones; verify_bicolimit adds one
    per index object for each pair of cones, and one per pair of
    functors."""
    R, X = _built(standard.const_two_diagram), standard.diamond()
    keys = _coherence_keys(R.diagram, X)
    assert len(keys) == 27
    seen = collections.Counter()

    def spy(F, G, budget=None):
        seen[F.key(), G.key()] += 1
        return enumerate_nat_trans(F, G, budget)

    monkeypatch.setattr(cones, "enumerate_nat_trans", spy)
    found = enumerate_pseudocones(R.diagram, X)
    assert seen == collections.Counter(
        (F.key(), G.key()) for F, G in keys.values())
    assert _named_keys(found) == _named_keys(
        oracle.enumerate_pseudocones(R.diagram, X))
    calls = _count_nat_trans_calls(monkeypatch)
    rep = colim.verify_bicolimit(R, X)
    assert rep.isomorphism
    assert sum(calls.values()) == (
        len(keys) + len(found) ** 2 * len(R.diagram.index.objects())
        + rep.functor_objects ** 2)


def test_no_state_survives_a_verify_call():
    """Two calls, after the tests above ran the same case, give the same
    report for the same Budget: no table outlives its call (a second call
    that found one would spend less)."""
    R, X = _built(standard.const_two_diagram), standard.diamond()
    first, second = Budget(), Budget()
    rep = colim.verify_bicolimit(R, X, first)
    assert rep == colim.verify_bicolimit(R, X, second)
    assert first.used == second.used
