"""The universal-property verifier against its frozen reference.

The library enumerates each hom-set of pseudocones once per verify call
and maps a transformation to its modification through the leg tables;
oracle_kernel.verify_bicolimit enumerates the modifications between two
images and again between every two cones, and whiskers each
transformation with the colimit cone.  Both must give the same report,
and the library must spend no more Budget.
"""

import dataclasses

import pytest

import oracle_kernel as oracle
from sitecolim import colim, sites, standard
from sitecolim.cones import enumerate_pseudocones, postcompose_cone
from sitecolim.core import Budget, Functor
from sitecolim.fixtures import parse
from sitecolim.sites import (SiteDiagram, build_colim_site,
                             verify_site_pseudocolimit)

from conftest import FIXTURE_DIR
from test_kernel import z2
from test_span_layer import const_z2, walking_iso_z2


def _built(diagram):
    return colim.build_pseudocolimit(diagram())


def _other_cones(R, X):
    """Every pseudocone but the first: one image lies outside the list."""
    return {"cones": enumerate_pseudocones(R.diagram, X)[1:]}


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


def test_site_report_matches_reference(monkeypatch):
    block = parse((FIXTURE_DIR / "covereddiamond.diag").read_text())[
        "covereddiamond"]
    D = SiteDiagram(block.diagram,
                    {A: b.site() for A, b in block.fiber_blocks.items()})
    X = parse((FIXTURE_DIR / "one.cat").read_text())["one"].site()
    S, R = build_colim_site(D)
    got_budget, want_budget = Budget(), Budget()
    got = verify_site_pseudocolimit(D, S, R, X, got_budget)
    monkeypatch.setattr(sites, "verify_bicolimit", oracle.verify_bicolimit)
    want = verify_site_pseudocolimit(D, S, R, X, want_budget)
    assert got == want
    assert got.isomorphism and got.factored_functors_continuous
    assert got_budget.used <= want_budget.used
