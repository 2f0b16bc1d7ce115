import pytest

from sitecolim import standard
from sitecolim.cones import (Modification, Pseudocone, check_modification,
                             check_pseudocone, conjugate,
                             enumerate_modifications, enumerate_pseudocones,
                             postcompose_cell, postcompose_cone)
from sitecolim.core import (Budget, NatTrans, enumerate_functors,
                            enumerate_nat_trans, identity_functor,
                            identity_nat, nat_is_invertible, vcomp_nat)
from sitecolim.errors import NonInvertibleComponent
from sitecolim.twocat import constant_diagram

from test_core import shadow_two
from test_kernel import z2


def identity_modification(h: Pseudocone) -> Modification:
    return Modification("id_%s" % h.name, h, h,
                        {A: identity_nat(h.legs[A]) for A in h.legs})


def compose_modifications(psi: Modification, phi: Modification) -> Modification:
    """psi after phi, componentwise vertical composition."""
    if psi.source.key() != phi.target.key():
        raise ValueError("boundary mismatch composing modifications")
    return Modification("%s.%s" % (psi.name, phi.name), phi.source, psi.target,
                        {A: vcomp_nat(psi.components[A], phi.components[A])
                         for A in phi.components})


def test_enumerate_pseudocones_consttwo_two(consttwo, two_cat):
    cones = enumerate_pseudocones(consttwo, two_cat)
    # one per functor two -> two: the triangles are strict here
    assert len(cones) == 3
    for c in cones:
        ok, why = check_pseudocone(c)
        assert ok, why


def test_pseudocone_violations_detected(consttwo, two_cat):
    c = enumerate_pseudocones(consttwo, two_cat)[0]
    broken = Pseudocone("broken", consttwo, two_cat, dict(c.legs),
                        dict(c.coherence))
    broken.coherence["id_0"] = NatTrans(
        "wrong", c.legs["0"], c.legs["0"],
        {o: "nonsense" for o in two_cat.objects})
    ok, why = check_pseudocone(broken)
    assert not ok


def test_legs_into_a_shadowed_vertex_are_mislabelled(consttwo, two_cat):
    """Legs into `two` do not end at another category named `two`."""
    c = enumerate_pseudocones(consttwo, two_cat)[0]
    shadowed = Pseudocone("shadowed", consttwo, shadow_two(), dict(c.legs),
                          dict(c.coherence))
    assert check_pseudocone(shadowed) == (
        False, "leg at 0 missing or mislabelled")


def test_identity_modification_checks(consttwo, two_cat):
    for c in enumerate_pseudocones(consttwo, two_cat):
        ok, _ = check_modification(identity_modification(c))
        assert ok


def test_modification_composition_boundaries(consttwo, two_cat):
    cones = enumerate_pseudocones(consttwo, two_cat)
    a, b = cones[0], cones[1]
    with pytest.raises(ValueError):
        compose_modifications(identity_modification(a),
                              identity_modification(b))


def test_modifications_compose(consttwo, two_cat):
    cones = enumerate_pseudocones(consttwo, two_cat)
    for g in cones:
        for h in cones:
            for phi in enumerate_modifications(g, h):
                for psi in enumerate_modifications(h, g):
                    c = compose_modifications(psi, phi)
                    ok, _ = check_modification(c)
                    assert ok


def test_postcompose_cone_and_cell(consttwo, two_cat):
    cones = enumerate_pseudocones(consttwo, two_cat)
    for F in enumerate_functors(two_cat, two_cat):
        for c in cones:
            pc = postcompose_cone(c, F)
            ok, why = check_pseudocone(pc)
            assert ok, why
    s, t = list(enumerate_functors(two_cat, two_cat))[:2]
    for xi in enumerate_nat_trans(s, t):
        for c in cones:
            m = postcompose_cell(c, xi)
            ok, _ = check_modification(m)
            assert ok


def _chaotic_cones(consttwo):
    X = standard.chaotic_pair()
    return X, enumerate_pseudocones(consttwo, X)


def test_conjugate_gives_modification(consttwo):
    X, cones = _chaotic_cones(consttwo)
    g = cones[0]
    targets = enumerate_functors(g.legs["0"].source, X)
    moved = False
    for t0 in targets:
        phi = {}
        ok = True
        for A in g.legs:
            cands = [n for n in enumerate_nat_trans(g.legs[A], t0)
                     if nat_is_invertible(n)]
            if not cands:
                ok = False
                break
            phi[A] = cands[0]
        if not ok:
            continue
        h, mod = conjugate(g, phi)
        okc, why = check_pseudocone(h)
        assert okc, why
        okm, _ = check_modification(mod)
        assert okm
        moved = moved or any(h.legs[A].key() != g.legs[A].key()
                             for A in g.legs)
    assert moved  # at least one genuinely non-identity conjugation happened


def test_conjugate_identity_family_is_noop(consttwo):
    X, cones = _chaotic_cones(consttwo)
    for g in cones:
        phi = {A: identity_nat(g.legs[A]) for A in g.legs}
        h, _ = conjugate(g, phi)
        assert h.key() == g.key()


def test_conjugate_rejects_noninvertible(consttwo, two_cat):
    cones = enumerate_pseudocones(consttwo, two_cat)
    const0 = next(c for c in cones
                  if set(c.legs["0"].obj_map.values()) == {"0"})
    ident = next(c for c in cones
                 if c.legs["0"].obj_map == {"0": "0", "1": "1"})
    phi = {A: enumerate_nat_trans(const0.legs[A], ident.legs[A])[0]
           for A in const0.legs}
    with pytest.raises(NonInvertibleComponent):
        conjugate(const0, phi)


def test_conjugate_rejects_a_component_off_the_leg(consttwo, two_cat):
    cones = enumerate_pseudocones(consttwo, two_cat)
    const0 = next(c for c in cones
                  if set(c.legs["0"].obj_map.values()) == {"0"})
    ident = next(c for c in cones
                 if c.legs["0"].obj_map == {"0": "0", "1": "1"})
    phi = {A: identity_nat(ident.legs[A]) for A in const0.legs}
    with pytest.raises(ValueError, match="component at 0 does not start "
                                         "at the leg"):
        conjugate(const0, phi)


def test_conjugate_is_unique_coherence(consttwo):
    """Brute force: the conjugated coherence is the only one making phi a
    modification."""
    X, cones = _chaotic_cones(consttwo)
    g = cones[0]
    targets = list(enumerate_functors(g.legs["0"].source, X))
    t0 = targets[-1]
    phi = {A: [n for n in enumerate_nat_trans(g.legs[A], t0)
               if nat_is_invertible(n)][0] for A in g.legs}
    h, mod = conjugate(g, phi)
    found = 0
    C1 = consttwo.index.cells1
    import itertools
    non_id = [u for u in consttwo.index.one_cells()
              if u not in C1.identities.values()]
    from sitecolim.core import compose_functors
    choices = []
    for u in non_id:
        a, b = C1.mor_src[u], C1.mor_tgt[u]
        choices.append([n for n in enumerate_nat_trans(
            h.legs[a], compose_functors(h.legs[b], consttwo.on1[u]))
            if nat_is_invertible(n)])
    for combo in itertools.product(*choices):
        coh = dict(zip(non_id, combo))
        for B in consttwo.index.objects():
            coh[C1.identities[B]] = identity_nat(h.legs[B])
        cand = Pseudocone("cand", consttwo, X, h.legs, coh)
        if not check_pseudocone(cand)[0]:
            continue
        m = Modification("m", g, cand, phi)
        if check_modification(m)[0]:
            found += 1
            assert cand.key() == h.key()
    assert found == 1


def _changed_cone(cone, legs=None, coherence=None):
    return Pseudocone("changed", cone.diagram, cone.vertex,
                      dict(cone.legs, **(legs or {})),
                      dict(cone.coherence, **(coherence or {})))


def test_pseudocone_faults_are_named(consttwo, two_cat):
    c = enumerate_pseudocones(consttwo, two_cat)[0]
    other = next(F for F in enumerate_functors(two_cat, two_cat)
                 if F != c.legs["0"])
    missing = _changed_cone(c)
    del missing.coherence["0_1"]
    assert check_pseudocone(missing) == (False, "coherence at 0_1 missing")
    skewed = _changed_cone(c, coherence={"0_1": identity_nat(other)})
    assert check_pseudocone(skewed) == (
        False, "coherence at 0_1 has wrong boundary")


def test_pc0_fault_is_named():
    """Over the point, the identity of z2 with the automorphism s as the
    coherence of the identity 1-cell: invertible and of the right boundary,
    but not the identity."""
    Z = z2()
    D = standard.point_diagram(Z)
    leg = identity_functor(Z)
    h = Pseudocone("h", D, Z, {"o": leg},
                   {"id_o": NatTrans("s", leg, leg, {"*": "s"})})
    assert check_pseudocone(h) == (False, "pc0 fails at o")


def test_modification_faults_are_named(consttwo, two_cat):
    c = enumerate_pseudocones(consttwo, two_cat)[0]
    elsewhere = Pseudocone("elsewhere", constant_diagram(
        consttwo.index, two_cat, "other"), two_cat, c.legs, c.coherence)
    assert check_modification(Modification(
        "m", c, elsewhere, identity_modification(c).components)) == (
        False, "boundary cones live over different diagrams")
    one = standard.one()
    to_one = Pseudocone("to_one", consttwo, one, {}, {})
    assert check_modification(Modification("m", c, to_one, {})) == (
        False, "boundary cones have different vertices")
    partial = identity_modification(c)
    del partial.components["0"]
    assert check_modification(partial) == (
        False, "component at 0 missing or mislabelled")


def test_modifications_between_cones_with_different_boundaries(consttwo,
                                                               two_cat,
                                                               diamond):
    """Cones with different vertices, or over different diagrams, have no
    modification: the enumeration says so before it enumerates anything,
    and charges nothing."""
    c = enumerate_pseudocones(consttwo, two_cat)[0]
    to_diamond = enumerate_pseudocones(consttwo, diamond)[0]
    elsewhere = Pseudocone("elsewhere", constant_diagram(
        consttwo.index, two_cat, "other"), two_cat, c.legs, c.coherence)
    for g, h in [(c, to_diamond), (to_diamond, c), (c, elsewhere)]:
        bud = Budget()
        assert enumerate_modifications(g, h, bud) == []
        assert bud.used == 0


def test_cone_without_legs_has_no_modification(consttwo, two_cat):
    """A cone with no leg at an index object is no boundary for a
    modification: the check names the missing component instead of
    raising, and the enumeration returns [] in either direction, charging
    nothing."""
    c = enumerate_pseudocones(consttwo, two_cat)[0]
    bare = Pseudocone("bare", consttwo, two_cat, {}, {})
    assert check_modification(Modification(
        "m", c, bare, identity_modification(c).components)) == (
        False, "component at 0 missing or mislabelled")
    for g, h in [(c, bare), (bare, c)]:
        bud = Budget()
        assert enumerate_modifications(g, h, bud) == []
        assert bud.used == 0
