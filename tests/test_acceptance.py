"""The acceptance gate.

Each test prints one PASS line and re-derives its expected answers through
an oracle that is independent of the implementation under test: the
pseudocone equations are re-evaluated from raw composition tables, coherence
uniqueness is re-established by exhaustive search, and sheaf gluing is
re-done by direct amalgamation over the known fiber products.
"""

import itertools
import time

from click.testing import CliRunner

from sitecolim import standard
from sitecolim.cli import main as cli_main
from sitecolim.colim import (build_pseudocolimit, colim_finite_limit,
                             verify_bicolimit)
from sitecolim.cones import (Modification, Pseudocone, check_modification,
                             check_pseudocone, conjugate,
                             enumerate_pseudocones)
from sitecolim.core import (Budget, Functor, NatTrans,
                            compose_functors, enumerate_functors,
                            enumerate_nat_trans, equivalence_witness,
                            identity_functor, identity_nat,
                            nat_is_invertible)
from sitecolim.limits import (LimitAssignment, check_exact, discrete_pair,
                              empty_diagram, is_limiting_cone, parallel_pair)
from sitecolim.restriction import (AmbientDiagram, restrict_diagram,
                                   verify_restriction)
from sitecolim.sites import (Presheaf, Site, SiteDiagram, build_colim_site,
                             check_continuous, check_sheaf, trivial_site,
                             validate_presheaf, validate_site,
                             verify_site_pseudocolimit)
from sitecolim.twocat import TwoDiagram


def _report(n, text):
    print("ACCEPTANCE %d: PASS - %s" % (n, text))


# ---------------------------------------------------------------------------
# independent oracles


def _oracle_pseudocone(h):
    """pc0-pc2 evaluated directly on raw component dictionaries."""
    F = h.diagram
    A = F.index
    C1 = A.cells1
    X = h.vertex
    for B in A.objects():
        fib = F.fibers[B]
        leg = h.legs[B]
        coh = h.coherence[C1.identities[B]]
        for x in fib.objects:  # pc0
            if coh.components[x] != X.identities[leg.obj_map[x]]:
                return False
    for u in A.one_cells():
        a, b = C1.mor_src[u], C1.mor_tgt[u]
        for x in F.fibers[a].objects:
            m = h.coherence[u].components[x]
            if X.mor_src[m] != h.legs[a].obj_map[x]:
                return False
            if X.mor_tgt[m] != h.legs[b].obj_map[F.on1[u].obj_map[x]]:
                return False
            if not X.is_iso(m):
                return False
    for (v, u), w in C1.comp.items():  # pc1
        a = C1.mor_src[u]
        for x in F.fibers[a].objects:
            fx = F.on1[u].obj_map[x]
            lhs = X.comp[(h.coherence[v].components[fx],
                          h.coherence[u].components[x])]
            if lhs != h.coherence[w].components[x]:
                return False
    for g in A.two_cells():  # pc2
        u, v = A.parallel(g)
        a, b = C1.mor_src[u], C1.mor_tgt[u]
        for x in F.fibers[a].objects:
            lhs = X.comp[(h.legs[b].mor_map[F.on2[g].components[x]],
                          h.coherence[u].components[x])]
            if lhs != h.coherence[v].components[x]:
                return False
    # naturality of each coherence cell, from the raw tables
    for u in A.one_cells():
        a, b = C1.mor_src[u], C1.mor_tgt[u]
        fib = F.fibers[a]
        for m in fib.morphisms():
            s, t = fib.mor_src[m], fib.mor_tgt[m]
            lhs = X.comp[(h.legs[b].mor_map[F.on1[u].mor_map[m]],
                          h.coherence[u].components[s])]
            rhs = X.comp[(h.coherence[u].components[t], h.legs[a].mor_map[m])]
            if lhs != rhs:
                return False
    return True


def _oracle_modification(phi):
    """pcM evaluated directly on raw component dictionaries."""
    g, h = phi.source, phi.target
    F = g.diagram
    C1 = F.index.cells1
    X = g.vertex
    for A in F.index.objects():
        fib = F.fibers[A]
        comp = phi.components[A]
        for x in fib.objects:
            m = comp.components[x]
            if (X.mor_src[m] != g.legs[A].obj_map[x]
                    or X.mor_tgt[m] != h.legs[A].obj_map[x]):
                return False
        for m in fib.morphisms():  # naturality of each component
            s, t = fib.mor_src[m], fib.mor_tgt[m]
            if X.comp[(h.legs[A].mor_map[m], comp.components[s])] != \
                    X.comp[(comp.components[t], g.legs[A].mor_map[m])]:
                return False
    for u in F.index.one_cells():  # pcM
        a, b = C1.mor_src[u], C1.mor_tgt[u]
        for x in F.fibers[a].objects:
            fx = F.on1[u].obj_map[x]
            lhs = X.comp[(h.coherence[u].components[x],
                          phi.components[a].components[x])]
            rhs = X.comp[(phi.components[b].components[fx],
                          g.coherence[u].components[x])]
            if lhs != rhs:
                return False
    return True


def _mutate_coherence(cone, X):
    """Corrupted variants of a cone: one coherence component replaced by
    every other parallel morphism."""
    out = []
    for u, n in sorted(cone.coherence.items()):
        for x, m in sorted(n.components.items()):
            for other in X.hom(X.mor_src[m], X.mor_tgt[m]):
                if other == m:
                    continue
                coh = {k: NatTrans(v.name, v.source, v.target,
                                   dict(v.components))
                       for k, v in cone.coherence.items()}
                coh[u].components[x] = other
                out.append(Pseudocone("mut", cone.diagram, cone.vertex,
                                      cone.legs, coh))
    return out


def _inclchain2():
    """one -> one -> two over chain3: a second non-constant diagram."""
    idx = standard.chain3_twocat()
    O, T = standard.one(), standard.two()
    incl = Functor("incl", O, T, {"o": "0"}, {"id_o": "id_0"})
    on1 = {"id_0": identity_functor(O), "id_1": identity_functor(O),
           "id_2": identity_functor(T),
           "0_1": identity_functor(O), "1_2": incl, "0_2": incl}
    on2 = {idx.two_id[u]: identity_nat(on1[u]) for u in idx.one_cells()}
    return TwoDiagram("inclchain2", idx, {"0": O, "1": O, "2": T}, on1, on2)


# ---------------------------------------------------------------------------
# criterion 1: pseudocone calculus vs the naive evaluator


def test_acceptance_1_pseudocone_calculus():
    start = time.monotonic()
    corpus = [
        (standard.const_two_diagram(), standard.two()),
        (standard.inclusion_chain_diagram(), standard.two()),
        (standard.swap_chain_diagram(), standard.one()),
        (standard.diamond_chain_diagram(), standard.one()),
        (standard.walking_iso_diagram(), standard.two()),
        (standard.point_diagram(standard.two()), standard.chaotic_pair()),
    ]
    assert len(corpus) >= 6
    total_cones = 0
    disagreements = 0
    for dia, X in corpus:
        cones = enumerate_pseudocones(dia, X)
        total_cones += len(cones)
        candidates = list(cones)
        for c in cones[:2]:
            candidates.extend(_mutate_coherence(c, X))
        for c in candidates:
            if check_pseudocone(c)[0] != _oracle_pseudocone(c):
                disagreements += 1
        for g in cones[:3]:
            for h in cones[:3]:
                objs = sorted(g.legs)
                choices = [enumerate_nat_trans(g.legs[A], h.legs[A])
                           for A in objs]
                for combo in itertools.product(*choices):
                    m = Modification("m", g, h, dict(zip(objs, combo)))
                    if check_modification(m)[0] != _oracle_modification(m):
                        disagreements += 1
    elapsed = time.monotonic() - start
    assert total_cones >= 10
    assert disagreements == 0
    assert elapsed < 10
    _report(1, "%d diagrams, %d cones, 0 disagreements, %.2fs"
            % (len(corpus), total_cones, elapsed))


# ---------------------------------------------------------------------------
# criterion 2: conjugation is the unique coherence transport


def _invertible_families(g, X):
    """Every invertible component family out of the legs of g."""
    objs = sorted(g.legs)
    per_obj = []
    for A in objs:
        cands = []
        for t in enumerate_functors(g.legs[A].source, X):
            cands.extend(n for n in enumerate_nat_trans(g.legs[A], t)
                         if nat_is_invertible(n))
        per_obj.append(cands)
    for combo in itertools.product(*per_obj):
        yield dict(zip(objs, combo))


def test_acceptance_2_conjugation_unique():
    start = time.monotonic()
    checked = 0
    for dia, X in ((standard.const_two_diagram(), standard.chaotic_pair()),
                   (standard.const_two_diagram(), standard.two())):
        cones = enumerate_pseudocones(dia, X)
        C1 = dia.index.cells1
        non_id = [u for u in dia.index.one_cells()
                  if u not in C1.identities.values()]
        for g in cones[:8]:
            for phi in _invertible_families(g, X):
                h, mod = conjugate(g, phi)
                assert check_pseudocone(h)[0]
                assert check_modification(mod)[0]
                if all(nat_is_invertible(n) and
                       n.components == identity_nat(g.legs[A]).components
                       for A, n in phi.items()):
                    assert h.key() == g.key()
                # brute force: exactly one coherence structure works
                found = 0
                choices = []
                for u in non_id:
                    a, b = C1.mor_src[u], C1.mor_tgt[u]
                    choices.append([
                        n for n in enumerate_nat_trans(
                            h.legs[a],
                            compose_functors(h.legs[b], dia.on1[u]))
                        if nat_is_invertible(n)])
                for combo in itertools.product(*choices):
                    coh = dict(zip(non_id, combo))
                    for B in dia.index.objects():
                        coh[C1.identities[B]] = identity_nat(h.legs[B])
                    cand = Pseudocone("cand", dia, X, h.legs, coh)
                    if not check_pseudocone(cand)[0]:
                        continue
                    m = Modification("m", g, cand, phi)
                    if check_modification(m)[0]:
                        found += 1
                        assert cand.key() == h.key()
                assert found == 1
                checked += 1
    elapsed = time.monotonic() - start
    assert checked >= 10
    _report(2, "%d (cone, family) pairs, each with exactly 1 coherence, "
               "%.2fs" % (checked, elapsed))


# ---------------------------------------------------------------------------
# criterion 3: universal property by double enumeration


VERTICES = [standard.one(), standard.two(), standard.chaotic_pair(),
            standard.diamond()]


def test_acceptance_3_bicolimit_isomorphism():
    diagrams = [standard.const_two_diagram(),
                standard.inclusion_chain_diagram(), _inclchain2()]
    lines = []
    for dia in diagrams:
        R = build_pseudocolimit(dia)
        for X in VERTICES:
            assert len(X.objects) <= 4
            start = time.monotonic()
            rep = verify_bicolimit(R, X, Budget(10 ** 8))
            elapsed = time.monotonic() - start
            assert rep.objects_bijective, (dia.name, X.name)
            assert rep.morphisms_bijective, (dia.name, X.name)
            assert rep.strict_triangle, (dia.name, X.name)
            assert rep.functor_objects == rep.cone_objects
            assert rep.functor_morphisms == rep.cone_morphisms
            assert elapsed < 60
            lines.append("%s/%s %d obj %d mor %.1fs"
                         % (dia.name, X.name, rep.functor_objects,
                            rep.functor_morphisms, elapsed))
    _report(3, "; ".join(lines))


# ---------------------------------------------------------------------------
# criterion 4: degenerate-index oracle


def test_acceptance_4_weakly_terminal_oracle():
    cases = [(standard.const_two_diagram(), "2"),
             (standard.inclusion_chain_diagram(), "2"),
             (_inclchain2(), "2"),
             (standard.diamond_chain_diagram(), "2")]
    for dia, top in cases:
        R = build_pseudocolimit(dia)
        res = equivalence_witness(R.category, dia.fibers[top])
        assert res.witness is not None, dia.name
    _report(4, "L ~ F(top) for %d weakly-terminal diagrams" % len(cases))


# ---------------------------------------------------------------------------
# criterion 5: finite limits in the colimit


def test_acceptance_5_limits_in_colimit(diamondchain_colim, diamond_limits):
    R = diamondchain_colim
    L = R.category
    fl = {A: diamond_limits for A in "012"}
    term = colim_finite_limit(R, empty_diagram(), fl)
    assert is_limiting_cone(L, empty_diagram(), term)
    n_checked = 1
    for a in L.objects:
        for b in L.objects:
            dia = discrete_pair(a, b)
            cone = colim_finite_limit(R, dia, fl)
            assert is_limiting_cone(L, dia, cone), (a, b)
            n_checked += 1
    for f in L.morphisms():
        for g in L.hom(L.mor_src[f], L.mor_tgt[f]):
            if f == g:
                continue
            dia = parallel_pair(L, f, g)
            cone = colim_finite_limit(R, dia, fl)
            assert is_limiting_cone(L, dia, cone), (f, g)
            n_checked += 1
    for A in sorted(R.diagram.index.objects()):
        ok, bad = check_exact(R.cone.legs[A], fl[A])
        assert ok, (A, bad)
    _report(5, "%d universal properties verified, all legs exact"
            % n_checked)


# ---------------------------------------------------------------------------
# criterion 6: colimit site


def _one_site():
    O = standard.one()
    lim = LimitAssignment(O, "o", {"o": "id_o"},
                          {("o", "o"): ("o", "id_o", "id_o")},
                          {("id_o", "id_o"): ("o", "id_o")})
    return trivial_site(O, lim)


def _two_site():
    T = standard.two()
    prods = {("0", "0"): ("0", "id_0", "id_0"),
             ("0", "1"): ("0", "id_0", "a"),
             ("1", "0"): ("0", "a", "id_0"),
             ("1", "1"): ("1", "id_1", "id_1")}
    eqs = {(m, m): (T.mor_src[m], T.identities[T.mor_src[m]])
           for m in T.morphisms()}
    return trivial_site(T, LimitAssignment(T, "1", {"0": "a", "1": "id_1"},
                                           prods, eqs))


def _covered_diamond_site():
    return Site(standard.diamond(), standard.diamond_limits(),
                {"top": (("a_top", "b_top"),)}, frozenset({"a", "b", "bot"}))


def test_acceptance_6_colimit_site():
    fiber = _covered_diamond_site()
    dia = standard.diamond_chain_diagram()
    D = SiteDiagram(dia, {A: fiber for A in "012"})
    assert D.validate() == []
    colim, R = build_colim_site(D)
    assert validate_site(colim) == []  # generator coverage invariant
    lines = []
    for X in (_one_site(), _two_site(), _covered_diamond_site()):
        assert len(X.cat.objects) <= 4
        rep = verify_site_pseudocolimit(D, colim, R, X, Budget(10 ** 8))
        assert rep.objects_bijective and rep.morphisms_bijective, X.cat.name
        assert rep.factored_functors_continuous
        lines.append("%s %d/%d" % (X.cat.name, rep.functor_objects,
                                   rep.functor_morphisms))
    # mutation: deleting any generated cover breaks continuity of some leg
    for victim in sorted(colim.basis):
        basis = {c: fams for c, fams in colim.basis.items() if c != victim}
        weakened = Site(colim.cat, colim.limits, basis, colim.generators)
        broken = any(
            not check_continuous(R.cone.legs[A], fiber, weakened)[0]
            for A in "012")
        assert broken, victim
    _report(6, "exact bijections for %s; all %d cover deletions detected"
            % (", ".join(lines), len(colim.basis)))


# ---------------------------------------------------------------------------
# criterion 7: restriction fixtures


def test_acceptance_7_restriction():
    dl = standard.diamond_limits
    fixtures = []
    dia1 = standard.diamond_chain_diagram()
    fixtures.append(AmbientDiagram(dia1, {A: dl() for A in "012"},
                                   {A: frozenset({"a", "b"}) for A in "012"}))
    dia2 = standard.point_diagram(standard.diamond())
    fixtures.append(AmbientDiagram(dia2, {"o": dl()},
                                   {"o": frozenset({"a"})}))
    idx = standard.chain2_twocat()
    Dm = standard.diamond()
    ctop = Functor("ctop", Dm, Dm, {o: "top" for o in Dm.objects},
                   {m: "id_top" for m in Dm.morphisms()})
    on1 = {"id_0": identity_functor(Dm), "id_1": identity_functor(Dm),
           "0_1": ctop}
    on2 = {idx.two_id[u]: identity_nat(on1[u]) for u in idx.one_cells()}
    dia3 = TwoDiagram("consttopchain", idx, {"0": Dm, "1": Dm}, on1, on2)
    fixtures.append(AmbientDiagram(dia3, {"0": dl(), "1": dl()},
                                   {"0": frozenset({"a"}),
                                    "1": frozenset({"b"})}))
    rounds = []
    for amb in fixtures:
        assert amb.validate() == []
        r = restrict_diagram(amb)
        assert r.rounds <= 3
        assert verify_restriction(r) == []
        # idempotence
        r2 = restrict_diagram(AmbientDiagram(amb.diagram, amb.fiber_limits,
                                             r.objects))
        assert r2.objects == r.objects
        # monotonicity: enlarge each generator set by the fiber terminal
        bigger = {A: S | {amb.fiber_limits[A].terminal}
                  for A, S in amb.generators.items()}
        rb = restrict_diagram(AmbientDiagram(amb.diagram, amb.fiber_limits,
                                             bigger))
        assert all(r.objects[A] <= rb.objects[A] for A in r.objects)
        rounds.append(r.rounds)
    _report(7, "3 fixtures, rounds %s, idempotent and monotone"
            % rounds)


# ---------------------------------------------------------------------------
# criterion 8: sheaf shadow


def _all_presheaves(C, max_size=2):
    """Every presheaf on C with value-sets of size <= max_size."""
    elements = [tuple("e%d" % i for i in range(n))
                for n in range(max_size + 1)]
    objs = list(C.objects)
    non_id = [m for m in C.morphisms() if not C.is_identity(m)]
    for sets in itertools.product(elements, repeat=len(objs)):
        P_sets = dict(zip(objs, sets))
        choices = []
        feasible = True
        for m in non_id:
            dom = P_sets[C.mor_tgt[m]]
            cod = P_sets[C.mor_src[m]]
            fns = [dict(zip(dom, vals))
                   for vals in itertools.product(cod, repeat=len(dom))]
            if not fns:
                feasible = False
                break
            choices.append(fns)
        if not feasible:
            continue
        for combo in itertools.product(*choices):
            maps = dict(zip(non_id, combo))
            for o in objs:
                maps[C.identities[o]] = {e: e for e in P_sets[o]}
            P = Presheaf("P", C, P_sets, maps)
            if not validate_presheaf(P):
                yield P


def _oracle_sheaf_covered_diamond(P):
    """Direct amalgamation over the known fiber product a x_top b = bot."""
    for (sa, sb) in itertools.product(P.sets["a"], P.sets["b"]):
        if P.maps["bot_a"][sa] != P.maps["bot_b"][sb]:
            continue
        glue = [s for s in P.sets["top"]
                if P.maps["a_top"][s] == sa and P.maps["b_top"][s] == sb]
        if len(glue) != 1:
            return False
    return True


def test_acceptance_8_sheaf_shadow():
    diamond = standard.diamond()
    triv = trivial_site(diamond, standard.diamond_limits())
    covered = _covered_diamond_site()
    triv_two = _two_site()
    n = 0
    for P in _all_presheaves(standard.two()):
        ok, _ = check_sheaf(P, triv_two)
        assert ok  # trivial topology: every presheaf is a sheaf
        n += 1
    agree = 0
    for P in _all_presheaves(diamond):
        ok, _ = check_sheaf(P, triv)
        assert ok
        got, _ = check_sheaf(P, covered)
        assert got == _oracle_sheaf_covered_diamond(P)
        agree += 1
    assert n > 0 and agree > 0
    _report(8, "trivial topology accepts all %d+%d presheaves; covered "
               "diamond agrees with the amalgamation oracle on %d"
            % (n, agree, agree))


# ---------------------------------------------------------------------------
# criterion 9: CLI determinism


def test_acceptance_9_cli_determinism(fixture_dir, tmp_path):
    runner = CliRunner()
    invocations = [
        ["validate", "one.cat"],
        ["validate", "covereddiamond.diag"],
        ["colim", "consttwo.diag"],
        ["colim", "swapchain.diag"],
        ["site-colim", "covereddiamond.diag"],
        ["restrict", "covereddiamond.diag"],
        ["verify-bicolim", "consttwo.diag", "--vertex", "two.cat"],
        ["verify-site", "covereddiamond.diag", "--vertex", "one.cat"],
        ["sheaf-check", "sheaves.pre"],
        ["sheaf-check", "nonsheaf.pre"],
    ]
    for i, args in enumerate(invocations):
        texts = []
        codes = []
        for attempt in range(2):
            out = tmp_path / ("r%d_%d.txt" % (i, attempt))
            res = runner.invoke(cli_main,
                                ["--fixture-dir", str(fixture_dir),
                                 "--report", str(out)] + args)
            codes.append(res.exit_code)
            texts.append(out.read_text())
        assert codes[0] == codes[1]
        assert texts[0] == texts[1], args
    _report(9, "%d commands byte-identical across repeated runs"
            % len(invocations))
