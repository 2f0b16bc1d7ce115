"""Frozen reference implementations of the enumeration kernel, the
pseudocone coherence checks, the structure validators, the 2-cell lookup,
the 2-filteredness check and the span layer of the pseudocolimit, kept as
test oracles.

These are the straightforward versions the library replaced: the
enumerators rescan every constraint for every candidate and return lists;
the coherence equations pc1/pc2/pcM are evaluated on whiskered and
vertically composed NatTrans objects; the validators scan every pair of
morphisms or 2-cells and compose every functor pair afresh; the 2-cells
between two 1-cells are found by scanning every 2-cell; F3 filters all
pairs of 2-cells; every pair of spans is compared, and each comparison
and composite searches the index for its common refinement afresh; and
the universal-property verifier enumerates the modifications between two
images, and again between every two cones, and whiskers each
transformation with the colimit cone, and the site verifier factors every
cone with factor_cone, and the colimit's chosen products were read
pair by pair of objects; the pseudocone enumerator enumerates every coherence cell afresh
for each leg combination; the equivalence search tests every functor,
not only those that preserve hom-set sizes; build_category saturates to a fixpoint,
rewriting in both directions; the standard categories and
2-categories are written out table by table; exactness decides each
image cone against every competing cone at every object of the target;
and a limit assignment's chosen cones are decided the same way, complete
or not.
They must keep giving the same functors, transformations,
verdicts, messages, colimit categories, span classes, verification reports,
presented categories, standard tables, exactness counterexamples,
equivalence witnesses and Budget
counts (the verifier: no fewer; the span layer, which compares only the
spans at a weakly terminal apex: the count test_span_layer.build_budget
computes) as the library's watch-list kernel, table-level checks, indexed validators, boundary index of 2-cells,
per-build refinement tables, once-per-hom-set verifier, per-call coherence
table, one-pass saturation, presentations, the down-set limit test
that decides every limiting cone in a thin category, and the witness
search over the functors that preserve hom-set sizes.
The modification enumerator is the library's, frozen so that the reference
verifier does not run the code it checks; `hcomp_nat`, which only the
reference 2-functor check uses, and `whisker_functor_nat`, which only the
reference pseudocone check uses, live here too.
"""

import itertools
import random

from sitecolim import cones as library_cones
from sitecolim import core
from sitecolim.colim import (BicolimReport, PseudocolimitResult, Span,
                             colim_finite_limit, factor_cone, identity_span,
                             lift_diagram, obj_name)
from sitecolim.cones import (Modification, Pseudocone, postcompose_cell,
                             postcompose_cone)
from sitecolim.core import (Budget, FinCat, Functor, NatTrans,
                            compose_functors, identity_functor,
                            identity_nat, nat_is_invertible, union_find,
                            validate_functor, validate_nat_trans, vcomp_nat,
                            whisker_nat_functor)
from sitecolim.errors import (IncompleteAssignment, NotFiltered, NotLiftable,
                              SaturationExceeded)
from sitecolim.limits import (Cone, Diagram, LimitAssignment, discrete_pair,
                              empty_diagram, parallel_pair)
from sitecolim.sites import check_continuous, site_morphism_violations
from sitecolim.standard import poset_category
from sitecolim.twocat import TwoCat, two_cat_from_cat


def enumerate_functors(C, D, budget=None):
    bud = budget if budget is not None else Budget()
    objs = sorted(C.objects)
    mors = [m for m in C.morphisms() if not C.is_identity(m)]
    comp_items = list(C.comp.items())
    results = []

    def mor_assigned(omap, mmap, m):
        if C.is_identity(m):
            return D.identities[omap[C.mor_src[m]]]
        return mmap.get(m)

    def assign_mors(omap, mmap, i):
        if i == len(mors):
            results.append(Functor(
                "F%d" % len(results), C, D, dict(omap),
                {m: mor_assigned(omap, mmap, m) for m in C.morphisms()}))
            return
        m = mors[i]
        for cand in D.hom(omap[C.mor_src[m]], omap[C.mor_tgt[m]]):
            bud.charge()
            mmap[m] = cand
            ok = True
            for (g, f), h in comp_items:
                ig = mor_assigned(omap, mmap, g)
                if ig is None:
                    continue
                iff = mor_assigned(omap, mmap, f)
                if iff is None:
                    continue
                ih = mor_assigned(omap, mmap, h)
                if ih is not None and D.comp[(ig, iff)] != ih:
                    ok = False
                    break
            if ok:
                assign_mors(omap, mmap, i + 1)
            del mmap[m]

    def assign_objs(omap, i):
        if i == len(objs):
            assign_mors(omap, {}, 0)
            return
        o = objs[i]
        for cand in sorted(D.objects):
            bud.charge()
            omap[o] = cand
            ok = True
            for m in mors:
                s, t = C.mor_src[m], C.mor_tgt[m]
                if s in omap and t in omap and not D.hom(omap[s], omap[t]):
                    ok = False
                    break
            if ok:
                assign_objs(omap, i + 1)
            del omap[o]

    assign_objs({}, 0)
    return results


def enumerate_nat_trans(F, G, budget=None):
    bud = budget if budget is not None else Budget()
    C, D = F.source, F.target
    objs = sorted(C.objects)
    mors = C.morphisms()
    results = []

    def rec(comp, i):
        if i == len(objs):
            results.append(NatTrans("n%d" % len(results), F, G, dict(comp)))
            return
        o = objs[i]
        for cand in D.hom(F.obj_map[o], G.obj_map[o]):
            bud.charge()
            comp[o] = cand
            ok = True
            for m in mors:
                s, t = C.mor_src[m], C.mor_tgt[m]
                if s in comp and t in comp:
                    if D.comp[(G.mor_map[m], comp[s])] != \
                            D.comp[(comp[t], F.mor_map[m])]:
                        ok = False
                        break
            if ok:
                rec(comp, i + 1)
            del comp[o]

    rec({}, 0)
    return results


def whisker_functor_nat(H, a):
    return NatTrans("%s(%s)" % (H.name, a.name),
                    compose_functors(H, a.source),
                    compose_functors(H, a.target),
                    {o: H.mor_map[a.components[o]] for o in a.components})


def fully_faithful(F):
    C, D = F.source, F.target
    for a in C.objects:
        for b in C.objects:
            images = [F.mor_map[m] for m in C.hom(a, b)]
            if len(set(images)) != len(images):
                return False
            if set(images) != set(D.hom(F.obj_map[a], F.obj_map[b])):
                return False
    return True


def _essentially_surjective(F):
    C, D = F.source, F.target
    out = {}
    for d in sorted(D.objects):
        found = None
        for c in sorted(C.objects):
            for m in D.hom(F.obj_map[c], d):
                if D.is_iso(m):
                    found = (c, m)
                    break
            if found:
                break
        if not found:
            return None
        out[d] = found
    return out


def equivalence_witness(C, D, budget=None):
    """The first functor of the full stream that is fully faithful and
    essentially surjective, with its quasi-inverse and both isomorphisms.
    The stream is the eager reference enumeration, so the Budget it
    charges is not the library's."""
    for F in enumerate_functors(C, D, budget):
        if not fully_faithful(F):
            continue
        surj = _essentially_surjective(F)
        if surj is None:
            continue
        obj_map = {d: surj[d][0] for d in D.objects}
        phi = {d: surj[d][1] for d in D.objects}
        mor_map = {}
        for g in D.morphisms():
            d, d2 = D.mor_src[g], D.mor_tgt[g]
            want = D.compose_path(D.inverse(phi[d2]), g, phi[d])
            pre = [m for m in C.hom(obj_map[d], obj_map[d2])
                   if F.mor_map[m] == want]
            assert len(pre) == 1
            mor_map[g] = pre[0]
        G = Functor("Q", D, C, obj_map, mor_map)
        eps = NatTrans("eps", compose_functors(F, G), identity_functor(D), phi)
        eta_comp = {}
        for c in C.objects:
            want = phi[F.obj_map[c]]
            pre = [m for m in C.hom(G.obj_map[F.obj_map[c]], c)
                   if F.mor_map[m] == want]
            assert len(pre) == 1
            eta_comp[c] = pre[0]
        eta = NatTrans("eta", compose_functors(G, F), identity_functor(C),
                       eta_comp)
        return core.EquivalenceSearch((F, G, eta, eps), exhausted=False)
    return core.EquivalenceSearch(None, exhausted=True)


def check_pseudocone(h):
    F = h.diagram
    A = F.index
    C1 = A.cells1
    for B in A.objects():
        leg = h.legs.get(B)
        if leg is None or leg.source.name != F.fibers[B].name \
                or leg.target.name != h.vertex.name:
            return False, "leg at %s missing or mislabelled" % B
    for u in A.one_cells():
        cell = h.coherence.get(u)
        if cell is None:
            return False, "coherence at %s missing" % u
        a, b = C1.mor_src[u], C1.mor_tgt[u]
        if cell.source != h.legs[a] or \
                cell.target != compose_functors(h.legs[b], F.on1[u]):
            return False, "coherence at %s has wrong boundary" % u
        if not nat_is_invertible(cell):
            return False, "coherence at %s not invertible" % u
    for B in A.objects():  # pc0
        if h.coherence[C1.identities[B]] != identity_nat(h.legs[B]):
            return False, "pc0 fails at %s" % B
    for (v, u), w in C1.comp.items():  # pc1
        lhs = vcomp_nat(whisker_nat_functor(h.coherence[v], F.on1[u]),
                        h.coherence[u])
        if lhs.components != h.coherence[w].components:
            return False, "pc1 fails at (%s, %s)" % (v, u)
    for g in A.two_cells():  # pc2
        u, v = A.parallel(g)
        b = C1.mor_tgt[u]
        lhs = vcomp_nat(whisker_functor_nat(h.legs[b], F.on2[g]),
                        h.coherence[u])
        if lhs.components != h.coherence[v].components:
            return False, "pc2 fails at %s" % g
    return True, None


def check_modification(phi):
    g, h = phi.source, phi.target
    F = g.diagram
    if h.diagram is not F and h.diagram.name != F.name:
        return False, "boundary cones live over different diagrams"
    if g.vertex.name != h.vertex.name:
        return False, "boundary cones have different vertices"
    for B in F.index.objects():
        c = phi.components.get(B)
        if c is None or c.source != g.legs[B] or c.target != h.legs[B]:
            return False, "component at %s missing or mislabelled" % B
    C1 = F.index.cells1
    for u in F.index.one_cells():
        a, b = C1.mor_src[u], C1.mor_tgt[u]
        lhs = vcomp_nat(h.coherence[u], phi.components[a])
        rhs = vcomp_nat(whisker_nat_functor(phi.components[b], F.on1[u]),
                        g.coherence[u])
        if lhs.components != rhs.components:
            return False, u
    return True, None


def validate_category(C):
    """Every violated constraint, as a human-readable line.  Empty iff C is
    a category."""
    out = []
    seen = set()
    for o in C.objects:
        if o in seen:
            out.append("duplicate object %s" % o)
        seen.add(o)
    for m in C.morphisms():
        if C.mor_src[m] not in seen:
            out.append("morphism %s has unknown source %s" % (m, C.mor_src[m]))
        if C.mor_tgt[m] not in seen:
            out.append("morphism %s has unknown target %s" % (m, C.mor_tgt[m]))
    for o in C.objects:
        i = C.identities.get(o)
        if i is None:
            out.append("object %s has no identity" % o)
        elif i not in C.mor_src:
            out.append("identity %s of %s is not a morphism" % (i, o))
        elif C.mor_src[i] != o or C.mor_tgt[i] != o:
            out.append("identity %s of %s has wrong endpoints" % (i, o))
    if out:
        return out
    mors = C.morphisms()
    for f in mors:
        for g in mors:
            composable = C.mor_tgt[f] == C.mor_src[g]
            h = C.comp.get((g, f))
            if composable and h is None:
                out.append("missing composite %s . %s" % (g, f))
            elif not composable and h is not None:
                out.append("spurious composite %s . %s" % (g, f))
            elif h is not None:
                if h not in C.mor_src:
                    out.append("composite %s . %s = %s is not a morphism" % (g, f, h))
                elif (C.mor_src[h] != C.mor_src[f]
                      or C.mor_tgt[h] != C.mor_tgt[g]):
                    out.append("composite %s . %s = %s has wrong endpoints" % (g, f, h))
    if out:
        return out
    for f in mors:
        i_s = C.identities[C.mor_src[f]]
        i_t = C.identities[C.mor_tgt[f]]
        if C.comp[(f, i_s)] != f:
            out.append("identity law fails: %s . %s != %s" % (f, i_s, f))
        if C.comp[(i_t, f)] != f:
            out.append("identity law fails: %s . %s != %s" % (i_t, f, f))
    for f in mors:
        for g in mors:
            if C.mor_tgt[f] != C.mor_src[g]:
                continue
            for h in mors:
                if C.mor_tgt[g] != C.mor_src[h]:
                    continue
                if C.comp[(h, C.comp[(g, f)])] != C.comp[(C.comp[(h, g)], f)]:
                    out.append(
                        "associativity fails on (%s, %s, %s)" % (h, g, f))
    return out


def validate_two_cat(A):
    """Layer by layer: the 1-cells, the 2-cells under vertical composition
    and, once their boundaries are parallel, the 2-cells under horizontal
    composition must each pass validate_category; then every pair of
    2-cells, every pair of 1-cells and every four 2-cells are scanned for
    mislabelled horizontal composites, identity 2-cells that do not
    compose, and failures of interchange, each scan only when the one
    before it found nothing."""
    out = validate_category(A.cells1)
    if out:
        return ["1-cell layer: %s" % v for v in out]
    C = A.cells1
    cells = A.two_cells()
    out = validate_category(FinCat(A.name + ".v", C.morphisms(), A.two_src,
                                   A.two_tgt, A.two_id, A.vcomp))
    if out:
        return ["vertical layer: %s" % v for v in out]
    for g in cells:
        u, v = A.parallel(g)
        if (C.mor_src[u], C.mor_tgt[u]) != (C.mor_src[v], C.mor_tgt[v]):
            out.append("2-cell %s boundary not parallel" % g)
    if out:
        return out
    out = validate_category(FinCat(
        A.name + ".h", C.objects,
        {g: C.mor_src[A.two_src[g]] for g in cells},
        {g: C.mor_tgt[A.two_tgt[g]] for g in cells},
        {o: A.two_id[C.identities[o]] for o in C.objects}, A.hcomp))
    if out:
        return ["horizontal layer: %s" % v for v in out]
    for a in cells:
        for b in cells:
            c = A.hcomp.get((b, a))
            if c is None:
                continue
            su = C.comp[(A.two_src[b], A.two_src[a])]
            tv = C.comp[(A.two_tgt[b], A.two_tgt[a])]
            if A.two_src[c] != su or A.two_tgt[c] != tv:
                out.append("horizontal composite %s * %s mislabelled"
                           % (b, a))
    if out:
        return out
    for u in C.morphisms():
        for v in C.morphisms():
            if C.mor_tgt[u] != C.mor_src[v]:
                continue
            if A.hcomp[(A.two_id[v], A.two_id[u])] != A.two_id[C.comp[(v, u)]]:
                out.append("horizontal identity law fails at (%s, %s)" % (v, u))
    if out:
        return out
    for a in cells:
        for b in cells:
            if C.mor_tgt[A.two_src[a]] != C.mor_src[A.two_src[b]]:
                continue
            for a2 in cells:
                if A.two_tgt[a] != A.two_src[a2]:
                    continue
                for b2 in cells:
                    if A.two_tgt[b] != A.two_src[b2]:
                        continue
                    lhs = A.hcomp[(A.vcomp[(b2, b)], A.vcomp[(a2, a)])]
                    rhs = A.vcomp[(A.hcomp[(b2, a2)], A.hcomp[(b, a)])]
                    if lhs != rhs:
                        out.append("interchange fails at (%s,%s,%s,%s)"
                                   % (b2, b, a2, a))
    return out


def validate_two_cat_by_tables(A):
    """The table-by-table validator that validate_two_cat replaced, which
    never checks the horizontal unit and associativity laws: every table
    it rejects must still be rejected."""
    out = list(validate_category(A.cells1))
    if out:
        return ["1-cell layer: %s" % v for v in out]
    C = A.cells1
    cells = A.two_cells()
    for g in cells:
        u, v = A.parallel(g)
        if u not in C.mor_src or v not in C.mor_src:
            out.append("2-cell %s has unknown boundary" % g)
        elif (C.mor_src[u], C.mor_tgt[u]) != (C.mor_src[v], C.mor_tgt[v]):
            out.append("2-cell %s boundary not parallel" % g)
    for u in C.morphisms():
        g = A.two_id.get(u)
        if g is None or A.two_src.get(g) != u or A.two_tgt.get(g) != u:
            out.append("1-cell %s has no valid identity 2-cell" % u)
    if out:
        return out
    # each hom-category is a category
    for g in cells:
        for h in cells:
            composable = A.two_tgt[g] == A.two_src[h]
            k = A.vcomp.get((h, g))
            if composable and k is None:
                out.append("missing vertical composite %s . %s" % (h, g))
            elif not composable and k is not None:
                out.append("spurious vertical composite %s . %s" % (h, g))
            elif k is not None and (A.two_src[k] != A.two_src[g]
                                    or A.two_tgt[k] != A.two_tgt[h]):
                out.append("vertical composite %s . %s mislabelled" % (h, g))
    if out:
        return out
    for g in cells:
        u, v = A.parallel(g)
        if A.vcomp[(g, A.two_id[u])] != g or A.vcomp[(A.two_id[v], g)] != g:
            out.append("vertical identity law fails at %s" % g)
    for g in cells:
        for h in cells:
            if A.two_tgt[g] != A.two_src[h]:
                continue
            for k in cells:
                if A.two_tgt[h] != A.two_src[k]:
                    continue
                if A.vcomp[(k, A.vcomp[(h, g)])] != A.vcomp[(A.vcomp[(k, h)], g)]:
                    out.append("vertical associativity fails at (%s,%s,%s)"
                               % (k, h, g))
    # horizontal layer
    def h_composable(b, a):
        return C.mor_tgt[A.two_src[a]] == C.mor_src[A.two_src[b]]

    for a in cells:
        for b in cells:
            c = A.hcomp.get((b, a))
            if h_composable(b, a) and c is None:
                out.append("missing horizontal composite %s * %s" % (b, a))
            elif not h_composable(b, a) and c is not None:
                out.append("spurious horizontal composite %s * %s" % (b, a))
            elif c is not None:
                su = C.comp[(A.two_src[b], A.two_src[a])]
                tv = C.comp[(A.two_tgt[b], A.two_tgt[a])]
                if A.two_src[c] != su or A.two_tgt[c] != tv:
                    out.append("horizontal composite %s * %s mislabelled"
                               % (b, a))
    if out:
        return out
    for u in C.morphisms():
        for v in C.morphisms():
            if C.mor_tgt[u] != C.mor_src[v]:
                continue
            if A.hcomp[(A.two_id[v], A.two_id[u])] != A.two_id[C.comp[(v, u)]]:
                out.append("horizontal identity law fails at (%s, %s)" % (v, u))
    if out:
        return out
    for a in cells:
        for b in cells:
            if not h_composable(b, a):
                continue
            for a2 in cells:
                if A.two_tgt[a] != A.two_src[a2]:
                    continue
                for b2 in cells:
                    if A.two_tgt[b] != A.two_src[b2]:
                        continue
                    lhs = A.hcomp[(A.vcomp[(b2, b)], A.vcomp[(a2, a)])]
                    rhs = A.vcomp[(A.hcomp[(b2, a2)], A.hcomp[(b, a)])]
                    if lhs != rhs:
                        out.append("interchange fails at (%s,%s,%s,%s)"
                                   % (b2, b, a2, a))
    return out


def hcomp_nat(b, a):
    """Horizontal composite: a between C -> D, b between D -> E."""
    E = b.source.target
    H = b.source
    return NatTrans("%s*%s" % (b.name, a.name),
                    compose_functors(b.source, a.source),
                    compose_functors(b.target, a.target),
                    {o: E.comp[(b.components[a.target.obj_map[o]],
                                H.mor_map[a.components[o]])]
                     for o in a.components})


def check_two_functor(F):
    """Strict functoriality at all three levels.  (ok, counterexample)."""
    A = F.index
    C1 = A.cells1
    for B in A.objects():
        if B not in F.fibers:
            return False, "no fiber at %s" % B
    for u in A.one_cells():
        f = F.on1.get(u)
        if f is None:
            return False, "no functor at %s" % u
        if (f.source.name != F.fibers[C1.mor_src[u]].name
                or f.target.name != F.fibers[C1.mor_tgt[u]].name):
            return False, "functor at %s has wrong boundary" % u
        if validate_functor(f):
            return False, "functor at %s is invalid" % u
    for B in A.objects():
        if F.on1[C1.identities[B]] != identity_functor(F.fibers[B]):
            return False, "identity 1-cell at %s not sent to identity" % B
    for (v, u), w in C1.comp.items():
        if F.on1[w] != compose_functors(F.on1[v], F.on1[u]):
            return False, "composition %s . %s not preserved" % (v, u)
    for g in A.two_cells():
        n = F.on2.get(g)
        if n is None:
            return False, "no transformation at %s" % g
        u, v = A.parallel(g)
        if n.source != F.on1[u] or n.target != F.on1[v]:
            return False, "transformation at %s has wrong boundary" % g
        if validate_nat_trans(n):
            return False, "transformation at %s is invalid" % g
    for u in A.one_cells():
        if F.on2[A.two_id[u]] != identity_nat(F.on1[u]):
            return False, "identity 2-cell at %s not sent to identity" % u
    for (h, g), k in A.vcomp.items():
        if F.on2[k] != vcomp_nat(F.on2[h], F.on2[g]):
            return False, "vertical composition %s . %s not preserved" % (h, g)
    for (b, a), c in A.hcomp.items():
        if F.on2[c] != hcomp_nat(F.on2[b], F.on2[a]):
            return False, "horizontal composition %s * %s not preserved" % (b, a)
    return True, None


def two_cells_between(A, u, v):
    return tuple(g for g in A.two_cells()
                 if A.two_src[g] == u and A.two_tgt[g] == v)


def vinverse(A, g):
    u, v = A.parallel(g)
    for h in two_cells_between(A, v, u):
        if (A.vcomp.get((h, g)) == A.two_id[u]
                and A.vcomp.get((g, h)) == A.two_id[v]):
            return h
    return None


def check_2filtered(A):
    """Conditions F0-F3 by exhaustive search.  (ok, failing datum)."""
    C = A.cells1
    objs = sorted(C.objects)
    if not objs:  # F0: nonempty
        return False, ("F0",)
    for a in objs:  # F1: cospans
        for b in objs:
            if not any(C.hom(a, c) and C.hom(b, c) for c in objs):
                return False, ("F1", a, b)
    for a in objs:  # F2: invertibly merge parallel 1-cells
        for b in objs:
            for u in C.hom(a, b):
                for v in C.hom(a, b):
                    ok = False
                    for c in objs:
                        for w in C.hom(b, c):
                            wu, wv = C.comp[(w, u)], C.comp[(w, v)]
                            for g in two_cells_between(A, wu, wv):
                                if vinverse(A, g) is not None:
                                    ok = True
                                    break
                            if ok:
                                break
                        if ok:
                            break
                    if not ok:
                        return False, ("F2", u, v)
    for g in A.two_cells():  # F3: equalize parallel 2-cells
        for h in A.two_cells():
            if A.parallel(g) != A.parallel(h):
                continue
            u, _ = A.parallel(g)
            b = C.mor_tgt[u]
            ok = False
            for c in objs:
                for w in C.hom(b, c):
                    if (A.hcomp[(A.two_id[w], g)]
                            == A.hcomp[(A.two_id[w], h)]):
                        ok = True
                        break
                if ok:
                    break
            if not ok:
                return False, ("F3", g, h)
    return True, None


def all_spans(F, A, x, B, y):
    """Every span from (A, x) to (B, y), deterministic order."""
    C1 = F.index.cells1
    out = []
    for apex in sorted(F.index.objects()):
        for u in C1.hom(A, apex):
            for v in C1.hom(B, apex):
                fib = F.fibers[apex]
                for f in fib.hom(F.on1[u].obj_map[x], F.on1[v].obj_map[y]):
                    out.append(Span(A, x, B, y, apex, u, v, f))
    return out


def span_related(F, s, t):
    """Single-step relation: a common refinement with invertible comparison
    2-cells transporting one fiber morphism onto the other."""
    if s[:4] != t[:4]:
        return False
    A_idx = F.index
    C1 = A_idx.cells1
    x, y = s.src_obj, s.tgt_obj
    for D in sorted(A_idx.objects()):
        for w1 in C1.hom(s.apex, D):
            for w2 in C1.hom(t.apex, D):
                alphas = A_idx.invertible_cells_between(
                    C1.comp[(w1, s.left)], C1.comp[(w2, t.left)])
                if not alphas:
                    continue
                betas = A_idx.invertible_cells_between(
                    C1.comp[(w1, s.right)], C1.comp[(w2, t.right)])
                if not betas:
                    continue
                fD = F.fibers[D]
                for alpha in alphas:
                    for beta in betas:
                        lhs = fD.comp[(F.on2[beta].components[y],
                                       F.on1[w1].mor_map[s.mor])]
                        rhs = fD.comp[(F.on1[w2].mor_map[t.mor],
                                       F.on2[alpha].components[x])]
                        if lhs == rhs:
                            return True
    return False


def compose_spans(F, s, t, apex_order=None):
    """Composite span t after s, via the first common refinement found.

    Searches apexes in `apex_order` (default: sorted), then 1-cells and
    comparison 2-cells in a fixed order; well-definedness on classes is a
    checked invariant, so the first success is taken.
    """
    assert (s.tgt_idx, s.tgt_obj) == (t.src_idx, t.src_obj)
    A_idx = F.index
    C1 = A_idx.cells1
    order = apex_order if apex_order is not None else sorted(A_idx.objects())
    for D in order:
        for w1 in C1.hom(s.apex, D):
            for w2 in C1.hom(t.apex, D):
                mid1 = C1.comp[(w1, s.right)]
                mid2 = C1.comp[(w2, t.left)]
                for alpha in A_idx.invertible_cells_between(mid1, mid2):
                    fD = F.fibers[D]
                    y = s.tgt_obj
                    f1 = F.on1[w1].mor_map[s.mor]
                    f2 = F.on1[w2].mor_map[t.mor]
                    comp = fD.compose_path(
                        f2, F.on2[alpha].components[y], f1)
                    return Span(s.src_idx, s.src_obj, t.tgt_idx, t.tgt_obj,
                                D, C1.comp[(w1, s.left)],
                                C1.comp[(w2, t.right)], comp)
    raise NotLiftable("no common refinement for %r ; %r" % (s, t))


def build_pseudocolimit(F, budget=None, apex_seed=None):
    """Materialize the colimit category and its cone.

    apex_seed shuffles the refinement search order used for composition;
    the result must not depend on it (well-definedness stress knob).
    """
    ok, datum = check_2filtered(F.index)
    if not ok:
        raise NotFiltered("index fails %s at %r" % (datum[0], datum[1:]))
    bud = budget if budget is not None else Budget()
    objs = []
    obj_info = {}
    for A in sorted(F.index.objects()):
        for x in sorted(F.fibers[A].objects):
            objs.append(obj_name(A, x))
            obj_info[obj_name(A, x)] = (A, x)

    apex_order = sorted(F.index.objects())
    if apex_seed is not None:
        rng = random.Random(apex_seed)
        rng.shuffle(apex_order)

    # quotient the spans between each object pair
    span_class = {}
    class_members = {}
    hom_classes = {}  # (p, q) -> ordered class names
    for p in objs:
        for q in objs:
            A, x = obj_info[p]
            B, y = obj_info[q]
            spans = all_spans(F, A, x, B, y)
            bud.charge(len(spans) + 1)
            find, union = union_find(spans)
            for i, s in enumerate(spans):
                for t in spans[i + 1:]:
                    bud.charge()
                    if find(s) != find(t) and span_related(F, s, t):
                        union(s, t)
            groups = {}
            for s in spans:
                groups.setdefault(find(s), []).append(s)
            named = []
            for k, members in sorted(groups.items(),
                                     key=lambda kv: min(kv[1])):
                members = tuple(sorted(members))
                name = "%s>%s#%d" % (p, q, len(named))
                named.append(name)
                class_members[name] = members
                for s in members:
                    span_class[s] = name
            hom_classes[(p, q)] = named

    mor_src = {}
    mor_tgt = {}
    for (p, q), names in hom_classes.items():
        for n in names:
            mor_src[n] = p
            mor_tgt[n] = q
    identities = {}
    for p in objs:
        A, x = obj_info[p]
        identities[p] = span_class[identity_span(F, A, x)]

    comp = {}
    for (p, q), names in hom_classes.items():
        for r in objs:
            for m1 in names:
                for m2 in hom_classes[(q, r)]:
                    bud.charge()
                    s = class_members[m1][0]
                    t = class_members[m2][0]
                    comp[(m2, m1)] = span_class[
                        compose_spans(F, s, t, apex_order)]

    L = FinCat("colim_%s" % F.name, tuple(objs), mor_src, mor_tgt,
               identities, comp)

    legs = {}
    for A in F.index.objects():
        fib = F.fibers[A]
        legs[A] = Functor(
            "lam_%s" % A, fib, L,
            {x: obj_name(A, x) for x in fib.objects},
            {f: span_class[Span(A, fib.mor_src[f], A, fib.mor_tgt[f], A,
                                F.index.cells1.identities[A],
                                F.index.cells1.identities[A], f)]
             for f in fib.morphisms()})
    coherence = {}
    C1 = F.index.cells1
    for u in F.index.one_cells():
        a, b = C1.mor_src[u], C1.mor_tgt[u]
        comps = {}
        for x in F.fibers[a].objects:
            fx = F.on1[u].obj_map[x]
            comps[x] = span_class[Span(a, x, b, fx, b, u, C1.identities[b],
                                       F.fibers[b].identities[fx])]
        coherence[u] = NatTrans(
            "lam_%s" % u, legs[a],
            Functor("lam_%s.F%s" % (b, u), F.fibers[a], L,
                    {x: legs[b].obj_map[F.on1[u].obj_map[x]]
                     for x in F.fibers[a].objects},
                    {m: legs[b].mor_map[F.on1[u].mor_map[m]]
                     for m in F.fibers[a].morphisms()}),
            comps)
    lam = Pseudocone("lambda_%s" % F.name, F, L, legs, coherence)
    return PseudocolimitResult(F, L, lam, class_members, span_class, obj_info)


def enumerate_pseudocones(F, X, budget=None):
    """Every leg combination enumerates the coherence candidates of each
    non-identity 1-cell afresh; the library's kernel and pc checks."""
    bud = budget if budget is not None else Budget()
    A = F.index
    C1 = A.cells1
    objs = sorted(A.objects())
    leg_choices = [list(core.enumerate_functors(F.fibers[B], X, bud))
                   for B in objs]
    non_id = [u for u in A.one_cells()
              if u not in C1.identities.values()]
    results = []
    for combo in itertools.product(*leg_choices):
        legs = dict(zip(objs, combo))
        cell_choices = []
        feasible = True
        for u in non_id:
            a, b = C1.mor_src[u], C1.mor_tgt[u]
            cands = [n for n in core.enumerate_nat_trans(
                legs[a], compose_functors(legs[b], F.on1[u]), bud)
                if nat_is_invertible(n)]
            if not cands:
                feasible = False
                break
            cell_choices.append(cands)
        if not feasible:
            continue
        for cells in itertools.product(*cell_choices):
            bud.charge()
            coherence = dict(zip(non_id, cells))
            for B in objs:
                coherence[C1.identities[B]] = identity_nat(legs[B])
            cone = Pseudocone("pc%d" % len(results), F, X, legs, coherence)
            if library_cones.check_pseudocone(cone)[0]:
                results.append(cone)
    return results


def enumerate_modifications(g, h, budget=None):
    """The library's enumerator as frozen: every call enumerates its
    components afresh, on the library's kernel and pcM check."""
    bud = budget if budget is not None else Budget()
    objs = sorted(g.legs)
    choices = [core.enumerate_nat_trans(g.legs[A], h.legs[A], bud)
               for A in objs]
    results = []
    for combo in itertools.product(*choices):
        bud.charge()
        mod = Modification("m%d" % len(results), g, h, dict(zip(objs, combo)))
        if library_cones.check_modification(mod)[0]:
            results.append(mod)
    return results


def verify_bicolimit(R, X, budget=None, funcs=None, cones=None):
    """Postcomposition with lambda, Functors(L, X) -> Pseudocones(F, X),
    checked by double enumeration on the library's kernel and the frozen
    enumerators above."""
    bud = budget if budget is not None else Budget()
    if funcs is None:
        funcs = list(core.enumerate_functors(R.category, X, bud))
    if cones is None:
        cones = enumerate_pseudocones(R.diagram, X, bud)
    images = [postcompose_cone(R.cone, t) for t in funcs]
    image_keys = [c.key() for c in images]
    cone_keys = [c.key() for c in cones]
    objects_bijective = (len(set(image_keys)) == len(funcs)
                         and sorted(image_keys) == sorted(cone_keys))
    strict_triangle = all(
        factor_cone(R, c).key() == t.key()
        for c, t in zip(images, funcs))
    f_mor = 0
    c_mor = 0
    morphisms_bijective = True
    for s, img_s in zip(funcs, images):
        for t, img_t in zip(funcs, images):
            nats = core.enumerate_nat_trans(s, t, bud)
            mods = enumerate_modifications(img_s, img_t, bud)
            f_mor += len(nats)
            mapped = [postcompose_cell(R.cone, xi).key() for xi in nats]
            if (len(set(mapped)) != len(nats)
                    or sorted(mapped) != sorted(m.key() for m in mods)):
                morphisms_bijective = False
    for a in cones:
        for b in cones:
            c_mor += len(enumerate_modifications(a, b, bud))
    return BicolimReport(X.name, len(funcs), len(cones), f_mor, c_mor,
                         objects_bijective, morphisms_bijective,
                         strict_triangle)


def verify_site_pseudocolimit(D, colim, R, X, budget=None):
    """The site verifier on the reference verifier above: site morphisms
    out of the colimit site against the cones whose legs are all site
    morphisms, each leg tested afresh, and every cone factored with
    factor_cone for the continuity check."""
    bud = budget if budget is not None else Budget()
    funcs = [t for t in core.enumerate_functors(colim.cat, X.cat, bud)
             if not site_morphism_violations(t, colim, X)]
    cones = [h for h in enumerate_pseudocones(D.diagram, X.cat, bud)
             if not any(site_morphism_violations(h.legs[A], D.sites[A], X)
                        for A in sorted(h.legs))]
    rep = verify_bicolimit(R, X.cat, bud, funcs, cones)
    rep.factored_functors_continuous = all(
        check_continuous(factor_cone(R, h), colim, X)[0] for h in cones)
    return rep


def colim_limit_assignment(R, fiber_limits):
    """The colimit's chosen limits as the library made them before it read
    each pair of index objects' maps once: the pair (a, b) is lifted once
    per pair of index objects, and every other lookup is made per pair of
    objects of L."""
    L = R.category
    F = R.diagram
    term = colim_finite_limit(R, empty_diagram(), fiber_limits)
    if L._plural:
        pair = min(L._hom[k] for k in L._plural)[:2]
        raise IncompleteAssignment("the colimit is not thin: %s and %s "
                                   "are parallel" % pair)
    tmap = {o: L._hom[(o, term.apex)][0] for o in L.objects}
    lifts = {}  # (B, B') -> (A, u, u')
    products = {}
    for a in L.objects:
        B, y = R.obj_info[a]
        for b in L.objects:
            B2, y2 = R.obj_info[b]
            if (B, B2) not in lifts:
                A, pick, _ = lift_diagram(R, discrete_pair(a, b))
                lifts[B, B2] = A, pick["l"], pick["r"]
            A, u, u2 = lifts[B, B2]
            if A not in fiber_limits:
                raise IncompleteAssignment("fiber %s has no limit assignment"
                                           % A)
            key = (F.on1[u].obj_map[y], F.on1[u2].obj_map[y2])
            if key not in fiber_limits[A].products:
                raise IncompleteAssignment("no chosen product for %s in %s"
                                           % (key, fiber_limits[A].cat.name))
            p = R.cone.legs[A].obj_map[fiber_limits[A].products[key][0]]
            products[(a, b)] = (p, L._hom[(p, a)][0], L._hom[(p, b)][0])
    equalizers = {(f, f): (L.mor_src[f], L.identities[L.mor_src[f]])
                  for f in L.morphisms()}
    return LimitAssignment(L, term.apex, tmap, products, equalizers)


# ---------------------------------------------------------------------------
# categories from presentations and the standard corpus: build_category
# saturated to a fixpoint in both rewrite directions, and the standard
# categories and 2-categories were written out table by table


def _paths_up_to(pres, bound):
    by_src = {}
    tgt_of = {}
    for name, s, t in pres.generators:
        by_src.setdefault(s, []).append(name)
        tgt_of[name] = t
    paths = []  # (src_obj, names)
    for o in pres.objects:
        frontier = [(o, ())]
        paths.extend(frontier)
        for _ in range(bound):
            nxt = []
            for src, names in frontier:
                end = tgt_of[names[-1]] if names else src
                for g in sorted(by_src.get(end, ())):
                    nxt.append((src, names + (g,)))
            paths.extend(nxt)
            frontier = nxt
    return paths, tgt_of


def build_category(pres, bound, name="presented"):
    """Saturate paths up to length `bound` modulo the relations.

    Congruence classes are computed over paths of length <= 2*bound so that
    composites of two bounded normal forms stay inside the search space.
    Raises SaturationExceeded when a composite falls into a class whose
    shortest representative is longer than `bound`.
    """
    paths, tgt_of = _paths_up_to(pres, 2 * bound)
    index = {p: i for i, p in enumerate(paths)}
    find, union = union_find(range(len(paths)))

    changed = True
    while changed:
        changed = False
        for src, names in paths:
            for lhs, rhs in pres.relations:
                n = len(lhs)
                for k in range(len(names) - n + 1):
                    if names[k:k + n] == lhs:
                        new = names[:k] + rhs + names[k + n:]
                        j = index.get((src, new))
                        if j is not None and union(index[(src, names)], j):
                            changed = True
                for k in range(len(names) - len(rhs) + 1):
                    if names[k:k + len(rhs)] == rhs:
                        new = names[:k] + lhs + names[k + len(rhs):]
                        j = index.get((src, new))
                        if j is not None and union(index[(src, names)], j):
                            changed = True

    classes = {}
    for i, p in enumerate(paths):
        classes.setdefault(find(i), []).append(p)
    canon = {}
    for root, members in classes.items():
        rep = min(members, key=lambda p: (len(p[1]), p))
        for m in members:
            canon[m] = rep

    def path_name(p):
        src, names = p
        return "id_%s" % src if not names else ".".join(names)

    def path_tgt(p):
        src, names = p
        return tgt_of[names[-1]] if names else src

    reps = sorted({canon[p] for p in paths if len(canon[p][1]) <= bound},
                  key=lambda p: (len(p[1]), p))
    mor_src = {path_name(p): p[0] for p in reps}
    mor_tgt = {path_name(p): path_tgt(p) for p in reps}
    identities = {o: "id_%s" % o for o in pres.objects}
    comp = {}
    for p in reps:
        for q in reps:
            if path_tgt(p) != q[0]:
                continue
            # q after p, diagrammatic concatenation
            whole = (p[0], p[1] + q[1])
            rep = canon.get(whole)
            if rep is None or len(rep[1]) > bound:
                raise SaturationExceeded(
                    "composite %s then %s does not normalize within bound %d"
                    % (path_name(p), path_name(q), bound))
            comp[(path_name(q), path_name(p))] = path_name(rep)
    return FinCat(name, tuple(pres.objects), mor_src, mor_tgt, identities, comp)


def one():
    """The terminal category."""
    return FinCat("one", ("o",), {"id_o": "o"}, {"id_o": "o"},
                  {"o": "id_o"}, {("id_o", "id_o"): "id_o"})


def two():
    """The arrow category 0 -> 1."""
    mor_src = {"id_0": "0", "id_1": "1", "a": "0"}
    mor_tgt = {"id_0": "0", "id_1": "1", "a": "1"}
    comp = {("id_0", "id_0"): "id_0", ("id_1", "id_1"): "id_1",
            ("a", "id_0"): "a", ("id_1", "a"): "a"}
    return FinCat("two", ("0", "1"), mor_src, mor_tgt,
                  {"0": "id_0", "1": "id_1"}, comp)


def chaotic_pair():
    """Two objects, every hom-set a singleton (equivalent to the point)."""
    objs = ("p", "q")
    mor_src, mor_tgt = {}, {}
    names = {}
    for a in objs:
        for b in objs:
            n = "id_%s" % a if a == b else "%s%s" % (a, b)
            names[(a, b)] = n
            mor_src[n] = a
            mor_tgt[n] = b
    comp = {}
    for a in objs:
        for b in objs:
            for c in objs:
                comp[(names[(b, c)], names[(a, b)])] = names[(a, c)]
    return FinCat("chaotic_pair", objs, mor_src, mor_tgt,
                  {"p": "id_p", "q": "id_q"}, comp)


def diamond():
    """The lattice bot < a, b < top."""
    order = {("bot", "a"), ("bot", "b"), ("bot", "top"),
             ("a", "top"), ("b", "top")}

    def le(x, y):
        return x == y or (x, y) in order

    return poset_category("diamond", ("bot", "a", "b", "top"), le)


def parallel_pair_cat():
    """Two objects with two parallel non-identity arrows (not filtered)."""
    mor_src = {"id_s": "s", "id_t": "t", "f": "s", "g": "s"}
    mor_tgt = {"id_s": "s", "id_t": "t", "f": "t", "g": "t"}
    comp = {("id_s", "id_s"): "id_s", ("id_t", "id_t"): "id_t",
            ("f", "id_s"): "f", ("id_t", "f"): "f",
            ("g", "id_s"): "g", ("id_t", "g"): "g"}
    return FinCat("parallel_pair", ("s", "t"), mor_src, mor_tgt,
                  {"s": "id_s", "t": "id_t"}, comp)


def discrete_pair_twocat():
    C = FinCat("discrete_pair", ("x", "y"),
               {"id_x": "x", "id_y": "y"}, {"id_x": "x", "id_y": "y"},
               {"x": "id_x", "y": "id_y"},
               {("id_x", "id_x"): "id_x", ("id_y", "id_y"): "id_y"})
    return two_cat_from_cat(C)


def walking_iso_twocat():
    """Two parallel 1-cells u, v : A -> B and an invertible 2-cell between
    them (plus identities)."""
    mor_src = {"id_A": "A", "id_B": "B", "u": "A", "v": "A"}
    mor_tgt = {"id_A": "A", "id_B": "B", "u": "B", "v": "B"}
    comp = {("id_A", "id_A"): "id_A", ("id_B", "id_B"): "id_B",
            ("u", "id_A"): "u", ("id_B", "u"): "u",
            ("v", "id_A"): "v", ("id_B", "v"): "v"}
    cells1 = FinCat("walking_iso_1", ("A", "B"), mor_src, mor_tgt,
                    {"A": "id_A", "B": "id_B"}, comp)
    two_id = {m: "2id_%s" % m for m in cells1.morphisms()}
    two_src = {g: m for m, g in two_id.items()}
    two_tgt = dict(two_src)
    two_src.update({"g": "u", "ginv": "v"})
    two_tgt.update({"g": "v", "ginv": "u"})
    vcomp = {}
    cells = {"2id_id_A": ("id_A", "id_A"), "2id_id_B": ("id_B", "id_B"),
             "2id_u": ("u", "u"), "2id_v": ("v", "v"),
             "g": ("u", "v"), "ginv": ("v", "u")}

    def vc(h, g):
        """Compose in the free groupoid on g: u <-> v."""
        table = {("2id_u", "2id_u"): "2id_u", ("2id_v", "2id_v"): "2id_v",
                 ("g", "2id_u"): "g", ("2id_v", "g"): "g",
                 ("ginv", "2id_v"): "ginv", ("2id_u", "ginv"): "ginv",
                 ("ginv", "g"): "2id_u", ("g", "ginv"): "2id_v"}
        return table.get((h, g))

    for gname, (gs, gt) in cells.items():
        for hname, (hs, ht) in cells.items():
            if gt != hs:
                continue
            if gname.startswith("2id_id") or hname.startswith("2id_id"):
                out = gname if hname.startswith("2id_id") else hname
                if gname.startswith("2id_id") and hname.startswith("2id_id"):
                    out = gname
                vcomp[(hname, gname)] = out
            else:
                vcomp[(hname, gname)] = vc(hname, gname)
    hcomp = {}
    for gname, (gs, gt) in cells.items():
        for hname, (hs, ht) in cells.items():
            # h after g horizontally: boundary 1-cells composable
            if cells1.mor_tgt[gs] != cells1.mor_src[hs]:
                continue
            if hname.startswith("2id_id"):
                hcomp[(hname, gname)] = gname
            elif gname.startswith("2id_id"):
                hcomp[(hname, gname)] = hname
            else:
                # never happens: u, v do not compose with themselves
                raise AssertionError
    return TwoCat("walking_iso", cells1, two_src, two_tgt,
                  {m: "2id_%s" % m for m in cells1.morphisms()}, vcomp, hcomp)


# ---------------------------------------------------------------------------
# exactness: every image cone is decided exhaustively, against every
# competing cone at every object of the target


def is_limiting_cone(C, D, cone):
    for n, obj in D.nodes.items():
        leg = cone.legs.get(n)
        if leg is None or C.mor_src[leg] != cone.apex or C.mor_tgt[leg] != obj:
            return False
    for (i, j, f) in D.edges.values():
        if C.comp[(f, cone.legs[i])] != cone.legs[j]:
            return False
    nodes = sorted(D.nodes)
    for w in C.objects:
        for combo in itertools.product(*[C.hom(w, D.nodes[n])
                                         for n in nodes]):
            legs = dict(zip(nodes, combo))
            if not all(C.comp[(f, legs[i])] == legs[j]
                       for (i, j, f) in D.edges.values()):
                continue
            meds = [m for m in C.hom(w, cone.apex)
                    if all(C.comp[(cone.legs[n], m)] == legs[n]
                           for n in cone.legs)]
            if len(meds) != 1:
                return False
    return True


def check_exact(F, src_limits):
    C, D = F.source, F.target
    assert src_limits.cat.name == C.name

    def image(dia, cone):
        return (Diagram({n: F.obj_map[o] for n, o in dia.nodes.items()},
                        {e: (i, j, F.mor_map[f])
                         for e, (i, j, f) in dia.edges.items()}),
                Cone(F.obj_map[cone.apex],
                     {n: F.mor_map[m] for n, m in cone.legs.items()}))

    if src_limits.terminal is not None:
        if not is_limiting_cone(D, *image(empty_diagram(),
                                          Cone(src_limits.terminal, {}))):
            return False, empty_diagram()
    for (a, b), (p, p1, p2) in sorted(src_limits.products.items()):
        dia = discrete_pair(a, b)
        if not is_limiting_cone(D, *image(dia, Cone(p, {"l": p1, "r": p2}))):
            return False, dia
    for (f, g), (e, incl) in sorted(src_limits.equalizers.items()):
        dia = parallel_pair(C, f, g)
        cone = Cone(e, {"l": incl, "r": C.comp[(f, incl)]})
        if not is_limiting_cone(D, *image(dia, cone)):
            return False, dia
    return True, None


# ---------------------------------------------------------------------------
# limit assignments: every chosen cone is decided exhaustively, against
# every competing cone at every object of the category


def _unknown(C, objects=(), morphisms=()):
    for o in objects:
        if o not in C.objects:
            return o
    for m in morphisms:
        if m not in C.mor_src:
            return m
    return None


def validate_assignment(A):
    C = A.cat
    if A.is_complete():
        for f in C.morphisms():
            a, b = C.mor_src[f], C.mor_tgt[f]
            for g in C.hom(a, b):
                if g != f:
                    return ["complete assignment on a non-thin category: "
                            "%s and %s are parallel %s -> %s" % (f, g, a, b)]
    out = []
    if A.terminal is not None:
        if _unknown(C, [A.terminal]) is not None:
            out.append("chosen terminal %s is not an object" % A.terminal)
        elif not is_limiting_cone(C, empty_diagram(), Cone(A.terminal, {})):
            out.append("chosen terminal %s is not terminal" % A.terminal)
    for o, m in A.tmap.items():
        bad = _unknown(C, [o], [m])
        if bad is not None:
            out.append("tmap at %s names unknown %s" % (o, bad))
        elif A.terminal is None:
            out.append("tmap at %s has no chosen terminal" % o)
        elif C.mor_src[m] != o or C.mor_tgt[m] != A.terminal:
            out.append("tmap at %s has wrong endpoints" % o)
    for (a, b), (p, p1, p2) in A.products.items():
        what = "chosen product of (%s, %s)" % (a, b)
        bad = _unknown(C, [a, b, p], [p1, p2])
        if bad is not None:
            out.append("%s names unknown %s" % (what, bad))
        elif not is_limiting_cone(C, discrete_pair(a, b),
                                  Cone(p, {"l": p1, "r": p2})):
            out.append("%s is not a product" % what)
    for (f, g), (e, incl) in A.equalizers.items():
        what = "chosen equalizer of (%s, %s)" % (f, g)
        bad = _unknown(C, [e], [f, g, incl])
        if bad is not None:
            out.append("%s names unknown %s" % (what, bad))
        elif (C.mor_src[f], C.mor_tgt[f]) != (C.mor_src[g], C.mor_tgt[g]):
            out.append("%s: %s and %s are not parallel" % (what, f, g))
        elif (C.mor_src[incl], C.mor_tgt[incl]) != (e, C.mor_src[f]):
            out.append("%s: %s is not a morphism %s -> %s"
                       % (what, incl, e, C.mor_src[f]))
        elif C.comp[(f, incl)] != C.comp[(g, incl)]:
            out.append("%s does not equalize" % what)
        elif not is_limiting_cone(C, parallel_pair(C, f, g),
                                  Cone(e, {"l": incl,
                                           "r": C.comp[(f, incl)]})):
            out.append("%s is not an equalizer" % what)
    return out
