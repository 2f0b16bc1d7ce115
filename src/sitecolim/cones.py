"""Pseudocones over a diagram of categories, and their modifications.

A pseudocone stores one leg functor per index object and one invertible
coherence transformation per 1-cell (every 1-cell, identities included; no
coherence-by-generators compression).  The defining equations:

  pc0   h_{id_A} = id_{h_A}
  pc1   (h_v . Fu) o h_u = h_{vu}          for composable u, v
  pc2   (h_B . Fg) o h_u = h_v             for a 2-cell g : u => v
  pcM   h_u o phi_A = (phi_B . Fu) o g_u   for a modification phi : g => h

check_pseudocone and check_modification check them all exhaustively.  The
enumerators call them only into a vertex that is not thin: a TwoDiagram is
a strict 2-functor (twocat.py), so each side of pc1, pc2 and pcM is a
morphism between the same two objects, and in a thin vertex the two are
equal.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import (Budget, FinCat, Functor, NatTrans, compose_functors,
                   enumerate_functors, enumerate_nat_trans, identity_nat,
                   invert_nat, nat_is_invertible, once_per_object,
                   vcomp_nat, whisker_nat_functor)
from .errors import NonInvertibleComponent
from .twocat import TwoDiagram


@dataclass
class Pseudocone:
    name: str
    diagram: TwoDiagram
    vertex: FinCat
    legs: dict[str, Functor]  # index object -> functor fiber -> vertex
    coherence: dict[str, NatTrans]  # 1-cell u: A->B -> h_u : h_A => h_B . Fu

    def key(self):
        return (tuple((A, f.key()) for A, f in sorted(self.legs.items())),
                tuple((u, n.key()) for u, n in sorted(self.coherence.items())))


@dataclass
class Modification:
    name: str
    source: Pseudocone
    target: Pseudocone
    components: dict[str, NatTrans]  # index object -> phi_A : g_A => h_A

    def key(self):
        return tuple((A, n.key()) for A, n in sorted(self.components.items()))


def check_pseudocone(h: Pseudocone):
    """(ok, first violated equation as text or None)."""
    F = h.diagram
    A = F.index
    C1 = A.cells1
    for B in A.objects():
        leg = h.legs.get(B)
        if leg is None or leg.source != F.fibers[B] or leg.target != h.vertex:
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
    X = h.vertex.comp
    cells = {u: n.components for u, n in h.coherence.items()}
    for (v, u), w in C1.comp.items():  # pc1
        h_u, h_v, Fu = cells[u], cells[v], F.on1[u].obj_map
        if {o: X[(h_v[Fu[o]], h_u[o])] for o in h_u} != cells[w]:
            return False, "pc1 fails at (%s, %s)" % (v, u)
    for g in A.two_cells():  # pc2
        u, v = A.parallel(g)
        h_u, Fg = cells[u], F.on2[g].components
        h_B = h.legs[C1.mor_tgt[u]].mor_map
        if {o: X[(h_B[Fg[o]], h_u[o])] for o in h_u} != cells[v]:
            return False, "pc2 fails at %s" % g
    return True, None


def check_modification(phi: Modification):
    """(ok, first violated 1-cell or None)."""
    g, h = phi.source, phi.target
    F = g.diagram
    if h.diagram is not F and h.diagram != F:
        return False, "boundary cones live over different diagrams"
    if g.vertex != h.vertex:
        return False, "boundary cones have different vertices"
    for B in F.index.objects():
        c = phi.components.get(B)
        if c is None or c.source != g.legs.get(B) \
                or c.target != h.legs.get(B):
            return False, "component at %s missing or mislabelled" % B
    C1 = F.index.cells1
    X = g.vertex.comp
    for u in F.index.one_cells():  # pcM
        phi_a = phi.components[C1.mor_src[u]].components
        phi_b = phi.components[C1.mor_tgt[u]].components
        h_u, g_u = h.coherence[u].components, g.coherence[u].components
        Fu = F.on1[u].obj_map
        if ({o: X[(h_u[o], phi_a[o])] for o in phi_a}
                != {o: X[(phi_b[Fu[o]], g_u[o])] for o in g_u}):
            return False, u
    return True, None


def postcompose_cone(h: Pseudocone, s: Functor) -> Pseudocone:
    """Whisker a cone to Z with a functor s : Z -> X.  Each whiskered
    cell s h_u : s.h_A => s.h_B.Fu starts at the image leg s.h_A."""
    assert s.source == h.vertex
    legs = {A: compose_functors(s, f) for A, f in h.legs.items()}
    src = h.diagram.index.cells1.mor_src
    return Pseudocone("%s.%s" % (s.name, h.name), h.diagram, s.target, legs,
                      {u: NatTrans("%s(%s)" % (s.name, n.name), legs[src[u]],
                                   compose_functors(s, n.target),
                                   {o: s.mor_map[m]
                                    for o, m in n.components.items()})
                       for u, n in h.coherence.items()})


def postcompose_cell(h: Pseudocone, xi: NatTrans) -> Modification:
    """Whisker a cone with a 2-cell xi : s => t between functors out of the
    vertex; yields a modification s.h => t.h."""
    return Modification("(%s)%s" % (xi.name, h.name),
                        postcompose_cone(h, xi.source),
                        postcompose_cone(h, xi.target),
                        {A: whisker_nat_functor(xi, h.legs[A])
                         for A in h.legs})


def conjugate(g: Pseudocone, phi: dict[str, NatTrans], name="conj"):
    """Transport the cone structure of g along an invertible component
    family phi_A : g_A => h_A.

    h_u := (phi_B . Fu) o g_u o phi_A^{-1}; this is the unique coherence
    structure on the new legs making phi a modification.
    Returns (h, phi as an invertible Modification g -> h).
    """
    F = g.diagram
    C1 = F.index.cells1
    for A, n in phi.items():
        if n.source != g.legs[A]:
            raise ValueError("component at %s does not start at the leg" % A)
        if not nat_is_invertible(n):
            raise NonInvertibleComponent("component at %s not invertible" % A)
    legs = {A: phi[A].target for A in g.legs}
    coherence = {}
    for u in F.index.one_cells():
        a, b = C1.mor_src[u], C1.mor_tgt[u]
        coherence[u] = vcomp_nat(
            vcomp_nat(whisker_nat_functor(phi[b], F.on1[u]), g.coherence[u]),
            invert_nat(phi[a]))
    h = Pseudocone(name, F, g.vertex, legs, coherence)
    mod = Modification("%s_hat" % name, g, h, dict(phi))
    return h, mod


def enumerate_pseudocones(F: TwoDiagram, X: FinCat,
                          budget: Budget | None = None):
    """All pseudocones of F with vertex X, in a deterministic order.

    Legs range over all functors fiber -> X, enumerated once per fiber
    object; each later index object with that fiber is charged what the
    enumeration charged, stopping one past the limit as single charges
    would.  An invertible h_u : h_A => h_B . Fu needs h_A x isomorphic to
    h_B Fu x at every x, so an uncharged depth-first walk over the leg
    positions, in lexicographic order, tests each non-identity 1-cell at
    the later of its two positions: the isomorphism classes in X of the
    leg's images of the fiber's sorted objects against those of h_B . Fu,
    kept per (u, position of h_B).  A combination that passes reads the
    invertible candidates for each h_u (pc0 pins the identities) from one
    table per call, keyed by u and the two legs' positions; an empty list
    rules out that combination only, and the walk moves on to the next.
    pc1 and pc2 are checked only when X is not thin, so into a thin X
    every candidate is kept.
    """
    bud = budget if budget is not None else Budget()
    A = F.index
    C1 = A.cells1
    objs = sorted(A.objects())
    rank = {B: i for i, B in enumerate(objs)}
    iso_class = {x: min(y for y in X.objects
                        if any(map(X.is_iso, X.hom(y, x)))) for x in X.objects}

    def legs_of(C):
        used, legs = bud.used, list(enumerate_functors(C, X, bud))
        return legs, [tuple(iso_class[h.obj_map[x]] for x in sorted(C.objects))
                      for h in legs], bud.used - used

    once, leg_choices, classes = once_per_object(), [], []
    for B in objs:
        used = bud.used
        legs, cls, cost = once(legs_of, F.fibers[B])
        if bud.used == used:  # the legs of an earlier index object
            bud.charge(min(cost, bud.limit - used + 1))
        leg_choices.append(legs)
        classes.append(cls)
    non_id = [(u, rank[C1.mor_src[u]], rank[C1.mor_tgt[u]])
              for u in A.one_cells() if u not in C1.identities.values()]
    watches = [[] for _ in objs]  # the 1-cells tested at each position
    for u, a, b in non_id:
        watches[max(a, b)].append((u, a, b, F.on1[u].obj_map,
                                   sorted(F.fibers[objs[a]].objects)))
    target_classes = {}  # (u, leg index at tgt u) -> classes of h_B . Fu
    coherence_cands = {}  # (u, leg index at src u, at tgt u) -> list
    thin = X._thin
    results = []
    picks, i = [-1] * len(objs), 0  # picks[:i] pass their tests; -1 is unset
    while i >= 0:
        if i < len(objs):
            picks[i] += 1
            if picks[i] == len(leg_choices[i]):
                picks[i], i = -1, i - 1
                continue
            for u, a, b, Fu, fiber in watches[i]:
                want = target_classes.get((u, picks[b]))
                if want is None:
                    h_B = leg_choices[b][picks[b]].obj_map
                    want = target_classes[(u, picks[b])] = tuple(
                        iso_class[h_B[Fu[x]]] for x in fiber)
                if classes[a][picks[a]] != want:
                    break
            else:
                i += 1
            continue
        legs = dict(zip(objs, (c[p] for c, p in zip(leg_choices, picks))))
        cell_choices = []
        for u, a, b in non_id:
            key = (u, picks[a], picks[b])
            cands = coherence_cands.get(key)
            if cands is None:
                target = compose_functors(legs[objs[b]], F.on1[u])
                cands = coherence_cands[key] = [
                    n for n in enumerate_nat_trans(legs[objs[a]], target, bud)
                    if nat_is_invertible(n)]
            if not cands:
                break
            cell_choices.append(cands)
        else:
            for cells in itertools.product(*cell_choices):
                bud.charge()
                coherence = {u: n for (u, _, _), n in zip(non_id, cells)}
                for B in objs:
                    coherence[C1.identities[B]] = identity_nat(legs[B])
                cone = Pseudocone("pc%d" % len(results), F, X, legs,
                                  coherence)
                if thin or check_pseudocone(cone)[0]:
                    results.append(cone)
        i = len(objs) - 1
    return results


def enumerate_modifications(g: Pseudocone, h: Pseudocone,
                            budget: Budget | None = None):
    """All modifications g => h, deterministic order.  The candidate
    components g_A => h_A are enumerated afresh in each call; no table
    outlives it.

    Cones over different diagrams, with different vertices, or without a
    leg at some index object have no modification, and the call returns []
    at once, charging nothing.  Otherwise pcM is checked only when the
    vertex is not thin, so into a thin vertex every candidate is kept."""
    bud = budget if budget is not None else Budget()
    objs = sorted(g.diagram.index.objects())
    if (h.diagram is not g.diagram and h.diagram != g.diagram
            or h.vertex != g.vertex
            or any(A not in g.legs or A not in h.legs for A in objs)):
        return []
    thin = g.vertex._thin
    choices = [enumerate_nat_trans(g.legs[A], h.legs[A], bud) for A in objs]
    results = []
    for combo in itertools.product(*choices):
        bud.charge()
        mod = Modification("m%d" % len(results), g, h, dict(zip(objs, combo)))
        if thin or check_modification(mod)[0]:
            results.append(mod)
    return results
