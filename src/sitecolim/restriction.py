"""Closing generator sets under finite limits and transitions.

Given a diagram of finite complete categories with exact transitions and a
generator set per fiber, alternately close each fiber under chosen finite
limits and push the results along every transition functor, until the whole
family stabilizes.  Transitions and 2-cells then restrict on the nose to the
full subcategories produced.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import FinCat, Functor, NatTrans, once_per_object
from .limits import LimitAssignment, check_exact
from .twocat import TwoDiagram


def finite_limit_closure(limits: LimitAssignment, S) -> frozenset:
    """Least superset of S containing the chosen terminal and closed under
    chosen binary products and chosen equalizers of its own arrows."""
    C = limits.cat
    cur = set(S)
    if limits.terminal is not None:
        cur.add(limits.terminal)
    while True:
        new = set(cur)
        for a in cur:
            for b in cur:
                prod = limits.products.get((a, b))
                if prod is not None:
                    new.add(prod[0])
        mors = [m for m in C.morphisms()
                if C.mor_src[m] in cur and C.mor_tgt[m] in cur]
        for f in mors:
            for g in C.hom(C.mor_src[f], C.mor_tgt[f]):
                eq = limits.equalizers.get((f, g))
                if eq is not None:
                    new.add(eq[0])
        if new == cur:
            return frozenset(cur)
        cur = new


def full_subcategory(C: FinCat, objs, name=None):
    """The induced full subcategory and its inclusion functor."""
    objs = tuple(o for o in C.objects if o in objs)
    mors = [m for m in C.morphisms()
            if C.mor_src[m] in objs and C.mor_tgt[m] in objs]
    sub = FinCat(name or "%s|%d" % (C.name, len(objs)), objs,
                 {m: C.mor_src[m] for m in mors},
                 {m: C.mor_tgt[m] for m in mors},
                 {o: C.identities[o] for o in objs},
                 {(g, f): h for (g, f), h in C.comp.items()
                  if g in mors and f in mors})
    incl = Functor("incl_%s" % sub.name, sub, C,
                   {o: o for o in objs}, {m: m for m in mors})
    return sub, incl


@dataclass
class AmbientDiagram:
    diagram: TwoDiagram
    fiber_limits: dict[str, LimitAssignment]
    generators: dict[str, frozenset]

    def validate(self) -> list[str]:
        """Each fiber's missing assignment or generators, then one
        `transition u is not exact` line per inexact 1-cell, in 1-cell
        order; a 1-cell at a fiber without an assignment gets none, its
        fiber being reported already.  The verdict reads only the functor
        and the source assignment, so a once_per_object memo checks each
        distinct pair of them, compared by identity, once."""
        out = []
        for A in self.diagram.index.objects():
            lim = self.fiber_limits.get(A)
            if lim is None or not lim.is_complete():
                out.append("fiber %s has no complete limit assignment" % A)
            if not self.generators.get(A):
                out.append("fiber %s has an empty generator set" % A)
        C1 = self.diagram.index.cells1
        once = once_per_object()
        for u in self.diagram.index.one_cells():
            src = self.fiber_limits.get(C1.mor_src[u])
            if src is None or self.fiber_limits.get(C1.mor_tgt[u]) is None:
                continue  # reported above
            if not once(check_exact, self.diagram.on1[u], src)[0]:
                out.append("transition %s is not exact" % u)
        return out


@dataclass
class RestrictionResult:
    ambient: AmbientDiagram
    objects: dict[str, frozenset]  # index object -> objects of the subfiber
    subfibers: dict[str, FinCat]
    inclusions: dict[str, Functor]
    restricted: TwoDiagram
    rounds: int


def _restrict_functor(F: Functor, sub_src: FinCat, sub_tgt: FinCat) -> Functor:
    return Functor("%s|" % F.name, sub_src, sub_tgt,
                   {o: F.obj_map[o] for o in sub_src.objects},
                   {m: F.mor_map[m] for m in sub_src.morphisms()})


def restrict_diagram(amb: AmbientDiagram) -> RestrictionResult:
    """The alternating closure iteration: close each generator set under
    chosen finite limits, push along every transition (the identity 1-cell
    keeps earlier stages inside), re-close, repeat to a fixpoint."""
    F = amb.diagram
    idx = F.index
    C1 = idx.cells1
    cur = {A: finite_limit_closure(amb.fiber_limits[A], amb.generators[A])
           for A in idx.objects()}
    rounds = 0
    while True:
        rounds += 1
        nxt = {}
        for A in idx.objects():
            gathered = set()
            for u in idx.one_cells():
                if C1.mor_tgt[u] != A:
                    continue
                X = C1.mor_src[u]
                gathered.update(F.on1[u].obj_map[c] for c in cur[X])
            nxt[A] = finite_limit_closure(amb.fiber_limits[A], gathered)
        if nxt == cur:
            break
        cur = nxt
    subfibers = {}
    inclusions = {}
    for A in idx.objects():
        sub, incl = full_subcategory(F.fibers[A], cur[A], "C_%s" % A)
        subfibers[A] = sub
        inclusions[A] = incl
    on1 = {}
    for u in idx.one_cells():
        a, b = C1.mor_src[u], C1.mor_tgt[u]
        on1[u] = _restrict_functor(F.on1[u], subfibers[a], subfibers[b])
    on2 = {}
    for g in idx.two_cells():
        u, v = idx.parallel(g)
        n = F.on2[g]
        a = C1.mor_src[u]
        on2[g] = NatTrans("%s|" % n.name, on1[u], on1[v],
                          {o: n.components[o] for o in subfibers[a].objects})
    restricted = TwoDiagram("%s|res" % F.name, idx, subfibers, on1, on2)
    return RestrictionResult(amb, dict(cur), subfibers, inclusions,
                             restricted, rounds)


def verify_restriction(r: RestrictionResult) -> list[str]:
    """Independent re-check of both invariants plus strict commutation of
    every restricted square and componentwise 2-cell restriction."""
    out = []
    amb = r.ambient
    F = amb.diagram
    idx = F.index
    C1 = idx.cells1
    for A in idx.objects():
        CA = r.objects[A]
        if not amb.generators[A] <= CA:
            out.append("generators of %s not contained in C_%s" % (A, A))
        lim = amb.fiber_limits[A]
        if lim.terminal not in CA:
            out.append("chosen terminal missing from C_%s" % A)
        for a in CA:
            for b in CA:
                if lim.products[(a, b)][0] not in CA:
                    out.append("product of (%s, %s) missing from C_%s"
                               % (a, b, A))
        for f in r.subfibers[A].morphisms():
            for g in r.subfibers[A].hom(F.fibers[A].mor_src[f],
                                        F.fibers[A].mor_tgt[f]):
                if lim.equalizers[(f, g)][0] not in CA:
                    out.append("equalizer of (%s, %s) missing from C_%s"
                               % (f, g, A))
    for u in idx.one_cells():
        a, b = C1.mor_src[u], C1.mor_tgt[u]
        img = {F.on1[u].obj_map[c] for c in r.objects[a]}
        if not img <= r.objects[b]:
            out.append("transition %s leaves the subcategories" % u)
            continue
        # i_B . u*| == u* . i_A on the nose
        ru = r.restricted.on1[u]
        for o in r.subfibers[a].objects:
            if ru.obj_map[o] != F.on1[u].obj_map[o]:
                out.append("square at %s fails on object %s" % (u, o))
        for m in r.subfibers[a].morphisms():
            if ru.mor_map[m] != F.on1[u].mor_map[m]:
                out.append("square at %s fails on morphism %s" % (u, m))
    for g in idx.two_cells():
        u, _ = idx.parallel(g)
        a = C1.mor_src[u]
        b = C1.mor_tgt[u]
        for o in r.subfibers[a].objects:
            comp = r.restricted.on2[g].components[o]
            if comp != F.on2[g].components[o]:
                out.append("2-cell %s component at %s not the restriction"
                           % (g, o))
            if comp not in r.subfibers[b].mor_src:
                out.append("2-cell %s component at %s leaves C_%s"
                           % (g, o, b))
    return out
