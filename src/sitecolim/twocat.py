"""Finite index 2-categories and strict 2-functors into categories.

The 1-cell layer of a TwoCat is itself a FinCat, and so is each composition
layer of its 2-cells: vertically, 2-cells run between 1-cells; horizontally,
between objects.  Diagrams are strict 2-functors index -> Cat; data that
arrives in the opposite orientation is flipped at ingestion
(opposite_two_cat), so everything downstream sees one covariant convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import eq

from .core import (FinCat, Functor, NatTrans, compose_functors,
                   identity_functor, identity_nat, once_per_object,
                   validate_category, validate_functor, validate_nat_trans,
                   vcomp_nat)


@dataclass
class TwoCat:
    name: str
    cells1: FinCat  # objects and 1-cells
    two_src: dict[str, str]  # 2-cell -> source 1-cell
    two_tgt: dict[str, str]  # 2-cell -> target 1-cell (parallel to source)
    two_id: dict[str, str]  # 1-cell -> identity 2-cell
    vcomp: dict[tuple[str, str], str]
    hcomp: dict[tuple[str, str], str]  # (beta over B->C, alpha over A->B)
    # 1-cells as objects, 2-cells as morphisms, vcomp as composition
    vertical: FinCat = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.vertical = FinCat(self.name + ".v", self.cells1.morphisms(),
                               self.two_src, self.two_tgt, self.two_id,
                               self.vcomp)

    def objects(self):
        return self.cells1.objects

    def one_cells(self):
        return self.cells1.morphisms()

    def two_cells(self):
        return sorted(self.two_src)

    def parallel(self, g):
        """(source 1-cell, target 1-cell) of a 2-cell."""
        return self.two_src[g], self.two_tgt[g]

    def two_cells_between(self, u, v):
        return self.vertical.hom(u, v)

    def invertible_cells_between(self, u, v):
        return [g for g in self.two_cells_between(u, v)
                if self.vertical.is_iso(g)]

    def whisker_post(self, w, g):
        """w . g for a 1-cell w composable after the boundary of g."""
        return self.hcomp[(self.two_id[w], g)]


def two_cat_from_cat(C: FinCat, name=None) -> TwoCat:
    """View a 1-category as a 2-category with only identity 2-cells."""
    two_id = {u: "2id_%s" % u for u in C.morphisms()}
    two_src = {g: u for u, g in two_id.items()}
    two_tgt = dict(two_src)
    vcomp = {(g, g): g for g in two_id.values()}
    hcomp = {}
    for (v, u), w in C.comp.items():
        hcomp[(two_id[v], two_id[u])] = two_id[w]
    return TwoCat(name or C.name, C, two_src, two_tgt, two_id, vcomp, hcomp)


def validate_two_cat(A: TwoCat) -> list[str]:
    """Enrichment and interchange constraints, exhaustively: the 1-cells,
    and the 2-cells under each composition, form categories; the
    horizontal composites and identities sit over the 1-cell composites;
    and interchange holds, tested only where a vertical hom-set has two
    or more 2-cells: past the labelling check both sides are parallel."""
    out = validate_category(A.cells1)
    if out:
        return ["1-cell layer: %s" % v for v in out]
    out = validate_category(A.vertical)
    if out:
        return ["vertical layer: %s" % v for v in out]
    C = A.cells1
    cells = A.two_cells()
    for g in cells:
        u, v = A.parallel(g)
        if (C.mor_src[u], C.mor_tgt[u]) != (C.mor_src[v], C.mor_tgt[v]):
            out.append("2-cell %s boundary not parallel" % g)
    if out:
        return out
    horizontal = FinCat(A.name + ".h", C.objects,
                        {g: C.mor_src[A.two_src[g]] for g in cells},
                        {g: C.mor_tgt[A.two_src[g]] for g in cells},
                        {o: A.two_id[C.identities[o]] for o in C.objects},
                        A.hcomp)
    out = validate_category(horizontal)
    if out:
        return ["horizontal layer: %s" % v for v in out]
    for b, a in _by_right(A.hcomp):
        c = A.hcomp[(b, a)]
        if (A.two_src[c] != C.comp[(A.two_src[b], A.two_src[a])]
                or A.two_tgt[c] != C.comp[(A.two_tgt[b], A.two_tgt[a])]):
            out.append("horizontal composite %s * %s mislabelled" % (b, a))
    if out:
        return out
    plural = A.vertical._plural
    for v, u in _by_right([vu for vu, w in C.comp.items()
                           if (w, w) in plural]):
        if A.hcomp[(A.two_id[v], A.two_id[u])] != A.two_id[C.comp[(v, u)]]:
            out.append("horizontal identity law fails at (%s, %s)" % (v, u))
    if out:
        return out
    plural_from = {u for u, _ in plural}
    after = {}  # 2-cell -> the 2-cells vertically composable after it
    for h, g in sorted(A.vcomp):
        after.setdefault(g, []).append(h)
    for b, a in _by_right([ba for ba, c in A.hcomp.items()
                           if A.two_src[c] in plural_from]):
        s = A.two_src[A.hcomp[(b, a)]]
        for a2 in after[a]:
            for b2 in after[b]:
                if (s, A.two_tgt[A.hcomp[(b2, a2)]]) in plural and (
                        A.hcomp[(A.vcomp[(b2, b)], A.vcomp[(a2, a)])]
                        != A.vcomp[(A.hcomp[(b2, a2)], A.hcomp[(b, a)])]):
                    out.append("interchange fails at (%s,%s,%s,%s)"
                               % (b2, b, a2, a))
    return out


def _by_right(table):
    """The keys (g, f) of a composition table, ordered by f, then g."""
    return sorted(table, key=lambda gf: (gf[1], gf[0]))


def opposite_two_cat(A: TwoCat) -> TwoCat:
    """Reverse 1-cells, keep 2-cells; involutive."""
    C = A.cells1
    op = FinCat(C.name + "^op", C.objects, dict(C.mor_tgt), dict(C.mor_src),
                dict(C.identities), {(f, g): h for (g, f), h in C.comp.items()})
    return TwoCat(A.name + "^op", op, dict(A.two_src), dict(A.two_tgt),
                  dict(A.two_id),
                  dict(A.vcomp),
                  {(a, b): c for (b, a), c in A.hcomp.items()})


@dataclass
class TwoDiagram:
    """A strict 2-functor index -> Cat."""
    name: str
    index: TwoCat
    fibers: dict[str, FinCat]
    on1: dict[str, Functor]
    on2: dict[str, NatTrans]


def constant_diagram(index: TwoCat, C: FinCat, name=None) -> TwoDiagram:
    """Every 1-cell shares one identity functor, and every 2-cell one
    identity transformation, as check_two_functor's memo expects."""
    one = identity_functor(C)
    cell = identity_nat(one)
    on1 = dict.fromkeys(index.one_cells(), one)
    on2 = dict.fromkeys(index.two_cells(), cell)
    return TwoDiagram(name or "const_%s" % C.name, index,
                      {A: C for A in index.objects()}, on1, on2)


def check_two_functor(F: TwoDiagram):
    """Strict functoriality at all three levels.  (ok, counterexample).

    Each law is decided once per tuple of functor and transformation
    objects it reads: a diagram read from a fixture shares one functor
    among many 1-cells and one identity transformation among the identity
    2-cells over one transition.  With thin fibers only, the 2-cell laws
    are skipped: both sides are by then transformations between the same
    functors.  That assumes a valid index (validate_two_cat), which the
    fixture parser checks first and the library constructors build."""
    A = F.index
    C1 = A.cells1
    once = once_per_object()

    def horizontal(gamma, beta, alpha):
        """Whether gamma is the horizontal composite beta * alpha, with
        the boundary composites shared."""
        E, H = beta.source.target, beta.source
        return (gamma.source == once(compose_functors, beta.source,
                                     alpha.source)
                and gamma.target == once(compose_functors, beta.target,
                                         alpha.target)
                and gamma.components == {
                    o: E.comp[(beta.components[alpha.target.obj_map[o]],
                               H.mor_map[alpha.components[o]])]
                    for o in alpha.components})

    for B in A.objects():
        if B not in F.fibers:
            return False, "no fiber at %s" % B
    for u in A.one_cells():
        f = F.on1.get(u)
        if f is None:
            return False, "no functor at %s" % u
        if (f.source != F.fibers[C1.mor_src[u]]
                or f.target != F.fibers[C1.mor_tgt[u]]):
            return False, "functor at %s has wrong boundary" % u
        if once(validate_functor, f):
            return False, "functor at %s is invalid" % u
    for B in A.objects():
        if not once(eq, F.on1[C1.identities[B]],
                    once(identity_functor, F.fibers[B])):
            return False, "identity 1-cell at %s not sent to identity" % B
    for (v, u), w in C1.comp.items():
        if not once(eq, F.on1[w], once(compose_functors, F.on1[v], F.on1[u])):
            return False, "composition %s . %s not preserved" % (v, u)
    for g in A.two_cells():
        n = F.on2.get(g)
        if n is None:
            return False, "no transformation at %s" % g
        u, v = A.parallel(g)
        if not (once(eq, n.source, F.on1[u]) and once(eq, n.target, F.on1[v])):
            return False, "transformation at %s has wrong boundary" % g
        if once(validate_nat_trans, n):
            return False, "transformation at %s is invalid" % g
    if all(F.fibers[B]._thin for B in A.objects()):
        return True, None
    for u in A.one_cells():
        if not once(eq, F.on2[A.two_id[u]], once(identity_nat, F.on1[u])):
            return False, "identity 2-cell at %s not sent to identity" % u
    for (h, g), k in A.vcomp.items():
        if not once(eq, F.on2[k], once(vcomp_nat, F.on2[h], F.on2[g])):
            return False, "vertical composition %s . %s not preserved" % (h, g)
    for (b, a), c in A.hcomp.items():
        if not once(horizontal, F.on2[c], F.on2[b], F.on2[a]):
            return False, "horizontal composition %s * %s not preserved" % (b, a)
    return True, None


def check_2filtered(A: TwoCat):
    """Conditions F0-F3 by exhaustive search.  (ok, failing datum).  F1 asks
    that the up-sets of a and b meet; F2 is searched for u != v and F3 for
    g != h only, as the diagonal holds through w = id and the identity
    2-cell.  That assumes a valid A (validate_two_cat), which the fixture
    parser checks first and the library constructors build."""
    C = A.cells1
    objs = sorted(C.objects)
    if not objs:  # F0: a 2-filtered category is nonempty
        return False, ("F0",)
    up = {a: {c for c in objs if C.hom(a, c)} for a in objs}
    for a in objs:  # F1: cospans
        for b in objs:
            if up[a].isdisjoint(up[b]):
                return False, ("F1", a, b)
    for a in objs:  # F2: invertibly merge parallel 1-cells
        for b in objs:
            for u in C.hom(a, b):
                for v in C.hom(a, b):
                    if u != v and not any(A.invertible_cells_between(
                            C.comp[(w, u)], C.comp[(w, v)])
                            for c in objs for w in C.hom(b, c)):
                        return False, ("F2", u, v)
    for g in A.two_cells():  # F3: equalize parallel 2-cells
        b = C.mor_tgt[A.two_src[g]]
        for h in A.two_cells_between(*A.parallel(g)):
            if h != g and not any(
                    A.whisker_post(w, g) == A.whisker_post(w, h)
                    for c in objs for w in C.hom(b, c)):
                return False, ("F3", g, h)
    return True, None
