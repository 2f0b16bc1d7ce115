"""Finite sites with finite limits, site morphisms, and the colimit site.

Topologies are presented by bases of covering families and never saturated
into sieve-closed topologies; the identity cover is implicit everywhere, and
a family counts as a cover when some basis cover (or the identity) factors
through it.  Sheaf compatibility uses the site's chosen fiber products.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import (Budget, FinCat, Functor, enumerate_functors,
                   once_per_object)
from .cones import enumerate_pseudocones
from .colim import (BicolimReport, PseudocolimitResult, build_pseudocolimit,
                    colim_limit_assignment, verify_bicolimit)
from .limits import Diagram, LimitAssignment, check_exact, chosen_limit
from .twocat import TwoDiagram


@dataclass
class Site:
    cat: FinCat
    limits: LimitAssignment
    basis: dict[str, tuple[tuple[str, ...], ...]]  # obj -> covering families
    generators: frozenset

    def covers(self, c):
        """Basis covers of c plus the implicit identity cover."""
        return ((self.cat.identities[c],),) + tuple(self.basis.get(c, ()))


def trivial_site(cat: FinCat, limits: LimitAssignment) -> Site:
    return Site(cat, limits, {}, frozenset(cat.objects))


def validate_site(S: Site) -> list[str]:
    out = []
    C = S.cat
    for c, fams in S.basis.items():
        if c not in C.objects:
            out.append("cover block for unknown object %s" % c)
            continue
        for fam in fams:
            for m in fam:
                if m not in C.mor_src:
                    out.append("cover of %s uses unknown morphism %s" % (c, m))
                elif C.mor_tgt[m] != c:
                    out.append("cover of %s contains %s not into it" % (c, m))
    for g in S.generators:
        if g not in C.objects:
            out.append("unknown generator %s" % g)
    if out:
        return out
    for c in C.objects:
        if c in S.generators:
            continue
        if not any(all(C.mor_src[m] in S.generators for m in fam)
                   for fam in S.basis.get(c, ())):
            out.append("object %s not covered by generators" % c)
    return out


def family_is_cover(S: Site, c, family) -> bool:
    """True when some cover of c (identity included) factors through the
    family: every cover leg equals a family member precomposed with
    something."""
    C = S.cat
    family = tuple(family)
    for fam in S.covers(c):
        if all(any(any(C.comp[(m, h)] == leg
                       for h in C.hom(C.mor_src[leg], C.mor_src[m]))
                   for m in family)
               for leg in fam):
            return True
    return False


def check_continuous(fstar: Functor, src: Site, tgt: Site):
    """Basis-level cover preservation.  (ok, failing (object, cover))."""
    for c in sorted(src.basis):
        for fam in src.basis[c]:
            image = tuple(fstar.mor_map[m] for m in fam)
            if not family_is_cover(tgt, fstar.obj_map[c], image):
                return False, (c, fam)
    return True, None


def site_morphism_violations(functor: Functor, source: Site,
                             target: Site) -> list[str]:
    """Why `functor`, from source's category to target's, is not a site
    morphism (which points the opposite way): it is not exact, or it does
    not preserve a basis cover.  [] when it is one."""
    ok, _ = check_exact(functor, source.limits)
    if not ok:
        return ["underlying functor is not exact"]
    ok, bad = check_continuous(functor, source, target)
    if not ok:
        return ["cover %r of %s not preserved" % (bad[1], bad[0])]
    return []


@dataclass
class SiteDiagram:
    diagram: TwoDiagram
    sites: dict[str, Site]  # per index object; sites[A].cat == fibers[A]

    def validate(self) -> list[str]:
        """Each site's violations and each site at a name that is not an
        index object, then each transition's as a site morphism: one
        `transition u: ...` line per violation, 1-cell by 1-cell.  A
        once_per_object memo checks each distinct (functor, source site,
        target site) once: a fixture diagram shares one functor and one
        site among many 1-cells and fibers."""
        out = []
        idx = self.diagram.index
        for A in idx.objects():
            S = self.sites.get(A)
            if S is None or S.cat != self.diagram.fibers[A]:
                out.append("fiber %s has no matching site" % A)
                continue
            out.extend("site at %s: %s" % (A, v) for v in validate_site(S))
        out += ["site %s: %s is not an index object" % (A, A)
                for A in sorted(self.sites) if A not in idx.objects()]
        if out:
            return out
        once = once_per_object()
        for u in idx.one_cells():
            a, b = idx.cells1.mor_src[u], idx.cells1.mor_tgt[u]
            out.extend("transition %s: %s" % (u, v) for v in once(
                site_morphism_violations, self.diagram.on1[u],
                self.sites[a], self.sites[b]))
        return out


def build_colim_site(D: SiteDiagram, budget: Budget | None = None):
    """The colimit category with the topology generated by the images of
    all fiber covers, and topological generators the images of the fiber
    generators.  Returns (Site, PseudocolimitResult)."""
    R = build_pseudocolimit(D.diagram, budget)
    fiber_limits = {A: D.sites[A].limits for A in D.sites}
    limits = colim_limit_assignment(R, fiber_limits)
    basis = {}
    for A in sorted(D.sites):
        lam = R.cone.legs[A]
        for c, fams in sorted(D.sites[A].basis.items()):
            tgt = lam.obj_map[c]
            for fam in fams:
                image = tuple(lam.mor_map[m] for m in fam)
                basis.setdefault(tgt, [])
                if image not in basis[tgt]:
                    basis[tgt].append(image)
    basis = {c: tuple(fams) for c, fams in basis.items()}
    generators = frozenset(R.cone.legs[A].obj_map[c]
                           for A in D.sites for c in D.sites[A].generators)
    return Site(R.category, limits, basis, generators), R


def verify_site_pseudocolimit(D: SiteDiagram, colim: Site,
                              R: PseudocolimitResult, X: Site,
                              budget: Budget | None = None) -> BicolimReport:
    """verify_bicolimit between site morphisms out of the colimit site and
    pseudocones whose legs are all site morphisms; also checks that each
    factored functor preserving the generating covers is continuous
    outright.  The cones share their leg objects, so a once_per_object
    memo tests each distinct (leg, site) once."""
    bud = budget if budget is not None else Budget()
    funcs = [t for t in enumerate_functors(colim.cat, X.cat, bud)
             if not site_morphism_violations(t, colim, X)]
    once = once_per_object()
    cones = [h for h in enumerate_pseudocones(D.diagram, X.cat, bud)
             if not any(once(site_morphism_violations, h.legs[A],
                             D.sites[A], X) for A in sorted(h.legs))]
    return verify_bicolimit(R, X.cat, bud, funcs, cones,
                            lambda f: check_continuous(f, colim, X)[0])


# ---------------------------------------------------------------------------
# presheaves and the sheaf condition


@dataclass
class Presheaf:
    name: str
    cat: FinCat
    sets: dict[str, tuple[str, ...]]  # object -> elements
    maps: dict[str, dict[str, str]]  # morphism f: a -> b  ->  P(b) -> P(a)


def validate_presheaf(P: Presheaf) -> list[str]:
    C = P.cat
    out = ["value set at %s, which %s lacks" % (o, C.name)
           for o in P.sets if o not in C.objects]
    out += ["action of %s, which %s lacks" % (m, C.name)
            for m in P.maps if m not in C.mor_src]
    for o in C.objects:
        if o not in P.sets:
            out.append("no value set at %s" % o)
    for m in C.morphisms():
        fn = P.maps.get(m)
        if fn is None:
            out.append("no action for morphism %s" % m)
            continue
        dom = P.sets.get(C.mor_tgt[m], ())
        cod = P.sets.get(C.mor_src[m], ())
        if set(fn) != set(dom) or any(v not in cod for v in fn.values()):
            out.append("action of %s is not a function P(%s) -> P(%s)"
                       % (m, C.mor_tgt[m], C.mor_src[m]))
    if out:
        return out
    for o in C.objects:
        i = C.identities[o]
        if any(P.maps[i][e] != e for e in P.sets[o]):
            out.append("identity at %s does not act trivially" % o)
    for (g, f), h in C.comp.items():
        for e in P.sets[C.mor_tgt[g]]:
            if P.maps[f][P.maps[g][e]] != P.maps[h][e]:
                out.append("contravariant composition fails at (%s, %s)"
                           % (g, f))
                break
    return out


def _pullback(S: Site, f, g):
    """Chosen fiber product of a cospan f : a -> c <- b : g; returns
    (p1 : W -> a, p2 : W -> b)."""
    C = S.cat
    dia = Diagram({"l": C.mor_src[f], "r": C.mor_src[g], "m": C.mor_tgt[f]},
                  {"f": ("l", "m", f), "g": ("r", "m", g)})
    cone = chosen_limit(S.limits, dia)
    return cone.legs["l"], cone.legs["r"]


def check_sheaf(P: Presheaf, S: Site):
    """Unique amalgamation of every compatible family on every basis cover,
    compatibility taken over the chosen fiber products of cover legs.
    (ok, failing (object, cover)).  A presheaf on another category than
    the site's is refused before any set is read."""
    C = S.cat
    if P.cat != C:
        raise ValueError("presheaf %s is on %s, not on the site's %s"
                         % (P.name, P.cat.name, C.name))
    for c in sorted(S.basis):
        for fam in S.basis[c]:
            legs = list(fam)
            pullbacks = {}
            for i, f in enumerate(legs):
                for j, g in enumerate(legs):
                    pullbacks[(i, j)] = _pullback(S, f, g)
            choices = [P.sets[C.mor_src[f]] for f in legs]
            for combo in itertools.product(*choices):
                compatible = True
                for (i, j), (p1, p2) in pullbacks.items():
                    if P.maps[p1][combo[i]] != P.maps[p2][combo[j]]:
                        compatible = False
                        break
                if not compatible:
                    continue
                glue = [s for s in P.sets[c]
                        if all(P.maps[f][s] == combo[i]
                               for i, f in enumerate(legs))]
                if len(glue) != 1:
                    return False, (c, fam)
    return True, None
