"""Chosen finite limits and exactness checking.

Limits are chosen structure: a LimitAssignment records one terminal object,
one product cone per ordered object pair and one equalizer cone per ordered
parallel pair.  Arbitrary finite limits are derived from these by the
standard product-then-equalizers reduction.  One test, `is_limiting_cone`,
decides every universal property, for validation and for exactness alike:
by down-sets in a thin category, exhaustively in any other.  Its verdicts
are kept in the category's `_limiting` table, so each distinct limit is
decided once per category object, across validation and every exactness
check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .core import FinCat, Functor
from .errors import IncompleteAssignment


@dataclass
class Diagram:
    """A finite diagram in a category: shaped by named nodes and edges."""
    nodes: dict[str, str]  # node id -> object
    edges: dict[str, tuple[str, str, str]]  # edge id -> (src node, tgt node, morphism)


@dataclass
class Cone:
    apex: str
    legs: dict[str, str]  # node id -> morphism apex -> D(node)


def discrete_pair(a, b):
    return Diagram({"l": a, "r": b}, {})


def parallel_pair(C: FinCat, f, g):
    a, b = C.mor_src[f], C.mor_tgt[f]
    return Diagram({"l": a, "r": b}, {"f": ("l", "r", f), "g": ("l", "r", g)})


def empty_diagram():
    return Diagram({}, {})


def is_cone(C: FinCat, D: Diagram, cone: Cone) -> bool:
    for n, obj in D.nodes.items():
        leg = cone.legs.get(n)
        if leg is None or C.mor_src[leg] != cone.apex or C.mor_tgt[leg] != obj:
            return False
    for (i, j, f) in D.edges.values():
        if C.comp[(f, cone.legs[i])] != cone.legs[j]:
            return False
    return True


def enumerate_cones(C: FinCat, D: Diagram, apex: str):
    nodes = sorted(D.nodes)
    choices = [C.hom(apex, D.nodes[n]) for n in nodes]
    for combo in itertools.product(*choices):
        cone = Cone(apex, dict(zip(nodes, combo)))
        if all(C.comp[(f, cone.legs[i])] == cone.legs[j]
               for (i, j, f) in D.edges.values()):
            yield cone


def mediators(C: FinCat, limit: Cone, other: Cone):
    return [m for m in C.hom(other.apex, limit.apex)
            if all(C.comp[(limit.legs[n], m)] == other.legs[n]
                   for n in limit.legs)]


def is_limiting_cone(C: FinCat, D: Diagram, cone: Cone) -> bool:
    """Whether `cone` is a cone over D into which every competing cone has
    exactly one mediator.  In a thin C, where an object has at most one
    cone and one mediator, that is a down-set test: every object with a
    morphism to each node has one to the apex.  Other C are exhaustive."""
    if not is_cone(C, D, cone):
        return False
    if C._thin:
        return set(C.objects).intersection(
            *map(C.below, D.nodes.values())) <= C.below(cone.apex)
    for w in C.objects:
        for other in enumerate_cones(C, D, w):
            if len(mediators(C, cone, other)) != 1:
                return False
    return True


def _decided(C, key):
    """Whether the limit that `key` names is limiting in C: ("t", apex),
    ("p", a, b, p, p1, p2) or ("e", f, g, e, incl, f . incl).  Read from
    C's verdict table `_limiting`, or decided by `is_limiting_cone` and
    kept there."""
    known = C._limiting
    verdict = known.get(key)
    if verdict is None:
        kind, *names = key
        if kind == "t":
            D, cone = empty_diagram(), Cone(names[0], {})
        elif kind == "p":
            a, b, p, p1, p2 = names
            D, cone = discrete_pair(a, b), Cone(p, {"l": p1, "r": p2})
        else:
            f, g, e, incl, r = names
            D, cone = parallel_pair(C, f, g), Cone(e, {"l": incl, "r": r})
        verdict = known[key] = is_limiting_cone(C, D, cone)
    return verdict


@dataclass
class LimitAssignment:
    cat: FinCat
    terminal: str | None = None
    tmap: dict[str, str] = field(default_factory=dict)  # obj -> unique map to terminal
    products: dict[tuple[str, str], tuple[str, str, str]] = field(default_factory=dict)
    equalizers: dict[tuple[str, str], tuple[str, str]] = field(default_factory=dict)

    def is_complete(self) -> bool:
        C = self.cat
        if self.terminal is None:
            return False
        if any(o not in self.tmap for o in C.objects):
            return False
        for a in C.objects:
            for b in C.objects:
                if (a, b) not in self.products:
                    return False
        for f in C.morphisms():
            for g in C.hom(C.mor_src[f], C.mor_tgt[f]):
                if (f, g) not in self.equalizers:
                    return False
        return True


def _unknown(C: FinCat, objects=(), morphisms=()):
    """The first of `objects`, then of `morphisms`, that C lacks, or None."""
    for o in objects:
        if o not in C.objects:
            return o
    for m in morphisms:
        if m not in C.mor_src:
            return m
    return None


def validate_assignment(A: LimitAssignment) -> list[str]:
    """Each chosen cone must be made of objects and morphisms of the
    category, with matching endpoints, and satisfy its universal property.
    An entry that names something else is reported and checked no further.

    A complete assignment on a category with two parallel morphisms is
    refused by that one pair, with no cone checked: a finite category
    with all binary products is thin (hom(X, Y^k) has |hom(X, Y)|^k
    elements for every k), so such an assignment cannot be valid.  Every
    other chosen cone is decided by `is_limiting_cone` once per category
    object, kept in C's `_limiting` table under the key that names it."""
    C = A.cat
    if C._plural and A.is_complete():
        f, g = min(C._hom[k] for k in C._plural)[:2]
        return ["complete assignment on a non-thin category: %s and %s are "
                "parallel %s -> %s" % (f, g, C.mor_src[f], C.mor_tgt[f])]
    out = []
    if A.terminal is not None:
        if _unknown(C, [A.terminal]) is not None:
            out.append("chosen terminal %s is not an object" % A.terminal)
        elif not _decided(C, ("t", A.terminal)):
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
        elif not _decided(C, ("p", a, b, p, p1, p2)):
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
        elif not _decided(C, ("e", f, g, e, incl, C.comp[(f, incl)])):
            out.append("%s is not an equalizer" % what)
    return out


def chosen_limit(A: LimitAssignment, D: Diagram) -> Cone:
    """Limit of an arbitrary finite diagram from the chosen pieces.

    Fold the node objects through chosen binary products, then cut down by a
    chosen equalizer per edge.  Raises IncompleteAssignment when a required
    chosen cone is absent.
    """
    C = A.cat
    nodes = sorted(D.nodes)
    if not nodes:
        if A.terminal is None:
            raise IncompleteAssignment("no chosen terminal in %s" % C.name)
        return Cone(A.terminal, {})
    apex = D.nodes[nodes[0]]
    legs = {nodes[0]: C.identities[apex]}
    for n in nodes[1:]:
        key = (apex, D.nodes[n])
        if key not in A.products:
            raise IncompleteAssignment("no chosen product for %s in %s"
                                       % (key, C.name))
        p, p1, p2 = A.products[key]
        legs = {m: C.comp[(leg, p1)] for m, leg in legs.items()}
        legs[n] = p2
        apex = p
    for e in sorted(D.edges):
        i, j, f = D.edges[e]
        u = C.comp[(f, legs[i])]
        v = legs[j]
        if u == v:
            continue
        key = (u, v)
        if key not in A.equalizers:
            raise IncompleteAssignment("no chosen equalizer for %s in %s"
                                       % (key, C.name))
        eq, incl = A.equalizers[key]
        legs = {m: C.comp[(leg, incl)] for m, leg in legs.items()}
        apex = eq
    return Cone(apex, legs)


def check_exact(F: Functor, src_limits: LimitAssignment):
    """True iff F carries every chosen limiting cone of its source to a
    limiting cone in its target.  Returns (ok, counterexample diagram or
    None): the first failing source diagram, terminal first, then the
    products and the equalizers in sorted order.

    Each distinct image limit is decided once per target object, by
    `is_limiting_cone` on F.target, and kept in F.target's `_limiting`
    table, which `validate_assignment` and every other call share.  Its
    key names the image: ("t", F t), ("p", F a, F b, F p, F p1, F p2) or
    ("e", F f, F g, F e, F incl, F(f . incl)), the pair F f, F g taken
    between their endpoints in F.target.  A key kept as a pass is
    skipped; one kept as a failure fails again.  An equalizer of (f, f)
    by an isomorphism, as every equalizer of a thin source is, gets no
    key: an isomorphism equalizes (f, f), and F keeps isomorphisms.
    Limits of a category other than F's source are refused."""
    C, D = F.source, F.target
    if src_limits.cat != C:
        raise ValueError("limits of %s given for a functor from %s"
                         % (src_limits.cat.name, C.name))
    ob, mor, src, tgt = F.obj_map, F.mor_map, C.mor_src, C.mor_tgt
    t = src_limits.terminal
    if t is not None and not _decided(D, ("t", ob[t])):
        return False, empty_diagram()
    for (a, b), (p, p1, p2) in sorted(src_limits.products.items()):
        key = ("p", ob[a], ob[b], ob[p], mor[p1], mor[p2])
        if not _decided(D, key):
            return False, discrete_pair(a, b)
    for (f, g), (e, incl) in sorted(src_limits.equalizers.items()):
        if (f == g and (src.get(incl), tgt.get(incl)) == (e, src.get(f))
                and (incl == C.identities[e] or C.is_iso(incl))):
            continue
        key = ("e", mor[f], mor[g], ob[e], mor[incl], mor[C.comp[(f, incl)]])
        if not _decided(D, key):
            return False, parallel_pair(C, f, g)
    return True, None
