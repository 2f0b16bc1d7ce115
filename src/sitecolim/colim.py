"""The explicit 2-filtered pseudocolimit of a diagram of categories.

Objects of the colimit are pairs (A, x) with x an object of the fiber at A.
Morphisms are equivalence classes of spans (C, u, v, f): a pair of index
1-cells u : A -> C, v : B -> C and a fiber morphism f : (Fu)x -> (Fv)y.
Two spans are identified when a common refinement (D, w1, w2) with
invertible comparison 2-cells makes the transported fiber morphisms equal;
the classes are the transitive closure of that single-step relation.  The
index is finite and 2-filtered, so some object T receives a 1-cell from
every object: every span is one single step from its transport to apex T,
and the spans at T are joined along the transports and conjugations that
generate the relation (build_pseudocolimit gives the proof).  The spans
out of an object are found per index object along the morphisms leaving it.

A composite of spans is taken at a common refinement too.  Which
refinement two spans compose at depends on their index data alone, so
compose_spans searches it once per distinct key of that data.  If every
hom-set holds one class, L is thin, each composite is forced, and no
table is stored: L.comp reads it off the hom-sets.  The classes do not
depend on the order in which composing refinements are searched, so the
--seed check (recompose) runs this same pass over a build's classes with
the apexes in a shuffled order and compares the table it gets with the
build's; on a thin L there is nothing to compare, and the CLI skips it.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cache
from typing import NamedTuple

from .core import (Budget, FinCat, Functor, NatTrans, compose_functors,
                   enumerate_functors, enumerate_nat_trans, union_find)
from .cones import (Pseudocone, check_pseudocone, enumerate_modifications,
                    enumerate_pseudocones, postcompose_cone)
from .errors import (IllFormedCone, IncompleteAssignment, IncompleteDiagram,
                     NameCollision, NotFiltered, NotLiftable)
from .limits import (Cone, Diagram, LimitAssignment, chosen_limit,
                     empty_diagram)
from .twocat import TwoDiagram, check_2filtered


class Span(NamedTuple):
    src_idx: str
    src_obj: str
    tgt_idx: str
    tgt_obj: str
    apex: str
    left: str   # 1-cell src_idx -> apex
    right: str  # 1-cell tgt_idx -> apex
    mor: str    # (F left)(src_obj) -> (F right)(tgt_obj) in the apex fiber


def obj_name(A, x):
    return "%s.%s" % (A, x)


def identity_span(F: TwoDiagram, A, x):
    i = F.index.cells1.identities[A]
    return Span(A, x, A, x, A, i, i, F.fibers[A].identities[x])


def all_spans(A, x, B, rows):
    """y -> every span (C, u, v, f) from (A, x) to (B, y), in sorted order,
    each paired with the key (c.u, c.v, F(c)f) of its transport to T along
    c = c_C (build_pseudocolimit); a y with no span has no entry.  Given
    the build's sorted apex rows for (A, B): C, u, v, the morphisms out of
    each object of C's fiber with their targets (sorted), F(u) on objects,
    the objects y of B's fiber over each object under F(v) (sorted), c.u,
    c.v and F(c) on morphisms."""
    out = {}
    new = tuple.__new__
    for apex, u, v, outs, umap, vpre, cu, cv, cmor in rows:
        for f, t in outs.get(umap[x], ()):
            for y in vpre.get(t, ()):
                s = new(Span, (A, x, B, y, apex, u, v, f))
                out.setdefault(y, []).append((s, (cu, cv, cmor[f])))
    return out


def span_related(F: TwoDiagram, s: Span, t: Span) -> bool:
    """Single-step relation: a common refinement (D, w1, w2) with invertible
    comparison 2-cells alpha : w1.s.left => w2.t.left and
    beta : w1.s.right => w2.t.right transporting one fiber morphism onto
    the other.  The colimit's classes are the transitive closure of this
    relation; build_pseudocolimit reaches them along generating steps and
    does not call it."""
    index, C1 = F.index, F.index.cells1
    cells = index.invertible_cells_between
    return s[:4] == t[:4] and any(
        F.fibers[D].comp[(F.on2[beta].components[s.tgt_obj],
                          F.on1[w1].mor_map[s.mor])]
        == F.fibers[D].comp[(F.on1[w2].mor_map[t.mor],
                             F.on2[alpha].components[s.src_obj])]
        for D in sorted(index.objects())
        for w1 in C1.hom(s.apex, D) for w2 in C1.hom(t.apex, D)
        for alpha in cells(C1.comp[(w1, s.left)], C1.comp[(w2, t.left)])
        for beta in cells(C1.comp[(w1, s.right)], C1.comp[(w2, t.right)]))


class _ThinComp(Mapping):
    """A thin L's composition table, read off its hom blocks: comp[(g, f)]
    is the one class of the block (src f, tgt g) if tgt f = src g, and any
    other key is missing.  It iterates in compose_spans' order."""

    def __init__(self, blocks, leaving, mor_src, mor_tgt):
        self._blocks, self._leaving = blocks, leaving
        self._src, self._tgt = mor_src, mor_tgt
        self._len = sum(len(leaving.get(q, ())) for _, q in blocks)

    def __getitem__(self, key):
        try:
            g, f = key
            if self._src[g] == self._tgt[f]:
                return self._blocks[(self._src[f], self._tgt[g])][0][0]
        except (TypeError, ValueError, KeyError):
            pass
        raise KeyError(key)

    def __iter__(self):
        for (_, q), block1 in self._blocks.items():
            m1 = block1[0][0]
            for block2 in self._leaving.get(q, ()):
                yield block2[0][0], m1

    def __len__(self):
        return self._len


def _refinement_search(F: TwoDiagram, span_class, apex_order, bud: Budget):
    """fill(comp, block1, block2) sets comp[(m2, m1)] for every class m1 of
    a block (p, q) and m2 of a block (q, r), charging `bud` once per entry.
    It composes the least members s of m1 and t of m2 at the first common
    refinement (D, w1 : s.apex -> D, w2 : t.apex -> D) with an invertible
    alpha : w1.s.right => w2.t.left, searching D in `apex_order` (then
    1-cells and alpha in a fixed order).  The search depends on
    (s.apex, s.right, t.apex, t.left) alone, so it runs once per such key
    over all calls of one fill.  On the 2-filtered index the build admits,
    it never fails: F1 gives E after s.apex and t.apex, F2 some E -> D that
    merges the two composites by an invertible 2-cell (or they agree at E)."""
    C1 = F.index.cells1
    C1comp, hom = C1.comp, C1.hom
    cells = F.index.invertible_cells_between
    fibers, on1, on2 = F.fibers, F.on1, F.on2
    charge = bud.charge
    # (s.apex, s.right, t.apex, t.left) -> apex D, its fiber's table, the
    # maps along w1, w2 and alpha, and w1, w2
    at = {}

    def fill(comp, block1, block2):
        for m1, s in block1:
            A, x, _, y, s_apex, s_left, s_right, s_mor = s
            for m2, t in block2:
                charge()
                _, _, B, z, t_apex, t_left, t_right, t_mor = t
                key = (s_apex, s_right, t_apex, t_left)
                got = at.get(key)
                if got is None:
                    D, w1, w2, alpha = next(
                        (D, w1, w2, alpha) for D in apex_order
                        for w1 in hom(s_apex, D) for w2 in hom(t_apex, D)
                        for alpha in cells(C1comp[(w1, s_right)],
                                           C1comp[(w2, t_left)]))
                    got = at[key] = (
                        D, fibers[D].comp, on1[w1].mor_map,
                        on1[w2].mor_map, on2[alpha].components, w1, w2)
                D, fcomp, map1, map2, comps, w1, w2 = got
                mor = fcomp[(map2[t_mor], fcomp[(comps[y], map1[s_mor])])]
                # a plain tuple hashes and compares equal to the Span with
                # the same fields, so none is built for the lookup
                comp[(m2, m1)] = span_class[
                    (A, x, B, z, D, C1comp[(w1, s_left)],
                     C1comp[(w2, t_right)], mor)]

    return fill


def compose_spans(F: TwoDiagram, class_members, span_class, mor_src,
                  mor_tgt, apex_order, bud: Budget):
    """The composition table of the colimit: comp[(m2, m1)] for every
    composable pair of classes, in the order (p, q), r, m1, m2 of its hom
    blocks, and charges `bud` once per entry.  If every block holds one
    class, the table is a _ThinComp over the blocks, charged in one call
    that ends at the count, or overruns at the entry, of one call per
    entry.  Otherwise every entry, one-class blocks included, composes the
    least members of its classes at the first common refinement in
    `apex_order` (_refinement_search), searched once per distinct
    (s.apex, s.right, t.apex, t.left) in a call.  The composite's class
    does not depend on the members chosen or on the order:
    tests/test_span_layer.py composes every member pair of every composable
    class pair and checks each lands in the class L.comp records, and
    recompose runs this pass again in a shuffled apex order."""
    # (p, q) -> [(class, least member)] and p -> [block (p, q) for each q]
    blocks = {}
    for name, members in class_members.items():
        blocks.setdefault((mor_src[name], mor_tgt[name]), []).append(
            (name, members[0]))
    leaving = {}
    for (p, _), block in blocks.items():
        leaving.setdefault(p, []).append(block)
    if all(len(block) == 1 for block in blocks.values()):
        comp = _ThinComp(blocks, leaving, mor_src, mor_tgt)
        bud.charge(min(len(comp), bud.limit - bud.used + 1))
        return comp
    fill = _refinement_search(F, span_class, apex_order, bud)
    comp = {}
    for (_, q), block1 in blocks.items():
        for block2 in leaving.get(q, ()):
            fill(comp, block1, block2)
    return comp


@dataclass
class PseudocolimitResult:
    diagram: TwoDiagram
    category: FinCat  # the colimit category L
    cone: Pseudocone  # lambda, vertex L
    class_members: dict[str, tuple[Span, ...]]  # morphism name -> its class
    span_class: dict[Span, str]  # span -> morphism name
    obj_info: dict[str, tuple[str, str]]  # L object -> (index object, fiber object)


def build_pseudocolimit(F: TwoDiagram,
                        budget: Budget | None = None) -> PseudocolimitResult:
    """Materialize the colimit category and its cone; composites are
    searched for in sorted apex order.  A cell with no image raises
    IncompleteDiagram, as a parsed block with a violation has none.

    The spans between two objects are quotiented at one apex T, with the
    same classes as comparing every pair of spans by span_related:

    - Two single steps.  Transporting a span s = (C, u, v, f) along a
      1-cell w : C -> D gives w_*s = (D, wu, wv, (Fw)f), one single step by
      the refinement (D, w, id_D) with identity 2-cells (F is strict).
      Conjugating at one apex by invertible alpha : u => u' and
      beta : v => v' is one single step by the refinement (C, id, id,
      alpha, beta).
    - Same equivalence.  A single step (D, w1, w2, alpha, beta) from s to t
      is the w1-transport of s, a conjugation at D, and the inverse of the
      w2-transport of t; so single steps and these two generate the same
      equivalence.
    - A weakly terminal apex.  The index is finite and 2-filtered, so T,
      the first object in sorted order that receives a 1-cell from every
      object, exists; c_C is the first 1-cell C -> T, except that c_T acts
      as the identity.  T(s), the transport of s along c_C, is one single
      step from s.
    - Generating steps between T-spans.  A T-span s = (T, u, v, f) is
      joined to its transport (T, eu, ev, (Fe)f) along each non-identity
      e : T -> T, and to its one-sided conjugates (T, u', v, f.F(a)_x^-1)
      and (T, u, v', F(b)_y.f) by each non-identity invertible
      a : u => u' and b : v => v'; a two-sided conjugation is one of each.
      These steps are enough: a conjugation by alpha, beta at C maps to
      the conjugation of T(s) at T by c_C.alpha, c_C.beta.  For a
      transport s -> w_*s with w : C -> D, F2 merges c_C and c_D.w by an
      invertible gamma after some w'' : T -> E; with e = c_E.w'' in
      End(T), naturality of F(gamma) at f makes e_*T(s) and e_*T(w_*s)
      conjugate at T by c_E.gamma.u, c_E.gamma.v, so
      T(s) ~ e_*T(s) ~ e_*T(w_*s) ~ T(w_*s).  Every invertible 2-cell is
      its own step, so no choice among comparison 2-cells enters.

    So every span joins the class of T(s), and the T-spans are joined
    along their generating steps only.  The all-pairs quotient is kept as
    the reference in tests/oracle_kernel.py.

    all_spans runs once per object (A, x) of L and index object B, along
    the apex rows of (A, B): each row walks the morphisms leaving (Fu)x in
    the apex fiber and reads off the y with (Fv)y at their targets, through
    out-lists and preimage maps made once per build, and carries the apex's
    transport to T, so each span comes with the key of T(s).  A pair of
    objects with no spans stops after its charge.  The union-find over the
    T-spans of a pair runs only when the index has a generating step (a
    non-identity endomorphism of T, or a non-identity invertible 2-cell
    between 1-cells into T); without one, no two T-spans are joined, and a
    span's class is that of T(s) alone.  No chain or poset index has a
    generating step.  Budget: len(spans) + 1 per object pair, 1 per
    transported span, and 1 per generating step out of each T-span:
    |End(T)| - 1 transports, and one conjugate per non-identity invertible
    2-cell out of either leg.  Then 1 per composite (compose_spans)."""
    ok, datum = check_2filtered(F.index)
    if not ok:
        raise NotFiltered("index fails %s at %r" % (datum[0], datum[1:]))
    for u in F.index.one_cells():
        if u not in F.on1:
            raise IncompleteDiagram("no functor at %s" % u)
    for g in F.index.two_cells():
        if g not in F.on2:
            raise IncompleteDiagram("no transformation at %s" % g)
    bud = budget if budget is not None else Budget()
    index_objs = sorted(F.index.objects())
    obj_info = {}  # in L's object order
    # index object A -> (x, name of (A, x)) for x in A's fiber, sorted
    members = {A: [(x, obj_name(A, x)) for x in sorted(F.fibers[A].objects)]
               for A in index_objs}
    for A in index_objs:
        for x, p in members[A]:
            if p in obj_info:
                raise NameCollision("colimit object %s names both (%s, %s) "
                                    "and (%s, %s)" % (p, *obj_info[p], A, x))
            obj_info[p] = (A, x)

    C1 = F.index.cells1
    T = next(T for T in index_objs
             if all(C1.hom(A, T) for A in F.index.objects()))
    fT = F.fibers[T]
    # c_C, the first 1-cell C -> T (c_T = id_T), and F(c_C) on morphisms
    c = {C: C1.hom(C, T)[0] for C in index_objs}
    c[T] = C1.identities[T]
    cmor = {C: F.on1[c[C]].mor_map for C in index_objs}
    # C -> fiber object -> [(f, tgt f)] for the f leaving it, sorted
    outs = {}
    for C in index_objs:
        fib, out = F.fibers[C], outs.setdefault(C, {})
        for f in fib.morphisms():
            out.setdefault(fib.mor_src[f], []).append((f, fib.mor_tgt[f]))
    # 1-cell v : B -> C -> object of C's fiber -> its preimages y, sorted
    pre = {}
    for v in F.index.one_cells():
        vmap = pre[v] = {}
        for y, _ in members[C1.mor_src[v]]:
            vmap.setdefault(F.on1[v].obj_map[y], []).append(y)
    # (A, B) -> a row per (C, u : A -> C, v : B -> C), sorted (all_spans)
    rows = {(A, B): [(C, u, v, outs[C], F.on1[u].obj_map, pre[v],
                      C1.comp[(c[C], u)], C1.comp[(c[C], v)], cmor[C])
                     for C in index_objs
                     for u in C1.hom(A, C) for v in C1.hom(B, C)]
            for A in index_objs for B in index_objs}
    loops = [e for e in C1.hom(T, T) if e != C1.identities[T]]
    # 1-cell w into T -> (a, w') for each non-identity invertible a : w => w'
    conjugates = {w: [(a, w2) for w2 in C1.hom(A, T)
                      for a in F.index.invertible_cells_between(w, w2)
                      if a != F.index.two_id[w]]
                  for A in F.index.objects() for w in C1.hom(A, T)}
    steps = bool(loops) or any(conjugates.values())

    # quotient the spans between each object pair at apex T; within a pair
    # a T-span (T, u, v, f) is keyed by (u, v, f)
    span_class = {}
    class_members = {}
    mor_src = {}
    mor_tgt = {}
    for p, (A, x) in obj_info.items():
        for B in index_objs:
            by_y = all_spans(A, x, B, rows[(A, B)])
            for y, q in members[B]:
                spans = by_y.get(y, ())
                bud.charge(len(spans) + 1)
                if not spans:
                    continue
                at_T = [key for s, key in spans if s[4] == T]
                bud.charge(len(spans) - len(at_T))
                if steps:
                    find, union = union_find(at_T)
                    for key in at_T:
                        u, v, f = key
                        for e in loops:
                            bud.charge()
                            union(key, (C1.comp[(e, u)], C1.comp[(e, v)],
                                        F.on1[e].mor_map[f]))
                        for a, u2 in conjugates[u]:
                            bud.charge()
                            union(key, (u2, v, fT.comp[
                                (f, fT.inverse(F.on2[a].components[x]))]))
                        for b, v2 in conjugates[v]:
                            bud.charge()
                            union(key, (u, v2,
                                        fT.comp[(F.on2[b].components[y], f)]))
                # spans come sorted, so naming classes on their first member
                # orders them by least member, each with its members sorted
                named = {}  # class root -> class name
                for s, key in spans:
                    root = find(key) if steps else key
                    name = named.get(root)
                    if name is None:
                        name = named[root] = "%s>%s#%d" % (p, q, len(named))
                        if name in class_members:
                            raise NameCollision(
                                "colimit morphism %s names a class %s -> %s "
                                "and one %s -> %s" % (name, mor_src[name],
                                                      mor_tgt[name], p, q))
                        class_members[name] = []
                        mor_src[name] = p
                        mor_tgt[name] = q
                    class_members[name].append(s)
                    span_class[s] = name
    class_members = {n: tuple(ms) for n, ms in class_members.items()}
    identities = {}
    for p, (A, x) in obj_info.items():
        identities[p] = span_class[identity_span(F, A, x)]

    comp = compose_spans(F, class_members, span_class, mor_src, mor_tgt,
                         index_objs, bud)

    L = FinCat("colim_%s" % F.name, tuple(obj_info), mor_src, mor_tgt,
               identities, comp)

    legs = {}
    for A in F.index.objects():
        fib = F.fibers[A]
        legs[A] = Functor(
            "lam_%s" % A, fib, L,
            {x: obj_name(A, x) for x in fib.objects},
            {f: span_class[Span(A, fib.mor_src[f], A, fib.mor_tgt[f], A,
                                C1.identities[A], C1.identities[A], f)]
             for f in fib.morphisms()})
    coherence = {}
    for u in F.index.one_cells():
        a, b = C1.mor_src[u], C1.mor_tgt[u]
        comps = {}
        for x in F.fibers[a].objects:
            fx = F.on1[u].obj_map[x]
            comps[x] = span_class[Span(a, x, b, fx, b, u, C1.identities[b],
                                       F.fibers[b].identities[fx])]
        coherence[u] = NatTrans("lam_%s" % u, legs[a],
                                compose_functors(legs[b], F.on1[u]), comps)
    lam = Pseudocone("lambda_%s" % F.name, F, L, legs, coherence)
    return PseudocolimitResult(F, L, lam, class_members, span_class, obj_info)


def recompose(R: PseudocolimitResult, apex_seed, budget: Budget):
    """R's composition table made again by compose_spans over R's classes,
    with the apexes searched in an order shuffled by `apex_seed`; equal to
    R.category.comp when composition is well defined on classes.  The
    quotient does not read the apex order, so it is not recomputed.  A
    thin L's table is forced by its classes, so only an L with a hom-set
    of two or more classes has anything to check."""
    apex_order = sorted(R.diagram.index.objects())
    random.Random(apex_seed).shuffle(apex_order)
    L = R.category
    return compose_spans(R.diagram, R.class_members, R.span_class, L.mor_src,
                         L.mor_tgt, apex_order, budget)


# ---------------------------------------------------------------------------
# strict factorization


def factor_cone(R: PseudocolimitResult, h: Pseudocone) -> Functor:
    """The unique functor l : L -> X with l . lambda = h on the nose."""
    ok, why = check_pseudocone(h)
    if not ok:
        raise IllFormedCone(why)
    F = R.diagram
    X = h.vertex
    obj_map = {p: h.legs[A].obj_map[x] for p, (A, x) in R.obj_info.items()}
    mor_map = {}
    for name, members in R.class_members.items():
        s = members[0]
        hu = h.coherence[s.left].components[s.src_obj]
        hv = h.coherence[s.right].components[s.tgt_obj]
        mid = h.legs[s.apex].mor_map[s.mor]
        mor_map[name] = X.compose_path(X.inverse(hv), mid, hu)
    return Functor("fact_%s" % h.name, R.category, X, obj_map, mor_map)


# ---------------------------------------------------------------------------
# the universal-property verifier


@dataclass
class BicolimReport:
    vertex: str
    functor_objects: int
    cone_objects: int
    functor_morphisms: int
    cone_morphisms: int
    objects_bijective: bool
    morphisms_bijective: bool
    strict_triangle: bool  # factor_cone is a section of postcomposition
    # set given `continuous`: every cone's factorization passes that test
    factored_functors_continuous: bool | None = None

    @property
    def isomorphism(self):
        return self.objects_bijective and self.morphisms_bijective \
            and self.strict_triangle


def verify_bicolimit(R: PseudocolimitResult, X: FinCat,
                     budget: Budget | None = None, funcs=None,
                     cones=None, continuous=None) -> BicolimReport:
    """Check that postcomposition with lambda is an isomorphism of
    categories Functors(L, X) -> Pseudocones(F, X), by enumeration.  Each
    hom-set of pseudocones is enumerated once per call, and kept under the
    positions of its two cone keys: each distinct key gets one position,
    images first, and a cone with that key, built (postcompose_cone) only
    for an image that no cone equals.  A transformation xi maps to the
    modification {A: {x: xi[lambda_A(x)]}}.

    Given `funcs` and `cones`, the check runs between those full
    subcategories instead (see verify_site_pseudocolimit); given
    `continuous`, it also tests each cone's factorization with it."""
    bud = budget if budget is not None else Budget()
    if funcs is None:
        funcs = list(enumerate_functors(R.category, X, bud))
    if cones is None:
        cones = enumerate_pseudocones(R.diagram, X, bud)
    # postcompose_cone(R.cone, t).key(), read off lambda's tables
    legs = [(A, sorted(leg.obj_map.items()), sorted(leg.mor_map.items()))
            for A, leg in sorted(R.cone.legs.items())]
    cells = [(u, sorted(n.components.items()))
             for u, n in sorted(R.cone.coherence.items())]

    def image_key(t):
        ob, mor = t.obj_map, t.mor_map
        return (tuple((A, (tuple([(x, ob[o]) for x, o in objs]),
                           tuple([(m, mor[n]) for m, n in mors])))
                      for A, objs, mors in legs),
                tuple((u, tuple([(x, mor[m]) for x, m in comps]))
                      for u, comps in cells))

    image_keys = [image_key(t) for t in funcs]
    cone_keys = [c.key() for c in cones]
    # equal keys mean equal legs and cells, so any cone or functor will do
    cone_of = dict(zip(cone_keys, cones))
    image_of = dict(zip(image_keys, funcs))
    position = {k: i for i, k in enumerate(dict.fromkeys(image_keys
                                                         + cone_keys))}
    distinct = [cone_of.get(k) or postcompose_cone(R.cone, image_of[k])
                for k in position]
    image_pos = [position[k] for k in image_keys]
    cone_pos = [position[k] for k in cone_keys]
    objects_bijective = (len(set(image_pos)) == len(funcs)
                         and sorted(image_pos) == sorted(cone_pos))
    # factor_cone(R, t . lambda) = t . factor_cone(R, lambda) table for
    # table, as t preserves composites and inverses: factor lambda once
    phi = factor_cone(R, R.cone) if funcs else None
    strict_triangle = all(compose_functors(t, phi) == t for t in funcs)

    @cache  # (source position, target position) -> sorted modification keys
    def mod_keys(a, b):
        return sorted(m.key() for m in enumerate_modifications(
            distinct[a], distinct[b], bud))

    # postcompose_cell(R.cone, xi).key(), read off the leg tables
    f_mor = 0
    morphisms_bijective = True
    for s, ps in zip(funcs, image_pos):
        for t, pt in zip(funcs, image_pos):
            nats = enumerate_nat_trans(s, t, bud)
            f_mor += len(nats)
            mapped = [tuple((A, tuple((x, xi.components[o]) for x, o in objs))
                            for A, objs, _ in legs) for xi in nats]
            if (len(set(mapped)) != len(nats)
                    or sorted(mapped) != mod_keys(ps, pt)):
                morphisms_bijective = False
    c_mor = sum(len(mod_keys(a, b)) for a in cone_pos for b in cone_pos)
    # a cone equal to t . lambda factors as t . phi, as above
    factored = None if continuous is None else all(
        continuous(compose_functors(image_of[k], phi) if k in image_of
                   else factor_cone(R, c)) for c, k in zip(cones, cone_keys))
    return BicolimReport(X.name, len(funcs), len(cones), f_mor, c_mor,
                         objects_bijective, morphisms_bijective,
                         strict_triangle, factored)


# ---------------------------------------------------------------------------
# finite limits in the colimit


def lift_diagram(R: PseudocolimitResult, D: Diagram):
    """Find a fiber A, 1-cells u_i into A, and a diagram in that fiber whose
    image under the canonical re-indexing isos is D.  Returns
    (A, {node: (u, fiber object)}, fiber diagram)."""
    F = R.diagram
    C1 = F.index.cells1
    nodes = sorted(D.nodes)
    for A in sorted(F.index.objects()):
        choices = [C1.hom(R.obj_info[D.nodes[n]][0], A) for n in nodes]
        for combo in itertools.product(*choices):
            pick = dict(zip(nodes, combo))
            edges = {}
            for e, (i, j, m) in D.edges.items():
                lifted = next((s.mor for s in R.class_members[m]
                               if s.apex == A and s.left == pick[i]
                               and s.right == pick[j]), None)
                if lifted is None:
                    break
                edges[e] = (i, j, lifted)
            else:
                return A, pick, Diagram(
                    {n: F.on1[pick[n]].obj_map[R.obj_info[D.nodes[n]][1]]
                     for n in nodes}, edges)
    raise NotLiftable("diagram does not lift to a single fiber")


def reindex_iso(R: PseudocolimitResult, A, u, p):
    """The canonical iso (A, (Fu)y) -> (B, y) in L, for u : B -> A and
    p = (B, y)."""
    F = R.diagram
    B, y = R.obj_info[p]
    fy = F.on1[u].obj_map[y]
    s = Span(A, fy, B, y, A, F.index.cells1.identities[A], u,
             F.fibers[A].identities[fy])
    return R.span_class[s]


def colim_finite_limit(R: PseudocolimitResult, D: Diagram,
                       fiber_limits: dict[str, LimitAssignment]) -> Cone:
    """Limit of a finite diagram in L: lift to one fiber, take the chosen
    limit there, push forward along the cone leg."""
    L = R.category
    if not D.nodes:
        # search for a fiber terminal that is terminal in L
        for A in sorted(R.diagram.index.objects()):
            lim = fiber_limits.get(A)
            if lim is None or lim.terminal is None:
                raise IncompleteAssignment("fiber %s lacks a terminal" % A)
            t = obj_name(A, lim.terminal)
            if all(len(L.hom(o, t)) == 1 for o in L.objects):
                return Cone(t, {})
        raise NotLiftable("no fiber terminal is terminal in the colimit")
    A, pick, lifted = lift_diagram(R, D)
    if A not in fiber_limits:
        raise IncompleteAssignment("fiber %s has no limit assignment" % A)
    cone = chosen_limit(fiber_limits[A], lifted)
    lam_A = R.cone.legs[A]
    legs = {}
    for n in sorted(D.nodes):
        pushed = lam_A.mor_map[cone.legs[n]]
        legs[n] = L.comp[(reindex_iso(R, A, pick[n], D.nodes[n]), pushed)]
    return Cone(lam_A.obj_map[cone.apex], legs)


def colim_limit_assignment(R: PseudocolimitResult,
                           fiber_limits: dict[str, LimitAssignment]
                           ) -> LimitAssignment:
    """A complete chosen-limit structure on the colimit category.  The
    terminal comes from colim_finite_limit, which checks that each hom(o, t)
    has one element; the products are read straight off the fibers, to the
    same cones.  With all binary products a finite L is thin, as hom(X, Y^k)
    has |hom(X, Y)|^k elements, so a non-thin L, from unvalidated fibers,
    raises IncompleteAssignment before any product is read, and each
    equalizer is (f, f) -> (src f, id).

    For a = (B, y) and b = (B', y'), the pair lifts as in lift_diagram:
    to the first apex A in sorted order with 1-cells from both B and B'
    (R's build refused an index where their up-sets do not meet, by F1),
    along the first u : B -> A and u' : B' -> A.  That lift depends on
    (B, B') alone, so F(u) and F(u') on objects, A's chosen products and
    lambda_A on objects are read once per pair of index objects in a call,
    and b runs over L's objects grouped by index object, in L's order.
    The product of a and b is A's chosen product of (Fu)y and (Fu')y',
    pushed along lambda_A to an object P of L; as L is thin, each leg is
    the one morphism of its hom-set, L(P, a) or L(P, b)."""
    L = R.category
    F = R.diagram
    term = colim_finite_limit(R, empty_diagram(), fiber_limits)
    if L._plural:
        pair = min(L._hom[k] for k in L._plural)[:2]
        raise IncompleteAssignment("the colimit is not thin: %s and %s "
                                   "are parallel" % pair)
    hom = L._hom
    tmap = {o: hom[(o, term.apex)][0] for o in L.objects}
    groups = {}  # index object B' -> [(b, y')] for b = (B', y'), L's order
    for b, (B2, y2) in R.obj_info.items():
        groups.setdefault(B2, []).append((b, y2))
    # (B, B') -> F(u), F(u') and lambda_A on objects and A's assignment
    lifts = {}
    products = {}
    cells, apexes = F.index.cells1.hom, sorted(F.index.objects())
    for a in L.objects:
        B, y = R.obj_info[a]
        for B2, group in groups.items():
            lift = lifts.get((B, B2))
            if lift is None:
                A = next(A for A in apexes if cells(B, A) and cells(B2, A))
                if A not in fiber_limits:
                    raise IncompleteAssignment(
                        "fiber %s has no limit assignment" % A)
                lift = lifts[B, B2] = (
                    F.on1[cells(B, A)[0]].obj_map,
                    F.on1[cells(B2, A)[0]].obj_map,
                    fiber_limits[A], R.cone.legs[A].obj_map)
            umap, u2map, lim, lam = lift
            fy = umap[y]
            for b, y2 in group:
                key = (fy, u2map[y2])
                if key not in lim.products:
                    raise IncompleteAssignment("no chosen product for %s in %s"
                                               % (key, lim.cat.name))
                p = lam[lim.products[key][0]]
                products[(a, b)] = (p, hom[(p, a)][0], hom[(p, b)][0])
    equalizers = {(f, f): (L.mor_src[f], L.identities[L.mor_src[f]])
                  for f in L.morphisms()}
    return LimitAssignment(L, term.apex, tmap, products, equalizers)
