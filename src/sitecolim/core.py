"""Finite categories given by explicit composition tables.

Everything downstream is enumerative, so categories are stored fully
materialized: every hom-set is listed and composition is a total table on
composable pairs.  The table is a mapping; a thin colimit's reads each
composite off its hom-sets rather than storing it (colim.compose_spans).
Morphism identifiers are opaque strings, unique within their category;
equality is identifier equality.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from operator import attrgetter

from .errors import BudgetExceeded, IllTypedRelation, SaturationExceeded

DEFAULT_BUDGET = 10**6


class Budget:
    """Counts candidate assignments; raises instead of silently truncating."""

    def __init__(self, limit=DEFAULT_BUDGET):
        self.limit = limit
        self.used = 0

    def charge(self, n=1):
        self.used += n
        if self.used > self.limit:
            raise BudgetExceeded(
                "enumeration used %d candidates (budget %d)" % (self.used, self.limit)
            )


@dataclass
class FinCat:
    name: str
    objects: tuple[str, ...]
    mor_src: dict[str, str]
    mor_tgt: dict[str, str]
    identities: dict[str, str]
    comp: Mapping[tuple[str, str], str]
    # tables derived from the six above: the first three are set by
    # __post_init__, the next three on first use; _limiting, made with the
    # category, keeps each limit verdict, decided once per category object
    _hom: dict = field(init=False, repr=False, compare=False)
    _plural: set = field(init=False, repr=False, compare=False)
    _thin: bool = field(init=False, repr=False, compare=False)
    _inv: dict = field(init=False, default=None, repr=False, compare=False)
    _squares: list = field(init=False, default=None, repr=False, compare=False)
    _below: dict = field(init=False, default=None, repr=False, compare=False)
    _limiting: dict = field(init=False, default_factory=dict, repr=False,
                            compare=False)

    def __post_init__(self):
        self.objects = tuple(self.objects)
        hom = {}
        for m in sorted(self.mor_src):
            hom.setdefault((self.mor_src[m], self.mor_tgt[m]), []).append(m)
        self._hom = {k: tuple(v) for k, v in hom.items()}
        # the hom-sets where two parallel morphisms can differ
        self._plural = {k for k, v in hom.items() if len(v) > 1}
        self._thin = not self._plural

    def morphisms(self):
        return sorted(self.mor_src)

    def hom(self, a, b):
        return self._hom.get((a, b), ())

    def compose(self, g, f):
        """g after f."""
        return self.comp[(g, f)]

    def compose_path(self, *ms):
        """compose_path(h, g, f) = h . g . f"""
        out = ms[-1]
        for m in reversed(ms[:-1]):
            out = self.compose(m, out)
        return out

    def is_identity(self, m):
        return self.identities.get(self.mor_src[m]) == m

    def inverse(self, m):
        """Inverse morphism, or None.  Computed once per category."""
        if self._inv is None:
            inv = {}
            for f in self.morphisms():
                a, b = self.mor_src[f], self.mor_tgt[f]
                for g in self.hom(b, a):
                    if (self.comp.get((g, f)) == self.identities[a]
                            and self.comp.get((f, g)) == self.identities[b]):
                        inv[f] = g
                        break
            self._inv = inv
        return self._inv.get(m)

    def below(self, x):
        """The objects with a morphism into x; empty when x is not an
        object.  Computed once per category."""
        if self._below is None:
            below = {o: set() for o in self.objects}
            for a, b in self._hom:
                below[b].add(a)
            self._below = {o: frozenset(s) for o, s in below.items()}
        return self._below.get(x, frozenset())

    def __eq__(self, other):
        """The same object (tested first: the common case), or else the
        same six defining tables."""
        return self is other or (isinstance(other, FinCat)
                                 and _tables(self) == _tables(other))

    def is_iso(self, m):
        return self.inverse(m) is not None


_tables = attrgetter("name", "objects", "mor_src", "mor_tgt", "identities",
                     "comp")


def validate_category(C: FinCat) -> list[str]:
    """Every violated constraint, as a human-readable line.  Empty iff C is
    a category.  The laws are tested only where a hom-set has two or more
    elements: once the tables are sound, both sides are parallel."""
    out = []
    seen = set()
    for o in C.objects:
        if o in seen:
            out.append("duplicate object %s" % o)
        seen.add(o)
    mors = C.morphisms()
    for m in mors:
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
    for o in C.identities:
        if o not in seen:
            out.append("identity at %s, which is not an object" % o)
    for g, f in C.comp:
        if g not in C.mor_src or f not in C.mor_src:
            out.append("composite %s . %s names an unknown morphism"
                       % (g, f))
    if out:
        return out
    out_of = {}  # object -> the morphisms leaving it, in `mors` order
    for m in mors:
        out_of.setdefault(C.mor_src[m], []).append(m)
    stray_after = {}  # f -> every g with an entry g . f that does not compose
    for g, f in C.comp:
        if C.mor_tgt[f] != C.mor_src[g]:
            stray_after.setdefault(f, set()).add(g)
    for f in mors:
        # only a composable pair or a pair with an entry can be at fault
        after = out_of.get(C.mor_tgt[f], ())
        for g in (sorted(stray_after[f].union(after)) if f in stray_after
                  else after):
            composable = C.mor_tgt[f] == C.mor_src[g]
            h = C.comp.get((g, f))
            if composable and h is None:
                out.append("missing composite %s . %s" % (g, f))
            elif not composable and h is not None:
                out.append("spurious composite %s . %s" % (g, f))
            elif h not in C.mor_src:
                out.append("composite %s . %s = %s is not a morphism" % (g, f, h))
            elif (C.mor_src[h] != C.mor_src[f]
                  or C.mor_tgt[h] != C.mor_tgt[g]):
                out.append("composite %s . %s = %s has wrong endpoints" % (g, f, h))
    if out:
        return out
    for f in sorted(f for ends in C._plural for f in C._hom[ends]):
        i_s = C.identities[C.mor_src[f]]
        i_t = C.identities[C.mor_tgt[f]]
        if C.comp[(f, i_s)] != f:
            out.append("identity law fails: %s . %s != %s" % (f, i_s, f))
        if C.comp[(i_t, f)] != f:
            out.append("identity law fails: %s . %s != %s" % (i_t, f, f))
    starts = {a for a, _ in C._plural}
    for f in (f for f in mors if C.mor_src[f] in starts):
        for g in out_of.get(C.mor_tgt[f], ()):
            for h in out_of.get(C.mor_tgt[g], ()):
                if ((C.mor_src[f], C.mor_tgt[h]) in C._plural
                        and C.comp[(h, C.comp[(g, f)])]
                        != C.comp[(C.comp[(h, g)], f)]):
                    out.append(
                        "associativity fails on (%s, %s, %s)" % (h, g, f))
    return out


def once_per_object():
    """A memo once(fn, *args): fn(*args), computed once per fn and tuple
    of argument objects, compared by identity.  Each result is stored with
    its arguments, so no id is reused while the memo is alive."""
    memo = {}

    def once(fn, *args):
        key = (fn, *map(id, args))
        if key not in memo:
            memo[key] = args, fn(*args)
        return memo[key][1]

    return once


def number_by_identity(table):
    """Each key of the mapping `table` -> the number of its value: values
    compared by identity are numbered 0, 1, ... as they first appear.
    The numbers hold while `table` keeps its values alive."""
    first = {}  # id of a value -> its number
    return {k: first.setdefault(id(v), len(first)) for k, v in table.items()}


def union_find(items):
    """(find, union) on classes of `items`, each one a singleton at first.
    union(a, b) hangs the class of a under that of b and says whether the
    two were apart."""
    parent = {x: x for x in items}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[ra] = rb
        return True

    return find, union


# ---------------------------------------------------------------------------
# categories from presentations


@dataclass
class Presentation:
    objects: tuple[str, ...]
    generators: tuple[tuple[str, str, str], ...]  # (name, src, tgt)
    # each side is a path of generator names in diagrammatic order (applied
    # left to right); an empty path denotes the identity at the shared endpoint
    relations: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...] = ()


def _paths_up_to(pres: Presentation, bound: int):
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


def _check_relations(pres: Presentation):
    """Raise IllTypedRelation unless each side of every relation is a path
    of generators and both sides run between the same two objects; an empty
    side is the identity at the other side's source."""
    ends_of = {g: (s, t) for g, s, t in pres.generators}
    for lhs, rhs in pres.relations:
        text = "relation %s = %s" % tuple(".".join(p) or "()"
                                          for p in (lhs, rhs))
        ends = []
        for side in (lhs, rhs):
            if any(g not in ends_of for g in side) or any(
                    ends_of[g][1] != ends_of[h][0]
                    for g, h in zip(side, side[1:])):
                raise IllTypedRelation("%s: %s is not a path of generators"
                                       % (text, ".".join(side)))
            ends.append((ends_of[side[0]][0], ends_of[side[-1]][1])
                        if side else None)
        left, right = ends
        if left is None and right is None:
            continue
        left = left or (right[0], right[0])
        right = right or (left[0], left[0])
        if left != right:
            raise IllTypedRelation("%s: sides are not parallel (%s -> %s, "
                                   "%s -> %s)" % ((text,) + left + right))


def build_category(pres: Presentation, bound: int, name="presented") -> FinCat:
    """Saturate paths up to length `bound` modulo the relations.

    Congruence classes are computed over paths of length <= 2*bound so that
    composites of two bounded normal forms stay inside the search space.
    Raises SaturationExceeded when a composite falls into a class whose
    shortest representative is longer than `bound`.

    Each path is joined to each of its one-step lhs -> rhs rewrites that is
    itself a path in the space.  These pairs depend on the paths alone, so
    one pass finds them all; an rhs -> lhs rewrite joins the same pair read
    backwards.  Raises IllTypedRelation, naming the relation, when a
    relation's sides are not parallel paths.
    """
    _check_relations(pres)
    paths, tgt_of = _paths_up_to(pres, 2 * bound)
    index = {p: i for i, p in enumerate(paths)}
    find, union = union_find(range(len(paths)))
    for i, (src, names) in enumerate(paths):
        for lhs, rhs in pres.relations:
            n = len(lhs)
            for k in range(len(names) - n + 1):
                if names[k:k + n] == lhs:
                    j = index.get((src, names[:k] + rhs + names[k + n:]))
                    if j is not None:
                        union(i, j)

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


# ---------------------------------------------------------------------------
# functors and natural transformations


@dataclass
class Functor:
    name: str = field(compare=False)
    source: FinCat
    target: FinCat
    obj_map: dict[str, str]
    mor_map: dict[str, str]

    def key(self):
        return (tuple(sorted(self.obj_map.items())),
                tuple(sorted(self.mor_map.items())))


def identity_functor(C: FinCat) -> Functor:
    return Functor("id_%s" % C.name, C, C,
                   {o: o for o in C.objects},
                   {m: m for m in C.morphisms()})


def compose_functors(G: Functor, F: Functor) -> Functor:
    """G after F."""
    assert F.target == G.source
    return Functor("%s.%s" % (G.name, F.name), F.source, G.target,
                   {o: G.obj_map[F.obj_map[o]] for o in F.source.objects},
                   {m: G.mor_map[F.mor_map[m]] for m in F.source.morphisms()})


def validate_functor(F: Functor) -> list[str]:
    C, D = F.source, F.target
    out = ["maps object %s, which %s lacks" % (o, C.name)
           for o in F.obj_map if o not in C.objects]
    out += ["maps morphism %s, which %s lacks" % (m, C.name)
            for m in F.mor_map if m not in C.mor_src]
    for o in C.objects:
        if F.obj_map.get(o) not in D.objects:
            out.append("object %s not mapped into target" % o)
    for m in C.morphisms():
        fm = F.mor_map.get(m)
        if fm not in D.mor_src:
            out.append("morphism %s not mapped into target" % m)
        elif (D.mor_src[fm] != F.obj_map.get(C.mor_src[m])
              or D.mor_tgt[fm] != F.obj_map.get(C.mor_tgt[m])):
            out.append("morphism %s image has wrong endpoints" % m)
    if out:
        return out
    for o in C.objects:
        if F.mor_map[C.identities[o]] != D.identities[F.obj_map[o]]:
            out.append("identity at %s not preserved" % o)
    for (g, f), h in C.comp.items():
        if D.comp[(F.mor_map[g], F.mor_map[f])] != F.mor_map[h]:
            out.append("composition %s . %s not preserved" % (g, f))
    return out


def _backtrack(variables, domains, watches, holds, bud, assignment):
    """Depth-first search over the assignments of `variables`, extending
    `assignment` in place and yielding it at every solution (callers copy
    what they keep).

    variables[i] takes the values of domains[i] in order, each one charged
    to `bud` as a candidate.  watches[i] lists the constraints whose last
    variable in this order is variables[i]; holds(assignment, watches[i])
    decides them as soon as variables[i] is set, so each constraint is
    tested once per candidate of its last variable and never again further
    down.
    """
    n = len(variables)
    if n == 0:
        yield assignment
        return
    values = [iter(domains[0])]
    while values:
        i = len(values) - 1
        var, watched = variables[i], watches[i]
        for val in values[i]:
            bud.charge()
            assignment[var] = val
            if holds(assignment, watched):
                break
        else:
            values.pop()
            continue
        if i + 1 == n:
            yield assignment
        else:
            values.append(iter(domains[i + 1]))


def enumerate_functors(C: FinCat, D: FinCat, budget: Budget | None = None,
                       *, same_hom_sizes=False):
    """All functors C -> D, lazily, in a deterministic order.

    Backtracks over object images first (pruning on empty hom-sets), then
    over images of non-identity morphisms, checking each composition-table
    entry as soon as the last of its non-identity morphisms has an image
    (an entry of identities only is checked at the first morphism).  Into
    a thin D every entry holds by construction, so none is watched.

    With same_hom_sizes, the object stage keeps only the object maps with
    |D(Fa, Fb)| = |C(a, b)| for every ordered pair (a, b), a = b included:
    the functors that preserve hom-set sizes, a superset of the fully
    faithful ones, in the same relative order and named by their position
    in this shorter stream.
    """
    bud = budget if budget is not None else Budget()
    objs = sorted(C.objects)
    all_mors = C.morphisms()
    id_mors = {m for o, m in C.identities.items() if C.mor_src.get(m) == o}
    mors = [m for m in all_mors if m not in id_mors]
    obj_rank = {o: i for i, o in enumerate(objs)}
    obj_watches = [[] for _ in objs]
    if same_hom_sizes:
        C_hom = C._hom
        for i, s in enumerate(objs):
            for j, t in enumerate(objs):
                obj_watches[i if i > j else j].append(
                    (s, t, len(C_hom.get((s, t), ()))))
    else:
        for s, t in dict.fromkeys((C.mor_src[m], C.mor_tgt[m]) for m in mors):
            obj_watches[max(obj_rank[s], obj_rank[t])].append((s, t))
    mor_rank = {m: i for i, m in enumerate(mors)}
    mor_watches = [[] for _ in mors]
    # an entry of identities only is watched by the first morphism; with no
    # non-identity morphism no entry is checked
    for (g, f), h in C.comp.items() if mors and not D._thin else ():
        last = max((mor_rank[m] for m in (g, f, h) if m in mor_rank),
                   default=0)
        mor_watches[last].append((g, f, h))
    D_objs = sorted(D.objects)
    D_hom, D_comp = D._hom, D.comp

    def homs_nonempty(omap, pairs):
        for s, t in pairs:
            if (omap[s], omap[t]) not in D_hom:
                return False
        return True

    def hom_sizes_equal(omap, pairs):
        for s, t, n in pairs:
            if len(D_hom.get((omap[s], omap[t]), ())) != n:
                return False
        return True

    def composites_preserved(mmap, entries):
        for g, f, h in entries:
            if D_comp[(mmap[g], mmap[f])] != mmap[h]:
                return False
        return True

    count = 0
    for omap in _backtrack(objs, [D_objs] * len(objs), obj_watches,
                           hom_sizes_equal if same_hom_sizes
                           else homs_nonempty, bud, {}):
        ids = {C.identities[o]: D.identities[omap[o]] for o in objs}
        homs = [D.hom(omap[C.mor_src[m]], omap[C.mor_tgt[m]]) for m in mors]
        for mmap in _backtrack(mors, homs, mor_watches,
                               composites_preserved, bud, ids):
            yield Functor("F%d" % count, C, D, dict(omap),
                          {m: mmap[m] for m in all_mors})
            count += 1


@dataclass
class NatTrans:
    name: str = field(compare=False)
    source: Functor
    target: Functor
    components: dict[str, str]  # object of source cat -> morphism of target cat

    def key(self):
        return tuple(sorted(self.components.items()))


def identity_nat(F: Functor) -> NatTrans:
    return NatTrans("id", F, F,
                    {o: F.target.identities[F.obj_map[o]]
                     for o in F.source.objects})


def validate_nat_trans(a: NatTrans) -> list[str]:
    F, G = a.source, a.target
    D = F.target
    if (F.source, D) != (G.source, G.target):
        return ["source and target functors are not parallel"]
    out = ["component at %s, which %s lacks" % (o, F.source.name)
           for o in a.components if o not in F.source.objects]
    for o in F.source.objects:
        m = a.components.get(o)
        if m not in D.mor_src:
            out.append("component at %s is not a morphism" % o)
        elif D.mor_src[m] != F.obj_map[o] or D.mor_tgt[m] != G.obj_map[o]:
            out.append("component at %s has wrong endpoints" % o)
    if out:
        return out
    for m in F.source.morphisms():
        s, t = F.source.mor_src[m], F.source.mor_tgt[m]
        if D.comp[(G.mor_map[m], a.components[s])] != \
                D.comp[(a.components[t], F.mor_map[m])]:
            out.append("naturality fails at %s" % m)
    return out


def vcomp_nat(b: NatTrans, a: NatTrans) -> NatTrans:
    """b after a (vertical composition)."""
    D = a.source.target
    return NatTrans("%s.%s" % (b.name, a.name), a.source, b.target,
                    {o: D.comp[(b.components[o], a.components[o])]
                     for o in a.components})


def whisker_nat_functor(a: NatTrans, K: Functor) -> NatTrans:
    """a K : F.K => G.K for a : F => G and K into F's source."""
    return NatTrans("(%s)%s" % (a.name, K.name),
                    compose_functors(a.source, K),
                    compose_functors(a.target, K),
                    {o: a.components[K.obj_map[o]] for o in K.source.objects})


def nat_is_invertible(a: NatTrans) -> bool:
    D = a.source.target
    return all(D.is_iso(m) for m in a.components.values())


def invert_nat(a: NatTrans) -> NatTrans:
    D = a.source.target
    return NatTrans("%s^-1" % a.name, a.target, a.source,
                    {o: D.inverse(m) for o, m in a.components.items()})


def _naturality_watches(C: FinCat):
    """Watch lists for enumerate_nat_trans: per object of C, in sorted
    order, the morphisms (src, tgt, m) whose later endpoint it is.  They
    depend on C alone, so they are computed once per category."""
    if C._squares is None:
        objs = sorted(C.objects)
        rank = {o: i for i, o in enumerate(objs)}
        squares = [[] for _ in objs]
        for m, s in C.mor_src.items():
            t = C.mor_tgt[m]
            squares[max(rank[s], rank[t])].append((s, t, m))
        C._squares = squares
    return C._squares


def enumerate_nat_trans(F: Functor, G: Functor, budget: Budget | None = None):
    """All natural transformations F => G, deterministic order.  The
    naturality square at m is checked once both of its components are.

    Into a thin target every square commutes and each component has at
    most one choice, so there is no search: the objects are scanned in
    order, each component charged as _backtrack would charge it, and the
    scan stops at the first empty hom-set with no transformation."""
    assert (F.source, F.target) == (G.source, G.target)
    bud = budget if budget is not None else Budget()
    C, D = F.source, F.target
    objs = sorted(C.objects)
    if D._thin:
        comp = {}
        for o in objs:
            hom = D._hom.get((F.obj_map[o], G.obj_map[o]))
            if hom is None:
                return []
            bud.charge()
            comp[o] = hom[0]
        return [NatTrans("n0", F, G, comp)]
    homs = [D.hom(F.obj_map[o], G.obj_map[o]) for o in objs]
    D_comp, Fm, Gm = D.comp, F.mor_map, G.mor_map

    def natural(comp, watched):
        for s, t, m in watched:
            if D_comp[(Gm[m], comp[s])] != D_comp[(comp[t], Fm[m])]:
                return False
        return True

    return [NatTrans("n%d" % i, F, G, dict(comp))
            for i, comp in enumerate(_backtrack(
                objs, homs, _naturality_watches(C), natural, bud, {}))]


# ---------------------------------------------------------------------------
# equivalence search


@dataclass
class EquivalenceSearch:
    """Outcome of the equivalence hunt.

    witness is (F, G, eta, eps) with eta : G.F => id_C and eps : F.G => id_D
    both invertible, or None.  exhausted distinguishes a completed search
    from one cut short by the budget (the latter raises instead).
    """
    witness: tuple | None
    exhausted: bool


def _fully_faithful_keeping_sizes(F: Functor):
    """Full faithfulness of an F that keeps every hom-set's size, as the
    same_hom_sizes stream does (meaningless on any other F): each C(a, b)
    -> D(Fa, Fb) is then a bijection iff injective, which a hom-set with
    at most one element is, so only C._plural is read."""
    C, mor_map = F.source, F.mor_map
    for ends in C._plural:
        ms = C._hom[ends]
        if len({mor_map[m] for m in ms}) != len(ms):
            return False
    return True


def _essentially_surjective(F: Functor):
    """Map each target object to (preimage object, iso F(c) -> d), or None."""
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


def equivalence_witness(C: FinCat, D: FinCat,
                        budget: Budget | None = None) -> EquivalenceSearch:
    """Search for an equivalence of categories C ~ D.

    Scans the functors C -> D that preserve hom-set sizes lazily
    (enumerate_functors with same_hom_sizes, which every fully faithful
    functor passes), stopping at the first one that is fully faithful and
    essentially surjective (fully faithful is injective on the hom-sets
    with two or more elements, as sizes are kept), then constructs the
    quasi-inverse and both isomorphisms directly (no second functor
    enumeration).  The witness F is named F<k>, k its position in that
    stream; a search that finds none charges exactly what draining the
    stream charges.
    """
    bud = budget if budget is not None else Budget()
    for F in enumerate_functors(C, D, bud, same_hom_sizes=True):
        if not _fully_faithful_keeping_sizes(F):
            continue
        surj = _essentially_surjective(F)
        if surj is None:
            continue
        obj_map = {d: surj[d][0] for d in D.objects}
        phi = {d: surj[d][1] for d in D.objects}  # F(Gd) -> d
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
        return EquivalenceSearch((F, G, eta, eps), exhausted=False)
    return EquivalenceSearch(None, exhausted=True)
