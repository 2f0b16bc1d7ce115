"""Small standard categories, 2-categories and diagrams used throughout the
test corpus and the documentation."""

from __future__ import annotations

from .core import (FinCat, Functor, Presentation, build_category,
                   identity_functor, identity_nat)
from .limits import LimitAssignment
from .twocat import TwoCat, TwoDiagram, constant_diagram, two_cat_from_cat


def one() -> FinCat:
    """The terminal category."""
    return build_category(Presentation(("o",), ()), 1, "one")


def two() -> FinCat:
    """The arrow category 0 -> 1."""
    return build_category(Presentation(("0", "1"), (("a", "0", "1"),)), 1,
                          "two")


def chaotic_pair() -> FinCat:
    """Two objects, every hom-set a singleton (equivalent to the point)."""
    pres = Presentation(("p", "q"), (("pq", "p", "q"), ("qp", "q", "p")),
                        ((("pq", "qp"), ()), (("qp", "pq"), ())))
    return build_category(pres, 1, "chaotic_pair")


def poset_category(name, elements, le) -> FinCat:
    """The category of a finite poset: one morphism per comparable pair."""
    elements = tuple(elements)
    mor_src, mor_tgt = {}, {}
    names = {}
    for a in elements:
        for b in elements:
            if le(a, b):
                n = "id_%s" % a if a == b else "%s_%s" % (a, b)
                names[(a, b)] = n
                mor_src[n] = a
                mor_tgt[n] = b
    comp = {}
    for (a, b), f in names.items():
        for (b2, c), g in names.items():
            if b2 == b:
                comp[(g, f)] = names[(a, c)]
    return FinCat(name, elements, mor_src, mor_tgt,
                  {a: "id_%s" % a for a in elements}, comp)


def poset_limits(C: FinCat, le) -> LimitAssignment:
    """Chosen limits in a finite meet-semilattice with top: terminal = top,
    products = meets, equalizers of (f, f) = identity cones."""
    elems = list(C.objects)

    def mor(a, b):
        ms = C.hom(a, b)
        assert len(ms) == 1
        return ms[0]

    top = [t for t in elems if all(le(a, t) for a in elems)]
    assert len(top) == 1
    top = top[0]
    tmap = {a: mor(a, top) for a in elems}
    products = {}
    for a in elems:
        for b in elems:
            lower = [c for c in elems if le(c, a) and le(c, b)]
            meets = [m for m in lower if all(le(c, m) for c in lower)]
            assert len(meets) == 1, "not a meet-semilattice"
            m = meets[0]
            products[(a, b)] = (m, mor(m, a), mor(m, b))
    equalizers = {}
    for f in C.morphisms():
        src = C.mor_src[f]
        equalizers[(f, f)] = (src, C.identities[src])
    return LimitAssignment(C, top, tmap, products, equalizers)


def diamond_le(x, y):
    order = {("bot", "a"), ("bot", "b"), ("bot", "top"),
             ("a", "top"), ("b", "top")}
    return x == y or (x, y) in order


def diamond() -> FinCat:
    """The lattice bot < a, b < top."""
    return poset_category("diamond", ("bot", "a", "b", "top"), diamond_le)


def diamond_limits() -> LimitAssignment:
    return poset_limits(diamond(), diamond_le)


def diamond_swap() -> Functor:
    """The a <-> b symmetry of the diamond (an exact automorphism)."""
    D = diamond()
    sw = {"bot": "bot", "a": "b", "b": "a", "top": "top"}
    mor_map = {}
    for m in D.morphisms():
        s, t = sw[D.mor_src[m]], sw[D.mor_tgt[m]]
        mor_map[m] = D.hom(s, t)[0]
    return Functor("swap", D, D, sw, mor_map)


def chain_cat(n, name=None) -> FinCat:
    """The linear order 0 < 1 < ... < n-1."""
    elems = tuple(str(i) for i in range(n))
    return poset_category(name or "chain%d" % n, elems,
                          lambda a, b: int(a) <= int(b))


def chain3_twocat() -> TwoCat:
    return two_cat_from_cat(chain_cat(3), "chain3")


def chain2_twocat() -> TwoCat:
    return two_cat_from_cat(chain_cat(2, "chain2"), "chain2")


def point_twocat() -> TwoCat:
    return two_cat_from_cat(one(), "point")


def discrete_pair_twocat() -> TwoCat:
    return two_cat_from_cat(
        build_category(Presentation(("x", "y"), ()), 1, "discrete_pair"))


def walking_iso_twocat() -> TwoCat:
    """Two parallel 1-cells u, v : A -> B and an invertible 2-cell
    g : u => v with inverse ginv (plus identities)."""
    pres = Presentation(("A", "B"), (("u", "A", "B"), ("v", "A", "B")))
    cells1 = build_category(pres, 1, "walking_iso_1")
    two_id = {m: "2id_%s" % m for m in cells1.morphisms()}
    two_src = {c: m for m, c in two_id.items()}
    two_tgt = dict(two_src, g="v", ginv="u")
    two_src.update(g="u", ginv="v")
    # the free groupoid on g, and the identity 2-cells of id_A, id_B
    vcomp = {("2id_id_A", "2id_id_A"): "2id_id_A",
             ("2id_id_B", "2id_id_B"): "2id_id_B",
             ("2id_u", "2id_u"): "2id_u", ("2id_v", "2id_v"): "2id_v",
             ("g", "2id_u"): "g", ("2id_v", "g"): "g",
             ("ginv", "2id_v"): "ginv", ("2id_u", "ginv"): "ginv",
             ("ginv", "g"): "2id_u", ("g", "ginv"): "2id_v"}
    # u and v do not compose with each other, so every horizontal composite
    # has an identity 2-cell of id_A or id_B as one factor
    hcomp = {("2id_id_A", "2id_id_A"): "2id_id_A",
             ("2id_u", "2id_id_A"): "2id_u", ("2id_v", "2id_id_A"): "2id_v",
             ("g", "2id_id_A"): "g", ("ginv", "2id_id_A"): "ginv",
             ("2id_id_B", "2id_id_B"): "2id_id_B",
             ("2id_id_B", "2id_u"): "2id_u", ("2id_id_B", "2id_v"): "2id_v",
             ("2id_id_B", "g"): "g", ("2id_id_B", "ginv"): "ginv"}
    return TwoCat("walking_iso", cells1, two_src, two_tgt, two_id, vcomp,
                  hcomp)


# ---------------------------------------------------------------------------
# standard diagrams


def const_two_diagram() -> TwoDiagram:
    """The constant diagram at the arrow category over chain3."""
    return constant_diagram(chain3_twocat(), two(), "consttwo")


def inclusion_chain_diagram() -> TwoDiagram:
    """one -> two -> two over chain3: endpoint inclusion, then identity."""
    idx = chain3_twocat()
    O, T = one(), two()
    incl = Functor("incl0", O, T, {"o": "0"}, {"id_o": "id_0"})
    on1 = {"id_0": identity_functor(O), "id_1": identity_functor(T),
           "id_2": identity_functor(T),
           "0_1": incl, "1_2": identity_functor(T), "0_2": incl}
    fibers = {"0": O, "1": T, "2": T}
    on2 = {idx.two_id[u]: identity_nat(on1[u]) for u in idx.one_cells()}
    return TwoDiagram("inclchain", idx, fibers, on1, on2)


def diamond_chain_diagram() -> TwoDiagram:
    """Constant diamond-valued diagram over chain3 (identity transitions)."""
    return constant_diagram(chain3_twocat(), diamond(), "diamondchain")


def swap_chain_diagram() -> TwoDiagram:
    """Diamond fibers over chain3 with the a<->b symmetry as both steps
    (their composite is the identity)."""
    idx = chain3_twocat()
    sw = diamond_swap()
    D = sw.source
    on1 = {"id_0": identity_functor(D), "id_1": identity_functor(D),
           "id_2": identity_functor(D),
           "0_1": sw, "1_2": sw, "0_2": identity_functor(D)}
    on2 = {idx.two_id[u]: identity_nat(on1[u]) for u in idx.one_cells()}
    return TwoDiagram("swapchain", idx, {"0": D, "1": D, "2": D}, on1, on2)


def point_diagram(C: FinCat) -> TwoDiagram:
    """A diagram over the one-object index, i.e. just the category C."""
    return constant_diagram(point_twocat(), C, "point_%s" % C.name)


def walking_iso_diagram() -> TwoDiagram:
    """Both 1-cells of the walking iso sent to the identity on two, the
    invertible 2-cell to the identity transformation."""
    idx = walking_iso_twocat()
    T = two()
    on1 = {u: identity_functor(T) for u in idx.one_cells()}
    on2 = {g: identity_nat(identity_functor(T)) for g in idx.two_cells()}
    return TwoDiagram("walkingiso_two", idx, {"A": T, "B": T}, on1, on2)
