"""Hypothesis strategies for random diagrams: strict 2-functors from a small
2-filtered index into finite categories.

- Indices:
  - a poset from test_kernel_property.posets(), with a top added, as a
    2-category with identity 2-cells only;
  - the walking iso, u, v : A -> B with an invertible g : u => v, so B
    receives two 1-cells from A;
  - the Z/2 loop made 2-filtered (z2_idempotent_twocat): on its one
    object, the identity 1-cell carries two invertible 2-cells and an
    idempotent 1-cell whiskers them equal.
- Fibers: posets() and a few presented categories, some of them with
  non-identity automorphisms.
- Transitions are drawn from enumerate_functors and 2-cells from
  enumerate_nat_trans.  A draw is kept only if it passes
  check_two_functor and check_2filtered.
"""

from hypothesis import assume, strategies as st

from sitecolim import standard
from sitecolim.core import (FinCat, Presentation, build_category,
                            compose_functors, enumerate_functors,
                            enumerate_nat_trans, identity_functor,
                            identity_nat, invert_nat, nat_is_invertible,
                            vcomp_nat)
from sitecolim.twocat import (TwoCat, TwoDiagram, check_2filtered,
                              check_two_functor, two_cat_from_cat)

from test_kernel import z2, z2_terminal
from test_kernel_property import posets


def idempotent():
    """One object and one idempotent endomorphism e."""
    pres = Presentation(("*",), (("e", "*", "*"),), ((("e", "e"), ("e",)),))
    return build_category(pres, 2, "idempotent")


PRESENTED = (z2, z2_terminal, idempotent, standard.chaotic_pair)


@st.composite
def fibers(draw, name):
    """A small poset or a presented category, named `name`."""
    C = draw(st.one_of(posets(), st.sampled_from(PRESENTED).map(
        lambda make: make())))
    return FinCat(name, C.objects, C.mor_src, C.mor_tgt, C.identities,
                  C.comp)


@st.composite
def posets_with_top(draw):
    """A poset on up to three elements from posets(), with a top added
    that sorts before or after them."""
    P = draw(posets().filter(lambda P: len(P.objects) <= 3))
    top = draw(st.sampled_from("az"))
    return standard.poset_category(
        "P", P.objects + (top,),
        lambda a, b: b == top or (a != top and bool(P.hom(a, b))))


def z2_idempotent_twocat(idem, auto):
    """One object *, the 1-cells id and an idempotent `idem`; the 2-cells
    on id are the group Z/2 = {i, auto}, and idem carries only its
    identity j.  Whiskering by idem sends auto to j, which is F3, and idem
    merges id with itself, which is F2.  The names are parameters, so
    that each sorts before or after the identity beside it."""
    cells1 = FinCat("idem", ("*",), {"id": "*", idem: "*"},
                    {"id": "*", idem: "*"}, {"*": "id"},
                    {("id", "id"): "id", (idem, "id"): idem,
                     ("id", idem): idem, (idem, idem): idem})
    group = {("i", "i"): "i", ("i", auto): auto, (auto, "i"): auto,
             (auto, auto): "i"}
    hcomp = dict(group)
    for g in ("i", auto, "j"):
        hcomp[("j", g)] = hcomp[(g, "j")] = "j"
    cells = {"i": "id", auto: "id", "j": idem}
    return TwoCat("z2_idempotent", cells1, cells, dict(cells),
                  {"id": "i", idem: "j"}, {**group, ("j", "j"): "j"}, hcomp)


@st.composite
def _poset_diagram(draw):
    index = two_cat_from_cat(draw(posets_with_top()))
    C1 = index.cells1
    fib = {A: draw(fibers("F" + A)) for A in sorted(C1.objects)}
    on1 = {C1.identities[A]: identity_functor(fib[A]) for A in C1.objects}

    def between(u):
        a, b = C1.mor_src[u], C1.mor_tgt[u]
        return sum(1 for c in C1.objects if c not in (a, b)
                   and C1.hom(a, c) and C1.hom(c, b))

    # a 1-cell is the composite through every object strictly between its
    # ends, whose 1-cells have fewer objects between theirs
    for u in sorted((u for u in C1.morphisms() if u not in on1),
                    key=lambda u: (between(u), u)):
        forced = {}
        for (v, w), vw in C1.comp.items():
            if vw == u and v != u and w != u:
                G = compose_functors(on1[v], on1[w])
                forced[G.key()] = G
        assume(len(forced) <= 1)
        if forced:
            on1[u], = forced.values()
        else:
            on1[u] = draw(st.sampled_from(list(enumerate_functors(
                fib[C1.mor_src[u]], fib[C1.mor_tgt[u]]))))
    on2 = {g: identity_nat(on1[index.two_src[g]])
           for g in index.two_cells()}
    return TwoDiagram("random_poset", index, fib, on1, on2)


@st.composite
def _walking_iso_diagram(draw):
    index = standard.walking_iso_twocat()
    FA, FB = draw(fibers("FA")), draw(fibers("FB"))
    functors = list(enumerate_functors(FA, FB))
    Fu = draw(st.sampled_from(functors))
    Fv, g = draw(st.sampled_from(
        [(Fv, g) for Fv in functors for g in enumerate_nat_trans(Fu, Fv)
         if nat_is_invertible(g)]))
    on1 = {"id_A": identity_functor(FA), "id_B": identity_functor(FB),
           "u": Fu, "v": Fv}
    on2 = {c: identity_nat(on1[index.two_src[c]])
           for c in index.two_cells()}
    on2.update(g=g, ginv=invert_nat(g))
    return TwoDiagram("random_walking_iso", index, {"A": FA, "B": FB}, on1,
                      on2)


@st.composite
def _z2_idempotent_diagram(draw):
    idem, auto = draw(st.sampled_from("ez")), draw(st.sampled_from("as"))
    index = z2_idempotent_twocat(idem, auto)
    C = draw(fibers("F*"))
    ident = identity_functor(C)
    E = draw(st.sampled_from(
        [E for E in enumerate_functors(C, C)
         if compose_functors(E, E) == E]))
    # the automorphisms of the identity of order at most two that E
    # whiskers to the identity on either side
    sigma = draw(st.sampled_from(
        [n for n in enumerate_nat_trans(ident, ident)
         if vcomp_nat(n, n) == identity_nat(ident)
         and all(C.is_identity(E.mor_map[m]) for m in n.components.values())
         and all(C.is_identity(n.components[E.obj_map[x]])
                 for x in C.objects)]))
    return TwoDiagram("random_z2_idempotent", index, {"*": C},
                      {"id": ident, idem: E},
                      {"i": identity_nat(ident), auto: sigma,
                       "j": identity_nat(E)})


@st.composite
def diagrams(draw):
    """A strict 2-functor from a small 2-filtered index into finite
    categories."""
    F = draw(st.one_of(_poset_diagram(), _walking_iso_diagram(),
                       _z2_idempotent_diagram()))
    assume(check_two_functor(F) == (True, None))
    assume(check_2filtered(F.index) == (True, None))
    return F
