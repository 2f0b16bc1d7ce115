"""Regenerate the canonical fixture corpus from the standard structures.

Run from the repository root:  python3 fixtures/gen.py
"""

import dataclasses
import itertools
from pathlib import Path

from sitecolim import standard
from sitecolim.core import FinCat
from sitecolim.fixtures import (CategoryBlock, print_category, print_functor,
                                print_presheaf, print_twocat, render)
from sitecolim.limits import LimitAssignment
from sitecolim.sites import Presheaf
from sitecolim.twocat import TwoCat

HERE = Path(__file__).parent

ONE = standard.one()
TWO = standard.two()
CHAOTIC = standard.chaotic_pair()
DIAMOND = standard.diamond()
DIAMOND_LIMITS = standard.diamond_limits()
CHAIN3 = standard.chain3_twocat()


def one_limits():
    return standard.poset_limits(ONE, lambda x, y: x == y)


def two_limits():
    return standard.poset_limits(TWO, lambda x, y: x <= y)


def ident_functor_block(name, C):
    return ["[functor %s]" % name, "source %s" % C.name,
            "target %s" % C.name] + \
        ["obj %s -> %s" % (o, o) for o in C.objects] + \
        ["mor %s -> %s" % (m, m) for m in sorted(C.morphisms())]


def ident_nattrans_block(name, functor, C):
    return ["[nattrans %s]" % name, "source %s" % functor,
            "target %s" % functor] + \
        ["at %s = %s" % (o, C.identities[o]) for o in C.objects]


def chain3_diag(name, fibers, transitions, generators=None):
    out = ["[diagram %s]" % name, "index chain3", "orientation covariant"]
    out += ["fiber %s = %s" % (a, c) for a, c in fibers]
    out += ["transition %s = %s" % (u, f) for u, f in transitions]
    if generators:
        out += ["generators %s : %s" % (a, " ".join(sorted(gs)))
                for a, gs in generators]
    return out


def write(name, blocks):
    (HERE / name).write_text(render(blocks))
    print("wrote", name)


covered_diamond = CategoryBlock(
    DIAMOND, DIAMOND_LIMITS,
    {"top": (("a_top", "b_top"),)}, frozenset({"a", "b", "bot"}))

write("one.cat", [print_category(
    CategoryBlock(ONE, one_limits(), {}, frozenset({"o"})))])
write("two.cat", [print_category(
    CategoryBlock(TWO, two_limits(), {}, frozenset({"0", "1"})))])
write("chaotic.cat", [print_category(CategoryBlock(CHAOTIC))])
write("diamond.cat", [print_category(covered_diamond)])
write("chain3.2cat", [print_twocat(CHAIN3)])

write("consttwo.diag", [
    print_twocat(CHAIN3),
    print_category(CategoryBlock(TWO)),
    ident_functor_block("idtwo", TWO),
    chain3_diag("consttwo", [("0", "two"), ("1", "two"), ("2", "two")],
                [("0_1", "idtwo"), ("1_2", "idtwo"), ("0_2", "idtwo")]),
])

incl = standard.Functor("incl0", ONE, TWO, {"o": "0"}, {"id_o": "id_0"})
write("inclchain.diag", [
    print_twocat(CHAIN3),
    print_category(CategoryBlock(ONE)),
    print_category(CategoryBlock(TWO)),
    print_functor(incl),
    ident_functor_block("idtwo", TWO),
    chain3_diag("inclchain", [("0", "one"), ("1", "two"), ("2", "two")],
                [("0_1", "incl0"), ("1_2", "idtwo"), ("0_2", "incl0")]),
])

sw = standard.diamond_swap()
write("swapchain.diag", [
    print_twocat(CHAIN3),
    print_category(CategoryBlock(DIAMOND)),
    print_functor(sw),
    ident_functor_block("iddiamond", DIAMOND),
    chain3_diag("swapchain",
                [("0", "diamond"), ("1", "diamond"), ("2", "diamond")],
                [("0_1", "swap"), ("1_2", "swap"), ("0_2", "iddiamond")]),
])

# a name of its own, so tests that take index names as ids keep the
# standard walking_iso's id
iso_index = dataclasses.replace(standard.walking_iso_twocat(),
                                name="walkingiso_index")
write("walkingiso.diag", [
    print_twocat(iso_index),
    print_category(CategoryBlock(TWO)),
    ident_functor_block("idtwo", TWO),
    ident_nattrans_block("ididtwo", "idtwo", TWO),
    ["[diagram walkingiso]", "index walkingiso_index",
     "orientation covariant", "fiber A = two", "fiber B = two",
     "transition u = idtwo", "transition v = idtwo",
     "cell g = ididtwo", "cell ginv = ididtwo"],
])

write("notfiltered.diag", [
    print_twocat(standard.discrete_pair_twocat()),
    print_category(CategoryBlock(ONE)),
    ["[diagram notfiltered]", "index discrete_pair",
     "orientation covariant", "fiber x = one", "fiber y = one"],
])

write("covereddiamond.diag", [
    print_twocat(CHAIN3),
    print_category(covered_diamond),
    ident_functor_block("iddiamond", DIAMOND),
    chain3_diag("covereddiamond",
                [("0", "diamond"), ("1", "diamond"), ("2", "diamond")],
                [("0_1", "iddiamond"), ("1_2", "iddiamond"),
                 ("0_2", "iddiamond")],
                [("0", {"a", "b"}), ("1", {"a", "b"}), ("2", {"a", "b"})]),
])

terminal_presheaf = Presheaf(
    "pt", DIAMOND, {o: ("*",) for o in DIAMOND.objects},
    {m: {"*": "*"} for m in DIAMOND.morphisms()})
doubled_top = Presheaf(
    "doubletop", DIAMOND,
    {"bot": ("*",), "a": ("*",), "b": ("*",), "top": ("s", "t")},
    {m: ({"s": "*", "t": "*"} if DIAMOND.mor_tgt[m] == "top"
         and DIAMOND.mor_src[m] != "top" else
         {"s": "s", "t": "t"} if DIAMOND.mor_src[m] == "top" else
         {"*": "*"})
     for m in DIAMOND.morphisms()})

write("sheaves.pre", [print_category(covered_diamond),
                      print_presheaf(terminal_presheaf, "diamond")])
write("nonsheaf.pre", [print_category(covered_diamond),
                       print_presheaf(doubled_top, "diamond")])

# ---------------------------------------------------------------------------
# non-thin fixtures: a fiber or vertex with a plural hom-set sends the
# builds and checks down their general paths (refinement search, the
# exhaustive limit test, the pseudocone and modification checks)

Z2 = FinCat("z2", ("*",), {"e": "*", "s": "*"}, {"e": "*", "s": "*"},
            {"*": "e"}, {("e", "e"): "e", ("e", "s"): "s", ("s", "e"): "s",
                         ("s", "s"): "e"})

# z2 at x, and an object o that receives one morphism m from x: its hom
# blocks x -> o and o -> o hold one morphism and x -> x two
Z2_TERMINAL = FinCat(
    "z2_terminal", ("x", "o"),
    {"id_x": "x", "s": "x", "m": "x", "id_o": "o"},
    {"id_x": "x", "s": "x", "m": "o", "id_o": "o"},
    {"x": "id_x", "o": "id_o"},
    {("id_x", "id_x"): "id_x", ("s", "id_x"): "s", ("id_x", "s"): "s",
     ("s", "s"): "id_x", ("m", "id_x"): "m", ("m", "s"): "m",
     ("id_o", "m"): "m", ("id_o", "id_o"): "id_o"})


def finset_le2():
    """FinSet restricted to the sets 0, 1 and 2, with the terminal 1 and
    the equalizer of every parallel pair; 2 x 2 is not in it, so it has no
    products.  A map n -> m is named by its images, f12_0 say."""
    maps = {}  # (n, m, images) -> name
    for n in range(3):
        for m in range(3):
            for images in itertools.product(range(m), repeat=n):
                maps[(n, m, images)] = (
                    "id_%d" % n if images == tuple(range(n)) and n == m else
                    "f%d%d" % (n, m) + ("_" + "".join(map(str, images))
                                        if images else ""))
    comp = {(g, f): maps[(n, k, tuple(gi[i] for i in fi))]
            for (n, m, fi), f in maps.items()
            for (m2, k, gi), g in maps.items() if m2 == m}
    C = FinCat(
        "finset2", ("0", "1", "2"),
        {f: str(n) for (n, _, _), f in maps.items()},
        {f: str(m) for (_, m, _), f in maps.items()},
        {str(n): "id_%d" % n for n in range(3)}, comp)
    equalizers = {}
    for (n, m, fi), f in maps.items():
        for (n2, m2, gi), g in maps.items():
            if (n2, m2) == (n, m):
                agree = tuple(x for x in range(n) if fi[x] == gi[x])
                equalizers[(f, g)] = (str(len(agree)),
                                      maps[(len(agree), n, agree)])
    tmap = {str(n): maps[(n, 1, (0,) * n)] for n in range(3)}
    return CategoryBlock(C, LimitAssignment(C, "1", tmap, {}, equalizers))


def z2_idempotent_twocat():
    """One object *, the 1-cells id and an idempotent z; the 2-cells on id
    are the group Z/2 = {i, a}, and z carries only its identity j.  Its
    whiskering sends a to j, which is F3, and z merges id with itself,
    which is F2: a 2-filtered index with a non-identity endomorphism of
    its weakly terminal object and a non-identity invertible 2-cell."""
    cells1 = FinCat("z2_idempotent.1", ("*",), {"id": "*", "z": "*"},
                    {"id": "*", "z": "*"}, {"*": "id"},
                    {("id", "id"): "id", ("z", "id"): "z", ("id", "z"): "z",
                     ("z", "z"): "z"})
    group = {("i", "i"): "i", ("i", "a"): "a", ("a", "i"): "a",
             ("a", "a"): "i"}
    hcomp = dict(group)
    for g in ("i", "a", "j"):
        hcomp[("j", g)] = hcomp[(g, "j")] = "j"
    cells = {"i": "id", "a": "id", "j": "z"}
    return TwoCat("z2_idempotent", cells1, cells, dict(cells),
                  {"id": "i", "z": "j"}, {**group, ("j", "j"): "j"}, hcomp)


write("z2.cat", [print_category(CategoryBlock(Z2))])
write("finset2.cat", [print_category(finset_le2())])

# the constant z2 over chain3
CONSTZ2 = [
    print_twocat(CHAIN3),
    print_category(CategoryBlock(Z2)),
    ident_functor_block("idz2", Z2),
    chain3_diag("constz2", [("0", "z2"), ("1", "z2"), ("2", "z2")],
                [("0_1", "idz2"), ("1_2", "idz2"), ("0_2", "idz2")]),
]
write("constz2.diag", CONSTZ2)

# the constant z2_terminal over chain3: one composition table holds
# entries of one-class and of two-class hom blocks
write("constz2t.diag", [
    print_twocat(CHAIN3),
    print_category(CategoryBlock(Z2_TERMINAL)),
    ident_functor_block("idz2t", Z2_TERMINAL),
    chain3_diag("constz2t", [("0", "z2_terminal"), ("1", "z2_terminal"),
                             ("2", "z2_terminal")],
                [("0_1", "idz2t"), ("1_2", "idz2t"), ("0_2", "idz2t")]),
])

# a pseudocone from constz2 to z2 whose coherences are the automorphism s
# on both steps and the identity on their composite.  No command besides
# validate reads a cone, so it has a file of its own: in constz2.diag, a
# broken cone would not stop the commands that read the diagram.
write("flipcone.cone", CONSTZ2 + [
    ident_nattrans_block("ididz2", "idz2", Z2),
    ["[nattrans flip]", "source idz2", "target idz2", "at * = s"],
    ["[cone flipcone]", "diagram constz2", "vertex z2",
     "leg 0 = idz2", "leg 1 = idz2", "leg 2 = idz2",
     "coh 0_1 = flip", "coh 1_2 = flip", "coh 0_2 = ididz2"],
])

write("consttwoop.diag", [
    print_twocat(CHAIN3),
    print_category(CategoryBlock(TWO)),
    ident_functor_block("idtwo", TWO),
    ["[diagram consttwoop]", "index chain3", "orientation op"]
    + ["fiber %s = two" % a for a in "012"]
    + ["transition %s = idtwo" % u for u in ("0_1", "1_2", "0_2")],
])

# the constant z2 over z2_idempotent: its 2-cell a goes to the identity
write("z2idem.diag", [
    print_twocat(z2_idempotent_twocat()),
    print_category(CategoryBlock(Z2)),
    ident_functor_block("idz2", Z2),
    ident_nattrans_block("ididz2", "idz2", Z2),
    ["[diagram constz2idem]", "index z2_idempotent", "orientation covariant",
     "fiber * = z2", "transition z = idz2", "cell a = ididz2"],
])
