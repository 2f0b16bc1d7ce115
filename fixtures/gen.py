"""Regenerate the canonical fixture corpus from the standard structures.

Run from the repository root:  python3 fixtures/gen.py
"""

import dataclasses
from pathlib import Path

from sitecolim import standard
from sitecolim.fixtures import (CategoryBlock, print_category, print_functor,
                                print_presheaf, print_twocat, render)
from sitecolim.sites import Presheaf

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
