import dataclasses
import re

import pytest

import oracle_kernel as oracle
from sitecolim import limits, standard
from sitecolim.core import (Functor, Presentation, build_category,
                            identity_functor)
from sitecolim.errors import IncompleteAssignment
from sitecolim.limits import (Cone, Diagram, LimitAssignment, check_exact,
                              chosen_limit, discrete_pair, empty_diagram,
                              enumerate_cones, is_cone, is_limiting_cone,
                              mediators, parallel_pair, validate_assignment)


def test_diamond_assignment_complete_and_valid(diamond_limits):
    assert diamond_limits.is_complete()
    assert validate_assignment(diamond_limits) == []


def test_two_terminal_is_one():
    two = standard.two()
    assert is_limiting_cone(two, empty_diagram(), Cone("1", {}))
    assert not is_limiting_cone(two, empty_diagram(), Cone("0", {}))


def test_product_in_diamond_is_meet(diamond):
    dia = discrete_pair("a", "b")
    good = Cone("bot", {"l": "bot_a", "r": "bot_b"})
    assert is_cone(diamond, dia, good)
    assert is_limiting_cone(diamond, dia, good)
    # top is not even the apex of a cone over (a, b)
    assert not any(c.apex == "top" for c in enumerate_cones(diamond, dia, "top"))


def test_mediators_unique(diamond):
    dia = discrete_pair("a", "top")
    limit = Cone("a", {"l": "id_a", "r": "a_top"})
    assert is_limiting_cone(diamond, dia, limit)
    other = Cone("bot", {"l": "bot_a", "r": "bot_top"})
    assert mediators(diamond, limit, other) == ["bot_a"]


def test_corrupted_product_detected(diamond, diamond_limits):
    bad = LimitAssignment(diamond, diamond_limits.terminal,
                          dict(diamond_limits.tmap),
                          dict(diamond_limits.products),
                          dict(diamond_limits.equalizers))
    bad.products[("a", "b")] = ("top", "id_top", "id_top")
    assert any("product" in v for v in validate_assignment(bad))


def test_chosen_limit_product_chain(diamond_limits):
    dia = Diagram({"x": "a", "y": "b", "z": "top"}, {})
    cone = chosen_limit(diamond_limits, dia)
    assert cone.apex == "bot"
    assert is_limiting_cone(diamond_limits.cat, dia, cone)


def test_chosen_limit_equalizer_skips_equal_edges(diamond_limits):
    C = diamond_limits.cat
    dia = parallel_pair(C, "bot_top", "bot_top")
    cone = chosen_limit(diamond_limits, dia)
    assert cone.apex == "bot"


def test_chosen_limit_empty_needs_terminal(diamond):
    with pytest.raises(IncompleteAssignment):
        chosen_limit(LimitAssignment(diamond), empty_diagram())


def test_check_exact_identity_and_swap(diamond, diamond_limits):
    ok, _ = check_exact(identity_functor(diamond), diamond_limits)
    assert ok
    ok, _ = check_exact(standard.diamond_swap(), diamond_limits)
    assert ok


def test_check_exact_failure(diamond, diamond_limits):
    # constant functor at bot sends the terminal to bot, not terminal
    const_bot = Functor("cbot", diamond, diamond,
                        {o: "bot" for o in diamond.objects},
                        {m: "id_bot" for m in diamond.morphisms()})
    ok, bad = check_exact(const_bot, diamond_limits)
    assert not ok
    assert bad is not None


def _with(limits, **changes):
    """A copy of a limit assignment with some entries replaced."""
    return dataclasses.replace(limits, **{
        k: v if k == "terminal" else {**getattr(limits, k), **v}
        for k, v in changes.items()})


@pytest.mark.parametrize("changes, message", [
    ({"terminal": "zz"}, "chosen terminal zz is not an object"),
    ({"tmap": {"a": "zz"}}, "tmap at a names unknown zz"),
    ({"tmap": {"zz": "id_top"}}, "tmap at zz names unknown zz"),
    ({"products": {("a", "b"): ("bot", "zz", "bot_b")}},
     "chosen product of (a, b) names unknown zz"),
    ({"products": {("a", "zz"): ("bot", "bot_a", "bot_b")}},
     "chosen product of (a, zz) names unknown zz"),
    ({"equalizers": {("zz", "bot_a"): ("bot", "id_bot")}},
     "chosen equalizer of (zz, bot_a) names unknown zz"),
    ({"equalizers": {("bot_a", "bot_a"): ("bot", "a_top")}},
     "chosen equalizer of (bot_a, bot_a): a_top is not a morphism "
     "bot -> bot"),
    ({"equalizers": {("bot_a", "bot_b"): ("bot", "id_bot")}},
     "chosen equalizer of (bot_a, bot_b): bot_a and bot_b are not parallel"),
    ({"equalizers": {("a_top", "a_top"): ("bot", "bot_a")}},
     "chosen equalizer of (a_top, a_top) is not an equalizer"),
])
def test_ill_named_entries_are_reported(diamond_limits, changes, message):
    """An entry naming an unknown or non-composable morphism is a
    violation, not a KeyError."""
    assert message in validate_assignment(_with(diamond_limits, **changes))


def test_complete_assignment_on_a_non_thin_category(monkeypatch):
    """A complete assignment on z2 (terminal *, product * * = * e e, all
    four equalizers = * e) gets one violation naming a parallel pair, and
    no cone is checked; an incomplete one is still checked cone by
    cone."""
    from test_kernel import z2
    Z = z2()
    complete = LimitAssignment(
        Z, "*", {"*": "e"}, {("*", "*"): ("*", "e", "e")},
        {(f, g): ("*", "e") for f in "es" for g in "es"})
    assert complete.is_complete()

    def no_cone_checks(*args):
        raise AssertionError("a cone was checked")

    monkeypatch.setattr(limits, "is_limiting_cone", no_cone_checks)
    assert validate_assignment(complete) == [
        "complete assignment on a non-thin category: e and s are parallel "
        "* -> *"]
    monkeypatch.undo()
    partial = dataclasses.replace(complete, equalizers={})
    assert validate_assignment(partial) == [
        "chosen terminal * is not terminal",
        "chosen product of (*, *) is not a product"]


def test_equalizer_that_does_not_equalize():
    P = oracle.parallel_pair_cat()
    bad = LimitAssignment(P, equalizers={("f", "g"): ("s", "id_s")})
    assert validate_assignment(bad) == [
        "chosen equalizer of (f, g) does not equalize"]


def split_idempotent():
    """i : x -> y and r : y -> x with r.i = id_x; the idempotent i.r on y
    (named r.i, paths read left to right) has equalizer (x, i) with id_y."""
    pres = Presentation(("x", "y"), (("i", "x", "y"), ("r", "y", "x")),
                        ((("i", "r"), ()),))
    return build_category(pres, 2, "split")


def test_chosen_limit_cuts_by_an_equalizer():
    """An edge whose two legs differ is cut down by the chosen equalizer of
    the pair, and a missing one raises."""
    C = split_idempotent()
    dia = Diagram({"n": "y"}, {"e": ("n", "n", "r.i")})
    A = LimitAssignment(C, equalizers={("r.i", "id_y"): ("x", "i")})
    cone = chosen_limit(A, dia)
    assert cone == Cone("x", {"n": "i"})
    assert is_limiting_cone(C, dia, cone)
    with pytest.raises(IncompleteAssignment, match=re.escape(
            "no chosen equalizer for ('r.i', 'id_y') in split")):
        chosen_limit(LimitAssignment(C), dia)


def test_chosen_limit_of_the_empty_diagram(diamond_limits):
    assert chosen_limit(diamond_limits, empty_diagram()) == Cone("top", {})
