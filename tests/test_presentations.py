"""Categories from presentations against their frozen references in
oracle_kernel.py: build_category saturates in one pass and one rewrite
direction, and the standard categories and 2-categories are presented
rather than written out; both must give the same tables, names and
SaturationExceeded messages as before.  A relation whose sides are not
parallel is rejected with IllTypedRelation, which the reference did not
check."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

import oracle_kernel as oracle  # noqa: E402
from sitecolim import standard  # noqa: E402
from sitecolim.core import Presentation, build_category  # noqa: E402
from sitecolim.errors import (IllTypedRelation,  # noqa: E402
                              SaturationExceeded)


@st.composite
def presentations(draw):
    """Up to three objects, three generators and two relations, and whether
    every relation is well-typed.  Each side of a relation is a path of up
    to three generators from a shared source.  Three times in four the
    right side is drawn among the other paths of up to three generators
    that end where the left side ends, when there are any, so most
    relations are well-typed and not trivial; the rest may equate paths
    with different targets."""
    objs = ("x", "y", "z")[:draw(st.integers(1, 3))]
    gens = tuple(("g%d" % i, draw(st.sampled_from(objs)),
                  draw(st.sampled_from(objs)))
                 for i in range(draw(st.integers(0, 3))))

    def path(src):
        names, end = (), src
        for _ in range(draw(st.integers(0, 3))):
            out = [g for g in gens if g[1] == end]
            if not out:
                break
            name, _, end = draw(st.sampled_from(out))
            names += (name,)
        return names, end

    def paths_to(src, tgt):
        found, frontier = [], [((), src)]
        for _ in range(4):
            found += [names for names, end in frontier if end == tgt]
            frontier = [(names + (g,), t) for names, end in frontier
                        for g, s, t in gens if s == end]
        return found

    rels, well_typed = [], True
    for _ in range(draw(st.integers(0, 2))):
        src = draw(st.sampled_from(objs))
        lhs, lhs_end = path(src)
        typed = [p for p in paths_to(src, lhs_end) if p != lhs]
        if typed and draw(st.integers(0, 3)):
            rhs, rhs_end = draw(st.sampled_from(typed)), lhs_end
        else:
            rhs, rhs_end = path(src)
        rels.append((lhs, rhs))
        well_typed = well_typed and lhs_end == rhs_end
    return Presentation(objs, gens, tuple(rels)), well_typed


def _build(build, pres, bound):
    try:
        C = build(pres, bound)
    except SaturationExceeded as exc:
        return str(exc)
    return (C.objects, C.mor_src, C.mor_tgt, C.identities, C.comp)


@settings(max_examples=400, deadline=None)
@given(presentations(), st.integers(1, 3))
def test_build_category_matches_reference(drawn, bound):
    pres, well_typed = drawn
    if not well_typed:
        with pytest.raises(IllTypedRelation):
            build_category(pres, bound)
        return
    assert (_build(build_category, pres, bound)
            == _build(oracle.build_category, pres, bound))


@pytest.mark.parametrize("name", [
    "one", "two", "chaotic_pair", "diamond",
    "discrete_pair_twocat", "walking_iso_twocat"])
def test_standard_constructor_matches_reference(name):
    got, want = getattr(standard, name)(), getattr(oracle, name)()
    assert got.name == want.name
    # dataclass equality compares every table as a dict, and a TwoCat's
    # 1-cell category with its name
    assert got == want
