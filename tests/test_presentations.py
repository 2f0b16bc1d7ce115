"""Categories from presentations against their frozen references in
oracle_kernel.py: build_category saturates in one pass and one rewrite
direction, and the standard categories and 2-categories are presented
rather than written out; both must give the same tables, names and
SaturationExceeded messages as before."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

import oracle_kernel as oracle  # noqa: E402
from sitecolim import standard  # noqa: E402
from sitecolim.core import Presentation, build_category  # noqa: E402
from sitecolim.errors import SaturationExceeded  # noqa: E402


@st.composite
def presentations(draw):
    """Up to three objects, three generators and two relations; each side
    of a relation is a path of up to three generators from a shared source,
    so a relation may also equate paths with different targets."""
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
        return names

    rels = []
    for _ in range(draw(st.integers(0, 2))):
        src = draw(st.sampled_from(objs))
        rels.append((path(src), path(src)))
    return Presentation(objs, gens, tuple(rels))


def _build(build, pres, bound):
    try:
        C = build(pres, bound)
    except SaturationExceeded as exc:
        return str(exc)
    return (C.objects, C.mor_src, C.mor_tgt, C.identities, C.comp)


@settings(max_examples=300, deadline=None)
@given(presentations(), st.integers(1, 3))
def test_build_category_matches_reference(pres, bound):
    assert (_build(build_category, pres, bound)
            == _build(oracle.build_category, pres, bound))


@pytest.mark.parametrize("name", [
    "one", "two", "chaotic_pair", "diamond", "parallel_pair_cat",
    "discrete_pair_twocat", "walking_iso_twocat"])
def test_standard_constructor_matches_reference(name):
    got, want = getattr(standard, name)(), getattr(oracle, name)()
    assert got.name == want.name
    # dataclass equality compares every table as a dict, and a TwoCat's
    # 1-cell category with its name
    assert got == want
