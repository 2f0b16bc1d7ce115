from pathlib import Path

import pytest
from click.testing import CliRunner

import oracle_kernel as oracle
from test_core import shadow_two
from test_kernel import _CountedTable, z2
from sitecolim import standard, twocat
from sitecolim.cli import main
from sitecolim.core import FinCat, Functor, NatTrans, identity_functor
from sitecolim.fixtures import (CategoryBlock, DiagramBlock, parse,
                                print_category, print_functor, print_twocat,
                                render)
from sitecolim.twocat import (TwoCat, check_2filtered, check_two_functor,
                              constant_diagram, opposite_two_cat,
                              two_cat_from_cat, validate_two_cat)

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"


def classical_filtered(C):
    """Direct filteredness test for plain categories (independent of
    check_2filtered): nonempty, cospans, coequalizing arrows."""
    if not C.objects:
        return False
    for a in C.objects:
        for b in C.objects:
            if not any(C.hom(a, c) and C.hom(b, c) for c in C.objects):
                return False
    for f in C.morphisms():
        for g in C.hom(C.mor_src[f], C.mor_tgt[f]):
            if not any(C.comp[(h, f)] == C.comp[(h, g)]
                       for c in C.objects for h in C.hom(C.mor_tgt[f], c)):
                return False
    return True


def test_chain3_valid():
    assert validate_two_cat(standard.chain3_twocat()) == []


def test_walking_iso_valid():
    assert validate_two_cat(standard.walking_iso_twocat()) == []


def test_corrupted_vcomp_detected():
    A = standard.walking_iso_twocat()
    A.vcomp[("ginv", "g")] = "2id_v"  # should be 2id_u
    out = validate_two_cat(A)
    assert out


def test_opposite_involutive():
    A = standard.chain3_twocat()
    B = opposite_two_cat(opposite_two_cat(A))
    assert B.cells1.comp == A.cells1.comp
    assert B.hcomp == A.hcomp


def test_opposite_valid():
    assert validate_two_cat(opposite_two_cat(standard.walking_iso_twocat())) == []


def test_two_cat_from_cat_valid(diamond):
    assert validate_two_cat(two_cat_from_cat(diamond)) == []


def test_standard_diagrams_are_strict_2functors(consttwo):
    for dia in (consttwo, standard.inclusion_chain_diagram(),
                standard.swap_chain_diagram(),
                standard.diamond_chain_diagram(),
                standard.walking_iso_diagram()):
        ok, why = check_two_functor(dia)
        assert ok, (dia.name, why)


def chain9_text(C):
    """A constant diagram over chain9 with fiber C: each non-identity
    1-cell names one functor block, and the parser fills in the identity
    1-cells and every (identity) 2-cell."""
    index = two_cat_from_cat(standard.chain_cat(9), "chain9")
    ident = identity_functor(C)
    ident.name = "ident"
    return render([
        print_twocat(index), print_category(CategoryBlock(C)),
        print_functor(ident),
        ["[diagram const9]", "index chain9"]
        + ["fiber %s = %s" % (A, C.name) for A in index.objects()]
        + ["transition %s = ident" % u for u in index.one_cells()
           if not index.cells1.is_identity(u)]])


def _law_calls(monkeypatch, C):
    """The calls check_two_functor makes on the parsed chain9 diagram with
    fiber C, per spied function, as tuples of argument ids."""
    dia = parse(chain9_text(C))["const9"].diagram
    A = dia.index
    assert (len(A.one_cells()), len(A.cells1.comp), len(A.two_cells()),
            len(A.vcomp), len(A.hcomp)) == (45, 165, 45, 45, 165)
    names = ("compose_functors", "validate_nat_trans", "vcomp_nat")
    calls = {name: [] for name in names}
    for name in names:
        real = getattr(twocat, name)

        def counted(*args, real=real, name=name):
            calls[name].append(tuple(map(id, args)))
            return real(*args)

        monkeypatch.setattr(twocat, name, counted)
    assert check_two_functor(dia) == (True, None)
    counts = {n: len(c) for n, c in calls.items()}
    assert all(len(set(c)) == len(c) for c in calls.values())
    assert check_two_functor(dia) == oracle.check_two_functor(dia)
    return counts


def test_each_law_decided_once_per_distinct_tuple(monkeypatch):
    """The parsed diagram holds two functors, the named one and the
    parser's identity, and one identity transformation on each, so
    check_two_functor builds 4 composites and validates 2
    transformations, over 45 1-cells, 165 composable pairs and 45
    2-cells.  The fiber diamond is thin, so no 2-cell law is tested and
    no transformation is composed."""
    assert _law_calls(monkeypatch, standard.diamond()) == {
        "compose_functors": 4, "validate_nat_trans": 2, "vcomp_nat": 0}


def test_each_law_decided_once_per_distinct_tuple_into_z2(monkeypatch):
    """The same diagram with the fiber z2, which is not thin: the 2-cell
    laws are tested, each once per distinct tuple, so the 2
    transformations are composed with themselves once each."""
    assert _law_calls(monkeypatch, z2()) == {
        "compose_functors": 4, "validate_nat_trans": 2, "vcomp_nat": 2}


def test_constant_diagram_shares_its_identities(monkeypatch):
    """constant_diagram gives all 1-cells one identity functor and all
    2-cells one identity transformation, so check_two_functor builds a
    single composite over the 165 composable pairs of chain9."""
    dia = constant_diagram(two_cat_from_cat(standard.chain_cat(9)),
                           standard.diamond())
    assert len({id(f) for f in dia.on1.values()}) == 1
    assert len({id(n) for n in dia.on2.values()}) == 1
    one = next(iter(dia.on1.values()))
    cell = next(iter(dia.on2.values()))
    assert (one.name, cell.name, cell.source) == ("id_diamond", "id", one)
    calls = []
    real = twocat.compose_functors

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(twocat, "compose_functors", counted)
    assert check_two_functor(dia) == (True, None)
    assert len(calls) == 1
    assert check_two_functor(dia) == oracle.check_two_functor(dia)


def chain9_swap_text():
    """Diamond fibers over chain9, the 1-cell i -> j sent to the a <-> b
    swap when j - i is odd and to the named identity when it is even and
    positive; the parser fills in the identity 1-cells and 2-cells."""
    index = two_cat_from_cat(standard.chain_cat(9), "chain9")
    C1 = index.cells1
    D = standard.diamond()
    ident = identity_functor(D)
    ident.name = "ident"
    step = {u: int(C1.mor_tgt[u]) - int(C1.mor_src[u])
            for u in index.one_cells()}
    return render([
        print_twocat(index), print_category(CategoryBlock(D)),
        print_functor(standard.diamond_swap()), print_functor(ident),
        ["[diagram swap9]", "index chain9"]
        + ["fiber %s = diamond" % A for A in index.objects()]
        + ["transition %s = %s" % (u, "swap" if n % 2 else "ident")
           for u, n in step.items() if n]])


def _compose_calls(monkeypatch):
    calls = []
    real = twocat.compose_functors

    def counted(*args):
        calls.append(tuple(map(id, args)))
        return real(*args)

    monkeypatch.setattr(twocat, "compose_functors", counted)
    return calls


def test_swap_diagram_composes_each_distinct_pair_once(monkeypatch):
    """The parsed swap diagram over chain9 holds three functors (swap, the
    named identity and the parser's identity), so the 165 composition
    entries read few distinct pairs, and check_two_functor composes each
    pair once."""
    dia = parse(chain9_swap_text())["swap9"].diagram
    pairs = {(id(dia.on1[v]), id(dia.on1[u]))
             for v, u in dia.index.cells1.comp}
    calls = _compose_calls(monkeypatch)
    assert check_two_functor(dia) == (True, None)
    assert sorted(calls) == sorted(pairs)
    assert len(dia.index.cells1.comp) == 165 and len(calls) < 10
    assert check_two_functor(dia) == oracle.check_two_functor(dia)


def _swap_chain3(on1_0_2):
    """The swap diagram over chain3 with `on1_0_2` at 0_2, its composition
    table ordered so that the entry 1_2 . 0_1 comes last."""
    dia = standard.swap_chain_diagram()
    comp = dia.index.cells1.comp
    last = comp.pop(("1_2", "0_1"))
    comp[("1_2", "0_1")] = last
    dia.on1["0_2"] = on1_0_2(dia)
    return dia


def test_broken_last_composite_is_reported():
    """Sending 0_2 to the swap breaks 1_2 . 0_1 alone, since swap . swap
    is the identity; as the last entry of the table it is still found and
    named."""
    dia = _swap_chain3(lambda d: d.on1["0_1"])
    assert list(dia.index.cells1.comp)[-1] == ("1_2", "0_1")
    want = (False, "composition 1_2 . 0_1 not preserved")
    assert check_two_functor(dia) == oracle.check_two_functor(dia) == want
    dia = _swap_chain3(lambda d: d.on1["id_0"])
    assert check_two_functor(dia) == (True, None)


def test_shared_functor_boundary_checked_per_one_cell():
    """The swap at 0_1 and 1_2, one functor object, over fiber two at 2:
    it fits the boundary of 0_1 but not that of 1_2, and the second
    boundary is still checked, after 0_2 (sent to a functor into two)
    passes."""
    dia = standard.swap_chain_diagram()
    D, T = dia.fibers["0"], standard.two()
    dia.fibers["2"] = T
    assert dia.on1["0_1"] is dia.on1["1_2"]
    want = (False, "functor at 0_2 has wrong boundary")
    assert check_two_functor(dia) == oracle.check_two_functor(dia) == want
    ob = {"bot": "0", "a": "0", "b": "0", "top": "1"}
    dia.on1["0_2"] = Functor("collapse", D, T, ob, {
        m: T.hom(ob[D.mor_src[m]], ob[D.mor_tgt[m]])[0]
        for m in D.morphisms()})
    want = (False, "functor at 1_2 has wrong boundary")
    assert check_two_functor(dia) == oracle.check_two_functor(dia) == want


def test_broken_diagram_detected(consttwo, two_cat):
    dia = constant_diagram(standard.chain3_twocat(), two_cat, "broken")
    from sitecolim.core import Functor
    dia.on1["0_1"] = Functor("flip", two_cat, two_cat,
                             {"0": "1", "1": "1"},
                             {"id_0": "id_1", "id_1": "id_1", "a": "id_1"})
    ok, why = check_two_functor(dia)
    assert not ok


def test_transition_on_a_shadowed_fiber_has_wrong_boundary(two_cat):
    """A transition on another category named `two` has the wrong
    boundary."""
    dia = constant_diagram(standard.chain3_twocat(), two_cat, "shadowed")
    dia.on1["0_1"] = identity_functor(shadow_two())
    assert check_two_functor(dia) == (False,
                                      "functor at 0_1 has wrong boundary")


def test_chain3_is_2filtered():
    ok, _ = check_2filtered(standard.chain3_twocat())
    assert ok


def test_walking_iso_is_2filtered():
    ok, _ = check_2filtered(standard.walking_iso_twocat())
    assert ok


def test_discrete_pair_fails_f1():
    ok, datum = check_2filtered(standard.discrete_pair_twocat())
    assert not ok
    assert datum[0] == "F1"


def test_parallel_pair_fails_f2():
    A = two_cat_from_cat(oracle.parallel_pair_cat())
    ok, datum = check_2filtered(A)
    assert not ok
    assert datum[0] == "F2"


def test_classical_filtered_agrees():
    assert classical_filtered(standard.chain_cat(3))
    assert not classical_filtered(oracle.parallel_pair_cat())
    # for 1-categories with identity 2-cells, both notions agree
    for C in (standard.one(), standard.chain_cat(2), standard.chaotic_pair()):
        ok, _ = check_2filtered(two_cat_from_cat(C))
        assert ok == classical_filtered(C)


def z2_loop_twocat():
    """One object whose identity 1-cell carries the group Z/2 of 2-cells:
    whiskering cannot equalize 2id and s, so F3 fails."""
    cells1 = FinCat("pt", ("*",), {"id": "*"}, {"id": "*"}, {"*": "id"},
                    {("id", "id"): "id"})
    z2 = {("2id", "2id"): "2id", ("2id", "s"): "s", ("s", "2id"): "s",
          ("s", "s"): "2id"}
    return TwoCat("z2_loop", cells1, {"2id": "id", "s": "id"},
                  {"2id": "id", "s": "id"}, {"id": "2id"}, dict(z2), dict(z2))


def z2_loop_unit_law_broken():
    """The Z2 loop with every horizontal composite set to 2id: s * 2id = 2id
    breaks the horizontal unit law and nothing else."""
    A = z2_loop_twocat()
    return TwoCat("z2_unit", A.cells1, A.two_src, A.two_tgt, A.two_id,
                  A.vcomp, {k: "2id" for k in A.hcomp})


def test_horizontal_unit_law_checked():
    assert validate_two_cat(z2_loop_unit_law_broken()) == [
        "horizontal layer: identity law fails: s . 2id != s",
        "horizontal layer: identity law fails: 2id . s != s"]


def test_validate_refuses_broken_horizontal_unit_law(tmp_path):
    path = tmp_path / "z2_unit.2cat"
    path.write_text(render([print_twocat(z2_loop_unit_law_broken())]))
    res = CliRunner().invoke(main, ["--fixture-dir", str(FIXTURE_DIR),
                                    "validate", str(path)])
    assert res.exit_code == 1, res.output
    assert "horizontal layer: identity law fails: s . 2id != s" in res.output
    assert "outcome fail" in res.output


def walking_two_cell():
    """The parallel pair f, g : s -> t with one non-invertible 2-cell
    theta : f => g, so F2 fails although a 2-cell joins f and g."""
    A = two_cat_from_cat(oracle.parallel_pair_cat(), "walking_two_cell")
    two_src = dict(A.two_src, theta="f")
    two_tgt = dict(A.two_tgt, theta="g")
    vcomp, hcomp = dict(A.vcomp), dict(A.hcomp)
    vcomp[("theta", "2id_f")] = vcomp[("2id_g", "theta")] = "theta"
    hcomp[("theta", "2id_id_s")] = hcomp[("2id_id_t", "theta")] = "theta"
    return TwoCat(A.name, A.cells1, two_src, two_tgt, A.two_id, vcomp, hcomp)


def corpus_indices():
    out = []
    for path in sorted(FIXTURE_DIR.iterdir()):
        if path.suffix in (".2cat", ".diag"):
            for v in parse(path.read_text()).values():
                if isinstance(v, TwoCat):
                    out.append(v)
                elif isinstance(v, DiagramBlock):
                    out.append(v.diagram.index)
    return out


STANDARD_TWO_CATS = [
    standard.chain3_twocat(), standard.chain2_twocat(),
    standard.point_twocat(), standard.discrete_pair_twocat(),
    standard.walking_iso_twocat(),
    opposite_two_cat(standard.walking_iso_twocat()),
    two_cat_from_cat(standard.one()), two_cat_from_cat(standard.two()),
    two_cat_from_cat(standard.chaotic_pair()),
    two_cat_from_cat(standard.diamond()),
    two_cat_from_cat(oracle.parallel_pair_cat()),
    two_cat_from_cat(standard.chain_cat(5)),
    z2_loop_twocat(), walking_two_cell()]
ALL_TWO_CATS = STANDARD_TWO_CATS + corpus_indices()


def test_hand_built_two_cats_valid():
    assert validate_two_cat(z2_loop_twocat()) == []
    assert validate_two_cat(walking_two_cell()) == []


@pytest.mark.parametrize("A", ALL_TWO_CATS, ids=lambda A: A.name)
def test_two_cells_between_matches_scan(A):
    ones = A.one_cells()
    for u in ones:
        for v in ones:
            scanned = oracle.two_cells_between(A, u, v)
            assert A.two_cells_between(u, v) == scanned
            assert A.invertible_cells_between(u, v) == [
                g for g in scanned if oracle.vinverse(A, g) is not None]


def empty_twocat():
    """The index with no objects: a valid 2-category that F0 refuses."""
    return TwoCat("empty", FinCat("empty.1", (), {}, {}, {}, {}),
                  {}, {}, {}, {}, {})


@pytest.mark.parametrize("A", ALL_TWO_CATS + [empty_twocat()],
                         ids=lambda A: A.name)
def test_check_2filtered_matches_reference(A):
    assert check_2filtered(A) == oracle.check_2filtered(A)


def test_check_2filtered_skips_the_diagonal(monkeypatch):
    """On a valid 2-category F2 holds for u = v and F3 for g = h, so on a
    chain, whose hom-sets and 2-cell hom-sets hold one element each,
    check_2filtered asks for no invertible 2-cell and whiskers nothing."""
    A = two_cat_from_cat(standard.chain_cat(9))
    calls = []
    for name in ("invertible_cells_between", "whisker_post"):
        monkeypatch.setattr(A, name, lambda *args, name=name: calls.append(
            (name, args)) or getattr(TwoCat, name)(A, *args))
    assert check_2filtered(A) == (True, None) == oracle.check_2filtered(A)
    assert calls == []


def test_f2_fails_with_a_non_invertible_cell():
    A = walking_two_cell()
    assert A.two_cells_between("f", "g") == ("theta",)
    assert A.invertible_cells_between("f", "g") == []
    assert check_2filtered(A) == (False, ("F2", "f", "g"))


def test_z2_loop_fails_f3():
    assert check_2filtered(z2_loop_twocat()) == (False, ("F3", "2id", "s"))


def test_empty_index_fails_f0():
    """A 2-filtered category is nonempty: the index with no objects is a
    valid 2-category that check_2filtered refuses."""
    empty = empty_twocat()
    assert validate_two_cat(empty) == []
    assert check_2filtered(empty) == (False, ("F0",))


def _z2_nat(F, c):
    """The transformation F => F with component c at the one object."""
    return NatTrans(c, F, F, {"*": c})


def _walking_iso_into_z2(change):
    """The walking iso sent to the identity of z2, then changed in place."""
    D = constant_diagram(standard.walking_iso_twocat(), z2(), "wi_z2")
    change(D)
    return D


def _set(table, key, value):
    return lambda D: getattr(D, table).__setitem__(key, value(D))


def _drop(table, key):
    return lambda D: getattr(D, table).pop(key)


# a change to the walking iso into z2 that breaks exactly one strict
# 2-functor law, and check_two_functor's message for it
TWO_FUNCTOR_FAULTS = [
    (_drop("fibers", "A"), "no fiber at A"),
    (_drop("on1", "u"), "no functor at u"),
    (_set("on1", "u", lambda D: identity_functor(standard.two())),
     "functor at u has wrong boundary"),
    (_set("on1", "u", lambda D: Functor("bad", D.fibers["A"], D.fibers["B"],
                                         {"*": "*"}, {"e": "s", "s": "s"})),
     "functor at u is invalid"),
    (_drop("on2", "g"), "no transformation at g"),
    (_set("on2", "g", lambda D: NatTrans("bad", D.on1["u"], D.on1["v"],
                                         {"*": "zz"})),
     "transformation at g is invalid"),
    (_set("on2", "2id_u", lambda D: _z2_nat(D.on1["u"], "s")),
     "identity 2-cell at u not sent to identity"),
    (_set("on2", "g", lambda D: _z2_nat(D.on1["u"], "s")),
     "vertical composition ginv . g not preserved"),
]


@pytest.mark.parametrize("change, message", TWO_FUNCTOR_FAULTS,
                         ids=[m for _, m in TWO_FUNCTOR_FAULTS])
def test_two_functor_faults_are_named(change, message):
    assert check_two_functor(_walking_iso_into_z2(lambda D: None)) == (
        True, None)
    assert check_two_functor(_walking_iso_into_z2(change)) == (False, message)


def idempotent_twocat(h):
    """One object *, 1-cells id and an idempotent e, and 2-cells 2id_id,
    2id_e and t : e => e with t.t = 2id_e vertically.  2id_id is the
    horizontal unit, and h lists the horizontal composites 2id_e * 2id_e,
    2id_e * t, t * 2id_e and t * t."""
    cells1 = FinCat("idem.1", ("*",), {"id": "*", "e": "*"},
                    {"id": "*", "e": "*"}, {"*": "id"},
                    {("id", "id"): "id", ("id", "e"): "e", ("e", "id"): "e",
                     ("e", "e"): "e"})
    over = {"2id_id": "id", "2id_e": "e", "t": "e"}
    vcomp = {("2id_id", "2id_id"): "2id_id", ("2id_e", "2id_e"): "2id_e",
             ("2id_e", "t"): "t", ("t", "2id_e"): "t", ("t", "t"): "2id_e"}
    hcomp = dict(zip([("2id_e", "2id_e"), ("2id_e", "t"), ("t", "2id_e"),
                      ("t", "t")], h))
    for c in over:
        hcomp[("2id_id", c)] = hcomp[(c, "2id_id")] = c
    return TwoCat("idem", cells1, over, dict(over),
                  {"id": "2id_id", "e": "2id_e"}, vcomp, hcomp)


@pytest.mark.parametrize("h, faults", [
    (("2id_e", "t", "t", "2id_e"), []),
    (("2id_id", "t", "t", "t"),
     ["horizontal composite 2id_e * 2id_e mislabelled"]),
    (("t", "2id_e", "2id_e", "t"),
     ["horizontal identity law fails at (e, e)"]),
    (("2id_e", "t", "t", "t"),
     ["interchange fails at (%s)" % q for q in (
         "2id_e,t,t,2id_e", "t,t,t,2id_e", "t,2id_e,2id_e,t",
         "t,2id_e,t,t", "t,t,2id_e,t", "2id_e,t,t,t")]),
], ids=["valid", "mislabelled", "identity law", "interchange"])
def test_horizontal_faults_are_named(h, faults):
    """Each table makes the 2-cells under * a monoid, so the horizontal
    layer is a category; all but the first break a law over the 1-cells.
    A broken law is reported alone: a broken unit law gives one line, not
    the interchange failures it causes."""
    assert validate_two_cat(idempotent_twocat(h)) == faults


def _counted_twocat(A):
    """A over composition tables that count their lookups."""
    C = A.cells1
    cells1 = FinCat(C.name, C.objects, C.mor_src, C.mor_tgt, C.identities,
                    _CountedTable(C.comp))
    return TwoCat(A.name, cells1, A.two_src, A.two_tgt, A.two_id,
                  _CountedTable(A.vcomp), _CountedTable(A.hcomp))


@pytest.mark.parametrize("A, reads_more", [
    (two_cat_from_cat(standard.chain_cat(1)), False),
    (two_cat_from_cat(standard.chain_cat(3)), False),
    (two_cat_from_cat(standard.chain_cat(9)), False),
    (standard.chain3_twocat(), False),
    (two_cat_from_cat(standard.diamond()), False),
    (z2_loop_twocat(), True),
    (standard.walking_iso_twocat(), True)],
    ids=["chain1", "chain3", "chain9", "chain3_twocat", "diamond", "z2_loop",
         "walking_iso"])
def test_two_cell_laws_read_only_plural_hom_sets(A, reads_more):
    """On a valid index, the three layer checks read each entry of their
    tables once, and the labelling check reads each horizontal entry and
    its two boundary composites.  The laws read more only where a layer
    has a hom-set of two or more elements: on a thin poset or a chain_n
    index, nothing."""
    B = _counted_twocat(A)
    assert validate_two_cat(B) == []
    C, V, H = B.cells1.comp, B.vcomp, B.hcomp
    at_labels = (len(C) + 2 * len(H), len(V), 2 * len(H))
    reads = (C.reads, V.reads, H.reads)
    assert all(r >= n for r, n in zip(reads, at_labels))
    assert (reads != at_labels) == reads_more


def test_non_parallel_two_cell_is_named():
    """x : id_0 => a, composable vertically, runs between 1-cells with
    different targets."""
    A = two_cat_from_cat(standard.two(), "skew")
    vcomp = dict(A.vcomp)
    vcomp[("x", "2id_id_0")] = vcomp[("2id_a", "x")] = "x"
    B = TwoCat("skew", A.cells1, dict(A.two_src, x="id_0"),
               dict(A.two_tgt, x="a"), A.two_id, vcomp, A.hcomp)
    assert validate_two_cat(B) == ["2-cell x boundary not parallel"]
