import gc
import itertools
import random
import tracemalloc

import pytest

from omloq.dynalg import (
    ACTION_PAIR_CAP,
    PAIR_PARTNERS,
    DynAlgebra,
    SamplePolicy,
    verify_ida,
    verify_module,
    verify_toda,
)
from omloq.oml import catalog, check_ortho_iso, sasaki_projection, validate_oml
from omloq.report import ValidationReport
from omloq.testmonoid import generate_T
from test_witness_variants import PATCHES


def gens(alg, *labels):
    l = alg.l
    return [alg.delta(l.index(s)) for s in labels]


def test_mul_examples(algebra_for):
    alg = algebra_for("mo", 2)
    pa, pb = gens(alg, "a", "b")
    some = alg.elem((0, 3, 5))
    assert alg.unit * some == some
    assert alg.zero * some == alg.zero
    prod = pa * pb
    composed = alg.monoid.cayley[pa.ids[0]][pb.ids[0]]
    assert prod == alg.singleton(composed)


def test_mul_rejects_foreign_elements(algebra_for):
    a = algebra_for("mo", 2)
    b = DynAlgebra(generate_T(catalog("boolean", 2)))
    with pytest.raises(ValueError):
        a.mul(a.unit, b.unit)


def test_star_examples(algebra_for):
    alg = algebra_for("mo", 2)
    pa, pb = gens(alg, "a", "b")
    assert pa.star() == pa
    assert alg.zero.star() == alg.zero
    assert (pa * pb).star() == pb * pa
    for x in [alg.one, pa | pb, alg.elem((0, 2, 7))]:
        assert x.star().star() == x
        assert (x * pa).star() == pa.star() * x.star()


def test_tilde_examples(algebra_for):
    alg = algebra_for("mo", 2)
    l = alg.l
    assert alg.tilde(alg.zero) == alg.unit  # empty join is bottom; its perp is top
    for m in l.elements():
        assert alg.tilde(alg.delta(m)) == alg.delta(l.perp[m])
    pa, pb = gens(alg, "a", "b")
    assert alg.tilde(alg.tilde(pa | pb)) == alg.unit  # a join b is top in mo2


def test_tests_are_shared_singletons(algebra_for):
    alg = algebra_for("mo", 2)
    l = alg.l
    pa, pb = gens(alg, "a", "b")
    for m in l.elements():
        assert alg.delta(m) is alg.delta(m)
        assert alg.delta(m) is alg.singleton(alg.monoid.gen_id[m])
        assert alg.tilde(alg.delta(m)) is alg.delta(l.perp[m])
    assert alg.tilde(pa | pb) is alg.delta(l.bot)
    for i in alg.carrier:
        assert alg.singleton(i) is alg.singleton(i)
    assert alg.unit is alg.singleton(alg.monoid.unit_id)


def test_element_equality_is_per_algebra(algebra_for):
    alg = algebra_for("mo", 2)
    # a punctured-carrier control shares the monoid, so its ids coincide with alg's
    other = DynAlgebra(alg.monoid, carrier=alg.carrier[:-1])
    assert alg.elem((0, 3)) != other.elem((0, 3))
    assert alg.singleton(0) != other.singleton(0)
    x, y = alg.elem((5, 3, 0)), alg.elem((0, 3, 5))
    assert x is not y and x == y and hash(x) == hash(y)
    assert len({x, y, other.elem((0, 3, 5))}) == 2
    # the atom decomposition hands out the interned singletons
    assert all(a is alg.singleton(a.ids[0]) for a in alg.h_map(alg.elem((0, 4, 9))))


def test_element_operators_route_through_the_instance(algebra_for):
    # patched-instance negative controls rely on the operators calling alg's methods
    alg = DynAlgebra(algebra_for("mo", 2).monoid)
    sentinel = alg.elem((1, 2))
    for op in ("mul", "union", "star", "tilde"):
        setattr(alg, op, lambda *args: sentinel)
    x = alg.singleton(0)
    assert x * x is sentinel and x | x is sentinel
    assert x.star() is sentinel and x.tilde() is sentinel


def test_tilde_tilde_examples(algebra_for):
    alg = algebra_for("mo", 2)
    l = alg.l
    assert alg.tilde_tilde(alg.zero) == alg.delta(l.bot)
    for m in l.elements():
        assert alg.tilde_tilde(alg.delta(m)) == alg.delta(m)
    pa, pap = gens(alg, "a", "a'")
    assert alg.tilde_tilde(pa | pap) == alg.delta(l.top)


def test_tilde_tilde_closed_form_everywhere(algebra_for, policy):
    # the closed form is compared inside tilde_tilde; exercise it broadly
    for key in [("chain2", 0), ("boolean", 2), ("boolean", 3), ("mo", 2), ("mo", 3)]:
        alg = algebra_for(*key)
        for x in policy.elements(alg):
            alg.tilde_tilde(x)


def test_action_examples(algebra_for):
    alg = algebra_for("mo", 2)
    l = alg.l
    for v in l.elements():
        assert alg.action(alg.unit, v) == v
    for u in l.elements():
        for v in l.elements():
            assert alg.action(alg.delta(u), v) == sasaki_projection(l, u, v)
    a, b = l.index("a"), l.index("b")
    assert alg.action(alg.delta(a), b) == a


def test_action_on_all_corpus_matches_projection(algebra_for):
    from conftest import CORPUS_SPECS

    for name, k in CORPUS_SPECS:
        alg = algebra_for(name, k)
        l = alg.l
        for u in l.elements():
            for v in l.elements():
                assert alg.action(alg.delta(u), v) == sasaki_projection(l, u, v)


def equiv(alg, s, t):
    """s and t act identically on every test."""
    return alg.action_table(s) == alg.action_table(t)


def test_equiv_examples(algebra_for):
    alg = algebra_for("mo", 2)
    l = alg.l
    pa, pb = gens(alg, "a", "b")
    assert equiv(alg, pa, pa)
    assert not equiv(alg, pa, pb)
    # witness at the top test: actions differ there
    assert alg.action(pa, l.top) != alg.action(pb, l.top)


def test_equiv_vs_double_tilde():
    # equality of double-tilde images does not imply equivalence; the
    # counterexample needs a non-distributive lattice.  On a Boolean carrier
    # the pointwise join of projections is again a projection action, so no
    # counterexample exists there.
    alg_b2 = DynAlgebra(generate_T(catalog("boolean", 2)))
    for r in range(2, len(alg_b2.carrier) + 1):
        for ids in itertools.combinations(alg_b2.carrier, r):
            a = alg_b2.elem(ids)
            assert equiv(alg_b2, a, alg_b2.tilde_tilde(a))

    alg = DynAlgebra(generate_T(catalog("mo", 2)))
    found = None
    for r in range(2, 4):
        for ids in itertools.combinations(alg.carrier, r):
            a = alg.elem(ids)
            if not equiv(alg, a, alg.tilde_tilde(a)):
                found = a
                break
        if found:
            break
    assert found is not None
    assert alg.tilde_tilde(found) == alg.tilde_tilde(alg.tilde_tilde(found))


def test_test_lattice_chain2(algebra_for):
    alg = algebra_for("chain2")
    tk, delta, rep = alg.test_lattice()
    assert rep.ok
    assert tk.n == 2
    assert check_ortho_iso(delta).ok


@pytest.mark.parametrize("key", [("mo", 2), ("boolean", 3)])
def test_test_lattice_isomorphic(algebra_for, key):
    alg = algebra_for(*key)
    tk, delta, rep = alg.test_lattice()
    assert rep.ok, [c.name for c in rep.failures]
    assert validate_oml(tk).ok
    assert check_ortho_iso(delta).ok
    assert tk.n == alg.l.n


def test_normal_form(algebra_for):
    alg = algebra_for("mo", 2)
    assert alg.normal_form(alg.zero) == []
    assert [p.ids for p in alg.normal_form(alg.unit)] == [alg.unit.ids]
    pa, pb = gens(alg, "a", "b")
    x = pa | (pa * pb)
    parts = alg.normal_form(x)
    assert len(parts) == 2
    assert alg.union_all(parts) == x
    # uniqueness: different singleton sets give different unions
    others = [alg.elem(ids) for ids in itertools.combinations(alg.carrier, 2)]
    joins = [alg.union_all(alg.normal_form(o)).ids for o in others]
    assert len(set(joins)) == len(others)


def test_h_map(algebra_for, policy):
    alg = algebra_for("mo", 2)
    assert alg.h_map(alg.zero) == []
    t = alg.singleton(5)
    assert [a.ids for a in alg.h_map(t)] == [t.ids]
    x = alg.elem((0, 4, 9))
    atoms = alg.h_map(x)
    assert len(atoms) == 3
    assert alg.union_all(atoms) == x
    for e in policy.elements(alg):
        assert alg.union_all(alg.h_map(e)) == e
        assert [a.ids for a in alg.h_map(e)] == [a.ids for a in alg.normal_form(e)]


def test_atoms_are_exactly_singletons(algebra_for, policy):
    alg = algebra_for("mo", 2)
    carrier = set(alg.carrier)
    for e in policy.elements(alg):
        is_atom = len(e.ids) == 1
        if is_atom:
            assert e.ids[0] in carrier
            strictly_below = [s for s in policy.elements(alg) if set(s.ids) < set(e.ids)]
            assert all(s == alg.zero for s in strictly_below)
        elif len(e.ids) > 1:
            assert any(set([i]) < set(e.ids) for i in e.ids)


@pytest.mark.parametrize(
    "key", [("chain2", 0), ("boolean", 2), ("mo", 2), ("mo", 3)]
)
def test_ida_suite(algebra_for, policy, key):
    rep = verify_ida(algebra_for(*key), policy)
    assert rep.ok, [(c.name, c.witness) for c in rep.failures]


def test_ida_exhaustive_mode_flag(algebra_for, policy):
    assert policy.is_exhaustive(algebra_for("boolean", 2))
    assert not policy.is_exhaustive(algebra_for("mo", 2))


@pytest.mark.parametrize("key", [("chain2", 0), ("boolean", 2), ("mo", 2)])
def test_toda_suite(algebra_for, policy, key):
    rep = verify_toda(algebra_for(*key), policy)
    assert rep.ok, [(c.name, c.witness) for c in rep.failures]


def test_toda_negative_control(policy):
    monoid = generate_T(catalog("mo", 2))
    composite = next(i for i in monoid.ids() if len(monoid.elems[i].witness) > 1)
    corrupted = DynAlgebra(monoid, carrier=tuple(i for i in monoid.ids() if i != composite))
    rep = verify_toda(corrupted, policy)
    assert rep["TODA2.minimality"].status == "fail"
    assert rep["TODA2.minimality"].witness


def test_sfda_is_conjunction_of_ida_and_test_lattice(algebra_for, policy):
    # the semi-Foulis verdict for an instance is exactly: tilde axioms hold
    # and the test set extracts as a complete orthomodular lattice
    for key in [("chain2", 0), ("boolean", 2), ("mo", 2)]:
        alg = algebra_for(*key)
        _, _, tl = alg.test_lattice()
        ida = verify_ida(alg, policy)
        assert tl.ok and ida.ok


@pytest.mark.parametrize("key", [("chain2", 0), ("boolean", 2), ("mo", 2)])
def test_module_suite(algebra_for, policy, key):
    rep = verify_module(algebra_for(*key), policy)
    assert rep.ok, [(c.name, c.witness) for c in rep.failures]


def test_each_action_is_computed_once(monkeypatch):
    # a fresh algebra, so no earlier suite has filled its action tables
    alg = DynAlgebra(generate_T(catalog("mo", 3)))
    calls = []
    action = DynAlgebra.action

    def counted(self, k, v):
        calls.append((k.ids, v))
        return action(self, k, v)

    monkeypatch.setattr(DynAlgebra, "action", counted)
    assert verify_module(alg).ok
    assert len(calls) == len(set(calls))


def test_module_suite_leaves_no_action_tables():
    # the suite memoises action tables for its call only; kept on the algebra, the tables
    # of mo(3)'s sample and of the suite's fresh unions and products take about 625 KiB
    alg = DynAlgebra(generate_T(catalog("mo", 3)))
    policy = SamplePolicy()
    policy.elements(alg)  # the pairs are streamed from it, so nothing else is cached
    alg.test_lattice()
    alg.monoid.cayley
    before = set(vars(alg))
    gc.collect()
    tracemalloc.start()
    try:
        held, _ = tracemalloc.get_traced_memory()
        assert verify_module(alg, policy).ok
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - held
    finally:
        tracemalloc.stop()
    assert retained < 64 << 10
    assert set(vars(alg)) == before


def test_toda_acts_once_per_singleton_and_test(monkeypatch):
    # TODA4 compares each singleton's table with every later one's, and builds each once
    alg = DynAlgebra(generate_T(catalog("mo", 4)))
    calls = []
    action = DynAlgebra.action

    def counted(self, k, v):
        calls.append((k.ids, v))
        return action(self, k, v)

    monkeypatch.setattr(DynAlgebra, "action", counted)
    assert verify_toda(alg).ok
    assert len(calls) == len(alg.carrier) * alg.l.n == 660


def test_double_tilde_is_computed_once_per_ids(monkeypatch):
    # a fresh boolean(3) algebra, |T| = 8, so the suite runs over all 65,536 pairs
    alg = DynAlgebra(generate_T(catalog("boolean", 3)))
    policy = SamplePolicy()
    assert policy.is_exhaustive(alg)
    calls = []
    tilde_tilde = DynAlgebra.tilde_tilde

    def counted(self, a):
        calls.append(a.ids)
        return tilde_tilde(self, a)

    monkeypatch.setattr(DynAlgebra, "tilde_tilde", counted)
    before = set(vars(alg))
    assert verify_ida(alg, policy).ok
    assert calls and len(calls) == len(set(calls))
    # the memo belongs to the suite call, so the algebra gains no attribute
    assert set(vars(alg)) == before


def ida_by_definition(alg, policy):
    """IDA2, IDA3 and IDA5 straight from their definitions, on every pair and join family
    through the instance's operations with no memo: (status, first witness) per check."""
    elems, pairs = policy.elements(alg), policy.pairs(alg)
    t, tt = alg.tilde, alg.tilde_tilde
    families = [[], *([x] for x in elems), *([x, y] for x, y in pairs), elems]
    witnesses = {
        "IDA2.tilde_absorbs_right_closure": (
            f"x={x!r} y={y!r}" for x, y in pairs if t(alg.mul(x, tt(y))) != t(alg.mul(x, y))),
        # union_all is handed a generator of closures, as the suite hands it
        "IDA3.tilde_absorbs_closure_of_joins": (
            repr(fam[:4]) for fam in families
            if t(alg.union_all(tt(x) for x in fam)) != t(alg.union_all(fam))),
        "IDA5.sasaki_shape": (
            f"x={x!r} y={y!r}" for x, y in pairs
            if tt(alg.mul(tt(x), y)) != t(alg.union(t(x), t(alg.union(t(x), y))))),
    }
    firsts = {name: next(w, None) for name, w in witnesses.items()}
    return {name: ("pass", "") if w is None else ("fail", w) for name, w in firsts.items()}


IDA_CASES = [
    pytest.param(("boolean", 2), None, None, id="boolean-2"),
    pytest.param(("mo", 2), None, None, id="mo-2"),
    pytest.param(("mo", 3), None, None, id="mo-3"),
    *(pytest.param(("boolean", 2), d, None, id=f"boolean-2-without-{d}") for d in range(4)),
    *(pytest.param(("mo", 2), d, None, id=f"mo-2-without-{d}") for d in (0, 3, 5, 6, 11, 17)),
    *(pytest.param((name, 2), None, op, id=f"{name}-2-{op}") for name in ("boolean", "mo")
      for op in ("mul", "tilde", "tilde_tilde", "union_all")),
]


@pytest.mark.parametrize("key, dropped, op", IDA_CASES)
def test_ida_memos_match_the_definition(algebra_for, policy, key, dropped, op):
    # exhaustive boolean(2), sampled mo(2) and mo(3), punctured carriers, and algebras with
    # one operation patched on the instance: the memoised sweeps give the oracle's reports
    monoid = algebra_for(*key).monoid
    alg = DynAlgebra(monoid, None if dropped is None else
                     tuple(i for i in monoid.ids() if i != dropped))
    if op is not None:
        setattr(alg, op, PATCHES[op](getattr(alg, op), alg))
    report = verify_ida(alg, policy)
    expected = ida_by_definition(alg, policy)
    assert {name: (report[name].status, report[name].witness) for name in expected} == expected
    if op in ("mul", "tilde_tilde", "union_all"):
        assert "fail" in {status for status, _ in expected.values()}


def test_ida5_memo_tells_tilde_from_double_tilde():
    # IDA5 keeps passes per class (~x, ~~x).  Here tilde of a two-member set without the
    # zero projection also holds it, so double tilde keeps its closed form but ~x moves:
    # {pi(p), pi(q)} passes at y = {pi(0), pi(p)}, while {pi(0), pi(p), pi(q)}, with the
    # same ~~x and another ~x, fails there.  A memo keyed by ~~x alone skips the failure.
    alg = DynAlgebra(generate_T(catalog("boolean", 3)))
    policy = SamplePolicy()
    assert policy.is_exhaustive(alg)
    tilde, zero = alg.tilde, alg.delta(alg.l.bot)
    alg.tilde = lambda a: (
        tilde(a) | zero if len(a.ids) == 2 and zero.ids[0] not in a.ids else tilde(a))
    expected = ida_by_definition(alg, policy)["IDA5.sasaki_shape"]
    assert expected == ("fail", "x={pi(0), pi(p), pi(q)} y={pi(0), pi(p)}")
    report = verify_ida(alg, policy)["IDA5.sasaki_shape"]
    assert (report.status, report.witness) == expected


def test_ida_makes_one_product_and_union_per_operand_set():
    # exhaustive boolean(3), 65,536 pairs: IDA2's right side takes one product per pair;
    # its left side (per x and closure of y) and IDA5 (per tilde class of x and y) each
    # take at most |L|·256 = 2,048, and IDA5 two unions per class and y
    alg = DynAlgebra(generate_T(catalog("boolean", 3)))
    policy = SamplePolicy()
    assert policy.is_exhaustive(alg) and len(policy.pairs(alg)) == 65_536
    calls = {"mul": 0, "union": 0}
    for op in calls:
        def counted(*args, op=op, orig=getattr(alg, op)):
            calls[op] += 1
            return orig(*args)

        setattr(alg, op, counted)
    assert verify_ida(alg, policy).ok
    assert calls["mul"] <= 65_536 + 2 * alg.l.n * 256 == 69_632
    assert calls["union"] <= 2 * alg.l.n * 256 == 4_096


def module_by_definition(alg, policy):
    """verify_module's checks, each its own sweep through the instance's operations: A1 on
    every sample element, A2 and A3 test by test, one union per family and check, one
    product per pair and check."""
    r = ValidationReport()
    l = alg.l
    tests = list(l.elements())
    elems, pairs = policy.elements(alg), policy.action_pairs(alg)
    tk, _, tl_report = alg.test_lattice()
    if not tl_report.ok:
        r.add("precondition.test_lattice", False, "test lattice extraction failed")
        return r
    act = alg.action_tables()
    tilde, tilde_tilde = alg.tilde, alg.tilde_tilde
    families = [[], *([x] for x in elems), *([x, y] for x, y in pairs), elems]

    def broken_joins():
        for k in elems:
            a = act(k)
            yield from (f"k={k!r} v={l.names[x]},{l.names[y]}" for x in tests for y in tests
                        if a[tk.join[x][y]] != tk.join[a[x]][a[y]])
            if a[tk.bot] != tk.bot:
                yield f"k={k!r} at empty join"

    r.first("A1.action_preserves_test_joins", broken_joins())
    r.first("A2.joins_act_pointwise", (
        f"family size {len(fam)} at {l.names[v]}" for fam in families
        for total, parts in ((act(alg.union_all(fam)), [act(t) for t in fam]),) for v in tests
        if total[v] != tk.join_all(part[v] for part in parts)))
    r.first("A3.product_acts_by_composition", (
        f"u={u!r} s={s!r} v={l.names[v]}" for u, s in pairs
        for us, on_u, on_s in ((act(alg.mul(u, s)), act(u), act(s)),) for v in tests
        if us[v] != on_u[on_s[v]]))
    r.first("A4.unit_acts_as_identity", (l.names[v] for v in tests if act(alg.unit)[v] != v))
    r.first("triple_tilde_collapses",
            (repr(x) for x in elems if tilde(tilde_tilde(x)) != tilde(x)))
    r.first("double_tilde_preserves_joins", (
        f"family size {len(fam)}" for fam in families
        if tilde_tilde(alg.union_all(fam))
        != alg.delta(tk.join_all(alg._test_index(tilde_tilde(t)) for t in fam))))
    r.first("double_tilde_intertwines_product_with_action", (
        f"u={u!r} v={v!r}" for u, v in pairs
        if tilde_tilde(alg.mul(u, v)) != alg.delta(act(u)[alg._test_index(tilde_tilde(v))])))

    by_action = {}
    for e in elems:
        by_action.setdefault(act(e), []).append(e)
    eq_pairs = [(g[i], g[i + 1]) for g in by_action.values() for i in range(len(g) - 1)][:40]
    if not eq_pairs:
        eq_pairs = [(elems[0], elems[0])]
    r.first(
        "equiv_is_congruence",
        (f"{kind} congruence at u={u!r} v={v!r} s={s!r} t={t!r}"
         for u, v in eq_pairs for s, t in eq_pairs[:10]
         for kind, op in (("product", alg.mul), ("join", alg.union))
         if act(op(u, s)) != act(op(v, t))),
        detail=f"{len(eq_pairs)} equivalent pairs exercised",
    )
    return r


MODULE_CASES = {
    "boolean-2": (("boolean", 2), None, None),
    "mo-2": (("mo", 2), None, None),
    "mo-3": (("mo", 3), None, None),
    **{f"boolean-2-without-{d}": (("boolean", 2), d, None) for d in range(4)},
    **{f"mo-2-without-{d}": (("mo", 2), d, None) for d in (0, 3, 5, 6, 11, 17)},
    **{f"{name}-2-{op}": ((name, 2), None, op) for name in ("boolean", "mo") for op in PATCHES},
}


def module_case(algebra_for, key, dropped, op):
    """A fresh algebra on key's monoid, its carrier without ``dropped``, ``op`` patched."""
    monoid = algebra_for(*key).monoid
    alg = DynAlgebra(monoid, None if dropped is None else
                     tuple(i for i in monoid.ids() if i != dropped))
    if op is not None:
        setattr(alg, op, PATCHES[op](getattr(alg, op), alg))
    return alg


@pytest.fixture(scope="module")
def module_definitions(algebra_for, policy):
    return {case: module_by_definition(module_case(algebra_for, *args), policy).checks
            for case, args in MODULE_CASES.items()}


@pytest.mark.parametrize("case", MODULE_CASES)
def test_module_sweeps_match_the_definition(algebra_for, policy, module_definitions, case):
    # exhaustive boolean(2), sampled mo(2) and mo(3), punctured carriers, and algebras with
    # one operation patched on the instance: the shared sweeps give the separate ones' report
    report = verify_module(module_case(algebra_for, *MODULE_CASES[case]), policy)
    assert report.checks == module_definitions[case]


def test_module_sweeps_are_compared_where_they_fail(module_definitions):
    # each check that shares a sweep, and A1, which checks each distinct table once, fails
    # on some case
    failing = {c.name for checks in module_definitions.values() for c in checks
               if c.status == "fail"}
    assert failing >= {
        "A1.action_preserves_test_joins", "A2.joins_act_pointwise",
        "A3.product_acts_by_composition", "double_tilde_preserves_joins",
        "double_tilde_intertwines_product_with_action"}


def test_module_makes_one_product_per_action_pair_and_one_union_per_family():
    # mo(4): 2504 action pairs and 2819 join families.  A product whose right operand is a
    # singleton is an action's k·delta(v); the others are the shared A3 sweep's, one per
    # pair, and at most 800 in the congruence check (40 × 10 pairs, two sides)
    alg = DynAlgebra(generate_T(catalog("mo", 4)))
    policy = SamplePolicy()
    pairs = policy.action_pairs(alg)
    families = len(policy.elements(alg)) + len(pairs) + 2
    assert (len(pairs), families) == (2504, 2819)
    calls = {"mul": 0, "union_all": 0}
    mul, union_all = alg.mul, alg.union_all

    def counted_mul(a, b):
        calls["mul"] += len(b.ids) != 1
        return mul(a, b)

    def counted_union_all(elems):
        calls["union_all"] += 1
        return union_all(elems)

    alg.mul, alg.union_all = counted_mul, counted_union_all
    assert verify_module(alg, policy).ok
    assert calls["mul"] <= len(pairs) + 800
    assert calls["union_all"] <= families


@pytest.mark.parametrize("key", [("boolean", 4), ("mo", 4)], ids=lambda key: f"{key[0]}-{key[1]}")
def test_module_heap_peak_stays_small(key):
    # the shared sweeps hand each union and product straight to their two checks and keep
    # no list of them; the peak, about 770 KiB, is the call's memo of action tables
    alg = DynAlgebra(generate_T(catalog(*key)))
    policy = SamplePolicy()
    policy.pairs(alg)  # the sample is built and cached before the measurement
    alg.test_lattice()
    tracemalloc.start()
    try:
        assert verify_module(alg, policy).ok
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.fixture(scope="module")
def boolean3_heap_peaks():
    """tracemalloc peaks of one exhaustive boolean(3) run: verify_ida, then the whole window.

    65,536 pairs on boolean(3): a stored list of them alone would take about 4 MiB. Both
    heap tests read this one run, so the slow traced sweep is made once.
    """
    alg = DynAlgebra(generate_T(catalog("boolean", 3)))
    policy = SamplePolicy()
    policy.elements(alg)
    tracemalloc.start()
    try:
        policy.pairs(alg)
        assert verify_ida(alg, policy).ok
        _, ida_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        for suite in (verify_toda, verify_module):
            assert suite(alg, policy).ok
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return ida_peak, max(ida_peak, peak)


@pytest.mark.parametrize("key", [("boolean", 3), ("mo", 3), ("mo", 4)],
                         ids=lambda key: f"{key[0]}-{key[1]}")
def test_ida_heap_peak_stays_small(key, request):
    # join families come one at a time, not as a list (65,536 pairs on boolean(3)), the
    # tilde memo keeps no fresh product ids (about 1,750 on the sampled mo(3)), and the
    # sweeps' memos are keyed by tilde images, not by pairs
    if key == ("boolean", 3):
        peak, _ = request.getfixturevalue("boolean3_heap_peaks")
    else:
        alg = DynAlgebra(generate_T(catalog(*key)))
        policy = SamplePolicy()
        policy.pairs(alg)  # the sample is built and cached before the measurement
        tracemalloc.start()
        try:
            assert verify_ida(alg, policy).ok
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 400 << 10


def test_exhaustive_sweep_stores_no_pair_list(boolean3_heap_peaks):
    # the pair sweep, verify_ida, verify_toda and verify_module all stay far below the
    # 4 MiB of a stored pair list
    ida_peak, peak = boolean3_heap_peaks
    assert ida_peak < 400 << 10
    assert peak < 512 << 10


def listed_pairs(policy, alg):
    """The pair sample as one stored list: the reference for the streamed sweep."""
    elems = policy.elements(alg)
    if policy.is_exhaustive(alg):
        return [(x, y) for x in elems for y in elems]
    pool = [alg.zero, alg.one, alg.unit]
    rng = random.Random(policy.seed + 1)
    out = []
    for x in elems:
        partners = pool + [x] + [elems[rng.randrange(len(elems))] for _ in range(PAIR_PARTNERS)]
        out.extend((x, y) for y in partners)
    return out


@pytest.mark.parametrize(
    "key, dropped",
    [(("boolean", 3), None), (("mo", 2), None), (("mo", 3), None), (("mo", 4), None),
     (("boolean", 4), None), (("mo", 2), 3)],
)
def test_streamed_pairs_are_the_listed_pairs(algebra_for, policy, key, dropped):
    alg = algebra_for(*key)
    if dropped is not None:
        alg = DynAlgebra(alg.monoid, carrier=tuple(i for i in alg.monoid.ids() if i != dropped))
    ref = listed_pairs(policy, alg)
    pairs = policy.pairs(alg)
    assert list(pairs) == ref
    assert list(pairs) == ref  # a second pass repeats the sequence
    n = len(policy.elements(alg))
    assert len(pairs) == (n * n if policy.is_exhaustive(alg) else n * (4 + PAIR_PARTNERS))
    assert len(pairs) == len(ref)
    step = len(ref) // ACTION_PAIR_CAP + 1 if len(ref) > ACTION_PAIR_CAP else 1
    action = policy.action_pairs(alg)
    assert list(action) == ref[::step]
    assert len(action) == len(ref[::step])


def test_module_join_homomorphism_exhaustive_on_b2(algebra_for):
    # double tilde sends unions to test-lattice joins, checked on all pairs
    alg = algebra_for("boolean", 2)
    tk, _, _ = alg.test_lattice()
    elems = SamplePolicy().elements(alg)
    for x in elems:
        for y in elems:
            lhs = alg._test_index(alg.tilde_tilde(x | y))
            rhs = tk.join[alg._test_index(alg.tilde_tilde(x))][
                alg._test_index(alg.tilde_tilde(y))
            ]
            assert lhs == rhs


def test_sample_policy_determinism(algebra_for):
    alg = algebra_for("mo", 2)
    a = [e.ids for e in SamplePolicy().elements(alg)]
    b = [e.ids for e in SamplePolicy().elements(alg)]
    assert a == b
    fresh = DynAlgebra(alg.monoid)
    c = [e.ids for e in SamplePolicy().elements(fresh)]
    assert a == c
    different = [e.ids for e in SamplePolicy(seed=99).elements(fresh)]
    assert a != different
