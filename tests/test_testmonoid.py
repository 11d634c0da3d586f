import csv
import itertools
import random
from dataclasses import dataclass, field
from functools import cached_property

import pytest

from conftest import CORPUS_SPECS
from omloq import testmonoid
from omloq.dynalg import DynAlgebra
from omloq.errors import SizeExceeded
from omloq.linmap import EndoMap, LinMap, NotLinear, orth_adjoint, sasaki_map, verify_foulis
from omloq.oml import Oml, catalog, validate_oml
from omloq.report import PASS
from omloq.testmonoid import (
    DEFAULT_MONOID_CAP,
    MonoidElem,
    bruteforce_closure,
    export_cayley_csv,
    generate_T,
)

# sizes frozen from the independent raw-table closure oracle
EXPECTED_SIZES = {
    ("chain2", 0): 2,
    ("boolean", 1): 2,
    ("boolean", 2): 4,
    ("boolean", 3): 8,
    ("boolean", 4): 16,
    ("mo", 1): 4,
    ("mo", 2): 18,
    ("mo", 3): 38,
    ("mo", 4): 66,
}


@pytest.mark.parametrize("name,k", sorted(EXPECTED_SIZES))
def test_generate_matches_bruteforce_closure(name, k):
    l = catalog(name, k)
    monoid = generate_T(l)
    assert monoid.size == EXPECTED_SIZES[(name, k)]
    assert {e.tbl for e in monoid.elems} == bruteforce_closure(l)


def test_chain2_monoid_is_zero_and_identity():
    l = catalog("chain2")
    monoid = generate_T(l)
    tables = {e.tbl for e in monoid.elems}
    assert tables == {(0, 0), (0, 1)}
    assert monoid.elems[monoid.unit_id].tbl == (0, 1)


def test_unit_is_the_generator_of_top(corpus):
    # pi(1) is the identity; verify_toda's minimality search relies on it
    for l in corpus:
        monoid = generate_T(l)
        assert monoid.unit_id == monoid.gen_id[l.top], l.name


def test_generate_rejects_non_orthomodular():
    with pytest.raises(ValueError, match="fails axioms"):
        generate_T(catalog("o6"))


def test_generate_cap():
    with pytest.raises(SizeExceeded, match=r"^monoid elements: 8 exceeds cap 7$"):
        generate_T(catalog("mo", 2), cap=7)


def test_compose_and_star_examples():
    mo2 = catalog("mo", 2)
    m = generate_T(mo2)
    a, b = mo2.index("a"), mo2.index("b")
    ga, gb = m.gen_id[a], m.gen_id[b]
    for x in m.ids():
        assert m.cayley[m.unit_id][x] == x
        assert m.cayley[x][m.unit_id] == x
    ab = m.cayley[ga][gb]
    names = mo2.names
    assert {names[x]: names[v] for x, v in enumerate(m.elems[ab].tbl)} == {
        "0": "0", "b'": "0", "a": "a", "a'": "a", "b": "a", "1": "a"
    }
    # star is word reversal: (pi_a pi_b)* = pi_b pi_a
    assert m.elems[m.star[ab]].witness == m.elems[ab].witness[::-1]
    for g in m.gen_id:
        assert m.star[g] == g
    assert m.star[m.unit_id] == m.unit_id


def test_star_is_involutive_antihomomorphism():
    m = generate_T(catalog("mo", 2))
    for x in m.ids():
        assert m.star[m.star[x]] == x
        for y in m.ids():
            assert m.star[m.cayley[x][y]] == m.cayley[m.star[y]][m.star[x]]


def test_witnesses_compose_to_tables(corpus):
    for l in corpus[:6]:
        m = generate_T(l)
        from omloq.linmap import sasaki_map

        for e in m.elems:
            tbl = tuple(l.elements())
            for gen in reversed(e.witness):
                g = sasaki_map(l, gen).tbl
                tbl = tuple(g[tbl[x]] for x in l.elements())
            assert tbl == e.tbl
            assert e.witness, "every element carries a generator word"


def test_every_element_is_linear_with_reversed_adjoint():
    mo2 = catalog("mo", 2)
    m = generate_T(mo2)
    for e in m.elems:
        res = orth_adjoint(EndoMap(mo2, e.tbl))
        assert isinstance(res, LinMap)
        assert res.adj.tbl == m.elems[m.star[e.id]].tbl


def test_minimality_subset_audit_small():
    # on chain2 and B2 every monoid element is a generator, so the only
    # closed superset of the generators is the whole carrier
    for name, k in [("chain2", 0), ("boolean", 2)]:
        l = catalog(name, k)
        m = generate_T(l)
        gens = set(m.gen_id)
        assert gens == set(m.ids())
        non_gens = [x for x in m.ids() if x not in gens]
        for r in range(len(non_gens)):
            for drop in itertools.combinations(non_gens, r + 1):
                keep = set(m.ids()) - set(drop)
                closed = all(
                    m.cayley[x][y] in keep for x in keep for y in keep
                )
                assert not closed, "a proper subset is closed: not minimal"


def test_minimality_by_witness_decomposition():
    # every element of a larger closure is a word in the generators
    mo3 = catalog("mo", 3)
    m = generate_T(mo3)
    for e in m.elems:
        assert all(0 <= g < mo3.n for g in e.witness)
        assert len(e.witness) >= 1


def test_boolean_monoid_is_meet_semilattice():
    for k in range(1, 5):
        l = catalog("boolean", k)
        m = generate_T(l)
        assert m.size == l.n
        assert set(m.gen_id) == set(m.ids())
        for x in l.elements():
            for y in l.elements():
                prod = m.cayley[m.gen_id[x]][m.gen_id[y]]
                assert prod == m.gen_id[l.meet[x][y]]
                assert prod == m.cayley[m.gen_id[y]][m.gen_id[x]]
        for x in m.ids():
            assert m.cayley[x][x] == x


def test_shortest_witness():
    mo2 = catalog("mo", 2)
    m = generate_T(mo2)
    lengths = {e.id: len(e.witness) for e in m.elems}
    # no product of two elements can beat the recorded witness by more than
    # concatenation allows: BFS levels are tight
    for e in m.elems:
        if lengths[e.id] > 1:
            head = e.witness[0]
            rest = m.id_of(_word_table(mo2, e.witness[1:]))
            assert lengths[rest] == lengths[e.id] - 1


def _word_table(l, word):
    from omloq.linmap import sasaki_map

    tbl = tuple(l.elements())
    for gen in reversed(word):
        g = sasaki_map(l, gen).tbl
        tbl = tuple(g[tbl[x]] for x in l.elements())
    return tbl


def test_cayley_export(tmp_path):
    m = generate_T(catalog("boolean", 2))
    path = tmp_path / "cayley.csv"
    export_cayley_csv(m, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "row,col,product"
    assert len(lines) == 1 + m.size * m.size
    rows = [tuple(map(int, row)) for row in csv.reader(lines[1:])]
    assert rows == [(a, b, m.cayley[a][b]) for a in m.ids() for b in m.ids()]


@pytest.mark.parametrize("name,k", sorted(EXPECTED_SIZES))
def test_cayley_table_composes_tables(name, k):
    m = generate_T(catalog(name, k))
    for a, b in itertools.product(m.ids(), repeat=2):
        ta, tb = m.elems[a].tbl, m.elems[b].tbl
        assert m.elems[m.cayley[a][b]].tbl == tuple(ta[x] for x in tb)


@pytest.mark.parametrize("name,k", [("boolean", 3), ("mo", 2), ("mo", 3), ("mo", 4)])
def test_setwise_product_matches_raw_tables(name, k):
    m = generate_T(catalog(name, k))
    alg = DynAlgebra(m)
    rng = random.Random(k)
    for _ in range(50):
        a = alg.elem(i for i in m.ids() if rng.random() < 0.3)
        b = alg.elem(i for i in m.ids() if rng.random() < 0.3)
        raw = {tuple(m.elems[x].tbl[v] for v in m.elems[y].tbl) for x in a.ids for y in b.ids}
        assert {m.elems[i].tbl for i in alg.mul(a, b).ids} == raw


def test_cayley_table_is_built_on_first_use():
    m = generate_T(catalog("mo", 3))
    assert "cayley" not in m.__dict__
    assert m.cayley[m.unit_id][m.unit_id] == m.unit_id
    assert "cayley" in m.__dict__


# ---------------------------------------------------------------------------
# generate_T and the Cayley table as they were before the closure moved into the one
# table store: a dict of tables and a second pass composing every pair.  Kept verbatim,
# but for the class name, as the oracle of the closure inside linmap._Carrier


@dataclass
class DictMonoid:
    l: Oml
    elems: list[MonoidElem]
    gen_id: tuple[int, ...]  # lattice element m -> id of pi_m
    unit_id: int
    star: tuple[int, ...]  # id -> id of its involution
    _by_tbl: dict[tuple[int, ...], int] = field(default_factory=dict, repr=False)

    @cached_property
    def cayley(self) -> tuple[tuple[int, ...], ...]:
        """Dense product table: cayley[a][b] is the id of tbl_a composed after tbl_b."""
        tbls = [e.tbl for e in self.elems]
        return tuple(tuple(self.id_of(tuple(ta[x] for x in tb)) for tb in tbls) for ta in tbls)

    def id_of(self, tbl: tuple[int, ...]) -> int:
        try:
            return self._by_tbl[tbl]
        except KeyError:
            raise KeyError("table does not belong to the generated monoid") from None


def dict_generate_T(l: Oml, cap: int = DEFAULT_MONOID_CAP) -> DictMonoid:
    rep = validate_oml(l)
    if not rep.ok:
        bad = ", ".join(c.name for c in rep.failures)
        raise ValueError(f"lattice fails axioms ({bad}); refusing to generate")

    by_tbl: dict[tuple[int, ...], int] = {}
    elems: list[MonoidElem] = []
    gen_tbls: list[tuple[int, ...]] = []

    def intern(tbl: tuple[int, ...], word: tuple[int, ...]) -> int | None:
        if tbl in by_tbl:
            return None
        if len(elems) >= cap:
            raise SizeExceeded(len(elems) + 1, cap, what="monoid elements")
        eid = len(elems)
        by_tbl[tbl] = eid
        elems.append(MonoidElem(eid, tbl, word))
        return eid

    gen_id = []
    for m in l.elements():
        tbl = sasaki_map(l, m).tbl
        gen_tbls.append(tbl)
        intern(tbl, (m,))
        gen_id.append(by_tbl[tbl])

    frontier = list(range(len(elems)))
    while frontier:
        fresh: list[int] = []
        for eid in frontier:
            tbl, word = elems[eid].tbl, elems[eid].witness
            for m in l.elements():
                g = gen_tbls[m]
                left = tuple(g[tbl[x]] for x in l.elements())
                new = intern(left, (m,) + word)
                if new is not None:
                    fresh.append(new)
                right = tuple(tbl[g[x]] for x in l.elements())
                new = intern(right, word + (m,))
                if new is not None:
                    fresh.append(new)
        frontier = fresh

    unit_tbl = tuple(l.elements())
    if unit_tbl not in by_tbl:
        raise AssertionError("identity map missing from closure")

    star = []
    for e in elems:
        # pi_m1 . ... . pi_mj reversed is pi_mj . ... . pi_m1: apply pi_m1 first
        tbl = unit_tbl
        for m in e.witness:
            g = gen_tbls[m]
            tbl = tuple(g[tbl[x]] for x in l.elements())
        if tbl not in by_tbl:
            raise AssertionError("reverse word escapes the closure")
        adj = orth_adjoint(EndoMap(l, e.tbl))
        if not isinstance(adj, LinMap) or adj.adj.tbl != tbl:
            raise AssertionError(f"word reversal disagrees with the adjoint for {e!r}")
        star.append(by_tbl[tbl])

    return DictMonoid(
        l=l,
        elems=elems,
        gen_id=tuple(gen_id),
        unit_id=by_tbl[unit_tbl],
        star=tuple(star),
        _by_tbl=by_tbl,
    )


@pytest.mark.parametrize("name,k", CORPUS_SPECS + [("mo", 5), ("mo", 8), ("boolean", 6)])
def test_closure_in_the_table_store_matches_the_dict_closure(name, k):
    l = catalog(name, k)
    m, old = generate_T(l), dict_generate_T(l)
    assert m.elems == old.elems  # ids, tables and witnesses
    assert (m.star, m.gen_id, m.unit_id) == (old.star, old.gen_id, old.unit_id)
    assert m.cayley == old.cayley
    assert all(m.id_of(e.tbl) == e.id for e in m.elems)


def test_monoid_tables_are_T_as_a_closed_foulis_carrier(corpus):
    for l in corpus:
        m = generate_T(l)
        c = m.tables
        assert c.size == c.width == m.size, l.name
        assert (c.col, c.adj, c.sas, c.e) == (list(m.ids()), list(m.star), list(m.gen_id), m.unit_id)
        rep = verify_foulis(l, c)
        assert rep.ok and rep["carrier.closed"].status == PASS, (l.name, rep.summary())


def test_id_of_is_minus_one_off_the_monoid():
    # verify_foulis interns pointwise joins into the store, past the monoid's ids
    mo2 = catalog("mo", 2)
    m = generate_T(mo2)
    verify_foulis(mo2, m.tables)
    outside = m.tables.tab[m.size:]
    assert outside and all(m.id_of(t) == -1 for t in outside)
    assert m.id_of(tuple(range(mo2.n))) == m.unit_id
    assert m.id_of((mo2.top,) * mo2.n) == -1


@pytest.mark.parametrize("name,k,caps", [("mo", 2, range(3, 18)), ("mo", 3, (20, 30, 37))])
def test_cap_bounds_the_table_store(name, k, caps, monkeypatch):
    # the cap is checked at each new element, not once per breadth-first level
    stores = []

    class Recorded(testmonoid._Carrier):
        def __init__(self, l, maps):
            super().__init__(l, maps)
            stores.append(self)

    monkeypatch.setattr(testmonoid, "_Carrier", Recorded)
    l = catalog(name, k)
    for cap in caps:
        stores.clear()
        with pytest.raises(SizeExceeded, match=rf"^monoid elements: {cap + 1} exceeds cap {cap}$"):
            generate_T(l, cap=cap)
        assert len(stores) == 1
        assert len(stores[0].tab) <= max(cap + 1, l.n), cap


def test_adjoint_disagreement_is_an_internal_invariant(monkeypatch):
    mo2 = catalog("mo", 2)

    def wrong_adjoint(f):
        res = orth_adjoint(f)
        return LinMap(res.base, res.base) if f.tbl != res.adj.tbl else res

    for patched in (lambda f: NotLinear("patched", ()), wrong_adjoint):
        monkeypatch.setattr(testmonoid, "orth_adjoint", patched)
        with pytest.raises(AssertionError, match="word reversal disagrees with the adjoint"):
            generate_T(mo2)
