import csv
import itertools
import random

import pytest

from omloq.dynalg import DynAlgebra
from omloq.errors import SizeExceeded
from omloq.linmap import EndoMap, LinMap, orth_adjoint
from omloq.oml import catalog
from omloq.testmonoid import (
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
