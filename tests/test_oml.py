import dataclasses
from itertools import permutations, product

import pytest
from hypothesis import given, strategies as st

import omloq.oml
from omloq.errors import LatticeParseError, SizeExceeded
from omloq.oml import (
    MAX_ELEMENTS,
    OrthoIso,
    catalog,
    check_ortho_iso,
    enumerate_automorphisms,
    format_lattice,
    identity_iso,
    load_lattice,
    parse_lattice,
    parse_lattice_json,
    sasaki_hook,
    sasaki_projection,
    validate_oml,
)

MO2_DOC = """
# the smallest non-Boolean orthomodular lattice
name mo2
elements 0 a a' b b' 1
leq 0 a
leq 0 a'
leq 0 b
leq 0 b'
leq a 1
leq a' 1
leq b 1
leq b' 1
perp a a'
perp b b'
"""


def test_parse_mo2_document():
    l = parse_lattice(MO2_DOC)
    assert l.n == 6
    a, b = l.index("a"), l.index("b")
    assert l.names[l.join[a][b]] == "1"
    assert l.names[l.meet[a][b]] == "0"
    # bottom/top inferred, perp of bounds filled in
    assert l.names[l.bot] == "0" and l.names[l.top] == "1"
    assert l.perp[l.bot] == l.top
    assert validate_oml(l).ok


def test_parse_two_chain():
    l = parse_lattice("elements 0 1\nleq 0 1\nperp 0 1\n")
    assert l.n == 2 and l.bot == 0 and l.top == 1
    assert validate_oml(l).ok


def test_parse_four_element_relabeled_boolean():
    # perp pairs the two incomparable atoms; this is B2 relabeled and valid
    doc = "elements 0 a b 1\nleq 0 a\nleq 0 b\nleq a 1\nleq b 1\nperp a b\n"
    l = parse_lattice(doc)
    a, b = l.index("a"), l.index("b")
    assert l.meet[a][b] == l.bot and l.join[a][b] == l.top
    assert validate_oml(l).ok


def test_parse_json_mirror(tmp_path):
    doc = {
        "name": "b2",
        "elements": ["0", "p", "q", "1"],
        "leq": [["0", "p"], ["0", "q"], ["p", "1"], ["q", "1"]],
        "perp": {"p": "q"},
    }
    import json

    path = tmp_path / "b2.json"
    path.write_text(json.dumps(doc))
    l = load_lattice(str(path))
    assert l.name == "b2" and validate_oml(l).ok
    with pytest.raises(LatticeParseError):
        parse_lattice_json("[1, 2]")
    with pytest.raises(LatticeParseError, match="^invalid JSON: "):
        parse_lattice_json('{"elements": ["0", "1"],}')


@pytest.mark.parametrize(
    "doc,fragment",
    [
        ("elements 0 1\nleq 0 x\nperp 0 1\n", "undeclared"),
        ("elements 0 a 1\nleq 0 a\nleq a 1\nperp 0 1\n", "perp is not a total"),
        ("elements 0 a b 1\nleq 0 a\nleq a b\nleq b a\nleq b 1\nperp a b\n", "partial order"),
        ("wibble 0 1\n", "unknown directive"),
        ("elements x y\n", "no greatest"),
        ("name\nelements 0\n", "name directive needs a value"),
        ("elements\n", "elements directive needs at least one label"),
        ("elements 0 a a 1\n", "duplicate element 'a'"),
        ("elements 0 1\nleq 0\n", "leq takes exactly two labels"),
        ("elements 0 1\nleq 0 1\nperp 0 1 1\n", "perp takes exactly two labels"),
        ("elements 0 a b 1\nleq 0 a\nleq 0 b\nleq a 1\nleq b 1\nperp a b\nperp a 1\n",
         "conflicting perp declarations for a"),
        ("# comments only\nname empty\n", "no elements declared"),
        pytest.param("elements " + " ".join(f"e{i}" for i in range(MAX_ELEMENTS + 1)) + "\n",
                     f"{MAX_ELEMENTS + 1} elements exceeds the supported maximum {MAX_ELEMENTS}",
                     id="more-than-MAX_ELEMENTS"),
    ],
)
def test_parse_errors(doc, fragment):
    with pytest.raises(LatticeParseError) as exc:
        parse_lattice(doc)
    assert fragment in str(exc.value)


def test_parse_error_reports_line_number():
    with pytest.raises(LatticeParseError) as exc:
        parse_lattice("elements 0 1\nleq 0 zz\nperp 0 1\n")
    assert exc.value.line == 2


def test_not_a_lattice_witness():
    # two maximal lower bounds below a pair: N5-like double diamond
    doc = (
        "elements 0 x y p q 1\n"
        "leq 0 x\nleq 0 y\nleq x p\nleq y p\nleq x q\nleq y q\nleq p 1\nleq q 1\n"
        "perp x q\n"
    )
    with pytest.raises(LatticeParseError) as exc:
        parse_lattice(doc)
    assert "not a lattice" in str(exc.value)


def test_format_lattice_roundtrip(corpus):
    for l in corpus:
        back = parse_lattice(format_lattice(l))
        assert back.names == l.names
        assert back.up == l.up and back.perp == l.perp
        assert back.meet == l.meet and back.join == l.join


def test_validate_corpus_and_o6(corpus):
    for l in corpus:
        rep = validate_oml(l)
        assert rep.ok, (l.name, [c.name for c in rep.failures])
    rep = validate_oml(catalog("o6"))
    failed = [c.name for c in rep.failures]
    assert failed == ["orthomodular"]
    assert rep["orthomodular"].witness  # concrete witness pair reported


def test_catalog_parameters():
    assert catalog("boolean", 2).n == 4
    assert catalog("mo", 2).n == 6
    assert catalog("chain2").n == 2
    assert catalog("boolean", 0).n == 1
    assert catalog("boolean", 6).n == 64  # the largest that fits MAX_ELEMENTS
    with pytest.raises(ValueError):
        catalog("boolean", 7)
    with pytest.raises(ValueError):
        catalog("boolean", 11)
    with pytest.raises(ValueError):
        catalog("mo", 0)
    with pytest.raises(ValueError):
        catalog("nope")


def test_sasaki_examples():
    mo2 = catalog("mo", 2)
    a, b = mo2.index("a"), mo2.index("b")
    assert sasaki_projection(mo2, mo2.top, b) == b
    assert sasaki_projection(mo2, a, mo2.top) == a
    assert mo2.names[sasaki_projection(mo2, a, b)] == "a"
    assert sasaki_hook(mo2, mo2.bot, a) == mo2.top
    assert mo2.names[sasaki_hook(mo2, a, b)] == "a'"
    b2 = catalog("boolean", 2)
    p, q = b2.index("p"), b2.index("q")
    assert b2.names[sasaki_hook(b2, p, q)] == "q"
    assert b2.names[sasaki_projection(b2, p, q)] == "0"


def test_sasaki_result_below_m(corpus):
    for l in corpus:
        for m in l.elements():
            for x in l.elements():
                assert l.leq(sasaki_projection(l, m, x), m)


def test_sasaki_characterization(corpus):
    # every projection is idempotent, hits m at top, and has image = down-set
    for l in corpus:
        for m in l.elements():
            tbl = [sasaki_projection(l, m, x) for x in l.elements()]
            assert tbl[l.top] == m
            assert all(tbl[tbl[x]] == tbl[x] for x in l.elements())
            downset = {x for x in l.elements() if l.leq(x, m)}
            assert set(tbl) == downset


def test_galois_adjunction(corpus):
    for l in corpus:
        for m in l.elements():
            for x in l.elements():
                for y in l.elements():
                    left = l.leq(sasaki_projection(l, m, x), y)
                    right = l.leq(x, sasaki_hook(l, m, y))
                    assert left == right, (l.name, m, x, y)


def test_de_morgan(corpus):
    for l in corpus:
        for x in l.elements():
            for y in l.elements():
                assert l.perp[l.join[x][y]] == l.meet[l.perp[x]][l.perp[y]]


def test_boolean_projection_is_meet():
    for k in range(5):
        l = catalog("boolean", k)
        for m in l.elements():
            for x in l.elements():
                assert sasaki_projection(l, m, x) == l.meet[m][x]


def test_check_ortho_iso_mo2():
    mo2 = catalog("mo", 2)
    assert check_ortho_iso(identity_iso(mo2)).ok

    def idx(*labels):
        return tuple(mo2.index(s) for s in labels)

    swap = OrthoIso(mo2, mo2, idx("0", "b", "b'", "a", "a'", "1"), name="swap")
    assert check_ortho_iso(swap).ok

    broken = OrthoIso(mo2, mo2, idx("0", "b", "a'", "a", "b'", "1"), name="broken")
    rep = check_ortho_iso(broken)
    assert not rep.ok
    assert rep["perp.preserved"].status == "fail"
    assert rep["perp.preserved"].witness in ("a", "a'", "b", "b'")


def test_check_ortho_iso_size_mismatch():
    mo2 = catalog("mo", 2)
    with pytest.raises(ValueError):
        check_ortho_iso(OrthoIso(mo2, mo2, (0, 1)))


def test_automorphism_groups():
    assert len(enumerate_automorphisms(catalog("mo", 2))) == 8
    assert len(enumerate_automorphisms(catalog("mo", 3))) == 48
    assert len(enumerate_automorphisms(catalog("boolean", 2))) == 2
    assert len(enumerate_automorphisms(catalog("chain2"))) == 1


def _permutation_search(l):
    """The exhaustive search: every permutation within each signature class."""
    sig = {}
    for i in l.elements():
        key = (bin(l.down[i]).count("1"), bin(l.up[i]).count("1"), l.perp[i] == i)
        sig.setdefault(key, []).append(i)
    classes = sorted(sig.values())
    out = []
    for perm_choice in product(*[permutations(cls) for cls in classes]):
        tbl = [0] * l.n
        for cls, perm in zip(classes, perm_choice):
            for src_i, dst_i in zip(cls, perm):
                tbl[src_i] = dst_i
        if check_ortho_iso(OrthoIso(l, l, tuple(tbl))).ok:
            out.append(tuple(tbl))
    return out


def _perp_swapped(l, i, j):
    perp = list(l.perp)
    perp[i], perp[j] = perp[j], perp[i]
    return dataclasses.replace(l, perp=tuple(perp), name=f"{l.name} perp {i}<->{j}")


DIFFERENTIAL_CORPUS = [catalog(name, k) for name, k in (
    ("chain2", 0), ("boolean", 2), ("boolean", 3), ("mo", 2), ("mo", 3), ("o6", 0))]


@pytest.mark.parametrize("l", DIFFERENTIAL_CORPUS, ids=lambda l: l.name)
def test_backtracking_matches_permutation_search(l):
    # the lattice itself, then non-OML controls with two perp entries swapped
    variants = [l] + [_perp_swapped(l, i, j) for i, j in {(0, 1), (1, l.n - 2)} if i < j]
    for v in variants:
        autos = enumerate_automorphisms(v)
        assert [g.map for g in autos] == _permutation_search(v), v.name
        assert [g.name for g in autos] == [f"aut{i}" for i in range(len(autos))]
        assert all(check_ortho_iso(g).ok for g in autos)


def test_automorphism_search_cap(monkeypatch):
    monkeypatch.setattr(omloq.oml, "DEFAULT_AUTOMORPHISM_CAP", 1000)
    with pytest.raises(SizeExceeded,
                       match=r"^automorphism search extensions tried: 1001 exceeds cap 1000$"):
        enumerate_automorphisms(catalog("mo", 4))


def test_automorphisms_of_mo5_and_boolean5():
    mo5 = catalog("mo", 5)
    autos = enumerate_automorphisms(mo5)
    assert len(autos) == 2**5 * 120
    # a -> b -> c -> d -> e -> a, and the same on the complements
    rotation = (0,) + tuple(2 * ((i // 2 + 1) % 5) + 1 + i % 2 for i in range(10)) + (11,)
    assert rotation in {g.map for g in autos}
    assert len(enumerate_automorphisms(catalog("boolean", 5))) == 120


def test_iso_compose_and_inverse():
    mo2 = catalog("mo", 2)
    autos = enumerate_automorphisms(mo2)
    for g in autos:
        assert g.compose(g.inverse()).map == identity_iso(mo2).map
    a, b = mo2.index("a"), mo2.index("b")
    swap = next(g for g in autos if g.map[a] == b)
    assert check_ortho_iso(swap.compose(swap)).ok


@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=5)),
        max_size=12,
    )
)
def test_parser_random_relations_never_crash(pairs):
    # arbitrary generating relations over six labels either produce a lattice
    # or raise the dedicated parse error, never anything else
    labels = ["e0", "e1", "e2", "e3", "e4", "e5"]
    doc = ["elements " + " ".join(labels)]
    doc += [f"leq {labels[a]} {labels[b]}" for a, b in pairs]
    doc += ["perp e0 e5", "perp e1 e4", "perp e2 e3"]
    try:
        l = parse_lattice("\n".join(doc))
    except LatticeParseError:
        return
    validate_oml(l)
