import dataclasses
import json
import os
import random

import pytest

from omloq.errors import SizeExceeded
from omloq.linmap import (
    EndoMap,
    _Carrier,
    LinMap,
    NotLinear,
    bruteforce_lin,
    compose,
    enumerate_lin,
    foulis_perp,
    identity_map,
    join_irreducibles,
    join_preservation_witness,
    order_adjoint,
    orth_adjoint,
    pointwise_join,
    sasaki_map,
    sasaki_projection_lattice,
    verify_foulis,
    verify_left_module_on_M,
    zero_map,
)
from omloq.oml import catalog, check_ortho_iso, format_lattice, sasaki_hook, sasaki_projection

LIN_VARIANTS = os.path.join(os.path.dirname(__file__), "golden", "lin_variants.json")


def const_top(l):
    return EndoMap(l, (l.top,) * l.n)


def test_order_adjoint_identity_and_constants():
    b2 = catalog("boolean", 2)
    assert order_adjoint(identity_map(b2)).tbl == identity_map(b2).tbl
    assert order_adjoint(zero_map(b2)).tbl == const_top(b2).tbl


def test_order_adjoint_of_projection_is_hook(corpus):
    for l in corpus:
        for m in l.elements():
            adj = order_adjoint(sasaki_map(l, m))
            assert adj.tbl == tuple(sasaki_hook(l, m, x) for x in l.elements())


def test_order_adjoint_galois_property(corpus):
    for l in corpus[:4]:
        for f in enumerate_lin(l):
            g = order_adjoint(f.base)
            for x in l.elements():
                for y in l.elements():
                    assert l.leq(f.base.tbl[x], y) == l.leq(x, g.tbl[y])


def test_order_adjoint_rejects_non_join_preserving():
    b2 = catalog("boolean", 2)
    with pytest.raises(ValueError, match="join-preserving"):
        order_adjoint(const_top(b2))


def test_orth_adjoint_examples():
    mo2 = catalog("mo", 2)
    for m in mo2.elements():
        res = orth_adjoint(sasaki_map(mo2, m))
        assert isinstance(res, LinMap)
        assert res.adj.tbl == res.base.tbl  # projections are self-adjoint
    ident = orth_adjoint(identity_map(mo2))
    assert isinstance(ident, LinMap) and ident.adj.tbl == identity_map(mo2).tbl
    zero = orth_adjoint(zero_map(mo2))
    assert isinstance(zero, LinMap) and zero.adj.tbl == zero_map(mo2).tbl


def test_orth_adjoint_not_linear_value():
    mo2 = catalog("mo", 2)
    res = orth_adjoint(const_top(mo2))
    assert isinstance(res, NotLinear)
    assert res.witness == ()  # fails already at the empty join


def test_double_adjoint_and_antihomomorphism():
    mo2 = catalog("mo", 2)
    maps = enumerate_lin(mo2)
    for f in maps:
        back = orth_adjoint(f.adj)
        assert isinstance(back, LinMap) and back.adj.tbl == f.base.tbl
    for f in maps[::17]:
        for g in maps[::13]:
            fg = compose(f, g)
            assert fg.adj.tbl == g.adj.after(f.adj).tbl
            assert orth_adjoint(fg.base).adj.tbl == fg.adj.tbl
    # exhaustive over the full enumerated carriers of the two smallest lattices
    for l in (catalog("chain2"), catalog("boolean", 2)):
        carrier = enumerate_lin(l)
        for f in carrier:
            for g in carrier:
                assert compose(f, g).adj.tbl == g.adj.after(f.adj).tbl


def test_compose_examples():
    mo2 = catalog("mo", 2)
    a, b = mo2.index("a"), mo2.index("b")
    pa = orth_adjoint(sasaki_map(mo2, a))
    pb = orth_adjoint(sasaki_map(mo2, b))
    ident = orth_adjoint(identity_map(mo2))
    assert compose(pa, ident).base.tbl == pa.base.tbl
    names = mo2.names
    table = {names[x]: names[v] for x, v in enumerate(compose(pa, pb).base.tbl)}
    assert table == {"0": "0", "b'": "0", "a": "a", "a'": "a", "b": "a", "1": "a"}


def test_pointwise_join_examples():
    mo2 = catalog("mo", 2)
    a, b = mo2.index("a"), mo2.index("b")
    pa = orth_adjoint(sasaki_map(mo2, a))
    pb = orth_adjoint(sasaki_map(mo2, b))
    empty = pointwise_join(mo2, [])
    assert empty.base.tbl == zero_map(mo2).tbl
    assert pointwise_join(mo2, [pa]).base.tbl == pa.base.tbl
    joined = pointwise_join(mo2, [pa, pb])
    for x in mo2.elements():
        assert joined.base.tbl[x] == mo2.join[pa.base.tbl[x]][pb.base.tbl[x]]
    assert isinstance(orth_adjoint(joined.base), LinMap)


def test_foulis_perp_examples():
    mo2 = catalog("mo", 2)
    for m in mo2.elements():
        pm = orth_adjoint(sasaki_map(mo2, m))
        assert foulis_perp(pm).base.tbl == sasaki_map(mo2, mo2.perp[m]).tbl
    assert foulis_perp(orth_adjoint(identity_map(mo2))).base.tbl == zero_map(mo2).tbl
    assert foulis_perp(orth_adjoint(zero_map(mo2))).base.tbl == identity_map(mo2).tbl


def test_join_irreducibles():
    b3 = catalog("boolean", 3)
    atoms = {b3.index(x) for x in ("p", "q", "r")}
    assert set(join_irreducibles(b3)) == atoms
    chain2 = catalog("chain2")
    assert join_irreducibles(chain2) == [chain2.top]


def test_enumerate_lin_against_bruteforce_oracle():
    chain2 = catalog("chain2")
    fast = enumerate_lin(chain2)
    slow = bruteforce_lin(chain2)
    assert {f.base.tbl for f in fast} == {zero_map(chain2).tbl, identity_map(chain2).tbl}
    assert {f.base.tbl for f in fast} == {f.base.tbl for f in slow}

    b2 = catalog("boolean", 2)
    fast = enumerate_lin(b2)
    slow = bruteforce_lin(b2)
    assert len(fast) == len(slow) == 16
    assert [f.base.tbl for f in fast] == [f.base.tbl for f in slow]
    assert [f.adj.tbl for f in fast] == [f.adj.tbl for f in slow]


def test_enumerate_lin_cap():
    with pytest.raises(SizeExceeded, match=r"^estimated candidates: \d+ exceeds cap 10$"):
        enumerate_lin(catalog("mo", 2), cap=10)


def test_verify_foulis_small_carriers():
    for name, k in [("chain2", 0), ("boolean", 2)]:
        l = catalog(name, k)
        rep = verify_foulis(l, enumerate_lin(l))
        assert rep.ok, (l.name, [c.name for c in rep.failures])


def test_verify_foulis_identity_only_inconclusive():
    b2 = catalog("boolean", 2)
    rep = verify_foulis(b2, [orth_adjoint(identity_map(b2))])
    assert rep["carrier.closed"].status == "fail"
    assert rep["O3.perp_factorization"].status == "inconclusive"


def test_o3_matches_its_cubic_definition():
    # O3: s* . x = 0 exactly when x = s-perp . y for some y in the carrier
    def o3_by_definition(maps, zero):
        return next(
            (f"s={s!r} x={x!r}" for s in maps for x in maps
             if (s.adj.after(x.base).tbl == zero.tbl)
             != any(foulis_perp(s).base.after(y.base).tbl == x.base.tbl for y in maps)),
            None,
        )

    c2, b2 = catalog("chain2"), catalog("boolean", 2)
    b2_maps = enumerate_lin(b2)
    shifted = [LinMap(f.base, b2_maps[(i + 1) % len(b2_maps)].adj) for i, f in enumerate(b2_maps)]
    for l, maps in [(c2, enumerate_lin(c2)), (b2, b2_maps), (b2, shifted)]:
        rep = verify_foulis(l, maps)
        assert rep["carrier.closed"].status == "pass"
        w = o3_by_definition(maps, zero_map(l))
        assert rep["O3.perp_factorization"].status == ("pass" if w is None else "fail")
        assert rep["O3.perp_factorization"].witness == (w or "")
    assert rep["O3.perp_factorization"].witness == "s=LinMap[0 0 0 0] x=LinMap[0 0 p p]"


def test_verify_left_module(corpus):
    for l in corpus[:4]:
        maps = enumerate_lin(l)
        rep = verify_left_module_on_M(l, maps)
        assert rep.ok, (l.name, [c.name for c in rep.failures])


def test_verify_left_module_reports_a_non_linear_map():
    # a table that keeps bottom but breaks the join p v q = 1
    b2 = catalog("boolean", 2)
    p, q = b2.index("p"), b2.index("q")
    tbl = tuple(b2.bot if x == b2.top else x for x in b2.elements())
    f = EndoMap(b2, tbl)
    assert f.tbl[b2.bot] == b2.bot and f.tbl[b2.join[p][q]] != b2.join[f.tbl[p]][f.tbl[q]]
    rep = verify_left_module_on_M(b2, enumerate_lin(b2) + [LinMap(f, f)])
    assert rep["A1.action_preserves_joins_of_elements"].status == "fail"
    assert rep["A1.action_preserves_joins_of_elements"].witness == f"{LinMap(f, f)!r} at p,q"
    assert rep["A2.joins_of_maps_act_pointwise"].status == "inconclusive"
    assert rep["A2.joins_of_maps_act_pointwise"].detail == "A1 failed"
    assert rep["A3.composition_associates_with_action"].status == "pass"


def test_perp_images_are_exactly_projections():
    for name, k in [("chain2", 0), ("boolean", 2), ("mo", 2)]:
        l = catalog(name, k)
        images = {foulis_perp(f).base.tbl for f in enumerate_lin(l)}
        assert images == {sasaki_map(l, m).tbl for m in l.elements()}


def test_sasaki_projection_lattice_isomorphic_to_source():
    for name, k in [("chain2", 0), ("boolean", 2), ("mo", 2)]:
        l = catalog(name, k)
        extracted, iso, rep = sasaki_projection_lattice(l, enumerate_lin(l))
        assert rep.ok, (l.name, [(c.name, c.witness) for c in rep.failures])
        assert check_ortho_iso(iso).ok


def test_characterization_converse():
    # any carrier map that is idempotent, self-adjoint, and has a down-set
    # image is the projection at its value on top
    for name, k in [("chain2", 0), ("boolean", 2), ("mo", 2)]:
        l = catalog(name, k)
        for f in enumerate_lin(l):
            tbl = f.base.tbl
            idempotent = all(tbl[tbl[x]] == tbl[x] for x in l.elements())
            self_adjoint = f.adj.tbl == tbl
            m = tbl[l.top]
            downset_image = set(tbl) == {x for x in l.elements() if l.leq(x, m)}
            if idempotent and self_adjoint and downset_image:
                assert tbl == sasaki_map(l, m).tbl


def scan_nonmonotone(l):
    """Find (u, v, x) with u <= v but pi_u(x) not below pi_v(x)."""
    found = []
    for u in l.elements():
        for v in l.elements():
            if u != v and l.leq(u, v):
                for x in l.elements():
                    if not l.leq(sasaki_projection(l, u, x), sasaki_projection(l, v, x)):
                        found.append((u, v, x))
    return found


def test_nonmonotone_scan_reports_mo2_finding():
    mo2 = catalog("mo", 2)
    found = scan_nonmonotone(mo2)
    assert found, "MO2 projections are not monotone in the projecting element"
    u, v, x = found[0]
    assert mo2.leq(u, v)
    # boolean lattices never witness this
    assert scan_nonmonotone(catalog("boolean", 3)) == []


def test_orth_adjoint_scans_joins_once(monkeypatch):
    import omloq.linmap as linmap

    calls = {"scan": 0, "adjoint": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(linmap, "join_preservation_witness",
                        counted("scan", linmap.join_preservation_witness))
    monkeypatch.setattr(linmap, "orth_adjoint", counted("adjoint", linmap.orth_adjoint))
    maps = enumerate_lin(catalog("boolean", 2))
    assert len(maps) == 16
    assert calls["adjoint"] > 0
    assert calls["scan"] == calls["adjoint"]


def test_suites_certify_each_joined_table_once(monkeypatch):
    import omloq.linmap as linmap

    b2 = catalog("boolean", 2)
    maps = enumerate_lin(b2)
    tables = []

    def counted(f):
        tables.append(f.tbl)
        return orth_adjoint(f)

    monkeypatch.setattr(linmap, "orth_adjoint", counted)
    # verify_foulis also certifies the unit and the zero map directly, outside any join
    for suite, direct in ((verify_foulis, 2), (verify_left_module_on_M, 0)):
        tables.clear()
        assert suite(b2, maps).ok
        assert 0 < len(tables) <= len(set(tables)) + direct
        # the carrier is closed under joins, so every joined table is a carrier table
        assert set(tables) <= {f.base.tbl for f in maps}


def broken_boolean2():
    """boolean(2) with one join-table entry changed: p v q = p."""
    b2 = catalog("boolean", 2)
    p, q = b2.index("p"), b2.index("q")
    join = [list(row) for row in b2.join]
    join[p][q] = join[q][p] = p
    return b2, dataclasses.replace(b2, join=tuple(map(tuple, join)))


@pytest.mark.parametrize("suite, check, keeps_joins", [
    (verify_foulis, "lemma.item3_join_of_closures", False),
    (verify_left_module_on_M, "A2.joins_of_maps_act_pointwise", True),
    (lambda l, maps: sasaki_projection_lattice(l, maps)[2], "tests.pointwise_joins_linear", False),
], ids=["foulis", "module", "extraction"])
def test_suites_report_a_non_linear_pointwise_join(suite, check, keeps_joins):
    b2, broken = broken_boolean2()
    maps = enumerate_lin(b2)
    if keeps_joins:
        # A2 is reached only when A1 passes, that is when every table keeps broken's joins
        maps = [f for f in maps if join_preservation_witness(EndoMap(broken, f.base.tbl)) is None]
        assert len(maps) == 10
    rep = suite(broken, maps)
    assert rep[check].status == "fail"
    assert "is not in Lin: NotLinear(" in rep[check].witness


def test_verify_left_module_reads_joins_of_the_suite_lattice():
    # the tables are join-preserving on boolean(2) but 6 of the 16 break p v q = p
    b2, broken = broken_boolean2()
    rep = verify_left_module_on_M(broken, enumerate_lin(b2))
    assert rep["A1.action_preserves_joins_of_elements"].status == "fail"
    assert rep["A1.action_preserves_joins_of_elements"].witness == "LinMap[0 0 p p] at p,q"
    assert rep["A2.joins_of_maps_act_pointwise"].status == "inconclusive"
    assert rep["A2.joins_of_maps_act_pointwise"].detail == "A1 failed"


def test_zero_map_outside_lin_fails_a2_on_an_empty_carrier():
    # 0 v 0 = 1 breaks the empty join, so the zero map is not linear and no pair precedes it
    b2 = catalog("boolean", 2)
    join = [list(row) for row in b2.join]
    join[b2.bot][b2.bot] = b2.top
    broken = dataclasses.replace(b2, join=tuple(map(tuple, join)))
    rep = verify_left_module_on_M(broken, [])
    assert rep["A1.action_preserves_joins_of_elements"].status == "pass"
    assert rep["A2.joins_of_maps_act_pointwise"].status == "fail"
    assert rep["A2.joins_of_maps_act_pointwise"].witness == (
        "pointwise join LinMap[0 0 0 0] is not in Lin: "
        "NotLinear(reason='not join-preserving', witness=(0, 1))"
    )


def lin_variants(l):
    """Ten carriers over l: the enumerated one, six cut or altered copies and three halves.

    ``unit_and_zero`` is closed, yet on B2 and MO1 some Sasaki tables lie outside it.
    """
    maps = enumerate_lin(l)
    k = len(maps)
    out = {
        "full": maps,
        "first": maps[:1],
        "every_other": maps[::2],
        "minus_middle": maps[: k // 2] + maps[k // 2 + 1:],
        "shifted_adjoints": [LinMap(f.base, maps[(i + 1) % k].adj) for i, f in enumerate(maps)],
        "reversed": maps[::-1],
        "unit_and_zero": [f for f in maps if f.base.tbl in (zero_map(l).tbl, identity_map(l).tbl)],
    }
    for seed in (1, 2, 3):
        out[f"half_{seed}"] = random.Random(seed).sample(maps, k // 2)
    return out


def per_suite_reports(l, maps):
    """The three Lin suites, each building its own carrier over maps."""
    return [verify_foulis(l, maps), verify_left_module_on_M(l, maps), sasaki_projection_lattice(l, maps)[2]]


def shared_carrier_reports(l, maps):
    """The three Lin suites reading one carrier, as ``omloq linmaps`` runs them."""
    c = _Carrier(l, maps)
    return [verify_foulis(l, c), verify_left_module_on_M(l, c), sasaki_projection_lattice(l, c)[2]]


def lin_variant_reports(suites=per_suite_reports):
    """The three Lin suites' reports on ten carriers each of Lin(chain2), Lin(B2), Lin(MO1)."""
    out = {}
    for l in (catalog("chain2"), catalog("boolean", 2), catalog("mo", 1)):
        for name, maps in lin_variants(l).items():
            out[f"{l.name}/{name}"] = [r.to_dict() for r in suites(l, maps)]
    return out


def test_lin_variants_match_golden():
    # the golden file was written by the per-call suites that predate the indexed carrier
    with open(LIN_VARIANTS, encoding="utf-8") as fh:
        assert lin_variant_reports() == json.load(fh)


def test_shared_carrier_matches_golden():
    with open(LIN_VARIANTS, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert len(golden) == 30
    assert any(r["verdict"] == "fail" for reports in golden.values() for r in reports)
    assert lin_variant_reports(shared_carrier_reports) == golden


def test_shared_carrier_gives_the_per_suite_witnesses_on_a_broken_lattice():
    b2, broken = broken_boolean2()
    maps = enumerate_lin(b2)
    # all 16 tables fail A1; the 10 that keep broken's joins reach A2's non-linear join
    kept = [f for f in maps if join_preservation_witness(EndoMap(broken, f.base.tbl)) is None]
    for carrier in (maps, kept):
        shared = [r.to_dict() for r in shared_carrier_reports(broken, carrier)]
        assert shared == [r.to_dict() for r in per_suite_reports(broken, carrier)]
        assert any("is not in Lin: NotLinear(" in c.get("witness", "") for r in shared for c in r["checks"])


def test_suites_reject_a_carrier_over_another_lattice():
    b2, broken = broken_boolean2()
    with pytest.raises(ValueError, match="another lattice"):
        verify_foulis(broken, _Carrier(b2, enumerate_lin(b2)))


def test_linmaps_computes_each_composite_and_join_once(tmp_path, monkeypatch, capsys):
    from omloq.cli import main

    lat = tmp_path / "mo2.lat"
    lat.write_text(format_lattice(catalog("mo", 2)))
    calls = dict.fromkeys(("_compose", "_joined"), 0)

    def counted(name, fn):
        def wrapper(self, i, j):
            calls[name] += 1
            return fn(self, i, j)

        return wrapper

    for name in calls:
        monkeypatch.setattr(_Carrier, name, counted(name, getattr(_Carrier, name)))
    assert main(["--json", "linmaps", str(lat)]) == 0
    assert '"carrier_size": 234' in capsys.readouterr().out
    # a carrier per suite made 110,916 of each, twice the 234**2 composites of Lin(mo2)
    assert 0 < calls["_compose"] <= 234 ** 2
    assert 0 < calls["_joined"] <= 234 ** 2


def carrier_cases():
    """Lin(chain2), Lin(B2) and Lin(MO1), each whole, every other map and with shifted adjoints."""
    for l in (catalog("chain2"), catalog("boolean", 2), catalog("mo", 1)):
        variants = lin_variants(l)
        for name in ("full", "every_other", "shifted_adjoints"):
            maps = variants[name]
            yield l, maps, [(f, g) for f in maps for g in maps]
    mo2 = catalog("mo", 2)
    maps = enumerate_lin(mo2)
    rng = random.Random(7)
    yield mo2, maps, [tuple(rng.sample(maps, 2)) for _ in range(400)]


def test_carrier_tables_match_the_per_call_operations():
    for l, maps, pairs in carrier_cases():
        c = _Carrier(l, maps)
        for f, i, a in zip(maps, c.col, c.adj):
            assert i < c.size and c.tab[i] == f.base.tbl and c.tab[a] == f.adj.tbl
            assert c.tab[c.perp(i)] == foulis_perp(f).base.tbl
        for f, g in pairs:
            i, j = c.ids[f.base.tbl], c.ids[g.base.tbl]
            assert c.tab[c.comp(i, j)] == compose(f, g).base.tbl
            assert c.tab[c.join(i, j)] == pointwise_join(l, [f, g]).base.tbl
            # perps lie outside a carrier that is not closed; every row still spans their columns
            p = c.perp(j)
            assert c.tab[c.comp(i, p)] == compose(f, foulis_perp(g)).base.tbl
            assert c.tab[c.join(i, p)] == pointwise_join(l, [f, foulis_perp(g)]).base.tbl
        assert c.tab[c.lin(c.zero)] == pointwise_join(l, []).base.tbl


def test_public_guards_reject_mismatched_or_oversized_input():
    b2, mo2 = catalog("boolean", 2), catalog("mo", 2)
    f, g = orth_adjoint(identity_map(b2)), orth_adjoint(identity_map(mo2))
    with pytest.raises(ValueError, match="^lattice mismatch in composition$"):
        compose(f, g)
    with pytest.raises(ValueError, match="^lattice mismatch in pointwise join$"):
        pointwise_join(b2, [f, g])
    with pytest.raises(ValueError, match="^cap must be positive$"):
        enumerate_lin(b2, cap=0)
    with pytest.raises(ValueError, match=r"^brute-force oracle is limited to n <= 5$"):
        bruteforce_lin(mo2)


def test_carrier_rejects_maps_of_another_lattice():
    b2, mo2 = catalog("boolean", 2), catalog("mo", 2)
    with pytest.raises(ValueError, match="^lattice mismatch in carrier$"):
        _Carrier(mo2, [orth_adjoint(identity_map(b2))])


def test_pointwise_join_outside_lin_is_an_internal_invariant(monkeypatch):
    import omloq.linmap as linmap

    mo2 = catalog("mo", 2)
    f = orth_adjoint(identity_map(mo2))
    monkeypatch.setattr(linmap, "orth_adjoint", lambda g: NotLinear("patched", ()))
    with pytest.raises(AssertionError, match="^pointwise join left the carrier: "):
        pointwise_join(mo2, [f])


if __name__ == "__main__":
    # rewrites the golden file from whichever omloq is importable
    with open(LIN_VARIANTS, "w", encoding="utf-8") as fh:
        json.dump(lin_variant_reports(), fh, indent=1)
        fh.write("\n")
