"""Acceptance gate: one test per criterion, each timed against its budget.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS line per
criterion; the assertions carry the same information when capture is on.
"""

import json
import os
import subprocess
import sys
import time
from itertools import product

import pytest

from omloq.dynalg import DynAlgebra, SamplePolicy, verify_ida, verify_module, verify_toda
from omloq.equivalence import round_trip_report
from omloq.hilbert3 import E1, span, witness_report
from omloq.linmap import (
    bruteforce_lin,
    enumerate_lin,
    orth_adjoint,
    sasaki_map,
    sasaki_projection_lattice,
    verify_foulis,
)
from omloq.oml import (
    OrthoIso,
    catalog,
    check_ortho_iso,
    enumerate_automorphisms,
    format_lattice,
    sasaki_hook,
    sasaki_projection,
    validate_oml,
)
from omloq.testmonoid import generate_T

CORPUS = [
    catalog("chain2"),
    catalog("boolean", 1),
    catalog("boolean", 2),
    catalog("boolean", 3),
    catalog("boolean", 4),
    catalog("mo", 1),
    catalog("mo", 2),
    catalog("mo", 3),
    catalog("mo", 4),
]

POLICY = SamplePolicy()
_ALGEBRAS = {}


def algebra(l):
    if l.name not in _ALGEBRAS:
        _ALGEBRAS[l.name] = DynAlgebra(generate_T(l))
    return _ALGEBRAS[l.name]


class criterion:
    def __init__(self, number, budget_s, label):
        self.number = number
        self.budget = budget_s
        self.label = label

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.number:2d} {status} ({elapsed:6.2f}s / {self.budget}s) {self.label}")
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its {self.budget}s budget: {elapsed:.2f}s"
            )
        return False


def test_criterion_01_hilbert_witness():
    with criterion(1, 1, "hilbert witness reproduces exactly"):
        rep = witness_report()
        assert rep.u_below_v
        assert rep.pi_u_x == span(E1)
        assert rep.pi_v_x == span((1, 1, 0))
        assert rep.monotone_violation
        assert rep.ok


def test_criterion_02_oml_axiom_suite():
    with criterion(2, 1, "corpus passes oml axioms; o6 fails exactly orthomodularity"):
        for l in CORPUS:
            rep = validate_oml(l)
            assert rep.ok, (l.name, [c.name for c in rep.failures])
        rep = validate_oml(catalog("o6"))
        assert [c.name for c in rep.failures] == ["orthomodular"]
        assert rep["orthomodular"].witness


def test_criterion_03_sasaki_characterization():
    with criterion(3, 5, "projections: idempotent, self-adjoint, image is the down-set"):
        for l in CORPUS:
            for m in l.elements():
                f = sasaki_map(l, m)
                assert f.tbl[l.top] == m
                assert all(f.tbl[f.tbl[x]] == f.tbl[x] for x in l.elements())
                assert set(f.tbl) == {x for x in l.elements() if l.leq(x, m)}
                lin = orth_adjoint(f)
                assert lin.adj.tbl == f.tbl


def test_criterion_04_galois_adjunction():
    with criterion(4, 5, "projection is left adjoint to the hook, all triples"):
        for l in CORPUS:
            for m in l.elements():
                hook = [sasaki_hook(l, m, y) for y in l.elements()]
                proj = [sasaki_projection(l, m, x) for x in l.elements()]
                for x in l.elements():
                    for y in l.elements():
                        assert l.leq(proj[x], y) == l.leq(x, hook[y])


def join_preserving_tables(l):
    """Every endomap table of l that keeps bottom and all binary joins, by brute force."""
    pairs = [(x, y) for x in l.elements() for y in l.elements() if x < y]
    return {
        t for t in product(l.elements(), repeat=l.n)
        if t[l.bot] == l.bot and all(t[l.join[x][y]] == l.join[t[x]][t[y]] for x, y in pairs)
    }


def test_criterion_05_foulis_suite_with_oracle():
    label = "foulis axioms on Lin(chain2), Lin(B2), Lin(MO2), Lin(B3); counts match oracles"
    with criterion(5, 30, label):
        for l in (catalog("chain2"), catalog("boolean", 2)):
            fast = enumerate_lin(l)
            slow = bruteforce_lin(l)
            assert len(fast) == len(slow)
            assert [f.base.tbl for f in fast] == [f.base.tbl for f in slow]
            rep = verify_foulis(l, fast)
            assert rep.ok, (l.name, [c.name for c in rep.failures])
        # bruteforce_lin stops at n <= 5: a brute force over the 6^6 tables of MO2,
        # and the closed form (2^k)^k for the Boolean algebra with k atoms
        mo2, b3 = catalog("mo", 2), catalog("boolean", 3)
        mo2_maps, b3_maps = enumerate_lin(mo2), enumerate_lin(b3)
        assert {f.base.tbl for f in mo2_maps} == join_preserving_tables(mo2)
        assert len(mo2_maps) == 234
        assert len(b3_maps) == (2**3) ** 3 == 512
        for l, maps in ((mo2, mo2_maps), (b3, b3_maps)):
            rep = verify_foulis(l, maps)
            assert rep.ok, (l.name, [c.name for c in rep.failures])


def test_criterion_06_projection_lattice_isomorphism():
    with criterion(6, 10, "sasaki projection lattice of Lin(M) is ortho-isomorphic to M"):
        for name, k in (("chain2", 0), ("boolean", 2), ("mo", 2), ("boolean", 3)):
            l = catalog(name, k)
            extracted, iso, rep = sasaki_projection_lattice(l, enumerate_lin(l))
            assert rep.ok, (l.name, [(c.name, c.witness) for c in rep.failures])
            assert check_ortho_iso(iso).ok


def test_criterion_07_ida_suite():
    with criterion(7, 60, "tilde axioms: exhaustive on small carriers, sampled on mo(2)/mo(3)"):
        for l in (catalog("chain2"), catalog("boolean", 2)):
            alg = algebra(l)
            assert POLICY.is_exhaustive(alg)
            rep = verify_ida(alg, POLICY)
            assert rep.ok, (l.name, [(c.name, c.witness) for c in rep.failures])
        for l in (catalog("mo", 2), catalog("mo", 3)):
            alg = algebra(l)
            assert not POLICY.is_exhaustive(alg)
            rep = verify_ida(alg, POLICY)
            assert rep.ok, (l.name, [(c.name, c.witness) for c in rep.failures])


def test_criterion_08_double_tilde_and_delta():
    with criterion(8, 10, "double-tilde closed form agrees; delta is an ortho-iso, all corpus"):
        for l in CORPUS:
            alg = algebra(l)
            for x in POLICY.elements(alg):
                alg.tilde_tilde(x)  # raises if the closed form disagrees
            _, delta, rep = alg.test_lattice()
            assert rep.ok, (l.name, [c.name for c in rep.failures])
            assert check_ortho_iso(delta).ok


def test_criterion_09_module_suite():
    with criterion(9, 10, "module laws; actions of tests are exactly the projections"):
        for l in CORPUS:
            alg = algebra(l)
            for u in l.elements():
                for v in l.elements():
                    assert alg.action(alg.delta(u), v) == sasaki_projection(l, u, v)
            for x in POLICY.elements(alg)[:64]:
                assert alg.tilde(alg.tilde_tilde(x)) == alg.tilde(x)
        for name, k in [("chain2", 0), ("boolean", 2), ("boolean", 3), ("mo", 2), ("mo", 3)]:
            alg = algebra(catalog(name, k))
            rep = verify_module(alg, POLICY)
            assert rep.ok, (name, [(c.name, c.witness) for c in rep.failures])


def test_criterion_10_toda_suite():
    with criterion(10, 60, "carrier axioms on every corpus lattice; corrupted control fails"):
        for l in CORPUS:
            alg = algebra(l)
            rep = verify_toda(alg, POLICY)
            assert rep.ok, (l.name, [(c.name, c.witness) for c in rep.failures])
            # normal forms rejoin and are unique; atoms are the singletons
            sample = POLICY.elements(alg)[:128]
            seen = {}
            for x in sample:
                parts = alg.normal_form(x)
                assert alg.union_all(parts) == x
                key = tuple(p.ids[0] for p in parts)
                assert seen.setdefault(key, x) == x
                assert all(len(p.ids) == 1 for p in parts)
        monoid = algebra(catalog("mo", 2)).monoid
        composite = next(i for i in monoid.ids() if len(monoid.elems[i].witness) > 1)
        corrupted = DynAlgebra(monoid, carrier=tuple(i for i in monoid.ids() if i != composite))
        rep = verify_toda(corrupted, POLICY)
        assert rep["TODA2.minimality"].status == "fail"


def automorphism(l, images):
    """The automorphism of l that sends each named element to its named image."""
    want = [(l.index(x), l.index(y)) for x, y in images.items()]
    return next(g for g in enumerate_automorphisms(l) if all(g.map[i] == j for i, j in want))


def test_criterion_11_equivalence_round_trip():
    with criterion(11, 120, "round trip with naturality squares and three-way isomorphism"):
        mo2, mo3, mo4, mo5 = (catalog("mo", k) for k in (2, 3, 4, 5))
        b4, b5 = catalog("boolean", 4), catalog("boolean", 5)
        jobs = [
            (catalog("chain2"), []),
            (catalog("boolean", 2), []),
            (catalog("boolean", 3), []),
            (mo2, [automorphism(mo2, {"a": "b", "b": "a"})]),
            (mo3, [automorphism(mo3, {"a": "b", "b": "c", "c": "a"})]),
            # transpositions of two atoms that fix the others
            (b4, [automorphism(b4, {"p": "q", "q": "p", "r": "r", "s": "s"})]),
            (mo4, [automorphism(mo4, {"a": "b", "b": "a", "c": "c", "d": "d"})]),
            (b5, [automorphism(b5, {"p": "q", "q": "p", "r": "r", "s": "s", "t": "t"})]),
            (mo5, [automorphism(mo5, {"a": "b", "b": "c", "c": "d", "d": "e", "e": "a"})]),
        ]
        for l, morphisms in jobs:
            rep = round_trip_report(l, morphisms, POLICY)
            assert rep.ok, (l.name, [(c.name, c.witness) for c in rep.failures])
            names = [c.name for c in rep.checks]
            assert "three_way_isomorphism" in names
            for k in morphisms:
                assert f"mu_naturality[{k.name}]" in names
                assert f"lambda_naturality[{k.name}]" in names


def test_criterion_12_determinism(tmp_path):
    with criterion(12, 120, "consecutive runs emit byte-identical JSON reports"):
        mo2_path = tmp_path / "mo2.lat"
        mo2_path.write_text(format_lattice(catalog("mo", 2)))
        swap_path = tmp_path / "swap.iso"
        swap_path.write_text("iso 0 0\niso a b\niso b a\niso a' b'\niso b' a'\niso 1 1\n")
        env = {k: v for k, v in os.environ.items() if k != "OMLOQ_SEED"}
        commands = [
            ["--json", "toda", str(mo2_path)],
            ["--json", "equiv", str(mo2_path), str(swap_path)],
            ["--json", "witness"],
        ]
        for argv in commands:
            cmd = [sys.executable, "-m", "omloq"] + argv
            first = subprocess.run(cmd, capture_output=True, text=True, env=env)
            second = subprocess.run(cmd, capture_output=True, text=True, env=env)
            assert first.returncode == 0, first.stdout[-500:]
            assert first.stdout == second.stdout
            doc = json.loads(first.stdout)
            assert doc["seed"] == POLICY.seed
