"""Failing witnesses of the oml, dynalg and equivalence checks stay byte-identical.

``witness_variants.json`` pins the reports of the witness-bearing checks on
inputs built to fail them: perturbed lattice tables, maps that are not
automorphisms, punctured carriers, morphisms with two ids swapped, and
algebras whose operations are patched on the instance; the Lin suites are
also read against perturbed lattices.  A refactor that
changes which counterexample a check finds first, or how it is rendered,
shows up here.  ``lin_variants.json`` does the same for the Lin suites.
"""

import dataclasses
import json
import os
import random
from itertools import permutations
from unittest import mock

from omloq import equivalence
from omloq.dynalg import DynAlgebra, SamplePolicy, verify_ida, verify_module, verify_toda
from omloq.equivalence import (
    DynMorphism,
    TodaHandle,
    check_naturality_lambda,
    gamma_morphism,
    gamma_object,
    lambda_component,
    nu_table,
    psi_morphism,
    psi_object,
    verify_dyn_morphism,
    verify_h_map,
)
from omloq.linmap import (
    enumerate_lin,
    sasaki_projection_lattice,
    verify_foulis,
    verify_left_module_on_M,
)
from omloq.oml import (
    OrthoIso,
    catalog,
    check_ortho_iso,
    enumerate_automorphisms,
    identity_iso,
    validate_oml,
)
from omloq.testmonoid import generate_T

WITNESS_VARIANTS = os.path.join(os.path.dirname(__file__), "golden", "witness_variants.json")

# a smaller random sample keeps the sampled mo(2) suites inside the test budget
POLICY = SamplePolicy(n_random=40)


def perturbed(l, kind, rng):
    """l with one entry of its ``kind`` table changed, the entry and value chosen by rng."""
    n = l.n
    i, j, v = rng.randrange(n), rng.randrange(n), rng.randrange(n)
    if kind in ("up", "down"):
        masks = list(getattr(l, kind))
        masks[i] ^= 1 << j
        return dataclasses.replace(l, **{kind: tuple(masks)})
    if kind in ("meet", "join"):
        rows = [list(row) for row in getattr(l, kind)]
        rows[i][j] = v
        return dataclasses.replace(l, **{kind: tuple(map(tuple, rows))})
    if kind == "perp":
        perp = list(l.perp)
        perp[i] = v
        return dataclasses.replace(l, perp=tuple(perp))
    return dataclasses.replace(l, **{kind: v})


def oml_reports():
    out = {"o6": validate_oml(catalog("o6")).to_dict()}
    for l in (catalog("boolean", 2), catalog("mo", 2)):
        for kind in ("up", "down", "meet", "join", "perp", "bot", "top"):
            for seed in range(4):
                bad = perturbed(l, kind, random.Random(seed))
                out[f"{l.name}/{kind}_{seed}"] = validate_oml(bad).to_dict()
    return out


def iso_reports():
    mo2, o6 = catalog("mo", 2), catalog("o6")
    perms = list(permutations(range(mo2.n)))
    out = {}
    for p in random.Random(5).sample(perms, 40):
        out["mo2/" + "".join(map(str, p))] = check_ortho_iso(OrthoIso(mo2, mo2, p)).to_dict()
    for p in ((0, 1, 2, 3, 4, 5), (0, 2, 1, 4, 3, 5), (0, 0, 1, 2, 3, 5)):
        out["mo2_o6/" + "".join(map(str, p))] = check_ortho_iso(OrthoIso(mo2, o6, p)).to_dict()
    return out


# each lattice with the monoid ids dropped, one at a time, from its carrier
PUNCTURED = ((catalog("boolean", 2), range(4)), (catalog("mo", 2), (0, 3, 5, 6, 11, 17)))


def punctured_reports():
    out = {}
    for l, dropped in PUNCTURED:
        monoid = generate_T(l)
        for d in dropped:
            alg = DynAlgebra(monoid, carrier=tuple(i for i in monoid.ids() if i != d))
            out[f"{l.name}/without_{d}"] = [
                suite(alg, POLICY).to_dict() for suite in (verify_ida, verify_toda, verify_module)
            ]
    return out


def swapped(ids, a, b):
    out = list(ids)
    out[a], out[b] = out[b], out[a]
    return tuple(out)


SWAPS = ((0, 1), (1, 2), (5, 6), (6, 7), (16, 17), (3, 12))


def morphism_reports():
    mo2 = catalog("mo", 2)
    h = gamma_object(mo2, POLICY)
    target = gamma_object(psi_object(h), POLICY)
    nu = nu_table(h, target)
    lam = DynMorphism(h, target, nu, name="lambda")
    swap = OrthoIso(mo2, mo2, (0, 3, 4, 1, 2, 5), name="swap")
    phi = gamma_morphism(swap, h, h, POLICY)
    out = {}
    for a, b in SWAPS:
        phi_ab = DynMorphism(h, h, swapped(h.monoid.ids(), a, b), name="s")
        out[f"dyn/{a}_{b}"] = verify_dyn_morphism(phi_ab, POLICY).to_dict()
        with mock.patch.object(equivalence, "nu_table", lambda *_: swapped(nu, a, b)):
            out[f"nu/{a}_{b}"] = lambda_component(h, target, POLICY)[1].to_dict()
        bad_lam = DynMorphism(h, target, swapped(nu, a, b), name="lambda")
        out[f"lambda_square/{a}_{b}"] = check_naturality_lambda(phi, lam, bad_lam, POLICY).to_dict()
    out["lambda_square/none"] = check_naturality_lambda(phi, lam, lam, POLICY).to_dict()
    repeated = (0,) + tuple(h.monoid.ids())[1:-1] + (0,)
    out["dyn/repeated"] = verify_dyn_morphism(DynMorphism(h, h, repeated), POLICY).to_dict()
    return out


def singleton_laws(phi):
    """product_preserved and star_preserved as (status, witness), from every singleton pair
    (or singleton) through the setwise operations; none when phi is not a bijection."""
    if sorted(phi.elem_map) != list(phi.dst.monoid.ids()):
        return {}
    src, dst = phi.src.alg, phi.dst.alg
    singles = [src.singleton(a) for a in src.monoid.ids()]
    products = (f"{x!r},{y!r}" for x in singles for y in singles
                if phi.apply(src.mul(x, y)) != dst.mul(phi.apply(x), phi.apply(y)))
    stars = (repr(x) for x in singles if phi.apply(src.star(x)) != dst.star(phi.apply(x)))
    return {name: ("pass", "") if w is None else ("fail", w)
            for name, w in (("product_preserved", next(products, None)),
                            ("star_preserved", next(stars, None)))}


def id_laws(report):
    return {c.name: (c.status, c.witness) for c in report.checks
            if c.name in ("product_preserved", "star_preserved")}


def mo3_cycle(mo3):
    """The automorphism a -> b -> c -> a of mo(3), the primes following."""
    a, b, c = (mo3.index(x) for x in "abc")
    return next(g for g in enumerate_automorphisms(mo3)
                if (g.map[a], g.map[b], g.map[c]) == (b, c, a))


def test_id_decided_laws_match_the_singleton_sweep():
    # verify_dyn_morphism decides products and stars on the monoid's ids; a sweep of the
    # singletons through DynAlgebra.mul and star gives the same statuses and witnesses
    mo2, mo3 = catalog("mo", 2), catalog("mo", 3)
    h, h3 = gamma_object(mo2, POLICY), gamma_object(mo3, POLICY)
    target = gamma_object(psi_object(h), POLICY)
    swap = gamma_morphism(OrthoIso(mo2, mo2, (0, 3, 4, 1, 2, 5), name="swap"), h, h, POLICY)
    cycle = mo3_cycle(mo3)
    phis = [
        gamma_morphism(identity_iso(mo2), h, h, POLICY),
        swap,
        gamma_morphism(cycle, h3, h3, POLICY),
        gamma_morphism(cycle.compose(cycle), h3, h3, POLICY),
        DynMorphism(h, target, nu_table(h, target), name="lambda"),
        # the gamma of psi in the lambda square of the swap
        gamma_morphism(psi_morphism(swap), target, target, POLICY),
        *(DynMorphism(h, h, swapped(h.monoid.ids(), i, j), name="s") for i, j in SWAPS),
        DynMorphism(h, h, (0,) + tuple(h.monoid.ids())[1:-1] + (0,)),
    ]
    decided = [id_laws(verify_dyn_morphism(phi, POLICY)) for phi in phis]
    assert decided == [singleton_laws(phi) for phi in phis]
    assert [d["product_preserved"][0] for d in decided if d] == ["pass"] * 6 + ["fail"] * len(SWAPS)


def test_id_decided_laws_match_the_subset_sweep_on_boolean2():
    # on boolean(2) the sample is every subset, and the pairs all 256 of them
    h = gamma_object(catalog("boolean", 2), POLICY)
    alg = h.alg
    elems, pairs = POLICY.elements(alg), POLICY.pairs(alg)
    assert len(elems) == 16 and len(pairs) == 256
    statuses = set()
    for i, j in ((0, 0), (0, 1), (1, 2), (2, 3), (0, 3), (1, 3)):
        phi = DynMorphism(h, h, swapped(alg.monoid.ids(), i, j))
        laws = id_laws(verify_dyn_morphism(phi, POLICY))
        products = all(phi.apply(x * y) == phi.apply(x) * phi.apply(y) for x, y in pairs)
        stars = all(phi.apply(x.star()) == phi.apply(x).star() for x in elems)
        assert [laws["product_preserved"][0], laws["star_preserved"][0]] == [
            "pass" if ok else "fail" for ok in (products, stars)], (i, j)
        statuses.update(status for status, _ in laws.values())
    assert statuses == {"pass", "fail"}


def singleton_square(phi, lam_src, lam_dst, policy):
    """The lambda square as (status, witness, count) over the singleton of every monoid id,
    in id order; the count is of the singletons examined."""
    gpsi = gamma_morphism(psi_morphism(phi), lam_src.dst, lam_dst.dst, policy)
    alg = phi.src.alg
    for a in alg.monoid.ids():
        x = alg.singleton(a)
        if gpsi.apply(lam_src.apply(x)) != lam_dst.apply(phi.apply(x)):
            return "fail", repr(x), a + 1
    return "pass", "", alg.monoid.size


def square_fails_off_singletons(phi, lam_src, lam_dst, policy):
    """Whether the lambda square fails on a union of two ids, the second among the first
    four carrier ids, or on an element of the policy sample."""
    gpsi = gamma_morphism(psi_morphism(phi), lam_src.dst, lam_dst.dst, policy)
    alg = phi.src.alg
    probes = [alg.elem((i, j)) for i in alg.carrier for j in alg.carrier[:4]]
    probes += policy.elements(alg)
    return any(gpsi.apply(lam_src.apply(x)) != lam_dst.apply(phi.apply(x)) for x in probes)


def test_lambda_square_is_decided_on_singletons():
    # every map in the lambda square acts id by id, so the singletons decide it: they give
    # the status and witness of check_naturality_lambda, and its count of elements examined;
    # the two-id unions and the sample, which it does not probe, fail exactly when it fails
    mo2, mo3 = catalog("mo", 2), catalog("mo", 3)
    h, h3 = gamma_object(mo2, POLICY), gamma_object(mo3, POLICY)
    target, target3 = (gamma_object(psi_object(g), POLICY) for g in (h, h3))
    nu = nu_table(h, target)
    lam = DynMorphism(h, target, nu, name="lambda")
    lam3 = DynMorphism(h3, target3, nu_table(h3, target3), name="lambda")
    swap = gamma_morphism(OrthoIso(mo2, mo2, (0, 3, 4, 1, 2, 5), name="swap"), h, h, POLICY)
    squares = [(swap, lam, DynMorphism(h, target, swapped(nu, a, b), name="lambda"))
               for a, b in SWAPS]
    squares += [(swap, lam, lam), (gamma_morphism(mo3_cycle(mo3), h3, h3, POLICY), lam3, lam3)]
    statuses = []
    for square in squares:
        status, witness, count = singleton_square(*square, POLICY)
        (check,) = check_naturality_lambda(*square, POLICY).checks
        assert (check.status, check.witness, check.detail) == (status, witness, f"{count} elements")
        assert square_fails_off_singletons(*square, POLICY) == (status == "fail")
        statuses.append(status)
    assert statuses == ["fail"] * len(SWAPS) + ["pass", "pass"]


# operation name -> fake(original, alg), the replacement installed on the instance
PATCHES = {
    # products of at least two members lose their largest id
    "mul": lambda orig, alg: lambda a, b: (
        alg.elem(orig(a, b).ids[:-1]) if len(orig(a, b).ids) > 1 else orig(a, b)),
    # tilde of a set with three or more members also holds the zero projection, so
    # double tilde keeps its closed form
    "tilde": lambda orig, alg: lambda a: (
        orig(a) | alg.delta(alg.l.bot) if len(a.ids) > 2 else orig(a)),
    # star of a singleton is the unit
    "star": lambda orig, alg: lambda a: alg.unit if len(a.ids) == 1 else orig(a),
    # joins of exactly three members lose their largest id
    # (orig runs once: the suites pass a generator)
    "union_all": lambda orig, alg: lambda elems: (
        alg.elem(u.ids[:2]) if len((u := orig(elems)).ids) == 3 else u),
    # double tilde of a set with exactly three members is the zero projection
    "tilde_tilde": lambda orig, alg: lambda a: (
        alg.delta(alg.l.bot) if len(a.ids) == 3 else orig(a)),
    # every singleton sends every test to top
    "action_table": lambda orig, alg: lambda k: (
        (alg.l.top,) * alg.l.n if len(k.ids) == 1 else orig(k)),
    # the atom decomposition drops the first atom of a set with two or more members
    "h_map": lambda orig, alg: lambda a: orig(a)[1:] if len(a.ids) > 1 else orig(a),
}


def patched_reports():
    """The dynalg suites and the h map on algebras with one operation replaced on the instance."""
    out = {}
    for l in (catalog("boolean", 2), catalog("mo", 2)):
        monoid = generate_T(l)
        target = gamma_object(psi_object(gamma_object(l, POLICY)), POLICY)
        for op, fake in PATCHES.items():
            alg = DynAlgebra(monoid)
            setattr(alg, op, fake(getattr(alg, op), alg))
            reports = [suite(alg, POLICY) for suite in (verify_ida, verify_toda, verify_module)]
            h = TodaHandle(l, monoid, alg, *alg.test_lattice()[:2])
            reports.append(verify_h_map(h, POLICY))
            if op == "h_map":
                reports.append(lambda_component(h, target, POLICY)[1])
            out[f"{l.name}/{op}"] = [r.to_dict() for r in reports]
    return out


def lin_reports():
    """The three Lin suites on Lin(l) and every other map, read against a perturbed l."""
    out = {}
    for l in (catalog("chain2"), catalog("boolean", 2), catalog("mo", 1)):
        maps = enumerate_lin(l)
        for kind in ("meet", "join", "perp", "top"):
            for seed in range(4):
                bad = perturbed(l, kind, random.Random(seed))
                for cut, carrier in (("full", maps), ("every_other", maps[::2])):
                    reports = [verify_foulis(bad, carrier), verify_left_module_on_M(bad, carrier),
                               sasaki_projection_lattice(bad, carrier)[2]]
                    out[f"{l.name}/{kind}_{seed}/{cut}"] = [r.to_dict() for r in reports]
    return out


def witness_variant_reports():
    return {
        "validate_oml": oml_reports(),
        "check_ortho_iso": iso_reports(),
        "punctured": punctured_reports(),
        "morphisms": morphism_reports(),
        "patched": patched_reports(),
        "lin": lin_reports(),
    }


def test_witness_variants_match_golden():
    with open(WITNESS_VARIANTS, encoding="utf-8") as fh:
        assert witness_variant_reports() == json.load(fh)


if __name__ == "__main__":
    # rewrites the golden file from whichever omloq is importable
    with open(WITNESS_VARIANTS, "w", encoding="utf-8") as fh:
        json.dump(witness_variant_reports(), fh, indent=1)
        fh.write("\n")
