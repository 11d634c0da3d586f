"""Output checks and negative controls, run after the timed jobs.

The checks compare the program's reports against values the benchmark
computes apart from the program (``lattices``) or against exact counts
known in closed form.  A negative control hands a verifier a broken input
and passes only when the verifier rejects it; it returns True for a
rejection, False for an acceptance, and lets an exception propagate, which
the runner counts as a failed operation.
"""

from __future__ import annotations

import json
from math import factorial

import lattices

MODELS = {
    "chain2": lattices.chain2(),
    "boolean2": lattices.boolean(2),
    "boolean3": lattices.boolean(3),
    "boolean4": lattices.boolean(4),
    "mo2": lattices.mo(2),
    "mo3": lattices.mo(3),
    "mo4": lattices.mo(4),
}

# morphism files for equiv, as label pairs: swap and not_aut are over mo(2),
# cycle over mo(3); not_aut swaps a and b but fixes their complements, so it
# is a bijection but not an automorphism
MORPHISMS = {
    "swap": [("0", "0"), ("a", "b"), ("a'", "b'"), ("b", "a"), ("b'", "a'"), ("1", "1")],
    "cycle": [("0", "0"), ("a", "b"), ("a'", "b'"), ("b", "c"), ("b'", "c'"), ("c", "a"), ("c'", "a'"), ("1", "1")],
    "not_aut": [("0", "0"), ("a", "b"), ("a'", "a'"), ("b", "a"), ("b'", "b'"), ("1", "1")],
}


def write_inputs(directory) -> dict[str, str]:
    """Write every lattice and morphism file; returns name -> path."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, lat in MODELS.items():
        path = directory / f"{name}.lat"
        path.write_text(lat.to_text(), encoding="utf-8")
        paths[name] = str(path)
    for name, pairs in MORPHISMS.items():
        path = directory / f"{name}.iso"
        path.write_text("".join(f"iso {a} {b}\n" for a, b in pairs), encoding="utf-8")
        paths[name] = str(path)
    return paths


def _load(ctx, name: str):
    from omloq import load_lattice

    l = load_lattice(ctx.inputs[name])
    if l.names != tuple(MODELS[name].labels):
        raise AssertionError(f"{name}: the program reordered the declared elements")
    return l


def report_checks(job_name: str, text: str, schema_validator) -> list[tuple[str, bool, str]]:
    """A CLI report validates against the package schema, with verdict pass."""
    doc = json.loads(text)
    errors = [e.message for e in schema_validator.iter_errors(doc)]
    return [
        (f"{job_name}: report validates against the schema", not errors, "; ".join(errors[:3])),
        (f"{job_name}: verdict pass, exit 0", doc.get("verdict") == "pass" and doc.get("exit_code") == 0,
         f"verdict {doc.get('verdict')}"),
    ]


# ---------------------------------------------------------------------------
# per workload: checks on the first round's reports


def toda_checks(ctx, docs: dict) -> list[tuple[str, bool, str]]:
    from omloq import DynAlgebra, SamplePolicy, generate_T

    out = []
    for job in ctx.jobs:
        model = MODELS[job.lattice]
        closure = lattices.sasaki_monoid_size(model)
        got = docs[job.name]["data"]["monoid_size"]
        out.append((f"{job.name}: monoid_size is the Sasaki closure size {closure}", got == closure, f"got {got}"))

        alg = DynAlgebra(generate_T(_load(ctx, job.lattice)))
        bad = [
            (u, v)
            for u in range(model.n)
            for v in range(model.n)
            if alg.action(alg.delta(u), v) != model.sasaki(u, v)
        ]
        out.append((f"{job.name}: action(delta(u), v) = u meet (u' join v) for all u, v", not bad,
                    f"first mismatch {bad[:1]}"))

        if job.lattice == "boolean3":
            policy = SamplePolicy(seed=ctx.seed)
            n_elems, n_pairs = len(policy.elements(alg)), len(policy.pairs(alg))
            out.append((
                f"{job.name}: exhaustive mode examines 2^|T| elements and 4^|T| pairs",
                policy.is_exhaustive(alg) and n_elems == 2**closure and n_pairs == 4**closure,
                f"{n_elems} elements, {n_pairs} pairs for |T| = {closure}",
            ))
    return out


def equiv_checks(ctx, docs: dict) -> list[tuple[str, bool, str]]:
    from omloq import enumerate_automorphisms

    out = []
    for job in ctx.jobs:
        doc = docs[job.name]
        if job.kind == "cli":
            want = [job.morphisms[0]]
            out.append((f"{job.name}: report covers morphism {want}", doc["data"]["morphisms"] == want,
                        f"got {doc['data']['morphisms']}"))
        else:
            k = int(job.args[-1])
            out.append((f"{job.name}: 2^k k! automorphisms", doc["count"] == 2**k * factorial(k),
                        f"got {doc['count']}"))
    for name, k in (("mo2", 2), ("mo3", 3)):
        n = len(enumerate_automorphisms(_load(ctx, name)))
        out.append((f"enumerate_automorphisms({name}): 2^k k! automorphisms", n == 2**k * factorial(k),
                    f"got {n}"))
    return out


def linmaps_checks(ctx, docs: dict) -> list[tuple[str, bool, str]]:
    from omloq import bruteforce_lin, enumerate_lin

    out = []
    for job in ctx.jobs:
        got = docs[job.name]["data"]["carrier_size"]
        model = MODELS[job.lattice]
        if job.lattice == "mo2":
            want = lattices.count_join_preserving(model)
            out.append((f"{job.name}: carrier_size matches a brute force over 6^6 tables ({want})",
                        got == want, f"got {got}"))
            continue
        k = model.n.bit_length() - 1
        oracle = len(bruteforce_lin(_load(ctx, job.lattice)))
        out.append((f"{job.name}: carrier_size = bruteforce_lin = (2^k)^k = {2**(k * k)}",
                    got == oracle == 2 ** (k * k), f"got {got}, oracle {oracle}"))
    n = len(enumerate_lin(_load(ctx, "boolean3")))
    out.append(("enumerate_lin(boolean3): (2^k)^k = 512 maps", n == 512, f"got {n}"))
    return out


CHECKS = {"toda": toda_checks, "equiv": equiv_checks, "linmaps": linmaps_checks}


# ---------------------------------------------------------------------------
# negative controls, run once per round


def punctured_carrier(ctx) -> bool:
    """mo(3) with one composite removed from the carrier fails TODA2.minimality."""
    from omloq import DynAlgebra, SamplePolicy, generate_T, verify_toda

    monoid = generate_T(_load(ctx, "mo3"))
    composite = max(e.id for e in monoid.elems if len(e.witness) >= 2)
    alg = DynAlgebra(monoid, carrier=tuple(i for i in monoid.ids() if i != composite))
    return verify_toda(alg, SamplePolicy(seed=ctx.seed))["TODA2.minimality"].status == "fail"


def non_automorphism(ctx) -> bool:
    """equiv with a morphism file that is not an automorphism exits with code 2."""
    code, text = ctx.run_cli(["equiv", ctx.inputs["mo2"], ctx.inputs["not_aut"]])
    return code == 2 and json.loads(text)["verdict"] == "input-error"


def unclosed_carrier(ctx) -> bool:
    """Lin(boolean(2)) without pi_p: carrier.closed fails, O3 is inconclusive."""
    from omloq import enumerate_lin, verify_foulis

    l = _load(ctx, "boolean2")
    model = MODELS["boolean2"]
    pi_p = tuple(model.sasaki(1, x) for x in range(model.n))
    carrier = enumerate_lin(l)
    maps = [f for f in carrier if f.base.tbl != pi_p]
    if len(maps) != len(carrier) - 1:
        raise ValueError("pi_p is missing from the enumerated carrier")
    rep = verify_foulis(l, maps)
    return rep["carrier.closed"].status == "fail" and rep["O3.perp_factorization"].status == "inconclusive"


def non_linear_map(ctx) -> bool:
    """A table that breaks a join, slipped into Lin(boolean(2)), fails A1."""
    from omloq import EndoMap, LinMap, enumerate_lin, verify_left_module_on_M

    l = _load(ctx, "boolean2")
    f = EndoMap(l, lattices.first_non_join_preserving(MODELS["boolean2"]))
    rep = verify_left_module_on_M(l, enumerate_lin(l) + [LinMap(f, f)])
    return rep["A1.action_preserves_joins_of_elements"].status == "fail"


CONTROLS = {
    "toda": [punctured_carrier],
    "equiv": [non_automorphism],
    "linmaps": [unclosed_carrier, non_linear_map],
}
