import dataclasses
import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from omloq import equivalence
from omloq.dynalg import DynAlgebra, SamplePolicy
from omloq.errors import SuiteFailure
from omloq.equivalence import (
    DynMorphism,
    check_naturality_lambda,
    check_naturality_mu,
    gamma_morphism,
    gamma_object,
    lambda_component,
    nu_table,
    psi_morphism,
    psi_object,
    round_trip_report,
    verify_dyn_morphism,
    verify_h_map,
)
from omloq.oml import (
    OrthoIso,
    catalog,
    check_ortho_iso,
    enumerate_automorphisms,
    identity_iso,
    oml_from_tables,
    parse_lattice,
    validate_oml,
)
from omloq.report import ValidationReport
from omloq.testmonoid import DEFAULT_MONOID_CAP


@pytest.fixture(scope="module")
def pol():
    return SamplePolicy()


@pytest.fixture(scope="module")
def handles(pol):
    cache = {}

    def get(name, k=0):
        if (name, k) not in cache:
            h = gamma_object(catalog(name, k), pol)
            cache[(name, k)] = (h, gamma_object(psi_object(h), pol))
        return cache[(name, k)]

    return get


def mo2_swap():
    mo2 = catalog("mo", 2)

    def idx(*labels):
        return tuple(mo2.index(s) for s in labels)

    return OrthoIso(mo2, mo2, idx("0", "b", "b'", "a", "a'", "1"), name="swap")


def mo3_cycle() -> OrthoIso:
    mo3 = catalog("mo", 3)
    a, b, c = (mo3.index(x) for x in "abc")
    return next(g for g in enumerate_automorphisms(mo3)
                if g.map[a] == b and g.map[b] == c and g.map[c] == a)


def test_gamma_object_sizes(handles):
    h, _ = handles("chain2")
    assert h.monoid.size == 2 and h.verified
    h2, _ = handles("boolean", 2)
    assert h2.monoid.size == 4
    with pytest.raises(ValueError):
        gamma_object(catalog("o6"))


def test_gamma_morphism_identity_and_swap(handles, pol):
    h, _ = handles("mo", 2)
    mo2 = h.oml
    ident = gamma_morphism(identity_iso(mo2), h, h, pol)
    assert ident.elem_map == tuple(h.monoid.ids())

    swap = gamma_morphism(mo2_swap(), h, h, pol)
    a, b = mo2.index("a"), mo2.index("b")
    assert swap.elem_map[h.monoid.gen_id[a]] == h.monoid.gen_id[b]


def test_passing_product_check_makes_no_setwise_products(handles, pol, monkeypatch):
    # products are decided on the Cayley table, so neither a passing nor a failing
    # morphism sweeps any pairs
    h, _ = handles("mo", 2)
    phi = gamma_morphism(mo2_swap(), h, h, pol)
    ids = list(h.monoid.ids())
    ids[5], ids[6] = ids[6], ids[5]
    bad = DynMorphism(h, h, tuple(ids), name="swapped ids")
    pol.elements(h.alg)  # the sample's own generator products come before the count
    calls = []
    mul = DynAlgebra.mul

    def counted(self, a, b):
        calls.append((a.ids, b.ids))
        return mul(self, a, b)

    monkeypatch.setattr(DynAlgebra, "mul", counted)
    assert verify_dyn_morphism(phi, pol).ok
    assert verify_dyn_morphism(bad, pol)["product_preserved"].status == "fail"
    assert calls == []


def test_gamma_preserves_composition_samplewise(handles, pol):
    h, _ = handles("mo", 2)
    k = mo2_swap()
    phi_k = gamma_morphism(k, h, h, pol)
    phi_kk = gamma_morphism(k.compose(k), h, h, pol)
    for x in pol.elements(h.alg)[:60]:
        assert phi_kk.apply(x) == phi_k.apply(phi_k.apply(x))


def test_gamma_morphism_rejects_bad_input(handles, pol):
    h, _ = handles("mo", 2)
    mo2 = h.oml

    def idx(*labels):
        return tuple(mo2.index(s) for s in labels)

    not_iso = OrthoIso(mo2, mo2, idx("0", "b", "a'", "a", "b'", "1"))
    with pytest.raises(ValueError, match="not an ortholattice isomorphism"):
        gamma_morphism(not_iso, h, h, pol)
    hb, _ = handles("boolean", 2)
    with pytest.raises(ValueError, match="endpoints"):
        gamma_morphism(identity_iso(mo2), hb, hb, pol)


def test_gamma_morphism_reports_a_conjugate_missing_from_the_destination(handles, pol, monkeypatch):
    # id_of answers -1 for one element's conjugate, so the element map is no bijection
    h, _ = handles("mo", 2)
    swap = mo2_swap()
    id_of = h.monoid.id_of
    missing = tuple(swap(h.monoid.elems[7].tbl[swap.inverse()(x)]) for x in h.oml.elements())
    monkeypatch.setattr(h.monoid, "id_of", lambda tbl: -1 if tbl == missing else id_of(tbl))
    with pytest.raises(SuiteFailure, match=r"^gamma\(swap\) is not a morphism$") as exc:
        gamma_morphism(swap, h, h, pol)
    assert [c.name for c in exc.value.report.failures] == ["bijective_on_monoid"]


def test_toda_handle_repr(handles):
    h, _ = handles("boolean", 2)
    assert repr(h) == f"TodaHandle({h.oml.name}, |T|=4, verified=True)"


def test_psi_object_extracts_isomorphic_lattice(handles):
    for key in [("chain2", 0), ("boolean", 3), ("mo", 2)]:
        h, _ = handles(*key)
        tk = psi_object(h)
        assert tk.n == h.oml.n
        assert check_ortho_iso(h.delta).ok


def test_psi_morphism_examples(handles, pol):
    h, _ = handles("mo", 2)
    mo2 = h.oml
    ident = psi_morphism(gamma_morphism(identity_iso(mo2), h, h, pol))
    assert ident.map == tuple(range(mo2.n))

    k = mo2_swap()
    back = psi_morphism(gamma_morphism(k, h, h, pol))
    assert back.map == k.map  # the square psi(gamma(k)) . delta = delta . k
    assert check_ortho_iso(back).ok


def test_psi_morphism_rejects_a_non_projection_image(handles):
    # psi reads each test index through the algebra's own test check, so a bijection
    # that sends pi_a to a product that is no projection fails there
    h, _ = handles("mo", 2)
    ga = h.monoid.gen_id[h.oml.index("a")]
    other = next(i for i in h.monoid.ids() if i not in h.monoid.gen_id)
    elem_map = list(h.monoid.ids())
    elem_map[ga], elem_map[other] = other, ga
    with pytest.raises(AssertionError, match="is not a projection singleton"):
        psi_morphism(DynMorphism(h, h, tuple(elem_map), name="swap_a"))


def test_mu_naturality(handles, pol):
    hb, _ = handles("boolean", 2)
    rep = check_naturality_mu(identity_iso(hb.oml), hb, hb, pol)
    assert rep.ok

    h, _ = handles("mo", 2)
    rep = check_naturality_mu(mo2_swap(), h, h, pol)
    assert rep.ok

    h3, _ = handles("mo", 3)
    rep = check_naturality_mu(mo3_cycle(), h3, h3, pol)
    assert rep.ok, [c2.name for c2 in rep.failures]


def test_nu_is_involutive_monoid_isomorphism(handles, pol):
    # lambda_component checks nu once, as an algebra morphism onto the rebuild
    for key in [("chain2", 0), ("boolean", 2), ("mo", 2)]:
        h, target = handles(*key)
        _, rep = lambda_component(h, target, pol)
        assert rep.ok, (key, [c.name for c in rep.failures])
        assert [c.name for c in rep.checks][:6] == [
            "nu.tests_map_to_projections", "normal_form_and_atom_paths_agree",
            "morphism.bijective_on_monoid", "morphism.unit_preserved",
            "morphism.product_preserved", "morphism.star_preserved"]


def test_nu_map_examples(handles):
    h, target = handles("mo", 2)
    mo2 = h.oml
    nu = nu_table(h, target)
    # nu of a test is the projection at the matching test
    for m in mo2.elements():
        (test_id,) = h.alg.delta(m).ids
        assert nu[test_id] == target.monoid.gen_id[m]
    assert nu[h.monoid.unit_id] == target.monoid.unit_id
    # nu of a composite acts as the transported composition
    a, b = mo2.index("a"), mo2.index("b")
    ab = h.monoid.cayley[h.monoid.gen_id[a]][h.monoid.gen_id[b]]
    ab_t = target.monoid.cayley[target.monoid.gen_id[a]][target.monoid.gen_id[b]]
    assert nu[ab] == ab_t


def mu_map(alg, f):
    """mu: a monoid element to its singleton in the algebra."""
    if f not in alg.carrier:
        raise KeyError(f"monoid id {f} is not in the carrier")
    return alg.singleton(f)


def test_mu_map_examples(handles):
    h, _ = handles("mo", 2)
    alg = h.alg
    for m in h.oml.elements():
        assert mu_map(alg, alg.monoid.gen_id[m]) == alg.delta(m)
    assert mu_map(alg, alg.monoid.unit_id) == alg.unit
    f, g = alg.monoid.gen_id[1], alg.monoid.gen_id[3]
    assert mu_map(alg, alg.monoid.cayley[f][g]) == mu_map(alg, f) * mu_map(alg, g)


def test_lambda_component(handles, pol):
    h, target = handles("mo", 2)
    lam, rep = lambda_component(h, target, pol)
    assert rep.ok, [c.name for c in rep.failures]
    assert lam.apply(h.alg.zero) == target.alg.zero
    assert lam.apply(h.alg.unit) == target.alg.unit
    mo2 = h.oml
    a, b = mo2.index("a"), mo2.index("b")
    ga = h.alg.delta(a)
    gab = ga * h.alg.delta(b)
    x = ga | gab
    image = lam.apply(x)
    assert len(image.ids) == len(x.ids)
    nu = nu_table(h, target)
    nu_ids = {nu[i] for i in x.ids}
    assert set(image.ids) == nu_ids


def test_lambda_cardinality_and_normal_form(handles, pol):
    h, target = handles("boolean", 2)
    lam, _ = lambda_component(h, target, pol)
    for x in pol.elements(h.alg):
        assert len(lam.apply(x).ids) == len(x.ids)
        parts = h.alg.normal_form(x)
        assert [p.ids for p in parts] == [h.alg.singleton(i).ids for i in x.ids]


def test_lambda_components_across_corpus(handles, pol):
    # the corpus members not already covered by the round-trip tests
    for key in [("boolean", 1), ("boolean", 4), ("mo", 1), ("mo", 4)]:
        h, target = handles(*key)
        _, rep = lambda_component(h, target, pol)
        assert rep.ok, (key, [c.name for c in rep.failures])


def test_lambda_naturality(handles, pol):
    h, target = handles("mo", 2)
    lam, _ = lambda_component(h, target, pol)

    ident = gamma_morphism(identity_iso(h.oml), h, h, pol)
    rep = check_naturality_lambda(ident, lam, lam, pol)
    assert rep.ok

    swap = gamma_morphism(mo2_swap(), h, h, pol)
    rep = check_naturality_lambda(swap, lam, lam, pol)
    assert rep.ok, [c.witness for c in rep.failures]

    composed = gamma_morphism(mo2_swap().compose(mo2_swap()), h, h, pol)
    rep = check_naturality_lambda(composed, lam, lam, pol)
    assert rep.ok


def test_h_map_isomorphism(handles, pol):
    for key in [("chain2", 0), ("boolean", 2), ("mo", 2)]:
        h, _ = handles(*key)
        rep = verify_h_map(h, pol)
        assert rep.ok, (key, [c.name for c in rep.failures])


def test_h_map_rejoins_each_sampled_element_once(handles, pol, monkeypatch):
    h, _ = handles("mo", 3)
    calls = []
    h_map = DynAlgebra.h_map

    def counted(self, a):
        calls.append(a.ids)
        return h_map(self, a)

    monkeypatch.setattr(DynAlgebra, "h_map", counted)
    assert verify_h_map(h, pol).ok
    # one decomposition per element, one of the unit
    assert len(calls) <= len(pol.elements(h.alg)) + 1


def test_action_pair_members_are_sample_elements(algebra_for, policy):
    # the premise of verify_h_map's two checks: once every sampled element rejoins to
    # itself, so does every operand of an action pair
    from conftest import CORPUS_SPECS

    modes = set()
    for name, k in CORPUS_SPECS:
        alg = algebra_for(name, k)
        sample = {x.ids for x in policy.elements(alg)}
        assert all(x.ids in sample and y.ids in sample for x, y in policy.action_pairs(alg)), (name, k)
        modes.add(policy.is_exhaustive(alg))
    assert modes == {True, False}


def test_bijective_on_monoid_needs_one_value_per_source_id(handles, pol):
    # each map's values are exactly the target's ids, but there are too few or too many
    # of them; the check fails, and nothing indexes past the map
    hm, _ = handles("mo", 2)
    hb, _ = handles("boolean", 2)
    for src, dst in ((hm, hb), (hb, hm)):
        phi = DynMorphism(src, dst, tuple(dst.monoid.ids()), name="sizes")
        rep = verify_dyn_morphism(phi, pol)
        assert [(c.name, c.status) for c in rep.checks] == [("bijective_on_monoid", "fail")]


@given(st.data())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_apply_preserves_unions_for_any_id_map(handles, pol, data):
    # apply maps ids one by one, so any id map, bijective or not, preserves unions;
    # verify_dyn_morphism spends no check on them
    keys = st.sampled_from([("boolean", 2), ("mo", 2)])
    src, dst = handles(*data.draw(keys))[0], handles(*data.draw(keys))[0]
    size = src.monoid.size
    elem_map = data.draw(st.lists(st.integers(0, dst.monoid.size - 1),
                                  min_size=size, max_size=size))
    phi = DynMorphism(src, dst, tuple(elem_map))
    elems = st.sampled_from(pol.elements(src.alg))
    x, y = data.draw(elems), data.draw(elems)
    assert phi.apply(x | y) == phi.apply(x) | phi.apply(y)


def test_mu_naturality_over_full_automorphism_groups(handles, pol):
    # the whole morphism corpus for the two smallest non-Boolean lattices:
    # every automorphism of mo(2), a spread of automorphisms of mo(3)
    h, _ = handles("mo", 2)
    for g in enumerate_automorphisms(h.oml):
        rep = check_naturality_mu(g, h, h, pol)
        assert rep.ok, (g.name, [c.name for c in rep.failures])
    h3, _ = handles("mo", 3)
    autos3 = enumerate_automorphisms(h3.oml)
    assert len(autos3) == 48
    for g in autos3[::8]:
        rep = check_naturality_mu(g, h3, h3, pol)
        assert rep.ok, (g.name, [c.name for c in rep.failures])


def test_psi_preserves_composition(handles, pol):
    h, _ = handles("mo", 2)
    k = mo2_swap()
    phi = gamma_morphism(k, h, h, pol)
    phi2 = gamma_morphism(k.compose(k), h, h, pol)
    lhs = psi_morphism(phi2).map
    one = psi_morphism(phi)
    rhs = tuple(one.map[one.map[m]] for m in h.oml.elements())
    assert lhs == rhs


def test_round_trip_small(pol):
    for key in [("chain2", 0), ("boolean", 2), ("mo", 2)]:
        rep = round_trip_report(catalog(*key) if key[1] else catalog(key[0]), [], pol)
        assert rep.ok, (key, [c.name for c in rep.failures])


def b2_relabel() -> OrthoIso:
    """An isomorphism between two presentations of the same Boolean algebra."""
    b2 = catalog("boolean", 2)
    other = parse_lattice(
        "name b2-relabeled\n"
        "elements bot x y top\n"
        "leq bot x\nleq bot y\nleq x top\nleq y top\n"
        "perp x y\n"
    )
    tbl = tuple(other.index(s) for s in ("bot", "x", "y", "top"))
    return OrthoIso(b2, other, tbl, name="relabel")


def test_round_trip_with_relabeled_b2(pol):
    relabel = b2_relabel()
    b2 = relabel.src
    assert check_ortho_iso(relabel).ok
    rep = round_trip_report(b2, [relabel], pol)
    assert rep.ok, [c.name for c in rep.failures]
    assert any(c.name == "mu_naturality[relabel]" for c in rep.checks)
    assert any(c.name == "lambda_naturality[relabel]" for c in rep.checks)


def test_round_trip_reports_the_destination_lambda(pol, monkeypatch):
    # a lambda failure on the destination lattice fails the verdict, reported once
    # however many morphisms land there
    relabel = b2_relabel()
    lambda_component = equivalence.lambda_component

    def failing_at_destination(h, target, policy=None):
        lam, rep = lambda_component(h, target, policy)
        if h.oml is relabel.dst:
            rep.add("forced", False, "at the destination")
        return lam, rep

    monkeypatch.setattr(equivalence, "lambda_component", failing_at_destination)
    rep = round_trip_report(relabel.src, [relabel, relabel], pol)
    assert [(c.name, c.witness) for c in rep.failures] == [
        ("lambda_component[b2-relabeled]", "forced:at the destination")]


def test_nu_table_failure_names_its_check(monkeypatch):
    # nu_table is the bare table, so a shared action is reported, not raised
    h = gamma_object(catalog("boolean", 2))
    target = gamma_object(psi_object(h))
    monkeypatch.setattr(h.alg, "action_table", lambda k: (0,) * h.oml.n)
    assert nu_table(h, target) == (target.monoid.id_of((0,) * h.oml.n),) * h.monoid.size
    _, rep = lambda_component(h, target)
    assert [(c.name, c.witness) for c in rep.failures] == [
        ("nu.tests_map_to_projections", "p"), ("morphism.bijective_on_monoid", "")]


def test_lambda_component_reports_an_action_outside_the_target_monoid():
    # boolean(2)'s test lattice in reversed index order: three of h's action tables are
    # not in that target's monoid, so nu marks them -1 and the report says so
    b2 = catalog("boolean", 2)
    h, target = gamma_object(b2), gamma_object(reindexed(b2))
    assert nu_table(h, target) == (-1, -1, -1, 0)
    _, rep = lambda_component(h, target)
    assert [(c.name, c.witness) for c in rep.failures] == [
        ("nu.tests_map_to_projections", "0"), ("morphism.bijective_on_monoid", "")]


def full_rebuild(policy):
    """Gamma(Psi(h)) the long way: every suite run again on the test lattice."""
    return lambda h, monoid_cap: gamma_object(psi_object(h), policy, monoid_cap=monoid_cap,
                                              require=False)


def tables(t):
    """What a rebuilt handle holds: its monoid, its own test lattice and the verdict."""
    tk = t.test_oml
    return ([e.tbl for e in t.monoid.elems], t.monoid.star, t.monoid.gen_id, t.monoid.unit_id,
            t.oml.names, tk.up, tk.meet, tk.join, tk.perp, tk.bot, tk.top, t.delta.map, t.verified)


def rebuild_differences(l, morphisms, policy):
    """Round trip l with the table-identity rebuild and with the full route: which of
    the report and the rebuilt handles' tables differ, and how many rebuilds ran."""
    reduced = equivalence._rebuild
    runs = []
    for rebuild in (reduced, full_rebuild(policy)):
        made = []

        def recording(h, monoid_cap, rebuild=rebuild, made=made):
            made.append(rebuild(h, monoid_cap))
            return made[-1]

        equivalence._rebuild = recording
        try:
            report = round_trip_report(l, morphisms, policy).to_dict()
        finally:
            equivalence._rebuild = reduced
        runs.append((report, [tables(t) for t in made]))
    (report, made), (full_report, full_made) = runs
    diffs = [what for what, same in (("report", report == full_report),
                                     ("tables", made == full_made)) if not same]
    return diffs, len(made)


@pytest.mark.parametrize("key, morphisms, rebuilds", [
    (("chain2", 0), [], 1),
    (("boolean", 2), [], 1),
    (("mo", 2), [], 1),
    (("mo", 3), [mo3_cycle], 1),
    (("boolean", 2), [b2_relabel], 2),
], ids=["chain2", "boolean-2", "mo-2", "mo-3-cycle", "boolean-2-relabel"])
def test_rebuild_by_table_identity_matches_the_full_route(pol, key, morphisms, rebuilds):
    # the full route is the oracle: the same report, byte for byte, and rebuilt handles
    # with the same monoid and test-lattice tables; b2-relabel rebuilds its destination too
    l = catalog(*key) if key[1] else catalog(key[0])
    assert rebuild_differences(l, [k() for k in morphisms], pol) == ([], rebuilds)


def test_round_trip_runs_each_suite_once_per_lattice(pol, monkeypatch):
    # the rebuilds run no suite: one run of each per distinct lattice, where running
    # them again on every test lattice made two for mo(2) and four for b2-relabel
    calls = Counter()
    names = ("verify_ida", "verify_toda", "verify_module")
    for name in names:
        def counted(alg, policy, name=name, suite=getattr(equivalence, name)):
            calls[name] += 1
            return suite(alg, policy)

        monkeypatch.setattr(equivalence, name, counted)
    assert round_trip_report(catalog("mo", 2), [mo2_swap()], pol).ok
    assert calls == dict.fromkeys(names, 1)
    calls.clear()
    relabel = b2_relabel()
    assert round_trip_report(relabel.src, [relabel], pol).ok
    assert calls == dict.fromkeys(names, 2)


def reindexed(l):
    """l with its elements indexed in reverse order: the same lattice, indexed otherwise."""
    r, xs = l.elements()[::-1], l.elements()  # r is its own inverse
    return oml_from_tables(
        [l.names[i] for i in r], lambda x, y: l.leq(r[x], r[y]),
        [[r[l.meet[r[x]][r[y]]] for y in xs] for x in xs],
        [[r[l.join[r[x]][r[y]]] for y in xs] for x in xs],
        [r[l.perp[r[x]]] for x in xs], bot=r[l.bot], top=r[l.top], name=l.name)


def test_rebuild_rejects_a_test_lattice_in_another_index_order(pol, monkeypatch):
    # an ortho-isomorphic test lattice whose suites pass, but whose tables are not h's:
    # its monoid differs id for id, so the round trip stops at gamma_of_test_lattice
    gamma = equivalence.gamma_object

    def reindexing(m, *args, **kwargs):
        h = gamma(m, *args, **kwargs)
        return dataclasses.replace(h, test_oml=reindexed(h.test_oml))

    h = reindexing(catalog("boolean", 2), pol)
    assert validate_oml(h.test_oml).ok and gamma_object(h.test_oml, pol).verified
    target = equivalence._rebuild(h, DEFAULT_MONOID_CAP)
    assert [(k, c.name) for k, r in target.suites.items() for c in r.failures] == [
        ("rebuild", "monoid_equals_source")]

    monkeypatch.setattr(equivalence, "gamma_object", reindexing)
    rep = round_trip_report(catalog("boolean", 2), [], pol)
    assert [(c.name, c.status) for c in rep.checks][-2:] == [
        ("mu_component.is_ortho_iso", "pass"), ("gamma_of_test_lattice", "fail")]


def test_round_trip_raises_when_a_destination_rebuild_fails(pol, monkeypatch):
    relabel = b2_relabel()
    gamma = equivalence.gamma_object

    def reindexed_at_destination(m, *args, **kwargs):
        h = gamma(m, *args, **kwargs)
        return dataclasses.replace(h, test_oml=reindexed(h.test_oml)) if m is relabel.dst else h

    monkeypatch.setattr(equivalence, "gamma_object", reindexed_at_destination)
    with pytest.raises(SuiteFailure, match="rebuild of b2-relabeled fails") as err:
        round_trip_report(relabel.src, [relabel], pol)
    assert [c.name for c in err.value.report.failures] == ["monoid_equals_source"]


def test_round_trip_stops_at_an_unverified_algebra(pol, monkeypatch):
    failing = ValidationReport(title="forced")
    failing.add("forced", False)
    monkeypatch.setattr(equivalence, "verify_toda", lambda alg, policy: failing)
    rep = round_trip_report(catalog("mo", 2), [mo2_swap()], pol)
    assert [(c.name, c.status) for c in rep.checks] == [
        ("gamma.test_lattice", "pass"), ("gamma.ida", "pass"), ("gamma.toda", "fail"),
        ("gamma.module", "pass")]


def test_round_trip_rejects_a_morphism_from_another_lattice(pol):
    with pytest.raises(ValueError, match="does not start at boolean"):
        round_trip_report(catalog("boolean", 2), [mo2_swap()], pol)


def test_gamma_object_requires_every_suite_to_pass(pol, monkeypatch):
    failing = ValidationReport(title="forced")
    failing.add("forced", False)
    monkeypatch.setattr(equivalence, "verify_toda", lambda alg, policy: failing)
    with pytest.raises(SuiteFailure, match=r"^suite failures on mo\(2\): \['toda:forced'\]$") as err:
        gamma_object(catalog("mo", 2), pol)
    names = [c.name for c in err.value.report.checks]
    assert err.value.report.title == "gamma(mo(2))" and "toda.forced" in names
    assert {name.split(".")[0] for name in names} == {"test_lattice", "ida", "toda", "module"}
    unverified = gamma_object(catalog("mo", 2), pol, require=False)
    with pytest.raises(ValueError, match="^handle is unverified; cannot extract its test lattice$"):
        psi_object(unverified)


def test_psi_morphism_rejects_a_restriction_that_is_no_ortho_iso(pol):
    # pi(a) and pi(b) exchanged alone: a's orthocomplement is not carried to b's
    h = gamma_object(catalog("mo", 2), pol)
    gen = h.monoid.gen_id
    a, b = gen[h.oml.index("a")], gen[h.oml.index("b")]
    ids = list(h.monoid.ids())
    ids[a], ids[b] = b, a
    with pytest.raises(SuiteFailure, match=r"^psi\(s\) is not an ortho-iso$") as err:
        psi_morphism(DynMorphism(h, h, tuple(ids), name="s"))
    assert not err.value.report.ok


if __name__ == "__main__":
    # the differential on criterion 11's heavier lattices, too slow for tier-1:
    # PYTHONPATH=src python tests/test_equivalence.py exits 1 on any difference
    from test_acceptance import automorphism

    b4, b5, mo4, mo5 = (catalog(*key) for key in (("boolean", 4), ("boolean", 5),
                                                  ("mo", 4), ("mo", 5)))
    jobs = [
        (b4, automorphism(b4, {"p": "q", "q": "p", "r": "r", "s": "s"})),
        (mo4, automorphism(mo4, {"a": "b", "b": "a", "c": "c", "d": "d"})),
        (b5, automorphism(b5, {"p": "q", "q": "p", "r": "r", "s": "s", "t": "t"})),
        (mo5, automorphism(mo5, {"a": "b", "b": "c", "c": "d", "d": "e", "e": "a"})),
    ]
    status = 0
    for l, k in jobs:
        diffs, rebuilds = rebuild_differences(l, [k], SamplePolicy())
        print(l.name, k.name, "rebuilds:", rebuilds, "differences:", diffs or "none")
        status |= bool(diffs) or rebuilds != 1
    sys.exit(status)
