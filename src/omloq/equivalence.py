"""Round trips between lattices and their powerset dynamic algebras.

``gamma_object`` builds the algebra over the generated projection monoid and
insists its axiom suites pass.  ``psi_object`` extracts the test lattice
back out.  Lattice isomorphisms travel forward by conjugation and backward
by restriction to tests, and the two directions are tied together by the
component maps checked here: the per-lattice test-relabeling (delta, used
as the mu component) and the per-algebra atom-to-action map (lambda, built
from nu).  ``round_trip_report`` bundles everything as one verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .dynalg import DynAlgebra, DynElem, SamplePolicy, verify_ida, verify_module, verify_toda
from .errors import SuiteFailure
from .oml import Oml, OrthoIso, check_ortho_iso, identity_iso
from .report import ValidationReport
from .testmonoid import DEFAULT_MONOID_CAP, InvMonoid, generate_T


@dataclass
class TodaHandle:
    """A verified algebra over a lattice, with its extracted test lattice."""

    oml: Oml
    monoid: InvMonoid
    alg: DynAlgebra
    test_oml: Oml
    delta: OrthoIso
    suites: dict[str, ValidationReport] = field(default_factory=dict)

    @property
    def verified(self) -> bool:
        return all(r.ok for r in self.suites.values())

    def __repr__(self) -> str:
        return f"TodaHandle({self.oml.name}, |T|={self.monoid.size}, verified={self.verified})"


def gamma_object(
    m: Oml,
    policy: SamplePolicy = SamplePolicy(),
    monoid_cap: int = DEFAULT_MONOID_CAP,
    require: bool = True,
) -> TodaHandle:
    """Build and verify the dynamic algebra of a lattice.

    Runs the full ida/toda/module suites; with ``require`` (the default) any
    failure raises SuiteFailure since it would falsify the construction on
    this instance.
    """
    monoid = generate_T(m, cap=monoid_cap)
    alg = DynAlgebra(monoid)
    test_oml, delta, tl_report = alg.test_lattice()
    suites = {
        "test_lattice": tl_report,
        "ida": verify_ida(alg, policy),
        "toda": verify_toda(alg, policy),
        "module": verify_module(alg, policy),
    }
    handle = TodaHandle(m, monoid, alg, test_oml, delta, suites)
    if require and not handle.verified:
        bad = [f"{k}:{c.name}" for k, r in suites.items() for c in r.failures]
        combined = ValidationReport(title=f"gamma({m.name})")
        for k, r in suites.items():
            combined.extend(r, prefix=f"{k}.")
        raise SuiteFailure(f"suite failures on {m.name}: {bad}", combined)
    return handle


def psi_object(h: TodaHandle) -> Oml:
    if not h.verified:
        raise ValueError("handle is unverified; cannot extract its test lattice")
    return h.test_oml


@dataclass(frozen=True)
class DynMorphism:
    """A carrier bijection between two algebras, applied id-wise to elements."""

    src: TodaHandle
    dst: TodaHandle
    elem_map: tuple[int, ...]
    name: str = ""

    def apply(self, x: DynElem) -> DynElem:
        return self.dst.alg.elem(self.elem_map[i] for i in x.ids)


def verify_dyn_morphism(
    phi: DynMorphism, policy: SamplePolicy = SamplePolicy()
) -> ValidationReport:
    """Bijectivity plus preservation of unit, product, star and tilde.

    ``apply`` maps ids one by one, so every id map preserves unions and no
    check is spent on them.  Products are decided on every pair of monoid
    ids and stars on every id, with failing ids shown as singletons; since
    P(T) is the free quantale on T, these decide every pair of subsets.
    Tildes are swept over the policy sample.
    """
    r = ValidationReport(title=f"dyn morphism {phi.name}")
    src_alg, dst_alg = phi.src.alg, phi.dst.alg
    src, dst, em = src_alg.monoid, dst_alg.monoid, phi.elem_map

    ok = len(em) == src.size and sorted(em) == list(dst.ids())
    r.add("bijective_on_monoid", ok)
    if not ok:
        return r

    r.add("unit_preserved", phi.apply(src_alg.unit) == dst_alg.unit)
    single, rows, dst_rows = src_alg.singleton, src.cayley, dst.cayley
    r.first("product_preserved", (f"{single(a)!r},{single(b)!r}"
                                  for a in src.ids() for b in src.ids()
                                  if em[rows[a][b]] != dst_rows[em[a]][em[b]]))
    r.first("star_preserved", (repr(single(a)) for a in src.ids()
                               if em[src.star[a]] != dst.star[em[a]]))
    r.first("tilde_preserved", (repr(x) for x in policy.elements(src_alg)
                                if phi.apply(x.tilde()) != phi.apply(x).tilde()))

    return r


def gamma_morphism(
    k: OrthoIso,
    src: TodaHandle,
    dst: TodaHandle,
    policy: SamplePolicy = SamplePolicy(),
) -> DynMorphism:
    """Transport a lattice isomorphism to the algebras by conjugation.

    Each monoid element's table is conjugated and re-identified in the
    destination monoid; the resulting element map is verified to be a
    morphism of algebras before it is returned.
    """
    iso_rep = check_ortho_iso(k)
    if not iso_rep.ok:
        raise ValueError(f"not an ortholattice isomorphism: {[c.name for c in iso_rep.failures]}")
    if k.src.names != src.oml.names or k.dst.names != dst.oml.names:
        raise ValueError("morphism endpoints do not match the supplied handles")

    kinv = k.inverse()
    elem_map = []
    for e in src.monoid.elems:
        conj = tuple(k(e.tbl[kinv(x)]) for x in dst.oml.elements())
        try:
            elem_map.append(dst.monoid.id_of(conj))
        except KeyError:
            raise AssertionError(
                f"conjugate of {e!r} missing from the destination monoid"
            ) from None
    phi = DynMorphism(src, dst, tuple(elem_map), name=f"gamma({k.name})")
    rep = verify_dyn_morphism(phi, policy)
    if not rep.ok:
        raise SuiteFailure(f"gamma({k.name}) is not a morphism", rep)
    return phi


def psi_morphism(phi: DynMorphism) -> OrthoIso:
    """Restrict an algebra morphism to tests, re-indexed through delta."""
    src, dst = phi.src, phi.dst
    tbl = [dst.alg._test_index(dst.alg.singleton(phi.elem_map[g])) for g in src.monoid.gen_id]
    iso = OrthoIso(src.test_oml, dst.test_oml, tuple(tbl), name=f"psi({phi.name})")
    rep = check_ortho_iso(iso)
    if not rep.ok:
        raise SuiteFailure(f"psi({phi.name}) is not an ortho-iso", rep)
    return iso


# ---------------------------------------------------------------------------
# the canonical components


def nu_table(h: TodaHandle, target: TodaHandle) -> tuple[int, ...]:
    """For each monoid id of h, the target-monoid id of its action on tests.

    The bare table: two ids sharing an action, a target id that no action
    reaches, or an action outside the target's monoid (id -1) make it no
    bijection, which ``lambda_component`` reports as
    ``morphism.bijective_on_monoid``.
    """
    by_tbl = target.monoid._by_tbl
    return tuple(by_tbl.get(h.alg.action_table(h.alg.singleton(f)), -1) for f in h.monoid.ids())


def lambda_component(
    h: TodaHandle, target: TodaHandle, policy: SamplePolicy = SamplePolicy()
) -> tuple[DynMorphism, ValidationReport]:
    """The atom-wise nu image, as a morphism from the algebra to its rebuild.

    nu is checked once, as an algebra morphism (``morphism.``): bijective on
    the monoid, with its unit, products, stars and tildes preserved.  Beside
    that, each test must go to the projection at the matching test, and the
    image must agree through the normal form (splitting the id tuple) and
    through the atom decomposition (scanning the carrier for inclusion).
    """
    r = ValidationReport(title=f"lambda on P(T({h.oml.name}))")
    nu = nu_table(h, target)
    r.first("nu.tests_map_to_projections",
            (h.oml.names[m] for m in h.oml.elements()
             if nu[h.monoid.gen_id[m]] != target.monoid.gen_id[m]),
            detail="nu of a test is the projection at the matching test")
    lam = DynMorphism(h, target, nu, name="lambda")

    r.first("normal_form_and_atom_paths_agree", (
        repr(x) for x in policy.elements(h.alg)
        if target.alg.elem(nu[s.ids[0]] for s in h.alg.normal_form(x)) != lam.apply(x)
        or target.alg.elem(nu[s.ids[0]] for s in h.alg.h_map(x)) != lam.apply(x)))

    r.extend(verify_dyn_morphism(lam, policy), prefix="morphism.")
    return lam, r


def check_naturality_mu(
    k: OrthoIso, src: TodaHandle, dst: TodaHandle, policy: SamplePolicy = SamplePolicy()
) -> ValidationReport:
    """Both paths around the mu square, evaluated at every source element."""
    return _mu_report(k, gamma_morphism(k, src, dst, policy))


def _mu_report(k: OrthoIso, phi: DynMorphism) -> ValidationReport:
    src, dst = phi.src, phi.dst
    r = ValidationReport(title=f"mu naturality for {k.name}")
    psi_phi = psi_morphism(phi)
    for m in src.oml.elements():
        via_k = k(m)
        via_square = psi_phi(m)
        r.add(
            f"square@{src.oml.names[m]}",
            via_square == via_k,
            "" if via_square == via_k else f"{dst.oml.names[via_square]} != {dst.oml.names[via_k]}",
        )
    return r


def check_naturality_lambda(
    phi: DynMorphism,
    lam_src: DynMorphism,
    lam_dst: DynMorphism,
    policy: SamplePolicy = SamplePolicy(),
) -> ValidationReport:
    """The lambda square on the singleton of each source carrier id, in id order.

    Every map in the square acts id by id (``DynMorphism.apply``), so both
    paths preserve unions, and P(T) is the free sup-lattice on T: the
    square commutes on every subset exactly when it commutes on every
    singleton.  ``detail`` counts the elements examined, the failing one
    included.
    """
    r = ValidationReport(title=f"lambda naturality for {phi.name}")
    gpsi = gamma_morphism(psi_morphism(phi), lam_src.dst, lam_dst.dst, policy)

    singles = [phi.src.alg.singleton(i) for i in phi.src.alg.carrier]
    # the 1-based position of the first singleton where the square fails, else 0
    bad = next((n for n, x in enumerate(singles, 1)
                if gpsi.apply(lam_src.apply(x)) != lam_dst.apply(phi.apply(x))), 0)
    r.add("square_commutes", not bad, repr(singles[bad - 1]) if bad else "",
          f"{bad or len(singles)} elements")
    return r


# ---------------------------------------------------------------------------
# the h map


def verify_h_map(h: TodaHandle, policy: SamplePolicy = SamplePolicy()) -> ValidationReport:
    """The atom decomposition rejoins every sampled element, and the unit is one atom.

    No other check is made.  An operation carried across h rejoins each
    operand's atoms, applies the operation and decomposes again; on the
    sample it would be compared with the operation itself (product on the
    action pairs; star, tilde and h after join on the elements).  Every
    member of an action pair is a sample element or the unit, and a unit
    outside the carrier fails ``unit_atoms``.  So once both checks pass,
    every operand rejoins to itself, and each such comparison is of an
    expression with itself.
    """
    alg = h.alg
    r = ValidationReport(title=f"h map on P(T({h.oml.name}))")
    r.first("join_after_h_is_identity", (repr(x) for x in policy.elements(alg)
                                         if alg.union_all(alg.h_map(x)) != x))
    r.add("unit_atoms", [a.ids for a in alg.h_map(alg.unit)] == [alg.unit.ids])
    return r


# ---------------------------------------------------------------------------
# the aggregate


def _rebuild(h: TodaHandle, monoid_cap: int) -> TodaHandle:
    """Gamma(Psi(h)) by table identity, without running h's suites a second time.

    h.verified includes delta's check_ortho_iso on the identity index map, so
    the test lattice has h's order, meet, join and perp tables.  Its Sasaki
    projections are then h's, and ``monoid_equals_source`` checks that the
    generated monoid is h's id for id.  Every operation, sample and suite
    outcome over it would be h's, so only the rebuilt algebra's own test
    lattice is extracted and checked.
    """
    tk = psi_object(h)
    monoid = generate_T(tk, cap=monoid_cap)
    alg = DynAlgebra(monoid)
    test_oml, delta, tl_report = alg.test_lattice()
    r = ValidationReport(f"rebuild of {h.oml.name}", list(tl_report.checks))
    r.add("monoid_equals_source", [e.tbl for e in monoid.elems] == [e.tbl for e in h.monoid.elems]
          and monoid.star == h.monoid.star and monoid.gen_id == h.monoid.gen_id)
    return TodaHandle(tk, monoid, alg, test_oml, delta, {"rebuild": r})


def round_trip_report(
    m: Oml,
    morphisms: list[OrthoIso] | None = None,
    policy: SamplePolicy = SamplePolicy(),
    monoid_cap: int = DEFAULT_MONOID_CAP,
) -> ValidationReport:
    """The full equivalence verdict for one lattice.

    Covers: the algebra's own suites, the test-lattice relabeling, the
    rebuild from the test lattice, the lambda component and its two
    decomposition paths, the atom-map isomorphism, the combined three-way
    isomorphism, and, for each supplied lattice isomorphism out of m, both
    naturality squares plus functor laws.  The rebuilds are checked by table
    identity, as ``_rebuild`` says.
    """
    report = ValidationReport(title=f"equivalence round trip on {m.name}")

    h = gamma_object(m, policy, monoid_cap=monoid_cap, require=False)
    for key, sub in h.suites.items():
        report.add(f"gamma.{key}", sub.ok, sub.summary())
    if not h.verified:
        return report

    # the mu component is delta, the relabeling of the lattice onto its tests
    report.add("mu_component.is_ortho_iso", check_ortho_iso(h.delta).ok)

    target = _rebuild(h, monoid_cap)
    report.add("gamma_of_test_lattice", target.verified)
    if not target.verified:
        return report

    lam, lam_report = lambda_component(h, target, policy)
    report.add("lambda_component", lam_report.ok, lam_report.summary())

    hmap_report = verify_h_map(h, policy)
    report.add("h_map_isomorphism", hmap_report.ok, hmap_report.summary())

    report.add(
        "three_way_isomorphism",
        lam_report.ok and hmap_report.ok,
        detail="algebra = rebuilt algebra = powerset of its own tests, via lambda and h",
    )

    ident = identity_iso(m)
    gamma_id = gamma_morphism(ident, h, h, policy)
    report.add("functor.gamma_identity", gamma_id.elem_map == tuple(h.monoid.ids()))
    report.add("functor.psi_identity", psi_morphism(gamma_id).map == tuple(range(m.n)))

    handles: dict[tuple[str, ...], TodaHandle] = {m.names: h}
    lams: dict[tuple[str, ...], DynMorphism] = {m.names: lam}

    for k in morphisms or []:
        if k.src.names != m.names:
            raise ValueError(f"morphism {k.name} does not start at {m.name}")
        if k.dst.names not in handles:
            dst_h = handles[k.dst.names] = gamma_object(k.dst, policy, monoid_cap=monoid_cap)
            dst_target = _rebuild(dst_h, monoid_cap)
            if not dst_target.verified:
                raise SuiteFailure(f"rebuild of {k.dst.name} fails", dst_target.suites["rebuild"])
            lams[k.dst.names], dst_lam = lambda_component(dst_h, dst_target, policy)
            report.add(f"lambda_component[{k.dst.name}]", dst_lam.ok, dst_lam.summary())

        phi = gamma_morphism(k, h, handles[k.dst.names], policy)
        mu_rep = _mu_report(k, phi)
        report.add(f"mu_naturality[{k.name}]", mu_rep.ok, mu_rep.summary())

        lam_rep = check_naturality_lambda(phi, lam, lams[k.dst.names], policy)
        report.add(f"lambda_naturality[{k.name}]", lam_rep.ok, lam_rep.summary())

        if k.dst.names == m.names:
            kk = k.compose(k)
            phi_kk = gamma_morphism(kk, h, h, policy)
            composed = tuple(phi.elem_map[phi.elem_map[i]] for i in h.monoid.ids())
            report.add(f"functor.gamma_composes[{k.name}]", phi_kk.elem_map == composed)

    return report
