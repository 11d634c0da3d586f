"""Join-preserving endomaps of a finite orthomodular lattice.

The carrier of interest is the set of maps that possess an orthogonality
adjoint: f(x) perp y iff x perp g(y).  On a finite (hence complete) lattice
these are exactly the join-preserving endomaps; the adjoint is computed
through the order adjoint and verified exhaustively rather than assumed.
Together with composition, pointwise joins and the perp operation
f -> pi_{f(1)'} they form the quantale whose axioms ``verify_foulis``
checks on explicit carriers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import SizeExceeded
from .oml import (
    Oml,
    OrthoIso,
    _bits,
    check_ortho_iso,
    oml_from_tables,
    sasaki_projection,
    validate_oml,
)
from .report import ValidationReport

DEFAULT_LIN_CAP = 2_000_000


@dataclass(frozen=True)
class EndoMap:
    l: Oml
    tbl: tuple[int, ...]

    def after(self, other: "EndoMap") -> "EndoMap":
        return EndoMap(self.l, tuple(self.tbl[other.tbl[x]] for x in self.l.elements()))

    def __repr__(self) -> str:
        return "EndoMap[" + " ".join(self.l.names[v] for v in self.tbl) + "]"


@dataclass(frozen=True)
class LinMap:
    """An endomap paired with its orthogonality adjoint."""

    base: EndoMap
    adj: EndoMap

    @property
    def l(self) -> Oml:
        return self.base.l

    def __repr__(self) -> str:
        return "Lin" + repr(self.base)[4:]


@dataclass(frozen=True)
class NotLinear:
    """Returned by orth_adjoint when the map has no adjoint; carries a witness."""

    reason: str
    witness: tuple


def identity_map(l: Oml) -> EndoMap:
    return EndoMap(l, tuple(l.elements()))


def zero_map(l: Oml) -> EndoMap:
    return EndoMap(l, (l.bot,) * l.n)


def sasaki_map(l: Oml, m: int) -> EndoMap:
    return EndoMap(l, tuple(sasaki_projection(l, m, x) for x in l.elements()))


def join_preservation_witness(f: EndoMap) -> tuple | None:
    """None when f preserves all (finite, hence all) joins; else a witness subset.

    On a finite lattice it is enough to check the empty join and all binary
    joins: any other join is a fold of binary ones.
    """
    l = f.l
    if f.tbl[l.bot] != l.bot:
        return ()
    for x in l.elements():
        for y in range(x + 1, l.n):
            if f.tbl[l.join[x][y]] != l.join[f.tbl[x]][f.tbl[y]]:
                return (x, y)
    return None


def order_adjoint(f: EndoMap) -> EndoMap:
    """The Galois right adjoint: f_adj(y) = join of {x : f(x) <= y}.

    Requires f join-preserving; raises otherwise with the witness subset.
    """
    w = join_preservation_witness(f)
    if w is not None:
        labels = tuple(f.l.names[x] for x in w)
        raise ValueError(f"map is not join-preserving; witness subset {labels}")
    return _galois_adjoint(f)


def _galois_adjoint(f: EndoMap) -> EndoMap:
    """y -> join of {x : f(x) <= y}, with no check that f preserves joins."""
    l = f.l
    return EndoMap(l, tuple(l.join_all(x for x in l.elements() if l.leq(f.tbl[x], y))
                            for y in l.elements()))


def orth_adjoint(f: EndoMap) -> LinMap | NotLinear:
    """Compute and verify the orthogonality adjoint of f.

    The candidate is g(y) = (f_adj(y'))' and the defining biconditional
    f(x) perp y iff x perp g(y) is then checked over all pairs.
    """
    w = join_preservation_witness(f)
    if w is not None:
        return NotLinear("not join-preserving", w)
    l = f.l
    fadj = _galois_adjoint(f)
    g = EndoMap(l, tuple(l.perp[fadj.tbl[l.perp[y]]] for y in l.elements()))
    for x in l.elements():
        for y in l.elements():
            if l.leq(f.tbl[x], l.perp[y]) != l.leq(x, l.perp[g.tbl[y]]):
                return NotLinear("adjoint biconditional fails", (x, y))
    return LinMap(f, g)


def compose(f: LinMap, g: LinMap) -> LinMap:
    """f after g; the adjoint reverses: (f.g)* = g*.f*."""
    if f.l is not g.l and f.l.names != g.l.names:
        raise ValueError("lattice mismatch in composition")
    return LinMap(f.base.after(g.base), g.adj.after(f.adj))


def _joins(l: Oml):
    """A pointwise join over l that runs orth_adjoint once per distinct joined table.

    The memo is filled only by orth_adjoint, never from a carrier, and lives
    as long as the returned function: one suite.
    """
    certified: dict[tuple[int, ...], LinMap] = {}

    def join(fs) -> LinMap:
        fs = list(fs)
        for f in fs:
            if f.l is not l and f.l.names != l.names:
                raise ValueError("lattice mismatch in pointwise join")
        tbl = tuple(l.join_all(f.base.tbl[x] for f in fs) for x in l.elements())
        if tbl not in certified:
            res = orth_adjoint(EndoMap(l, tbl))
            if not isinstance(res, LinMap):
                raise AssertionError(f"pointwise join left the carrier: {res}")
            certified[tbl] = res
        return certified[tbl]

    return join


def pointwise_join(l: Oml, fs) -> LinMap:
    """The pointwise join of a family of LinMaps; the empty join is the zero map."""
    return _joins(l)(fs)


def foulis_perp(f: LinMap) -> LinMap:
    """f -> pi at the orthocomplement of f(top)."""
    l = f.l
    m = l.perp[f.base.tbl[l.top]]
    base = sasaki_map(l, m)
    return LinMap(base, base)


def _dperp(k: LinMap) -> LinMap:
    return foulis_perp(foulis_perp(k))


def bracket(f: LinMap) -> LinMap:
    """The annihilator bracket: pi at the orthocomplement of f*(top), the perp of f*."""
    return foulis_perp(LinMap(f.adj, f.base))


# ---------------------------------------------------------------------------
# enumeration


def join_irreducibles(l: Oml) -> list[int]:
    out = []
    for x in l.elements():
        strictly_below = (j for j in _bits(l.down[x] & ~(1 << x)))
        if l.join_all(strictly_below) != x:
            out.append(x)
    return out


def enumerate_lin(l: Oml, cap: int = DEFAULT_LIN_CAP) -> list[LinMap]:
    """Enumerate the full carrier of join-preserving endomaps.

    A join-preserving map is determined by a monotone assignment on the
    join-irreducible elements, extended by joins; each extension is run
    through orth_adjoint, which rejects the ones that break a join.  Aborts with
    SizeExceeded when the assignment space n^|JI| is beyond ``cap``.
    """
    if cap <= 0:
        raise ValueError("cap must be positive")
    n = l.n
    ji = join_irreducibles(l)
    estimate = n ** len(ji)
    if estimate > cap:
        raise SizeExceeded(estimate, cap)

    out: list[LinMap] = []
    seen: set[tuple[int, ...]] = set()
    assignment: list[int] = []

    def extend_and_collect():
        f = EndoMap(l, tuple(l.join_all(a for j, a in zip(ji, assignment) if l.leq(j, x))
                             for x in l.elements()))
        res = orth_adjoint(f)
        if isinstance(res, LinMap) and f.tbl not in seen:
            seen.add(f.tbl)
            out.append(res)

    def backtrack(idx: int):
        if idx == len(ji):
            extend_and_collect()
            return
        for v in l.elements():
            ok = all(
                not l.leq(ji[prev], ji[idx]) or l.leq(assignment[prev], v)
                for prev in range(idx)
            )
            if ok:
                assignment.append(v)
                backtrack(idx + 1)
                assignment.pop()

    backtrack(0)
    out.sort(key=lambda f: f.base.tbl)
    return out


def bruteforce_lin(l: Oml) -> list[LinMap]:
    """Oracle: search all n^n endomap pairs for the adjoint biconditional.

    Exponential; guarded to n <= 5.  Independent of the optimized path: it
    uses only the defining existential, no order adjoints, no irreducibles.
    """
    n = l.n
    if n > 5:
        raise ValueError("brute-force oracle is limited to n <= 5")
    all_tables = list(product(range(n), repeat=n))
    out = []
    for ft in all_tables:
        for gt in all_tables:
            if all(
                l.leq(ft[x], l.perp[y]) == l.leq(x, l.perp[gt[y]])
                for x in range(n)
                for y in range(n)
            ):
                out.append(LinMap(EndoMap(l, ft), EndoMap(l, gt)))
                break
    out.sort(key=lambda f: f.base.tbl)
    return out


# ---------------------------------------------------------------------------
# verification suites


def verify_foulis(l: Oml, maps: list[LinMap]) -> ValidationReport:
    """Check the Foulis-quantale axioms on an explicit carrier of maps.

    The existential axiom and closure-sensitive identities are marked
    inconclusive when the carrier is not closed under the operations they
    quantify over.
    """
    r = ValidationReport(title=f"foulis quantale on {len(maps)} maps over {l.name}")
    idx = {f.base.tbl for f in maps}
    e = identity_map(l)
    zero = zero_map(l)
    join = _joins(l)
    # each carrier map's perp and double perp, computed once for every check below
    perps = [foulis_perp(f) for f in maps]
    dperps = [foulis_perp(p) for p in perps]

    is_closed = (
        e.tbl in idx
        and zero.tbl in idx
        and all(f.adj.tbl in idx and p.base.tbl in idx for f, p in zip(maps, perps))
        and all(f.base.after(g.base).tbl in idx for f in maps for g in maps)
    )
    r.add(
        "carrier.closed",
        is_closed,
        detail="closed under composition, involution and perp"
        if is_closed
        else "carrier not closed: existential checks below are inconclusive",
    )

    w = next((repr(s) for s, p in zip(maps, perps)
              if p.base.after(p.base).tbl != p.base.tbl or p.adj.tbl != p.base.tbl), None)
    r.add("FQ1_O1.self_adjoint_idempotent", w is None, w or "")

    e_lin = orth_adjoint(e)
    r.add("O2.unit_perp_is_zero", foulis_perp(e_lin).base.tbl == zero.tbl)

    name = "O3.perp_factorization"
    if not is_closed:
        r.add_inconclusive(name, detail="carrier not closed")
    else:
        # x is annihilated by s exactly when it lies in the right ideal s-perp . maps;
        # one ideal per distinct perp table, so a wrong perp still shows
        ideals = {t: {p.base.after(y.base).tbl for y in maps}
                  for t, p in {k.base.tbl: k for k in perps}.items()}
        w = next(
            (f"s={s!r} x={x!r}" for s, p in zip(maps, perps) for x in maps
             if (s.adj.after(x.base).tbl == zero.tbl) != (x.base.tbl in ideals[p.base.tbl])),
            None,
        )
        r.add(name, w is None, w or "")

    w = next(
        (f"r={rr!r} t={t!r}" for rr, rp in zip(maps, perps) for t in maps
         if (rr.adj.after(t.base).tbl == zero.tbl) != (rp.base.after(t.base).tbl == t.base.tbl)),
        None,
    )
    r.add("star.annihilation_iff_below_perp", w is None, w or "",
          detail="t <= r-perp unfolds to the same fixed-point equation")

    w = next(
        (f"t={t!r} r={rr!r}" for t, tp in zip(maps, perps) for rr, rp in zip(maps, perps)
         if rr.base.after(t.base).tbl == t.base.tbl and tp.base.after(rp.base).tbl != rp.base.tbl),
        None,
    )
    r.add("star2.perp_antitone", w is None, w or "")

    w = next((repr(k) for k, kp in zip(perps, dperps)
              if foulis_perp(kp).base.tbl != k.base.tbl), None)
    r.add("star2.double_perp_fixes_tests", w is None, w or "")

    w = next(
        (f"t={t!r} r={rr!r}" for t, tp in zip(maps, perps) for rr, rp in zip(maps, perps)
         if (rp.base.after(t.base).tbl == t.base.tbl)
         != (tp.base.after(rr.base).tbl == rr.base.tbl)),
        None,
    )
    r.add("star3.perp_exchange", w is None, w or "")

    zero_lin = orth_adjoint(zero)
    r.add(
        "lemma.item1_bounds",
        foulis_perp(zero_lin).base.tbl == e.tbl
        and foulis_perp(foulis_perp(e_lin)).base.tbl == e.tbl
        and foulis_perp(e_lin).base.tbl == zero.tbl
        and foulis_perp(foulis_perp(zero_lin)).base.tbl == zero.tbl,
    )

    w = next(
        (f"x={x!r} y={y!r}" for x in maps for y, ypp in zip(maps, dperps)
         if foulis_perp(compose(x, ypp)).base.tbl != foulis_perp(compose(x, y)).base.tbl),
        None,
    )
    r.add("lemma.item2_perp_absorbs_closure", w is None, w or "")

    w = next((f"x={x!r}" for x, xp, xpp in zip(maps, perps, dperps)
              if foulis_perp(join([xpp])).base.tbl != xp.base.tbl), None)
    if w is None:
        w = next(
            (f"x={x!r} y={y!r}" for x, xpp in zip(maps, dperps) for y, ypp in zip(maps, dperps)
             if foulis_perp(join([xpp, ypp])).base.tbl != foulis_perp(join([x, y])).base.tbl),
            None,
        )
    r.add("lemma.item3_join_of_closures", w is None, w or "",
          detail="families: singletons and pairs")

    w = next(
        (f"x={x!r} y={y!r}" for x, xp, xpp in zip(maps, perps, dperps) for y in maps
         if _dperp(compose(xpp, y)).base.tbl
         != foulis_perp(join([xp, foulis_perp(join([xp, y]))])).base.tbl),
        None,
    )
    r.add("lemma.item4_sasaki_identity", w is None, w or "")

    return r


def verify_left_module_on_M(l: Oml, maps: list[LinMap]) -> ValidationReport:
    """Check that f . x = f(x) makes the lattice a left module over the maps."""
    r = ValidationReport(title=f"left module action on {l.name}")
    join = _joins(l)

    bad = next((f for f in maps if join_preservation_witness(f.base) is not None), None)
    w = None
    if bad is not None:
        where = ",".join(l.names[x] for x in join_preservation_witness(bad.base))
        w = f"{bad!r} at {where or 'empty join'}"
    r.add("A1.action_preserves_joins_of_elements", w is None, w or "")

    # the pointwise join of maps that break a join need not be in the carrier
    name = "A2.joins_of_maps_act_pointwise"
    if bad is not None:
        r.add_inconclusive(name, detail="A1 failed")
    else:
        w = next(
            (f"{f!r},{g!r} at {l.names[x]}" for f in maps for g in maps
             for fg in (join([f, g]),) for x in l.elements()
             if fg.base.tbl[x] != l.join[f.base.tbl[x]][g.base.tbl[x]]),
            None,
        )
        if w is None:
            w = next((f"empty join at {l.names[x]}" for x in l.elements()
                      if join([]).base.tbl[x] != l.bot), None)
        r.add(name, w is None, w or "")

    w = next(
        (f"{f!r},{g!r} at {l.names[x]}" for f in maps for g in maps
         for fg in (compose(f, g),) for x in l.elements()
         if fg.base.tbl[x] != f.base.tbl[g.base.tbl[x]]),
        None,
    )
    r.add("A3.composition_associates_with_action", w is None, w or "")

    ident = identity_map(l)
    w = next((x for x in l.elements() if ident.tbl[x] != x), None)
    r.add("A4.unit_acts_as_identity", w is None, "" if w is None else l.names[w])
    return r


# ---------------------------------------------------------------------------
# the test lattice inside the quantale


def sasaki_projection_lattice(l: Oml, maps: list[LinMap]) -> tuple[Oml, OrthoIso, ValidationReport]:
    """Extract the orthomodular lattice of perp-images from a carrier of maps.

    Order, orthocomplement, meet and join are computed from the quantale
    operations alone (k1 <= k2 iff k1 = k2.k1, perp via the bracket, meet by
    the bracket formula, join as the double perp of the pointwise join); the
    result is materialized as an Oml indexed by m = k(top), validated, and
    compared against the source lattice through pi_m -> m.
    """
    r = ValidationReport(title=f"sasaki projection lattice of Lin({l.name})")
    join = _joins(l)
    tests: dict[int, LinMap] = {}
    for f in maps:
        p = foulis_perp(f)
        tests[p.base.tbl[l.top]] = p
    r.add(
        "tests.one_per_element",
        sorted(tests) == list(l.elements()),
        detail=f"{len(tests)} perp-images",
    )
    if not r.ok:
        return l, OrthoIso(l, l, tuple(l.elements())), r

    elems = [tests[m] for m in l.elements()]

    def as_index(k: LinMap) -> int:
        return k.base.tbl[l.top]

    extracted = oml_from_tables(
        [f"[{name}]" for name in l.names],
        lambda i, j: elems[j].base.after(elems[i].base).tbl == elems[i].base.tbl,
        [
            [as_index(_dperp(compose(k1, bracket(compose(bracket(k2), k1))))) for k2 in elems]
            for k1 in elems
        ],
        [[as_index(_dperp(join([k1, k2]))) for k2 in elems] for k1 in elems],
        [as_index(bracket(k)) for k in elems],
        bot=as_index(_dperp(join([]))),
        top=as_index(foulis_perp(join([]))),
        name=f"tests(Lin({l.name}))",
    )
    r.extend(validate_oml(extracted), prefix="extracted.")
    iso = OrthoIso(l, extracted, tuple(l.elements()), name="pi")
    r.extend(check_ortho_iso(iso), prefix="iso_to_source.")
    return extracted, iso, r


def scan_nonmonotone(l: Oml) -> list[tuple[int, int, int]]:
    """Find (u, v, x) with u <= v but pi_u(x) not below pi_v(x); informative only."""
    found = []
    for u in l.elements():
        for v in l.elements():
            if u != v and l.leq(u, v):
                for x in l.elements():
                    if not l.leq(sasaki_projection(l, u, x), sasaki_projection(l, v, x)):
                        found.append((u, v, x))
    return found
