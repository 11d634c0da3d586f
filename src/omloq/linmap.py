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

from array import array
from dataclasses import dataclass
from itertools import chain, product
from operator import getitem

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
from .report import PASS, ValidationReport

DEFAULT_LIN_CAP = 2_000_000


@dataclass(frozen=True, slots=True)
class EndoMap:
    l: Oml
    tbl: tuple[int, ...]

    def after(self, other: "EndoMap") -> "EndoMap":
        return EndoMap(self.l, tuple(self.tbl[other.tbl[x]] for x in self.l.elements()))

    def __repr__(self) -> str:
        return "EndoMap[" + " ".join(self.l.names[v] for v in self.tbl) + "]"


@dataclass(frozen=True, slots=True)
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


def pointwise_join(l: Oml, fs) -> LinMap:
    """The pointwise join of a family of LinMaps; the empty join is the zero map."""
    fs = list(fs)
    for f in fs:
        if f.l is not l and f.l.names != l.names:
            raise ValueError("lattice mismatch in pointwise join")
    res = orth_adjoint(EndoMap(l, tuple(l.join_all(f.base.tbl[x] for f in fs)
                                        for x in l.elements())))
    if not isinstance(res, LinMap):
        raise AssertionError(f"pointwise join left the carrier: {res}")
    return res


def foulis_perp(f: LinMap) -> LinMap:
    """f -> pi at the orthocomplement of f(top)."""
    l = f.l
    m = l.perp[f.base.tbl[l.top]]
    base = sasaki_map(l, m)
    return LinMap(base, base)


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


class _NotInLin(Exception):
    """A pointwise join that orth_adjoint rejected; its message is a check's witness."""


class _Carrier:
    """A carrier of LinMaps over l, with every table it meets interned to an int id.

    The carrier's own base tables come first, so ``id < size`` means membership.
    A composition or pairwise-join row per id is a dense array over the ``width``
    tables interned at construction (carrier, adjoints, Sasaki tables, unit and
    zero), built the first time it is read; every column a suite reads is one of
    them.  A perp is one of the n Sasaki tables.
    A joined table is certified by orth_adjoint once per id, and that memo is
    filled only by orth_adjoint, never from the carrier.  Each suite accepts a
    _Carrier in place of its map list, so suites on the same maps share its rows.
    """

    def __init__(self, l: Oml, maps: list[LinMap]):
        if any(f.l is not l and f.l.names != l.names for f in maps):
            raise ValueError("lattice mismatch in carrier")
        self.l = l
        self.tab: list[tuple[int, ...]] = []
        self.ids: dict[tuple[int, ...], int] = {}
        self.col = [self.intern(f.base.tbl) for f in maps]  # id per position in maps
        self.size = len(self.tab)
        self.adj = [self.intern(f.adj.tbl) for f in maps]
        self.sas = [self.intern(sasaki_map(l, m).tbl) for m in l.elements()]
        self.e = self.intern(identity_map(l).tbl)
        self.zero = self.intern(zero_map(l).tbl)
        self.width = len(self.tab)
        self._comp: dict[int, array] = {}
        self._join: dict[int, array] = {}
        self._cert: dict[int, LinMap | NotLinear] = {}

    def intern(self, tbl: tuple[int, ...]) -> int:
        i = self.ids.get(tbl)
        if i is None:
            i = self.ids[tbl] = len(self.tab)
            self.tab.append(tbl)
        return i

    def _compose(self, i: int, j: int) -> int:
        return self.intern(tuple(map(self.tab[i].__getitem__, self.tab[j])))

    def _joined(self, i: int, j: int) -> int:
        rows = map(self.l.join.__getitem__, self.tab[i])
        return self.intern(tuple(map(getitem, rows, self.tab[j])))

    def _row(self, memo: dict[int, array], op, i: int) -> array:
        cached = memo.get(i)
        if cached is None:
            cached = memo[i] = array("i", [op(i, j) for j in range(self.width)])
        return cached

    def comp_row(self, i: int) -> array:
        """The ids of tab[i] after each table interned at construction, in id order."""
        return self._row(self._comp, self._compose, i)

    def join_row(self, i: int) -> array:
        """The ids of tab[i] joined pointwise with each table interned at construction, none certified."""
        return self._row(self._join, self._joined, i)

    def comp(self, i: int, j: int) -> int:
        """The id of tab[i] after tab[j]."""
        return self.comp_row(i)[j]

    def join(self, i: int, j: int) -> int:
        """The id of the certified pointwise join of tab[i] and tab[j]."""
        return self.lin(self.join_row(i)[j])

    def lin(self, i: int) -> int:
        """i, once orth_adjoint has certified tab[i]; raises _NotInLin if it is not linear."""
        res = self._cert.get(i)
        if res is None:
            res = self._cert[i] = orth_adjoint(EndoMap(self.l, self.tab[i]))
        if not isinstance(res, LinMap):
            raise _NotInLin(f"pointwise join {self.show(i)} is not in Lin: {res}")
        return i

    def perp(self, i: int) -> int:
        """The id of pi at the orthocomplement of tab[i](top)."""
        return self.sas[self.l.perp[self.tab[i][self.l.top]]]

    def show(self, i: int) -> str:
        return "Lin" + repr(EndoMap(self.l, self.tab[i]))[4:]


def _in_lin(witnesses):
    """The witnesses, then the pointwise join that left Lin(l) during the search, if one did."""
    try:
        yield from witnesses
    except _NotInLin as e:
        yield str(e)


def _carrier(l: Oml, maps: list[LinMap] | _Carrier) -> _Carrier:
    """The carrier a suite reads: maps itself when it is a _Carrier over l, else one built on it."""
    if not isinstance(maps, _Carrier):
        return _Carrier(l, maps)
    if maps.l is not l:
        raise ValueError("carrier built over another lattice")
    return maps


def verify_foulis(l: Oml, maps: list[LinMap] | _Carrier) -> ValidationReport:
    """Check the Foulis-quantale axioms on an explicit carrier of maps.

    The existential axiom and closure-sensitive identities are marked
    inconclusive when the carrier is not closed under the operations they
    quantify over.  A pointwise join that is not in Lin(l) fails the check
    that took it, with the NotLinear in the witness.
    """
    c = _carrier(l, maps)
    size, cols, zero, show = c.size, c.col, c.zero, c.show
    r = ValidationReport(title=f"foulis quantale on {len(cols)} maps over {l.name}")
    # each carrier map's perp and double perp, read by every check below
    perps = [c.perp(i) for i in cols]
    dperps = [c.perp(p) for p in perps]
    # the two-variable checks index the composition rows of each map and its perp
    rows = [c.comp_row(i) for i in cols]
    prows = [c.comp_row(p) for p in perps]

    is_closed = (
        c.e < size
        and zero < size
        and all(a < size and p < size for a, p in zip(c.adj, perps))
        and all(v < size for i in range(size) for v in c.comp_row(i)[:size])
    )
    r.add(
        "carrier.closed",
        is_closed,
        detail="closed under composition, involution and perp"
        if is_closed
        else "carrier not closed: existential checks below are inconclusive",
    )

    # a perp is a Sasaki table taken as its own adjoint, so only idempotence can fail
    r.first("FQ1_O1.self_adjoint_idempotent",
            (show(i) for i, p in zip(cols, perps) if c.comp(p, p) != p))

    r.add("O2.unit_perp_is_zero", c.perp(c.e) == zero)

    name = "O3.perp_factorization"
    if not is_closed:
        r.add_inconclusive(name, detail="carrier not closed")
    else:
        # x is annihilated by s exactly when it lies in the right ideal s-perp . maps;
        # one ideal per distinct perp table, so a wrong perp still shows
        ideals = {p: set(row[:size]) for p, row in zip(perps, prows)}
        r.first(name, (f"s={show(s)} x={show(i)}" for s, a, p in zip(cols, c.adj, perps)
                       for ar, ideal in ((c.comp_row(a), ideals[p]),)
                       for i in cols if (ar[i] == zero) != (i in ideal)))

    r.first("star.annihilation_iff_below_perp",
            (f"r={show(j)} t={show(i)}" for j, a, rpr in zip(cols, c.adj, prows) for ar in (c.comp_row(a),)
             for i in cols if (ar[i] == zero) != (rpr[i] == i)),
            detail="t <= r-perp unfolds to the same fixed-point equation")

    r.first("star2.perp_antitone",
            (f"t={show(i)} r={show(j)}" for i, tp in zip(cols, perps)
             for j, row, rp in zip(cols, rows, perps)
             if row[i] == i and c.comp(tp, rp) != rp))

    r.first("star2.double_perp_fixes_tests",
            (show(k) for k, kk in zip(perps, dperps) if c.perp(kk) != k))

    r.first("star3.perp_exchange",
            (f"t={show(i)} r={show(j)}" for i, tpr in zip(cols, prows)
             for j, rpr in zip(cols, prows)
             if (rpr[i] == i) != (tpr[j] == j)))

    r.add(
        "lemma.item1_bounds",
        c.perp(zero) == c.e
        and c.perp(c.perp(c.e)) == c.e
        and c.perp(c.e) == zero
        and c.perp(c.perp(zero)) == zero,
    )

    r.first("lemma.item2_perp_absorbs_closure",
            (f"x={show(i)} y={show(j)}" for i, row in zip(cols, rows)
             for j, ypp in zip(cols, dperps)
             if c.perp(row[ypp]) != c.perp(row[j])))

    r.first("lemma.item3_join_of_closures", _in_lin(chain(
        (f"x={show(i)}" for i, xp, xpp in zip(cols, perps, dperps) if c.perp(c.lin(xpp)) != xp),
        (f"x={show(i)} y={show(j)}" for i, xpp in zip(cols, dperps)
         for xr, ir in ((c.join_row(xpp), c.join_row(i)),)
         for j, ypp in zip(cols, dperps)
         if c.perp(c.lin(xr[ypp])) != c.perp(c.lin(ir[j]))),
    )), detail="families: singletons and pairs")

    r.first("lemma.item4_sasaki_identity", _in_lin(
        f"x={show(i)} y={show(j)}" for i, xp, xpp in zip(cols, perps, dperps)
        for cr, jr in ((c.comp_row(xpp), c.join_row(xp)),)
        for j in cols
        if c.perp(c.perp(cr[j])) != c.perp(c.lin(jr[c.perp(c.lin(jr[j]))]))
    ))

    return r


def verify_left_module_on_M(l: Oml, maps: list[LinMap] | _Carrier) -> ValidationReport:
    """Check that f . x = f(x) makes the lattice a left module over the maps."""
    c = _carrier(l, maps)
    tab, show = c.tab, c.show
    r = ValidationReport(title=f"left module action on {l.name}")

    # each table is read against the suite's lattice, as A2 and A3 read it
    a1 = r.first("A1.action_preserves_joins_of_elements",
                 (f"{show(i)} at {','.join(l.names[x] for x in where) or 'empty join'}" for i in c.col
                  if (where := join_preservation_witness(EndoMap(l, tab[i]))) is not None))

    # A2 and A3 compare whole tables, and walk x only for the witness
    # the pointwise join of maps that break a join need not be in the carrier
    name = "A2.joins_of_maps_act_pointwise"
    if a1.status != PASS:
        r.add_inconclusive(name, detail="A1 failed")
    else:
        # c.lin(z) sits below the outermost loop, so the zero map is certified inside
        # _in_lin and a zero map outside Lin(l) is a witness, not an escaping _NotInLin
        r.first(name, _in_lin(chain(
            (f"{show(i)},{show(j)} at {l.names[x]}" for i in c.col
             for row, fj in ((c.join_row(i), [l.join[v] for v in tab[i]]),) for j in c.col
             if (got := tab[c.lin(row[j])]) != (want := tuple(map(getitem, fj, tab[j])))
             for x in l.elements() if got[x] != want[x]),
            (f"empty join at {l.names[x]}" for z in (c.zero,)
             for x, v in enumerate(tab[c.lin(z)]) if v != l.bot),
        )))

    r.first("A3.composition_associates_with_action",
            (f"{show(i)},{show(j)} at {l.names[x]}" for i in c.col for row in (c.comp_row(i),) for j in c.col
             if (got := tab[row[j]]) != (want := tuple(map(tab[i].__getitem__, tab[j])))
             for x in l.elements() if got[x] != want[x]))

    ident = identity_map(l)
    r.first("A4.unit_acts_as_identity", (l.names[x] for x in l.elements() if ident.tbl[x] != x))
    return r


# ---------------------------------------------------------------------------
# the test lattice inside the quantale


def sasaki_projection_lattice(l: Oml, maps: list[LinMap] | _Carrier) -> tuple[Oml, OrthoIso, ValidationReport]:
    """Extract the orthomodular lattice of perp-images from a carrier of maps.

    Order, orthocomplement, meet and join are computed from the quantale
    operations alone (k1 <= k2 iff k1 = k2.k1, perp via the bracket, which is
    the perp on these self-adjoint tests, meet by the bracket formula, join as
    the double perp of the pointwise join); the result is materialized as an
    Oml indexed by m = k(top), validated, and compared against the source
    lattice through pi_m -> m.  A pointwise join that is not in Lin(l) ends
    the extraction with a failed ``tests.pointwise_joins_linear``.
    """
    r = ValidationReport(title=f"sasaki projection lattice of Lin({l.name})")
    c = _carrier(l, maps)

    def as_index(k: int) -> int:
        return c.tab[k][l.top]

    def dperp(k: int) -> int:
        return c.perp(c.perp(k))

    tests = {as_index(p): p for p in map(c.perp, c.col)}
    r.add(
        "tests.one_per_element",
        sorted(tests) == list(l.elements()),
        detail=f"{len(tests)} perp-images",
    )
    if r.ok:
        elems = [tests[m] for m in l.elements()]
        try:
            meets = [[as_index(dperp(c.comp(k1, c.perp(c.comp(k1, c.perp(k2)))))) for k2 in elems]
                     for k1 in elems]
            joins = [[as_index(dperp(c.join(k1, k2))) for k2 in elems] for k1 in elems]
            zero = c.lin(c.zero)
        except _NotInLin as e:
            r.add("tests.pointwise_joins_linear", False, str(e))
    if not r.ok:
        return l, OrthoIso(l, l, tuple(l.elements())), r

    extracted = oml_from_tables(
        [f"[{name}]" for name in l.names],
        lambda i, j: c.comp(elems[j], elems[i]) == elems[i],
        meets,
        joins,
        [as_index(c.perp(k)) for k in elems],
        bot=as_index(dperp(zero)),
        top=as_index(c.perp(zero)),
        name=f"tests(Lin({l.name}))",
    )
    r.extend(validate_oml(extracted), prefix="extracted.")
    iso = OrthoIso(l, extracted, tuple(l.elements()), name="pi")
    r.extend(check_ortho_iso(iso), prefix="iso_to_source.")
    return extracted, iso, r
