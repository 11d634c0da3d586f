"""The powerset dynamic algebra over a generated test monoid.

Elements are finite sets of monoid ids with setwise product, setwise
involution, and the orthocomplement-style unary operation that collapses a
set to the single projection at the orthocomplement of the join of its
members' values at top.  The powerset is never materialized: only the
elements actually constructed exist, and the axiom suites quantify either
exhaustively (small carriers) or over a deterministic, seeded sample.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import islice, product

from .oml import Oml, OrthoIso, check_ortho_iso, oml_from_tables, validate_oml
from .report import ValidationReport
from .testmonoid import DEFAULT_SAMPLES, DEFAULT_SEED, EXHAUSTIVE_THRESHOLD, InvMonoid

PAIR_PARTNERS = 4  # seeded partners per sampled element in two-variable axioms
ACTION_PAIR_CAP = 4000  # pairs kept for the action-heavy checks


class DynElem:
    """One element of the algebra: a canonical (sorted, deduped) id set.

    A plain slotted class rather than a frozen dataclass, because the suites
    build hundreds of thousands of these and the dataclass ``__init__`` costs
    about four times as much.  Elements of different algebras are unequal
    even when their ids agree.  Treat ``alg`` and ``ids`` as read-only.
    """

    __slots__ = ("alg", "ids")

    def __init__(self, alg: "DynAlgebra", ids: tuple[int, ...]):
        self.alg = alg
        self.ids = ids

    def __eq__(self, other):
        if other.__class__ is not DynElem:
            return NotImplemented
        return self.alg is other.alg and self.ids == other.ids

    def __hash__(self) -> int:
        return hash((self.alg, self.ids))

    def __mul__(self, other: "DynElem") -> "DynElem":
        return self.alg.mul(self, other)

    def __or__(self, other: "DynElem") -> "DynElem":
        return self.alg.union(self, other)

    def star(self) -> "DynElem":
        return self.alg.star(self)

    def tilde(self) -> "DynElem":
        return self.alg.tilde(self)

    def __len__(self) -> int:
        return len(self.ids)

    def __repr__(self) -> str:
        # members print as their generator words so witnesses are auditable
        if not self.ids:
            return "{}"
        mono = self.alg.monoid
        shown = ", ".join(mono.label(i) for i in self.ids[:4])
        extra = f", +{len(self.ids) - 4} more" if len(self.ids) > 4 else ""
        return "{" + shown + extra + "}"


class DynAlgebra:
    """Operations of the powerset algebra over an InvMonoid.

    ``carrier`` is normally every monoid id; tests pass a punctured carrier
    as a negative control for the minimality axiom.
    """

    def __init__(self, monoid: InvMonoid, carrier: tuple[int, ...] | None = None):
        self.monoid = monoid
        self.l = monoid.l
        self.carrier = tuple(sorted(carrier)) if carrier is not None else tuple(monoid.ids())
        self._cache: dict = {}
        self._top = tuple(e.tbl[self.l.top] for e in monoid.elems)  # x(top) per monoid id
        # j ∨ x(top) per lattice element j and monoid id x, which tilde folds through
        self._tj = tuple(tuple(map(row.__getitem__, self._top)) for row in self.l.join)
        self._singles = tuple(DynElem(self, (i,)) for i in monoid.ids())  # one per monoid id
        self._tests = tuple(self._singles[g] for g in monoid.gen_id)  # delta(m) per m

    def elem(self, ids) -> DynElem:
        ids = tuple(sorted(set(ids)))
        return DynElem(self, ids)

    def singleton(self, a: int) -> DynElem:
        return self._singles[a]

    @property
    def zero(self) -> DynElem:
        return DynElem(self, ())

    @property
    def unit(self) -> DynElem:
        return self._singles[self.monoid.unit_id]

    @property
    def one(self) -> DynElem:
        return DynElem(self, self.carrier)

    def delta(self, m: int) -> DynElem:
        """delta(m) = the singleton test at lattice element m."""
        return self._tests[m]

    def union(self, a: DynElem, b: DynElem) -> DynElem:
        return self.elem(a.ids + b.ids)

    def union_all(self, elems) -> DynElem:
        ids: list[int] = []
        for e in elems:
            ids.extend(e.ids)
        return self.elem(ids)

    def mul(self, a: DynElem, b: DynElem) -> DynElem:
        if a.alg is not self or b.alg is not self:
            raise ValueError("elements belong to a different algebra")
        rows = self.monoid.cayley
        return DynElem(self, tuple(sorted({rows[x][y] for x in a.ids for y in b.ids})))

    def star(self, a: DynElem) -> DynElem:
        star = self.monoid.star
        return self.elem(star[x] for x in a.ids)

    def tilde(self, a: DynElem) -> DynElem:
        """The singleton at pi of the orthocomplement of join of a(top) values.

        The join is folded from bottom through ``_tj[j][x]`` = j ∨ x(top), a dense
        n × |T| table built once per algebra; ``tilde_tilde``'s closed form reads
        ``join_all`` instead, an independent route.
        """
        tj, j = self._tj, self.l.bot
        for x in a.ids:
            j = tj[j][x]
        return self.delta(self.l.perp[j])

    def tilde_tilde(self, a: DynElem) -> DynElem:
        """Double tilde, computed twice over and compared with the closed form."""
        iterated = self.tilde(self.tilde(a))
        closed = self.delta(self.l.join_all(self._top[x] for x in a.ids))
        if iterated != closed:
            raise AssertionError(f"closed form for double tilde disagrees at {a!r}")
        return iterated

    # -- tests and the module action ------------------------------------
    # A test is identified with its lattice element m through delta.

    def action(self, k: DynElem, v: int) -> int:
        """k . v = double tilde of (k * delta(v)), as a lattice element."""
        res = self.tilde(self.tilde(self.mul(k, self.delta(v))))
        return self._test_index(res)

    def _test_index(self, t: DynElem) -> int:
        if len(t.ids) != 1:
            raise AssertionError(f"{t!r} is not a test")
        gid = t.ids[0]
        m = self._top[gid]
        if self.monoid.gen_id[m] != gid:
            raise AssertionError(f"{t!r} is not a projection singleton")
        return m

    def action_table(self, k: DynElem) -> tuple[int, ...]:
        """k's action on every test, indexed by test, recomputed on every call."""
        return tuple(self.action(k, v) for v in self.l.elements())

    def action_tables(self):
        """``action_table`` memoised by ids over every id set it meets, as bytes.

        A table's entries are tests, below MAX_ELEMENTS (64), so a byte holds each.
        The memo lives as long as the returned function: a suite makes one per call,
        so the algebra itself keeps no table.
        """
        memo: dict[tuple[int, ...], bytes] = {}

        def act(k: DynElem) -> bytes:
            table = memo.get(k.ids)
            if table is None:
                table = memo[k.ids] = bytes(self.action_table(k))
            return table

        return act

    # -- the test lattice ------------------------------------------------

    def test_lattice(self) -> tuple[Oml, OrthoIso, ValidationReport]:
        """Materialize the image of tilde as a lattice, with the iso from M.

        Order, meets, joins, orthocomplement and bounds are all computed
        from the algebra operations; validate_oml and check_ortho_iso then
        verify the result independently, so a failure here falsifies the
        construction on this instance rather than crashing.  Built once per
        algebra.
        """
        if "test_lattice" not in self._cache:
            self._cache["test_lattice"] = self._build_test_lattice()
        return self._cache["test_lattice"]

    def _build_test_lattice(self) -> tuple[Oml, OrthoIso, ValidationReport]:
        l = self.l
        n = l.n
        r = ValidationReport(title=f"test lattice of P(T({l.name}))")

        image = {self.tilde(self.zero)}
        for a in self.monoid.ids():
            image.add(self.tilde(self.singleton(a)))
        expected = {self.delta(m) for m in l.elements()}
        r.add(
            "image.matches_projection_singletons",
            image == expected,
            detail=f"{len(image)} distinct tilde-images",
        )
        if not r.ok:
            return l, OrthoIso(l, l, tuple(l.elements())), r

        def join_t(x: int, y: int) -> int:
            w = self.union(self.delta(x), self.delta(y))
            return self._test_index(self.tilde(self.tilde(w)))

        def meet_t(x: int, y: int) -> int:
            w = self.union(self.tilde(self.delta(x)), self.tilde(self.delta(y)))
            return self._test_index(self.tilde(w))

        join_tbl = [[join_t(x, y) for y in range(n)] for x in range(n)]
        tk = oml_from_tables(
            ["~" + s for s in l.names],
            lambda x, y: join_tbl[x][y] == y,
            [[meet_t(x, y) for y in range(n)] for x in range(n)],
            join_tbl,
            [self._test_index(self.tilde(self.delta(x))) for x in range(n)],
            bot=self._test_index(self.tilde_tilde(self.zero)),
            top=self._test_index(self.tilde_tilde(self.one)),
            name=f"tests({l.name})",
        )
        r.extend(validate_oml(tk), prefix="lattice.")
        delta = OrthoIso(l, tk, tuple(range(n)), name="delta")
        r.extend(check_ortho_iso(delta), prefix="delta.")
        return tk, delta, r

    # -- normal forms and atoms -------------------------------------------

    def normal_form(self, a: DynElem) -> list[DynElem]:
        """The unique set of test-monoid singletons whose join re-equals a."""
        parts = [self.singleton(i) for i in a.ids]
        if self.union_all(parts) != a:
            raise AssertionError("normal form does not rejoin to the element")
        return parts

    def h_map(self, a: DynElem) -> list[DynElem]:
        """Atom decomposition: all monoid singletons below a in the subset order.

        Independent of normal_form: scans the entire carrier for inclusion
        instead of splitting the id tuple.
        """
        mem = set(a.ids)
        return [self.singleton(i) for i in self.carrier if i in mem]


# ---------------------------------------------------------------------------
# sampling


@dataclass(frozen=True)
class SamplePolicy:
    """Deterministic element/pair/family samples for the axiom suites.

    When the monoid carrier has at most ``exhaustive_threshold`` elements the
    whole powerset is used and two-variable axioms range over all pairs.
    Otherwise the sample is: empty set, full carrier, all singletons, all
    two-element sets of generators, the images of those under star, tilde
    and generator products, plus ``n_random`` pseudo-random subsets drawn
    from ``seed``; two-variable axioms then pair each sampled element with a
    fixed pool and ``PAIR_PARTNERS`` seeded partners.
    """

    seed: int = DEFAULT_SEED
    n_random: int = DEFAULT_SAMPLES
    exhaustive_threshold: int = EXHAUSTIVE_THRESHOLD

    def is_exhaustive(self, alg: DynAlgebra) -> bool:
        return len(alg.carrier) <= self.exhaustive_threshold

    def elements(self, alg: DynAlgebra) -> list[DynElem]:
        if self not in alg._cache:
            alg._cache[self] = self._build_elements(alg)
        return alg._cache[self]

    def _build_elements(self, alg: DynAlgebra) -> list[DynElem]:
        carrier = alg.carrier
        if self.is_exhaustive(alg):
            out = []
            for mask in range(1 << len(carrier)):
                ids = [carrier[i] for i in range(len(carrier)) if mask >> i & 1]
                out.append(alg.elem(ids))
            return out

        gens = [alg.delta(m) for m in alg.l.elements()]
        sample: list[DynElem] = [alg.zero, alg.one]
        sample.extend(alg.singleton(i) for i in carrier)
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                sample.append(gens[i] | gens[j])
        base = list(sample)
        for e in base:
            sample.append(e.star())
            sample.append(e.tilde())
        for g in gens:
            for h in gens:
                sample.append(g * h)

        rng = random.Random(self.seed)
        for _ in range(self.n_random):
            mask = rng.getrandbits(len(carrier))
            sample.append(alg.elem(carrier[i] for i in range(len(carrier)) if mask >> i & 1))

        seen: set[tuple[int, ...]] = set()
        out = []
        for e in sample:
            if e.ids not in seen:
                seen.add(e.ids)
                out.append(e)
        return out

    def pairs(self, alg: DynAlgebra) -> "PairSweep":
        """The two-variable sample: every ordered pair of elements when exhaustive,
        else each element with the fixed pool, itself and its seeded partners."""
        elems = self.elements(alg)
        if self.is_exhaustive(alg):
            return PairSweep(len(elems) ** 2, lambda: product(elems, repeat=2))
        return PairSweep(len(elems) * (4 + PAIR_PARTNERS), lambda: self._sampled_pairs(alg, elems))

    def _sampled_pairs(self, alg: DynAlgebra, elems: list[DynElem]):
        pool = [alg.zero, alg.one, alg.unit]
        rng = random.Random(self.seed + 1)
        for x in elems:
            partners = pool + [x] + [elems[rng.randrange(len(elems))] for _ in range(PAIR_PARTNERS)]
            yield from ((x, y) for y in partners)

    def action_pairs(self, alg: DynAlgebra) -> "PairSweep":
        """A deterministically capped pair sample for action-heavy checks:
        every ``step``-th pair of ``pairs``, starting with the first."""
        pairs = self.pairs(alg)
        if len(pairs) <= ACTION_PAIR_CAP:
            return pairs
        step = len(pairs) // ACTION_PAIR_CAP + 1
        return PairSweep(len(range(0, len(pairs), step)), lambda: islice(pairs, 0, None, step))


class PairSweep:
    """A pair sample generated afresh on each pass rather than stored, so an
    exhaustive sweep over 4^|T| pairs holds none of them.  Sized, and iterable
    any number of times with the same sequence each time."""

    __slots__ = ("_size", "_passes")

    def __init__(self, size: int, passes):
        self._size = size
        self._passes = passes

    def __len__(self) -> int:
        return self._size

    def __iter__(self):
        return self._passes()


def _join_families(elems: list[DynElem], pairs):
    """Join families, one at a time: empty, singletons, the given pairs, the whole sample."""
    yield []
    yield from ([x] for x in elems)
    yield from ([x, y] for x, y in pairs)
    yield elems


def _per_suite(f, elems):
    """f (tilde or double tilde) memoised by ids for one suite call, on the sample's id
    sets only: other id sets, mostly fresh products, are recomputed, so the memo holds no
    key tuple that the sample does not already hold."""
    memo = dict.fromkeys(e.ids for e in elems)

    def cached(a):
        value = memo.get(a.ids)
        if value is None:
            value = f(a)
            if a.ids in memo:
                memo[a.ids] = value
        return value

    return cached


# ---------------------------------------------------------------------------
# axiom suites


def verify_ida(alg: DynAlgebra, policy: SamplePolicy = SamplePolicy()) -> ValidationReport:
    """The four tilde axioms of the dynamic algebra, over the policy sample.

    Every pair is still covered, and each half of a check that depends on an operand
    only through a tilde image is evaluated once per distinct operand set: memos keyed
    by the ids passed to the instance's own operations, kept for this call only.
    """
    mode = "exhaustive" if policy.is_exhaustive(alg) else f"sampled(seed={policy.seed})"
    r = ValidationReport(title=f"ida axioms on P(T({alg.l.name})) [{mode}]")
    pairs = policy.pairs(alg)
    elems = policy.elements(alg)
    tilde, tilde_tilde = _per_suite(alg.tilde, elems), _per_suite(alg.tilde_tilde, elems)

    def absorbs_right_closure():
        # x·~~y takes at most |L| values per x, and the sweep is x-major: one row per x
        row_key = None
        for x, y in pairs:
            if x.ids is not row_key:
                row_key, row = x.ids, {}
            closure = tilde_tilde(y)
            left = row.get(closure.ids)
            if left is None:
                left = row[closure.ids] = tilde(alg.mul(x, closure))
            if left != tilde(alg.mul(x, y)):
                yield f"x={x!r} y={y!r}"

    def absorbs_closure_of_joins():
        lefts = {}  # the closures' ids -> tilde of their join
        for fam in _join_families(elems, pairs):
            closures = [tilde_tilde(x) for x in fam]
            # from a list: tuple() over a generator resizes its result, and each freed
            # key would land on the 2-tuple free list, which keeps up to 2000 of them
            key = tuple([c.ids for c in closures])
            left = lefts.get(key)
            if left is None:
                # a generator, as union_all is handed everywhere: an instance patch
                # that reads its argument twice must see the same input here
                left = lefts[key] = tilde(alg.union_all(c for c in closures))
            if left != tilde(alg.union_all(fam)):
                yield repr(fam[:4])

    def sasaki_shape():
        # both sides see x only through (~x, ~~x); a class and y that passed once pass
        # again, and a failure ends the sweep, so only passes are kept
        passed = {}
        row_key = None
        for x, y in pairs:
            if x.ids is not row_key:
                closure, t = tilde_tilde(x), tilde(x)
                row_key, seen = x.ids, passed.setdefault((t.ids, closure.ids), set())
            if y.ids in seen:
                continue
            if tilde_tilde(alg.mul(closure, y)) != tilde(alg.union(t, tilde(alg.union(t, y)))):
                yield f"x={x!r} y={y!r}"
            seen.add(y.ids)

    r.first("IDA2.tilde_absorbs_right_closure", absorbs_right_closure())
    r.first("IDA3.tilde_absorbs_closure_of_joins", absorbs_closure_of_joins())
    r.first("IDA4.tilde_is_self_adjoint",
            (repr(x) for x in elems if alg.star(tilde(x)) != tilde(x)))
    r.first("IDA5.sasaki_shape", sasaki_shape())
    return r


def verify_toda(alg: DynAlgebra, policy: SamplePolicy = SamplePolicy()) -> ValidationReport:
    """The four carrier axioms: test lattice, minimality, join injectivity,
    and separation of monoid elements by their actions."""
    r = ValidationReport(title=f"toda axioms on P(T({alg.l.name}))")

    _, _, tl_report = alg.test_lattice()
    r.add("TODA1.test_lattice_is_complete_oml", tl_report.ok, tl_report.summary())

    carrier = set(alg.carrier)
    mono = alg.monoid

    def escapes():
        # the unit is pi(top), so a missing unit is a missing generator
        yield from (f"generator pi({alg.l.names[m]}) outside carrier" for m in alg.l.elements()
                    if mono.gen_id[m] not in carrier)
        for a in alg.carrier:
            if mono.star[a] not in carrier:
                yield f"star of {a} escapes carrier"
            row = mono.cayley[a]
            yield from (f"product {a}*{b} escapes carrier" for b in alg.carrier
                        if row[b] not in carrier)
        for e in policy.elements(alg):
            yield from (f"element {e!r} not regenerated: id {i} outside carrier" for i in e.ids
                        if i not in carrier)
            if alg.union_all(alg.singleton(i) for i in e.ids) != e:
                yield f"element {e!r} not a join of its singletons"

    r.first("TODA2.minimality", escapes(),
            detail="closure of singletons under union/product/star regenerates the sample")

    def shared_joins():
        singles = [alg.singleton(i) for i in alg.carrier]
        if len({s.ids for s in singles}) != len(singles):
            yield "duplicate singleton"
        subsets = [e.ids for e in policy.elements(alg)]
        if not policy.is_exhaustive(alg):
            subsets = subsets[: 2 * policy.n_random]
            random.Random(policy.seed + 2).shuffle(subsets)
        seen: dict[tuple[int, ...], tuple[int, ...]] = {}
        for ids in subsets:
            joined = alg.union_all(alg.singleton(i) for i in ids).ids
            if seen.setdefault(joined, ids) != ids:
                yield f"distinct singleton sets {seen[joined]} and {ids} share a join"

    r.first("TODA3.joins_of_tests_injective", shared_joins())

    # each singleton's table once, then compared pairwise
    acting = [(a, alg.action_table(alg.singleton(a))) for a in alg.carrier]
    r.first("TODA4.actions_separate_tests", (
        f"{alg.singleton(a)!r} and {alg.singleton(b)!r} act identically"
        for i, (a, table) in enumerate(acting) for b, other in acting[i + 1 :]
        if table == other))

    return r


def verify_module(alg: DynAlgebra, policy: SamplePolicy = SamplePolicy()) -> ValidationReport:
    """Left-module laws of the action on tests, plus the homomorphism facts
    about double tilde and the congruence property of the action kernel.

    Each id set's action table is built once: the instance's own ``action_table``,
    memoised by ids for this call only, so the algebra keeps none of them.  A1 checks
    each distinct table once, at the first sample element that has it.  A2 and
    ``double_tilde_preserves_joins`` share one sweep of the join families, and A3 and
    ``double_tilde_intertwines_product_with_action`` one sweep of the action pairs: the
    instance's ``union_all`` or ``mul`` is still called once per family or pair, and
    each check stops at its own first witness.  A2 and A3 compare whole tables and walk
    the tests only to name the witness.
    """
    r = ValidationReport(title=f"module action on tests of P(T({alg.l.name}))")
    l = alg.l
    tests = list(l.elements())
    elems = policy.elements(alg)
    pairs = policy.action_pairs(alg)

    tk, _, tl_report = alg.test_lattice()
    if not tl_report.ok:
        r.add("precondition.test_lattice", False, "test lattice extraction failed")
        return r

    act = alg.action_tables()
    tilde, tilde_tilde = _per_suite(alg.tilde, elems), _per_suite(alg.tilde_tilde, elems)
    by_action = {}  # each distinct table -> the sample elements that have it, in order
    for e in elems:
        by_action.setdefault(act(e), []).append(e)

    def broken_joins():
        # a table that passes at its first sample element passes at every other
        for a, (k, *_) in by_action.items():
            yield from (f"k={k!r} v={l.names[x]},{l.names[y]}" for x in tests for y in tests
                        if a[tk.join[x][y]] != tk.join[a[x]][a[y]])
            if a[tk.bot] != tk.bot:
                yield f"k={k!r} at empty join"

    r.first("A1.action_preserves_test_joins", broken_joins())

    a2 = joins = None
    for fam in _join_families(elems, pairs):
        joined = alg.union_all(fam)
        if a2 is None:
            got, want = act(joined), [tk.bot] * l.n
            for t in fam:
                want = [tk.join[w][x] for w, x in zip(want, act(t))]
            if got != bytes(want):
                a2 = f"family size {len(fam)} at {l.names[next(v for v in tests if got[v] != want[v])]}"
        # tk.bot is the test index of tilde_tilde(zero), the empty join
        if joins is None and tilde_tilde(joined) != alg.delta(
                tk.join_all(alg._test_index(tilde_tilde(t)) for t in fam)):
            joins = f"family size {len(fam)}"
        if a2 and joins:
            break

    a3 = intertwined = None
    for u, s in pairs:
        us = alg.mul(u, s)
        if a3 is None:
            got, on_u = act(us), act(u)
            want = bytes(map(on_u.__getitem__, act(s)))
            if got != want:
                a3 = f"u={u!r} s={s!r} v={l.names[next(v for v in tests if got[v] != want[v])]}"
        if intertwined is None and tilde_tilde(us) != alg.delta(
                act(u)[alg._test_index(tilde_tilde(s))]):
            intertwined = f"u={u!r} v={s!r}"
        if a3 and intertwined:
            break

    r.add("A2.joins_act_pointwise", a2 is None, a2 or "")
    r.add("A3.product_acts_by_composition", a3 is None, a3 or "")
    r.first("A4.unit_acts_as_identity", (l.names[v] for v in tests if act(alg.unit)[v] != v))
    r.first("triple_tilde_collapses",
            (repr(x) for x in elems if tilde(tilde_tilde(x)) != tilde(x)))
    r.add("double_tilde_preserves_joins", joins is None, joins or "")
    r.add("double_tilde_intertwines_product_with_action", intertwined is None, intertwined or "")

    eq_pairs = [(g[i], g[i + 1]) for g in by_action.values() for i in range(len(g) - 1)][:40]
    if not eq_pairs:
        eq_pairs = [(elems[0], elems[0])]
    r.first(
        "equiv_is_congruence",
        (f"{kind} congruence at u={u!r} v={v!r} s={s!r} t={t!r}"
         for u, v in eq_pairs for s, t in eq_pairs[:10]
         for kind, op in (("product", alg.mul), ("join", alg.union))
         if act(op(u, s)) != act(op(v, t))),
        detail=f"{len(eq_pairs)} equivalent pairs exercised",
    )

    return r
