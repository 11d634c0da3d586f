"""Closure of the Sasaki projections under composition.

The generated involutive monoid is the carrier the powerset dynamic algebra
is built over.  Elements are canonicalized by their full image table;
every element keeps a shortest generator word as a witness, and the
involution is word reversal (the generators are self-adjoint), which the
generator verifies against the adjoint computation.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from functools import cached_property

from .errors import SizeExceeded
from .linmap import EndoMap, LinMap, orth_adjoint, sasaki_map
from .oml import Oml, validate_oml

DEFAULT_MONOID_CAP = 100_000
# the sampling defaults of the dynamic-algebra suites over the powerset of T
DEFAULT_SEED = 3405691582
DEFAULT_SAMPLES = 200
EXHAUSTIVE_THRESHOLD = 12


@dataclass(frozen=True)
class MonoidElem:
    id: int
    tbl: tuple[int, ...]
    witness: tuple[int, ...]  # lattice elements m1..mj, meaning pi_m1 . ... . pi_mj

    def __repr__(self) -> str:
        return f"T{self.id}<{'.'.join(map(str, self.witness))}>"


@dataclass
class InvMonoid:
    """The involutive submonoid generated by all Sasaki projections.

    Immutable once generated; the Cayley table is built on first use.
    """

    l: Oml
    elems: list[MonoidElem]
    gen_id: tuple[int, ...]  # lattice element m -> id of pi_m
    unit_id: int
    star: tuple[int, ...]  # id -> id of its involution
    _by_tbl: dict[tuple[int, ...], int] = field(default_factory=dict, repr=False)

    @property
    def size(self) -> int:
        return len(self.elems)

    def ids(self) -> range:
        return range(len(self.elems))

    @cached_property
    def cayley(self) -> tuple[tuple[int, ...], ...]:
        """Dense product table: cayley[a][b] is the id of tbl_a composed after tbl_b."""
        tbls = [e.tbl for e in self.elems]
        return tuple(tuple(self.id_of(tuple(ta[x] for x in tb)) for tb in tbls) for ta in tbls)

    def id_of(self, tbl: tuple[int, ...]) -> int:
        try:
            return self._by_tbl[tbl]
        except KeyError:
            raise KeyError("table does not belong to the generated monoid") from None

    def label(self, a: int) -> str:
        return "pi(" + ")pi(".join(self.l.names[m] for m in self.elems[a].witness) + ")"


def generate_T(l: Oml, cap: int = DEFAULT_MONOID_CAP) -> InvMonoid:
    """Generate the closure of {pi_m} under composition, breadth first.

    Dedupe key is the image table, so word length grows level by level and
    the first witness found for a table is shortest.  The reverse of every
    reachable word is reachable, which makes the involution total; star ids
    are computed from reversed witnesses and verified against the
    orthogonality adjoint of the element.
    """
    rep = validate_oml(l)
    if not rep.ok:
        bad = ", ".join(c.name for c in rep.failures)
        raise ValueError(f"lattice fails axioms ({bad}); refusing to generate")

    by_tbl: dict[tuple[int, ...], int] = {}
    elems: list[MonoidElem] = []
    gen_tbls: list[tuple[int, ...]] = []

    def intern(tbl: tuple[int, ...], word: tuple[int, ...]) -> int | None:
        if tbl in by_tbl:
            return None
        if len(elems) >= cap:
            raise SizeExceeded(len(elems) + 1, cap, what="monoid elements")
        eid = len(elems)
        by_tbl[tbl] = eid
        elems.append(MonoidElem(eid, tbl, word))
        return eid

    gen_id = []
    for m in l.elements():
        tbl = sasaki_map(l, m).tbl
        gen_tbls.append(tbl)
        intern(tbl, (m,))
        gen_id.append(by_tbl[tbl])

    frontier = list(range(len(elems)))
    while frontier:
        fresh: list[int] = []
        for eid in frontier:
            tbl, word = elems[eid].tbl, elems[eid].witness
            for m in l.elements():
                g = gen_tbls[m]
                left = tuple(g[tbl[x]] for x in l.elements())
                new = intern(left, (m,) + word)
                if new is not None:
                    fresh.append(new)
                right = tuple(tbl[g[x]] for x in l.elements())
                new = intern(right, word + (m,))
                if new is not None:
                    fresh.append(new)
        frontier = fresh

    unit_tbl = tuple(l.elements())
    if unit_tbl not in by_tbl:
        raise AssertionError("identity map missing from closure")

    star = []
    for e in elems:
        # pi_m1 . ... . pi_mj reversed is pi_mj . ... . pi_m1: apply pi_m1 first
        tbl = unit_tbl
        for m in e.witness:
            g = gen_tbls[m]
            tbl = tuple(g[tbl[x]] for x in l.elements())
        if tbl not in by_tbl:
            raise AssertionError("reverse word escapes the closure")
        adj = orth_adjoint(EndoMap(l, e.tbl))
        if not isinstance(adj, LinMap) or adj.adj.tbl != tbl:
            raise AssertionError(f"word reversal disagrees with the adjoint for {e!r}")
        star.append(by_tbl[tbl])

    return InvMonoid(
        l=l,
        elems=elems,
        gen_id=tuple(gen_id),
        unit_id=by_tbl[unit_tbl],
        star=tuple(star),
        _by_tbl=by_tbl,
    )


def bruteforce_closure(l: Oml) -> set[tuple[int, ...]]:
    """Oracle: naive fixpoint of raw tables under composition, no witnesses."""
    gens = {sasaki_map(l, m).tbl for m in l.elements()}
    closed = set(gens)
    while True:
        new = set()
        for ta in closed:
            for tb in closed:
                prod = tuple(ta[x] for x in tb)
                if prod not in closed:
                    new.add(prod)
        if not new:
            return closed
        closed |= new


def export_cayley_csv(m: InvMonoid, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["row", "col", "product"])
        writer.writerows((a, b, ab) for a, row in enumerate(m.cayley) for b, ab in enumerate(row))
