"""Closure of the Sasaki projections under composition.

The generated involutive monoid is the carrier the powerset dynamic algebra
is built over.  Elements are canonicalized by their full image table,
interned in the one table store, ``linmap._Carrier``; every element keeps a
shortest generator word as a witness, and the involution is word reversal
(the generators are self-adjoint), which the generator verifies against the
adjoint computation.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from functools import cached_property

from .errors import SizeExceeded
from .linmap import EndoMap, LinMap, _Carrier, orth_adjoint, sasaki_map
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
    ``tables`` is T as a closed Lin carrier, each map with its star as adjoint,
    so its ids are T's ids and its width is its size.
    """

    l: Oml
    elems: list[MonoidElem]
    gen_id: tuple[int, ...]  # lattice element m -> id of pi_m
    unit_id: int
    star: tuple[int, ...]  # id -> id of its involution
    tables: _Carrier = field(repr=False, compare=False)

    @property
    def size(self) -> int:
        return len(self.elems)

    def ids(self) -> range:
        return range(len(self.elems))

    @cached_property
    def cayley(self) -> tuple[tuple[int, ...], ...]:
        """Dense product table: cayley[a][b] is the id of tbl_a composed after tbl_b.

        Its rows are the composition rows of ``tables``, kept as tuples.
        """
        return tuple(tuple(self.tables.comp_row(a)) for a in self.ids())

    def id_of(self, tbl: tuple[int, ...]) -> int:
        """The id of the element whose table is tbl, or -1 when no element has it."""
        i = self.tables.ids.get(tbl, -1)
        return i if i < self.size else -1

    def label(self, a: int) -> str:
        return "pi(" + ")pi(".join(self.l.names[m] for m in self.elems[a].witness) + ")"


def generate_T(l: Oml, cap: int = DEFAULT_MONOID_CAP) -> InvMonoid:
    """Generate the closure of {pi_m} under composition, breadth first.

    The closure runs in ``_Carrier(l, [])``, whose ids 0..n-1 are already
    pi_0..pi_{n-1} (pi_top is the unit and pi_bot the zero map), and interns
    each composite there.  Dedupe key is the image table, so word length grows
    level by level and the first witness found for a table is shortest.  The
    cap is checked after each composite, so when SizeExceeded is raised the
    store holds at most max(n, cap + 1) tables.  The reverse of every
    reachable word is reachable, which makes the involution total; star ids
    are computed from reversed witnesses and verified against the
    orthogonality adjoint of the element.
    """
    rep = validate_oml(l)
    if not rep.ok:
        bad = ", ".join(c.name for c in rep.failures)
        raise ValueError(f"lattice fails axioms ({bad}); refusing to generate")

    c = _Carrier(l, [])
    words = [(m,) for m in l.elements()]
    # words grows while it is read, so it is the breadth-first queue
    for eid, word in enumerate(words):
        for m in l.elements():
            for a, b, w in ((m, eid, (m,) + word), (eid, m, word + (m,))):
                if c._compose(a, b) == len(words):
                    words.append(w)
                if len(words) > cap:
                    raise SizeExceeded(cap + 1, cap, what="monoid elements")

    elems = [MonoidElem(i, c.tab[i], w) for i, w in enumerate(words)]
    star, maps = [], []
    for e in elems:
        # pi_m1 . ... . pi_mj reversed is pi_mj . ... . pi_m1: apply pi_m1 first
        s = c.e
        for m in e.witness:
            s = c._compose(m, s)
        adj = orth_adjoint(EndoMap(l, e.tbl))
        if s >= len(elems) or not isinstance(adj, LinMap) or adj.adj.tbl != c.tab[s]:
            raise AssertionError(f"word reversal disagrees with the adjoint for {e!r}")
        star.append(s)
        maps.append(adj)

    return InvMonoid(l, elems, tuple(c.sas), c.e, tuple(star), _Carrier(l, maps))


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
