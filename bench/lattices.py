"""The benchmark's own models of the catalog lattices it feeds the program.

Nothing here imports omloq.  The tables built below are the reference the
output checks compare the program against, and the lattice files the jobs
read are written from them, so a fault in the program's own lattice
construction cannot hide behind itself.
"""

from __future__ import annotations

from itertools import product

_ATOMS = "pqrstuvwxy"
_MO_ATOMS = "abcdefgh"


class Lattice:
    """A finite ortholattice given by its full meet, join and perp tables."""

    def __init__(self, name: str, labels: list[str], leq, meet, join, perp):
        self.name = name
        self.labels = labels
        self.n = len(labels)
        self.leq = leq
        self.meet = meet
        self.join = join
        self.perp = perp
        self.bot = next(x for x in range(self.n) if all(leq[x][y] for y in range(self.n)))

    def sasaki(self, m: int, x: int) -> int:
        """pi_m(x) = m meet (m' join x)."""
        return self.meet[m][self.join[self.perp[m]][x]]

    def to_text(self) -> str:
        """The line format of the program's lattice files, covers only."""
        lines = [f"name {self.name}", "elements " + " ".join(self.labels)]
        for x in range(self.n):
            for y in range(self.n):
                if x != y and self.leq[x][y] and not any(
                    z not in (x, y) and self.leq[x][z] and self.leq[z][y] for z in range(self.n)
                ):
                    lines.append(f"leq {self.labels[x]} {self.labels[y]}")
        for x in range(self.n):
            if x <= self.perp[x]:
                lines.append(f"perp {self.labels[x]} {self.labels[self.perp[x]]}")
        return "\n".join(lines) + "\n"


def boolean(k: int, name: str = "") -> Lattice:
    """The powerset of k atoms; element s is the bitmask of its atoms."""
    size = 1 << k
    full = size - 1
    labels = []
    for s in range(size):
        if s == 0:
            labels.append("0")
        elif s == full:
            labels.append("1")
        else:
            labels.append("".join(_ATOMS[i] for i in range(k) if s >> i & 1))
    r = range(size)
    return Lattice(
        name or f"boolean({k})",
        labels,
        [[s & t == s for t in r] for s in r],
        [[s & t for t in r] for s in r],
        [[s | t for t in r] for s in r],
        [full ^ s for s in r],
    )


def mo(k: int) -> Lattice:
    """MOk: bottom, k complementary atom pairs, top, in the catalog's order."""
    labels = ["0"]
    for i in range(k):
        labels += [_MO_ATOMS[i], _MO_ATOMS[i] + "'"]
    labels.append("1")
    top = len(labels) - 1
    r = range(top + 1)

    def le(x, y):
        return x == y or x == 0 or y == top

    def meet(x, y):
        return x if le(x, y) else y if le(y, x) else 0

    def join(x, y):
        return y if le(x, y) else x if le(y, x) else top

    perp = [top] + [i + 1 if i % 2 else i - 1 for i in range(1, top)] + [0]
    return Lattice(
        f"mo({k})",
        labels,
        [[le(x, y) for y in r] for x in r],
        [[meet(x, y) for y in r] for x in r],
        [[join(x, y) for y in r] for x in r],
        perp,
    )


def chain2() -> Lattice:
    """The two-element chain, which is boolean(1) under another name."""
    return boolean(1, name="chain2")


def sasaki_monoid_size(lat: Lattice) -> int:
    """Size of the closure of the Sasaki-projection tables under composition."""
    xs = range(lat.n)
    gens = [tuple(lat.sasaki(m, x) for x in xs) for m in xs]
    seen = set(gens)
    frontier = list(seen)
    while frontier:
        fresh = []
        for t in frontier:
            for g in gens:
                p = tuple(g[t[x]] for x in xs)
                if p not in seen:
                    seen.add(p)
                    fresh.append(p)
        frontier = fresh
    return len(seen)


def join_preserving(lat: Lattice, tbl) -> bool:
    """True when the endomap keeps bottom and every binary join."""
    if tbl[lat.bot] != lat.bot:
        return False
    j = lat.join
    return all(
        tbl[j[x][y]] == j[tbl[x]][tbl[y]] for x in range(lat.n) for y in range(x + 1, lat.n)
    )


def count_join_preserving(lat: Lattice) -> int:
    """Brute force over all n^n tables; for mo(2) that is 6^6 = 46656."""
    return sum(join_preserving(lat, t) for t in product(range(lat.n), repeat=lat.n))


def first_non_join_preserving(lat: Lattice) -> tuple[int, ...]:
    """The first table, in lexicographic order, that keeps bottom but breaks a join."""
    return next(
        t
        for t in product(range(lat.n), repeat=lat.n)
        if t[lat.bot] == lat.bot and not join_preserving(lat, t)
    )
