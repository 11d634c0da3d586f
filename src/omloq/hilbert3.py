"""Exact rational subspaces of 3-space.

Reproduces the one worked counterexample that needs real geometry: two
nested lines/planes whose projections onto a third line land on
incomparable subspaces, showing projection is not monotone in the
projecting subspace.  Everything is integer arithmetic; a subspace is
stored as a canonical fraction-free row-reduced basis, so equality of
subspaces is equality of tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

Vec = tuple[int, int, int]

E1: Vec = (1, 0, 0)
E2: Vec = (0, 1, 0)
E3: Vec = (0, 0, 1)


def _primitive(row: tuple[Fraction, ...]) -> Vec | None:
    denom = 1
    for x in row:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) for x in row]
    g = 0
    for v in ints:
        g = gcd(g, v)
    if g == 0:
        return None
    lead = next(v for v in ints if v != 0)
    if lead < 0:
        g = -g
    return tuple(v // g for v in ints)


def _rref(rows: list[tuple[int, ...]]) -> list[Vec]:
    """Reduced echelon form over the rationals, scaled back to primitive
    integer rows with positive leading entries; canonical per subspace."""
    mat = [[Fraction(v) for v in row] for row in rows if any(row)]
    ncols = 3
    pivot_row = 0
    for col in range(ncols):
        src = next((r for r in range(pivot_row, len(mat)) if mat[r][col] != 0), None)
        if src is None:
            continue
        mat[pivot_row], mat[src] = mat[src], mat[pivot_row]
        lead = mat[pivot_row][col]
        mat[pivot_row] = [x / lead for x in mat[pivot_row]]
        for r in range(len(mat)):
            if r != pivot_row and mat[r][col] != 0:
                factor = mat[r][col]
                mat[r] = [x - factor * y for x, y in zip(mat[r], mat[pivot_row])]
        pivot_row += 1
        if pivot_row == len(mat):
            break
    out = []
    for row in mat:
        prim = _primitive(tuple(row))
        if prim is not None:
            out.append(prim)
    return out


@dataclass(frozen=True)
class RatSubspace:
    basis: tuple[Vec, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, other: "RatSubspace") -> bool:
        return join(self, other) == self

    def __le__(self, other: "RatSubspace") -> bool:
        return other.contains(self)

    def __repr__(self) -> str:
        if not self.basis:
            return "span()"
        return "span(" + ", ".join(str(list(v)) for v in self.basis) + ")"


ZERO = RatSubspace(())
FULL = RatSubspace((E1, E2, E3))


def span(*vectors) -> RatSubspace:
    """The subspace spanned by integer vectors; zero vectors are ignored."""
    rows = [tuple(int(c) for c in v) for v in vectors]
    for row in rows:
        if len(row) != 3:
            raise ValueError(f"vectors must have 3 integer entries, got {row}")
    return RatSubspace(tuple(_rref(rows)))


def _cross(p: Vec, q: Vec) -> Vec:
    return (p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2], p[0] * q[1] - p[1] * q[0])


def orth(a: RatSubspace) -> RatSubspace:
    """The orthogonal complement under the standard inner product, by cross products:
    a plane's is its normal, and a line's is spanned by the line crossed with each axis."""
    if a.dim == 2:
        return span(_cross(*a.basis))
    if a.dim == 1:
        return span(*(_cross(a.basis[0], e) for e in (E1, E2, E3)))
    return FULL if a.dim == 0 else ZERO


def join(a: RatSubspace, b: RatSubspace) -> RatSubspace:
    return RatSubspace(tuple(_rref(list(a.basis) + list(b.basis))))


def meet(a: RatSubspace, b: RatSubspace) -> RatSubspace:
    """Intersection, by De Morgan: the complement of the join of both complements."""
    return orth(join(orth(a), orth(b)))


def sasaki3(u: RatSubspace, x: RatSubspace) -> RatSubspace:
    """Project x onto u: u meet (x join orth(u))."""
    return meet(u, join(x, orth(u)))


@dataclass(frozen=True)
class WitnessReport:
    u: RatSubspace
    v: RatSubspace
    x: RatSubspace
    pi_u_x: RatSubspace
    pi_v_x: RatSubspace
    u_below_v: bool
    monotone_violation: bool
    reference: bool  # the default inputs, whose projections have known values

    @property
    def ok(self) -> bool:
        return all(value for _, value in self.facts())

    def facts(self) -> list[tuple[str, bool]]:
        """Containment and the violation; on the default inputs, the two projections too."""
        facts = [("u is contained in v", self.u_below_v)]
        if self.reference:
            facts += [
                ("projection of x onto u is span([1, 0, 0])", self.pi_u_x == span(E1)),
                ("projection of x onto v is span([1, 1, 0])", self.pi_v_x == span((1, 1, 0))),
            ]
        return facts + [("the first is not contained in the second", self.monotone_violation)]

    def to_dict(self) -> dict:
        return {
            "u": [list(r) for r in self.u.basis],
            "v": [list(r) for r in self.v.basis],
            "x": [list(r) for r in self.x.basis],
            "pi_u_x": [list(r) for r in self.pi_u_x.basis],
            "pi_v_x": [list(r) for r in self.pi_v_x.basis],
            "monotone_violation": self.monotone_violation,
        }


def witness_report(
    u: RatSubspace | None = None,
    v: RatSubspace | None = None,
    x: RatSubspace | None = None,
) -> WitnessReport:
    """Run the projection computation; assert the reference values only on
    the default inputs.  A perturbed x is reported as a non-witness when the
    projections are in fact nested."""
    reference = u is None and v is None and x is None
    u = u if u is not None else span(E1)
    v = v if v is not None else span(E1, E2)
    x = x if x is not None else span((1, 1, 1))
    pi_u_x = sasaki3(u, x)
    pi_v_x = sasaki3(v, x)
    violated = not pi_v_x.contains(pi_u_x)
    return WitnessReport(u, v, x, pi_u_x, pi_v_x, v.contains(u), violated, reference)


def parse_vector(text: str) -> Vec:
    parts = [p for p in text.replace(",", " ").split() if p]
    if len(parts) != 3:
        raise ValueError(f"expected 3 comma-separated integers, got {text!r}")
    return tuple(int(p) for p in parts)
