"""Finite orthomodular lattices: parsing, construction, validation, Sasaki maps.

Elements are identified by declaration index; labels are presentation only.
The order is stored as per-element bitmasks (``up[i]`` = indices above ``i``,
``down[i]`` = indices below), which keeps the greatest-lower-bound and
least-upper-bound scans cheap.  Meet/join tables are precomputed when the
lattice is built; a poset that is not a lattice is rejected at build time
with a witness pair.  Validation of the ortholattice axioms is a separate,
explicit step (``validate_oml``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import LatticeParseError, SizeExceeded
from .report import ValidationReport

MAX_ELEMENTS = 64
DEFAULT_AUTOMORPHISM_CAP = 1_000_000


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Oml:
    """A finite bounded lattice with an orthocomplement map.

    The structure is immutable after construction and safe to share across
    concurrent verification tasks.  Axioms are not implied; run
    ``validate_oml`` to check them.
    """

    names: tuple[str, ...]
    up: tuple[int, ...]
    down: tuple[int, ...]
    meet: tuple[tuple[int, ...], ...]
    join: tuple[tuple[int, ...], ...]
    perp: tuple[int, ...]
    bot: int
    top: int
    name: str = ""

    @property
    def n(self) -> int:
        return len(self.names)

    def leq(self, i: int, j: int) -> bool:
        return bool(self.up[i] >> j & 1)

    def index(self, label: str) -> int:
        try:
            return self.names.index(label)
        except ValueError:
            raise KeyError(f"unknown element label {label!r}") from None

    def elements(self) -> range:
        return range(len(self.names))

    def join_all(self, xs) -> int:
        acc = self.bot
        for x in xs:
            acc = self.join[acc][x]
        return acc

    def __repr__(self) -> str:
        return f"Oml({self.name or 'unnamed'}, n={self.n})"


def sasaki_projection(l: Oml, m: int, n: int) -> int:
    """pi_m(n): project n onto m.  The result is always below m."""
    return l.meet[m][l.join[l.perp[m]][n]]


def sasaki_hook(l: Oml, m: int, n: int) -> int:
    """The hook from m, the right order adjoint of pi_m."""
    return l.join[l.perp[m]][l.meet[m][n]]


# ---------------------------------------------------------------------------
# construction


def build_oml(
    names: list[str],
    leq_pairs: list[tuple[int, int]],
    perp_pairs: list[tuple[int, int]],
    name: str = "",
) -> Oml:
    """Assemble an Oml from generating order relations and perp pairs.

    Takes the reflexive-transitive closure of ``leq_pairs``, rejects
    non-posets and non-lattices with witnesses, infers bottom and top,
    and precomputes the meet/join tables by glb/lub scans.  The perp of
    bottom/top is filled in automatically when not declared; any other
    element without a declared perp is an error.
    """
    n = len(names)
    if n == 0:
        raise LatticeParseError("no elements declared")
    if n > MAX_ELEMENTS:
        raise LatticeParseError(f"{n} elements exceeds the supported maximum {MAX_ELEMENTS}")

    up = [1 << i for i in range(n)]
    for a, b in leq_pairs:
        up[a] |= 1 << b
    changed = True
    while changed:
        changed = False
        for i in range(n):
            acc = up[i]
            for j in _bits(up[i]):
                acc |= up[j]
            if acc != up[i]:
                up[i] = acc
                changed = True

    for i in range(n):
        for j in _bits(up[i]):
            if j != i and up[j] >> i & 1:
                raise LatticeParseError(
                    f"order is not a partial order: {names[i]} <= {names[j]} <= {names[i]}"
                )

    down = [0] * n
    for i in range(n):
        for j in _bits(up[i]):
            down[j] |= 1 << i

    def bound(i, j, cone, fence):
        # glb when cone=down/fence=up, lub when cone=up/fence=down
        common = cone[i] & cone[j]
        for g in _bits(common):
            if common & ~cone[g] == 0:
                return g
        maximal = [names[g] for g in _bits(common) if fence[g] & common == 1 << g]
        kind = "lower" if cone is down else "upper"
        raise LatticeParseError(
            f"not a lattice: elements {names[i]}, {names[j]} have no greatest {kind} bound"
            f" (maximal common {kind} bounds: {maximal})"
        )

    meet = tuple(tuple(bound(i, j, down, up) for j in range(n)) for i in range(n))
    join = tuple(tuple(bound(i, j, up, down) for j in range(n)) for i in range(n))

    bot = 0
    top = 0
    for i in range(1, n):
        bot = meet[bot][i]
        top = join[top][i]

    perp = [-1] * n
    for a, b in perp_pairs:
        for x, y in ((a, b), (b, a)):
            if perp[x] not in (-1, y):
                raise LatticeParseError(
                    f"conflicting perp declarations for {names[x]}: "
                    f"{names[perp[x]]} and {names[y]}"
                )
            perp[x] = y
    if perp[bot] == -1 and perp[top] == -1:
        perp[bot] = top
        perp[top] = bot
    missing = [names[i] for i in range(n) if perp[i] == -1]
    if missing:
        raise LatticeParseError(f"perp is not a total map; missing: {missing}")

    return oml_from_tables(names, lambda i, j: up[i] >> j & 1, meet, join, perp, bot, top, name)


def oml_from_tables(names, leq, meet, join, perp, bot: int, top: int, name: str) -> Oml:
    """Assemble an Oml from precomputed operation tables and an order predicate.

    Nothing is derived from the order, unlike ``build_oml``: ``leq(i, j)``
    fixes the order alone, so ``validate_oml`` still checks the given meet
    and join tables against it.
    """
    n = len(names)
    up = [0] * n
    down = [0] * n
    for i in range(n):
        for j in range(n):
            if leq(i, j):
                up[i] |= 1 << j
                down[j] |= 1 << i
    return Oml(
        names=tuple(names),
        up=tuple(up),
        down=tuple(down),
        meet=tuple(map(tuple, meet)),
        join=tuple(map(tuple, join)),
        perp=tuple(perp),
        bot=bot,
        top=top,
        name=name,
    )


# ---------------------------------------------------------------------------
# parsing

_FORMAT_HELP = (
    "expected one of: 'name <string>', 'elements <label>+', "
    "'leq <a> <b>', 'perp <a> <b>', '# comment'"
)


def _token_lines(text: str):
    """``(lineno, tokens)`` for each line that is not blank once its ``#`` comment is cut."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            yield lineno, tokens


def _resolve(directives) -> Oml:
    """Check the ``(lineno, directive, labels)`` triples of either format; build the Oml.

    Line number 0 means the error is not tied to a line.
    """
    name = ""
    names: list[str] = []
    index: dict[str, int] = {}
    pairs: dict[str, list[tuple[int, int]]] = {"leq": [], "perp": []}

    for lineno, directive, labels in directives:
        if directive == "name":
            if not labels:
                raise LatticeParseError("name directive needs a value", lineno)
            name = " ".join(labels)
        elif directive == "elements":
            if not labels:
                raise LatticeParseError("elements directive needs at least one label", lineno)
            for label in labels:
                if label in index:
                    raise LatticeParseError(f"duplicate element {label!r}", lineno)
                index[label] = len(names)
                names.append(label)
        elif directive in pairs:
            if len(labels) != 2:
                raise LatticeParseError(f"{directive} takes exactly two labels", lineno)
            undeclared = next((label for label in labels if label not in index), None)
            if undeclared is not None:
                raise LatticeParseError(f"undeclared element {undeclared!r}", lineno)
            pairs[directive].append((index[labels[0]], index[labels[1]]))
        else:
            raise LatticeParseError(f"unknown directive {directive!r}; {_FORMAT_HELP}", lineno)

    return build_oml(names, pairs["leq"], pairs["perp"], name=name)


def parse_lattice(text: str) -> Oml:
    """Parse the line-oriented lattice format.

    Directives: ``name``, ``elements`` (order fixes indices; bottom and top
    are inferred, not positional), ``leq a b`` generating relations (the
    reflexive-transitive closure is taken), ``perp a b`` (symmetric).
    ``#`` starts a comment.
    """
    return _resolve((lineno, t[0], t[1:]) for lineno, t in _token_lines(text))


def parse_lattice_json(text: str) -> Oml:
    """Parse the JSON mirror: {name, elements, leq: [[a,b],...], perp: {a: b}}.

    Each field's type is checked before any label is read.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise LatticeParseError(f"invalid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise LatticeParseError("top-level JSON value must be an object")
    elements, leq, perp = doc.get("elements", []), doc.get("leq", []), doc.get("perp", {})
    if not isinstance(elements, list):
        raise LatticeParseError(f"elements must be a list of labels, got {elements!r}")
    if not isinstance(leq, list) or not all(isinstance(pair, list) for pair in leq):
        raise LatticeParseError("leq must be a list of two-label lists")
    if not isinstance(perp, dict):
        raise LatticeParseError(f"perp must be an object mapping labels to labels, got {perp!r}")
    directives = [(0, "name", [str(doc.get("name", ""))]),
                  (0, "elements", [str(x) for x in elements])]
    directives += [(0, "leq", [str(x) for x in pair]) for pair in leq]
    directives += [(0, "perp", [a, str(b)]) for a, b in perp.items()]
    return _resolve(directives)


def load_lattice(path: str) -> Oml:
    """Load a lattice file, dispatching on the .json extension."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".json"):
        return parse_lattice_json(text)
    return parse_lattice(text)


def format_lattice(l: Oml) -> str:
    """Serialize back to the line format (covering relations only)."""
    lines = []
    if l.name:
        lines.append(f"name {l.name}")
    lines.append("elements " + " ".join(l.names))
    for i in l.elements():
        strict_up = l.up[i] & ~(1 << i)
        for j in _bits(strict_up):
            between = l.up[i] & l.down[j] & ~(1 << i) & ~(1 << j)
            if between == 0:
                lines.append(f"leq {l.names[i]} {l.names[j]}")
    seen = set()
    for i in l.elements():
        if i not in seen:
            seen.add(l.perp[i])
            lines.append(f"perp {l.names[i]} {l.names[l.perp[i]]}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# validation


def validate_oml(l: Oml) -> ValidationReport:
    """Check every ortholattice/orthomodular axiom, with witnesses on failure."""
    r = ValidationReport(title=f"oml axioms: {l.name or 'unnamed'}")
    n = l.n
    names = l.names

    r.first("order.reflexive", (names[i] for i in range(n) if not l.leq(i, i)))
    r.first("order.antisymmetric", (f"{names[i]},{names[j]}" for i in range(n) for j in range(n)
                                    if i != j and l.leq(i, j) and l.leq(j, i)))
    r.first("order.transitive", (f"{names[i]}<={names[j]}<={names[next(_bits(l.up[j] & ~l.up[i]))]}"
                                 for i in range(n) for j in _bits(l.up[i]) if l.up[j] & ~l.up[i]))
    r.first("lattice.glb_lub", (
        f"{kind}({names[i]},{names[j]})"
        for i in range(n)
        for j in range(n)
        for kind, g, common, cone in (
            ("meet", l.meet[i][j], l.down[i] & l.down[j], l.down),
            ("join", l.join[i][j], l.up[i] & l.up[j], l.up),
        )
        if not (common >> g & 1 and common & ~cone[g] == 0)
    ))
    r.first("bounds", (names[i] for i in range(n) if not (l.leq(l.bot, i) and l.leq(i, l.top))))
    r.first("perp.complement", (names[i] for i in range(n)
                                if l.meet[i][l.perp[i]] != l.bot or l.join[i][l.perp[i]] != l.top))
    r.first("perp.involution", (names[i] for i in range(n) if l.perp[l.perp[i]] != i))
    r.first("perp.antitone", (f"{names[i]}<={names[j]}" for i in range(n) for j in range(n)
                              if l.leq(i, j) and not l.leq(l.perp[j], l.perp[i])))
    r.first("orthomodular", (f"({names[i]},{names[j]})" for i in range(n) for j in range(n)
                             if l.leq(i, j) and l.join[i][l.meet[l.perp[i]][j]] != j))

    return r


# ---------------------------------------------------------------------------
# catalog

CATALOG_NAMES = ("boolean", "mo", "chain2", "o6")
_ATOMS = "pqrstuvwxy"
_MO_ATOMS = "abcdefgh"


def catalog(name: str, k: int = 0) -> Oml:
    """Build a stock lattice.

    boolean(k), 0 <= k <= 6: the 2^k-element Boolean algebra (at most MAX_ELEMENTS).
    mo(k), 1 <= k <= 8: MOk, k incomparable complementary atom pairs plus bounds.
    chain2: the 2-element chain.
    o6: the hexagon, an ortholattice that deliberately fails orthomodularity.
    """
    if name == "boolean":
        if not 0 <= k <= 6:
            raise ValueError("boolean catalog parameter must be in 0..6")
        size = 1 << k
        labels = []
        for s in range(size):
            if s == 0:
                labels.append("0")
            elif s == size - 1 and k > 0:
                labels.append("1")
            else:
                labels.append("".join(_ATOMS[i] for i in range(k) if s >> i & 1))
        leq = [
            (a, b) for a in range(size) for b in range(size) if a != b and a & b == a
        ]
        perp = [(s, (size - 1) ^ s) for s in range(size)]
        return build_oml(labels, leq, perp, name=f"boolean({k})")

    if name == "mo":
        if not 1 <= k <= 8:
            raise ValueError("mo catalog parameter must be in 1..8")
        labels = ["0"]
        for i in range(k):
            labels += [_MO_ATOMS[i], _MO_ATOMS[i] + "'"]
        labels.append("1")
        top = len(labels) - 1
        leq = [(0, x) for x in range(1, top + 1)] + [(x, top) for x in range(1, top)]
        perp = [(0, top)] + [(2 * i + 1, 2 * i + 2) for i in range(k)]
        return build_oml(labels, leq, perp, name=f"mo({k})")

    if name == "chain2":
        return build_oml(["0", "1"], [(0, 1)], [(0, 1)], name="chain2")

    if name == "o6":
        # 0 < a < b < 1 and 0 < b' < a' < 1; the two chains meet only at the bounds
        labels = ["0", "a", "b", "b'", "a'", "1"]
        leq = [(0, 1), (1, 2), (2, 5), (0, 3), (3, 4), (4, 5)]
        perp = [(1, 4), (2, 3), (0, 5)]
        return build_oml(labels, leq, perp, name="o6")

    raise ValueError(f"unknown catalog name {name!r}; options: {CATALOG_NAMES}")


# ---------------------------------------------------------------------------
# ortholattice isomorphisms


@dataclass(frozen=True)
class OrthoIso:
    """A candidate ortholattice isomorphism, as an index table src -> dst."""

    src: Oml
    dst: Oml
    map: tuple[int, ...]
    name: str = ""

    def __call__(self, m: int) -> int:
        return self.map[m]

    def inverse(self) -> "OrthoIso":
        inv = [0] * len(self.map)
        for i, j in enumerate(self.map):
            inv[j] = i
        return OrthoIso(self.dst, self.src, tuple(inv), name=f"{self.name}^-1")

    def compose(self, other: "OrthoIso") -> "OrthoIso":
        """self after other (other first)."""
        if other.dst is not self.src and other.dst.names != self.src.names:
            raise ValueError("endpoint mismatch in composition")
        tbl = tuple(self.map[other.map[m]] for m in range(len(other.map)))
        return OrthoIso(other.src, self.dst, tbl, name=f"{self.name}*{other.name}")


def identity_iso(l: Oml) -> OrthoIso:
    return OrthoIso(l, l, tuple(range(l.n)), name="id")


def check_ortho_iso(g: OrthoIso) -> ValidationReport:
    """Verify bijectivity, both order directions, and perp preservation.

    Meet/join preservation is derived from those, but is re-checked and
    reported separately.
    """
    src, dst, tbl = g.src, g.dst, g.map
    if len(tbl) != src.n:
        raise ValueError(f"map table has {len(tbl)} entries for a {src.n}-element lattice")
    r = ValidationReport(title=f"ortho-iso {g.name or ''}".strip())

    ok = src.n == dst.n and sorted(tbl) == list(range(dst.n))
    r.add("bijective", ok)
    if not ok:
        return r

    names = src.names
    r.first("order.both_directions", (f"{names[m]},{names[x]}" for m in src.elements()
                                      for x in src.elements()
                                      if src.leq(m, x) != dst.leq(tbl[m], tbl[x])))
    r.first("perp.preserved",
            (names[m] for m in src.elements() if tbl[src.perp[m]] != dst.perp[tbl[m]]))
    r.first(
        "meet_join.preserved",
        (f"{names[m]},{names[x]}" for m in src.elements() for x in src.elements()
         if tbl[src.meet[m][x]] != dst.meet[tbl[m]][tbl[x]]
         or tbl[src.join[m][x]] != dst.join[tbl[m]][tbl[x]]),
        detail="derived from order + bijectivity",
    )
    return r


def enumerate_automorphisms(l: Oml) -> list[OrthoIso]:
    """Find all ortho-automorphisms of a lattice by pruned, capped backtracking.

    Each element maps within its (|down|, |up|, self-perp) signature class.
    Source elements are assigned in class order, each trying the unused
    targets of its class in ascending order, so the maps come out in the
    lexicographic order of the class permutations.  An extension ``s -> d``
    is pruned as soon as it breaks the order in either direction or perp
    against the elements already assigned; every complete map is still
    certified by the full ``check_ortho_iso``.  Raises SizeExceeded once
    more than ``DEFAULT_AUTOMORPHISM_CAP`` extensions have been tried.
    """
    sig = {}
    for i in l.elements():
        key = (bin(l.down[i]).count("1"), bin(l.up[i]).count("1"), l.perp[i] == i)
        sig.setdefault(key, []).append(i)
    classes = sorted(sig.values())
    order = [s for cls in classes for s in cls]
    targets = {s: cls for cls in classes for s in cls}
    leq, perp = l.leq, l.perp
    tbl = [-1] * l.n
    out = []
    tried = 0

    def fits(assigned, s, d):
        # tbl[s] == d already; -1 marks a perp image not assigned yet
        return all(leq(s, t) == leq(d, tbl[t]) and leq(t, s) == leq(tbl[t], d)
                   and tbl[perp[t]] in (-1, perp[tbl[t]]) for t in assigned)

    def extend(pos):
        nonlocal tried
        if pos == len(order):
            cand = OrthoIso(l, l, tuple(tbl), name=f"aut{len(out)}")
            if check_ortho_iso(cand).ok:
                out.append(cand)
            return
        s = order[pos]
        for d in targets[s]:
            if d in tbl:
                continue
            tried += 1
            if tried > DEFAULT_AUTOMORPHISM_CAP:
                raise SizeExceeded(tried, DEFAULT_AUTOMORPHISM_CAP,
                                   "automorphism search extensions tried")
            tbl[s] = d
            if fits(order[:pos + 1], s, d):
                extend(pos + 1)
            tbl[s] = -1

    extend(0)
    return out
