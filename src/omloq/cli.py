"""Command-line front end.

Subcommands: check, sasaki, linmaps, tmonoid, toda, equiv, witness.
Exit codes: 0 every check in the report passes, 1 some check does not,
2 input error, 3 resource cap exceeded.  Reports are deterministic for a fixed seed; the
OMLOQ_SEED environment variable overrides the configured seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import LatticeParseError, SizeExceeded, SuiteFailure
from .linmap import (
    DEFAULT_LIN_CAP,
    _Carrier,
    enumerate_lin,
    sasaki_projection_lattice,
    verify_foulis,
    verify_left_module_on_M,
)
from .oml import (
    Oml,
    OrthoIso,
    _token_lines,
    check_ortho_iso,
    load_lattice,
    sasaki_hook,
    sasaki_projection,
    validate_oml,
)
from .report import ValidationReport
from .testmonoid import (
    DEFAULT_MONOID_CAP,
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    EXHAUSTIVE_THRESHOLD,
    export_cayley_csv,
    generate_T,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_CAP = 3


# what a command returns: its data, the reports its verdict rests on, and its text lines
_Outcome = tuple[dict, list[ValidationReport], list[str]]


def _policy(args):
    from .dynalg import SamplePolicy

    return SamplePolicy(seed=args.seed, n_random=args.samples,
                        exhaustive_threshold=args.exhaustive_threshold)


def _verdict(exit_code: int) -> str:
    return {EXIT_PASS: "pass", EXIT_FAIL: "fail", EXIT_INPUT: "input-error", EXIT_CAP: "cap-exceeded"}[
        exit_code
    ]


def _flatten(reports: list[ValidationReport]) -> list[dict]:
    out = []
    for rep in reports:
        for c in rep.checks:
            d = c.to_dict()
            if rep.title:
                d["suite"] = rep.title
            out.append(d)
    return out


def _parse_morphism_file(path: str, l: Oml) -> OrthoIso:
    tbl = [-1] * l.n
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    for lineno, tokens in _token_lines(text):
        if tokens[0] != "iso" or len(tokens) != 3:
            raise LatticeParseError(f"expected 'iso <src> <dst>', got {' '.join(tokens)!r}", lineno)
        try:
            src = l.index(tokens[1])
            dst = l.index(tokens[2])
        except KeyError as e:
            raise LatticeParseError(e.args[0], lineno) from None
        if tbl[src] != -1:
            raise LatticeParseError(f"duplicate mapping for {tokens[1]!r}", lineno)
        tbl[src] = dst
    missing = [l.names[i] for i in range(l.n) if tbl[i] == -1]
    if missing:
        raise LatticeParseError(f"morphism does not cover elements: {missing}")
    if sorted(tbl) != list(range(l.n)):
        raise LatticeParseError("morphism is not a bijection")
    name = os.path.splitext(os.path.basename(path))[0]
    return OrthoIso(l, l, tuple(tbl), name=name)


# ---------------------------------------------------------------------------
# commands


def cmd_check(args) -> _Outcome:
    l = load_lattice(args.file)
    rep = validate_oml(l)
    return {"lattice": l.name, "elements": list(l.names)}, [rep], rep.lines()


def cmd_sasaki(args) -> _Outcome:
    l = load_lattice(args.file)
    try:
        m = l.index(args.m)
        x = l.index(args.n)
    except KeyError as e:
        raise LatticeParseError(e.args[0]) from None
    pi = sasaki_projection(l, m, x)
    hook = sasaki_hook(l, m, x)
    data = {"lattice": l.name, "m": args.m, "n": args.n, "pi": l.names[pi], "hook": l.names[hook]}
    return data, [], [f"pi={l.names[pi]} hook={l.names[hook]}"]


def _on_valid_lattice(cmd):
    """Run ``cmd(l, args)`` on the lattice in ``args.file`` once it passes the axioms."""

    def run(args) -> _Outcome:
        l = load_lattice(args.file)
        rep = validate_oml(l)
        if not rep.ok:
            return {"lattice": l.name}, [rep], rep.lines()
        return cmd(l, args)

    return run


@_on_valid_lattice
def cmd_linmaps(l: Oml, args) -> _Outcome:
    maps = enumerate_lin(l, cap=args.lin_cap)
    c = _Carrier(l, maps)  # one carrier, so each composite and join is computed once per run
    foulis = verify_foulis(l, c)
    module = verify_left_module_on_M(l, c)
    _, _, extraction = sasaki_projection_lattice(l, c)
    reports = [foulis, module, extraction]
    data = {"lattice": l.name, "carrier_size": len(maps)}
    text = [f"carrier: {len(maps)} maps"]
    for r in reports:
        text.extend(r.lines())
    return data, reports, text


@_on_valid_lattice
def cmd_tmonoid(l: Oml, args) -> _Outcome:
    monoid = generate_T(l, cap=args.monoid_cap)
    data = {
        "lattice": l.name,
        "size": monoid.size,
        "generators": l.n,
        "max_witness_length": max(len(e.witness) for e in monoid.elems),
    }
    text = [f"monoid size {monoid.size} over {l.n} generators (closure complete)"]
    if args.cayley_csv:
        export_cayley_csv(monoid, args.cayley_csv)
        data["cayley_csv"] = args.cayley_csv
        text.append(f"cayley table written to {args.cayley_csv}")
    return data, [], text


@_on_valid_lattice
def cmd_toda(l: Oml, args) -> _Outcome:
    from .equivalence import gamma_object

    h = gamma_object(l, _policy(args), monoid_cap=args.monoid_cap, require=False)
    reports = list(h.suites.values())
    data = {"lattice": l.name, "monoid_size": h.monoid.size}
    text = []
    for r in reports:
        text.extend(r.lines())
    return data, reports, text


@_on_valid_lattice
def cmd_equiv(l: Oml, args) -> _Outcome:
    from .equivalence import round_trip_report

    morphisms = []
    for path in args.morphisms:
        iso = _parse_morphism_file(path, l)
        iso_rep = check_ortho_iso(iso)
        if not iso_rep.ok:
            raise LatticeParseError(
                f"{path}: not an ortholattice isomorphism "
                f"({'; '.join(c.name for c in iso_rep.failures)})"
            )
        morphisms.append(iso)
    rep = round_trip_report(l, morphisms, _policy(args), monoid_cap=args.monoid_cap)
    data = {"lattice": l.name, "morphisms": [m.name for m in morphisms]}
    return data, [rep], rep.lines()


def cmd_witness(args) -> _Outcome:
    from . import hilbert3

    def parse_sub(text):
        if text is None:
            return None
        vectors = [hilbert3.parse_vector(part) for part in text.split(";") if part.strip()]
        return hilbert3.span(*vectors)

    try:
        u = parse_sub(args.u)
        v = parse_sub(args.v)
        x = parse_sub(args.x)
    except ValueError as e:
        raise LatticeParseError(str(e)) from None
    rep = hilbert3.witness_report(u, v, x)
    vr = ValidationReport(title="hilbert witness")
    for name, value in rep.facts():
        vr.add(name, value)
    text = vr.lines()
    text.append(f"pi_u(x) = {rep.pi_u_x}")
    text.append(f"pi_v(x) = {rep.pi_v_x}")
    if not rep.monotone_violation and rep.u_below_v:
        text.append("non-witness input: the projections are nested (monotone case)")
    return rep.to_dict(), [vr], text


# ---------------------------------------------------------------------------
# wiring


def _at_least(minimum: int, maximum: int | None = None):
    """An argparse type: an integer in ``minimum..maximum`` (no cap when None), else a usage error."""

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(f"must be at most {maximum}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value: ..."
    return parse


def _add_global_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", action="store_true", help="emit a JSON report")
    parser.add_argument("--seed", type=int, help="sampling seed")
    parser.add_argument("--lin-cap", type=_at_least(1))
    parser.add_argument("--monoid-cap", type=_at_least(1))
    # 2**threshold subsets are built when the carrier is that small
    parser.add_argument("--exhaustive-threshold", type=_at_least(0, EXHAUSTIVE_THRESHOLD))
    parser.add_argument("--samples", type=_at_least(0), help="random subsets per suite")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omloq",
        description="verify orthomodular lattices and their dynamic algebras",
    )
    _add_global_flags(parser)
    parser.set_defaults(seed=DEFAULT_SEED, lin_cap=DEFAULT_LIN_CAP, monoid_cap=DEFAULT_MONOID_CAP,
                        exhaustive_threshold=EXHAUSTIVE_THRESHOLD, samples=DEFAULT_SAMPLES)
    # global flags are accepted both before and after the subcommand; the
    # per-subcommand copies default to SUPPRESS so they never clobber values
    # given up front
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    _add_global_flags(common)

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common], help="validate the ortholattice axioms of a file")
    p.add_argument("file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("sasaki", parents=[common], help="print the projection and hook of two elements")
    p.add_argument("file")
    p.add_argument("m")
    p.add_argument("n")
    p.set_defaults(func=cmd_sasaki)

    p = sub.add_parser("linmaps", parents=[common], help="enumerate the linear maps and verify the quantale axioms")
    p.add_argument("file")
    p.set_defaults(func=cmd_linmaps)

    p = sub.add_parser("tmonoid", parents=[common], help="generate the projection monoid")
    p.add_argument("file")
    p.add_argument("--cayley-csv", metavar="PATH", help="export the product table as CSV")
    p.set_defaults(func=cmd_tmonoid)

    p = sub.add_parser("toda", parents=[common], help="run the dynamic-algebra axiom suites")
    p.add_argument("file")
    p.set_defaults(func=cmd_toda)

    p = sub.add_parser("equiv", parents=[common], help="run the full equivalence round trip")
    p.add_argument("file")
    p.add_argument("morphisms", nargs="*", help="automorphism files (iso <src> <dst> lines)")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("witness", parents=[common], help="reproduce the rational 3-space non-monotonicity witness")
    p.add_argument("--u", help="semicolon-separated integer vectors spanning u")
    p.add_argument("--v", help="vectors spanning v")
    p.add_argument("--x", help="vectors spanning x")
    p.set_defaults(func=cmd_witness)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    env_seed = os.environ.get("OMLOQ_SEED")
    if env_seed is not None:
        try:
            args.seed = int(env_seed)
        except ValueError:
            print(f"error: OMLOQ_SEED must be an integer, got {env_seed!r}", file=sys.stderr)
            return EXIT_INPUT

    code = None  # set only where no check ran; otherwise the reports decide it
    try:
        data, reports, text = args.func(args)
    except (LatticeParseError, OSError, ValueError) as e:
        code, data, reports, text = EXIT_INPUT, {"error": str(e)}, [], [f"error: {e}"]
    except SizeExceeded as e:
        code, data, reports, text = EXIT_CAP, {"error": str(e)}, [], [f"cap exceeded: {e}"]
    except SuiteFailure as e:
        data, reports, text = {"error": str(e)}, [e.report], [f"suite failure: {e}"]
    if code is None:
        code = EXIT_PASS if all(r.ok for r in reports) else EXIT_FAIL

    if args.json:
        envelope = {
            "schema": "omloq.report/1",
            "command": args.command,
            "seed": args.seed,
            "config": {key: getattr(args, key)
                       for key in ("lin_cap", "monoid_cap", "exhaustive_threshold", "samples")},
            "verdict": _verdict(code),
            "exit_code": code,
            "data": data,
            "checks": _flatten(reports),
        }
        print(json.dumps(envelope, indent=2))
    else:
        for line in text:
            print(line)
        print(f"verdict: {_verdict(code)}")
    return code


if __name__ == "__main__":
    sys.exit(main())
