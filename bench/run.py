"""Time to a verdict of omloq's heavy commands, with a per-layer traced run.

Run from the repository root:

    python3 bench/run.py --workload toda|equiv|linmaps|all [--seed N]
                         [--seconds S] [--trace 0|1]

Each job runs in a fresh interpreter (``python -m omloq --json ...`` or
``bench/libjob.py``), serially, so no cache carries over between jobs.  A
run repeats whole rounds of its workload's jobs until ``--seconds`` have
passed, at least one round.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs every job in-process instead, with spans around omloq's
public functions, and reports the per-layer metrics.  After the
rounds the outputs are checked against values computed apart from the
program.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()
_BOOT0 = time.clock_gettime(time.CLOCK_BOOTTIME)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"


@dataclass(frozen=True)
class Job:
    name: str
    kind: str  # "cli": python -m omloq; "lib": bench/libjob.py
    args: tuple[str, ...]  # the CLI command, or the library job's argv
    lattice: str = ""
    morphisms: tuple[str, ...] = ()


def cli(command: str, lattice: str, *morphisms: str) -> Job:
    return Job("-".join((command, lattice, *morphisms)), "cli", (command,), lattice, morphisms)


WORKLOADS = {
    "toda": [cli("toda", "boolean3"), cli("toda", "boolean4"), cli("toda", "mo4")],
    "equiv": [
        cli("equiv", "mo2", "swap"),
        cli("equiv", "mo3", "cycle"),
        Job("automorphisms-mo4", "lib", ("automorphisms", "mo", "4")),
    ],
    "linmaps": [cli("linmaps", "chain2"), cli("linmaps", "boolean2"), cli("linmaps", "mo2")],
}


@dataclass
class Outcome:
    job: str
    secs: float
    rss_mb: float
    code: int
    text: str
    error: str = ""


class Launcher:
    """The process that starts every job (see launcher.py for why)."""

    def __init__(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        env.pop("OMLOQ_SEED", None)  # it would override --seed in the jobs
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=OUT, text=True,
        )

    def run(self, argv: list[str], log: str) -> Outcome:
        out_path, err_path = OUT / "logs" / f"{log}.stdout", OUT / "logs" / f"{log}.stderr"
        self.proc.stdin.write(json.dumps([argv, str(out_path), str(err_path)]) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        text = out_path.read_text(encoding="utf-8", errors="replace")
        return Outcome(log, reply["secs"], reply["rss_kb"] / 1024, reply["code"], text)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


class Context:
    """What the jobs, checks and controls of one workload share."""

    def __init__(self, seed: int, inputs: dict[str, str], jobs: list[Job], launcher: Launcher):
        self.seed = seed
        self.inputs = inputs
        self.jobs = jobs
        self.launcher = launcher

    def argv(self, job: Job) -> list[str]:
        if job.kind == "lib":
            return list(job.args)
        files = [self.inputs[job.lattice], *(self.inputs[m] for m in job.morphisms)]
        return ["--json", "--seed", str(self.seed), job.args[0], *files]

    def run_job(self, job: Job) -> Outcome:
        entry = ["-m", "omloq"] if job.kind == "cli" else [str(BENCH / "libjob.py")]
        return self.launcher.run([sys.executable, *entry, *self.argv(job)], job.name)

    def run_cli(self, argv: list[str]) -> tuple[int, str]:
        """An untimed CLI run, for the controls."""
        out = self.launcher.run([sys.executable, "-m", "omloq", "--json", "--seed", str(self.seed), *argv], "control")
        return out.code, out.text

    def run_in_process(self, job: Job, tracer: tracing.Tracer) -> Outcome:
        """The same job through the same entry point, inside this process."""
        from omloq import cli as omloq_cli

        import libjob

        tracer.job = job.name
        buf = io.StringIO()
        code, error = 0, ""
        with tracer.span(tracing.ROOT) as span, contextlib.redirect_stdout(buf):
            try:
                if job.kind == "cli":
                    code = omloq_cli.main(self.argv(job))
                else:
                    buf.write(libjob.run(self.argv(job)))
            except Exception as e:  # a crash in the program is a failed operation
                code, error = 1, f"in-process {type(e).__name__}: {e}"
        return Outcome(job.name, span["end"] - span["start"], 0.0, code, buf.getvalue(), error)


def _process_age() -> float:
    """Seconds from this process's start to the first statement of this file."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
    except (OSError, ValueError, IndexError):
        return 0.0
    return max(0.0, _BOOT0 - start_ticks / os.sysconf("SC_CLK_TCK"))


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "omloq").rglob("*")):
        if path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# one workload


def run_round(ctx: Context, workload: str, trace: bool) -> dict:
    """The workload's jobs, untraced in fresh interpreters or traced in-process,
    then its negative controls."""
    rnd: dict = {}
    if trace:
        rnd["tracer"] = tracing.Tracer()
        with tracing.installed(rnd["tracer"]):
            rnd["jobs"] = [ctx.run_in_process(job, rnd["tracer"]) for job in ctx.jobs]
    else:
        rnd["jobs"] = [ctx.run_job(job) for job in ctx.jobs]
    for out in rnd["jobs"]:
        try:
            json.loads(out.text)
        except ValueError:
            out.error = out.error or f"exit {out.code} without a JSON report; see {OUT.name}/logs/{out.job}.stderr"
    rnd["controls"] = []
    for control in checks.CONTROLS[workload]:
        try:
            rnd["controls"].append((control.__name__, control(ctx), ""))
        except Exception as e:  # the verifier crashed instead of rejecting
            rnd["controls"].append((control.__name__, None, f"{type(e).__name__}: {e}"))
    return rnd


def check_outputs(ctx: Context, workload: str, rounds: list[dict]) -> list[tuple[str, bool, str]]:
    """Checks on the first round's reports, plus byte identity across repeats."""
    try:
        from jsonschema import Draft202012Validator

        validator = Draft202012Validator(json.loads((SRC / "omloq/schemas/report.schema.json").read_text()))
    except (ImportError, OSError, ValueError) as e:
        return [("report schema is loadable", False, f"{type(e).__name__}: {e}")]

    results = []
    first = {o.job: o for o in rounds[0]["jobs"]}
    crashed = {o.job for r in rounds for o in r["jobs"] if o.error}
    ok_jobs = [job for job in ctx.jobs if job.name not in crashed]
    for job in ok_jobs:
        if job.kind == "cli":
            results += checks.report_checks(job.name, first[job.name].text, validator)

    digests_path = OUT / "digests.json"
    digests = json.loads(digests_path.read_text()) if digests_path.exists() else {}
    src = _source_digest()
    for job in ok_jobs:
        text = first[job.name].text
        repeats = [o.text for r in rounds for o in r["jobs"] if o.job == job.name]
        key = f"{job.name} seed={ctx.seed} src={src}"
        earlier = digests.setdefault(key, hashlib.sha256(text.encode()).hexdigest())
        same = all(t == text for t in repeats) and earlier == hashlib.sha256(text.encode()).hexdigest()
        results.append((f"{job.name}: report byte-identical across repeats", same,
                        f"{len(repeats)} in this run, plus earlier traced or untraced runs with this seed"))
    digests_path.write_text(json.dumps(digests, indent=1, sort_keys=True))

    if len(ok_jobs) == len(ctx.jobs):
        docs = {job.name: json.loads(first[job.name].text) for job in ctx.jobs}
        try:
            results += checks.CHECKS[workload](ctx, docs)
        except Exception as e:  # an output the checks cannot read is a wrong output
            results.append((f"{workload} output checks ran", False, f"{type(e).__name__}: {e}"))
    return results


def run_workload(workload: str, ctx: Context, seconds: float, trace: bool) -> dict:
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(run_round(ctx, workload, trace))

    failed = sum(bool(o.error) for r in rounds for o in r["jobs"])
    failed += sum(ok is None for r in rounds for _, ok, _ in r["controls"])
    attempted = sum(len(r["jobs"]) + len(r["controls"]) for r in rounds)
    results = check_outputs(ctx, workload, rounds)
    results += [
        (f"control {name}: the verifier rejects the broken input", ok, detail)
        for name, ok, detail in rounds[0]["controls"]
        if ok is not None
    ]

    if trace:
        layers = [tracing.layer_metrics(r["tracer"]) for r in rounds]
        metrics = {key: statistics.median(m[key] for m in layers) for key in layers[0]}
        rounds[-1]["tracer"].write_jsonl(OUT / f"trace-{workload}-seed{ctx.seed}.jsonl")
    else:
        metrics = {
            "verdict_s": statistics.median(sum(o.secs for o in r["jobs"]) for r in rounds),
            "peak_rss_mb": max(o.rss_mb for r in rounds for o in r["jobs"]),
        }
    return {
        "workload": workload,
        "rounds": [
            {
                "jobs": {o.job: {"secs": o.secs, "rss_mb": o.rss_mb, "exit": o.code, "error": o.error} for o in r["jobs"]},
                "controls": {name: {"rejected": ok, "error": detail} for name, ok, detail in r["controls"]},
            }
            for r in rounds
        ],
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in results],
        "correct": all(ok for _, ok, _ in results),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


# ---------------------------------------------------------------------------
# reporting


END_TO_END = {"setup_s": "s", "verdict_s": "s", "peak_rss_mb": "MB"}


def _unit(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    return "s" if name.endswith("_s") else "count"


def _print_summary(res: dict, trace: bool) -> None:
    print(f"workload {res['workload']}: {len(res['rounds'])} round(s)")
    for i, rnd in enumerate(res["rounds"]):
        for job, o in rnd["jobs"].items():
            where = "in-process" if trace else f"{o['rss_mb']:7.1f} MB"
            print(f"  round {i} {job:24s} {o['secs']:9.3f} s {where}  exit {o['exit']} {o['error']}")
        for name, c in rnd["controls"].items():
            state = {True: "rejected", False: "ACCEPTED"}.get(c["rejected"], "FAILED " + c["error"])
            print(f"  round {i} control {name}: {state}")
    for c in res["checks"]:
        print(f"  {'ok  ' if c['ok'] else 'FAIL'} {c['name']}" + ("" if c["ok"] else f"  ({c['detail']})"))
    for name, value in res["metrics"].items():
        print(f"  {name} = {value:.6g} {_unit(name)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=None, help="forwarded as omloq --seed (default DEFAULT_SEED)")
    parser.add_argument("--seconds", type=float, default=10.0, help="repeat whole rounds until this long has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "omloq" / "__init__.py").is_file():
        print(f"error: no omloq package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    (OUT / "logs").mkdir(parents=True, exist_ok=True)
    launcher = Launcher()
    try:
        inputs = checks.write_inputs(OUT / "inputs")
        sys.path.insert(0, str(SRC))
        os.environ.pop("OMLOQ_SEED", None)  # the traced run calls the CLI in-process
        import omloq.cli  # noqa: F401  the first import of the program
        from omloq.dynalg import DEFAULT_SEED

        seed = DEFAULT_SEED if args.seed is None else args.seed
        setup_s = _process_age() + time.perf_counter() - _T0

        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = [
            run_workload(w, Context(seed, inputs, WORKLOADS[w], launcher), args.seconds, bool(args.trace))
            for w in names
        ]
    finally:
        launcher.close()

    metrics: dict = {}
    print(f"omloq bench: seed {seed}, trace {args.trace}, setup_s = {setup_s:.4f} s")
    for res in results:
        if not args.trace:
            res["metrics"] = {"setup_s": setup_s, **res["metrics"]}
        _print_summary(res, bool(args.trace))
        prefix = "" if len(results) == 1 else f"{res['workload']}."
        metrics.update({prefix + k: {"value": v, "unit": _unit(k)} for k, v in res["metrics"].items()})
        record = dict(res, seed=seed, trace=args.trace, python=platform.python_version(),
                      machine=platform.machine(), cpus=os.cpu_count())
        out_path = OUT / f"result-{res['workload']}-seed{seed}-trace{args.trace}.json"
        out_path.write_text(json.dumps(record, indent=1))

    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
