"""Spans around calls into omloq's public functions, recorded from outside.

``installed`` swaps each listed function for a wrapper in every loaded omloq
module that binds it, so calls the program makes internally (the CLI calling
``verify_ida``, ``check_naturality_mu`` calling ``gamma_morphism``) are timed
too, in the program's own order.  Spans stay in memory; ``write_jsonl``
writes them out at the end and ``layer_metrics`` sums self times.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from contextlib import contextmanager
from time import perf_counter

TRACED = {
    "oml": ("load_lattice", "validate_oml", "check_ortho_iso", "enumerate_automorphisms"),
    "testmonoid": ("generate_T",),
    "dynalg": ("DynAlgebra.test_lattice", "verify_ida", "verify_toda", "verify_module"),
    "linmap": ("enumerate_lin", "verify_foulis", "verify_left_module_on_M", "sasaki_projection_lattice"),
    "equivalence": (
        "gamma_object",
        "lambda_component",
        "verify_h_map",
        "gamma_morphism",
        "check_naturality_mu",
        "check_naturality_lambda",
    ),
}
COUNTS = (
    "testmonoid.monoid_size",
    "dynalg.sample_elements",
    "dynalg.sample_pairs",
    "dynalg.action_pairs",
    "linmap.carrier_size",
)
ROOT = "job"


def span_names() -> list[str]:
    return [f"{layer}.{fn.rsplit('.', 1)[-1]}" for layer, fns in TRACED.items() for fn in fns]


def _count_monoid(counts, monoid, *args, **kwargs):
    counts["testmonoid.monoid_size"] += monoid.size


def _count_carrier(counts, maps, *args, **kwargs):
    counts["linmap.carrier_size"] += len(maps)


def _count_samples(counts, report, alg, policy=None):
    from omloq.dynalg import SamplePolicy

    policy = policy or SamplePolicy()
    counts["dynalg.sample_elements"] += len(policy.elements(alg))
    counts["dynalg.sample_pairs"] += len(policy.pairs(alg))
    counts["dynalg.action_pairs"] += len(policy.action_pairs(alg))


# work counts read off a call's result after its span has closed
_AFTER = {
    "testmonoid.generate_T": _count_monoid,
    "linmap.enumerate_lin": _count_carrier,
    "dynalg.verify_module": _count_samples,
}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.job = ""
        self._open: list[dict] = []

    @contextmanager
    def span(self, name: str):
        s = {
            "id": len(self.spans),
            "name": name,
            "job": self.job,
            "parent": self._open[-1]["id"] if self._open else None,
            "start": perf_counter(),
        }
        self.spans.append(s)
        self._open.append(s)
        try:
            yield s
        finally:
            s["end"] = perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn):
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(self.counts, result, *args, **kwargs)
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s in self.spans:
            out[s["name"]] = out.get(s["name"], 0.0) + s["end"] - s["start"] - child[s["id"]]
        return out

    def root_total(self) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["parent"] is None)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


@contextmanager
def installed(tracer: Tracer):
    """Route every listed function through the tracer; restore on exit."""
    modules = [m for n, m in sorted(sys.modules.items()) if n == "omloq" or n.startswith("omloq.")]
    undo = []
    try:
        for layer, fns in TRACED.items():
            home = importlib.import_module(f"omloq.{layer}")
            for fn in fns:
                if "." in fn:
                    cls_name, meth = fn.split(".")
                    cls = getattr(home, cls_name)
                    orig = cls.__dict__[meth]
                    undo.append((cls, meth, orig))
                    setattr(cls, meth, tracer.wrap(f"{layer}.{meth}", orig))
                    continue
                orig = getattr(home, fn)
                wrapped = tracer.wrap(f"{layer}.{fn}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            undo.append((mod, attr, orig))
                            setattr(mod, attr, wrapped)
        yield tracer
    finally:
        for obj, attr, orig in reversed(undo):
            setattr(obj, attr, orig)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Self time per traced function, and the work counts.

    ``job.self_s`` is the time inside the jobs outside every traced function,
    ``trace.total_s`` the traced jobs' summed wall time.
    """
    out = {f"{name}_s": 0.0 for name in span_names()}
    out["job.self_s"] = 0.0
    for name, secs in tracer.self_times().items():
        out["job.self_s" if name == ROOT else f"{name}_s"] += secs
    out["trace.total_s"] = tracer.root_total()
    out.update(tracer.counts)
    return out
