"""Library jobs: each calls one public omloq function and prints its result.

Run as ``python bench/libjob.py automorphisms mo 4`` with omloq importable;
the benchmark also calls ``run`` in-process for its traced run.
"""

from __future__ import annotations

import json
import sys


def automorphisms(family: str, k: str) -> dict:
    from omloq import catalog, enumerate_automorphisms

    lat = catalog(family, int(k))
    return {"job": "automorphisms", "lattice": lat.name, "count": len(enumerate_automorphisms(lat))}


JOBS = {"automorphisms": automorphisms}


def run(argv: list[str]) -> str:
    """The job's report, exactly as the script prints it."""
    return json.dumps(JOBS[argv[0]](*argv[1:]), indent=2, sort_keys=True) + "\n"


if __name__ == "__main__":
    sys.stdout.write(run(sys.argv[1:]))
