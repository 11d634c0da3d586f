"""The --json reports stay byte-identical to the committed golden files.

Criterion 12 compares two runs of the same code; these files pin the bytes
across versions, so a refactor that changes any report shows up here.  The
golden files were written by this suite's commands at the default seed, and
each must also validate against the report schema, so pinned bytes cannot
drift out of it unseen.  ``lin_variants.json`` holds library suite reports,
not CLI reports, and is compared in ``test_linmap.py``.
"""

import io
import json
import os
from contextlib import redirect_stdout

import jsonschema
import pytest

from omloq.cli import main
from omloq.oml import catalog, format_lattice

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
SCHEMA = os.path.join(
    os.path.dirname(__file__), "..", "src", "omloq", "schemas", "report.schema.json"
)
SWAP = "iso 0 0\niso a b\niso b a\niso a' b'\niso b' a'\niso 1 1\n"
# a -> b -> c -> a on mo(3), the primes following
CYCLE = "iso 0 0\niso a b\niso a' b'\niso b c\niso b' c'\niso c a\niso c' a'\niso 1 1\n"

# golden file name -> argv, with {name} standing for the written input file
CASES = {
    "toda_mo2": ["toda", "{mo2}"],
    "toda_boolean2": ["toda", "{boolean2}"],
    "toda_boolean3": ["toda", "{boolean3}"],
    "equiv_mo2_swap": ["equiv", "{mo2}", "{swap}"],
    "equiv_mo3_cycle": ["equiv", "{mo3}", "{cycle}"],
    "linmaps_boolean2": ["linmaps", "{boolean2}"],
    "linmaps_mo2": ["linmaps", "{mo2}"],
    "tmonoid_mo2": ["tmonoid", "{mo2}"],
    "check_mo2": ["check", "{mo2}"],
    "witness": ["witness"],
}

# CASES plus inputs that fail or leave the defaults, for the verdict rule
VERDICT_CASES = {
    **CASES,
    "witness_x121": ["witness", "--x", "1,2,1"],
    "witness_x100": ["witness", "--x", "1,0,0"],
    "check_o6": ["check", "{o6}"],
    "toda_o6": ["toda", "{o6}"],
}


def run_json(argv, inputs) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        main(["--json"] + [arg.format(**inputs) for arg in argv])
    return buf.getvalue()


@pytest.fixture(scope="module")
def report_of(tmp_path_factory):
    """Each case's --json output at the default seed, run once and shared by the tests."""
    tmp_path = tmp_path_factory.mktemp("inputs")
    inputs = {}
    for name, k in (("mo", 2), ("mo", 3), ("boolean", 2), ("boolean", 3), ("o6", 0)):
        path = tmp_path / f"{name}{k or ''}.lat"
        path.write_text(format_lattice(catalog(name, k)))
        inputs[f"{name}{k or ''}"] = str(path)
    for name, text in (("swap", SWAP), ("cycle", CYCLE)):
        path = tmp_path / f"{name}.iso"
        path.write_text(text)
        inputs[name] = str(path)
    cache = {}

    def get(case):
        if case not in cache:
            with pytest.MonkeyPatch.context() as mp:
                mp.delenv("OMLOQ_SEED", raising=False)
                cache[case] = run_json(VERDICT_CASES[case], inputs)
        return cache[case]

    return get


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden(case, report_of):
    with open(os.path.join(GOLDEN, f"{case}.json"), encoding="utf-8") as fh:
        assert report_of(case) == fh.read()


@pytest.mark.parametrize("case", sorted(VERDICT_CASES))
def test_verdict_rests_on_checks(case, report_of):
    doc = json.loads(report_of(case))
    statuses = [c["status"] for c in doc["checks"]]
    assert doc["verdict"] in ("pass", "fail")
    # so a fail verdict has a check that is not pass, and a pass verdict has none
    assert (doc["verdict"] == "pass") == all(s == "pass" for s in statuses)


@pytest.mark.parametrize("golden", sorted(f"{case}.json" for case in CASES))
def test_golden_file_matches_schema(golden):
    with open(SCHEMA, encoding="utf-8") as fh:
        schema = json.load(fh)
    with open(os.path.join(GOLDEN, golden), encoding="utf-8") as fh:
        jsonschema.validate(json.load(fh), schema)
