import json
import os
import subprocess
import sys

import jsonschema
import pytest

from omloq.cli import main
from omloq.oml import catalog, format_lattice

SCHEMA_PATH = os.path.join(
    os.path.dirname(__file__), "..", "src", "omloq", "schemas", "report.schema.json"
)


@pytest.fixture(scope="module")
def schema():
    with open(SCHEMA_PATH) as fh:
        return json.load(fh)


@pytest.fixture()
def lattice_file(tmp_path):
    def write(name, k=0):
        path = tmp_path / f"{name}{k or ''}.lat"
        path.write_text(format_lattice(catalog(name, k)))
        return str(path)

    return write


def run_json(argv, schema):
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv + ["--json"] if "--json" not in argv else argv)
    doc = json.loads(buf.getvalue())
    jsonschema.validate(doc, schema)
    assert doc["exit_code"] == code
    return code, doc


def test_check_exit_codes(lattice_file, schema, tmp_path):
    code, doc = run_json(["check", lattice_file("mo", 2)], schema)
    assert code == 0 and doc["verdict"] == "pass"

    code, doc = run_json(["check", lattice_file("o6")], schema)
    assert code == 1
    failing = [c for c in doc["checks"] if c["status"] == "fail"]
    assert [c["name"] for c in failing] == ["orthomodular"]
    assert failing[0]["witness"]

    bad = tmp_path / "bad.lat"
    bad.write_text("elements 0 1\nleq 0 nope\n")
    code, doc = run_json(["check", str(bad)], schema)
    assert code == 2 and doc["verdict"] == "input-error"

    code, doc = run_json(["check", str(tmp_path / "missing.lat")], schema)
    assert code == 2

    # perp given as a list of pairs instead of an object
    bad_json = tmp_path / "bad.json"
    bad_doc = {"elements": ["0", "1"], "leq": [["0", "1"]], "perp": [["0", "1"]]}
    bad_json.write_text(json.dumps(bad_doc))
    code, doc = run_json(["check", str(bad_json)], schema)
    assert code == 2 and doc["verdict"] == "input-error"
    assert "perp must be an object" in doc["data"]["error"]


@pytest.mark.parametrize(
    "bad_doc",
    [
        {"elements": 5},
        {"elements": ["0", "1"], "leq": 5},
        {"leq": [5]},
        {"elements": ["0", "1"], "leq": [["0", "1"]], "perp": "0 1"},
    ],
)
def test_json_lattice_field_types(bad_doc, schema, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad_doc))
    code, doc = run_json(["check", str(path)], schema)
    assert code == 2 and doc["verdict"] == "input-error"


@pytest.mark.parametrize(
    "flag,value",
    [("--lin-cap", "0"), ("--monoid-cap", "0"), ("--samples", "-5"),
     ("--exhaustive-threshold", "-1"), ("--exhaustive-threshold", "13")],
)
@pytest.mark.parametrize("before", [True, False], ids=["before", "after"])
def test_out_of_range_flags_are_usage_errors(flag, value, before, lattice_file, capsys):
    lat = lattice_file("chain2")
    argv = [flag, value, "toda", lat] if before else ["toda", lat, flag, value]
    with pytest.raises(SystemExit) as exc:
        main(["--json"] + argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # only the exhaustive threshold has a cap: 13 would mean 2**13 subsets
    bound = "at most 12" if int(value) > 0 else "at least"
    assert f"argument {flag}: must be {bound}" in captured.err


def test_sasaki_command(lattice_file, capsys):
    mo2 = lattice_file("mo", 2)
    assert main(["sasaki", mo2, "a", "b"]) == 0
    out = capsys.readouterr().out
    assert "pi=a hook=a'" in out
    assert main(["sasaki", mo2, "zz", "b"]) == 2


def test_sasaki_json(lattice_file, schema):
    b2 = lattice_file("boolean", 2)
    code, doc = run_json(["sasaki", b2, "p", "q"], schema)
    assert code == 0
    assert doc["data"]["pi"] == "0" and doc["data"]["hook"] == "q"


def test_sasaki_unknown_label_is_unquoted(lattice_file, schema):
    code, doc = run_json(["sasaki", lattice_file("chain2"), "0", "2"], schema)
    assert code == 2 and doc["verdict"] == "input-error"
    assert doc["data"]["error"] == "unknown element label '2'"


def test_linmaps_command(lattice_file, schema):
    code, doc = run_json(["linmaps", lattice_file("boolean", 2)], schema)
    assert code == 0
    assert doc["data"]["carrier_size"] == 16


def test_linmaps_cap_exit(lattice_file, schema):
    code, doc = run_json(["linmaps", lattice_file("mo", 2), "--lin-cap", "10"], schema)
    assert code == 3 and doc["verdict"] == "cap-exceeded"


def test_tmonoid_command(lattice_file, schema, tmp_path):
    csv_path = str(tmp_path / "cayley.csv")
    code, doc = run_json(
        ["tmonoid", lattice_file("mo", 2), "--cayley-csv", csv_path], schema
    )
    assert code == 0
    assert doc["data"]["size"] == 18
    with open(csv_path) as fh:
        assert fh.readline().strip() == "row,col,product"

    code, doc = run_json(["tmonoid", lattice_file("mo", 2), "--monoid-cap", "5"], schema)
    assert code == 3


def test_toda_command(lattice_file, schema):
    code, doc = run_json(["toda", lattice_file("chain2")], schema)
    assert code == 0
    code, doc = run_json(["toda", lattice_file("o6")], schema)
    assert code == 1


def test_equiv_command(lattice_file, schema, tmp_path):
    mo2 = lattice_file("mo", 2)
    swap = tmp_path / "swap.iso"
    swap.write_text(
        "iso 0 0\niso a b\niso b a\niso a' b'\niso b' a'\niso 1 1\n"
    )
    code, doc = run_json(["equiv", mo2, str(swap)], schema)
    assert code == 0
    names = [c["name"] for c in doc["checks"]]
    assert "mu_naturality[swap]" in names
    assert "lambda_naturality[swap]" in names
    assert "three_way_isomorphism" in names

    # morphism touching an element that does not exist: input error
    broken = tmp_path / "broken.iso"
    broken.write_text("iso 0 0\niso a zz\n")
    code, doc = run_json(["equiv", mo2, str(broken)], schema)
    assert code == 2

    # not perp-preserving: rejected as input
    notiso = tmp_path / "notiso.iso"
    notiso.write_text("iso 0 0\niso a b\niso b a\niso a' a'\niso b' b'\niso 1 1\n")
    code, doc = run_json(["equiv", mo2, str(notiso)], schema)
    assert code == 2


def test_morphism_file_shares_the_lattice_tokenizer(lattice_file, schema, tmp_path):
    mo2 = lattice_file("mo", 2)
    spaced = tmp_path / "spaced.iso"
    spaced.write_text("# swap a and b\n\niso 0 0\n  iso\ta b # tab\niso b a\n"
                      "iso a' b'\niso b' a'\niso 1 1\n")
    code, doc = run_json(["equiv", mo2, str(spaced)], schema)
    assert code == 0 and doc["data"]["morphisms"] == ["spaced"]

    malformed = tmp_path / "malformed.iso"
    malformed.write_text("iso 0 0\niso   a\tb  b # three labels\n")
    code, doc = run_json(["equiv", mo2, str(malformed)], schema)
    assert code == 2
    assert doc["data"]["error"] == "line 2: expected 'iso <src> <dst>', got 'iso a b b'"


def test_morphism_unknown_label_is_unquoted(lattice_file, schema, tmp_path, capsys):
    unknown = tmp_path / "unknown.iso"
    unknown.write_text("iso 0 z\n")
    code, doc = run_json(["equiv", lattice_file("mo", 2), str(unknown)], schema)
    assert code == 2 and doc["verdict"] == "input-error"
    assert doc["data"]["error"] == "line 1: unknown element label 'z'"
    assert main(["equiv", lattice_file("mo", 2), str(unknown)]) == 2
    assert capsys.readouterr().out.splitlines()[0] == "error: line 1: unknown element label 'z'"


@pytest.mark.parametrize(
    "name,text,error",
    [
        ("dup.lat", "elements 0 a a 1\n", "line 1: duplicate element 'a'"),
        ("perp.lat", "elements 0 1\nleq 0 1\nperp 0\n", "line 3: perp takes exactly two labels"),
        ("empty.lat", "# nothing declared\n", "no elements declared"),
        ("bad.json", '{"elements": ["0", "1"]', "invalid JSON: "),
    ],
)
def test_lattice_file_errors_are_input_errors(name, text, error, schema, tmp_path):
    path = tmp_path / name
    path.write_text(text)
    code, doc = run_json(["check", str(path)], schema)
    assert code == 2 and doc["verdict"] == "input-error" and doc["checks"] == []
    assert doc["data"]["error"].startswith(error)


@pytest.mark.parametrize(
    "text,error",
    [
        ("iso 0 0\niso 0 1\n", "line 2: duplicate mapping for '0'"),
        ("iso 0 0\niso 1 1\n", "morphism does not cover elements: ['a', \"a'\", 'b', \"b'\"]"),
        ("iso 0 0\niso a 0\niso a' a'\niso b b\niso b' b'\niso 1 1\n",
         "morphism is not a bijection"),
    ],
)
def test_morphism_file_errors_are_input_errors(text, error, lattice_file, schema, tmp_path):
    path = tmp_path / "bad.iso"
    path.write_text(text)
    code, doc = run_json(["equiv", lattice_file("mo", 2), str(path)], schema)
    assert code == 2 and doc["verdict"] == "input-error"
    assert doc["data"]["error"] == error


def test_suite_failure_is_a_failing_verdict(lattice_file, schema, monkeypatch):
    # a morphism whose verification fails raises SuiteFailure out of gamma_morphism; main
    # reports the carried report as a fail, not as an input error
    from omloq import equivalence
    from omloq.report import ValidationReport

    def failing(phi, policy):
        rep = ValidationReport(title=f"dyn morphism {phi.name}")
        rep.add("forced", False, "by the test")
        return rep

    monkeypatch.setattr(equivalence, "verify_dyn_morphism", failing)
    code, doc = run_json(["equiv", lattice_file("boolean", 2)], schema)
    assert code == 1 and doc["verdict"] == "fail"
    assert doc["data"]["error"].endswith("is not a morphism")
    assert [(c["name"], c["status"]) for c in doc["checks"]] == [("forced", "fail")]


def test_witness_command(schema, capsys):
    assert main(["witness"]) == 0
    capsys.readouterr()
    code, doc = run_json(["witness"], schema)
    assert code == 0
    assert doc["data"]["pi_u_x"] == [[1, 0, 0]]
    assert doc["data"]["pi_v_x"] == [[1, 1, 0]]
    assert doc["data"]["monotone_violation"] is True

    code, doc = run_json(["witness", "--x", "1,0,0"], schema)
    assert code == 1 and doc["data"]["monotone_violation"] is False

    code, doc = run_json(["witness", "--x", "0,1"], schema)
    assert code == 2


def test_env_seed_override(lattice_file, schema, monkeypatch):
    monkeypatch.setenv("OMLOQ_SEED", "12345")
    code, doc = run_json(["toda", lattice_file("chain2"), "--seed", "777"], schema)
    assert code == 0 and doc["seed"] == 12345
    monkeypatch.setenv("OMLOQ_SEED", "not-a-number")
    assert main(["toda", lattice_file("chain2")]) == 2


def test_cli_loads_no_dynamic_algebra_layer():
    import omloq

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(omloq.__file__)), os.environ.get("PYTHONPATH", "")]))
    code = "import json, sys, omloq.cli; print(json.dumps(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    loaded = set(json.loads(out.stdout))
    assert {"omloq.cli", "omloq.linmap", "omloq.testmonoid"} <= loaded
    assert not loaded & {"omloq.dynalg", "omloq.equivalence", "omloq.hilbert3"}


def test_samples_default_is_the_policy_default():
    from omloq.cli import build_parser
    from omloq.dynalg import SamplePolicy

    assert build_parser().parse_args(["toda", "f"]).samples == SamplePolicy().n_random


def test_package_exports_resolve_on_first_access():
    import omloq
    import omloq.dynalg
    import omloq.equivalence
    import omloq.errors
    import omloq.testmonoid

    assert len(set(omloq.__all__)) == len(omloq.__all__)
    for name in omloq.__all__:
        getattr(omloq, name)
    namespace = {}
    exec("from omloq import *", namespace)
    assert set(omloq.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="no_such_export"):
        getattr(omloq, "no_such_export")
    # the moved names are still importable from their old homes
    assert omloq.equivalence.SuiteFailure is omloq.errors.SuiteFailure is omloq.SuiteFailure
    assert omloq.dynalg.DEFAULT_SEED == omloq.testmonoid.DEFAULT_SEED == 3405691582


def test_package_dir_lists_every_export():
    import omloq

    assert {*omloq.__all__, "__getattr__", "__dir__"} <= set(dir(omloq))


def test_json_reports_are_byte_identical(tmp_path):
    lat = tmp_path / "mo2.lat"
    lat.write_text(format_lattice(catalog("mo", 2)))
    cmd = [sys.executable, "-m", "omloq", "--json", "toda", str(lat)]
    env = {k: v for k, v in os.environ.items() if k != "OMLOQ_SEED"}
    first = subprocess.run(cmd, capture_output=True, text=True, env=env)
    second = subprocess.run(cmd, capture_output=True, text=True, env=env)
    assert first.returncode == 0
    assert first.stdout == second.stdout
