from omloq.report import FAIL, PASS, ValidationReport


def test_first_passes_on_no_witnesses():
    r = ValidationReport()
    check = r.first("empty", iter(()))
    assert (check.status, check.witness) == (PASS, "")
    assert r.checks == [check] and r.ok


def test_first_stops_at_the_first_witness():
    def witnesses():
        yield "x=1"
        raise AssertionError("read past the first witness")

    r = ValidationReport()
    check = r.first("search", witnesses())
    assert (check.status, check.witness) == (FAIL, "x=1")
    assert r.summary() == "search:x=1"


def test_first_passes_detail_through():
    r = ValidationReport()
    assert r.first("ok", [], detail="3 cases").detail == "3 cases"
    assert r.first("bad", ["w"], detail="3 cases").to_dict() == {
        "name": "bad", "status": FAIL, "witness": "w", "detail": "3 cases"}
