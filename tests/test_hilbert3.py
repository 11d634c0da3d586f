import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from omloq.hilbert3 import (
    E1,
    E2,
    E3,
    FULL,
    ZERO,
    RatSubspace,
    join,
    meet,
    orth,
    parse_vector,
    sasaki3,
    span,
    witness_report,
)


def stress_subspaces(seed: int = 3405691582, count: int = 50) -> list[RatSubspace]:
    """Reproducible random integer-spanned subspaces for property tests."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        nvec = rng.randrange(0, 4)
        vectors = [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(nvec)]
        out.append(span(*vectors))
    return out


def test_span_examples():
    assert span(E1).dim == 1
    x = span((1, 1, 1))
    assert x.dim == 1 and x.basis == ((1, 1, 1),)
    assert span(E1, E1).dim == 1
    assert span((0, 0, 0)).dim == 0
    assert span().dim == 0
    with pytest.raises(ValueError):
        span((1, 2))


def test_canonical_form_is_presentation_independent():
    a = span((2, 4, 6), (0, 0, 5))
    b = span((1, 2, 3), (1, 2, 8), (-1, -2, 2))
    assert a == b
    assert all(isinstance(c, int) for row in a.basis for c in row)
    # leading entries positive, rows primitive
    for row in a.basis:
        lead = next(v for v in row if v != 0)
        assert lead > 0


def test_orth_examples():
    assert orth(span(E1)) == span(E2, E3)
    assert orth(span(E1, E2)) == span(E3)
    assert orth(ZERO) == FULL
    assert orth(FULL) == ZERO
    a = span((1, 1, 1))
    assert meet(a, orth(a)) == ZERO
    assert join(a, orth(a)) == FULL


def test_meet_join_examples():
    assert join(span((1, 1, 0)), span(E3)) == span((1, 1, 0), E3)
    assert meet(span(E1, E2), span(E2, E3)) == span(E2)
    assert meet(span(E1), span(E2)) == ZERO
    # inner-product orthogonality of complements, exactly
    a = span((1, -2, 3))
    for u in a.basis:
        for w in orth(a).basis:
            assert sum(Fraction(ui) * wi for ui, wi in zip(u, w)) == 0


def test_sasaki3_examples():
    u = span(E1)
    x = span((1, 1, 1))
    assert sasaki3(u, x) == u
    v = span(E1, E2)
    assert sasaki3(v, x) == span((1, 1, 0))
    assert sasaki3(u, ZERO) == ZERO


def test_witness_report_default():
    rep = witness_report()
    assert rep.ok
    assert rep.u_below_v
    assert rep.pi_u_x == span(E1)
    assert rep.pi_v_x == span((1, 1, 0))
    assert rep.monotone_violation
    assert all(value for _, value in rep.facts())
    d = rep.to_dict()
    assert d["monotone_violation"] is True
    assert d["pi_u_x"] == [[1, 0, 0]]


def test_witness_report_perturbed():
    monotone = witness_report(x=span(E1))
    assert not monotone.monotone_violation
    assert not monotone.ok
    other = witness_report(x=span((0, 1, 1)))
    assert other.pi_u_x == ZERO
    assert other.pi_v_x == span(E2)
    assert not other.monotone_violation


def test_witness_reference_values_only_on_default_inputs():
    assert len(witness_report().facts()) == 4
    rep = witness_report(x=span((1, 2, 1)))
    assert rep.pi_v_x == span((1, 2, 0))
    assert [name for name, _ in rep.facts()] == [
        "u is contained in v",
        "the first is not contained in the second",
    ]
    assert rep.ok


def test_parse_vector():
    assert parse_vector("1,0,0") == (1, 0, 0)
    assert parse_vector(" 1 , -2 , 3 ") == (1, -2, 3)
    with pytest.raises(ValueError):
        parse_vector("1,2")


def test_stress_set_properties():
    subs = stress_subspaces()
    assert len(subs) == 50
    assert subs == stress_subspaces()  # reproducible
    for s in subs:
        assert orth(orth(s)) == s
        assert s.dim + orth(s).dim == 3
        assert meet(s, orth(s)) == ZERO
        assert join(s, orth(s)) == FULL
    for a in subs:
        for b in subs:
            if b.contains(a):
                assert orth(b) <= orth(a)  # antitone
                assert join(a, meet(orth(a), b)) == b  # orthomodular


vec = st.tuples(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-6, max_value=6),
)


@given(vec, vec, vec)
@settings(max_examples=150, deadline=None)
def test_lattice_laws_on_random_spans(v1, v2, v3):
    a = span(v1, v2)
    b = span(v3)
    assert meet(a, b) == meet(b, a)
    assert join(a, b) == join(b, a)
    assert meet(a, join(a, b)) == a
    assert join(a, meet(a, b)) == a
    assert orth(join(a, b)) == meet(orth(a), orth(b))
    assert sasaki3(a, b).contains(ZERO)
    assert a.contains(sasaki3(a, b))
