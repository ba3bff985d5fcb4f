from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    dense_reduce_vector,
    dense_rref,
    express_in_basis,
    in_row_space,
    rank,
    to_dense,
    to_sparse,
)
from macaulay import RingError
from macaulay.linalg import (
    PRIME_LIMIT,
    RATIONALS,
    FieldSpec,
    add_multiple,
    is_prime,
    reduce_vector,
    rref,
    rref_with_transform,
)


def F(x):
    return Fraction(x)


def test_rref_canonical_over_qq():
    rows = [{0: F(2), 1: F(4)}, {0: F(1), 1: F(2), 2: F(1)}]
    red, pivots = rref(rows, 3, RATIONALS)
    assert pivots == [0, 2]
    assert red == [{0: F(1), 1: F(2)}, {2: F(1)}]
    assert rows == [{0: F(2), 1: F(4)}, {0: F(1), 1: F(2), 2: F(1)}]  # not mutated


def test_rref_drops_zero_rows():
    rows = [{0: F(1), 1: F(1)}, {0: F(2), 1: F(2)}, {}]
    red, pivots = rref(rows, 2, RATIONALS)
    assert len(red) == 1 and pivots == [0]


def test_rank_over_gf():
    gf = FieldSpec(5)
    # (2,4,1) == 2*(1,2,3) mod 5 but not over the rationals
    rows = [[1, 2, 3], [2, 4, 1], [0, 0, 0]]
    assert rank([to_sparse(r) for r in rows], 3, gf) == 1
    assert rank([to_sparse(map(F, r)) for r in rows], 3, RATIONALS) == 2


def test_gf_rejects_composite():
    with pytest.raises(RingError):
        FieldSpec(9)


def test_gf_of_fraction():
    gf = FieldSpec(7)
    assert gf.of(Fraction(1, 2)) == 4  # 2*4 = 8 = 1 mod 7
    with pytest.raises(RingError):
        gf.of(Fraction(1, 7))


def test_reduce_vector_membership():
    rows = [{0: F(1), 2: F(2)}, {1: F(1), 2: F(3)}]
    red, piv = rref(rows, 3, RATIONALS)
    assert in_row_space(red, piv, {0: F(2), 1: F(1), 2: F(7)}, RATIONALS)
    assert not in_row_space(red, piv, {2: F(1)}, RATIONALS)
    coeffs, residual = reduce_vector(red, piv, {0: F(1), 2: F(5)}, RATIONALS)
    assert coeffs == [F(1), 0] and residual == {2: F(3)}


def test_express_in_basis_roundtrip():
    basis = [{0: F(1), 1: F(1)}, {1: F(1), 2: F(1)}]
    red, piv, tr = rref_with_transform(basis, 3, RATIONALS)
    v = {0: F(2), 1: F(5), 2: F(3)}  # 2*b0 + 3*b1
    coeffs = express_in_basis(red, piv, tr, v, RATIONALS)
    assert coeffs == {0: F(2), 1: F(3)}
    assert express_in_basis(red, piv, tr, {0: F(1), 2: F(1)}, RATIONALS) is None


def test_same_answers_both_fields():
    rows = [[1, 2, 3], [4, 5, 6], [7, 8, 10]]
    rq = rank([to_sparse(map(F, r)) for r in rows], 3, RATIONALS)
    rp = rank([to_sparse(x % 32003 for x in r) for r in rows], 3, FieldSpec(32003))
    assert rq == rp == 3


# ---------------------------------------------------------------------------
# Differential tests against the dense oracle


FIELDS = [RATIONALS, FieldSpec(32003), FieldSpec(3)]


@st.composite
def sparse_matrices(draw):
    """(field, ncols, rows): rows with few nonzeros, plus some dependent ones."""
    field = draw(st.sampled_from(FIELDS))
    ncols = draw(st.integers(0, 9))
    scalar = st.integers(-4, 4).map(field.of)
    entry_row = st.dictionaries(st.integers(0, max(ncols - 1, 0)), scalar, max_size=min(ncols, 4))
    rows = [
        {c: v for c, v in r.items() if v}
        for r in draw(st.lists(entry_row, max_size=8))
    ]
    # a few combinations of earlier rows, so that some rows reduce to zero
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        combo = {}
        for r in draw(st.lists(st.sampled_from(rows), min_size=1, max_size=3)):
            add_multiple(combo, draw(scalar), r, field)
        rows.append(combo)
    return field, ncols, rows


def _dense(rows, ncols, field):
    return [to_dense(r, ncols, field.p) for r in rows]


def _combine(coeffs, rows, field):
    out = {}
    for i, f in coeffs.items():
        add_multiple(out, f, rows[i], field)
    return out


@settings(max_examples=300, deadline=None)
@given(sparse_matrices())
def test_sparse_rref_matches_dense_oracle(case):
    field, ncols, rows = case
    before = [dict(r) for r in rows]
    red, pivots = rref(rows, ncols, field)
    want_rows, want_pivots = dense_rref(_dense(rows, ncols, field), ncols, field.p)
    assert rows == before
    assert pivots == want_pivots
    assert _dense(red, ncols, field) == want_rows
    assert all(0 not in r.values() for r in red)


@settings(max_examples=300, deadline=None)
@given(sparse_matrices(), st.data())
def test_transform_and_basis_expression_match_dense_oracle(case, data):
    field, ncols, rows = case
    red, pivots, transform = rref_with_transform(rows, ncols, field)
    assert (red, pivots) == rref(rows, ncols, field)
    for r, t in zip(red, transform):
        assert _combine(t, rows, field) == r
    want_rows, want_pivots = dense_rref(_dense(rows, ncols, field), ncols, field.p)
    scalar = st.integers(-4, 4).map(field.of)
    inside = _combine(
        {i: data.draw(scalar) for i in range(len(rows))}, rows, field
    )
    outside = data.draw(st.dictionaries(st.integers(0, max(ncols - 1, 0)), scalar, max_size=ncols))
    outside = {c: v for c, v in outside.items() if v}
    for vec in (inside, outside):
        residual = dense_reduce_vector(want_rows, want_pivots, to_dense(vec, ncols, field.p), field.p)
        _, sparse_residual = reduce_vector(red, pivots, vec, field)
        assert _dense([sparse_residual], ncols, field) == [residual]
        coeffs = express_in_basis(red, pivots, transform, vec, field)
        if any(x != 0 for x in residual):
            assert coeffs is None and not in_row_space(red, pivots, vec, field)
        else:
            assert coeffs is not None and _combine(coeffs, rows, field) == vec


def test_is_prime_agrees_with_trial_division():
    trial = (n >= 2 and all(n % q for q in range(2, isqrt(n) + 1)) for n in range(10**5))
    assert [n for n, prime in enumerate(trial) if is_prime(n) != prime] == []


def test_is_prime_on_strong_pseudoprimes_and_large_primes():
    # 2047 fools base 2, 3215031751 bases 2..7, 3825123056546413051 bases 2..23,
    # 318665857834031151167461 bases 2..37
    for n in (2047, 3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n)
    for n in (2**61 - 1, 10**12 + 39, 2**31 - 1, 32003, 2**64 - 59):
        assert is_prime(n)
    assert not is_prime((2**32 - 5) * (2**31 - 1))
    with pytest.raises(ValueError, match="below"):
        is_prime(PRIME_LIMIT)
