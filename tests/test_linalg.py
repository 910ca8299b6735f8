"""Exact linear algebra over F_p on Python-int rows, against the dense int64
reference in `oracles` (`dense_rref`, `dense_nullspace`): reduced rows and
pivots, rank, invertibility, nullspaces and growing subspaces, over small
primes, the largest prime whose square fits an int64 dot product of two
terms, and the largest prime `PrimeField` accepts, on empty, zero, wide
and tall matrices."""

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from oracles import dense_nullspace, dense_rref

from fpicheck.linalg import Subspace, is_invertible, nullspace, rank, rref

PRIMES = [2, 3, 5, 7, 46349, 2147483647]


def _entries(p):
    return st.one_of(st.integers(0, 2), st.integers(p - 2, p - 1), st.integers(0, p - 1))


@st.composite
def rows_over_fp(draw):
    """A prime, an ambient dimension, rows added one at a time, and a batch
    that mixes random rows with zero rows and rows already in the span."""
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(1, 6))
    entry = _entries(p)

    def row():
        return [x % p for x in draw(st.lists(entry, min_size=n, max_size=n))]

    first = [row() for _ in range(draw(st.integers(0, 4)))]
    batch = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["random", "zero", "in span"]))
        pool = first + batch
        if kind == "zero" or (kind == "in span" and not pool):
            batch.append([0] * n)
        elif kind == "in span":
            coeffs = draw(st.lists(entry, min_size=len(pool), max_size=len(pool)))
            batch.append([sum(c * r[j] for c, r in zip(coeffs, pool)) % p for j in range(n)])
        else:
            batch.append(row())
    return p, n, first, batch


@st.composite
def matrix_over_fp(draw):
    """A prime and a rows × cols matrix, each dimension 0 to 6 (so empty,
    wide and tall shapes occur), whose rows are random, zero, or
    combinations of the earlier rows."""
    p = draw(st.sampled_from(PRIMES))
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    entry = _entries(p)
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(["random", "random", "zero", "in span"]))
        if kind == "zero" or (kind == "in span" and not rows):
            rows.append([0] * ncols)
        elif kind == "in span":
            coeffs = draw(st.lists(entry, min_size=len(rows), max_size=len(rows)))
            rows.append([sum(c * r[j] for c, r in zip(coeffs, rows)) % p for j in range(ncols)])
        else:
            rows.append([x % p for x in draw(st.lists(entry, min_size=ncols, max_size=ncols))])
    return p, ncols, rows


def _dense(rows, ncols):
    return np.array(rows, dtype=np.int64).reshape(len(rows), ncols)


MATRIX_EXAMPLES = [
    (5, 3, []),
    (2, 1, []),
    (2147483647, 6, []),
    (3, 0, []),
    (3, 0, [[], []]),
    (7, 4, [[0] * 4] * 3),
    (2147483647, 2, [[2147483646, 2], [1, 2147483645], [3, 5], [0, 0]]),
    (46349, 5, [[46348, 1, 0, 46347, 2], [2, 46347, 0, 3, 46345]]),
]


def _with_examples(test):
    for case in MATRIX_EXAMPLES:
        test = example(case)(test)
    return test


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(matrix_over_fp())
@_with_examples
def test_rref_matches_the_dense_reference(case):
    p, ncols, a = case
    rows, pivots = rref(a, p)
    ref, ref_pivots = dense_rref(_dense(a, ncols), p)
    assert pivots == ref_pivots
    assert rows == ref[: len(pivots)].tolist()
    assert rank(a, p) == len(ref_pivots)
    # with no rows there is no column count: [] is the 0 × 0 matrix
    assert is_invertible(a, p) == (len(a) == (ncols if a else 0) == len(ref_pivots))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(matrix_over_fp())
@_with_examples
def test_nullspace_matches_the_dense_reference(case):
    # with no rows the kernel is all of F_p^ncols: the shape says how wide
    p, ncols, a = case
    assert nullspace(a, ncols, p) == dense_nullspace(_dense(a, ncols), p).tolist()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rows_over_fp())
def test_add_rows_matches_adding_row_by_row(case):
    p, n, first, batch = case
    batched, looped = Subspace(n, p), Subspace(n, p)
    for r in first:
        batched.add(r)
        looped.add(r)
    batched.add_rows(batch)
    for r in batch:
        looped.add(r)
    assert batched.basis == looped.basis
    assert batched._pivots == looped._pivots
    assert batched.dim == looped.dim


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rows_over_fp())
def test_subspace_basis_is_the_rref_of_its_rows(case):
    p, n, first, batch = case
    sub = Subspace(n, p)
    for r in first:
        sub.add(r)
    sub.add_rows(batch)
    m, pivots = dense_rref(_dense(first + batch, n), p)
    assert sub._pivots == pivots
    assert sub.basis == m[: len(pivots)].tolist()
    for r in first + batch:
        assert sub.contains(r)
        assert not sub.add(r)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(matrix_over_fp())
def test_nullspace_has_the_right_size_and_is_killed(case):
    p, cols, a = case
    basis = nullspace(a, cols, p)
    assert len(basis) == cols - rank(a, p)
    for v in basis:
        assert all(sum(x * y for x, y in zip(row, v)) % p == 0 for row in a)
    assert rank(basis, p) == len(basis)
