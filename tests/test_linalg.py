"""Exact linear algebra over F_p: batched Subspace rows against the
row-by-row path and against `rref`, and the shape and defining property of
`nullspace`, at small primes and at the largest prime `PrimeField` accepts."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fpicheck.linalg import Subspace, matmul, nullspace, rank, rref

PRIMES = [2, 3, 5, 2147483647]


@st.composite
def rows_over_fp(draw):
    """A prime, an ambient dimension, rows added one at a time, and a batch
    that mixes random rows with zero rows and rows already in the span."""
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(1, 6))
    entry = st.one_of(st.integers(0, 2), st.integers(p - 2, p - 1), st.integers(0, p - 1))

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


def _as_matrix(rows, n):
    return np.array(rows, dtype=np.int64).reshape(-1, n)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rows_over_fp())
def test_add_rows_matches_adding_row_by_row(case):
    p, n, first, batch = case
    batched, looped = Subspace(n, p), Subspace(n, p)
    for r in first:
        batched.add(r)
        looped.add(r)
    batched.add_rows(_as_matrix(batch, n))
    for r in batch:
        looped.add(r)
    assert batched.basis.tolist() == looped.basis.tolist()
    assert batched._pivots == looped._pivots
    assert batched.dim == looped.dim


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rows_over_fp())
def test_subspace_basis_is_the_rref_of_its_rows(case):
    p, n, first, batch = case
    sub = Subspace(n, p)
    for r in first:
        sub.add(r)
    sub.add_rows(_as_matrix(batch, n))
    m, pivots = rref(_as_matrix(first + batch, n), p)
    assert sub._pivots == pivots
    assert sub.basis.tolist() == m[: len(pivots)].tolist()
    for r in first + batch:
        assert sub.contains(r)
        assert not sub.add(r)


@st.composite
def matrix_over_fp(draw):
    p = draw(st.sampled_from(PRIMES))
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    entry = st.one_of(st.integers(0, 1), st.just(p - 1), st.integers(0, p - 1))
    flat = draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols))
    return p, np.array(flat, dtype=np.int64).reshape(rows, cols) % p


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(matrix_over_fp())
def test_nullspace_has_the_right_size_and_is_killed(case):
    p, a = case
    basis = nullspace(a, p)
    cols = a.shape[1]
    assert basis.shape == (cols - rank(a, p), cols)
    assert not matmul(a, basis.T, p).any()
    assert rank(basis, p) == basis.shape[0]
