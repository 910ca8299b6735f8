"""Exact linear algebra over F_p on numpy integer matrices.

Entries are kept reduced to [0, p). Row operations do one product plus one
addition per entry, so int64 never overflows for p < 2^31. Matrix products
use Python-object arithmetic when p is large enough that accumulated dot
products could overflow.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

_INT64_MATMUL_MAX_P = 46337  # p^2 * dim stays below 2^63 for practical dims


def matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    if p <= _INT64_MATMUL_MAX_P:
        return (a @ b) % p
    return np.mod(a.astype(object) @ b.astype(object), p).astype(np.int64)


def rref(a: np.ndarray, p: int):
    """Reduced row echelon form. Returns (matrix, pivot column list)."""
    m = np.mod(a.astype(np.int64, copy=True), p)
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + nz[0]
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
        inv = pow(int(m[r, c]), p - 2, p)
        m[r] = m[r] * inv % p
        col = m[:, c].copy()
        col[r] = 0
        nzr = np.nonzero(col)[0]
        if nzr.size:
            m[nzr] = (m[nzr] - np.outer(col[nzr], m[r])) % p
        pivots.append(c)
        r += 1
    return m, pivots


def rank(a: np.ndarray, p: int) -> int:
    if a.size == 0:
        return 0
    return len(rref(a, p)[1])


def nullspace(a: np.ndarray, p: int) -> np.ndarray:
    """Rows of the result are a basis of {x : a @ x = 0 mod p}."""
    rows, cols = a.shape
    if cols == 0:
        return np.zeros((0, 0), dtype=np.int64)
    r, pivots = rref(a, p)
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[k, fc] = 1
        for i, pc in enumerate(pivots):
            basis[k, pc] = (-r[i, fc]) % p
    return basis


def is_invertible(a: np.ndarray, p: int) -> bool:
    return a.shape[0] == a.shape[1] and rank(a, p) == a.shape[0]


class Subspace:
    """A growing subspace of F_p^n kept in reduced row echelon form.

    The reduced row echelon form of a span is unique. Its pivots are the
    columns where some vector of the span has its first nonzero entry. Its
    row at pivot c is the vector of the span that starts with a 1 at c and
    is 0 at the other pivots; two such vectors would differ by a nonzero
    vector of the span starting at a column that is no pivot. So `basis` and
    the pivots depend only on the span, and one `rref` of the basis stacked
    on a batch of new rows gives what adding the rows one at a time gives.
    """

    def __init__(self, ambient: int, p: int):
        self.ambient = ambient
        self.p = p
        self.basis = np.zeros((0, ambient), dtype=np.int64)
        self._pivots: list = []

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def _reduce(self, v: np.ndarray) -> np.ndarray:
        v = v % self.p
        for row, pc in zip(self.basis, self._pivots):
            if v[pc]:
                v = (v - v[pc] * row) % self.p
        return v

    def contains(self, v: np.ndarray) -> bool:
        return not self._reduce(np.asarray(v, dtype=np.int64)).any()

    def add(self, v: np.ndarray) -> bool:
        """Insert a vector; returns True when the dimension grew."""
        v = self._reduce(np.asarray(v, dtype=np.int64))
        nz = np.nonzero(v)[0]
        if nz.size == 0:
            return False
        pc = int(nz[0])
        v = v * pow(int(v[pc]), self.p - 2, self.p) % self.p
        nzb = np.nonzero(self.basis[:, pc])[0]
        if nzb.size:
            self.basis[nzb] = (self.basis[nzb] - np.outer(self.basis[nzb, pc], v)) % self.p
        at = bisect_left(self._pivots, pc)
        self.basis = np.concatenate((self.basis[:at], v[None], self.basis[at:]))
        self._pivots.insert(at, pc)
        return True

    def add_rows(self, rows: np.ndarray) -> None:
        """Insert every row of a 2-D array, with one `rref` for the batch."""
        if len(rows) == 0:
            return
        m, self._pivots = rref(np.vstack((self.basis, rows)), self.p)
        self.basis = m[: len(self._pivots)]
