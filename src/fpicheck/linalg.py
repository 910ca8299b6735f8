"""Exact linear algebra over F_p on lists of Python ints.

A vector is a list of ints and a matrix is a list of rows; entries are kept
reduced to [0, p). Python ints never wrap, so every routine is exact over
the whole prime range that `gfpoly.require_prime` accepts.
"""

from __future__ import annotations

from bisect import bisect_left


def rref(a, p: int):
    """Reduced row echelon form of the rows of `a`. Returns (rows, pivots):
    the nonzero rows of the form, top to bottom, and the column of each
    row's leading 1."""
    m = [[x % p for x in row] for row in a]
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == len(m):
            break
        for i in range(r, len(m)):
            if m[i][c]:
                break
        else:
            continue
        row = m[i]
        m[i] = m[r]
        if row[c] != 1:
            inv = pow(row[c], -1, p)
            row = [x * inv % p for x in row]
        m[r] = row
        # the pivot row is zero left of c, so no entry there changes
        tail = row[c:]
        for i, other in enumerate(m):
            f = other[c]
            if f and i != r:
                other[c:] = [(x - f * y) % p for x, y in zip(other[c:], tail)]
        pivots.append(c)
        r += 1
    return m[:r], pivots


def rank(a, p: int) -> int:
    if not a or not a[0]:
        return 0
    return len(rref(a, p)[1])


def nullspace(a, cols: int, p: int) -> list:
    """A basis, as rows, of {x : a x = 0 mod p} for the rows `a` of a
    matrix with `cols` columns; with no rows that is all of F_p^cols."""
    rows, pivots = rref(a, p)
    bound = set(pivots)
    free = [c for c in range(cols) if c not in bound]
    basis = []
    for fc in free:
        v = [0] * cols
        v[fc] = 1
        for row, pc in zip(rows, pivots):
            v[pc] = -row[fc] % p
        basis.append(v)
    return basis


def is_invertible(a, p: int) -> bool:
    return all(len(row) == len(a) for row in a) and rank(a, p) == len(a)


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
        self.basis: list = []
        self._pivots: list = []

    @property
    def dim(self) -> int:
        return len(self.basis)

    def _reduce(self, v) -> list:
        p = self.p
        v = [x % p for x in v]
        for row, pc in zip(self.basis, self._pivots):
            f = v[pc]
            if f:
                v = [(x - f * y) % p for x, y in zip(v, row)]
        return v

    def contains(self, v) -> bool:
        return not any(self._reduce(v))

    def add(self, v) -> bool:
        """Insert a vector; returns True when the dimension grew."""
        p = self.p
        v = self._reduce(v)
        pc = next((c for c, x in enumerate(v) if x), None)
        if pc is None:
            return False
        if v[pc] != 1:
            inv = pow(v[pc], -1, p)
            v = [x * inv % p for x in v]
        for k, row in enumerate(self.basis):
            f = row[pc]
            if f:
                self.basis[k] = [(x - f * y) % p for x, y in zip(row, v)]
        at = bisect_left(self._pivots, pc)
        self.basis.insert(at, v)
        self._pivots.insert(at, pc)
        return True

    def add_rows(self, rows) -> None:
        """Insert every row of `rows`, with one `rref` for the batch."""
        if len(rows) == 0:
            return
        self.basis, self._pivots = rref(self.basis + list(rows), self.p)
