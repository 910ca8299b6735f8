"""Hilbert series of graded quotients of F_p[x_1..x_n] and of free modules over them.

Every Hilbert series in the engine is N(t) / (1 - t^q)^n: the denominator is
fixed by the ambient ring (q = 1 for the standard grading, q = p^e for the
q-scaled grading of a Frobenius pushforward), so two series over the same
denominator agree exactly when their numerators do. A `Numerator` is that
integer Laurent polynomial N(t). `monomial_quotient` computes it for S/J with
J a monomial ideal, the lead-term ideal of any graded quotient, and
`Numerator.hilbert_data` cancels the powers of (1 - t) when q = 1.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from math import prod

from .gfpoly import mono_div, mono_divides, mono_is_one, monomials_of_degree


def minimal_monomials(monos) -> tuple:
    """Minimal generators of the monomial ideal spanned by `monos`, sorted by
    degree, then exponent vector."""
    monos = sorted(set(monos), key=lambda m: (sum(m), m))
    out = []
    for m in monos:
        if not any(mono_divides(q, m) for q in out):
            out.append(m)
    return tuple(out)


def standard_monomials(leads, n: int, d: int) -> tuple:
    """Monomials of degree d in n variables that no monomial in `leads` divides."""
    return tuple(
        m for m in monomials_of_degree(n, d)
        if not any(mono_divides(l, m) for l in leads)
    )


class Numerator(Mapping):
    """An integer Laurent polynomial, read as the mapping degree -> coefficient
    of its nonzero terms.

    Immutable: every operation returns a new numerator, so the cached ones of
    `monomial_quotient` are shared safely.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        self._terms = {d: c for d, c in (terms or {}).items() if c}

    @classmethod
    def _of(cls, terms: dict) -> "Numerator":
        """Wrap a dict that has no zero coefficient, without a copy."""
        out = cls.__new__(cls)
        out._terms = terms
        return out

    def __getitem__(self, d: int) -> int:
        return self._terms[d]

    def __iter__(self):
        return iter(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other):
        if isinstance(other, Numerator):
            return self._terms == other._terms
        return NotImplemented

    def __repr__(self) -> str:
        return f"Numerator({dict(sorted(self._terms.items()))})"

    def _plus(self, other: "Numerator", sign: int) -> "Numerator":
        out = dict(self._terms)
        for d, c in other._terms.items():
            v = out.get(d, 0) + sign * c
            if v:
                out[d] = v
            else:
                del out[d]
        return Numerator._of(out)

    def __add__(self, other: "Numerator") -> "Numerator":
        return self._plus(other, 1)

    def __sub__(self, other: "Numerator") -> "Numerator":
        return self._plus(other, -1)

    def __mul__(self, other: "Numerator") -> "Numerator":
        out: dict = {}
        for da, ca in self._terms.items():
            for db, cb in other._terms.items():
                out[da + db] = out.get(da + db, 0) + ca * cb
        return Numerator(out)

    def shift(self, k: int) -> "Numerator":
        """t^k times this numerator: the series of a module twisted by -k."""
        if k == 0:
            return self
        return Numerator._of({d + k: c for d, c in self._terms.items()})

    def subst(self, q: int) -> "Numerator":
        """This numerator at t^q, for q >= 1: a standard grading scaled by q."""
        if q == 1:
            return self
        return Numerator._of({d * q: c for d, c in self._terms.items()})

    def lowest(self) -> int:
        """The least degree of a nonzero term; the numerator must be nonzero."""
        return min(self._terms)

    def hilbert_data(self, n: int) -> "HilbertData":
        """Hilbert data of the series N(t) / (1 - t)^n, N this numerator, which
        must be a polynomial (no negative degree)."""
        if not self._terms:
            return HilbertData(dimension=-1, numerator=(0,), colength=0)
        coeffs = [self._terms.get(d, 0) for d in range(max(self._terms) + 1)]
        dim = n
        while sum(coeffs) == 0:
            # N(1) = 0, so N(t) = (1 - t) Q(t) with Q_i = N_0 + ... + N_i; the
            # top prefix sum is N(1) = 0, and Q has top coefficient -N_top
            coeffs = list(accumulate(coeffs[:-1]))
            dim -= 1
        return HilbertData(
            dimension=dim,
            numerator=tuple(coeffs),
            colength=sum(coeffs) if dim == 0 else None,
        )


ONE = Numerator({0: 1})


@dataclass(frozen=True)
class HilbertData:
    """Dimension, Hilbert series numerator (over (1-t)^dimension), colength.

    `colength` is None when the quotient has infinite length. The numerator
    evaluated at 1 is the multiplicity.
    """

    dimension: int
    numerator: tuple  # coefficient list, numerator[i] is the t^i coefficient
    colength: object  # int | None

    @property
    def multiplicity(self) -> int:
        return sum(self.numerator)


def monomial_quotient(monos, n: int) -> Numerator:
    """N(t) with HS(S/(monos)) = N(t) / (1 - t)^n, S in n variables."""
    return _monomial_quotient(minimal_monomials(monos), n)


@lru_cache(maxsize=100_000)
def _monomial_quotient(gens: tuple, n: int) -> Numerator:
    """`monomial_quotient` of minimal generators, by the pivot recursion: for a
    variable x, 0 -> S/(J : x)(-1) -> S/J -> S/(J + (x)) -> 0 is exact."""
    if any(mono_is_one(m) for m in gens):
        return Numerator()
    supports = [tuple(i for i, e in enumerate(m) if e) for m in gens]
    if all(len(s) == 1 for s in supports) and len({s[0] for s in supports}) == len(supports):
        # powers of distinct variables form a regular sequence
        return prod((Numerator({0: 1, sum(m): -1}) for m in gens), start=ONE)
    counts = [0] * n
    for s in supports:
        if len(s) > 1:
            for i in s:
                counts[i] += 1
    pivot = max(range(n), key=lambda i: counts[i])
    pv = tuple(1 if i == pivot else 0 for i in range(n))
    plus = minimal_monomials(gens + (pv,))
    colon = minimal_monomials(
        tuple(mono_div(m, pv) if m[pivot] else m for m in gens)
    )
    return _monomial_quotient(plus, n) + _monomial_quotient(colon, n).shift(1)


def hilbert_from_lead_monomials(lead_monos, n: int) -> HilbertData:
    """Hilbert data of S/(lead_monos), S in n variables."""
    return monomial_quotient(lead_monos, n).hilbert_data(n)
