"""Exact arithmetic over prime fields: monomials, sparse polynomials.

Monomials are plain exponent tuples of length nvars. Polynomials are sparse
dicts mapping exponent tuple -> coefficient in [1, p); they share the class
`SparseElement` with the module vectors of `modgb`. All coefficient
arithmetic is integer arithmetic mod p; there are no floats anywhere.
The one term order is grevlex (`grevlex_rank`); lead terms, sorted terms and
printing all read it.
"""

from __future__ import annotations

import re
from collections import namedtuple
from functools import lru_cache
from operator import add, le, sub
from typing import Iterable, Iterator

from .errors import NonPrimeError, ParseError

Monomial = tuple  # exponent tuple; length = number of ambient variables


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for n < 3,215,031,751 (covers 2^31)."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7):
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The field F_p for a prime 2 <= p < 2^31."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int) or p < 2 or p >= 2**31 or not is_prime(p):
            raise NonPrimeError(f"characteristic must be a prime in [2, 2^31), got {p!r}")
        self.p = p

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in F_p")
        return pow(a, self.p - 2, self.p)

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"


# ---------------------------------------------------------------------------
# monomial helpers

def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))

def mono_divides(a: Monomial, b: Monomial) -> bool:
    """Does x^a divide x^b?"""
    return all(map(le, a, b))

def mono_div(b: Monomial, a: Monomial) -> Monomial:
    """x^b / x^a, assuming divisibility."""
    return tuple(map(sub, b, a))

def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))

def mono_degree(a: Monomial) -> int:
    return sum(a)

def mono_is_one(a: Monomial) -> bool:
    return not any(a)

def monomials_of_degree(nvars: int, degree: int) -> Iterator[Monomial]:
    """All exponent tuples of the given total degree, lexicographic order."""
    if nvars == 0:
        if degree == 0:
            yield ()
        return
    if nvars == 1:
        yield (degree,)
        return
    for first in range(degree, -1, -1):
        for rest in monomials_of_degree(nvars - 1, degree - first):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# the term order: grevlex

@lru_cache(maxsize=4096)
def grevlex_rank(m: Monomial):
    """Grevlex rank of a monomial: a smaller rank is a larger monomial.
    Higher degree wins, then the smaller exponent of the last variable that
    differs."""
    return (-sum(m),) + m[::-1]


# Only the benchmark tracer (`perfbench/tracer.py`) reads this record: it
# keys `Ideal._gb` by (GREVLEX.kind, GREVLEX.block).
GREVLEX = namedtuple("TermOrder", "kind block")("grevlex", 0)


# ---------------------------------------------------------------------------
# polynomials

class SparseElement:
    """Sparse element over F_p: `terms` maps a key to its coefficient in [1, p).

    The shared base of `Polynomial` (keys are exponent tuples) and
    `modgb.Vec` (keys are (component, exponent tuple) pairs). It owns the
    arithmetic that never reads a key: sums, differences, negation, scaling
    and comparison. Immutable by convention: no method mutates `terms` after
    construction.
    """

    __slots__ = ("p", "nvars", "terms")

    def __init__(self, p: int, nvars: int, terms: dict):
        self.p = p
        self.nvars = nvars
        self.terms = {t: v for t, c in terms.items() if (v := c % p)}

    @classmethod
    def _raw(cls, p: int, nvars: int, terms: dict):
        """Construct without normalization; terms must already be clean."""
        self = object.__new__(cls)
        self.p = p
        self.nvars = nvars
        self.terms = terms
        return self

    @classmethod
    def zero(cls, p: int, nvars: int):
        return cls._raw(p, nvars, {})

    def is_zero(self) -> bool:
        return not self.terms

    def _plus(self, other, sign: int):
        """self + sign * other, one term at a time; a Polynomial and a Vec
        lie in different ambients too."""
        if type(other) is not type(self) or self.p != other.p or self.nvars != other.nvars:
            raise ValueError("elements over different ambients")
        p = self.p
        out = dict(self.terms)
        for t, c in other.terms.items():
            v = (out.get(t, 0) + sign * c) % p
            if v:
                out[t] = v
            else:
                out.pop(t, None)
        return self._raw(p, self.nvars, out)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        p = self.p
        return self._raw(p, self.nvars, {t: p - c for t, c in self.terms.items()})

    def scale(self, c: int):
        """Multiply by the scalar c of F_p."""
        p = self.p
        c %= p
        if c == 0:
            return self.zero(p, self.nvars)
        return self._raw(p, self.nvars, {t: v * c % p for t, v in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.p == other.p
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.p, self.nvars, frozenset(self.terms.items())))


class Polynomial(SparseElement):
    """Sparse multivariate polynomial over F_p, keyed by exponent tuples."""

    __slots__ = ()

    def __init__(self, p: int, nvars: int, terms: dict):
        super().__init__(p, nvars, terms)
        if any(len(m) != nvars for m in self.terms):
            raise ValueError("exponent tuple has wrong length")

    @classmethod
    def constant(cls, p: int, nvars: int, c: int) -> "Polynomial":
        c %= p
        return cls._raw(p, nvars, {(0,) * nvars: c} if c else {})

    @classmethod
    def variable(cls, p: int, nvars: int, i: int, exp: int = 1) -> "Polynomial":
        m = [0] * nvars
        m[i] = exp
        return cls._raw(p, nvars, {tuple(m): 1})

    @classmethod
    def from_monomial(cls, p: int, m: Monomial, c: int = 1) -> "Polynomial":
        c %= p
        return cls._raw(p, len(m), {tuple(m): c} if c else {})

    # -- predicates ---------------------------------------------------------

    def is_constant(self) -> bool:
        return all(mono_is_one(m) for m in self.terms)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(m) for m in self.terms}
        return len(degs) <= 1

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    # -- arithmetic ---------------------------------------------------------

    def __mul__(self, other) -> "Polynomial":
        p = self.p
        if isinstance(other, int):
            return self.scale(other)
        if self.p != other.p or self.nvars != other.nvars:
            raise ValueError("elements over different ambients")
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                v = (out.get(m, 0) + c1 * c2) % p
                if v:
                    out[m] = v
                else:
                    out.pop(m, None)
        return Polynomial._raw(p, self.nvars, out)

    __rmul__ = __mul__

    def mul_term(self, m: Monomial, c: int) -> "Polynomial":
        """Multiply by the single term c * x^m."""
        p = self.p
        c %= p
        if c == 0:
            return Polynomial.zero(p, self.nvars)
        return Polynomial._raw(
            p,
            self.nvars,
            {tuple(a + b for a, b in zip(mm, m)): cc * c % p for mm, cc in self.terms.items()},
        )

    def __pow__(self, e: int) -> "Polynomial":
        if e < 0:
            raise ValueError("negative power")
        result = Polynomial.constant(self.p, self.nvars, 1)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def frobenius_power(self, e: int) -> "Polynomial":
        """Raise to the q = p^e power. Coefficients are fixed by x -> x^p on F_p,
        so only exponents scale."""
        if e < 0:
            raise ValueError("negative Frobenius power")
        q = self.p**e
        return Polynomial._raw(
            self.p, self.nvars, {tuple(x * q for x in m): c for m, c in self.terms.items()}
        )

    # -- leading terms ------------------------------------------------------

    def lead(self) -> tuple:
        """(monomial, coeff) of the grevlex leading term; raises on zero."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = min(self.terms, key=grevlex_rank)
        return m, self.terms[m]

    def extend(self, new_nvars: int, offset: int) -> "Polynomial":
        """Reinterpret in a larger variable list, old variable i -> offset + i."""
        pad_pre = (0,) * offset
        pad_post = (0,) * (new_nvars - offset - self.nvars)
        return Polynomial._raw(
            self.p,
            new_nvars,
            {pad_pre + m + pad_post: c for m, c in self.terms.items()},
        )

    # -- comparison / display ----------------------------------------------

    def sorted_terms(self) -> list:
        """(monomial, coeff) pairs, largest monomial first."""
        return sorted(self.terms.items(), key=lambda t: grevlex_rank(t[0]))

    def to_string(self, varnames: Iterable[str]) -> str:
        return poly_to_string(self, list(varnames))

    def __repr__(self) -> str:
        names = [f"x{i}" for i in range(self.nvars)]
        return f"Polynomial(p={self.p}, {self.to_string(names)})"


def poly_to_string(f: Polynomial, varnames: list) -> str:
    if f.is_zero():
        return "0"
    parts = []
    for m, c in f.sorted_terms():
        factors = []
        for name, e in zip(varnames, m):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        if not factors:
            parts.append(str(c))
        elif c == 1:
            parts.append("*".join(factors))
        else:
            parts.append(f"{c}*" + "*".join(factors))
    return " + ".join(parts)


# ---------------------------------------------------------------------------
# polynomial text grammar
#
#   poly   := ['-'] term (('+'|'-') term)*
#   term   := coeff | [coeff '*'?] factor ('*'? factor)*
#   factor := ident ('^' int)?
#
# Whitespace is insignificant. Identifiers are ASCII [A-Za-z_][A-Za-z0-9_]*.

_TOKEN_RE = re.compile(r"\s*(?:(?P<int>\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[\^*+\-]))")


def _tokenize(text: str, line: int, col_offset: int):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            col = col_offset + pos + (len(text[pos:]) - len(stripped)) + 1
            raise ParseError(f"unexpected character {stripped[0]!r}", line, col)
        pos = m.end()
        if m.group("int") is not None:
            out.append(("int", int(m.group("int")), m.start("int") + 1))
        elif m.group("ident") is not None:
            out.append(("ident", m.group("ident"), m.start("ident") + 1))
        else:
            out.append(("op", m.group("op"), m.start("op") + 1))
    return out


def parse_polynomial(
    text: str, varnames: list, p: int, *, line: int = 1, col_offset: int = 0
) -> Polynomial:
    """Parse the polynomial grammar; errors carry 1-based line/col positions."""
    index = {name: i for i, name in enumerate(varnames)}
    nvars = len(varnames)
    toks = _tokenize(text, line, col_offset)
    if not toks:
        raise ParseError("empty polynomial", line, col_offset + 1)

    def err(msg, col):
        raise ParseError(msg, line, col_offset + col)

    terms: dict = {}
    i = 0
    sign = 1
    if toks[0] == ("op", "-", toks[0][2]):
        sign = -1
        i = 1
    while True:
        # one term: optional coefficient, then factors
        if i >= len(toks):
            err("expected a term", toks[-1][2] + 1 if toks else 1)
        coeff = 1
        got_any = False
        kind, val, col = toks[i]
        if kind == "int":
            coeff = val
            got_any = True
            i += 1
            if i < len(toks) and toks[i][:2] == ("op", "*"):
                i += 1
                if i >= len(toks) or toks[i][0] != "ident":
                    err("expected a variable after '*'", toks[i - 1][2] + 1)
        exps = [0] * nvars
        while i < len(toks) and toks[i][0] == "ident":
            name = toks[i][1]
            vcol = toks[i][2]
            if name not in index:
                err(f"unknown variable {name!r}", vcol)
            e = 1
            i += 1
            if i < len(toks) and toks[i][:2] == ("op", "^"):
                i += 1
                if i >= len(toks) or toks[i][0] != "int":
                    err("expected an integer exponent after '^'", toks[i - 1][2] + 1)
                e = toks[i][1]
                i += 1
            exps[index[name]] += e
            got_any = True
            if i < len(toks) and toks[i][:2] == ("op", "*"):
                i += 1
                if i >= len(toks) or toks[i][0] != "ident":
                    err("expected a variable after '*'", toks[i - 1][2] + 1)
        if not got_any:
            err("expected a term", toks[i][2] if i < len(toks) else 1)
        m = tuple(exps)
        terms[m] = (terms.get(m, 0) + sign * coeff) % p
        if i >= len(toks):
            break
        kind, val, col = toks[i]
        if kind != "op" or val not in "+-":
            err(f"expected '+' or '-', got {val!r}", col)
        sign = 1 if val == "+" else -1
        i += 1
    return Polynomial(p, nvars, terms)
