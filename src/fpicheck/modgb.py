"""Groebner machinery for submodules of free modules over F_p[x_1..x_n].

Elements of a free module S^r are sparse vectors whose terms are keyed by
(component, monomial). The one order is position-over-term with grevlex
ties: lower component indices dominate, so placing "real" components before
tag components turns a Groebner basis into an elimination device for syzygies.

Normal forms and Groebner bases come from the one kernel in `groebner`, which
works on exactly these term dicts; this module adds the vector type, syzygies,
kernels and lead modules.

A module over R = S/I is a module over S plus the columns I·e_j
(`ideal_columns`). Every kernel, over S or over R, comes from one call,
`kernel_over_quotient(columns, nrows, ideal)`, with `ideal` None for S.
"""

from __future__ import annotations

from .gfpoly import Polynomial, SparseElement, mono_degree, mono_mul
from .groebner import groebner_terms, lead_term, normal_form_terms


class Vec(SparseElement):
    """Sparse element of a free module S^r; terms map (comp, mono) to coeff."""

    __slots__ = ()

    @classmethod
    def unit(cls, p: int, nvars: int, comp: int) -> "Vec":
        return cls._raw(p, nvars, {(comp, (0,) * nvars): 1})

    @classmethod
    def from_polys(cls, entries) -> "Vec":
        """Build from an iterable of (component, Polynomial) pairs."""
        p = nvars = None
        terms: dict = {}
        for comp, f in entries:
            if f is None or f.is_zero():
                continue
            p, nvars = f.p, f.nvars
            for m, c in f.terms.items():
                t = (comp, m)
                v = (terms.get(t, 0) + c) % p
                if v:
                    terms[t] = v
                else:
                    terms.pop(t, None)
        if p is None:
            raise ValueError("from_polys needs at least one nonzero entry")
        return cls._raw(p, nvars, terms)

    def component(self, comp: int) -> Polynomial:
        terms = {m: c for (cc, m), c in self.terms.items() if cc == comp}
        return Polynomial._raw(self.p, self.nvars, terms)

    def as_poly_dict(self) -> dict:
        out: dict = {}
        for (comp, m), c in self.terms.items():
            out.setdefault(comp, {})[m] = c
        return {
            comp: Polynomial._raw(self.p, self.nvars, terms)
            for comp, terms in out.items()
        }

    def mul_term(self, mono, coeff: int) -> "Vec":
        coeff %= self.p
        if coeff == 0:
            return Vec.zero(self.p, self.nvars)
        return Vec._raw(
            self.p,
            self.nvars,
            {(c, mono_mul(m, mono)): coeff * v % self.p for (c, m), v in self.terms.items()},
        )

    def mul_poly(self, f: Polynomial) -> "Vec":
        out = Vec.zero(self.p, self.nvars)
        for m, c in f.terms.items():
            out = out + self.mul_term(m, c)
        return out

    def restrict_components(self, lo: int, hi: int) -> "Vec":
        """Keep components in [lo, hi), renumbered to start at 0."""
        return Vec._raw(
            self.p,
            self.nvars,
            {(c - lo, m): v for (c, m), v in self.terms.items() if lo <= c < hi},
        )

    def degree_with_twists(self, twists) -> int:
        """Degree if homogeneous for the given component twists; raises otherwise."""
        degs = {mono_degree(m) + twists[c] for c, m in self.terms}
        if len(degs) > 1:
            raise ValueError("vector is not homogeneous for the given twists")
        return degs.pop() if degs else -1

    def __repr__(self):
        parts = [f"e{c}*{m}:{v}" for (c, m), v in sorted(self.terms.items())]
        return "Vec(" + ", ".join(parts) + ")"


# ---------------------------------------------------------------------------
# reduction and Groebner bases, through the kernel

def reduce_vec(v: Vec, basis) -> Vec:
    """Full normal form of v modulo the vectors in `basis`."""
    if v.is_zero() or not basis:
        return v
    elems = [g.terms for g in basis if g.terms]
    return Vec._raw(v.p, v.nvars, normal_form_terms(v.terms, elems, v.p))


def module_groebner(gens, syzygy_cutoff=None):
    """Reduced Groebner basis of the submodule generated by `gens`, sorted by
    lead; see `groebner.groebner_terms` for `syzygy_cutoff`."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    p, nvars = gens[0].p, gens[0].nvars
    gb = groebner_terms([g.terms for g in gens], p, "module Buchberger", syzygy_cutoff)
    return [Vec._raw(p, nvars, g) for g in gb]


# ---------------------------------------------------------------------------
# syzygies and kernels

def syzygy_basis(columns, nreal: int):
    """Generators of the syzygy module of `columns` (vectors in S^nreal).

    Each column v_i is augmented with a tag component nreal+i; Groebner basis
    elements with no term in the first nreal components record syzygies.
    """
    cols = list(columns)
    if not cols:
        return []
    p = cols[0].p
    nvars = cols[0].nvars
    one = (0,) * nvars
    aug = []
    for i, v in enumerate(cols):
        terms = dict(v.terms)
        terms[(nreal + i, one)] = 1
        aug.append(Vec._raw(p, nvars, terms))
    gb = module_groebner(aug, syzygy_cutoff=nreal)
    out = []
    for g in gb:
        if all(c >= nreal for c, _ in g.terms):
            out.append(g.restrict_components(nreal, nreal + len(cols)))
    return out


def module_contains(v: Vec, gens) -> bool:
    return reduce_vec(v, module_groebner(list(gens))).is_zero()


def vec_nf_mod_ideal(v: Vec, ideal) -> Vec:
    """Entrywise normal form of v modulo an Ideal of the coefficient ring."""
    entries = []
    for comp, f in v.as_poly_dict().items():
        g = ideal.normal_form(f)
        if not g.is_zero():
            entries.append((comp, g))
    if not entries:
        return Vec.zero(v.p, v.nvars)
    return Vec.from_polys(entries)


def ideal_columns(ideal, nrows: int) -> list:
    """The vectors g·e_j of S^nrows, for j < nrows and each generator g of
    `ideal`, component-major; [] when `ideal` is None. Adjoined to the
    columns of a map into S^nrows, they make it a map into R^nrows for
    R = S/ideal."""
    if ideal is None:
        return []
    p, nvars = ideal.ring.p, ideal.ring.n
    return [
        Vec._raw(p, nvars, {(j, m): c for m, c in g.terms.items()})
        for j in range(nrows)
        for g in ideal.generators
    ]


def kernel_over_quotient(columns, nrows: int, defining_ideal):
    """Generators of ker(R^s -> R^nrows), the map given by s columns in
    S^nrows, for R = S/defining_ideal, or for R = S when it is None.

    Over S these are the syzygies of the columns. Over a quotient the
    columns I·e_j are adjoined, the syzygies are projected onto the first s
    tags, and each generator is normal-formed mod I, zeros and repeats
    dropped.
    """
    cols = list(columns)
    if defining_ideal is None:
        return syzygy_basis(cols, nrows)
    s = len(cols)
    if s == 0:
        return []
    syz = syzygy_basis(cols + ideal_columns(defining_ideal, nrows), nrows)
    seen = set()
    out = []
    for w in syz:
        v = vec_nf_mod_ideal(w.restrict_components(0, s), defining_ideal)
        if v.is_zero() or v in seen:
            continue
        seen.add(v)
        out.append(v)
    return out


# ---------------------------------------------------------------------------
# lead modules, Hilbert data for graded quotients of free modules

def lead_module(gb) -> dict:
    """Map component -> lead monomials of the reduced basis `gb` there, which
    are the minimal generators of that component's lead-monomial ideal: the
    leads of a reduced basis divide one another nowhere."""
    out: dict = {}
    for g in gb:
        comp, mono = lead_term(g.terms)
        out.setdefault(comp, []).append(mono)
    return {c: tuple(ms) for c, ms in out.items()}


def lead_module_is_finite_colength(lead_by_comp: dict, ncomponents: int, n: int) -> bool:
    """Does every component's lead ideal contain a power of every variable?
    The power may be x_v^0 = 1, when the component lies in the submodule."""
    for j in range(ncomponents):
        leads = lead_by_comp.get(j, ())
        for v in range(n):
            if not any(all(e == 0 for i, e in enumerate(m) if i != v) for m in leads):
                return False
    return True
