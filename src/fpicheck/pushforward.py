"""The Frobenius pushforward F_*R and Hom(F_*R, R) with its left structure.

F_*R is R viewed through the Frobenius map: free over the polynomial ring S
with basis e_b, b in [0,q)^n, where e_b stands for the q-th root monomial
x^(b/q). Degrees are kept integral by scaling the grading by q (the ambient
variables have scaled degree q, e_b has scaled degree |b|).

Hom_R(F_*R, R) is computed with the module structure (r.phi)(s) = phi(rs),
where rs is the internal product of the root ring. Concretely each variable
acts through the transpose of a recorded multiplication lift: x_v sends e_b
to e_(b+unit_v) when b_v + 1 < q and to x_v * e_(b-(q-1)unit_v) otherwise.
Ordinary coordinatewise action is the q-th power of this action, so ordinary
generators of the kernel already generate the twisted module; minimality and
relations are then settled degree by degree with an exact Hilbert series
certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as _iterproduct
from math import prod

import numpy as np

from .errors import PipelineInvariantError, ResourceLimitError
from .gfpoly import Polynomial, mono_degree, mono_mul
from .groebner import Ideal, RingSpec
from .hilbert import ONE, Numerator
from .linalg import Subspace, nullspace
from .modgb import Vec
from .resolutions import (
    ModulePresentation,
    dual_kernel,
    matrix_from_columns,
    transpose_matrix,
)


def frobenius_pushforward(rs: RingSpec, e: int = 1) -> ModulePresentation:
    """Present F^e_*R over R, with multiplication lifts for the root action.

    Generators e_b are indexed by exponent boxes b in [0,q)^n sorted by
    (degree, lex); the relation for an ideal generator g and box b expands
    g * x^b in the basis by q-adic exponent decomposition (coefficients are
    fixed by Frobenius on F_p).
    """
    if e < 1:
        raise ValueError("pushforward exponent must be at least 1")
    q = rs.p**e
    ring = rs.ring
    n = ring.n
    boxes = sorted(_iterproduct(range(q), repeat=n), key=lambda b: (sum(b), b))
    index = {b: i for i, b in enumerate(boxes)}
    r = len(boxes)
    sigma = [sum(b) for b in boxes]
    cols = []
    ctw = []
    for g in rs.ideal.groebner_basis():
        for b in boxes:
            shifted = g.mul_term(b, 1)
            terms: dict = {}
            for m, c in shifted.terms.items():
                u = tuple(mv // q for mv in m)
                rem = tuple(mv % q for mv in m)
                key = (index[rem], u)
                v = (terms.get(key, 0) + c) % rs.p
                if v:
                    terms[key] = v
                else:
                    terms.pop(key, None)
            if terms:
                cols.append(Vec._raw(rs.p, n, terms))
                ctw.append(g.degree() + sum(b))
    matrix = matrix_from_columns(cols, r, ring)
    lifts = []
    one = (0,) * n
    for v in range(n):
        unit = tuple(1 if w == v else 0 for w in range(n))
        per_source = []
        for b in boxes:
            if b[v] + 1 < q:
                target = tuple(bb + uu for bb, uu in zip(b, unit))
                per_source.append((index[target], Polynomial._raw(rs.p, n, {one: 1})))
            else:
                target = tuple(bb - (q - 1) * uu for bb, uu in zip(b, unit))
                per_source.append((index[target], Polynomial._raw(rs.p, n, {unit: 1})))
        lifts.append(tuple(per_source))
    return ModulePresentation(
        ring, rs.ideal, matrix, sigma, ctw, scale=q, mult_lifts=tuple(lifts)
    )


def _star_apply_var(pres: ModulePresentation, u: dict, v: int, modulus: Ideal) -> dict:
    """One variable of the root action on a coordinate vector of Hom.

    u maps component -> Polynomial; the result is (Lambda_v)^T applied to u,
    normal-formed entrywise.
    """
    lifts = pres.mult_lifts[v]
    out: dict = {}
    for s in range(pres.nrows):
        target, factor = lifts[s]
        f = u.get(target)
        if f is None or f.is_zero():
            continue
        g = modulus.normal_form(factor * f)
        if not g.is_zero():
            out[s] = g
    return out


def star_apply_monomial(pres: ModulePresentation, u: dict, mono) -> dict:
    out = u
    for v, e in enumerate(mono):
        for _ in range(e):
            out = _star_apply_var(pres, out, v, pres.modulus)
            if not out:
                return out
    return out


# ---------------------------------------------------------------------------
# slice bookkeeping for the q-scaled dual grading

class _DualSlices:
    """Coordinate systems for graded pieces of the dual of F_*R."""

    def __init__(self, rs: RingSpec, sigma, q: int):
        self.rs = rs
        self.sigma = tuple(sigma)
        self.q = q

    def pairs(self, delta: int):
        out = []
        for i, s in enumerate(self.sigma):
            rem = delta + s
            if rem < 0 or rem % self.q:
                continue
            for m in self.rs.standard_monomials_of_degree(rem // self.q):
                out.append((i, m))
        return out

    def coords(self, u: dict, pairs, pos) -> list:
        vec = [0] * len(pairs)
        for i, f in u.items():
            for m, c in f.terms.items():
                vec[pos[(i, m)]] = c
        return vec


def _scaled_dual_degree(v: Vec, sigma, q: int) -> int:
    degs = {q * mono_degree(m) - sigma[i] for i, m in v.terms}
    if len(degs) != 1:
        raise PipelineInvariantError("kernel generator is not homogeneous in the dual grading")
    return degs.pop()


@dataclass
class TwistedHom:
    """Hom_R(F_*R, R) with the root-multiplication module structure."""

    pushforward: ModulePresentation
    generators: list  # Vec coordinates in R^(p^n), entries normal-formed
    degrees: list  # scaled degrees of the generators
    presentation: ModulePresentation
    numerator: Numerator  # exact Hilbert numerator over (1 - t^q)^n


def hom_pushforward_into_ring(
    pres: ModulePresentation, rs: RingSpec, max_relation_degree=None
) -> TwistedHom:
    """Hom(F_*R, R) with the left structure, presented with certified relations."""
    if pres.mult_lifts is None:
        raise ValueError("expected a pushforward presentation with multiplication lifts")
    ring = rs.ring
    p = rs.p
    q = pres.scale
    sigma = pres.row_twists
    gamma = pres.col_twists
    # ordinary kernel of the transposed presentation matrix over R
    ordinary = dual_kernel(pres)
    # exact Hilbert numerator of the dual module, over (1 - t^q)^n
    num_r_q = rs.ideal.hilbert_numerator().subst(q)
    total = Numerator()
    for s in sigma:
        total += num_r_q.shift(-s)
    for g in gamma:
        total -= num_r_q.shift(-g)
    if pres.ncols:
        coker_t = ModulePresentation(
            ring,
            rs.ideal,
            transpose_matrix(pres.matrix),
            [-g for g in gamma],
            [-s for s in sigma],
            scale=q,
        )
        total += coker_t.numerator_scaled()
    numerator_w = total

    slices = _DualSlices(rs, sigma, q)
    by_degree: dict = {}
    for v in ordinary:
        if v.is_zero():
            continue
        d = _scaled_dual_degree(v, sigma, q)
        by_degree.setdefault(d, []).append(v)
    gens: list = []
    gen_degs: list = []
    for delta in sorted(by_degree):
        pairs = slices.pairs(delta)
        pos = {pm: k for k, pm in enumerate(pairs)}
        span = Subspace(len(pairs), p)
        for u, du in zip(gens, gen_degs):
            for m in rs.standard_monomials_of_degree(delta - du):
                img = star_apply_monomial(pres, u.as_poly_dict(), m)
                if img:
                    span.add(slices.coords(img, pairs, pos))
        for v in by_degree[delta]:
            if span.add(slices.coords(v.as_poly_dict(), pairs, pos)):
                gens.append(v)
                gen_degs.append(delta)

    relations, rel_degs = _relations_with_certificate(
        pres, rs, slices, gens, gen_degs, numerator_w, q, max_relation_degree
    )
    matrix = matrix_from_columns(relations, len(gens), ring)
    w_pres = ModulePresentation(ring, rs.ideal, matrix, gen_degs, rel_degs)
    return TwistedHom(
        pushforward=pres,
        generators=gens,
        degrees=gen_degs,
        presentation=w_pres,
        numerator=numerator_w,
    )


def free_slice(rs: RingSpec, degrees, d: int) -> list:
    """Coordinates (generator index, standard monomial) of the degree-d slice
    of the graded free R-module with generators in `degrees`."""
    return [
        (k, m) for k, e in enumerate(degrees) if d >= e
        for m in rs.standard_monomials_of_degree(d - e)
    ]


def collect_relations(rs: RingSpec, pairs, ker, d: int, relations: list, rel_degs: list) -> bool:
    """Append to `relations`, in degree d, each row of `ker` (vectors over the
    `free_slice` coordinates `pairs`) that enlarges the span of the earlier
    relations times standard monomials, taking the rows in order. Returns
    whether a row was kept.
    """
    p, n = rs.p, rs.ring.n
    pair_index = {pm: i for i, pm in enumerate(pairs)}
    known = Subspace(len(pairs), p)
    for r_vec, r_deg in zip(relations, rel_degs):
        for mu in rs.standard_monomials_of_degree(d - r_deg):
            shifted = [0] * len(pairs)
            for (k, mm), c in r_vec.terms.items():
                f = rs.nf(Polynomial._raw(p, n, {mono_mul(mm, mu): c}))
                for m2, c2 in f.terms.items():
                    slot = pair_index[(k, m2)]
                    shifted[slot] = (shifted[slot] + c2) % p
            known.add(shifted)
    added = False
    for row in ker:
        if known.add(list(row)):
            terms = {(k, m): int(c % p) for (k, m), c in zip(pairs, row) if c % p}
            relations.append(Vec._raw(p, n, terms))
            rel_degs.append(d)
            added = True
    return added


def _relations_with_certificate(
    pres, rs: RingSpec, slices, gens, gen_degs, numerator_w, q, max_relation_degree
):
    """Relation columns for the twisted generators, found degree by degree.

    Completeness is certified exactly: the cokernel of the collected columns
    matches the known Hilbert numerator of the module (equality of integer
    Laurent polynomials after clearing the two denominators).
    """
    ring = rs.ring
    p = rs.p
    n = ring.n
    h = len(gens)
    # (1 - t^q)^n = (1 - t)^n (1 + t + ... + t^(q-1))^n
    expand = prod([Numerator(dict.fromkeys(range(q), 1))] * n, start=ONE)

    def certified(rel_list, deg_list) -> bool:
        matrix = matrix_from_columns(rel_list, h, ring)
        cand = ModulePresentation(ring, rs.ideal, matrix, gen_degs, deg_list)
        return cand.numerator_scaled() * expand == numerator_w

    if h == 0:
        if numerator_w:
            raise PipelineInvariantError("dual module has no generators but nonzero series")
        return [], []
    relations: list = []
    rel_degs: list = []
    if certified(relations, rel_degs):
        return relations, rel_degs
    gen_dicts = [u.as_poly_dict() for u in gens]
    cap = (
        max(gen_degs) + 2 * q * n + 6
        if max_relation_degree is None
        else max_relation_degree
    )
    d = min(gen_degs)
    while d <= cap:
        d += 1
        domain = free_slice(rs, gen_degs, d)
        if not domain:
            continue
        pairs = slices.pairs(d)
        pos = {pm: k for k, pm in enumerate(pairs)}
        cols = []
        for k, m in domain:
            img = star_apply_monomial(pres, gen_dicts[k], m)
            cols.append(slices.coords(img, pairs, pos) if img else [0] * len(pairs))
        if pairs:
            eval_mat = np.array(cols, dtype=np.int64).T % p
            ker = nullspace(eval_mat, p)
        else:
            ker = np.eye(len(domain), dtype=np.int64)
        if ker.shape[0] and not collect_relations(rs, domain, ker, d, relations, rel_degs):
            continue  # every kernel row was known: the cokernel is unchanged
        if certified(relations, rel_degs):
            return relations, rel_degs
    raise ResourceLimitError(
        "relation search for the twisted dual exceeded its degree budget"
    )


def hom_presentation(m: ModulePresentation, n: ModulePresentation) -> ModulePresentation:
    """Present Hom_R(M, N).

    When M carries multiplication lifts (a Frobenius pushforward) the hom
    module is taken with the left structure (r.phi)(s) = phi(rs) and N must
    be the ring itself; otherwise the ordinary structure is used.
    """
    if m.mult_lifts is not None:
        if n.modulus is None or m.modulus is None:
            raise ValueError("lifted hom requires modules over the same quotient")
        small = n.minimized()
        if not (
            small.nrows == 1 and small.ncols == 0 and small.row_twists == (0,)
        ):
            raise ValueError("lifted hom is only defined into the ring itself")
        rs = _ringspec_from(m)
        return hom_pushforward_into_ring(m, rs).presentation
    from .resolutions import hom_presentation_generic

    return hom_presentation_generic(m, n)


def _ringspec_from(pres: ModulePresentation) -> RingSpec:
    return RingSpec(
        pres.ring.p,
        pres.ring.varnames,
        list(pres.modulus.generators),
    )
