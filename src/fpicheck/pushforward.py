"""The Frobenius pushforward F_*R, the Frobenius colon, and Hom(F_*R, R).

F_*R is R viewed through the Frobenius map: free over the polynomial ring S
with basis e_b, b in [0,q)^n, where e_b stands for the q-th root monomial
x^(b/q). Degrees are kept integral by scaling the grading by q (the ambient
variables have scaled degree q, e_b has scaled degree |b|).

Hom_R(F^e_*R, R) carries the left structure (r.phi)(s) = phi(rs), rs the
product of the root ring, and is computed from Fedder's lemma (Fedder 1983,
Trans. AMS 278, Lemma 1.6): with R = S/I and q = p^e,

    Hom_R(F^e_*R, R) ≅ F^e_*((I^[q] : I) / I^[q])  as F^e_*R-modules.

Over S, Hom_S(F_*S, S) is free over F_*S on the trace Tr, which sends x^a to
x^((a - (q-1)·1)/q) when every a_i ≡ q-1 (mod q) and to 0 otherwise; u in
S gives phi_u(s) = Tr(u·s). Tr is S-linear, Tr(x^(qc)·s) = x^c·Tr(s), so
Tr(F_*(I^[q]·s)) ⊆ I, and the q^n monomial coordinates of F_*S show that
Tr(u·F_*S) ⊆ I exactly when u ∈ I^[q]. Hence phi_u maps F_*I into I, and
so descends to F_*R -> R, exactly when u·I ⊆ I^[q], that is u ∈ (I^[q] : I);
it is 0 on R exactly when u ∈ I^[q]; and every map F_*R -> R lifts to some
phi_u, since F_*S is free over S. The root action is x_v·phi_u = phi_(x_v·u),
ordinary multiplication on M = (I^[q] : I)/I^[q], so a presentation of M is
one of the dual, and a minimal generator u of M gives the generator phi_u,
with coordinates phi_u(e_b) = Tr(u·x^b) mod I.

Degrees. For homogeneous u the trace takes u·x^b to degree
(deg u + |b| - (q-1)n)/q, so phi_u has scaled degree
q·deg phi_u(e_b) - |b| = deg u - (q-1)n, the same for every b; a variable
raises it by one. So the dual is M shifted by -(q-1)n, with scale 1.

Certificate. The Hilbert series of the dual also follows from the
pushforward presentation alone, 0 -> Hom -> R^rows -> R^cols -> coker(Aᵀ)
-> 0, as a numerator over (1 - t^q)^n. The numerator of M is over
(1 - t)^n, and (1 - t^q)^n = (1 - t)^n (1 + t + ... + t^(q-1))^n, so the
two must agree after this factor; a mismatch raises PipelineInvariantError.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as _iterproduct
from math import comb, prod

from .errors import PipelineInvariantError, ResourceLimitError
from .gfpoly import Polynomial
from .groebner import Ideal, RingSpec, bracket_power, divide_exact, ideal_colon
from .hilbert import ONE, Numerator
from .modgb import Vec, vec_nf_mod_ideal
from .resolutions import (
    ModulePresentation,
    hom_presentation_generic,
    is_free_rank_one,
    minimal_generators,
    subquotient_presentation,
    transpose,
)


def _boxes(q: int, n: int) -> list:
    """Exponent boxes [0,q)^n sorted by (degree, lex): the basis order of F_*R."""
    return sorted(_iterproduct(range(q), repeat=n), key=lambda b: (sum(b), b))


def frobenius_pushforward(rs: RingSpec, e: int = 1) -> ModulePresentation:
    """Present F^e_*R over R, with scale q = p^e.

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
    boxes = _boxes(q, n)
    index = {b: i for i, b in enumerate(boxes)}
    sigma = [sum(b) for b in boxes]
    cols = []
    ctw = []
    for g in rs.ideal.groebner_basis():
        for b in boxes:
            # x^m = (x^(m // q))^q x^(m % q): one term of g·x^b, one coordinate
            terms = {
                (index[tuple(mv % q for mv in m)], tuple(mv // q for mv in m)): c
                for m, c in g.mul_term(b, 1).terms.items()
            }
            cols.append(Vec._raw(rs.p, n, terms))
            ctw.append(g.degree() + sum(b))
    return ModulePresentation(ring, rs.ideal, cols, sigma, ctw, scale=q)


# ---------------------------------------------------------------------------
# the Frobenius colon (I^[q] : I)

# terms that (f_1 ⋯ f_c)^(q-1) may have before the Fedder colon refuses it
FEDDER_POWER_TERM_CAP = 10**6


def _complete_intersection_generators(rs: RingSpec):
    """A minimal homogeneous generating set f_1..f_c of I when I is a
    homogeneous complete intersection (c = n - dim R = ht I), else None.

    Krull's height theorem gives ht I <= mu(I) <= the number of given
    generators, so when that number is ht I the given generators are
    minimal. Otherwise the set comes from graded Nakayama over them
    (`minimal_generators` in S^1), so a redundant generator does not hide a
    complete intersection. In the Cohen-Macaulay ring S, c homogeneous
    elements generating an ideal of height c form a regular sequence.
    """
    if not rs.ideal.is_homogeneous_ideal():
        return None
    height = rs.n - rs.dimension
    fs = list(rs.ideal.generators)
    if len(fs) > height:
        vecs = [Vec.from_polys([(0, f)]) for f in fs]
        fs = [v.component(0) for v in minimal_generators(vecs, (0,))]
    return fs if len(fs) == height else None


def frobenius_colon(rs: RingSpec, e: int = 1) -> Ideal:
    """Fedder's colon (I^[q] : I), q = p^e, built in one of three ways:

    * every generator of I a monomial: `ideal_colon` in closed form;
    * I a homogeneous complete intersection, minimally generated by
      f = (f_1, ..., f_c) with c = ht I: the ideal generated by the g^q over
      the reduced Groebner basis of I and (f_1 ⋯ f_c)^(q-1), no elimination;
    * anything else: `ideal_colon` through the module colon.

    Complete intersection case. f and f^[q] = diag(f_i^(q-1)) f are regular
    sequences of the same length c, so the linkage lemma gives
    (f^[q]) : (f) = (f^[q]) + (det diag(f_i^(q-1))) = I^[q] + ((f_1 ⋯ f_c)^(q-1)).
    Frobenius is additive, so I^[q] is generated by the q-th powers of any
    generating set of I; taking the reduced basis {g} of I, flatness of
    Frobenius and LT(g^q) = LT(g)^q give S(g^q, h^q) = S(g, h)^q, so {g^q}
    is already the reduced basis of I^[q], and the only new element is the
    product. Reduced bases are unique, so every branch gives the same
    reduced basis of (I^[q] : I).

    Before the power is formed its terms are bounded: u = f_1 ⋯ f_c with t
    terms has u^(q-1) a sum of products of q - 1 of them, at most
    C(q+t-2, t-1), each a monomial of degree (q-1)·deg u, of which there are
    C((q-1)·deg u+n-1, n-1). Past `FEDDER_POWER_TERM_CAP` it raises
    ResourceLimitError.
    """
    ideal = rs.ideal
    fs = None
    if not all(g.is_monomial() for g in ideal.generators):
        fs = _complete_intersection_generators(rs)
    if fs is None:
        return ideal_colon(bracket_power(ideal, e), ideal)
    product = prod(fs, start=rs.ring.one())
    q, t, n = rs.p**e, len(product.terms), rs.n
    bound = min(comb(q + t - 2, t - 1), comb((q - 1) * product.degree() + n - 1, n - 1))
    if bound > FEDDER_POWER_TERM_CAP:
        raise ResourceLimitError(
            f"F-purity (Fedder colon): (f_1*...*f_c)^(q-1) may have {bound} terms, "
            f"past the cap of {FEDDER_POWER_TERM_CAP}"
        )
    # u^(q-1) = u^q / u: u^q = u^[q] costs nothing, and the exact division
    # is far cheaper than repeated squaring of a dense power
    power = divide_exact(product.frobenius_power(e), product)
    frob = [g.frobenius_power(e) for g in ideal.groebner_basis()]
    return Ideal(rs.ring, frob + [power])


# ---------------------------------------------------------------------------
# Hom(F_*R, R) by Fedder's lemma

def _trace_vector(u: Polynomial, index: dict, q: int) -> Vec:
    """phi_u in coordinates, unreduced: component b is Tr(u·x^b).

    A term x^m of u contributes to the one box b with b_i ≡ q-1-m_i (mod q),
    the monomial x^((m + b - (q-1)·1)/q); distinct terms give distinct
    (box, monomial) pairs, so no coefficients add up.
    """
    terms = {}
    for m, c in u.terms.items():
        b = tuple((q - 1 - mi) % q for mi in m)
        terms[(index[b], tuple((mi + bi + 1 - q) // q for mi, bi in zip(m, b)))] = c
    return Vec._raw(u.p, u.nvars, terms)


def _dual_numerator(pres: ModulePresentation, rs: RingSpec) -> Numerator:
    """Hilbert numerator over (1 - t^q)^n of ker(Aᵀ) = Hom_R(coker A, R),
    from 0 -> Hom -> R^rows -> R^cols -> coker(Aᵀ) -> 0."""
    q = pres.scale
    num_r_q = rs.ideal.hilbert_numerator().subst(q)
    total = Numerator()
    for s in pres.row_twists:
        total += num_r_q.shift(-s)
    for g in pres.col_twists:
        total -= num_r_q.shift(-g)
    if pres.ncols:
        coker_t = ModulePresentation(
            rs.ring,
            rs.ideal,
            transpose(pres.columns, pres.nrows, rs.ring),
            [-g for g in pres.col_twists],
            [-s for s in pres.row_twists],
            scale=q,
        )
        total += coker_t.numerator_scaled()
    return total


@dataclass
class TwistedHom:
    """Hom_R(F_*R, R) with the root-multiplication module structure."""

    pushforward: ModulePresentation
    generators: list  # Vec coordinates in R^(q^n), entries normal-formed
    degrees: list  # scaled degrees of the generators
    presentation: ModulePresentation
    numerator: Numerator  # exact Hilbert numerator over (1 - t^q)^n


def hom_pushforward_into_ring(pres: ModulePresentation, rs: RingSpec) -> TwistedHom:
    """Hom(F_*R, R) with the left structure, presented as (I^[q] : I)/I^[q]
    shifted by -(q-1)n and certified by the pushforward's Hilbert series."""
    q, p, n = pres.scale, rs.p, rs.n
    e = next((e for e in range(1, q.bit_length() + 1) if p**e == q), None)
    if e is None or pres.nrows != q**n:
        raise ValueError("expected a Frobenius pushforward presentation")
    image = [Vec.from_polys([(0, g)]) for g in bracket_power(rs.ideal, e).generators]
    cands = [Vec.from_polys([(0, g)]) for g in frobenius_colon(rs, e).generators]
    # minimal generators u of M; the subquotient keeps them, being minimal
    gens_u = minimal_generators(cands, (0,), image=image)
    presentation = subquotient_presentation(
        rs.ring, rs.ideal, (0,), gens_u, image, shift=-(q - 1) * n
    )

    numerator = _dual_numerator(pres, rs)
    expand = prod([Numerator(dict.fromkeys(range(q), 1))] * n, start=ONE)
    if presentation.numerator_scaled() * expand != numerator:
        raise PipelineInvariantError(
            "the Hilbert series of (I^[q] : I)/I^[q] disagrees with that of Hom(F_*R, R)"
        )

    index = {b: i for i, b in enumerate(_boxes(q, n))}
    generators = [
        vec_nf_mod_ideal(_trace_vector(v.component(0), index, q), rs.ideal) for v in gens_u
    ]
    return TwistedHom(
        pushforward=pres,
        generators=generators,
        degrees=list(presentation.row_twists),
        presentation=presentation,
        numerator=numerator,
    )


def hom_presentation(m: ModulePresentation, n: ModulePresentation) -> ModulePresentation:
    """Present Hom_R(M, N).

    When M is a Frobenius pushforward (scale != 1) the hom module is taken
    with the left structure (r.phi)(s) = phi(rs) and N must be the ring
    itself; otherwise the ordinary structure is used.
    """
    if m.scale == 1:
        return hom_presentation_generic(m, n)
    if m.modulus is None or n.modulus is None or is_free_rank_one(n) != (True, 0):
        raise ValueError("twisted hom is only defined into the quotient ring itself")
    rs = RingSpec(m.ring.p, m.ring.varnames, list(m.modulus.generators))
    return hom_pushforward_into_ring(m, rs).presentation
