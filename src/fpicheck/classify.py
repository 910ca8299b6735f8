"""Ring classification: Cohen-Macaulay, Gorenstein, F-purity, and whether
Frobenius preserves injectivity, for graded quotient rings of dimension at
most one.

Every verdict is backed by an exact certificate:

* depth and dimension come from a minimal free resolution and Hilbert data;
* Gorenstein reads the socle of R, or in dimension one of R/lR for the one
  certified non-zero-divisor l that every check shares, and is
  cross-checked against the last Betti number;
* a one-dimensional R has a canonical ideal exactly when it is generically
  Gorenstein: a monomial R when its localized generators minimalize to
  pure powers, any R when the trace ideal of omega has finite colength;
* F-purity of a graded Artinian ring is its length being 1 (I = m); of a
  graded curve it is depth one, multiplicity HF(1) and an injective
  Frobenius u -> u^p on R_1 (one rank over F_p); in every other case it is
  the containment test of the Frobenius colon ideal (I^[p] : I) against
  (x_1^p, ..., x_n^p);
* in dimension zero, Frobenius preserves injectivity exactly when
  F(E) is isomorphic to E for the injective hull E of the residue field.
  E is the canonical module Ext^n_S(R, S(-n)), read off the minimal free
  resolution, and F(E) ≅ E is decided by the socle dimension and length
  of F(E) (Matlis duality, `artinian.hull_power`);
* in dimension one the test is whether the canonical module, realized as an
  ideal omega, is isomorphic to omega^[p]: omega^[p]/l*omega^[p] is the
  injective hull over R/lR by socle dimension and length. The canonical
  module is checked in both dimensions by one `artinian.canonical_cross_check`:
  omega/l*omega, or E itself, is the injective hull of the Artinian reduction.

Every check but F-purity needs a homogeneous ideal and refuses another one
through `RingSpec.require_graded`; F-purity decides any ideal, inhomogeneous
ones by Fedder's criterion. The unit ideal is refused by every check.

Verdicts are three-valued ("true", "false", "inconclusive"). No search reads
a seed: each walks every line of its span, or past a cap a rational normal
curve for as many points as a theorem needs (`span_search`). A verdict is
"inconclusive" only when such a search was incomplete, and its reason names
the bound that was not met; it is never guessed.
Graded isomorphism classes are used throughout; for finitely generated
graded modules over a standard graded algebra these agree with the abstract
ones (Krull-Remak-Schmidt for the graded category).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    NoNzdFoundError,
    PipelineInvariantError,
    UnsupportedDimensionError,
)
from .gfpoly import Polynomial, monomials_of_degree, poly_to_string
from .hilbert import minimal_monomials
from .linalg import rank
from .groebner import (
    Ideal,
    RingSpec,
    ideal_colon,
    minimal_primes_monomial,
)
from .modgb import Vec, vec_nf_mod_ideal
from .artinian import (
    artinian_reduction,
    canonical_cross_check,
    frobenius_fixes_injective_hull,
    hull_power,
    socle_dimension_of_ring,
    span_search,
    span_walks_curve,
)
from .resolutions import (
    ModulePresentation,
    canonical_module,
    hom_into_ring_generators,
    minimal_free_resolution,
    minimal_generators,
    ring_depth,
    syzygy_presentation,
)
from .pushforward import frobenius_colon, frobenius_pushforward, hom_pushforward_into_ring


# ---------------------------------------------------------------------------
# the spans the element searches walk

# lines of a span walked one by one before a rational normal curve is walked
NZD_SPAN_CAP = 4096
MULTIPLIER_SPAN_CAP = 4096
CANONICAL_SPAN_CAP = 2048


def _poly_key(f):
    return tuple(sorted(f.terms.items()))


def _search_span(basis, zero, accept, cap: int, subspaces: int):
    """`span_search` over the combinations of `basis` (Polynomials or Vecs),
    the rejected ones lying in at most `subspaces` proper subspaces."""

    def combine(coeffs):
        out = zero
        for c, b in zip(coeffs, basis):
            if c:
                out = out + b.scale(c)
        return out

    return span_search(zero.p, len(basis), combine, accept, cap, subspaces)


def _distinct_nonzero(fs) -> list:
    """The nonzero Polynomials or Vecs of `fs`, each kept at its first occurrence."""
    out: dict = {}
    for f in fs:
        if not f.is_zero():
            out.setdefault(_poly_key(f), f)
    return list(out.values())


def _degree_slice(gens, n: int, target: int, reduce) -> list:
    """The distinct nonzero reduced multiples m*g of degree `target`, m a
    monomial, over the pairs (g, deg g) in `gens`, in order."""
    return _distinct_nonzero(
        reduce(g.mul_term(m, 1))
        for g, d in gens if d <= target
        for m in monomials_of_degree(n, target - d)
    )


# ---------------------------------------------------------------------------
# non-zero-divisors

def find_nzds(rs: RingSpec, max_degree: int = 2) -> Polynomial:
    """The first certified homogeneous non-zero-divisor on R, reduced mod I.

    The forms of each degree d up to `max_degree` are searched by
    `span_search` in the monomial basis of S_d: every line up to
    NZD_SPAN_CAP of them, a rational normal curve past that. Every
    candidate is verified exactly by `RingSpec.is_nzd`, which compares the
    Hilbert series of R/fR with (1 - t^deg f) HS(R). The zero-divisors of
    S_d are the union of P ∩ S_d over the associated primes P of R, each a
    subspace, proper when P is not the maximal ideal. For a Cohen-Macaulay
    R, Ass R = Min R, and the minimal primes number at most the
    multiplicity e, so the walk is complete after e(k - 1) + 1 points,
    k = dim S_d: on a Cohen-Macaulay curve the linear forms hold a
    non-zero-divisor as soon as e(n - 1) <= p. A walked degree counts as
    complete only on a Cohen-Macaulay R, checked on a miss. One f serves
    every check: the type of a Cohen-Macaulay R, or of an ideal omega^[p],
    is the socle dimension of its reduction mod f for any such f. Raises
    NoNzdFoundError when no degree yields one, naming the incomplete ones,
    and ValueError when `max_degree` is below 1, since no degree would be
    searched.
    """
    if max_degree < 1:
        raise ValueError(f"max_degree must be at least 1, got {max_degree}")
    n, p = rs.ring.n, rs.p
    e = rs.hilbert().multiplicity
    seen: set = set()

    def consider(f: Polynomial) -> bool:
        key = _poly_key(rs.nf(f))
        if not key or key in seen:  # zero modulo I, or tried already
            return False
        seen.add(key)
        return rs.is_nzd(f)

    zero = Polynomial.zero(p, n)
    incomplete, walked = [], []
    for d in range(1, max_degree + 1):
        basis = [Polynomial.from_monomial(p, m) for m in monomials_of_degree(n, d)]
        hit, complete = _search_span(basis, zero, consider, NZD_SPAN_CAP, e)
        if hit is not None:
            return rs.nf(hit)
        if not complete:
            incomplete.append(d)
        elif span_walks_curve(p, len(basis), NZD_SPAN_CAP):
            walked.append(d)
    why = f"its p + 1 = {p + 1} points are fewer than e(k - 1) + 1 for e = {e}"
    if walked and ring_depth(rs) != rs.dimension:
        incomplete = sorted(incomplete + walked)
        why = "R is not Cohen-Macaulay, and its bound e(k - 1) + 1 needs Ass R = Min R"
    detail = "every degree was searched completely"
    if incomplete:
        detail = f"the curve walk in degree {', '.join(map(str, incomplete))} was incomplete: {why}"
    raise NoNzdFoundError(
        f"no homogeneous non-zero-divisor of degree at most {max_degree} was found; {detail}"
    )


# ---------------------------------------------------------------------------
# Gorenstein

def is_gorenstein(rs: RingSpec, nzd=None):
    """Gorenstein test in dimension zero or one; returns (verdict, witness).

    Gorenstein is Cohen-Macaulay of type 1. Dimension zero reads the type
    as dim soc R. Dimension one requires depth one and reads dim soc(R/fR)
    for the certified non-zero-divisor f = `nzd` (found up to degree 2 when
    not given; `nzd=find_nzds(rs, max_degree=d)` goes further): for a
    Cohen-Macaulay R and a homogeneous non-zero-divisor f, that is the type
    of R. It is also the last Betti number β_c, since the mapping cone of f
    on the minimal resolution of R is minimal (Bruns-Herzog, Cohen-Macaulay
    Rings, 1.2 and 3.3); the check of that equality raises on a wrong socle.
    Depth and β_c come from R's resolution; depth zero gives False with that
    reason, not the NotCohenMacaulayError of `canonical_module`.
    """
    dim = rs.dimension
    if dim < 0 or dim > 1:
        raise UnsupportedDimensionError(
            f"the Gorenstein test supports dimension 0 and 1, not {dim}"
        )
    depth = ring_depth(rs)
    names = rs.ring.varnames
    if dim == 0:
        s = socle_dimension_of_ring(rs)
        witness = {"socle_dimension": s, "parameters": []}
    else:
        if depth < 1:
            return False, {
                "reason": "depth 0 is smaller than dimension 1, so the ring "
                "is not Cohen-Macaulay and in particular not Gorenstein"
            }
        if nzd is None:
            nzd = find_nzds(rs)
        s = socle_dimension_of_ring(rs.quotient_by([nzd]))
        witness = {"socle_dimension": s, "parameters": [poly_to_string(nzd, names)]}
    if depth == dim:
        last_betti = minimal_free_resolution(rs).betti()[-1]
        if last_betti != s:
            raise PipelineInvariantError(
                f"socle dimension {s} disagrees with the last Betti number {last_betti}"
            )
        witness["last_betti_number"] = last_betti
    return s == 1, witness


# ---------------------------------------------------------------------------
# F-purity

def is_f_pure(rs: RingSpec):
    """Frobenius-splitting test; returns (verdict, witness dict).

    A homogeneous R of dimension zero is F-pure exactly when its length
    λ(R) is 1: F-pure implies reduced, a reduced graded Artinian quotient of
    S is S/m = F_p, and F_p is F-pure.

    A homogeneous R of dimension one is decided on R_1:

    * depth 0: not F-pure, since F-pure implies reduced, and a reduced ring
      of positive dimension has positive depth;
    * e(R) != HF_R(1): not F-pure. On the top local cohomology of an F-pure
      graded ring Frobenius is injective and multiplies degrees by p, and
      that module vanishes in high degrees, so it vanishes in every positive
      degree: a(R) <= 0. An F-pure curve is Cohen-Macaulay by the first
      case, so its h-vector has a(R) + 1 <= 1 entries past h_0, all
      nonnegative: h = (1, e-1) and e = HF(1) (Goto-Watanabe 1977);
    * otherwise R is F-pure exactly when the F_p-linear map R_1 -> R_p,
      u -> u^p, is injective; its rank is one `linalg.rank` of the normal
      forms nf(x^p) (`RingSpec.nf_power`) over the degree-one standard
      monomials x, whose union of supports indexes the columns.

    Why the rank decides. Depth, e, HF(1) and that rank do not change when
    F_p is extended to its algebraic closure K (the map is F_p-linear with
    an F_p-matrix, and over K it is semilinear with the same matrix). Over K
    there is a linear non-zero-divisor l, and with h = (1, e-1) multiplication
    by l^(p-1): R_1 -> R_p is bijective, so the map has the rank of
    Frobenius on A = (R_l)_0 ≅ R_1, which is injective exactly when A is
    reduced. F-pure rings are reduced, which gives "only if". If A is
    reduced, A = K^e and R ⊗ K ⊂ R_l = A[l, 1/l] is reduced with e lines
    through the origin spanning the e-dimensional R_1: the coordinate axes,
    which are F-pure, and F-purity descends along the faithfully flat
    F_p -> K. No non-zero-divisor enters the test, so it also holds when F_p
    has no linear one.

    Every other R = S/I, inhomogeneous or of dimension at least two, is
    decided by Fedder's criterion (`is_f_pure_by_fedder`).
    """
    graded_dim = rs.dimension if rs.ideal.is_homogeneous_ideal() else None
    if graded_dim == 0:
        length = rs.hilbert().colength
        return length == 1, {
            "length": length,
            "statement": "a graded Artinian ring is F-pure exactly when "
            "its length is 1, that is when I = m",
        }
    if graded_dim != 1:
        return is_f_pure_by_fedder(rs)
    if ring_depth(rs) == 0:
        return False, {
            "depth": 0,
            "statement": "a reduced ring of positive dimension has positive depth",
        }
    e, hf1 = rs.hilbert().multiplicity, rs.hf(1)
    witness = {"multiplicity": e, "hilbert_function_1": hf1}
    if e != hf1:
        return False, {
            **witness,
            "statement": "an F-pure curve is Cohen-Macaulay with h-vector "
            "(1, e-1), so its multiplicity e equals HF(1)",
        }
    powers = [rs.nf_power(Polynomial.from_monomial(rs.p, m), rs.p)
              for m in rs.standard_monomials_of_degree(1)]
    support = sorted({m for f in powers for m in f.terms})
    r = rank([[f.terms.get(m, 0) for m in support] for f in powers], rs.p)
    return r == hf1, {
        **witness,
        "frobenius_rank": r,
        "statement": "with e = HF(1) the curve is F-pure exactly when "
        "u -> u^p is injective on R_1, that is of rank HF(1)",
    }


def is_f_pure_by_fedder(rs: RingSpec):
    """Fedder's criterion for any R = S/I; returns (verdict, witness dict).

    R is F-pure exactly when (I^[p] : I) is not contained in
    (x_1^p, ..., x_n^p) (Fedder 1983, exact for any ideal). The colon comes
    from `pushforward.frobenius_colon` (closed forms for monomial ideals and
    complete intersections, the module colon otherwise); every branch gives
    the same reduced basis of (I^[p] : I), and so the same witness: its
    first element outside (x_1^p, ..., x_n^p). A monomial ideal holds a
    polynomial exactly when it holds each of its terms, so an element lies
    outside exactly when some term has every exponent below p.
    """
    names = rs.ring.varnames
    p = rs.p
    basis = frobenius_colon(rs).groebner_basis()
    outside = next((g for g in basis if any(max(m, default=0) < p for m in g.terms)), None)
    if outside is not None:
        return True, {
            "splitting_witness": poly_to_string(outside, names),
            "statement": "this element of (I^[p] : I) lies outside "
            "(x_1^p, ..., x_n^p)",
        }
    return False, {
        "colon_generators": [poly_to_string(g, names) for g in basis],
        "statement": "every generator of (I^[p] : I) lies in "
        "(x_1^p, ..., x_n^p)",
    }


# ---------------------------------------------------------------------------
# minimal generators of an ideal of R

def minimal_ideal_generators(rs: RingSpec, gens) -> list:
    """An irredundant homogeneous generating set of the R-ideal (gens).

    Candidates are reduced modulo I, sorted by degree (ties broken
    deterministically), and kept by `minimal_generators` in R^1 only when
    outside the ideal generated by the earlier ones. By graded Nakayama the
    result has minimal size.
    """
    reduced = _distinct_nonzero(rs.nf(g) for g in gens)
    reduced.sort(key=lambda f: (f.degree(), _poly_key(f)))
    vecs = [Vec.from_polys([(0, f)]) for f in reduced]
    return [v.component(0) for v in minimal_generators(vecs, (0,), rs.ideal)]


def minimal_prime_count(rs: RingSpec):
    """Number of minimal primes for monomial defining ideals, else None."""
    if rs.is_monomial():
        return len(minimal_primes_monomial(rs.ideal))
    return None


# ---------------------------------------------------------------------------
# graded isomorphism of ideals

@dataclass
class IdealIsoResult:
    """Outcome of the ideal-isomorphism test, with the exact witnesses."""

    verdict: str  # "true" | "false" | "inconclusive"
    multiplier: object = None  # (h, f) with h*I = f*J when verdict is "true"
    shift: object = None
    detail: str = ""


def ideals_isomorphic(
    rs: RingSpec,
    gens_i,
    gens_j,
    nzd=None,
) -> IdealIsoResult:
    """Decide whether two homogeneous ideals of R are isomorphic as modules.

    Any isomorphism I -> J sends a non-zero-divisor f of I to an element h
    of J with h*I = f*J, and modulo the part killed by Nakayama, h can be
    taken in the F_p-span of the minimal generators of the colon ideal
    ((f*J) : I) in the single degree allowed by the Hilbert series. For every
    such f, scanning that span is a complete search: a hit certifies the
    isomorphism and an exhausted scan refutes it. Past MULTIPLIER_SPAN_CAP
    lines `span_search` walks a rational normal curve for e(k - 1) + 1
    points, and a miss is inconclusive. Hilbert series and minimal generator
    counts are used as cheap exact filters first.

    f = l^k, l the certified non-zero-divisor `nzd` (found up to degree 2
    when not given; `nzd=find_nzds(rs, max_degree=d)` goes further) and k
    least with l^k in I; l^k is a non-zero-divisor too. If R/I has finite
    length, I_d = R_d past its top degree, so k exists; if not (read off
    HS(R/I)), the verdict is inconclusive, and in dimension one I has no
    such element. The pipeline does not call this general test: it is the
    reference for the socle count that decides omega ≅ omega^[p].
    """
    n, p = rs.ring.n, rs.p
    gi = [g for g in (rs.nf(f) for f in gens_i) if not g.is_zero()]
    gj = [g for g in (rs.nf(f) for f in gens_j) if not g.is_zero()]
    if not gi or not gj:
        if not gi and not gj:
            return IdealIsoResult("true", None, 0, "both ideals are zero")
        return IdealIsoResult("false", None, None, "exactly one ideal is zero")
    one = Polynomial.constant(p, n, 1)
    # each preimage in S is built once, so its Groebner basis is computed once
    pre_i, pre_j = rs.preimage_ideal(gi), rs.preimage_ideal(gj)
    if pre_i == pre_j:
        return IdealIsoResult("true", (one, one), 0, "the ideals are equal")
    num_r = rs.ideal.hilbert_numerator()
    num_i = num_r - pre_i.hilbert_numerator()
    num_j = num_r - pre_j.hilbert_numerator()
    shift = num_i.lowest() - num_j.lowest()
    if num_j.shift(shift) != num_i:
        return IdealIsoResult(
            "false", None, None, "no shift matches the two Hilbert series"
        )
    mi = minimal_ideal_generators(rs, gi)
    mj = minimal_ideal_generators(rs, gj)
    if len(mi) != len(mj):
        return IdealIsoResult(
            "false",
            None,
            shift,
            f"minimal generator counts differ ({len(mi)} vs {len(mj)})",
        )
    if pre_i.hilbert_numerator().hilbert_data(n).colength is None:
        return IdealIsoResult(
            "inconclusive", None, shift,
            "R/I does not have finite length, so no power of a non-zero-divisor lies in I",
        )
    if nzd is None:
        try:
            nzd = find_nzds(rs)
        except NoNzdFoundError as exc:
            return IdealIsoResult("inconclusive", None, shift, str(exc))
    ell = f = rs.nf(nzd)
    while not pre_i.contains(f):
        f = rs.nf(f * ell)
    deg_h = f.degree() - shift
    if deg_h < 0:
        return IdealIsoResult(
            "false", None, shift, "the multiplier degree forced by Hilbert series is negative"
        )
    pre_rhs = rs.preimage_ideal([rs.nf(f * g) for g in mj])
    # I lies in the preimage of f*J, so (f*J + I : (mi) + I) = (f*J + I : (mi))
    colon = ideal_colon(pre_rhs, Ideal(rs.ring, mi))
    h_gens = minimal_ideal_generators(rs, colon.groebner_basis())
    cands = [h for h in h_gens if h.degree() == deg_h]
    if not cands:
        return IdealIsoResult(
            "false",
            None,
            shift,
            "the colon ideal has no minimal generator in the forced degree",
        )
    h, _ = _search_span(
        cands, Polynomial.zero(p, n),
        lambda h: not h.is_zero() and rs.preimage_ideal([rs.nf(h * g) for g in mi]) == pre_rhs,
        MULTIPLIER_SPAN_CAP, rs.hilbert().multiplicity,
    )
    if h is not None:
        return IdealIsoResult(
            "true", (rs.nf(h), f), shift,
            "multiplier identity h*I = f*J verified by ideal equality",
        )
    if (p ** len(cands) - 1) // (p - 1) <= MULTIPLIER_SPAN_CAP:
        return IdealIsoResult(
            "false",
            None,
            shift,
            "no multiplier exists in the complete degree slice of the colon ideal",
        )
    return IdealIsoResult(
        "inconclusive", None, shift,
        "no multiplier on the rational normal curve walked through the colon slice",
    )


# ---------------------------------------------------------------------------
# canonical ideal

@dataclass
class CanonicalIdealResult:
    """An ideal copy of the canonical module, or the reason there is none."""

    status: str  # "found" | "absent" | "inconclusive"
    generators: tuple = ()
    shift: object = None
    detail: str = ""


def monomial_generically_gorenstein(rs: RingSpec):
    """Is a monomial quotient Gorenstein at every minimal prime?

    Localizing at the monomial prime spanned by the variables in A turns
    the other variables into units, so the local ring is the Artinian
    K[x_A]/J, K a larger field and J spanned by the A-parts of the
    generators. Such a ring is Gorenstein exactly when every minimal
    generator of J is a pure power: the socle is spanned by the maximal
    standard monomials, and a single one, x^b, is divided by every standard
    monomial, so J = (x_i^(b_i+1)) (Beintema 1993); conversely
    (x_i^(a_i)) has the one socle monomial x^(a-1). Returns (True, detail)
    or (False, detail) naming a failing prime.
    """
    names = rs.ring.varnames
    primes = minimal_primes_monomial(rs.ideal)
    gens = rs.ideal.lead_monomials()
    for prime in primes:
        proj = [tuple(m[i] for i in prime) for m in gens]
        if not all(any(pm) for pm in proj):
            raise PipelineInvariantError("a minimal prime misses a generator of the ideal")
        for m in minimal_monomials(proj):
            if sum(1 for e in m if e) > 1:
                sub = [names[i] for i in prime]
                mono = poly_to_string(Polynomial.from_monomial(rs.p, m), sub)
                return False, (
                    f"at the minimal prime ({', '.join(sub)}) the minimal generator "
                    f"{mono} is not a pure power, so the localization there is "
                    "not Gorenstein and the ring is not generically Gorenstein"
                )
    return True, f"all {len(primes)} monomial minimal primes give Gorenstein localizations"


def _generically_gorenstein(rs: RingSpec, homs) -> bool:
    """Is the Cohen-Macaulay curve R Gorenstein at every minimal prime?

    The trace ideal τ of omega is the sum of the images of the maps
    omega -> R, the ideal of every entry of the generators `homs` of
    Hom(omega, R). Trace ideals localize. At a minimal prime P, omega_P is
    indecomposable (End omega_P = R_P is local), so τ_P = R_P exactly when
    omega_P has R_P as a summand, that is omega_P ≅ R_P. The primes of R
    are its minimal primes and m, so R is generically Gorenstein exactly
    when R/τ has finite length: one Hilbert series.
    """
    entries = [g for u, _ in homs for g in u.as_poly_dict().values()]
    return rs.preimage_ideal(entries).hilbert_numerator().hilbert_data(rs.n).colength is not None


def canonical_ideal(rs: RingSpec, nzd=None) -> CanonicalIdealResult:
    """Realize the canonical module of a one-dimensional R as an ideal.

    The canonical module omega comes from the dualized minimal resolution.
    It embeds in R exactly when R is Gorenstein at every minimal prime
    (Bruns-Herzog, Cohen-Macaulay Rings, 3.3.18). A monomial R that is not
    is "absent" at once (`monomial_generically_gorenstein`). Otherwise the
    maps are searched in Hom_R(omega, R), whose generators have degrees up
    to D, one degree at a time from the lowest to D, through the
    F_p-combinations of the monomial multiples of the generators
    (`span_search`: every line up to CANONICAL_SPAN_CAP, a rational normal
    curve past it). A map is accepted only on an exact certificate: its
    image ideal K satisfies HS(K) = t^d * HS(omega), so it is injective.

    Why D is enough. Let R be generically Gorenstein. At a minimal prime P,
    Hom(omega, R)_P ≅ R_P is generated by one of the generators, which is
    then an isomorphism at P, and so is its product with a power of a
    variable outside P, of degree D. A map is injective exactly when it is an
    isomorphism at every minimal prime, and at P the maps that are not form
    the subspace P·Hom(omega, R)_P. So in degree D the non-injective maps
    fill at most #Min <= e proper subspaces: every line of the slice is
    tried, or the walk reaches e(k - 1) + 1 <= p + 1 points, and then a
    miss is impossible once the slice has one line or e <= p (p + 1 proper
    subspaces can cover F_p^k, e.g. the three lines of F_2^2).

    After a miss up to D the trace ideal decides (`_generically_gorenstein`):
    "absent" when R is not generically Gorenstein; a complete miss where the
    argument above rules one out raises PipelineInvariantError; otherwise
    the result is "inconclusive" and names the bound that was not met.

    Hom(omega, R) is not zero: at a minimal prime P, R_P is Artinian with
    canonical module omega_P ≠ 0 (Bruns-Herzog 3.3.5), so omega_P -> k ->
    soc R_P ⊂ R_P, onto k by Nakayama, is nonzero in Hom(omega, R)_P.

    Raises UnsupportedDimensionError outside dimension one; at depth zero
    `canonical_module` raises NotCohenMacaulayError. A found copy is
    cross-checked by reducing omega modulo the certified non-zero-divisor
    f = `nzd` (found up to degree 2 when not given; `nzd=find_nzds(rs,
    max_degree=d)` goes further) and comparing with the injective hull by
    `canonical_cross_check`, the check `frobenius_fixes_injective_hull`
    makes of E: omega/f·omega is the canonical module of the Artinian R/fR,
    which is its injective hull.
    """
    dim = rs.dimension
    if dim != 1:
        raise UnsupportedDimensionError(
            f"the canonical-ideal search works in dimension 1, not {dim}"
        )
    omega = canonical_module(rs)
    if rs.is_monomial():
        ok, detail = monomial_generically_gorenstein(rs)
        if not ok:
            return CanonicalIdealResult("absent", (), None, detail)
    homs = hom_into_ring_generators(omega)
    n, p = rs.ring.n, rs.p
    e = rs.hilbert().multiplicity
    num_r = rs.ideal.hilbert_numerator()
    num_omega = omega.numerator_scaled()

    def image(u):
        polys = u.as_poly_dict()
        return [polys[i] for i in sorted(polys)]

    top = max(d for _, d in homs)
    for target in range(min(d for _, d in homs), top + 1):
        want = num_omega.shift(target)
        span = _degree_slice(homs, n, target, lambda v: vec_nf_mod_ideal(v, rs.ideal))
        u, complete = _search_span(
            span, Vec.zero(p, n),
            lambda u: not u.is_zero()
            and num_r - rs.preimage_ideal(image(u)).hilbert_numerator() == want,
            CANONICAL_SPAN_CAP, e,
        )
        if u is not None:
            found = CanonicalIdealResult(
                "found", tuple(rs.nf(g) for g in image(u)), target,
                f"image of a degree-{target} map with an exact Hilbert series match",
            )
            if nzd is None:
                nzd = find_nzds(rs)
            canonical_cross_check(rs, omega, nzd)
            return found
    if not _generically_gorenstein(rs, homs):
        return CanonicalIdealResult(
            "absent", (), None,
            "the trace ideal of omega has R/τ of infinite length, so R is not "
            "Gorenstein at some minimal prime and omega embeds in no ideal",
        )
    k = len(span)
    if complete and (k < 2 or e <= p):
        raise PipelineInvariantError(
            f"no injective map in the complete degree-{top} search on a "
            "generically Gorenstein ring"
        )
    return CanonicalIdealResult(
        "inconclusive", (), None,
        f"R is generically Gorenstein, but no injective map was found up to the top "
        f"degree {top} of the generators of Hom(omega, R), where the search of its "
        f"{k} spanning maps is complete only when the walk reaches e(k - 1) + 1 = "
        f"{e * (k - 1) + 1} <= p + 1 = {p + 1} points, and decisive only when e = {e} <= p",
    )


# ---------------------------------------------------------------------------
# the full report

@dataclass
class RingReport:
    """Classification results for one ring, with witnesses and cross-checks."""

    label: str
    p: int
    variables: list
    ideal: list
    dimension: object = None
    depth: object = None
    cohen_macaulay: object = None
    gorenstein: object = None
    gorenstein_witness: object = None
    f_pure: object = None
    f_pure_witness: object = None
    weakly_fpi: object = None
    fpi_method: object = None
    fpi_witness: object = None
    canonical: object = None
    minimal_prime_count: object = None
    cross_checks: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def to_dict(self) -> dict:
        """JSON-ready data sharing the fields, which hold plain data only."""
        return {"schema": 2, **vars(self)}


def _canonical_entry(ci: CanonicalIdealResult, names) -> dict:
    """The report's `canonical` entry for one canonical-ideal search."""
    return {
        "status": ci.status,
        "generators": [poly_to_string(g, names) for g in ci.generators],
        "shift": ci.shift,
        "detail": ci.detail,
    }


def _fpi_dimension_one(rs: RingSpec, report: RingReport, nzd):
    """K ≅ K^[p] for the canonical ideal K, decided by one socle count.

    K ≅ ω contains a non-zero-divisor (it lies in no minimal prime), so R/K
    and R/K^[p] have finite length, and the snake lemma for l on
    0 -> K^[p] -> R -> R/K^[p] -> 0 gives λ(K^[p]/lK^[p]) = λ(R/lR)
    (checked). Socle dimension 1 then makes K^[p]/lK^[p] the injective hull
    over R/lR (`hull_power`); by Rees' lemma, μ^{i+1}_R(M) =
    μ^i_{R/l}(M/lM), the maximal Cohen-Macaulay K^[p] has type 1 and finite
    injective dimension, so K^[p] ≅ ω ≅ K (Bruns-Herzog, Cohen-Macaulay
    Rings, 3.1.16 and 3.3). Conversely K^[p] ≅ ω has type 1.
    """
    names = rs.ring.varnames
    report.fpi_method = "canonical_ideal"
    if report.depth == 0:
        report.weakly_fpi = "false"
        report.fpi_witness = {
            "reason": "depth zero in dimension one; preserving injectivity "
            "forces the ring to be Cohen-Macaulay here"
        }
        return
    ci = canonical_ideal(rs, nzd=nzd)
    report.canonical = _canonical_entry(ci, names)
    if ci.status == "absent":
        report.weakly_fpi = "false"
        report.fpi_witness = {
            "reason": "the canonical module is isomorphic to no ideal: " + ci.detail
        }
        return
    if ci.status == "inconclusive":
        report.weakly_fpi = "inconclusive"
        report.fpi_witness = {"reason": ci.detail}
        return
    gens = list(ci.generators)
    bracket = [g.frobenius_power(1) for g in gens]
    report.fpi_witness = witness = {
        "canonical_ideal": [poly_to_string(g, names) for g in gens],
        "bracket_power": [poly_to_string(g, names) for g in bracket],
    }
    kept = [b for b in (rs.nf_power(g, rs.p) for g in gens) if not b.is_zero()]
    cols = [Vec.from_polys([(0, b)]) for b in kept]
    pres = ModulePresentation(rs.ring, rs.ideal, cols, (0,), [b.degree() for b in kept])
    reduced, length = artinian_reduction(rs, syzygy_presentation(pres), nzd)
    if reduced.dim != length:
        raise PipelineInvariantError(
            f"λ(omega^[p]/l*omega^[p]) = {reduced.dim}, not λ(R/lR) = {length}")
    s = reduced.socle_dimension()
    report.weakly_fpi = "true" if hull_power(reduced, length) == 1 else "false"
    witness["detail"] = (f"omega^[p]/l*omega^[p] has length λ(R/lR) and socle dimension {s}: "
                         "omega^[p] ≅ omega exactly when that is 1")
    witness.update(parameter=poly_to_string(nzd, names), length=length, socle_dimension=s)


def _run_cross_checks(rs: RingSpec, report: RingReport, deep_checks: bool):
    checks = report.cross_checks

    def add(name: str, status: str, detail: str = ""):
        checks.append({"name": name, "status": status, "detail": detail})

    wf = report.weakly_fpi
    if report.gorenstein:
        if wf == "false":
            raise PipelineInvariantError(
                "a Gorenstein ring was reported as not preserving injectivity"
            )
        add(
            "gorenstein_implies_fpi",
            "confirmed" if wf == "true" else "unresolved",
        )
    else:
        add("gorenstein_implies_fpi", "not_applicable")
    if report.dimension == 1 and report.f_pure:
        if wf == "false":
            raise PipelineInvariantError(
                "an F-pure ring of dimension one was reported as not "
                "preserving injectivity"
            )
        add(
            "f_pure_implies_fpi_in_dimension_one",
            "confirmed" if wf == "true" else "unresolved",
        )
    else:
        add("f_pure_implies_fpi_in_dimension_one", "not_applicable")
    if report.dimension == 1 and wf == "true":
        if not report.cohen_macaulay:
            raise PipelineInvariantError(
                "a non-Cohen-Macaulay ring of dimension one was reported "
                "as preserving injectivity"
            )
        add("fpi_implies_cohen_macaulay_in_dimension_one", "confirmed")
    else:
        add("fpi_implies_cohen_macaulay_in_dimension_one", "not_applicable")
    decisive = wf in ("true", "false")
    if deep_checks and decisive and rs.p ** rs.ring.n <= 32:
        push = frobenius_pushforward(rs)
        # the subquotient presentation is minimal: free of rank one is one
        # generator and no relation
        dual = hom_pushforward_into_ring(push, rs).presentation
        free = dual.nrows == 1 and dual.ncols == 0
        if free != (wf == "true"):
            raise PipelineInvariantError(
                "the freeness of Hom(F_*R, R) disagrees with the verdict"
            )
        detail = f"Hom(F_*R, R) free of rank one: {free}"
        if free:
            detail += f" (generator degree {dual.row_twists[0]})"
        add("frobenius_dual_module_freeness", "confirmed", detail)
    else:
        reason = (
            "verdict not decisive"
            if not decisive
            else "p^n exceeds the budget for the direct dual computation"
        )
        if not deep_checks:
            reason = "deep checks disabled"
        add("frobenius_dual_module_freeness", "skipped", reason)
    if (
        rs.is_monomial()
        and report.dimension == 1
        and report.minimal_prime_count is not None
        and report.minimal_prime_count <= 2
        and decisive
        and report.gorenstein is not None
    ):
        if (wf == "true") != report.gorenstein:
            raise PipelineInvariantError(
                "a monomial ring with at most two minimal primes must "
                "preserve injectivity exactly when it is Gorenstein"
            )
        add("monomial_few_primes_match_gorenstein", "confirmed")
    else:
        add("monomial_few_primes_match_gorenstein", "not_applicable")


CHECKS = ("all", "gorenstein", "fpure", "canonical")


def classify_ring(
    rs: RingSpec,
    check: str = "all",
    max_degree: int = 2,
    deep_checks: bool = True,
) -> RingReport:
    """Classify one ring and return a full report with witnesses.

    `check` selects the work: "all" runs the whole pipeline, "gorenstein"
    stops after the socle tests, "fpure" runs only `is_f_pure` (any
    dimension, any ideal), and "canonical" reports the canonical-ideal
    search. The unit ideal, whose R is the zero ring, raises
    UnsupportedDimensionError for every check. Except for "fpure",
    dimensions above one raise UnsupportedDimensionError and an
    inhomogeneous ideal raises NonHomogeneousError
    (`RingSpec.require_graded`); a `check` outside CHECKS raises ValueError.
    In dimension one every check shares one certified non-zero-divisor,
    searched for up to degree `max_degree`.
    """
    if check not in CHECKS:
        raise ValueError(f"check must be one of {', '.join(CHECKS)}, got {check!r}")
    if rs.ideal.is_unit():
        raise UnsupportedDimensionError("the unit ideal defines the zero ring, which has no verdicts")
    if check != "fpure":
        rs.require_graded(f"check {check!r}")
    names = list(rs.ring.varnames)
    report = RingReport(
        label=rs.label,
        p=rs.p,
        variables=names,
        ideal=[poly_to_string(g, names) for g in rs.ideal.generators],
    )
    report.minimal_prime_count = minimal_prime_count(rs)
    report.notes.append(
        "verdicts are statements about the graded ring at its irrelevant "
        "maximal ideal, over the finite field F_p"
    )
    if not rs.is_monomial():
        report.notes.append(
            "minimal prime counting is implemented for monomial ideals only"
        )
    if check == "fpure":
        report.f_pure, report.f_pure_witness = is_f_pure(rs)
        return report
    dim = rs.dimension
    if dim < 0 or dim > 1:
        raise UnsupportedDimensionError(
            f"Krull dimension {dim} is outside the supported range (0 or 1)"
        )
    report.dimension = dim
    report.depth = depth = ring_depth(rs)
    report.cohen_macaulay = depth == dim
    nzd = None
    if dim == 1 and depth == 1:
        nzd = find_nzds(rs, max_degree=max_degree)
    if check == "canonical":
        ci = canonical_ideal(rs, nzd=nzd)
        report.canonical = _canonical_entry(ci, names)
        return report
    report.gorenstein, report.gorenstein_witness = is_gorenstein(rs, nzd=nzd)
    if check == "gorenstein":
        return report
    report.f_pure, report.f_pure_witness = is_f_pure(rs)
    if dim == 0:
        report.fpi_method = "artinian_E"
        fixed, report.fpi_witness = frobenius_fixes_injective_hull(rs)
        report.weakly_fpi = "true" if fixed else "false"
    else:
        _fpi_dimension_one(rs, report, nzd)
    _run_cross_checks(rs, report, deep_checks)
    return report


def report_is_decisive(report: RingReport, check: str = "all") -> bool:
    """Did the requested check reach a definite verdict?"""
    if check == "fpure":
        return report.f_pure is not None
    if check == "gorenstein":
        return report.gorenstein is not None
    if check == "canonical":
        return bool(report.canonical) and report.canonical["status"] != "inconclusive"
    return report.weakly_fpi in ("true", "false")
