"""Ring classification: Cohen-Macaulay, Gorenstein, F-purity, and whether
Frobenius preserves injectivity, for graded quotient rings of dimension at
most one.

Every verdict is backed by an exact certificate:

* depth and dimension come from a minimal free resolution and Hilbert data;
* Gorenstein reads the socle of the ring (or of an Artinian reduction by a
  verified non-zero-divisor) and is cross-checked against the last Betti
  number;
* F-purity is the containment test of the Frobenius colon ideal
  (I^[p] : I) against (x_1^p, ..., x_n^p);
* in dimension zero, Frobenius preserves injectivity exactly when
  F(E) is isomorphic to E for the injective hull E of the residue field,
  decided by an honest module-isomorphism search;
* in dimension one the test is whether the canonical module, realized as an
  ideal of R, is isomorphic to its bracket power, decided by a multiplier
  identity h*I = f*J with a certified non-zero-divisor f.

Isomorphism verdicts are three-valued ("true", "false", "inconclusive"):
witness searches that exhaust a complete candidate space refute decisively,
while exhausted random budgets are reported as inconclusive, never guessed.
Graded isomorphism classes are used throughout; for finitely generated
graded modules over a standard graded algebra these agree with the abstract
ones (Krull-Remak-Schmidt for the graded category).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .errors import (
    NoNzdFoundError,
    NotCohenMacaulayError,
    PipelineInvariantError,
    UnsupportedDimensionError,
)
from .gfpoly import (
    GREVLEX,
    Polynomial,
    monomials_of_degree,
    poly_to_string,
    random_homogeneous,
)
from .groebner import (
    Ideal,
    RingSpec,
    bracket_power,
    divide_exact,
    ideal_colon,
    minimal_primes_monomial,
)
from .modgb import Vec, vec_nf_mod_ideal
from .artinian import (
    _normalized_coefficient_vectors,
    frobenius_fixes_injective_hull,
    injective_hull_of_residue_field,
    modules_isomorphic,
    realize_finite,
    socle_dimension_of_ring,
)
from .resolutions import (
    ModulePresentation,
    canonical_module,
    hom_into_ring_generators,
    is_free_rank_one,
    minimal_free_resolution,
    with_modulus,
)
from .pushforward import frobenius_pushforward, hom_pushforward_into_ring


# ---------------------------------------------------------------------------
# candidate enumeration shared by the element searches

def _combo_candidates(p: int, k: int, seed_tag: str, cap: int, trials: int):
    """Coefficient vectors for F_p-combinations of k basis elements.

    Exhausts all projectively normalized vectors when there are at most
    `cap` of them (making a failed scan a refutation); otherwise yields
    `trials` seeded random nonzero vectors.
    """
    if k == 0:
        return
    count = (p**k - 1) // (p - 1)
    if count <= cap:
        yield from _normalized_coefficient_vectors(p, k)
        return
    rng = random.Random(seed_tag)
    for _ in range(trials):
        coeffs = tuple(rng.randrange(p) for _ in range(k))
        if any(coeffs):
            yield coeffs


def _poly_key(f: Polynomial):
    return tuple(sorted(f.terms.items()))


# ---------------------------------------------------------------------------
# non-zero-divisors

def find_nzds(
    rs: RingSpec,
    count: int = 1,
    seed: int = 0,
    max_degree: int = 2,
    trials: int = 200,
) -> list:
    """Up to `count` distinct homogeneous non-zero-divisors on R, low degree first.

    Linear forms are enumerated exhaustively in a deterministic order; each
    higher degree is scanned exhaustively when the coefficient space is
    small and by seeded sampling otherwise. Every candidate is verified
    exactly by `RingSpec.is_nzd`, which compares the Hilbert series of R/fR
    with (1 - t^deg f) HS(R). Raises NoNzdFoundError when the whole budget
    yields nothing.
    """
    n, p = rs.ring.n, rs.p
    found: list = []
    seen: set = set()

    def consider(f: Polynomial) -> bool:
        g = rs.nf(f)
        if g.is_zero():
            return False
        key = _poly_key(g)
        if key in seen:
            return False
        seen.add(key)
        if rs.is_nzd(f):
            found.append(g)
        return len(found) >= count

    for coeffs in _normalized_coefficient_vectors(p, n):
        f = Polynomial._raw(p, n, {})
        for i, c in enumerate(coeffs):
            if c:
                f = f + Polynomial.variable(p, n, i) * c
        if consider(f):
            return found
    for d in range(2, max_degree + 1):
        monos = list(monomials_of_degree(n, d))
        k = len(monos)
        if (p**k - 1) // (p - 1) <= 4096:
            for coeffs in _normalized_coefficient_vectors(p, k):
                f = Polynomial._raw(
                    p, n, {m: c for m, c in zip(monos, coeffs) if c}
                )
                if consider(f):
                    return found
        else:
            rng = random.Random(f"nzd:{seed}:{d}")
            for _ in range(trials):
                f = random_homogeneous(rng, p, n, d, max_terms=min(k, 4))
                if not f.is_zero() and consider(f):
                    return found
    if found:
        return found
    raise NoNzdFoundError(
        f"no homogeneous non-zero-divisor of degree at most {max_degree} was found"
    )


def _nzd_inside_ideal(
    rs: RingSpec,
    gens: list,
    seed: int = 0,
    trials: int = 200,
    exhaust_cap: int = 2048,
    degree_window: int = 2,
):
    """A certified homogeneous non-zero-divisor lying in the ideal (gens), or None."""
    n, p = rs.ring.n, rs.p
    degs = sorted({g.degree() for g in gens})
    for target in range(degs[0], degs[-1] + degree_window + 1):
        basis = []
        seen: set = set()
        for g in gens:
            if g.degree() > target:
                continue
            for m in monomials_of_degree(n, target - g.degree()):
                f = rs.nf(g.mul_term(m, 1))
                if f.is_zero():
                    continue
                key = _poly_key(f)
                if key in seen:
                    continue
                seen.add(key)
                basis.append(f)
        if not basis:
            continue
        tag = f"nzd-in-ideal:{seed}:{target}"
        for coeffs in _combo_candidates(p, len(basis), tag, exhaust_cap, trials):
            f = Polynomial._raw(p, n, {})
            for c, b in zip(coeffs, basis):
                if c:
                    f = f + b * c
            if not f.is_zero() and rs.is_nzd(f):
                return f
    return None


# ---------------------------------------------------------------------------
# Gorenstein

def is_gorenstein(rs: RingSpec, seed: int = 0, nzds=None, res=None):
    """Gorenstein test in dimension zero or one; returns (verdict, witness).

    Dimension zero reads the socle dimension of R. Dimension one requires
    depth one and reads the socle of R/(f) for a verified non-zero-divisor
    f; when two distinct ones are available both reductions are used and
    must agree. For Cohen-Macaulay rings the socle dimension is also checked
    against the last Betti number of the minimal free resolution.
    """
    dim = rs.dimension
    if dim < 0 or dim > 1:
        raise UnsupportedDimensionError(
            f"the Gorenstein test supports dimension 0 and 1, not {dim}"
        )
    if res is None:
        res = minimal_free_resolution(rs)
    depth = rs.ring.n - res.length
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
        if nzds is None:
            nzds = find_nzds(rs, count=2, seed=seed)
        socles = [
            socle_dimension_of_ring(rs.quotient_by([f])) for f in nzds[:2]
        ]
        if len(set(socles)) != 1:
            raise PipelineInvariantError(
                "the Cohen-Macaulay type changed with the reduction parameter"
            )
        s = socles[0]
        witness = {
            "socle_dimension": s,
            "parameters": [poly_to_string(f, names) for f in nzds[:2]],
        }
    if depth == dim:
        last_betti = len(res.twists[res.length])
        if last_betti != s:
            raise PipelineInvariantError(
                f"socle dimension {s} disagrees with the last Betti number {last_betti}"
            )
        witness["last_betti_number"] = last_betti
    return s == 1, witness


# ---------------------------------------------------------------------------
# F-purity

def _complete_intersection_generators(rs: RingSpec):
    """A minimal homogeneous generating set f_1..f_c of I when I is a
    homogeneous complete intersection (c = n - dim R = ht I), else None.

    Krull's height theorem gives ht I <= mu(I) <= the number of given
    generators, so when that number is ht I the given generators are
    minimal. Otherwise the set comes from graded Nakayama over them, as in
    `minimal_ideal_generators` with R the polynomial ring S itself, so a
    redundant generator does not hide a complete intersection. In the
    Cohen-Macaulay ring S, c homogeneous elements generating an ideal of
    height c form a regular sequence.
    """
    if not rs.ideal.is_homogeneous_ideal():
        return None
    height = rs.n - rs.dimension
    fs = list(rs.ideal.generators)
    if len(fs) > height:
        fs = minimal_ideal_generators(RingSpec(rs.p, rs.ring.varnames, []), fs)
    return fs if len(fs) == height else None


def is_f_pure(rs: RingSpec):
    """Frobenius-splitting test via the colon containment criterion.

    R = S/I is F-pure exactly when (I^[p] : I) is not contained in
    (x_1^p, ..., x_n^p) (Fedder 1983). The test is exact for any ideal;
    homogeneity is not required. The colon is built in one of three ways:

    * every generator of I a monomial: `ideal_colon` in closed form;
    * I a homogeneous complete intersection, minimally generated by
      f = (f_1, ..., f_c) with c = ht I: the ideal generated by the g^p over
      the reduced Groebner basis of I and (f_1 ⋯ f_c)^(p-1), no elimination;
    * anything else: `ideal_colon` by elimination.

    Complete intersection case. f and f^[p] = diag(f_i^(p-1)) f are regular
    sequences of the same length c, so the linkage lemma gives
    (f^[p]) : (f) = (f^[p]) + (det diag(f_i^(p-1))) = I^[p] + ((f_1 ⋯ f_c)^(p-1)).
    Frobenius is additive, so I^[p] is generated by the p-th powers of any
    generating set of I; taking the reduced basis {g} of I, flatness of
    Frobenius and LT(g^p) = LT(g)^p give S(g^p, h^p) = S(g, h)^p, so {g^p}
    is already the reduced basis of I^[p], and the only new element is the
    product. Reduced bases are unique, so every branch returns the
    same basis of (I^[p] : I), and the same witness: its first element
    outside (x_1^p, ..., x_n^p). Returns (verdict, witness dict).
    """
    names = rs.ring.varnames
    ideal = rs.ideal
    fs = None
    if not all(g.is_monomial() for g in ideal.generators):
        fs = _complete_intersection_generators(rs)
    if fs is None:
        colon = ideal_colon(bracket_power(ideal, 1), ideal)
    else:
        product = rs.ring.one()
        for f in fs:
            product = product * f
        # u^(p-1) = u^p / u: u^p = u^[p] costs nothing, and the exact
        # division is far cheaper than repeated squaring of a dense power
        power = divide_exact(product.frobenius_power(1), product)
        frob = [g.frobenius_power(1) for g in ideal.groebner_basis()]
        colon = Ideal(rs.ring, frob + [power])
    mp = bracket_power(rs.maximal_ideal(), 1)
    contained = []
    for g in colon.groebner_basis():
        if not mp.contains(g):
            return True, {
                "splitting_witness": poly_to_string(g, names),
                "statement": "this element of (I^[p] : I) lies outside "
                "(x_1^p, ..., x_n^p)",
            }
        contained.append(poly_to_string(g, names))
    return False, {
        "colon_generators": contained,
        "statement": "every generator of (I^[p] : I) lies in "
        "(x_1^p, ..., x_n^p)",
    }


# ---------------------------------------------------------------------------
# minimal generators of an ideal of R

def minimal_ideal_generators(rs: RingSpec, gens) -> list:
    """An irredundant homogeneous generating set of the R-ideal (gens).

    Candidates are reduced modulo I, sorted by degree (ties broken
    deterministically), and kept only when outside the ideal generated by
    the earlier ones. By graded Nakayama the result has minimal size.
    """
    reduced = []
    seen: set = set()
    for g in gens:
        f = rs.nf(g)
        if f.is_zero():
            continue
        key = _poly_key(f)
        if key not in seen:
            seen.add(key)
            reduced.append(f)
    reduced.sort(key=lambda f: (f.degree(), _poly_key(f)))
    accepted: list = []
    for f in reduced:
        if not rs.preimage_ideal(accepted).contains(f):
            accepted.append(f)
    return accepted


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
    seed: int = 0,
    trials: int = 400,
    exhaust_cap: int = 4096,
) -> IdealIsoResult:
    """Decide whether two homogeneous ideals of R are isomorphic as modules.

    Any isomorphism I -> J sends a fixed non-zero-divisor f of I to an
    element h of J with h*I = f*J, and modulo the part killed by Nakayama,
    h can be taken in the F_p-span of the minimal generators of the colon
    ideal ((f*J) : I) in the single degree allowed by the Hilbert series.
    Scanning that span is therefore a complete search: a hit certifies the
    isomorphism and an exhausted scan refutes it. Hilbert series and
    minimal generator counts are used as cheap exact filters first.
    """
    n, p = rs.ring.n, rs.p
    gi = [g for g in (rs.nf(f) for f in gens_i) if not g.is_zero()]
    gj = [g for g in (rs.nf(f) for f in gens_j) if not g.is_zero()]
    if not gi or not gj:
        if not gi and not gj:
            return IdealIsoResult("true", None, 0, "both ideals are zero")
        return IdealIsoResult("false", None, None, "exactly one ideal is zero")
    one = Polynomial.constant(p, n, 1)
    if rs.ideal_eq_in_r(gi, gj):
        return IdealIsoResult("true", (one, one), 0, "the ideals are equal")
    num_r = rs.ideal.hilbert_numerator()
    num_i = num_r - rs.preimage_ideal(gi).hilbert_numerator()
    num_j = num_r - rs.preimage_ideal(gj).hilbert_numerator()
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
    f = _nzd_inside_ideal(rs, mi, seed=seed, trials=trials, exhaust_cap=exhaust_cap)
    if f is None:
        return IdealIsoResult(
            "inconclusive",
            None,
            shift,
            "no certified non-zero-divisor was found inside the first ideal",
        )
    deg_h = f.degree() - shift
    if deg_h < 0:
        return IdealIsoResult(
            "false", None, shift, "the multiplier degree forced by Hilbert series is negative"
        )
    rhs = [f * g for g in mj]
    colon = ideal_colon(rs.preimage_ideal(rhs), rs.preimage_ideal(mi))
    h_gens = minimal_ideal_generators(rs, colon.groebner_basis())
    cands = [h for h in h_gens if h.degree() == deg_h]
    if not cands:
        return IdealIsoResult(
            "false",
            None,
            shift,
            "the colon ideal has no minimal generator in the forced degree",
        )
    lhs_base = mi
    for coeffs in _combo_candidates(
        p, len(cands), f"ideal-iso:{seed}", exhaust_cap, trials
    ):
        h = Polynomial._raw(p, n, {})
        for c, b in zip(coeffs, cands):
            if c:
                h = h + b * c
        if h.is_zero():
            continue
        if rs.ideal_eq_in_r([h * g for g in lhs_base], rhs):
            return IdealIsoResult(
                "true",
                (rs.nf(h), f),
                shift,
                "multiplier identity h*I = f*J verified by ideal equality",
            )
    count = (p ** len(cands) - 1) // (p - 1)
    if count <= exhaust_cap:
        return IdealIsoResult(
            "false",
            None,
            shift,
            "no multiplier exists in the complete degree slice of the colon ideal",
        )
    return IdealIsoResult(
        "inconclusive", None, shift, "the random multiplier search was exhausted"
    )


# ---------------------------------------------------------------------------
# canonical ideal

@dataclass
class CanonicalIdealResult:
    """An ideal copy of the canonical module, or the reason there is none."""

    status: str  # "found" | "absent" | "inconclusive"
    generators: tuple = ()
    shift: object = None
    omega: object = None
    detail: str = ""


def monomial_generically_gorenstein(rs: RingSpec):
    """Is a monomial quotient Gorenstein at every minimal prime?

    Localizing at the monomial prime spanned by the variables in A turns
    the remaining variables into units, so the local ring is the Artinian
    quotient by the A-parts of the generators, base-changed to a larger
    field; socle dimensions are insensitive to that base change. Returns
    (True, detail) or (False, detail) naming a failing prime.
    """
    names = rs.ring.varnames
    primes = minimal_primes_monomial(rs.ideal)
    gens = [g.lead(GREVLEX)[0] for g in rs.ideal.groebner_basis()]
    for prime in primes:
        if not prime:
            continue
        proj = set()
        for m in gens:
            pm = tuple(m[i] for i in prime)
            if not any(pm):
                raise PipelineInvariantError(
                    "a minimal prime misses a generator of the ideal"
                )
            proj.add(pm)
        sub_gens = [
            Polynomial._raw(rs.p, len(prime), {m: 1}) for m in sorted(proj)
        ]
        sub = RingSpec(rs.p, [names[i] for i in prime], sub_gens)
        s = socle_dimension_of_ring(sub)
        if s != 1:
            label = ", ".join(names[i] for i in prime)
            return False, (
                f"the localization at ({label}) has socle dimension {s}, "
                "so the ring is not generically Gorenstein"
            )
    return True, f"all {len(primes)} monomial minimal primes give Gorenstein localizations"


def _canonical_cross_check(rs: RingSpec, omega: ModulePresentation, seed: int):
    """Check that omega/(f)omega matches the injective hull over R/(f)."""
    f = find_nzds(rs, count=1, seed=seed)[0]
    rq = rs.quotient_by([f])
    hull = injective_hull_of_residue_field(rq)
    reduced = realize_finite(with_modulus(omega.nf_entries(), rq.ideal))
    iso = modules_isomorphic(reduced, hull, seed=seed)
    if iso.verdict == "not_isomorphic":
        raise PipelineInvariantError(
            "the canonical module does not reduce to the injective hull "
            "of the Artinian reduction"
        )


def canonical_ideal(
    rs: RingSpec,
    seed: int = 0,
    trials: int = 400,
    degree_window: int = 3,
    exhaust_cap: int = 2048,
    res=None,
    cross_check: bool = True,
) -> CanonicalIdealResult:
    """Realize the canonical module of a one-dimensional R as an ideal.

    The canonical module omega comes from the dualized minimal resolution;
    the search space is Hom_R(omega, R) scanned degree by degree through
    F_p-combinations of monomial multiples of its generators. A candidate
    map is accepted only on an exact certificate: its image ideal K must
    satisfy HS(K) = t^D * HS(omega). For monomial ideals, non-existence is
    decided by the Gorenstein test at every monomial minimal prime;
    otherwise an exhausted budget is reported as inconclusive.

    Raises NotCohenMacaulayError at depth zero and UnsupportedDimensionError
    outside dimension one. A found copy is cross-checked by reducing omega
    modulo a parameter and comparing with the injective hull.
    """
    dim = rs.dimension
    if dim != 1:
        raise UnsupportedDimensionError(
            f"the canonical-ideal search works in dimension 1, not {dim}"
        )
    if res is None:
        res = minimal_free_resolution(rs)
    if rs.ring.n - res.length < 1:
        raise NotCohenMacaulayError(
            "depth zero in dimension one: no canonical ideal exists"
        )
    omega = canonical_module(rs, res)
    if rs.is_monomial():
        ok, detail = monomial_generically_gorenstein(rs)
        if not ok:
            return CanonicalIdealResult("absent", (), None, omega, detail)
    homs = hom_into_ring_generators(omega)
    if not homs:
        return CanonicalIdealResult(
            "absent", (), None, omega,
            "Hom(omega, R) is zero, so omega embeds in no ideal",
        )
    n, p = rs.ring.n, rs.p
    num_r = rs.ideal.hilbert_numerator()
    num_omega = omega.numerator_scaled()
    deg_lo = min(d for _, d in homs)
    deg_hi = max(d for _, d in homs) + degree_window
    for target in range(deg_lo, deg_hi + 1):
        basis = []
        seen: set = set()
        for w, dw in homs:
            if target < dw:
                continue
            for m in monomials_of_degree(n, target - dw):
                v = vec_nf_mod_ideal(w.mul_term(m, 1), rs.ideal)
                if v.is_zero():
                    continue
                key = tuple(sorted(v.terms.items()))
                if key in seen:
                    continue
                seen.add(key)
                basis.append(v)
        if not basis:
            continue
        tag = f"canonical:{seed}:{target}"
        for coeffs in _combo_candidates(p, len(basis), tag, exhaust_cap, trials):
            u = Vec.zero(p, n)
            for c, b in zip(coeffs, basis):
                if c:
                    u = u + b.scale(c)
            if u.is_zero():
                continue
            polys = u.as_poly_dict()
            gens = [polys[i] for i in sorted(polys)]
            image_num = num_r - rs.preimage_ideal(gens).hilbert_numerator()
            if image_num == num_omega.shift(target):
                found = CanonicalIdealResult(
                    "found",
                    tuple(rs.nf(g) for g in gens),
                    target,
                    omega,
                    f"image of a degree-{target} map with an exact Hilbert series match",
                )
                if cross_check:
                    _canonical_cross_check(rs, omega, seed)
                return found
    return CanonicalIdealResult(
        "inconclusive", (), None, omega,
        "no injective map onto an ideal within the degree window and trial budget",
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
        return {
            "schema": 1,
            "label": self.label,
            "p": self.p,
            "variables": list(self.variables),
            "ideal": list(self.ideal),
            "dimension": self.dimension,
            "depth": self.depth,
            "cohen_macaulay": self.cohen_macaulay,
            "gorenstein": self.gorenstein,
            "gorenstein_witness": self.gorenstein_witness,
            "f_pure": self.f_pure,
            "f_pure_witness": self.f_pure_witness,
            "weakly_fpi": self.weakly_fpi,
            "fpi_method": self.fpi_method,
            "fpi_witness": self.fpi_witness,
            "canonical": self.canonical,
            "minimal_prime_count": self.minimal_prime_count,
            "cross_checks": list(self.cross_checks),
            "notes": list(self.notes),
        }


def _fpi_dimension_zero(rs: RingSpec, report: RingReport, seed: int, trials: int):
    rep = frobenius_fixes_injective_hull(rs, seed=seed, trials=max(trials, 200))
    report.weakly_fpi = rep.iso.verdict_as_flag()
    report.fpi_method = "artinian_E"
    report.fpi_witness = {
        "length_E": rep.length_e,
        "length_FE": rep.length_fe,
        "socle_E": rep.socle_e,
        "socle_FE": rep.socle_fe,
        "frobenius_image_injective": rep.injective,
        "n_witness": rep.n_witness,
        "detail": rep.iso.reason,
    }


def _fpi_dimension_one(
    rs: RingSpec, report: RingReport, seed: int, trials: int, res
):
    names = rs.ring.varnames
    report.fpi_method = "canonical_ideal"
    if report.depth == 0:
        report.weakly_fpi = "false"
        report.fpi_witness = {
            "reason": "depth zero in dimension one; preserving injectivity "
            "forces the ring to be Cohen-Macaulay here"
        }
        return
    ci = canonical_ideal(rs, seed=seed, trials=trials, res=res)
    report.canonical = {
        "status": ci.status,
        "generators": [poly_to_string(g, names) for g in ci.generators],
        "shift": ci.shift,
        "detail": ci.detail,
    }
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
    iso = ideals_isomorphic(rs, gens, bracket, seed=seed, trials=trials)
    report.weakly_fpi = iso.verdict
    witness = {
        "canonical_ideal": [poly_to_string(g, names) for g in gens],
        "bracket_power": [poly_to_string(g, names) for g in bracket],
        "shift": iso.shift,
        "detail": iso.detail,
    }
    if iso.multiplier is not None:
        h, f = iso.multiplier
        witness["multiplier"] = {
            "h": poly_to_string(h, names),
            "f": poly_to_string(f, names),
            "identity": "h * omega = f * omega^[p] as ideals of R",
        }
    report.fpi_witness = witness


def _run_cross_checks(
    rs: RingSpec, report: RingReport, seed: int, deep_checks: bool
):
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
        dual = hom_pushforward_into_ring(push, rs)
        free, twist = is_free_rank_one(dual.presentation)
        if free != (wf == "true"):
            raise PipelineInvariantError(
                "the freeness of Hom(F_*R, R) disagrees with the verdict"
            )
        detail = f"Hom(F_*R, R) free of rank one: {free}"
        if free:
            detail += f" (generator degree {twist})"
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


def classify_ring(
    rs: RingSpec,
    check: str = "all",
    seed: int = 0,
    trials: int = 400,
    max_degree: int = 2,
    deep_checks: bool = True,
) -> RingReport:
    """Classify one ring and return a full report with witnesses.

    `check` selects the work: "all" and "fpi" run the whole pipeline,
    "gorenstein" stops after the socle tests, "fpure" runs only the colon
    containment test (any dimension, gradedness not required), and
    "canonical" reports the canonical-ideal search. Dimensions above one
    raise UnsupportedDimensionError except for "fpure".
    """
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
    res = minimal_free_resolution(rs)
    depth = rs.ring.n - res.length
    report.dimension = dim
    report.depth = depth
    report.cohen_macaulay = depth == dim
    if check == "canonical":
        ci = canonical_ideal(rs, seed=seed, trials=trials, res=res)
        report.canonical = {
            "status": ci.status,
            "generators": [poly_to_string(g, names) for g in ci.generators],
            "shift": ci.shift,
            "detail": ci.detail,
        }
        return report
    nzds = None
    if dim == 1 and depth == 1:
        nzds = find_nzds(rs, count=2, seed=seed, max_degree=max_degree)
    report.gorenstein, report.gorenstein_witness = is_gorenstein(
        rs, seed=seed, nzds=nzds, res=res
    )
    if check == "gorenstein":
        return report
    report.f_pure, report.f_pure_witness = is_f_pure(rs)
    if dim == 0:
        _fpi_dimension_zero(rs, report, seed, trials)
    else:
        _fpi_dimension_one(rs, report, seed, trials, res)
    _run_cross_checks(rs, report, seed, deep_checks)
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
