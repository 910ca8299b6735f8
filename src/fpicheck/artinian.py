"""Finite-length graded modules as exact mod-p linear algebra.

A FiniteLengthModule fixes a k-basis and records the (commuting, nilpotent)
action of each ambient variable as sparse columns of Python ints, so every
product is exact over the whole prime range. Matlis duality is
transposition, socles are common kernels, and hom spaces come from the
linear conditions F A_v = B_v F. The injective hull E of the residue field
of an Artinian R is its canonical module Ext^n_S(R, S(-n)) (graded local
duality), read off the minimal free resolution by
`resolutions.canonical_module`. A module is a power E^n exactly when its
socle dimension is n and its length is n·λ(R), and `hull_power` returns
that n: every comparison of a finite-length module with a power of a hull
goes through it. `canonical_cross_check` is the one check that a canonical
module reduces to the hull of an Artinian reduction R/fR, with f = None for
an Artinian R itself. General isomorphism testing (`modules_isomorphic`,
which the pipeline does not call) combines structural invariants with a
search for an invertible homomorphism.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product

from .errors import InfiniteLengthError, PipelineInvariantError
from .groebner import NormalForm, RingSpec
from .hilbert import standard_monomials
from .linalg import Subspace, is_invertible, nullspace, rank
from .modgb import lead_module_is_finite_colength
from .resolutions import (
    ModulePresentation,
    canonical_module,
    frobenius_functor,
    with_modulus,
)


def _apply(cols, vec: dict, p: int) -> dict:
    """Image of the sparse vector {index: c} under the map whose sparse
    columns are `cols`."""
    if len(vec) == 1:
        ((j, c),) = vec.items()
        return cols[j] if c == 1 else {i: c * d % p for i, d in cols[j].items()}
    out: dict = {}
    for j, c in vec.items():
        for i, d in cols[j].items():
            out[i] = out.get(i, 0) + c * d
    return {i: c % p for i, c in out.items() if c % p}


def _transpose(cols, h: int) -> list:
    """The sparse columns of the transpose of an h×h map given by columns."""
    out: list = [{} for _ in range(h)]
    for k, col in enumerate(cols):
        for i, c in col.items():
            out[i][k] = c
    return out


def _dense(vec: dict, h: int) -> list:
    out = [0] * h
    for i, c in vec.items():
        out[i] = c
    return out


class FiniteLengthModule:
    """k-basis plus the action of each ambient variable, with optional basis
    degrees for graded bookkeeping.

    `actions[v][k]` is the image of basis vector k under x_v, a sparse
    column {row: c} with c in [1, p), and h is the dimension. The actions
    must commute.
    """

    __slots__ = ("p", "dim", "actions", "degrees", "_socle")

    def __init__(self, p: int, actions, h: int, degrees=None):
        if not actions:
            raise ValueError("need at least one variable action")
        self.p = p
        self.dim = h
        self.actions = tuple(tuple(cols) for cols in actions)
        self.degrees = tuple(degrees) if degrees is not None else None
        self._socle = None
        for i, a in enumerate(self.actions):
            for b in self.actions[i + 1 :]:
                for k in range(h):
                    if _apply(a, b[k], p) != _apply(b, a[k], p):
                        raise ValueError("action matrices must commute")

    @property
    def nvars(self) -> int:
        return len(self.actions)

    def is_zero(self) -> bool:
        return self.dim == 0

    def act_monomial(self, vec: dict, mono) -> dict:
        """Apply the monomial action x^mono to a sparse vector {index: c}
        with entries in [1, p)."""
        for cols, e in zip(self.actions, mono):
            for _ in range(e):
                if not vec:
                    return vec
                vec = _apply(cols, vec, self.p)
        return vec

    def act_poly(self, vec: dict, f) -> dict:
        """Apply the polynomial f to a sparse vector {index: c} with entries
        in [1, p)."""
        out: dict = {}
        for mono, c in f.terms.items():
            for i, d in self.act_monomial(vec, mono).items():
                out[i] = out.get(i, 0) + c * d
        return {i: c % self.p for i, c in out.items() if c % self.p}

    def socle_dimension(self) -> int:
        """dim − rank of the stacked actions: the socle is their common
        kernel. Row k of the stacked matrix holds column k of every action.
        Computed once per module, for `hull_power` and a witness alike."""
        if self._socle is None:
            h = self.dim
            rows = []
            for k in range(h):
                row = [0] * (h * len(self.actions))
                for v, cols in enumerate(self.actions):
                    for i, c in cols[k].items():
                        row[v * h + i] = c
                rows.append(row)
            self._socle = h - rank(rows, self.p)
        return self._socle

    def radical_span(self) -> Subspace:
        """Row-space object spanning m*M (images of all variable actions)."""
        sub = Subspace(self.dim, self.p)
        for cols in self.actions:
            sub.add_rows([_dense(c, self.dim) for c in cols])
        return sub

    def minimal_generator_count(self) -> int:
        return self.dim - self.radical_span().dim

    def loewy_series(self) -> tuple:
        """Dimensions (λ(M/mM), λ(mM/m^2M), ...) of the radical filtration."""
        h, p = self.dim, self.p
        out = []
        cur = [{k: 1} for k in range(h)]  # spans m^0 M
        while cur:
            sub = Subspace(h, p)
            sub.add_rows([_dense(_apply(cols, v, p), h) for cols in self.actions for v in cur])
            if sub.dim == len(cur):
                raise PipelineInvariantError("radical filtration does not descend")
            out.append(len(cur) - sub.dim)
            cur = [{i: c for i, c in enumerate(row) if c} for row in sub.basis]
        return tuple(out)

    def invariants(self) -> dict:
        return {
            "length": self.dim,
            "socle": self.socle_dimension(),
            "mingens": self.minimal_generator_count(),
            "loewy": self.loewy_series(),
        }

    def matlis_dual(self) -> "FiniteLengthModule":
        degs = tuple(-d for d in self.degrees) if self.degrees is not None else None
        return FiniteLengthModule(
            self.p, [_transpose(cols, self.dim) for cols in self.actions], self.dim, degs
        )

    def __repr__(self):
        return f"FiniteLengthModule(p={self.p}, dim={self.dim})"


# ---------------------------------------------------------------------------
# realizing presentations as finite-length modules

def realize_finite(pres: ModulePresentation) -> FiniteLengthModule:
    """Explicit finite-length module from a graded presentation over R.

    Basis elements are the standard monomial terms (comp, mono) outside the
    lead module of (columns + defining relations); raises InfiniteLengthError
    when some component admits arbitrarily large standard monomials.

    Column k of the action of x_v is the normal form of x_v times basis term
    k, against one reducer table built for the whole call, written straight
    into a sparse column. When that product is itself a basis term it is
    written directly: no lead in its component divides it, so the normal
    form algorithm would return it unchanged. Every defining relation of the
    ring must then act as zero, or PipelineInvariantError is raised.
    """
    ring = pres.ring
    n = ring.n
    p = ring.p
    if pres.nrows == 0:
        return FiniteLengthModule(p, [()] * n, 0, ())
    gb = pres.groebner_columns()
    lead = pres.lead_data()
    if not lead_module_is_finite_colength(lead, pres.nrows, n):
        raise InfiniteLengthError("presentation does not define a finite-length module")
    basis = []
    for i in range(pres.nrows):
        d = 0
        while found := standard_monomials(lead.get(i, ()), n, d):
            for m in found:
                basis.append((i, m, pres.scale * d + pres.row_twists[i]))
            d += 1
    basis.sort(key=lambda t: (t[2], t[0], t[1]))
    index = {(i, m): k for k, (i, m, _) in enumerate(basis)}
    nf = NormalForm([g.terms for g in gb], p)
    actions = []
    for v in range(n):
        cols = []
        for i, m, _ in basis:
            target = (i, m[:v] + (m[v] + 1,) + m[v + 1 :])
            row = index.get(target)
            if row is not None:
                cols.append({row: 1})
            else:
                cols.append({index[t]: c for t, c in nf({target: 1}).items()})
        actions.append(cols)
    module = FiniteLengthModule(p, actions, len(basis), tuple(d for _, _, d in basis))
    if pres.modulus is not None:
        # basis term (i, m) is x^m times the term (i, 1), and the actions
        # commute, so a relation that kills every (i, 1) kills the module
        one = (0,) * n
        gens = [index[(i, one)] for i in range(pres.nrows) if (i, one) in index]
        for g in pres.modulus.generators:
            if any(module.act_poly({k: 1}, g) for k in gens):
                raise PipelineInvariantError(
                    "a defining relation of the ring acts nontrivially"
                )
    return module


def ring_as_module(rs: RingSpec) -> ModulePresentation:
    """R presented over itself: one generator in degree zero, no relations."""
    return ModulePresentation(rs.ring, rs.ideal, (), (0,), ())


def realize_ring(rs: RingSpec) -> FiniteLengthModule:
    """Artinian R as a finite-length module over itself, realized once per
    RingSpec and kept on it: the socle test and the injective hull share it."""
    if rs._realized is None:
        rs._realized = realize_finite(ring_as_module(rs))
    return rs._realized


def hull_power(module: FiniteLengthModule, ring_length: int):
    """The n with module ≅ E^n, for E the injective hull of the residue
    field of an Artinian R of length `ring_length`, or None when there is
    none. Decided exactly by length and socle dimension: the socle of a
    finite-length module M is essential, so M embeds in E^s for
    s = dim_k soc M; Matlis duality gives λ(E) = λ(R); so M ≅ E^n exactly
    when s = n and λ(M) = n·λ(R), equal lengths forcing the embedding to be
    onto. The socle is computed only when λ(R) divides λ(M).
    """
    n, rest = divmod(module.dim, ring_length)
    if rest or module.socle_dimension() != n:
        return None
    return n


def artinian_reduction(rs: RingSpec, pres: ModulePresentation, f=None):
    """(M/fM realized over R/fR, λ(R/fR)) for the module M over R that
    `pres` presents: M ⊗ R/fR keeps the presentation, read mod I + (f).
    With f None, R is Artinian and M is realized over R itself."""
    if f is not None:
        rs = rs.quotient_by([f])
        pres = with_modulus(pres, rs.ideal)
    return realize_finite(pres), realize_ring(rs).dim


def canonical_cross_check(rs: RingSpec, omega: ModulePresentation, f=None):
    """Check that omega/f·omega is the injective hull over R/fR, for the
    canonical module omega of R and a non-zero-divisor f (f None: omega of
    an Artinian R is its injective hull): `hull_power` 1."""
    if hull_power(*artinian_reduction(rs, omega, f)) != 1:
        raise PipelineInvariantError(
            "the canonical module does not reduce to the injective hull "
            "of the Artinian reduction"
        )


def socle_dimension_of_ring(rs: RingSpec) -> int:
    return realize_ring(rs).socle_dimension()


# ---------------------------------------------------------------------------
# hom spaces and isomorphism testing

def hom_space(src: FiniteLengthModule, dst: FiniteLengthModule) -> list:
    """k-basis of module homomorphisms src -> dst, as dense (dst.dim × src.dim)
    matrices (lists of rows). Graded modules are solved one degree shift at
    a time: every hom splits into graded parts."""
    hM, hN = src.dim, dst.dim
    if hM == 0 or hN == 0:
        return []
    entries = [(i, j) for i in range(hN) for j in range(hM)]
    if src.degrees is not None and dst.degrees is not None:
        shift = {(i, j): dst.degrees[i] - src.degrees[j] for i, j in entries}
        groups = [[u for u in entries if shift[u] == s] for s in sorted(set(shift.values()))]
    else:
        groups = [entries]
    out = []
    for unknowns in groups:
        for vec in _hom_kernel(src, dst, unknowns):
            mat = [[0] * hM for _ in range(hN)]
            for (i, j), c in zip(unknowns, vec):
                mat[i][j] = c
            out.append(mat)
    return out


def _hom_kernel(src: FiniteLengthModule, dst: FiniteLengthModule, unknowns) -> list:
    """Basis of the solutions of F A_v = B_v F for every variable v, over
    the entries (i, j) of F listed in `unknowns` (the others are zero)."""
    p = src.p
    equations: dict = {}  # (v, i, j) -> {unknown: coefficient} of entry (i, j) of F A_v - B_v F
    for v, (a, b) in enumerate(zip(src.actions, dst.actions)):
        a_rows = _transpose(a, src.dim)
        for u, (i, k) in enumerate(unknowns):
            for j, c in a_rows[k].items():  # F[i,k] A[k,j]
                eq = equations.setdefault((v, i, j), {})
                eq[u] = eq.get(u, 0) + c
            for i2, c in b[i].items():  # B[i2,i] F[i,k]
                eq = equations.setdefault((v, i2, k), {})
                eq[u] = eq.get(u, 0) - c
    rows = []
    for eq in equations.values():
        row = [0] * len(unknowns)
        for u, c in eq.items():
            row[u] = c % p
        if any(row):
            rows.append(row)
    return nullspace(rows, len(unknowns), p)


@dataclass(frozen=True)
class IsoResult:
    verdict: str  # "isomorphic" | "not_isomorphic" | "inconclusive"
    reason: str
    witness: object = None  # an invertible homomorphism, as a list of rows

    @property
    def decided(self) -> bool:
        return self.verdict != "inconclusive"


def _normalized_coefficient_vectors(p: int, d: int):
    """All length-d coefficient vectors with first nonzero entry 1."""
    for lead in range(d):
        for tail in product(range(p), repeat=d - lead - 1):
            yield (0,) * lead + (1,) + tail


def _rational_normal_curve(p: int, k: int, count: int):
    """The first `count` of the p + 1 points (1, c, ..., c^(k-1)), c = 0, ...,
    p - 1, and (0, ..., 0, 1) of the rational normal curve in F_p^k."""
    for c in range(min(count, p)):
        yield tuple(pow(c, i, p) for i in range(k))
    if count > p:
        yield (0,) * (k - 1) + (1,)


def span_walks_curve(p: int, k: int, cap: int) -> bool:
    """Does `span_search` walk a curve, past `cap` lines, on a k-dim span?"""
    return k >= 2 and (p**k - 1) // (p - 1) > cap


def span_search(p: int, k: int, combine, accept, cap: int, subspaces: int):
    """Find a candidate that `accept` takes in the F_p-span of k basis elements.

    While the span has (p^k - 1)/(p - 1) <= cap lines, or at most one,
    `combine` maps each normalized coefficient vector to a candidate, so
    every line is tried once. Past the cap the search walks the rational
    normal curve (`_rational_normal_curve`) for a(k - 1) + 1 points,
    a = `subspaces`, or all p + 1 when that is more. A hyperplane
    h_0 x_0 + ... + h_(k-1) x_(k-1) = 0 holds (1, c, ..., c^(k-1)) exactly
    when c is a root of the nonzero polynomial sum h_i t^i, and holds
    (0, ..., 0, 1) only when h_(k-1) = 0, that is when the degree drops:
    so it holds at most k - 1 of the points. A proper subspace lies in a
    hyperplane, so when the rejected coefficient vectors lie in a union of
    at most a proper subspaces, any a(k - 1) + 1 of the points hold an
    accepted one. Returns (hit or None, complete): complete when every
    line was tried or the walk reached a(k - 1) + 1 <= p + 1 points. A
    complete miss means that no line is accepted, or, past the cap, that
    the rejected vectors lie in no union of a proper subspaces.
    """
    if span_walks_curve(p, k, cap):
        need = subspaces * (k - 1) + 1
        vectors, complete = _rational_normal_curve(p, k, need), need <= p + 1
    else:
        vectors, complete = _normalized_coefficient_vectors(p, k), True
    for coeffs in vectors:
        cand = combine(coeffs)
        if accept(cand):
            return cand, complete
    return None, complete


HOM_SPAN_CAP = 65536  # hom classes walked before the hom space is sampled


def modules_isomorphic(
    src: FiniteLengthModule,
    dst: FiniteLengthModule,
    trials: int = 500,
    seed: int = 0,
) -> IsoResult:
    """Decide src ≅ dst (as modules, grading ignored).

    Invariant mismatches refute; otherwise the hom space is searched for an
    invertible element: every class while there are at most HOM_SPAN_CAP,
    and past that `trials` uniform draws from the stream tagged `hom:{seed}`
    (a sampled miss is only "inconclusive"). The non-invertible maps form
    a determinantal hypersurface, not a union of subspaces, so the curve
    walk of `span_search` proves nothing here. The witness is the
    invertible map as a list of rows.
    """
    p = src.p
    if dst.p != p or dst.nvars != src.nvars:
        return IsoResult("not_isomorphic", "different ambient data")
    inv_s, inv_d = src.invariants(), dst.invariants()
    for key in ("length", "socle", "mingens", "loewy"):
        if inv_s[key] != inv_d[key]:
            return IsoResult(
                "not_isomorphic", f"invariant mismatch: {key} {inv_s[key]} vs {inv_d[key]}"
            )
    if src.dim == 0:
        return IsoResult("isomorphic", "both modules are zero", [])
    basis = hom_space(src, dst)
    if not basis:
        return IsoResult("not_isomorphic", "hom space is zero")
    d, hN, hM = len(basis), dst.dim, src.dim
    flat_basis = [[x for row in b for x in row] for b in basis]

    def combination(coeffs):
        flat = [0] * (hN * hM)
        for c, b in zip(coeffs, flat_basis):
            if c:
                flat = [x + c * y for x, y in zip(flat, b)]
        flat = [x % p for x in flat]
        return [flat[i * hM : (i + 1) * hM] for i in range(hN)]

    def accept(m):
        return any(map(any, m)) and is_invertible(m, p)

    exhaustive = (p**d - 1) // (p - 1) <= HOM_SPAN_CAP
    if exhaustive:
        vectors = _normalized_coefficient_vectors(p, d)
    else:
        rng = random.Random(f"hom:{seed}")
        vectors = (tuple(rng.randrange(p) for _ in range(d)) for _ in range(trials))
    cand = next((m for m in map(combination, vectors) if accept(m)), None)
    if cand is not None:
        return IsoResult("isomorphic", "invertible homomorphism found", cand)
    if exhaustive:
        return IsoResult(
            "not_isomorphic",
            f"no invertible map among all {(p**d - 1) // (p - 1)} hom classes",
        )
    return IsoResult(
        "inconclusive",
        f"no invertible map in {trials} random samples from a {d}-dimensional hom space",
    )


# ---------------------------------------------------------------------------
# the depth-zero Frobenius test on injective hulls

def frobenius_fixes_injective_hull(rs: RingSpec):
    """Test F(E) ≅ E for Artinian R, E the injective hull of the residue
    field; returns (verdict, witness dict).

    By graded local duality E ≅ Ext^n_S(R, S(-n)), the canonical module of
    R = S/I, so E is `canonical_module` read off the minimal free resolution
    R keeps: the cokernel of the transposed last map. `canonical_cross_check`
    with no parameter checks it, as `canonical_ideal` checks omega/l·omega in
    dimension one. E is pushed through the Frobenius functor and realized,
    and `hull_power` gives the n with F(E) ≅ E^n, if any: F(E) ≅ E is the
    verdict n = 1, and F(E) stays injective exactly when some n exists. The
    witness records both lengths and socle dimensions, that n as `n_witness`
    (None when F(E) is not injective), and the invariant that decided.
    """
    pres_e = canonical_module(rs)
    canonical_cross_check(rs, pres_e)
    length = realize_ring(rs).dim
    fe = realize_finite(frobenius_functor(pres_e))
    n = hull_power(fe, length)
    s = fe.socle_dimension()
    if fe.dim != length:
        detail = f"length mismatch: λ(F^1E) = {fe.dim}, λ(E) = {length}"
    elif s != 1:
        detail = f"invariant mismatch: socle 1 vs {s}"
    else:
        detail = "socle dimension 1 and length λ(R) certify F^1E ≅ E"
    return n == 1, {
        "length_E": length,
        "length_FE": fe.dim,
        "socle_E": 1,
        "socle_FE": s,
        "frobenius_image_injective": "false" if n is None else "true",
        "n_witness": n,
        "detail": detail,
    }
