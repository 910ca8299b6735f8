"""Finite-length graded modules as exact mod-p linear algebra.

A FiniteLengthModule fixes a k-basis and records the (commuting, nilpotent)
action of each ambient variable as a matrix. Matlis duality is transposition,
socles are common kernels, and hom spaces come from the linear conditions
F A_v = B_v F. The injective hull E of the residue field of an Artinian R is
its canonical module Ext^n_S(R, S(-n)) (graded local duality), read off the
minimal free resolution by `resolutions.canonical_module`. A module is a
power E^n exactly when its socle dimension is n and its length is n·λ(R)
(`is_hull_power`); general isomorphism testing combines structural
invariants with a search for an invertible homomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfiniteLengthError, PipelineInvariantError
from .groebner import NormalForm, RingSpec
from .hilbert import standard_monomials
from .linalg import Subspace, is_invertible, matmul, nullspace, rank
from .modgb import lead_module_is_finite_colength
from .resolutions import ModulePresentation, canonical_module, frobenius_functor


class FiniteLengthModule:
    """k-basis plus one action matrix per ambient variable (columns map basis
    vectors), with optional basis degrees for graded bookkeeping."""

    __slots__ = ("p", "dim", "actions", "degrees")

    def __init__(self, p: int, actions, degrees=None):
        self.p = p
        mats = tuple(np.array(a, dtype=np.int64) % p for a in actions)
        if not mats:
            raise ValueError("need at least one variable action")
        h = mats[0].shape[0]
        for a in mats:
            if a.shape != (h, h):
                raise ValueError("action matrices must be square of equal size")
        self.actions = mats
        self.dim = h
        self.degrees = tuple(degrees) if degrees is not None else None
        for i, a in enumerate(self.actions):
            for b in self.actions[i + 1 :]:
                if not np.array_equal(matmul(a, b, p), matmul(b, a, p)):
                    raise ValueError("action matrices must commute")

    @property
    def nvars(self) -> int:
        return len(self.actions)

    def is_zero(self) -> bool:
        return self.dim == 0

    def act_monomial(self, vec, mono):
        """Apply the monomial action x^mono to a coordinate vector, or to
        every column of a matrix."""
        v = np.array(vec, dtype=np.int64) % self.p
        for i, e in enumerate(mono):
            for _ in range(e):
                v = matmul(self.actions[i], v, self.p)
        return v

    def socle_dimension(self) -> int:
        if self.dim == 0:
            return 0
        stacked = np.vstack(self.actions) % self.p
        return self.dim - rank(stacked, self.p)

    def radical_span(self) -> Subspace:
        """Row-space object spanning m*M (images of all variable actions)."""
        sub = Subspace(self.dim, self.p)
        for a in self.actions:
            sub.add_rows(a.T % self.p)
        return sub

    def minimal_generator_count(self) -> int:
        return self.dim - self.radical_span().dim

    def loewy_series(self) -> tuple:
        """Dimensions (λ(M/mM), λ(mM/m^2M), ...) of the radical filtration."""
        out = []
        cur = np.eye(self.dim, dtype=np.int64)  # columns span m^0 M
        d_cur = self.dim  # rank of cur, whose columns are an echelon basis
        while d_cur > 0:
            sub = Subspace(self.dim, self.p)
            sub.add_rows(np.hstack([matmul(a, cur, self.p) for a in self.actions]).T)
            d_nxt = sub.dim
            out.append(d_cur - d_nxt)
            if d_nxt == d_cur:
                raise PipelineInvariantError("radical filtration does not descend")
            cur = sub.basis.T.copy()
            d_cur = d_nxt
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
            self.p, [a.T % self.p for a in self.actions], degs
        )

    def __repr__(self):
        return f"FiniteLengthModule(p={self.p}, dim={self.dim})"


def poly_action_matrix(module: FiniteLengthModule, f) -> np.ndarray:
    """Matrix of the action of a polynomial on the module."""
    out = np.zeros((module.dim, module.dim), dtype=np.int64)
    eye = np.eye(module.dim, dtype=np.int64)
    for mono, c in f.terms.items():
        out = (out + c * module.act_monomial(eye, mono)) % module.p
    return out


# ---------------------------------------------------------------------------
# realizing presentations as finite-length modules

def realize_finite(pres: ModulePresentation) -> FiniteLengthModule:
    """Explicit finite-length module from a graded presentation over R.

    Basis elements are the standard monomial terms (comp, mono) outside the
    lead module of (columns + defining relations); raises InfiniteLengthError
    when some component admits arbitrarily large standard monomials.

    Column k of the action of x_v is the normal form of x_v times basis term
    k, against one reducer table built for the whole call. When that product
    is itself a basis term it is written directly: no lead in its component
    divides it, so the normal form algorithm would return it unchanged.
    """
    ring = pres.ring
    n = ring.n
    p = ring.p
    if pres.nrows == 0:
        return FiniteLengthModule(p, [np.zeros((0, 0), dtype=np.int64)] * n, ())
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
    h = len(basis)
    nf = NormalForm([g.terms for g in gb], p)
    actions = []
    for v in range(n):
        a = np.zeros((h, h), dtype=np.int64)
        for k, (i, m, _) in enumerate(basis):
            target = (i, m[:v] + (m[v] + 1,) + m[v + 1 :])
            row = index.get(target)
            if row is not None:
                a[row, k] = 1
                continue
            for t, c in nf({target: 1}).items():
                a[index[t], k] = c
        actions.append(a)
    module = FiniteLengthModule(p, actions, tuple(d for _, _, d in basis))
    if pres.modulus is not None:
        for g in pres.modulus.generators:
            if poly_action_matrix(module, g).any():
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


def is_hull_power(module: FiniteLengthModule, ring_length: int, n: int) -> bool:
    """Is the module isomorphic to E^n, for E the injective hull of the
    residue field of an Artinian R of length `ring_length`? Decided exactly
    by socle dimension and length; `frobenius_fixes_injective_hull` gives
    the proof.
    """
    return module.dim == n * ring_length and module.socle_dimension() == n


def socle_dimension_of_ring(rs: RingSpec) -> int:
    return realize_ring(rs).socle_dimension()


# ---------------------------------------------------------------------------
# hom spaces and isomorphism testing

def hom_space(src: FiniteLengthModule, dst: FiniteLengthModule):
    """k-basis of module homomorphisms src -> dst, as (dst.dim, src.dim) arrays."""
    p = src.p
    hM, hN = src.dim, dst.dim
    if hM == 0 or hN == 0:
        return []
    if src.degrees is not None and dst.degrees is not None:
        return _hom_space_graded(src, dst)
    rows = []
    eyeM = np.eye(hM, dtype=np.int64)
    eyeN = np.eye(hN, dtype=np.int64)
    for a, b in zip(src.actions, dst.actions):
        rows.append((np.kron(eyeN, a.T) - np.kron(b, eyeM)) % p)
    big = np.vstack(rows) % p
    basis = nullspace(big, p)
    return [np.array(v, dtype=np.int64).reshape(hN, hM) % p for v in basis]


def _hom_space_graded(src: FiniteLengthModule, dst: FiniteLengthModule):
    """Hom basis assembled shift by shift (every hom splits into graded parts)."""
    p = src.p
    hM, hN = src.dim, dst.dim
    shifts = sorted({dst.degrees[i] - src.degrees[j] for i in range(hN) for j in range(hM)})
    out = []
    for s in shifts:
        unknowns = [
            (i, j)
            for i in range(hN)
            for j in range(hM)
            if dst.degrees[i] - src.degrees[j] == s
        ]
        if not unknowns:
            continue
        pos = {u: k for k, u in enumerate(unknowns)}
        eq_rows = []
        for v in range(src.nvars):
            A = src.actions[v]
            B = dst.actions[v]
            for i in range(hN):
                for j in range(hM):
                    if dst.degrees[i] - src.degrees[j] != s + 1:
                        continue
                    row = [0] * len(unknowns)
                    for k in range(hM):
                        if A[k, j] and (i, k) in pos:
                            row[pos[(i, k)]] = (row[pos[(i, k)]] + int(A[k, j])) % p
                    for k in range(hN):
                        if B[i, k] and (k, j) in pos:
                            row[pos[(k, j)]] = (row[pos[(k, j)]] - int(B[i, k])) % p
                    if any(row):
                        eq_rows.append(row)
        if eq_rows:
            basis = nullspace(np.array(eq_rows, dtype=np.int64) % p, p)
        else:
            basis = np.eye(len(unknowns), dtype=np.int64)
        for vec in basis:
            mat = np.zeros((hN, hM), dtype=np.int64)
            for (i, j), k in pos.items():
                mat[i, j] = vec[k] % p
            if mat.any():
                out.append(mat)
    return out


@dataclass(frozen=True)
class IsoResult:
    verdict: str  # "isomorphic" | "not_isomorphic" | "inconclusive"
    reason: str
    witness: object = None

    @property
    def decided(self) -> bool:
        return self.verdict != "inconclusive"

    def verdict_as_flag(self) -> str:
        if self.verdict == "isomorphic":
            return "true"
        if self.verdict == "not_isomorphic":
            return "false"
        return "inconclusive"


def _normalized_coefficient_vectors(p: int, d: int):
    """All length-d coefficient vectors with first nonzero entry 1."""
    from itertools import product

    for lead in range(d):
        for tail in product(range(p), repeat=d - lead - 1):
            yield (0,) * lead + (1,) + tail


def span_search(p: int, k: int, combine, accept, cap: int, trials: int, sampler):
    """Find a candidate that `accept` takes in the F_p-span of k basis elements.

    While the span has (p^k - 1)/(p - 1) <= cap lines, `combine` maps each
    normalized coefficient vector to a candidate, so every line is tried
    once and a miss refutes. Past the cap, `sampler()` gives the site's
    seeded draw function and `trials` draws are tried. Returns
    (hit or None, whether the scan was exhaustive).
    """
    if (p**k - 1) // (p - 1) <= cap:
        for coeffs in _normalized_coefficient_vectors(p, k):
            cand = combine(coeffs)
            if accept(cand):
                return cand, True
        return None, True
    draw = sampler()
    for _ in range(trials):
        cand = draw()
        if accept(cand):
            return cand, False
    return None, False


HOM_SPAN_CAP = 65536  # hom classes walked before the hom space is sampled


def modules_isomorphic(
    src: FiniteLengthModule,
    dst: FiniteLengthModule,
    trials: int = 500,
    seed: int = 0,
) -> IsoResult:
    """Decide src ≅ dst (as modules, grading ignored).

    Invariant mismatches refute; otherwise `span_search` looks for an
    invertible element of the hom space, exhaustively up to HOM_SPAN_CAP
    classes and by seeded numpy sampling past it (a sampled miss is only
    "inconclusive").
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
        return IsoResult("isomorphic", "both modules are zero", np.zeros((0, 0), dtype=np.int64))
    basis = hom_space(src, dst)
    if not basis:
        return IsoResult("not_isomorphic", "hom space is zero")
    d = len(basis)
    stacked = np.stack([b.reshape(-1) for b in basis])

    def combination(coeffs):
        return matmul(np.array(coeffs, dtype=np.int64), stacked, p).reshape(basis[0].shape)

    def sampler():
        rng = np.random.default_rng(seed)
        return lambda: combination(rng.integers(0, p, size=d))

    cand, exhaustive = span_search(
        p, d, combination, lambda m: m.any() and is_invertible(m, p), HOM_SPAN_CAP, trials, sampler
    )
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

@dataclass(frozen=True)
class ArtinianFrobeniusReport:
    """Outcome of comparing F(E) against powers of E for Artinian R.

    `iso` answers F(E) ≅ E (the weakly-FPI test); `injective` records whether
    F(E) ≅ E^n for some n (so F(E) stays injective), with the witnessing n.
    """

    iso: IsoResult
    injective: str  # "true" | "false"
    n_witness: object
    length_e: int
    length_fe: int
    socle_e: int
    socle_fe: int


def frobenius_fixes_injective_hull(rs: RingSpec, res=None) -> ArtinianFrobeniusReport:
    """Test F(E) ≅ E for Artinian R, E the injective hull of the residue field.

    By graded local duality E ≅ Ext^n_S(R, S(-n)), the canonical module of
    R = S/I, so E is `canonical_module` read off the minimal free resolution
    `res` (computed when not given): the cokernel of the transposed last
    map. E is pushed through the Frobenius functor and realized. Every
    comparison with a power of E is decided by `is_hull_power`: the socle of
    a finite-length module M is essential, so M embeds in E^s for
    s = dim_k soc M; Matlis duality gives λ(E) = λ(R); so M ≅ E^n exactly
    when s = n and λ(M) = n·λ(R), equal lengths forcing the embedding to be
    onto. The same certificate with n = 1 checks the constructed E, and a
    failure raises PipelineInvariantError. F(E) ≅ E is the case n = 1, and
    F(E) stays injective exactly when F(E) ≅ E^n for the one n that length
    counting allows.
    """
    pres_e = canonical_module(rs, res)
    length = realize_ring(rs).dim
    e_mod = realize_finite(pres_e)
    if not is_hull_power(e_mod, length, 1):
        raise PipelineInvariantError(
            f"canonical module has length {e_mod.dim} and socle "
            f"{e_mod.socle_dimension()}, expected {length} and 1"
        )
    fe = realize_finite(frobenius_functor(pres_e))
    s = fe.socle_dimension()
    if fe.dim != length:
        iso = IsoResult(
            "not_isomorphic",
            f"length mismatch: λ(F^1E) = {fe.dim}, λ(E) = {length}",
        )
    elif s != 1:
        iso = IsoResult("not_isomorphic", f"invariant mismatch: socle 1 vs {s}")
    else:
        iso = IsoResult("isomorphic", "socle dimension 1 and length λ(R) certify F^1E ≅ E")
    n, rest = divmod(fe.dim, length)
    if not rest and is_hull_power(fe, length, n):
        injective, n_witness = "true", n
    else:
        injective, n_witness = "false", None
    return ArtinianFrobeniusReport(
        iso=iso,
        injective=injective,
        n_witness=n_witness,
        length_e=length,
        length_fe=fe.dim,
        socle_e=1,
        socle_fe=s,
    )
