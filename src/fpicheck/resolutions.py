"""Graded presentations, minimal free resolutions, and canonical modules.

Conventions. Every map between free modules is a tuple of `Vec` columns: a
map ⊕ S(-col_twists) -> ⊕ S(-row_twists) is one column in S^nrows per
source generator, and a presentation M = coker(A) keeps the columns of A.
Rows index the generators of M (degrees row_twists, so F_0 = ⊕ S(-σ_i)),
columns its relations (degrees col_twists). A term of column j in row i
must have scaled degree col_twists[j] - row_twists[i], with `scale` the
degree of the ambient variables: Frobenius pushforwards measure generator
degrees in p-th roots, ordinary modules use scale 1. `transpose` and
`frobenius_columns` are the only matrix operations.

`modulus` is None for modules over the polynomial ring S itself and the
defining ideal I for modules over R = S/I; column entries are then
representatives in S understood mod I. A module over R is a module over S
plus the columns I·e_j (`modgb.ideal_columns`), so one resolution loop
(`_resolve`), one subquotient (`subquotient_presentation`) and one kernel
call (`modgb.kernel_over_quotient`) serve both rings.

Graded Nakayama is decided in one place, `minimal_generators`: an
irredundant homogeneous set is minimal. A presentation is minimized by
`minimal_presentation`, the subquotient span(e_i + columns)/span(columns),
so no relation of the result has a unit entry.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InfiniteLengthError, NotCohenMacaulayError, PipelineInvariantError
from .gfpoly import mono_degree
from .groebner import Ideal, NormalForm, PolyRing, RingSpec, ideal_colon
from .hilbert import Numerator, monomial_quotient, standard_monomials
from .modgb import (
    Vec,
    ideal_columns,
    kernel_over_quotient,
    lead_module,
    module_groebner,
    syzygy_basis,
    vec_nf_mod_ideal,
)


def transpose(cols, nrows: int, ring: PolyRing) -> list:
    """Columns of Aᵀ, for A given by `cols` in S^nrows: row i of A becomes
    a column in S^len(cols)."""
    rows = [{} for _ in range(nrows)]
    for j, v in enumerate(cols):
        for (i, m), c in v.terms.items():
            rows[i][(j, m)] = c
    return [Vec._raw(ring.p, ring.n, terms) for terms in rows]


def frobenius_columns(cols, e: int, modulus: Ideal) -> list:
    """Columns of A^[q], q = p^e: every exponent times q, the coefficients
    fixed by Frobenius on F_p.

    When R = S/modulus is Artinian with top degree t, a term of degree d
    with q·d > t is dropped: its q-th power has degree past t and so lies
    in I. This is an exact normal form mod I, and it keeps entries of
    degree about q out of the module Groebner basis.
    """
    hd = modulus.hilbert_numerator().hilbert_data(modulus.ring.n)
    top = len(hd.numerator) - 1 if hd.dimension == 0 else None
    q = modulus.ring.p**e
    return [
        Vec._raw(v.p, v.nvars, {
            (i, tuple(q * x for x in m)): c
            for (i, m), c in v.terms.items()
            if top is None or q * mono_degree(m) <= top
        })
        for v in cols
    ]


class ModulePresentation:
    """A graded module coker(A) over S or R, A given by its columns."""

    __slots__ = (
        "ring",
        "modulus",
        "columns",
        "row_twists",
        "col_twists",
        "scale",
        "_lead",
    )

    def __init__(
        self,
        ring: PolyRing,
        modulus,
        columns,
        row_twists,
        col_twists,
        scale: int = 1,
    ):
        self.ring = ring
        self.modulus = modulus
        self.columns = tuple(columns)
        self.row_twists = tuple(row_twists)
        self.col_twists = tuple(col_twists)
        self.scale = scale
        self._lead = None
        if len(self.columns) != len(self.col_twists):
            raise ValueError("column count does not match col twists")
        nrows = len(self.row_twists)
        for j, v in enumerate(self.columns):
            for i, m in v.terms:
                if not 0 <= i < nrows:
                    raise ValueError(f"column {j} has a term in row {i} of {nrows}")
                want = self.col_twists[j] - self.row_twists[i]
                if self.scale * mono_degree(m) != want:
                    raise ValueError(
                        f"entry ({i},{j}) has a term of scaled degree "
                        f"{self.scale * mono_degree(m)}, twists demand {want}"
                    )

    @property
    def nrows(self) -> int:
        return len(self.row_twists)

    @property
    def ncols(self) -> int:
        return len(self.col_twists)

    def groebner_columns(self):
        """Module Groebner basis of (columns + modulus relations). With no
        columns it is g·e_j for g in the modulus's cached basis, last component
        first: the kernel never pairs elements led in different components."""
        if self._lead is None:
            if self.columns or self.modulus is None:
                gb = module_groebner([*self.columns, *ideal_columns(self.modulus, self.nrows)])
            else:
                basis = self.modulus.groebner_basis()
                gb = [Vec._raw(self.ring.p, self.ring.n, {(j, m): c for m, c in g.terms.items()})
                      for j in reversed(range(self.nrows)) for g in basis]
            self._lead = (tuple(gb), lead_module(gb))
        return self._lead[0]

    def lead_data(self) -> dict:
        """Lead module of (columns + modulus relations), per component."""
        self.groebner_columns()
        return self._lead[1]

    def hf(self, d: int) -> int:
        """k-dimension of the cokernel in scaled degree d."""
        lead = self.lead_data()
        total = 0
        for i, s in enumerate(self.row_twists):
            rem = d - s
            if rem < 0 or rem % self.scale:
                continue
            total += len(standard_monomials(lead.get(i, ()), self.ring.n, rem // self.scale))
        return total

    def numerator_scaled(self) -> Numerator:
        """Laurent numerator of the Hilbert series over (1-t^scale)^n."""
        lead = self.lead_data()
        total = Numerator()
        for i, s in enumerate(self.row_twists):
            num = monomial_quotient(lead.get(i, ()), self.ring.n)
            total += num.subst(self.scale).shift(s)
        return total

    def __repr__(self):
        return (
            f"ModulePresentation({self.nrows} gens, {self.ncols} rels, "
            f"twists {self.row_twists}, scale {self.scale})"
        )


def frobenius_functor(pres: ModulePresentation, e: int = 1) -> ModulePresentation:
    """Base change along e-fold Frobenius: entries and twists to q-th powers.

    For M = coker(A) over R this is coker(A^[q]), q = p^e, the right-exact
    Frobenius functor applied to the presentation; `frobenius_columns`
    drops the terms that vanish in an Artinian R.
    """
    if pres.modulus is None:
        raise ValueError("Frobenius functor is applied to modules over a quotient")
    q = pres.ring.p ** e
    return ModulePresentation(
        pres.ring,
        pres.modulus,
        frobenius_columns(pres.columns, e, pres.modulus),
        [q * s for s in pres.row_twists],
        [q * g for g in pres.col_twists],
        pres.scale,
    )


# ---------------------------------------------------------------------------
# minimal generators (graded Nakayama: irredundant homogeneous sets are minimal)

def minimal_generators(vecs, twists, modulus=None, image=()):
    """Irredundant subset of homogeneous `vecs` in ⊕ S(-twists) generating
    the same submodule modulo the one generated by `image`.

    Candidates are processed in weakly increasing degree; each is dropped if
    it already lies in the submodule generated by the accepted ones, the
    `image` columns, and the modulus multiples of the ambient basis when
    working over a quotient. The basis of that submodule, and the reducer
    table of its normal form, are rebuilt only after a candidate is accepted.
    """
    items = []
    for v in vecs:
        if v.is_zero():
            continue
        if modulus is not None:
            v = vec_nf_mod_ideal(v, modulus)
            if v.is_zero():
                continue
        items.append((v.degree_with_twists(twists), v))
    items.sort(key=lambda t: t[0])
    base = list(image) + ideal_columns(modulus, len(twists))
    accepted = []
    nf = None
    for _, v in items:
        if accepted or base:
            if nf is None:
                nf = NormalForm([g.terms for g in module_groebner(accepted + base)], v.p)
            if not nf(dict(v.terms)):
                continue
        accepted.append(v)
        nf = None
    return accepted


def minimal_presentation(pres: ModulePresentation) -> ModulePresentation:
    """coker(pres) on a minimal generating set, with minimal relations.

    `subquotient_presentation` presents N = span(e_i + columns)/span(columns)
    = F/im A over S minimally: no relation has a unit entry or is zero. Over
    R = S/I the result is read over R, and that is base change: N ⊗_S R =
    F/(im A + I·F) = M, and I ⊆ m gives N/mN = M/mM, so the minimal
    generators and relations of N are minimal for M, with no I·e_i adjoined.
    """
    if pres.scale != 1:
        raise ValueError("minimal presentations expect scale-1 gradings")
    units = [Vec.unit(pres.ring.p, pres.ring.n, i) for i in range(pres.nrows)]
    return subquotient_presentation(
        pres.ring, pres.modulus, pres.row_twists, units, pres.columns
    )


# ---------------------------------------------------------------------------
# free resolutions over the polynomial ring and over its quotients

@dataclass(frozen=True)
class FreeResolution:
    """Minimal graded free resolution ... -> F_1 -> F_0 of a module.

    maps[k] holds the columns of d_{k+1}: F_{k+1} -> F_k, in S^(rank F_k).
    Over the polynomial ring resolutions are finite; over a singular quotient
    they may be infinite. A resolution cut at a step budget with syzygies
    left has `truncated` set (the prefix maps are still exact where computed).
    """

    ring: PolyRing
    twists: tuple
    maps: tuple
    modulus: Ideal = None
    truncated: bool = False

    @property
    def length(self) -> int:
        return len(self.twists) - 1

    def betti(self) -> tuple:
        return tuple(len(t) for t in self.twists)

    def rank(self, k: int) -> int:
        return len(self.twists[k]) if k < len(self.twists) else 0

    def map_columns(self, k: int):
        """Columns of d_k: F_k -> F_{k-1}, or None past the end."""
        if 1 <= k <= len(self.maps):
            return self.maps[k - 1]
        return None


def _resolve(ring: PolyRing, modulus, twists, cols, cap: int) -> FreeResolution:
    """Resolution of coker(cols) over S (modulus None) or over S/modulus,
    minimal at every step and cut after `cap` maps, flagged truncated if
    syzygies remain there. Over S more than n maps break Hilbert's syzygy
    theorem and raise."""
    cur = tuple(twists)
    cols = minimal_generators(cols, cur, modulus)
    all_twists = [cur]
    maps = []
    while cols:
        if len(maps) >= cap:
            break
        if modulus is None and len(maps) == ring.n:
            raise PipelineInvariantError("resolution exceeds the global dimension bound")
        ctw = tuple(v.degree_with_twists(cur) for v in cols)
        maps.append(tuple(cols))
        all_twists.append(ctw)
        syz = kernel_over_quotient(cols, len(cur), modulus)
        cur = ctw
        cols = minimal_generators(syz, cur, modulus)
    return FreeResolution(
        ring, tuple(all_twists), tuple(maps), modulus=modulus, truncated=bool(cols)
    )


def minimal_free_resolution(rs: RingSpec) -> FreeResolution:
    """Minimal graded free resolution of R = S/I as an S-module, kept on R."""
    if rs._resolution is None:
        gens = [Vec.from_polys([(0, g)]) for g in rs.ideal.groebner_basis()]
        rs._resolution = _resolve(rs.ring, None, (0,), gens, rs.ring.n + 1)
    return rs._resolution


def resolve_presentation(pres: ModulePresentation, max_steps=None) -> FreeResolution:
    """Free resolution of coker(pres) over its ring, minimal at every step.

    Over the polynomial ring (modulus None) this terminates within the number
    of variables; over a quotient ring it is cut off after max_steps maps
    (default n + 2). Either way a cut with syzygies left sets `truncated`.
    """
    work = minimal_presentation(pres)
    cap = pres.ring.n + 2 if max_steps is None else max_steps
    return _resolve(pres.ring, pres.modulus, work.row_twists, work.columns, cap)


def tor_frobenius(rs: RingSpec, pres: ModulePresentation, i: int, e: int = 1):
    """Tor_i of the e-fold Frobenius against M = coker(pres) over R.

    Computed as homology of a free resolution of M over R with the Frobenius
    functor applied to every differential. Returns a FiniteLengthModule when
    the homology has finite length, otherwise its ModulePresentation.
    """
    if i < 0:
        raise ValueError("homological degree must be nonnegative")
    if pres.modulus is None:
        pres = ModulePresentation(
            rs.ring, rs.ideal, pres.columns, pres.row_twists, pres.col_twists
        )
    if i == 0:
        result = frobenius_functor(minimal_presentation(pres), e)
        return _finite_or_presentation(result)
    q = rs.p**e
    res = resolve_presentation(pres, max_steps=i + 1)
    if res.length < i:
        empty = ModulePresentation(rs.ring, rs.ideal, [], [], [])
        return _finite_or_presentation(empty)
    d_i = frobenius_columns(res.map_columns(i), e, rs.ideal)
    ker = kernel_over_quotient(d_i, res.rank(i - 1), rs.ideal)
    # the image lives in R^(rank F_i): in S it is im d_{i+1}^[q] + I·F_i
    im_cols = ideal_columns(rs.ideal, res.rank(i))
    next_map = res.map_columns(i + 1)
    if next_map is not None:
        im_cols += frobenius_columns(next_map, e, rs.ideal)
    ambient = [q * t for t in res.twists[i]]
    homology = subquotient_presentation(rs.ring, rs.ideal, ambient, ker, im_cols)
    return _finite_or_presentation(homology)


def _finite_or_presentation(pres: ModulePresentation):
    from .artinian import realize_finite

    try:
        return realize_finite(pres)
    except InfiniteLengthError:
        return pres


def ring_depth(rs: RingSpec) -> int:
    """depth R = n - pd_S(R) over the regular ambient ring."""
    return rs.ring.n - minimal_free_resolution(rs).length


# ---------------------------------------------------------------------------
# canonical module via duals of the resolution

def subquotient_presentation(
    ring: PolyRing,
    modulus: Ideal,
    ambient_twists,
    kernel_gens,
    image_cols,
    shift: int = 0,
) -> ModulePresentation:
    """Present (submodule gen by kernel_gens)/(its meet with the submodule
    gen by image_cols), that is span(kernel_gens + image_cols)/span(image_cols).

    Both gen sets live in a free S-module with the given twists, and the
    quotient N is taken there, over S; the result presents N ⊗_S R over
    R = ring/modulus, its relations read mod the modulus. A subquotient of a
    free R-module passes `ideal_columns(modulus, rank)` among its image
    columns, so that R kills N. `shift` is added to all generator degrees.

    The kernel generators are minimized modulo the image, so the generators
    are minimal for the subquotient itself and no relation has a unit entry.
    """
    extra = [v for v in image_cols if not v.is_zero()]
    gens = minimal_generators(kernel_gens, ambient_twists, image=extra)
    if not gens:
        return ModulePresentation(ring, modulus, [], [], [])
    row_twists = [v.degree_with_twists(ambient_twists) + shift for v in gens]
    stacked = list(gens) + list(extra)
    syz = syzygy_basis(stacked, nreal=len(ambient_twists))
    rel_cols = []
    for w in syz:
        head = w.restrict_components(0, len(gens))
        if modulus is not None:
            head = vec_nf_mod_ideal(head, modulus)
        if not head.is_zero():
            rel_cols.append(head)
    rel_cols = minimal_generators(rel_cols, row_twists, modulus)
    col_twists = [v.degree_with_twists(row_twists) for v in rel_cols]
    return ModulePresentation(ring, modulus, rel_cols, row_twists, col_twists)


def canonical_module(rs: RingSpec) -> ModulePresentation:
    """Graded canonical module ω = Ext^c_S(R, S(-n)), c = n - dim R.

    R must be Cohen-Macaulay (pd = c); then this is the cokernel of the
    transposed last map. That covers every Artinian R, where c = n and ω is
    the injective hull of the residue field (graded local duality). Past the
    codimension (pd > c) it raises NotCohenMacaulayError, for every caller.
    """
    ring = rs.ring
    n = ring.n
    res = minimal_free_resolution(rs)
    pd = res.length
    c = n - rs.dimension
    if pd < c:
        raise PipelineInvariantError("canonical module requested below the support codim")
    if pd > c:
        raise NotCohenMacaulayError(
            f"projective dimension {pd} exceeds the codimension {c}: R is not Cohen-Macaulay"
        )
    row_twists = [n - t for t in res.twists[c]]
    if c == 0:
        return ModulePresentation(ring, rs.ideal, [], row_twists, [])
    dual_c = transpose(res.map_columns(c), res.rank(c - 1), ring)  # in S^(rank F_c)
    col_twists = [n - t for t in res.twists[c - 1]]
    # d_c of a minimal resolution has its entries in m, so no entry is a
    # unit and the generators are minimal; columns zero mod I are dropped
    cols = [vec_nf_mod_ideal(v, rs.ideal) for v in dual_c]
    keep = [j for j, v in enumerate(cols) if not v.is_zero()]
    return ModulePresentation(
        ring, rs.ideal, [cols[j] for j in keep], row_twists, [col_twists[j] for j in keep]
    )


# ---------------------------------------------------------------------------
# Hom into the ring, and module annihilators

def hom_into_ring_generators(pres: ModulePresentation):
    """Generators of Hom_R(M, R) for M = coker(A) over R = S/I: the kernel
    of Aᵀ. Returns (vec, degree) pairs; vec component i is the image of
    generator i.
    """
    if pres.modulus is None:
        raise ValueError("hom_into_ring_generators expects a module over a quotient")
    if pres.scale != 1:
        raise ValueError("hom_into_ring_generators expects scale-1 gradings")
    if pres.ncols == 0:
        kernel = [Vec.unit(pres.ring.p, pres.ring.n, i) for i in range(pres.nrows)]
    else:
        cols_t = transpose(pres.columns, pres.nrows, pres.ring)
        kernel = kernel_over_quotient(cols_t, pres.ncols, pres.modulus)
    dual_twists = [-s for s in pres.row_twists]
    return [(w, w.degree_with_twists(dual_twists)) for w in kernel]


def with_modulus(pres: ModulePresentation, new_ideal: Ideal) -> ModulePresentation:
    """The same presentation viewed over a further quotient ring."""
    columns = [vec_nf_mod_ideal(v, new_ideal) for v in pres.columns]
    return ModulePresentation(
        pres.ring, new_ideal, columns, pres.row_twists, pres.col_twists, pres.scale
    )


def annihilator_is_zero(rs: RingSpec, vec: Vec) -> bool:
    """Is ann_R of the element `vec` of R^r zero, i.e. ∩_i (I : v_i) = I?
    That intersection is the one colon (I : (v_1, ..., v_r))."""
    entries = list(vec.as_poly_dict().values())
    if not entries:
        return False  # zero vector annihilated by everything
    return ideal_colon(rs.ideal, Ideal(rs.ring, entries)) == rs.ideal


def syzygy_presentation(pres: ModulePresentation) -> ModulePresentation:
    """First syzygy module of the presentation's columns.

    The result holds ker(F_1 -> F_0) as its columns: the minimal kernel
    generators, living in the free source of `pres`, with their own
    relations left implicit.
    """
    if pres.scale != 1:
        raise ValueError("syzygies expect scale-1 gradings")
    # over R the kernel adjoins I·e_j, so it does not see representatives mod I
    raw = kernel_over_quotient(pres.columns, pres.nrows, pres.modulus)
    gens = minimal_generators(raw, pres.col_twists, pres.modulus)
    twists = [v.degree_with_twists(pres.col_twists) for v in gens]
    return ModulePresentation(pres.ring, pres.modulus, gens, pres.col_twists, twists)


def is_free_rank_one(pres: ModulePresentation):
    """(flag, generator degree): is the module free of rank one over its ring?

    `minimal_presentation` minimizes the presentation; the module is free of
    rank one exactly when one generator and no relation survive. The degree
    is None when not free.
    """
    small = minimal_presentation(pres)
    if small.nrows == 1 and small.ncols == 0:
        return True, small.row_twists[0]
    return False, None


# ---------------------------------------------------------------------------
# Hom between presented modules (ordinary module structure)

def hom_presentation_generic(
    m: ModulePresentation, n: ModulePresentation
) -> ModulePresentation:
    """Present Hom_R(M, N) for M = coker(A), N = coker(C) over the same ring.

    A homomorphism is a matrix X (target generators by source generators)
    with X*A landing in the column space of C; X is zero in Hom when its
    columns lie in that column space. Both conditions are syzygy problems
    over R in a flattened free module.
    """
    if m.modulus != n.modulus or m.ring != n.ring:
        raise ValueError("hom requires modules over the same ring")
    if m.scale != 1 or n.scale != 1:
        raise ValueError("hom expects scale-1 gradings")
    ring = m.ring
    p, nv = ring.p, ring.n
    modulus = m.modulus
    mm = minimal_presentation(m)
    nn = minimal_presentation(n)
    f0, f1 = mm.nrows, mm.ncols
    g0, g1 = nn.nrows, nn.ncols
    alpha, beta = mm.row_twists, nn.row_twists
    nslots = g0 * f0
    slot_twists = [beta[u] - alpha[j] for u in range(g0) for j in range(f0)]
    if nslots == 0:
        return ModulePresentation(ring, modulus, [], [], [])

    def placed(v, stride, offset):
        """v with the term in row i moved to component i·stride + offset."""
        return Vec._raw(p, nv, {(i * stride + offset, mo): c for (i, mo), c in v.terms.items()})

    if f1 == 0:
        lifts = [Vec.unit(p, nv, s) for s in range(nslots)]
    else:
        # slot (u, j) of X·A is row j of A in block u; then C in each block l
        rows = transpose(mm.columns, f0, ring)
        cond_cols = [placed(rows[j], 1, u * f1) for u in range(g0) for j in range(f0)]
        cond_cols += [placed(col, f1, l) for l in range(f1) for col in nn.columns if col.terms]
        raw = kernel_over_quotient(cond_cols, g0 * f1, modulus)
        # over R these come normal-formed mod I, and so do their slot coordinates
        lifts = [h for w in raw if not (h := w.restrict_components(0, nslots)).is_zero()]
    zero_homs = [placed(col, f0, j) for j in range(f0) for col in nn.columns if col.terms]
    return subquotient_presentation(
        ring, modulus, slot_twists, lifts, zero_homs + ideal_columns(modulus, nslots)
    )
