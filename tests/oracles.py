"""Independent oracles used to cross-check the main engine.

The membership, Hilbert-function and module-membership oracles avoid the
Groebner machinery. Ideal membership is decided degree by degree with dense
linear algebra over F_p: for a homogeneous ideal I = (g_1, ..., g_r), the
degree-d slice I_d is the span of the products m * g_i with
deg(m) + deg(g_i) = d, so membership of an arbitrary polynomial reduces to
solving a linear system per homogeneous component. The other oracles below
use the engine, each on a path other than the one it checks.
`realize_finite_oracle` is the general path that `artinian.realize_finite`
replaced, one `reduce_vec` per column, kept so that the table-once
construction is checked against it. `intersect_by_elimination` reads a ∩ b
off the syzygies of the generators of a and b (`modgb.syzygy_basis`), and
`colon_by_elimination` builds colons on it with exact division: not the
tagged module colon of `groebner.ideal_colon` and
`groebner.ideal_intersect`. `tor_length_oracle` takes the engine's
resolution and the ring's normal forms, and replaces the homology
subquotient of `resolutions.tor_frobenius` by two ranks over F_p.

`injective_hull_of_residue_field` and `present_finite` are the Matlis-dual
route to E that `resolutions.canonical_module` replaced in the pipeline:
R realized, transposed, and presented again degree by degree with dense
linear algebra (`free_slice`, `collect_relations`). `frobenius_hull_oracle`
pushes that presentation through the Frobenius functor with plain
`frobenius_power` entries.

`syzygies_by_full_basis` is the syzygy path without the pair cutoff of
`modgb.syzygy_basis`. `groebner_all_pairs` is plain Buchberger on term
dicts, every pair treated, under its own grevlex key: the reference for
the pair criteria of `groebner.groebner_terms`. `artinian_rings` and
`curve_rings` are the shared `hypothesis` strategies for Artinian rings and
for binomial plane curves; `moved_axes_rings` draws non-Gorenstein curves,
the axes and a non-F-pure relative, in random coordinates; `graded_curves`
draws homogeneous curves of any depth, reduced or not, for the F-purity
differential against Fedder's colon.
`minimal_ideal_generators_oracle` is the ideal-membership loop that
`classify.minimal_ideal_generators` replaced with `minimal_generators`.
`nzd_inside_ideal` is the search for a non-zero-divisor inside an
ideal that `classify.ideals_isomorphic` replaced with the least power of a
non-zero-divisor of R lying in the ideal; passed as `nzd=f`, its f is
that least power with exponent one. `nzds_oracle` is the search for up to
`count` distinct non-zero-divisors that `classify.find_nzds` ran before it
returned the first alone; tests take a second one from it.
`generically_gorenstein_by_socles` is the per-prime socle path that the
pure-power test of `classify.monomial_generically_gorenstein` replaced.
`canonical_embedding_degree` tries every line of every degree of
Hom(omega, R) in a window past its generators, the exhaustive reference for
the scan of `classify.canonical_ideal` that stops at the top generator
degree. `random_homogeneous` draws seeded homogeneous polynomials for the
tests; no pipeline search samples.

`matrix_of_columns` and `columns_of_matrix` convert between the `Vec`
columns that presentations keep and row-major `Polynomial` grids, entry by
entry; tests write small presentations as grids and check
`resolutions.transpose` against them. `direct_sum` is the block-diagonal
sum of finite-length modules, which only tests build.

`dense_rref` and `dense_nullspace` are the int64 numpy elimination that
`linalg` replaced with Python-int rows, kept as its dense reference;
`module_of_matrices` builds a finite-length module from dense action
matrices, and `action_matrices` reads its sparse columns back as dense
matrices.

`twisted_hom_oracle` is the route to Hom(F_*R, R) that Fedder's lemma
replaced in `pushforward.hom_pushforward_into_ring`: the kernel of the
transposed pushforward matrix, the root action through its own box-shift
lifts, and relations searched degree by degree against the exact Hilbert
numerator.
"""

from __future__ import annotations

import itertools
from math import prod

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from fpicheck.artinian import (
    FiniteLengthModule,
    realize_finite,
    realize_ring,
    socle_dimension_of_ring,
)
from fpicheck.classify import NZD_SPAN_CAP, _degree_slice, _poly_key, _search_span
from fpicheck.gfpoly import (
    Polynomial,
    mono_degree,
    mono_divides,
    mono_mul,
    monomials_of_degree,
)
from fpicheck.groebner import Ideal, RingSpec, divide_exact, minimal_primes_monomial
from fpicheck.errors import NoNzdFoundError, PipelineInvariantError, ResourceLimitError
from fpicheck.hilbert import ONE, Numerator
from fpicheck.linalg import Subspace, nullspace
from fpicheck.modgb import (
    Vec,
    kernel_over_quotient,
    module_groebner,
    reduce_vec,
    syzygy_basis,
    vec_nf_mod_ideal,
)
from fpicheck.pushforward import TwistedHom
from fpicheck.resolutions import (
    ModulePresentation,
    canonical_module,
    hom_into_ring_generators,
    resolve_presentation,
    transpose,
)


def dense_rref(a, p: int):
    """Reduced row echelon form of a 2-D integer array on int64 numpy rows,
    one pivot column at a time. Returns (matrix, pivot column list); the
    matrix keeps its zero rows at the bottom. The reference for
    `linalg.rref`; exact for p < 2^31, as each row operation forms one
    product of reduced entries."""
    m = np.mod(np.array(a, dtype=np.int64), p)
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + nz[0]
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
        inv = pow(int(m[r, c]), p - 2, p)
        m[r] = m[r] * inv % p
        col = m[:, c].copy()
        col[r] = 0
        nzr = np.nonzero(col)[0]
        if nzr.size:
            m[nzr] = (m[nzr] - np.outer(col[nzr], m[r])) % p
        pivots.append(c)
        r += 1
    return m, pivots


def dense_nullspace(a, p: int) -> np.ndarray:
    """Rows of the result are a basis of {x : a @ x = 0 mod p}: one row per
    free column of `dense_rref`, with 1 there and minus the free column's
    entries at the pivots. The reference for `linalg.nullspace`."""
    rows, cols = np.shape(a)
    if cols == 0:
        return np.zeros((0, 0), dtype=np.int64)
    r, pivots = dense_rref(a, p)
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[k, fc] = 1
        for i, pc in enumerate(pivots):
            basis[k, pc] = (-r[i, fc]) % p
    return basis


def module_of_matrices(p: int, actions, degrees=None) -> FiniteLengthModule:
    """The finite-length module on which x_v acts by the square matrix
    `actions[v]` (rows of integers, numpy arrays too; column k is the image
    of basis vector k): the dense form in which tests write small modules,
    converted to the sparse columns `FiniteLengthModule` stores."""
    mats = [[[int(c) % p for c in row] for row in a] for a in actions]
    h = len(mats[0]) if mats else 0
    if any(len(a) != h or any(len(row) != h for row in a) for a in mats):
        raise ValueError("action matrices must be square of equal size")
    cols = [[{i: row[k] for i, row in enumerate(a) if row[k]} for k in range(h)] for a in mats]
    return FiniteLengthModule(p, cols, h, degrees)


def action_matrices(module: FiniteLengthModule) -> list:
    """The action of each variable on a finite-length module as a dense
    row-major matrix (lists of ints)."""
    h = module.dim
    return [
        [[module.actions[v][k].get(i, 0) for k in range(h)] for i in range(h)]
        for v in range(module.nvars)
    ]


def _row_reduce_mod_p(rows: list[list[int]], p: int) -> list[list[int]]:
    """Return a row echelon basis of the row space of ``rows`` over F_p."""
    basis: list[list[int]] = []
    pivots: list[int] = []
    for row in rows:
        row = [c % p for c in row]
        for piv, brow in zip(pivots, basis):
            c = row[piv]
            if c:
                row = [(a - c * b) % p for a, b in zip(row, brow)]
        lead = next((j for j, c in enumerate(row) if c), None)
        if lead is None:
            continue
        inv = pow(row[lead], p - 2, p)
        row = [(c * inv) % p for c in row]
        basis.append(row)
        pivots.append(lead)
    return basis


def _in_row_space(vector: list[int], rows: list[list[int]], p: int) -> bool:
    reduced = _row_reduce_mod_p(rows + [vector], p)
    alone = _row_reduce_mod_p(rows, p)
    return len(reduced) == len(alone)


def matrix_of_columns(cols, nrows: int) -> list:
    """Row-major Polynomial grid of Vec columns in S^nrows, entry by entry."""
    return [[v.component(i) for v in cols] for i in range(nrows)]


def columns_of_matrix(matrix, ring) -> list:
    """Vec columns of a row-major Polynomial grid: the form in which tests
    write small presentations."""
    ncols = len(matrix[0]) if matrix else 0
    return [
        Vec._raw(ring.p, ring.n, {
            (i, m): c for i, row in enumerate(matrix) for m, c in row[j].terms.items()
        })
        for j in range(ncols)
    ]


def direct_sum(modules) -> FiniteLengthModule:
    """Block-diagonal direct sum of finite-length modules over the same ring."""
    mods = list(modules)
    if not mods:
        raise ValueError("direct sum of an empty family is not supported")
    p = mods[0].p
    nv = mods[0].nvars
    for m in mods:
        if m.p != p or m.nvars != nv:
            raise ValueError("summands live over different rings")
    actions = []
    for v in range(nv):
        cols, at = [], 0
        for m in mods:
            cols.extend({i + at: c for i, c in col.items()} for col in m.actions[v])
            at += m.dim
        actions.append(cols)
    if all(m.degrees is not None for m in mods):
        degrees = tuple(d for m in mods for d in m.degrees)
    else:
        degrees = None
    return FiniteLengthModule(p, actions, sum(m.dim for m in mods), degrees)


def _homogeneous_components(f: Polynomial) -> dict[int, Polynomial]:
    parts: dict[int, dict] = {}
    for mono, coeff in f.terms.items():
        parts.setdefault(sum(mono), {})[mono] = coeff
    return {
        d: Polynomial._raw(f.p, f.nvars, terms) for d, terms in parts.items()
    }


def membership_oracle(f: Polynomial, gens: list[Polynomial]) -> bool:
    """Decide f in (gens) by exact linear algebra, degree by degree.

    All generators must be homogeneous and nonzero.  The ideal is then
    graded, so f belongs to it exactly when every homogeneous component
    does, and each component only needs the single matching degree slice.
    """
    gens = [g for g in gens if g.terms]
    if not f.terms:
        return True
    if not gens:
        return False
    p, n = f.p, f.nvars
    for g in gens:
        degrees = {sum(m) for m in g.terms}
        if len(degrees) != 1:
            raise ValueError("membership oracle needs homogeneous generators")
    for d, component in _homogeneous_components(f).items():
        slice_monos = sorted(monomials_of_degree(n, d))
        index = {m: i for i, m in enumerate(slice_monos)}
        rows = []
        for g in gens:
            gdeg = g.degree()
            if gdeg > d:
                continue
            for m in monomials_of_degree(n, d - gdeg):
                product = g.mul_term(m, 1)
                row = [0] * len(slice_monos)
                for mono, coeff in product.terms.items():
                    row[index[mono]] = coeff
                rows.append(row)
        target = [0] * len(slice_monos)
        for mono, coeff in component.terms.items():
            target[index[mono]] = coeff
        if not _in_row_space(target, rows, p):
            return False
    return True


def graded_dimension_oracle(
    gens: list[Polynomial], p: int, n: int, degree: int
) -> int:
    """dim_k (F_p[x]/I)_degree by rank computation, no Groebner bases."""
    slice_monos = sorted(monomials_of_degree(n, degree))
    index = {m: i for i, m in enumerate(slice_monos)}
    rows = []
    for g in gens:
        if not g.terms:
            continue
        gdeg = g.degree()
        if gdeg > degree:
            continue
        for m in monomials_of_degree(n, degree - gdeg):
            product = g.mul_term(m, 1)
            row = [0] * len(slice_monos)
            for mono, coeff in product.terms.items():
                row[index[mono]] = coeff
            rows.append(row)
    rank = len(_row_reduce_mod_p(rows, p))
    return len(slice_monos) - rank


def partitions_up_to(total: int):
    """Yield all integer partitions of every size from 1 through total."""
    def _parts(remaining: int, largest: int):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, largest), 0, -1):
            for rest in _parts(remaining - first, first):
                yield (first,) + rest

    for size in range(1, total + 1):
        yield from _parts(size, size)


def staircase_rings(p, max_colength=6):
    """All monomial Artinian quotients of F_p[x,y] of colength <= max_colength.

    Partitions index the staircases: heights h_a give the standard monomials
    {x^a y^b : b < h_a}; generators are the inner corners of the complement.
    """
    out = []
    for part in partitions_up_to(max_colength):
        heights = list(part)
        standard = {
            (a, b) for a, h in enumerate(heights) for b in range(h)
        }
        bound = max_colength + 2
        gens = []
        for a in range(bound):
            for b in range(bound):
                if (a, b) in standard:
                    continue
                if a and (a - 1, b) not in standard:
                    continue
                if b and (a, b - 1) not in standard:
                    continue
                gens.append(Polynomial.from_monomial(p, (a, b)))
        out.append((part, RingSpec(p, ["x", "y"], gens)))
    return out


@st.composite
def artinian_rings(draw, primes=(2, 3, 5, 7)):
    """A staircase of F_p[x,y] of colength <= 5, or pure powers x_i^a_i in two
    or three variables plus one or two random binomials of degree 2 or 3."""
    p = draw(st.sampled_from(primes))
    if draw(st.booleans()):
        return draw(st.sampled_from(staircase_rings(p, max_colength=5)))[1]
    nv = draw(st.sampled_from([2, 3]))
    names = ["x", "y", "z"][:nv]
    exps = st.integers(2, 4 if nv == 2 else 3)
    gens = [Polynomial.from_monomial(p, tuple(draw(exps) if j == i else 0 for j in range(nv)))
            for i in range(nv)]
    for _ in range(draw(st.integers(1, 2))):
        monos = list(monomials_of_degree(nv, draw(st.integers(2, 3))))
        a, b = draw(st.lists(st.sampled_from(monos), min_size=2, max_size=2, unique=True))
        c = draw(st.integers(1, p - 1))
        gens.append(Polynomial(p, nv, {a: 1, b: c}))
    return RingSpec(p, names, gens)


@st.composite
def curve_rings(draw):
    """F_p[x,y] modulo one binomial of degree 2 or 3: a curve, so modules
    over it need not have finite length."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    monos = list(monomials_of_degree(2, draw(st.integers(2, 3))))
    a, b = draw(st.lists(st.sampled_from(monos), min_size=2, max_size=2, unique=True))
    return RingSpec(p, ["x", "y"], [Polynomial(p, 2, {a: 1, b: draw(st.integers(1, p - 1))})])


@st.composite
def moved_axes_rings(draw):
    """(l1*l2, l1*l3, l2*l3), the three axes, or (l1^2, l1*l2, l2*l3), which
    is not F-pure, for independent linear forms l1, l2, l3 of F_p[x,y,z]:
    one-dimensional Cohen-Macaulay rings that are not Gorenstein, so their
    canonical ideals need two generators."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    units = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    while True:
        rows = [[draw(st.integers(0, p - 1)) for _ in range(3)] for _ in range(3)]
        if len(_row_reduce_mod_p(rows, p)) == 3:
            break
    l1, l2, l3 = (Polynomial(p, 3, {u: c for u, c in zip(units, row) if c}) for row in rows)
    first = l1 * l3 if draw(st.booleans()) else l1 * l1
    return RingSpec(p, ["x", "y", "z"], [l1 * l2, first, l2 * l3])


def _linear_form(draw, p: int, n: int) -> Polynomial:
    coeffs = draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
    if not any(coeffs):
        coeffs[draw(st.integers(0, n - 1))] = 1
    return Polynomial(p, n, {tuple(int(i == j) for j in range(n)): c for i, c in enumerate(coeffs)})


def _curve_generator(draw, p: int, n: int, d: int) -> Polynomial:
    """A product of d linear forms (repeats make non-reduced rings), a
    monomial, or a binomial of degree d."""
    kind = draw(st.sampled_from(["lines", "monomial", "binomial"]))
    if kind == "lines":
        return prod((_linear_form(draw, p, n) for _ in range(d)), start=Polynomial.constant(p, n, 1))
    a, b = draw(st.lists(st.sampled_from(list(monomials_of_degree(n, d))), min_size=2, max_size=2, unique=True))
    return Polynomial(p, n, {a: 1} if kind == "monomial" else {a: 1, b: draw(st.integers(1, p - 1))})


@st.composite
def graded_curves(draw, primes=(2, 3, 5, 7, 11, 101)):
    """Homogeneous rings of dimension one, depth zero and non-reduced ones
    included: F_p[x,y,z] modulo two or three quadrics (products of linear
    forms, monomials, binomials) for p <= 11; past that, where Fedder's
    colon of a non-complete intersection has degree-p generators, plane
    curves F_p[x,y]/(f), deg f in {2, 3}, and monomial curves of
    F_p[x,y,z], whose colons have closed forms."""
    p = draw(st.sampled_from(primes))
    if p <= 11:
        gens = [_curve_generator(draw, p, 3, 2) for _ in range(draw(st.integers(2, 3)))]
        rs = RingSpec(p, ["x", "y", "z"], gens)
    elif draw(st.booleans()):
        rs = RingSpec(p, ["x", "y"], [_curve_generator(draw, p, 2, draw(st.integers(2, 3)))])
    else:
        monos = draw(st.lists(st.sampled_from(list(monomials_of_degree(3, 2))), min_size=2, max_size=3, unique=True))
        rs = RingSpec(p, ["x", "y", "z"], [Polynomial.from_monomial(p, m) for m in monos])
    assume(rs.dimension == 1)
    return rs


def _standard_basis(rs: RingSpec) -> list:
    """Every standard monomial of an Artinian R, all degrees."""
    out, d = [], 0
    while found := rs.standard_monomials_of_degree(d):
        out.extend(found)
        d += 1
    return out


def _rank_over_k(rs: RingSpec, matrix, basis) -> int:
    """k-rank of the R-linear map R^cols -> R^rows that `matrix` gives, on
    the standard-monomial basis of each copy of R."""
    if not matrix or not matrix[0]:
        return 0
    index = {m: k for k, m in enumerate(basis)}
    h = len(basis)
    rows, cols = len(matrix), len(matrix[0])
    a = np.zeros((rows * h, cols * h), dtype=np.int64)
    for j in range(cols):
        for k, m in enumerate(basis):
            for i in range(rows):
                image = rs.nf(matrix[i][j].mul_term(m, 1))
                for t, c in image.terms.items():
                    a[i * h + index[t], j * h + k] = c
    return len(dense_rref(a, rs.p)[1])


def tor_length_oracle(rs: RingSpec, pres, i: int, e: int = 1) -> int:
    """Length of Tor_i^R(F^e_*R, M) for M = coker(pres) over an Artinian R.

    On a free resolution F of M, Tor_i is the homology of F^[q] at F_i, and
    its length is b_i·λ(R) − rank d_i^[q] − rank d_{i+1}^[q], each rank over
    F_p on the standard-monomial basis.
    """
    res = resolve_presentation(pres, max_steps=i + 1)
    basis = _standard_basis(rs)

    def frob_rank(k):
        d = res.map_columns(k)
        if d is None:
            return 0
        grid = matrix_of_columns(d, res.rank(k - 1))
        return _rank_over_k(rs, [[f.frobenius_power(e) for f in row] for row in grid], basis)

    return res.rank(i) * len(basis) - frob_rank(i) - frob_rank(i + 1)


def realize_finite_oracle(pres):
    """Action matrices and basis degrees of the finite-length module that a
    nonzero presentation defines, with every column reduced on its own.

    The basis is the standard terms (comp, mono) outside the lead module,
    sorted by (degree, comp, mono); column k of the action of x_v is the
    normal form of x_v times basis term k, from `reduce_vec` against the
    presentation's module Groebner basis, standard products included.
    """
    ring = pres.ring
    n, p = ring.n, ring.p
    gb = pres.groebner_columns()
    lead = pres.lead_data()
    basis = []
    for i in range(pres.nrows):
        d = 0
        while True:
            found = [
                m
                for m in monomials_of_degree(n, d)
                if not any(mono_divides(l, m) for l in lead.get(i, ()))
            ]
            if not found:
                break
            basis.extend((i, m, pres.scale * d + pres.row_twists[i]) for m in found)
            d += 1
    basis.sort(key=lambda t: (t[2], t[0], t[1]))
    index = {(i, m): k for k, (i, m, _) in enumerate(basis)}
    actions = []
    for v in range(n):
        a = np.zeros((len(basis), len(basis)), dtype=np.int64)
        for k, (i, m, _) in enumerate(basis):
            target = tuple(e + (w == v) for w, e in enumerate(m))
            image = reduce_vec(Vec(p, n, {(i, target): 1}), gb)
            for t, c in image.terms.items():
                a[index[t], k] = c
        actions.append(a)
    return actions, tuple(d for _, _, d in basis)


def injective_hull_of_residue_field(rs: RingSpec) -> FiniteLengthModule:
    """E = Matlis dual of R, for Artinian R (the graded injective hull of k)."""
    return realize_ring(rs).matlis_dual()


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


def present_finite(module: FiniteLengthModule, rs: RingSpec) -> ModulePresentation:
    """Graded presentation of a finite-length module (degrees required).

    Generators are basis elements chosen greedily outside m*M; relations are
    collected degree by degree, which is exhaustive once the degree passes the
    top of the module by one (beyond that every slice of the free cover is a
    radical multiple of the previous one).
    """
    p = module.p
    h = module.dim
    if h == 0:
        return ModulePresentation(rs.ring, rs.ideal, [], [], [])
    if module.degrees is None:
        raise ValueError("present_finite needs basis degrees")
    if module.nvars != rs.ring.n:
        raise ValueError("module and ring have different variable counts")
    order = sorted(range(h), key=lambda k: (module.degrees[k], k))
    span = module.radical_span()
    gens = []
    for k in order:
        unit = [0] * h
        unit[k] = 1
        if span.add(unit):
            gens.append(k)
    gen_degs = [module.degrees[k] for k in gens]

    relations = []  # Vec over R^len(gens)
    rel_degs = []
    for d in range(min(gen_degs), max(module.degrees) + 2):
        pairs = free_slice(rs, gen_degs, d)
        if not pairs:
            continue
        cols = []
        for g_idx, m in pairs:
            image = module.act_monomial({gens[g_idx]: 1}, m)
            cols.append([image.get(i, 0) for i in range(h)])
        ker = nullspace([list(row) for row in zip(*cols)], len(cols), p)
        if ker:
            collect_relations(rs, pairs, ker, d, relations, rel_degs)
    return ModulePresentation(rs.ring, rs.ideal, relations, gen_degs, rel_degs)


def frobenius_hull_oracle(rs: RingSpec) -> dict:
    """Length and socle of F(E), and whether F(E) ≅ E^n for some n, from
    the Matlis-dual presentation of E with every entry raised to the p-th
    power as it stands. F(E) ≅ E^n exactly when its socle has dimension n
    and its length is n·λ(R)."""
    pres = present_finite(injective_hull_of_residue_field(rs), rs)
    p = rs.p
    fe = realize_finite(ModulePresentation(
        rs.ring,
        rs.ideal,
        columns_of_matrix(
            [[f.frobenius_power(1) for f in row]
             for row in matrix_of_columns(pres.columns, pres.nrows)],
            rs.ring,
        ),
        [p * s for s in pres.row_twists],
        [p * s for s in pres.col_twists],
    ))
    n, rest = divmod(fe.dim, realize_ring(rs).dim)
    socle = fe.socle_dimension()
    return {
        "length_fe": fe.dim,
        "socle_fe": socle,
        "injective": "true" if not rest and socle == n else "false",
    }


def syzygies_by_full_basis(cols, nreal: int) -> list:
    """Syzygies of `cols` in S^nreal from the full module Groebner basis of
    the columns tagged with unit vectors: the general path that
    `modgb.syzygy_basis` shortens by skipping the pairs between tag-led
    elements."""
    p, nvars = cols[0].p, cols[0].nvars
    one = (0,) * nvars
    tagged = [Vec(p, nvars, {**v.terms, (nreal + i, one): 1}) for i, v in enumerate(cols)]
    return [
        g.restrict_components(nreal, nreal + len(cols))
        for g in module_groebner(tagged)
        if all(c >= nreal for c, _ in g.terms)
    ]


def groebner_all_pairs(elems, p: int) -> list:
    """Reduced Groebner basis of the submodule spanned by the term dicts
    `elems` ({(component, monomial): coeff}), by plain Buchberger: every pair
    of elements led in one component is reduced, with no criterion.

    Terms compare position over term, as in the kernel: a lower component
    is larger, ties go to grevlex, written out here on its own (higher
    degree first, then the smaller exponent of the last variable that
    differs). A normal form cancels the largest
    reducible term with the first element, in list order, whose lead divides
    it. The result is minimalized (an element whose lead another lead
    divides goes, equal leads keeping the first), made monic, each tail put
    in normal form modulo the minimal basis, and sorted as the kernel sorts:
    by lead, highest component first, smaller monomial first.
    """

    def term_key(t):
        comp, m = t
        return (-comp, sum(m), tuple(-e for e in reversed(m)))

    def lead(g):
        return max(g, key=term_key)

    def normal_form(f, basis):
        f, out = dict(f), {}
        while f:
            t = lead(f)
            c = f.pop(t)
            for g in basis:
                (comp, m) = gl = lead(g)
                if comp == t[0] and mono_divides(m, t[1]):
                    shift = tuple(a - b for a, b in zip(t[1], m))
                    factor = c * pow(g[gl], p - 2, p) % p
                    for (c2, m2), v in g.items():
                        if (c2, m2) != gl:
                            u = (c2, tuple(a + b for a, b in zip(m2, shift)))
                            w = (f.get(u, 0) - factor * v) % p
                            if w:
                                f[u] = w
                            else:
                                f.pop(u, None)
                    break
            else:
                out[t] = c
        return out

    basis = [dict(g) for g in elems if g]
    pairs = [
        (i, j) for j in range(len(basis)) for i in range(j)
        if lead(basis[i])[0] == lead(basis[j])[0]
    ]
    while pairs:
        i, j = pairs.pop()
        s = {}
        (comp, mi), (_, mj) = li, lj = lead(basis[i]), lead(basis[j])
        lcm = tuple(map(max, mi, mj))
        for g, gl, scale in ((basis[i], li, pow(basis[i][li], p - 2, p)),
                             (basis[j], lj, -pow(basis[j][lj], p - 2, p))):
            shift = tuple(a - b for a, b in zip(lcm, gl[1]))
            for (c, m), v in g.items():
                u = (c, tuple(a + b for a, b in zip(m, shift)))
                s[u] = (s.get(u, 0) + scale * v) % p
        h = normal_form({t: v for t, v in s.items() if v}, basis)
        if h:
            pairs += [(k, len(basis)) for k in range(len(basis)) if lead(basis[k])[0] == lead(h)[0]]
            basis.append(h)
    leads = [lead(g) for g in basis]
    minimal = [
        g for i, (g, (c, m)) in enumerate(zip(basis, leads))
        if not any(
            k != i and c2 == c and mono_divides(m2, m) and (m2 != m or k < i)
            for k, (c2, m2) in enumerate(leads)
        )
    ]
    out = []
    for g in minimal:
        gl = lead(g)
        inv = pow(g[gl], p - 2, p)
        tail = normal_form({t: v * inv % p for t, v in g.items() if t != gl}, minimal)
        out.append({gl: 1, **tail})
    return sorted(out, key=lambda g: term_key(lead(g)))


def module_membership_oracle(v, gens, twists) -> bool:
    """Decide v in the submodule spanned by `gens`, one degree slice at a time.

    Vectors are read through their ``p``, ``nvars`` and ``terms``, a dict
    {(component, monomial): coeff}, so no module code is involved. A term
    (c, m) has degree deg(m) + twists[c]; every generator must be
    homogeneous for these twists. The slice of degree d spans the terms of
    degree d and holds the products m * g of that degree, so membership of
    each homogeneous part of v is a rank question, as for ideals.
    """
    gens = [g for g in gens if g.terms]
    if not v.terms:
        return True
    if not gens:
        return False
    p, n = v.p, v.nvars

    def degree(term):
        comp, mono = term
        return sum(mono) + twists[comp]

    gen_degrees = []
    for g in gens:
        degrees = {degree(t) for t in g.terms}
        if len(degrees) != 1:
            raise ValueError("module oracle needs homogeneous generators")
        gen_degrees.append(degrees.pop())
    parts: dict[int, dict] = {}
    for term, coeff in v.terms.items():
        parts.setdefault(degree(term), {})[term] = coeff
    for d, part in parts.items():
        slice_terms = [
            (comp, mono)
            for comp, twist in enumerate(twists)
            if d >= twist
            for mono in monomials_of_degree(n, d - twist)
        ]
        index = {t: i for i, t in enumerate(slice_terms)}
        rows = []
        for g, e in zip(gens, gen_degrees):
            if e > d:
                continue
            for m in monomials_of_degree(n, d - e):
                row = [0] * len(slice_terms)
                for (comp, mono), coeff in g.terms.items():
                    row[index[(comp, tuple(a + b for a, b in zip(mono, m)))]] = coeff
                rows.append(row)
        target = [0] * len(slice_terms)
        for term, coeff in part.items():
            target[index[term]] = coeff
        if not _in_row_space(target, rows, p):
            return False
    return True


def intersect_by_elimination(a: Ideal, b: Ideal) -> Ideal:
    """a ∩ b from the syzygies of (a_1, ..., a_r, b_1, ..., b_s) in S^1:
    h lies in a ∩ b exactly when h = Σ c_i a_i = -Σ d_j b_j for some
    syzygy (c, d), so the Σ c_i a_i over generators (c, d) of the syzygy
    module generate a ∩ b. The zero ideal on either side gives 0. This is
    elimination in S^(1+r+s) under position over term (the tag components
    of `modgb.syzygy_basis`), not the tagged colon of `groebner._module_colon`."""
    ring = a.ring
    if not a.generators or not b.generators:
        return Ideal(ring, [])
    columns = [Vec.from_polys([(0, g)]) for g in a.generators + b.generators]
    return Ideal(ring, [
        sum((s.component(i) * g for i, g in enumerate(a.generators)), ring.zero())
        for s in syzygy_basis(columns, 1)
    ])


def colon_by_elimination(a: Ideal, b: Ideal) -> Ideal:
    """(a : b) as the intersection of the (a ∩ (g)) / g over the generators
    g of b, every intersection by `intersect_by_elimination`."""
    out = None
    for g in b.generators:
        single = intersect_by_elimination(a, Ideal(a.ring, [g]))
        part = Ideal(a.ring, [divide_exact(h, g) for h in single.generators])
        out = part if out is None else intersect_by_elimination(out, part)
    return Ideal(a.ring, [a.ring.one()]) if out is None else out


def minimal_ideal_generators_oracle(rs: RingSpec, gens) -> list:
    """The ideal loop that `classify.minimal_ideal_generators` replaced: the
    nonzero normal forms mod I, first occurrences only, sorted by degree and
    then by sorted terms, each kept when the ideal Groebner basis of I plus
    the kept ones does not contain it."""
    reduced = list(dict.fromkeys(g for g in (rs.nf(f) for f in gens) if not g.is_zero()))
    reduced.sort(key=lambda f: (f.degree(), tuple(sorted(f.terms.items()))))
    accepted: list = []
    for f in reduced:
        if not rs.preimage_ideal(accepted).contains(f):
            accepted.append(f)
    return accepted


NZD_DEGREE_WINDOW = 2


def nzd_inside_ideal(rs: RingSpec, gens: list):
    """A certified homogeneous non-zero-divisor lying in the ideal (gens), or None."""
    n, p = rs.ring.n, rs.p
    pairs = [(g, g.degree()) for g in gens]
    degs = sorted({d for _, d in pairs})
    for target in range(degs[0], degs[-1] + NZD_DEGREE_WINDOW + 1):
        f, _ = _search_span(
            _degree_slice(pairs, n, target, rs.nf), Polynomial.zero(p, n),
            lambda f: not f.is_zero() and rs.is_nzd(f),
            NZD_SPAN_CAP, rs.hilbert().multiplicity,
        )
        if f is not None:
            return f
    return None


def nzds_oracle(rs: RingSpec, count: int = 1, max_degree: int = 2) -> list:
    """Up to `count` distinct homogeneous non-zero-divisors on R, low degree first.

    The forms of each degree up to `max_degree` are searched as in
    `classify.find_nzds`: every line up to NZD_SPAN_CAP lines, a rational
    normal curve past it (`span_search`). Every candidate is verified
    exactly by `RingSpec.is_nzd`, which compares the Hilbert series of R/fR
    with (1 - t^deg f) HS(R). Raises NoNzdFoundError when no degree yields
    one.
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

    zero = Polynomial.zero(p, n)
    for d in range(1, max_degree + 1):
        basis = [Polynomial.from_monomial(p, m) for m in monomials_of_degree(n, d)]
        hit, _ = _search_span(basis, zero, consider, NZD_SPAN_CAP, rs.hilbert().multiplicity)
        if hit is not None:
            return found
    if found:
        return found
    raise NoNzdFoundError(
        f"no homogeneous non-zero-divisor of degree at most {max_degree} was found"
    )


def canonical_embedding_degree(rs: RingSpec, window: int = 3, max_lines: int = 5000):
    """The lowest degree of Hom(omega, R) holding an injective map omega -> R,
    trying every line of every degree from the lowest generator degree to
    `window` past the highest, or None when none of them holds one. Raises
    ResourceLimitError when a degree spans more than `max_lines` lines."""
    omega = canonical_module(rs)
    homs = hom_into_ring_generators(omega)
    if not homs:
        return None
    n, p = rs.n, rs.p
    num_r = rs.ideal.hilbert_numerator()
    degrees = [d for _, d in homs]
    for target in range(min(degrees), max(degrees) + window + 1):
        want = omega.numerator_scaled().shift(target)
        span = _degree_slice(homs, n, target, lambda v: vec_nf_mod_ideal(v, rs.ideal))
        if (p ** len(span) - 1) // (p - 1) > max_lines:
            raise ResourceLimitError(f"degree {target} spans more than {max_lines} lines")
        for coeffs in itertools.product(range(p), repeat=len(span)):
            if next((c for c in coeffs if c), 0) != 1:  # one vector per line
                continue
            u = sum((v.scale(c) for c, v in zip(coeffs, span) if c), Vec.zero(p, n))
            polys = u.as_poly_dict()
            if num_r - rs.preimage_ideal(list(polys.values())).hilbert_numerator() == want:
                return target
    return None


def random_homogeneous(rng, p: int, nvars: int, degree: int, max_terms: int = 3) -> Polynomial:
    """Seeded random homogeneous polynomial (possibly zero)."""
    monos = list(monomials_of_degree(nvars, degree))
    k = rng.randint(1, max_terms)
    terms: dict = {}
    for _ in range(k):
        m = monos[rng.randrange(len(monos))]
        c = rng.randrange(1, p) if p > 2 else 1
        terms[m] = (terms.get(m, 0) + c) % p
    return Polynomial(p, nvars, terms)


def generically_gorenstein_by_socles(rs: RingSpec):
    """Is a monomial quotient Gorenstein at every minimal prime?

    Localizing at the monomial prime spanned by the variables in A turns
    the remaining variables into units, so the local ring is the Artinian
    quotient by the A-parts of the generators, base-changed to a larger
    field; socle dimensions are insensitive to that base change. Returns
    (True, detail) or (False, detail) naming a failing prime.
    """
    names = rs.ring.varnames
    primes = minimal_primes_monomial(rs.ideal)
    gens = rs.ideal.lead_monomials()
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


# ---------------------------------------------------------------------------
# Hom(F_*R, R) from the kernel of the transposed pushforward matrix

def _box_shift_lifts(push: ModulePresentation, n: int) -> list:
    """Per variable v and box b, (index of b', factor) with x_v·e_b =
    factor·e_b' in F_*R: e_(b+unit_v) when b_v + 1 < q, else
    x_v·e_(b-(q-1)unit_v). Boxes in the order of `frobenius_pushforward`."""
    q, p = push.scale, push.ring.p
    boxes = sorted(itertools.product(range(q), repeat=n), key=lambda b: (sum(b), b))
    index = {b: i for i, b in enumerate(boxes)}
    one = (0,) * n
    lifts = []
    for v in range(n):
        unit = tuple(int(w == v) for w in range(n))
        per_box = []
        for b in boxes:
            if b[v] + 1 < q:
                target, factor = tuple(x + u for x, u in zip(b, unit)), one
            else:
                target, factor = tuple(x - (q - 1) * u for x, u in zip(b, unit)), unit
            per_box.append((index[target], Polynomial._raw(p, n, {factor: 1})))
        lifts.append(per_box)
    return lifts


def _star_apply_monomial(lifts, nrows: int, u: dict, mono, modulus: Ideal) -> dict:
    """The root action of x^mono on a coordinate vector u (component ->
    Polynomial) of Hom: each variable acts by the transpose of its lift."""
    for v, e in enumerate(mono):
        for _ in range(e):
            out = {}
            for s in range(nrows):
                target, factor = lifts[v][s]
                f = u.get(target)
                if f is not None and not f.is_zero():
                    g = modulus.normal_form(factor * f)
                    if not g.is_zero():
                        out[s] = g
            u = out
            if not u:
                return u
    return u


def twisted_hom_oracle(push: ModulePresentation, rs: RingSpec) -> TwistedHom:
    """Hom(F_*R, R) with the left structure, the route that Fedder's lemma
    replaced in `pushforward.hom_pushforward_into_ring`.

    The ordinary kernel of the transposed pushforward matrix generates the
    dual under the root action; generators are kept degree by degree when
    they leave the span of the root-action images of the earlier ones, and
    relations are collected degree by degree until the presentation's
    Hilbert numerator, times (1 + t + ... + t^(q-1))^n, matches the exact
    numerator of ker(Aᵀ) over (1 - t^q)^n.
    """
    ring, p, n = rs.ring, rs.p, rs.ring.n
    q = push.scale
    sigma = push.row_twists
    lifts = _box_shift_lifts(push, n)

    num_r_q = rs.ideal.hilbert_numerator().subst(q)
    target = Numerator()
    for s in sigma:
        target += num_r_q.shift(-s)
    for g in push.col_twists:
        target -= num_r_q.shift(-g)
    if push.ncols:
        target += ModulePresentation(
            ring, rs.ideal, transpose(push.columns, push.nrows, ring),
            [-g for g in push.col_twists], [-s for s in sigma], scale=q,
        ).numerator_scaled()

    def pairs_of(delta):
        return [
            (i, m) for i, s in enumerate(sigma)
            if delta + s >= 0 and (delta + s) % q == 0
            for m in rs.standard_monomials_of_degree((delta + s) // q)
        ]

    def coords(u, pairs):
        pos = {pm: k for k, pm in enumerate(pairs)}
        vec = [0] * len(pairs)
        for i, f in u.items():
            for m, c in f.terms.items():
                vec[pos[(i, m)]] = c
        return vec

    def act(u, m):
        return _star_apply_monomial(lifts, push.nrows, u, m, rs.ideal)

    by_degree: dict = {}
    cols_t = transpose(push.columns, push.nrows, ring)
    for v in kernel_over_quotient(cols_t, push.ncols, rs.ideal):
        if not v.is_zero():
            (d,) = {q * mono_degree(m) - sigma[i] for i, m in v.terms}
            by_degree.setdefault(d, []).append(v)
    gens, gen_degs = [], []
    for delta in sorted(by_degree):
        pairs = pairs_of(delta)
        span = Subspace(len(pairs), p)
        for u, du in zip(gens, gen_degs):
            for m in rs.standard_monomials_of_degree(delta - du):
                img = act(u.as_poly_dict(), m)
                if img:
                    span.add(coords(img, pairs))
        for v in by_degree[delta]:
            if span.add(coords(v.as_poly_dict(), pairs)):
                gens.append(v)
                gen_degs.append(delta)

    expand = prod([Numerator(dict.fromkeys(range(q), 1))] * n, start=ONE)
    relations, rel_degs = [], []

    def presented():
        return ModulePresentation(ring, rs.ideal, relations, gen_degs, rel_degs)

    d = min(gen_degs, default=0)
    cap = max(gen_degs, default=0) + 2 * q * n + 6
    while gens and presented().numerator_scaled() * expand != target:
        d += 1
        if d > cap:
            raise ResourceLimitError("relation search for the twisted dual exceeded its budget")
        domain = free_slice(rs, gen_degs, d)
        if not domain:
            continue
        pairs = pairs_of(d)
        cols = [
            coords(img, pairs) if (img := act(gens[k].as_poly_dict(), m)) else [0] * len(pairs)
            for k, m in domain
        ]
        ker = nullspace([list(row) for row in zip(*cols)], len(cols), p)
        if ker:
            collect_relations(rs, domain, ker, d, relations, rel_degs)
    return TwistedHom(push, gens, gen_degs, presented(), target)
