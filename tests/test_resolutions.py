"""Module Groebner bases, syzygies, free resolutions, Frobenius homology."""

import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from oracles import (
    artinian_rings,
    columns_of_matrix,
    curve_rings,
    injective_hull_of_residue_field,
    matrix_of_columns,
    present_finite,
    random_homogeneous,
    tor_length_oracle,
)

from fpicheck.artinian import (
    FiniteLengthModule,
    hom_space,
    realize_finite,
    ring_as_module,
)
from fpicheck.errors import InfiniteLengthError, NotCohenMacaulayError
from fpicheck.gfpoly import Polynomial, mono_degree
from fpicheck.groebner import Ideal, PolyRing, RingSpec
from fpicheck.modgb import (
    Vec,
    ideal_columns,
    kernel_over_quotient,
    module_contains,
    module_groebner,
    syzygy_basis,
    vec_nf_mod_ideal,
)
from fpicheck.resolutions import (
    ModulePresentation,
    annihilator_is_zero,
    canonical_module,
    frobenius_columns,
    frobenius_functor,
    hom_into_ring_generators,
    hom_presentation_generic,
    is_free_rank_one,
    minimal_free_resolution,
    minimal_presentation,
    resolve_presentation,
    ring_depth,
    syzygy_presentation,
    tor_frobenius,
    transpose,
    with_modulus,
)


def flagship(p=2):
    return RingSpec(p, ["x", "y", "z"], ["x*y", "x*z", "y*z"])


def cyclic_presentation(rs, gens):
    """R/(gens) as a module over R, one generator in degree zero."""
    polys = [rs.ring.parse(g) if isinstance(g, str) else g for g in gens]
    matrix = [[rs.nf(f) for f in polys]]
    return ModulePresentation(
        rs.ring, rs.ideal, columns_of_matrix(matrix, rs.ring), (0,), tuple(f.degree() for f in polys)
    )


def map_grid(res, k):
    """Row-major grid of d_k, for entrywise checks."""
    return matrix_of_columns(res.map_columns(k), res.rank(k - 1))


def residue_field(rs):
    return cyclic_presentation(rs, [rs.ring.gen(i) for i in range(rs.n)])


def column(ring, *texts):
    return Vec.from_polys(
        (i, ring.parse(t)) for i, t in enumerate(texts) if t != "0"
    )


# -- maps as Vec columns -----------------------------------------------------------


def test_presentation_rejects_a_term_past_the_last_row():
    ring = PolyRing(3, ["x", "y"])
    past = Vec.from_polys([(0, ring.parse("x")), (1, ring.parse("y"))])
    with pytest.raises(ValueError, match="row 1 of 1"):
        ModulePresentation(ring, None, [past], (0,), (1,))


def test_presentation_rejects_a_term_whose_degree_disagrees_with_the_twists():
    ring = PolyRing(3, ["x", "y"])
    x, y2 = ring.parse("x"), ring.parse("y^2")
    with pytest.raises(ValueError, match="twists demand 2"):
        ModulePresentation(ring, None, [Vec.from_polys([(0, x)])], (0,), (2,))
    # an inhomogeneous entry has a term of the wrong degree
    with pytest.raises(ValueError, match="twists demand 1"):
        ModulePresentation(ring, None, [Vec.from_polys([(0, x + y2)])], (0,), (1,))
    # with scale 2, x in row twist 1 has scaled degree 2 + 1
    ModulePresentation(ring, None, [Vec.from_polys([(0, x)])], (1,), (3,), scale=2)
    with pytest.raises(ValueError, match="twists demand 1"):
        ModulePresentation(ring, None, [Vec.from_polys([(0, x)])], (1,), (2,), scale=2)
    with pytest.raises(ValueError, match="column count"):
        ModulePresentation(ring, None, [Vec.from_polys([(0, x)])], (0,), (1, 1))


@st.composite
def column_maps(draw, ring=None):
    """(ring, nrows, columns): up to 3 x 3 sparse columns over `ring`, by
    default some F_p[x,y], entries of up to three terms, not homogeneous."""
    if ring is None:
        ring = PolyRing(draw(st.sampled_from([2, 3, 5])), ["x", "y"])
    nrows = draw(st.integers(0, 3))
    monos = st.tuples(*[st.integers(0, 2)] * ring.n)
    cols = []
    for _ in range(draw(st.integers(0, 3))):
        terms = {}
        for i in range(nrows):
            for m in draw(st.lists(monos, max_size=3, unique=True)):
                terms[(i, m)] = draw(st.integers(1, ring.p - 1))
        cols.append(Vec(ring.p, ring.n, terms))
    return ring, nrows, cols


@settings(max_examples=80, deadline=None)
@given(column_maps())
def test_transpose_is_an_involution_and_transposes_every_entry(case):
    ring, nrows, cols = case
    cols_t = transpose(cols, nrows, ring)
    assert len(cols_t) == nrows
    assert transpose(cols_t, len(cols), ring) == cols
    grid = matrix_of_columns(cols, nrows)
    entrywise = [[grid[i][j] for i in range(nrows)] for j in range(len(cols))]
    assert matrix_of_columns(cols_t, len(cols)) == entrywise


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(artinian_rings(), curve_rings()), st.data())
def test_frobenius_columns_match_entrywise_powers_mod_the_ideal(rs, data):
    _, _, cols = data.draw(column_maps(rs.ring))
    e = data.draw(st.integers(1, 2))
    got = frobenius_columns(cols, e, rs.ideal)
    want = [
        sum(
            (Vec.from_polys([(i, f.frobenius_power(e))]) for i, f in v.as_poly_dict().items()),
            Vec.zero(rs.p, rs.n),
        )
        for v in cols
    ]
    assert [vec_nf_mod_ideal(v, rs.ideal) for v in got] == [
        vec_nf_mod_ideal(v, rs.ideal) for v in want
    ]
    if rs.dimension > 0:
        assert got == want


# -- syzygies over the polynomial ring ------------------------------------------


def test_koszul_syzygy_of_two_variables():
    ring = PolyRing(2, ["x", "y"])
    cols = [column(ring, "x"), column(ring, "y")]
    syz = syzygy_basis(cols, nreal=1)
    assert len(syz) == 1
    want = Vec.from_polys([(0, ring.parse("y")), (1, ring.parse("x"))])
    assert syz[0].terms == want.terms  # char 2: y*e0 - x*e1 = y*e0 + x*e1


def test_flagship_generators_have_two_syzygies():
    ring = PolyRing(2, ["x", "y", "z"])
    cols = [column(ring, t) for t in ("x*y", "x*z", "y*z")]
    syz = syzygy_basis(cols, nreal=1)
    mat = [[f for f in ("x*y", "x*z", "y*z")]]
    pres = ModulePresentation(
        ring, None, columns_of_matrix([[ring.parse(t) for t in mat[0]]], ring), (0,), (2, 2, 2)
    )
    first = syzygy_presentation(pres)
    assert first.nrows == 3
    assert len(first.col_twists) == 2
    # every syzygy really kills the generators
    for v in first.columns:
        combo = Polynomial.zero(2, 3)
        parts = v.as_poly_dict()
        for i, t in enumerate(("x*y", "x*z", "y*z")):
            if i in parts:
                combo = combo + parts[i] * ring.parse(t)
        assert combo.is_zero()


def test_syzygy_of_regular_sequence_is_koszul_only():
    ring = PolyRing(3, ["x", "y"])
    cols = [column(ring, "x^2"), column(ring, "y^3")]
    syz = syzygy_basis(cols, nreal=1)
    assert len(syz) == 1
    v = syz[0].as_poly_dict()
    assert v[0] * ring.parse("x^2") + v[1] * ring.parse("y^3") == Polynomial.zero(3, 2)


def test_module_contains_and_nf():
    ring = PolyRing(2, ["x", "y"])
    gens = [column(ring, "x", "y"), column(ring, "0", "x + y")]
    target = Vec.from_polys([(0, ring.parse("x"))]).mul_term((0, 0), 1)
    assert not module_contains(target, gens)
    combo = gens[0] + gens[1]
    assert module_contains(combo, gens)
    a = Ideal(ring, [ring.parse("x^2")])
    v = Vec.from_polys([(0, ring.parse("x^3 + y"))])
    assert vec_nf_mod_ideal(v, a).component(0) == ring.parse("y")


def test_kernel_over_quotient_hypersurface():
    rs = RingSpec(2, ["x"], ["x^2"])
    cols = [column(rs.ring, "x")]
    ker = kernel_over_quotient(cols, nrows=1, defining_ideal=rs.ideal)
    assert ker
    gen = ker[0].component(0)
    assert rs.nf(gen) == rs.ring.parse("x")


# -- minimal free resolutions ------------------------------------------------------


def test_flagship_betti_numbers():
    res = minimal_free_resolution(flagship())
    assert res.betti() == (1, 3, 2)
    assert res.length == 2


def test_hypersurface_betti_numbers():
    res = minimal_free_resolution(RingSpec(3, ["x", "y"], ["x*y"]))
    assert res.betti() == (1, 1)
    assert res.twists[1] == (2,)


def test_regular_ring_resolves_instantly():
    res = minimal_free_resolution(RingSpec(2, ["x", "y"], []))
    assert res.betti() == (1,)
    assert res.length == 0


def test_resolution_is_a_complex_and_minimal():
    rng = random.Random(13)
    for p in (2, 3):
        for _ in range(4):
            gens = [
                random_homogeneous(rng, p, 3, rng.randint(1, 3)) for _ in range(2)
            ]
            gens = [g for g in gens if not g.is_zero()]
            if not gens:
                continue
            rs = RingSpec(p, ["x", "y", "z"], gens)
            res = minimal_free_resolution(rs)
            for k in range(1, res.length):
                a = map_grid(res, k)
                b = map_grid(res, k + 1)
                rows, mid, cols = len(a), len(b), len(b[0]) if b else 0
                for i in range(rows):
                    for j in range(cols):
                        acc = Polynomial.zero(p, 3)
                        for t in range(mid):
                            acc = acc + a[i][t] * b[t][j]
                        assert acc.is_zero()
            for k in range(1, res.length + 1):
                for row in map_grid(res, k):
                    for f in row:
                        assert f.is_zero() or f.degree() >= 1


@pytest.mark.parametrize(
    "gens,depth", [(["x*y", "x*z", "y*z"], 1), (["x^2", "x*y"], 0)]
)
def test_ring_depth_examples(gens, depth):
    nvars = 3 if len(gens) == 3 else 2
    rs = RingSpec(2, ["x", "y", "z"][:nvars], gens)
    assert ring_depth(rs) == depth


def test_depth_of_regular_ring_is_dimension():
    rs = RingSpec(5, ["x", "y"], [])
    assert ring_depth(rs) == 2


# -- Frobenius functor ---------------------------------------------------------------


def test_frobenius_of_residue_field_over_dual_numbers():
    rs = RingSpec(2, ["x"], ["x^2"])
    k = residue_field(rs)
    fk = with_modulus(frobenius_functor(k, 1), rs.ideal)
    # x^2 dies in R, so F(k) = R/(x^2) = R is free of rank one
    assert all(v.is_zero() for v in fk.columns)
    assert realize_finite(fk).dim == 2


def test_frobenius_functor_scales_twists():
    rs = flagship(3)
    k = residue_field(rs)
    fk = frobenius_functor(k, 1)
    assert fk.col_twists == (3, 3, 3)
    assert fk.columns[0].component(0) == rs.ring.parse("x^3")


def test_frobenius_composition_at_finite_length():
    rs = RingSpec(2, ["x", "y"], ["x^2", "x*y", "y^3"])
    m = cyclic_presentation(rs, ["x", "y^2"])
    once_twice = frobenius_functor(frobenius_functor(m, 1), 1)
    direct = frobenius_functor(m, 2)
    a = realize_finite(once_twice)
    b = realize_finite(direct)
    assert a.invariants() == b.invariants()


def test_frobenius_preserves_finite_length():
    rng = random.Random(29)
    rs = RingSpec(3, ["x", "y"], ["x^3", "y^3", "x*y^2"])
    for _ in range(5):
        extra = random_homogeneous(rng, 3, 2, rng.randint(1, 2))
        m = cyclic_presentation(rs, [rs.nf(extra)]) if not extra.is_zero() else residue_field(rs)
        fm = frobenius_functor(m, 1)
        realized = realize_finite(fm)
        assert realized.dim < 100


def test_differentials_stay_composable_after_frobenius():
    rs = flagship()
    res = resolve_presentation(residue_field(rs), max_steps=2)
    if res.length >= 2:
        a = [[f.frobenius_power(1) for f in row] for row in map_grid(res, 1)]
        b = [[f.frobenius_power(1) for f in row] for row in map_grid(res, 2)]
        for i in range(len(a)):
            for j in range(len(b[0])):
                acc = Polynomial.zero(2, 3)
                for t in range(len(b)):
                    acc = acc + a[i][t] * b[t][j]
                assert rs.nf(acc).is_zero()


# -- Tor against Frobenius -------------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 5])
def test_regular_ring_has_flat_frobenius(p):
    rs = RingSpec(p, ["x", "y"], [])
    k = residue_field(rs)
    for i in (1, 2):
        t = tor_frobenius(rs, k, i)
        assert t.dim == 0


def test_tor_one_detects_the_singularity():
    rs = RingSpec(2, ["x"], ["x^2"])
    t = tor_frobenius(rs, residue_field(rs), 1)
    assert t.dim == 2


def test_tor_zero_agrees_with_the_functor():
    rs = RingSpec(2, ["x", "y"], ["x^2", "y^2"])
    m = cyclic_presentation(rs, ["x"])
    t0 = tor_frobenius(rs, m, 0)
    direct = realize_finite(frobenius_functor(m, 1))
    assert t0.invariants() == direct.invariants()


def test_tor_vanishes_beyond_the_resolution():
    rs = RingSpec(2, ["x", "y"], [])
    m = cyclic_presentation(rs, ["x^2", "y^2"])
    t = tor_frobenius(rs, m, 2)
    assert t.dim == 0


# -- canonical modules and Hom into the ring ----------------------------------------------


def test_canonical_module_of_hypersurface_is_free():
    rs = RingSpec(2, ["x", "y"], ["x*y"])
    omega = canonical_module(rs)
    flag, twist = is_free_rank_one(omega)
    assert flag


def test_canonical_module_refuses_a_ring_that_is_not_cohen_macaulay():
    # dimension 1, but x is killed by m, so depth 0 and pd 2 exceeds c = 1
    rs = RingSpec(2, ["x", "y"], ["x^2", "x*y"])
    assert minimal_free_resolution(rs).length == 2
    with pytest.raises(NotCohenMacaulayError, match="projective dimension 2"):
        canonical_module(rs)


def test_canonical_module_of_flagship_needs_two_generators():
    omega = canonical_module(flagship())
    assert minimal_presentation(omega).nrows == 2


def test_canonical_generators_have_zero_annihilator():
    rs = flagship()
    omega = canonical_module(rs)
    homs = hom_into_ring_generators(omega)
    assert homs
    # the canonical module of a 1-dimensional CM ring embeds into R:
    # any embedding image is an ideal whose elements include a nonzerodivisor
    for vec, _deg in homs[:1]:
        assert not all(
            rs.nf(f).is_zero() for f in vec.as_poly_dict().values()
        )


def test_hom_into_ring_vanishes_for_torsion():
    rs = flagship()
    # R/(x + y + z) is torsion: the class of a nonzerodivisor kills it
    m = cyclic_presentation(rs, ["x + y + z"])
    assert hom_into_ring_generators(m) == []


def test_annihilator_checks():
    rs = flagship()
    one = Vec.unit(2, 3, 0)
    assert annihilator_is_zero(rs, one)
    xonly = Vec.from_polys([(0, rs.ring.parse("x"))])
    assert not annihilator_is_zero(rs, xonly)


def test_with_modulus_moves_to_smaller_quotient():
    rs = flagship()
    rq = rs.quotient_by([rs.ring.parse("x + y + z")])
    m = cyclic_presentation(rs, ["x"])
    moved = with_modulus(m, rq.ideal)
    assert moved.modulus == rq.ideal
    # R/(x+y+z, x) = k[y]/(y^2) has k-dimension 2
    assert realize_finite(moved).dim == 2


# -- generic Hom ----------------------------------------------------------------------


def test_hom_ring_to_ring_is_free_rank_one():
    rs = RingSpec(2, ["x"], ["x^3"])
    r = ring_as_module(rs)
    h = hom_presentation_generic(r, r)
    flag, twist = is_free_rank_one(h)
    assert flag and twist == 0


def test_hom_residue_field_to_itself():
    rs = RingSpec(3, ["x", "y"], ["x^2", "x*y", "y^2"])
    k = residue_field(rs)
    h = hom_presentation_generic(k, k)
    assert realize_finite(h).dim == 1


def test_hom_residue_field_into_positive_depth_ring_is_zero():
    rs = flagship()
    k = residue_field(rs)
    h = hom_presentation_generic(k, ring_as_module(rs))
    assert realize_finite(h).dim == 0


# -- one kernel, one resolution loop and one subquotient over S and over R ----------


def _apply(matrix, vec, rs=None):
    """A·v for a row-major matrix and a Vec, each entry mod I when rs is given."""
    parts = vec.as_poly_dict()
    out = []
    for row in matrix:
        acc = Polynomial.zero(vec.p, vec.nvars)
        for j, f in enumerate(row):
            if j in parts:
                acc = acc + f * parts[j]
        out.append(rs.nf(acc) if rs is not None else acc)
    return out


def _composes_to_zero(rs, a, b):
    return all(
        f.is_zero()
        for j in range(len(b[0]))
        for f in _apply(a, Vec.from_polys([(t, b[t][j]) for t in range(len(b))]), rs)
    )


def test_ideal_columns_are_the_generators_in_every_component():
    rs = RingSpec(3, ["x", "y"], ["x^2", "y^3"])
    x2, y3 = rs.ring.parse("x^2"), rs.ring.parse("y^3")
    cols = ideal_columns(rs.ideal, 2)
    assert [v.as_poly_dict() for v in cols] == [{0: x2}, {0: y3}, {1: x2}, {1: y3}]
    assert ideal_columns(None, 2) == []


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from([2, 3, 5]), st.integers(1, 3), st.integers(0, 3), st.randoms(use_true_random=False))
def test_free_module_basis_is_the_ideal_basis_in_every_component(p, r, ngens, rng):
    # a presentation with no columns takes its basis from the ideal's cached
    # one; the general path runs the kernel on the columns I·e_j
    ring = PolyRing(p, ["x", "y", "z"])
    ideal = Ideal(ring, [random_homogeneous(rng, p, 3, rng.randint(1, 3)) for _ in range(ngens)])
    pres = ModulePresentation(ring, ideal, [], [rng.randint(-1, 2) for _ in range(r)], [])
    assert list(pres.groebner_columns()) == module_groebner(ideal_columns(ideal, r))


def test_kernel_over_the_polynomial_ring_is_the_syzygy_module():
    rng = random.Random(41)
    for p in (2, 3, 5):
        for _ in range(5):
            nrows = rng.randint(1, 2)
            cols = []
            for _ in range(rng.randint(1, 3)):
                d = rng.randint(1, 2)
                terms = {}
                for i in range(nrows):
                    f = random_homogeneous(rng, p, 3, d)
                    terms.update({(i, m): c for m, c in f.terms.items()})
                cols.append(Vec(p, 3, terms))
            assert kernel_over_quotient(cols, nrows, None) == syzygy_basis(cols, nrows)


def test_a_cut_resolution_is_flagged_truncated():
    ring = PolyRing(2, ["x", "y", "z"])
    over_s = ModulePresentation(
        ring, None, columns_of_matrix([[ring.parse(v) for v in "xyz"]], ring), (0,), (1, 1, 1)
    )
    over_r = residue_field(flagship())
    for pres in (over_s, over_r):
        cut = resolve_presentation(pres, max_steps=1)
        assert cut.length == 1 and cut.truncated
    full = resolve_presentation(over_s)
    assert full.betti() == (1, 3, 3, 1) and not full.truncated
    assert not minimal_free_resolution(flagship()).truncated


@pytest.mark.parametrize(
    "p,names,gens",
    [
        (2, ["x", "y", "z"], ["x*y", "x*z", "y*z"]),
        (3, ["x", "y"], ["x^2", "x*y", "y^3"]),
        (5, ["x", "y"], ["x^2 - 2*x*y", "y^3"]),
    ],
)
def test_resolution_over_the_quotient_is_a_complex(p, names, gens):
    rs = RingSpec(p, names, gens)
    for pres in (residue_field(rs), cyclic_presentation(rs, ["x"])):
        res = resolve_presentation(pres, max_steps=4)
        assert res.length == 4 and res.truncated
        for k in range(1, res.length):
            assert _composes_to_zero(rs, map_grid(res, k), map_grid(res, k + 1))


def test_syzygies_of_a_zero_column_over_the_polynomial_ring():
    ring = PolyRing(3, ["x", "y"])
    zero = Polynomial.zero(3, 2)
    matrix = [[zero, ring.parse("x"), ring.parse("y")]]
    syz = syzygy_presentation(
        ModulePresentation(ring, None, columns_of_matrix(matrix, ring), (0,), (1, 1, 1))
    )
    for v in syz.columns:
        assert all(f.is_zero() for f in _apply(matrix, v))
    assert module_contains(Vec.unit(3, 2, 0), syz.columns)
    koszul = Vec.from_polys([(1, ring.parse("y")), (2, ring.parse("-x"))])
    assert module_contains(koszul, syz.columns)


def test_syzygies_of_a_zero_column_over_a_quotient():
    rs = RingSpec(3, ["x", "y"], ["x^2"])
    matrix = [[Polynomial.zero(3, 2), rs.ring.parse("y")]]
    syz = syzygy_presentation(
        ModulePresentation(rs.ring, rs.ideal, columns_of_matrix(matrix, rs.ring), (0,), (1, 1))
    )
    assert syz.nrows == 2
    for v in syz.columns:
        assert all(f.is_zero() for f in _apply(matrix, v, rs))
    # y is a nonzerodivisor on S/(x^2), so the kernel is R·e_0
    assert [v.as_poly_dict() for v in syz.columns] == [{0: rs.ring.parse("1")}]


# -- Hom and Tor against linear-algebra oracles ----------------------------------------


def _four_modules(rs):
    """R, k, R/(x) and E, each presented and realized."""
    hull = present_finite(injective_hull_of_residue_field(rs), rs)
    pres = [ring_as_module(rs), residue_field(rs), cyclic_presentation(rs, [rs.ring.gen(0)]), hull]
    return [(m, realize_finite(m)) for m in pres]


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(artinian_rings(primes=(2, 3, 5)))
@example(RingSpec(3, ["x", "y"], ["x^2", "x*y", "y^2"]))
@example(RingSpec(2, ["x", "y"], ["x^2", "x*y", "y^3"]))
@example(RingSpec(2, ["x", "y", "z"], ["x^2", "y^2", "z^2", "x*y"]))
def test_hom_presentation_has_the_length_of_the_hom_space(rs):
    # a presentation with a unit relation defines a module of finite length:
    # its component is killed outright, and realize_finite must accept it
    mods = _four_modules(rs)
    for m, real_m in mods:
        for n, real_n in mods:
            hom = realize_finite(hom_presentation_generic(m, n))
            assert hom.dim == len(hom_space(real_m, real_n))


def test_hom_presentations_are_minimal_modulo_the_image():
    # Hom(E, E) ≅ R/ann E = R and Hom(k, E) ≅ soc E = k are cyclic; kernel
    # generators redundant modulo the image columns must not survive
    rs = RingSpec(3, ["x", "y"], ["x^2", "x*y", "y^2"])
    k = residue_field(rs)
    for hull in (present_finite(injective_hull_of_residue_field(rs), rs), canonical_module(rs)):
        assert hom_presentation_generic(hull, hull).nrows == 1
        assert hom_presentation_generic(k, hull).nrows == 1


TOR_RINGS = [
    (2, ["x", "y"], ["x^3", "y^2"]),
    (2, ["x", "y"], ["x^2", "x*y", "y^3"]),
    (3, ["x", "y"], ["x^2", "x*y", "y^2"]),
    (3, ["x", "y"], ["x^3", "x*y", "y^2"]),
    (5, ["x", "y"], ["x^2", "y^2"]),
]


@pytest.mark.parametrize("p,names,gens", TOR_RINGS)
def test_tor_frobenius_matches_the_rank_oracle(p, names, gens):
    rs = RingSpec(p, names, gens)
    for m, _ in _four_modules(rs)[1:]:
        for i in (1, 2):
            assert tor_frobenius(rs, m, i).dim == tor_length_oracle(rs, m, i)


def test_tor_frobenius_counts_the_image_inside_the_quotient():
    rs = RingSpec(2, ["x", "y"], ["x^3", "y^2"])
    assert [tor_frobenius(rs, residue_field(rs), i).dim for i in (1, 2)] == [8, 12]
    rs = RingSpec(2, ["x", "y"], ["x^2", "x*y", "y^3"])
    hull = present_finite(injective_hull_of_residue_field(rs), rs)
    assert tor_frobenius(rs, hull, 1).dim == 9


def test_tor_of_the_residue_field_of_a_curve_has_finite_length():
    # m^[p] kills Tor_1(F_*R, k); over k[x,y]/(xy) it is (y)/(y^2) ⊕ (x)/(x^2)
    rs = RingSpec(2, ["x", "y"], ["x*y"])
    t = tor_frobenius(rs, residue_field(rs), 1)
    assert isinstance(t, FiniteLengthModule) and t.dim == 2


# -- minimal presentations: graded Nakayama in one routine ---------------------------


@st.composite
def graded_presentations(draw):
    """One to three generators in degrees 0..2 over a staircase, a binomial
    Artinian ring or a binomial curve, and up to four relations: some led by
    a unit entry, some zero, the rest random homogeneous columns."""
    rs = draw(st.one_of(artinian_rings(), curve_rings()))
    rng = draw(st.randoms(use_true_random=False))
    p, n = rs.p, rs.n
    zero = Polynomial.zero(p, n)
    rows = draw(st.lists(st.integers(0, 2), min_size=1, max_size=3))
    columns, col_twists = [], []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["unit", "random", "zero"]))
        pivot = draw(st.integers(0, len(rows) - 1))
        g = rows[pivot] + (0 if kind == "unit" else draw(st.integers(0, 2)))
        col = []
        for i, s in enumerate(rows):
            if kind == "unit" and i == pivot:
                col.append(Polynomial.constant(p, n, rng.randrange(1, p)))
            elif kind == "zero" or s > g or rng.random() < 0.3:
                col.append(zero)
            else:
                col.append(random_homogeneous(rng, p, n, g - s, 2))
        columns.append(col)
        col_twists.append(g)
    matrix = [[col[i] for col in columns] for i in range(len(rows))]
    return ModulePresentation(rs.ring, rs.ideal, columns_of_matrix(matrix, rs.ring), rows, col_twists)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(graded_presentations())
def test_minimal_presentation_is_minimal_and_presents_the_same_module(pres):
    small = minimal_presentation(pres)
    assert not any(mono_degree(m) == 0 for v in small.columns for _, m in v.terms)
    assert all(not vec_nf_mod_ideal(v, pres.modulus).is_zero() for v in small.columns)
    assert small.numerator_scaled() == pres.numerator_scaled()
    try:
        module = realize_finite(pres)
    except InfiniteLengthError:
        return
    # the minimal generator count by linear algebra: dim M - dim mM
    assert small.nrows == module.minimal_generator_count()


def test_minimal_presentation_cancels_a_unit_entry():
    # coker of [[1, x], [y, 0]] over F_3[x,y]/(x^2, y^2): e_0 = -y e_1 and
    # x e_0 = 0 leave R/(xy), one generator with the single relation x*y
    rs = RingSpec(3, ["x", "y"], ["x^2", "y^2"])
    one, x, y = (rs.ring.parse(t) for t in ("1", "x", "y"))
    matrix = [[one, x], [y, Polynomial.zero(3, 2)]]
    pres = ModulePresentation(rs.ring, rs.ideal, columns_of_matrix(matrix, rs.ring), (1, 0), (1, 2))
    small = minimal_presentation(pres)
    assert small.row_twists == (0,)
    assert small.columns == (Vec.from_polys([(0, rs.ring.parse("x*y"))]),)
