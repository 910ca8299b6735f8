"""Finite-length modules, Matlis duality, and the depth-zero Frobenius test."""

from itertools import product

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from oracles import (
    action_matrices,
    artinian_rings,
    columns_of_matrix,
    dense_rref,
    direct_sum,
    frobenius_hull_oracle,
    injective_hull_of_residue_field,
    present_finite,
    realize_finite_oracle,
    staircase_rings,
)

from fpicheck import artinian, resolutions
from fpicheck.artinian import (
    FiniteLengthModule,
    frobenius_fixes_injective_hull,
    hom_space,
    hull_power,
    modules_isomorphic,
    realize_finite,
    ring_as_module,
    socle_dimension_of_ring,
    span_search,
)
from fpicheck.errors import InfiniteLengthError, PipelineInvariantError
from fpicheck.gfpoly import Polynomial
from fpicheck.groebner import RingSpec
from fpicheck.linalg import nullspace
from fpicheck.resolutions import ModulePresentation, canonical_module, frobenius_functor


def cyclic(rs, gens):
    polys = [rs.ring.parse(g) for g in gens]
    return ModulePresentation(
        rs.ring,
        rs.ideal,
        columns_of_matrix([[rs.nf(f) for f in polys]], rs.ring),
        (0,),
        tuple(f.degree() for f in polys),
    )


def dual_numbers():
    return RingSpec(2, ["x"], ["x^2"])


def fat_point():
    return RingSpec(2, ["x", "y"], ["x^2", "x*y", "y^2"])


# -- realization --------------------------------------------------------------


def test_realize_cyclic_quotient():
    rs = dual_numbers()
    m = realize_finite(cyclic(rs, ["x"]))
    assert m.dim == 1
    assert m.socle_dimension() == 1


def test_realize_ring_itself():
    rs = fat_point()
    r = realize_finite(ring_as_module(rs))
    assert r.dim == 3
    assert r.minimal_generator_count() == 1
    assert r.socle_dimension() == 2
    assert r.loewy_series() == (1, 2)


def test_realize_rejects_infinite_length():
    rs = RingSpec(2, ["x", "y"], ["x*y"])
    with pytest.raises(InfiniteLengthError):
        realize_finite(ring_as_module(rs))


def test_non_commuting_actions_are_rejected():
    # x e0 = e1 and y e1 = e2: y x e0 = e2 but x y e0 = 0
    x = [[0, 0, 0], [1, 0, 0], [0, 0, 0]]
    y = [[0, 0, 0], [0, 0, 0], [0, 1, 0]]
    with pytest.raises(ValueError, match="commute"):
        FiniteLengthModule(3, [x, y])
    with pytest.raises(ValueError, match="commute"):
        FiniteLengthModule.of_columns(3, [[{1: 1}, {}, {}], [{}, {2: 1}, {}]], 3)


def test_a_relation_that_acts_nontrivially_is_caught(monkeypatch):
    # coker(x^3) over F_2[x]/(x^2) is R itself; with the x^2·e_0 column
    # dropped from its Groebner input it becomes F_2[x]/(x^3), on which the
    # defining relation x^2 does not act as zero
    rs = dual_numbers()
    pres = ModulePresentation(
        rs.ring, rs.ideal, columns_of_matrix([[rs.ring.parse("x^3")]], rs.ring), (0,), (3,)
    )
    assert realize_finite(pres).dim == 2
    monkeypatch.setattr(resolutions, "ideal_columns", lambda ideal, nrows: [])
    pres = ModulePresentation(pres.ring, pres.modulus, pres.columns, (0,), (3,))
    with pytest.raises(PipelineInvariantError, match="acts nontrivially"):
        realize_finite(pres)


def test_action_matrices_satisfy_ring_relations():
    rs = RingSpec(3, ["x", "y"], ["x^2", "y^3"])
    r = realize_finite(ring_as_module(rs))
    ax, ay = (np.array(a) for a in action_matrices(r))
    assert not (ax @ ax % 3).any()
    assert not (ay @ ay @ ay % 3).any()
    assert ((ax @ ay - ay @ ax) % 3 == 0).all()


def test_present_finite_round_trip():
    for rs in (dual_numbers(), fat_point(), RingSpec(3, ["x"], ["x^4"])):
        e = injective_hull_of_residue_field(rs)
        back = realize_finite(present_finite(e, rs))
        assert back.invariants() == e.invariants()


# -- duality --------------------------------------------------------------------


def test_injective_hull_of_fat_point():
    rs = fat_point()
    e = injective_hull_of_residue_field(rs)
    assert e.dim == 3
    assert e.minimal_generator_count() == 2  # dual to the 2-dimensional socle
    assert e.socle_dimension() == 1


def test_socle_of_fat_point_ring():
    assert socle_dimension_of_ring(fat_point()) == 2
    assert socle_dimension_of_ring(dual_numbers()) == 1


def test_matlis_dual_is_an_involution():
    for rs in (dual_numbers(), fat_point(), RingSpec(5, ["x"], ["x^3"])):
        r = realize_finite(ring_as_module(rs))
        dd = r.matlis_dual().matlis_dual()
        assert modules_isomorphic(r, dd).verdict == "isomorphic"


def test_dual_swaps_socle_and_generators():
    rs = RingSpec(2, ["x", "y"], ["x^2", "y^2", "x*y"])
    r = realize_finite(ring_as_module(rs))
    d = r.matlis_dual()
    assert d.socle_dimension() == r.minimal_generator_count()
    assert d.minimal_generator_count() == r.socle_dimension()


def test_gorenstein_ring_is_self_dual():
    rs = RingSpec(3, ["x", "y"], ["x^2", "y^2"])
    r = realize_finite(ring_as_module(rs))
    e = injective_hull_of_residue_field(rs)
    assert modules_isomorphic(r, e).verdict == "isomorphic"


# -- hom spaces --------------------------------------------------------------------


def test_hom_from_residue_field_counts_socle():
    rs = dual_numbers()
    k = realize_finite(cyclic(rs, ["x"]))
    r = realize_finite(ring_as_module(rs))
    assert len(hom_space(k, r)) == 1
    fat = fat_point()
    kf = realize_finite(cyclic(fat, ["x", "y"]))
    rf = realize_finite(ring_as_module(fat))
    assert len(hom_space(kf, rf)) == 2


def test_hom_space_entries_are_module_maps():
    rs = RingSpec(3, ["x"], ["x^3"])
    a = realize_finite(cyclic(rs, ["x^2"]))
    b = realize_finite(ring_as_module(rs))
    for mat in hom_space(a, b):
        mat = np.array(mat)
        for act_a, act_b in zip(action_matrices(a), action_matrices(b)):
            assert ((mat @ act_a - act_b @ mat) % 3 == 0).all()


# -- isomorphism testing --------------------------------------------------------------


def test_modules_isomorphic_reflexive():
    for rs in (dual_numbers(), fat_point()):
        r = realize_finite(ring_as_module(rs))
        assert modules_isomorphic(r, r).verdict == "isomorphic"


def test_modules_isomorphic_rejects_on_invariants():
    rs = RingSpec(2, ["x"], ["x^3"])
    k = realize_finite(cyclic(rs, ["x"]))
    two = direct_sum([k, k])
    r2 = realize_finite(cyclic(rs, ["x^2"]))
    out = modules_isomorphic(two, r2)
    assert out.verdict == "not_isomorphic"
    assert "socle" in out.reason or "mingens" in out.reason or "loewy" in out.reason


def test_modules_isomorphic_distinguishes_lengths():
    rs = dual_numbers()
    k = realize_finite(cyclic(rs, ["x"]))
    r = realize_finite(ring_as_module(rs))
    assert modules_isomorphic(k, r).verdict == "not_isomorphic"


def test_isomorphism_witness_is_invertible_map():
    rs = RingSpec(3, ["x"], ["x^3"])
    r = realize_finite(ring_as_module(rs))
    e = injective_hull_of_residue_field(rs)
    out = modules_isomorphic(r, e)
    assert out.verdict == "isomorphic"
    w = np.array(out.witness) % 3
    assert int(round(abs(np.linalg.det(w.astype(float))))) % 3 != 0
    for act_a, act_b in zip(action_matrices(r), action_matrices(e)):
        assert ((w @ act_a - act_b @ w) % 3 == 0).all()


def test_direct_sum_adds_invariants():
    rs = fat_point()
    r = realize_finite(ring_as_module(rs))
    s = direct_sum([r, r])
    assert s.dim == 2 * r.dim
    assert s.socle_dimension() == 2 * r.socle_dimension()
    assert s.minimal_generator_count() == 2 * r.minimal_generator_count()


# -- the depth-zero Frobenius criterion --------------------------------------------------


def test_frobenius_fixes_hull_of_dual_numbers():
    fixed, w = frobenius_fixes_injective_hull(dual_numbers())
    assert fixed is True
    assert w["frobenius_image_injective"] == "true"
    assert w["n_witness"] == 1
    assert w["length_E"] == w["length_FE"] == 2


def test_frobenius_moves_hull_of_fat_point():
    fixed, w = frobenius_fixes_injective_hull(fat_point())
    assert fixed is False
    assert w["length_E"] == 3


def test_the_hull_check_rejects_a_wrong_e(monkeypatch):
    # R of the fat point has type 2: it has the length of E but a socle of
    # dimension 2, so it is no injective hull
    rs = RingSpec(3, ["x", "y"], ["x^2", "x*y", "y^2"])
    monkeypatch.setattr(artinian, "canonical_module", ring_as_module)
    with pytest.raises(PipelineInvariantError, match="injective hull"):
        frobenius_fixes_injective_hull(rs)


@pytest.mark.parametrize(
    "p,names,gens,expected",
    [
        (2, ["x"], ["x^2"], "true"),
        (3, ["x"], ["x^5"], "true"),
        (2, ["x", "y"], ["x^2", "y^2"], "true"),
        (3, ["x", "y"], ["x^2", "x*y", "y^2"], "false"),
        (2, ["x", "y"], ["x^3", "x*y", "y^3"], "false"),
    ],
)
def test_hull_comparison_matches_gorenstein_property(p, names, gens, expected):
    rs = RingSpec(p, names, gens)
    fixed, _ = frobenius_fixes_injective_hull(rs)
    assert ("true" if fixed else "false") == expected
    assert (socle_dimension_of_ring(rs) == 1) == (expected == "true")


def test_field_case_is_trivially_fixed():
    rs = RingSpec(5, ["x"], ["x"])
    fixed, w = frobenius_fixes_injective_hull(rs)
    assert fixed is True
    assert w["length_E"] == 1


def test_seeded_results_are_reproducible():
    rs = RingSpec(3, ["x", "y"], ["x^3", "y^3"])
    a = frobenius_fixes_injective_hull(rs)
    b = frobenius_fixes_injective_hull(rs)
    assert a[0] is b[0] is True
    assert a[1]["n_witness"] == b[1]["n_witness"] == 1


# -- E from the canonical module against the Matlis-dual route --------------------


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(artinian_rings())
@example(fat_point())
@example(RingSpec(2, ["x", "y"], ["x^3", "x*y", "y^3"]))
@example(RingSpec(3, ["x", "y"], ["x^3", "x*y", "y^4"]))
def test_canonical_hull_matches_the_matlis_dual_route(rs):
    # the last two examples have linear entries in E and top degree q, so
    # their Frobenius entries have degree exactly t and are not zero in R
    hull = realize_finite(canonical_module(rs))
    assert (hull.dim, hull.socle_dimension()) == (realize_finite(ring_as_module(rs)).dim, 1)
    _, w = frobenius_fixes_injective_hull(rs)
    got = {"length_fe": w["length_FE"], "socle_fe": w["socle_FE"],
           "injective": w["frobenius_image_injective"]}
    assert got == frobenius_hull_oracle(rs)


# -- the socle-and-length certificate against the hom-space search ---------------


def hull_and_frobenius(rs):
    """(R, E, F(E)) as finite-length modules, E by the Matlis-dual route and
    F(E) through `frobenius_functor`."""
    e = injective_hull_of_residue_field(rs)
    fe = realize_finite(frobenius_functor(present_finite(e, rs)))
    return realize_finite(ring_as_module(rs)), e, fe


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(artinian_rings())
@example(fat_point())
def test_hull_power_matches_the_hom_space_search(rs):
    # R of a non-Gorenstein ring has the length of E and a larger socle: the
    # one way found to reach the socle refutation with equal lengths
    r, e, fe = hull_and_frobenius(rs)
    powers = [FiniteLengthModule.of_columns(e.p, [()] * e.nvars, 0)]
    powers += [direct_sum([e] * n) for n in (1, 2, 3)]
    for m in (r, e, fe, direct_sum([e, e]), direct_sum([r, e])):
        got = hull_power(m, r.dim)
        verdicts = [modules_isomorphic(power, m).verdict for power in powers]
        for n, verdict in enumerate(verdicts):
            if verdict != "inconclusive":
                assert (got == n) == (verdict == "isomorphic")
        if set(verdicts) == {"not_isomorphic"}:
            assert got is None


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(artinian_rings())
def test_frobenius_hull_verdicts_match_the_hom_space_search(rs):
    _, e, fe = hull_and_frobenius(rs)
    fixed, w = frobenius_fixes_injective_hull(rs)
    assert (w["length_E"], w["length_FE"], w["socle_FE"]) == (e.dim, fe.dim, fe.socle_dimension())
    iso = modules_isomorphic(e, fe)
    if iso.decided:
        assert fixed == (iso.verdict == "isomorphic")
    n, rest = divmod(fe.dim, e.dim)
    power = modules_isomorphic(direct_sum([e] * n), fe) if n and not rest else None
    if power is None or power.decided:
        found = power is not None and power.verdict == "isomorphic"
        got = (w["frobenius_image_injective"], w["n_witness"])
        assert got == (("true", n) if found else ("false", None))


def test_equal_lengths_with_a_larger_socle_refute_like_the_search(monkeypatch):
    # no F(E) found so far has λ(F(E)) = λ(E) and a socle above 1, so R of
    # the fat point, with socle 2, stands in for F(E)
    rs = fat_point()
    r, e, _ = hull_and_frobenius(rs)
    monkeypatch.setattr(artinian, "frobenius_functor", lambda pres, e=1: ring_as_module(rs))
    fixed, w = frobenius_fixes_injective_hull(rs)
    oracle = modules_isomorphic(e, r)
    assert (fixed, w["detail"]) == (oracle.verdict == "isomorphic", oracle.reason)
    assert w["detail"] == "invariant mismatch: socle 1 vs 2"
    assert (w["frobenius_image_injective"], w["n_witness"]) == ("false", None)


# -- the capped span search ------------------------------------------------------


def _line(v, p):
    """The representative with first nonzero entry 1 of the line through v."""
    inv = pow(next(c for c in v if c), p - 2, p)
    return tuple(c * inv % p for c in v)


def _curve_point(p, k, i):
    """The i-th point of the walk: (1, c, ..., c^(k-1)) for c = i < p, then
    the point at infinity (0, ..., 0, 1)."""
    return tuple(pow(i, j, p) for j in range(k)) if i < p else (0,) * (k - 1) + (1,)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_span_search_walks_every_line_once_up_to_the_cap(p, k):
    lines = (p**k - 1) // (p - 1)
    every_line = {_line(v, p) for v in product(range(p), repeat=k) if any(v)}
    for cap in (lines, lines + 1):
        tried = []
        hit, exhaustive = span_search(p, k, lambda v: v, lambda v: tried.append(v), cap, 1)
        assert (hit, exhaustive) == (None, True)
        assert len(tried) == lines
        assert {_line(v, p) for v in tried} == every_line


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_span_search_returns_an_exhaustive_hit(p, k):
    last = (0,) * (k - 1) + (1,)
    lines = (p**k - 1) // (p - 1)
    hit = span_search(p, k, lambda v: v, lambda v: v == last, lines, 1)
    assert hit == (last, True)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_span_search_samples_past_the_cap(p, k):
    # past the cap the span is sampled along the rational normal curve:
    # a(k - 1) + 1 points in order, or all p + 1 when that is more, and the
    # walk is complete when a(k - 1) + 1 <= p + 1; a span of at most one
    # line is always walked whole
    lines = (p**k - 1) // (p - 1)
    for a in (1, 2, 3):
        tried = []
        hit, complete = span_search(p, k, tuple, lambda c: tried.append(c), lines - 1, a)
        if k < 2:
            assert (hit, complete) == (None, True)
            assert len(tried) == lines
            continue
        need = a * (k - 1) + 1
        assert (hit, complete) == (None, need <= p + 1)
        assert tried == [_curve_point(p, k, i) for i in range(min(need, p + 1))]
    if k >= 2:
        third = _curve_point(p, k, 2)
        tried = []
        hit = span_search(p, k, tuple, lambda c: tried.append(c) or c == third, lines - 1, 2)
        assert hit == (third, 2 * (k - 1) + 1 <= p + 1)
        assert len(tried) == 3


@pytest.mark.parametrize("p, k, a", [
    (p, k, a) for p in (2, 3, 5, 7, 11) for k in (2, 3, 4) for a in (1, 2, 3, 4, 5)
    if a * (k - 1) + 1 <= p + 1
])
def test_span_search_walk_beats_adversarial_hyperplanes(p, k, a):
    # each of a hyperplanes is put through k - 1 of the first a(k - 1) points
    # of the walk, so only the next point escapes them all; when
    # a(k - 1) + 1 = p + 1 that is the point at infinity
    points = [_curve_point(p, k, i) for i in range(a * (k - 1) + 1)]
    normals = []
    for j in range(a):
        chosen = points[j * (k - 1):(j + 1) * (k - 1)]
        (normal,) = nullspace([list(v) for v in chosen], k, p)
        normals.append(normal)

    def accept(v):
        return all(sum(h * x for h, x in zip(normal, v)) % p for normal in normals)

    assert not any(accept(v) for v in points[:-1])
    hit = span_search(p, k, tuple, accept, 0, a)
    assert hit == (points[-1], True)


# -- products exact at the top of the prime range --------------------------------
#
# At p = 2^31 - 1 one product of two reduced entries nearly fills an int64, so
# an int64 dot product with three such terms wraps around.

BIG_P = 2147483647


def _exact(a, b, p=BIG_P):
    return np.array(
        (np.asarray(a, dtype=object) @ np.asarray(b, dtype=object)) % p, dtype=np.int64
    )


def _rank_one_nilpotent():
    """v w^T with w.v = 0, entries p-1 or small: its square is zero mod p."""
    v = np.array([1, -1, -1, -1])
    w = np.array([-3, -1, -1, -1])
    return np.outer(v, w) % BIG_P


def _conjugate(a, p=BIG_P):
    """P a P^-1 for P = (I + cL)(I + dU), L and U the lower and upper shifts."""
    n = a.shape[0]
    out = np.asarray(a, dtype=np.int64)
    for k, c in ((1, 987654321), (-1, p - 12345)):
        shift = np.eye(n, k=k, dtype=np.int64).astype(object)
        unipotent = (np.eye(n, dtype=np.int64) + c * shift) % p
        inverse = sum((-c) ** e * np.linalg.matrix_power(shift, e) for e in range(n)) % p
        out = _exact(_exact(unipotent, out), inverse)
    return out


def test_big_prime_commutation_check_is_exact():
    # a and -2a commute mod p; as integer matrices they do not
    a = _rank_one_nilpotent()
    assert FiniteLengthModule(BIG_P, [a, (BIG_P - 2) * a % BIG_P]).dim == 4


def test_big_prime_act_monomial_is_exact():
    # the all-(p-1) matrix is -J; -J applied to (-1, -1, -1) is (3, 3, 3)
    m = FiniteLengthModule(BIG_P, [np.full((3, 3), BIG_P - 1, dtype=np.int64)])
    assert m.act_monomial(dict.fromkeys(range(3), BIG_P - 1), (1,)) == dict.fromkeys(range(3), 3)


def test_big_prime_loewy_series_is_exact():
    # a has rank one and square zero: layers of dimension 3 and 1
    assert FiniteLengthModule(BIG_P, [_rank_one_nilpotent()]).loewy_series() == (3, 1)


def test_big_prime_isomorphism_witness_is_a_module_map():
    # k[x]/(x^3) + k[x]/(x^3), once plain and once in a dense basis: the
    # 12-dimensional hom space is sampled, as p^12 is far past exhaustion
    plain = np.diag([1, 1, 0, 1, 1], k=1)
    dense = _conjugate(plain)
    src, dst = FiniteLengthModule(BIG_P, [plain]), FiniteLengthModule(BIG_P, [dense])
    for seed in range(5):
        res = modules_isomorphic(src, dst, seed=seed)
        assert res.verdict == "isomorphic"
        assert np.array_equal(_exact(res.witness, plain), _exact(dense, res.witness))


def test_big_prime_act_poly_is_exact():
    # against the action applied one monomial at a time and summed with
    # object-dtype numpy; the dense basis makes the square of x wrap around
    # in int64
    m = FiniteLengthModule(BIG_P, [_conjugate(np.diag([1, 1, 0, 1, 1], k=1))])
    f = Polynomial(BIG_P, 1, {(0,): BIG_P - 1, (1,): BIG_P - 3, (2,): 5, (3,): 7})
    x = np.array(action_matrices(m)[0], dtype=object)
    want = sum(c * np.linalg.matrix_power(x, e) for (e,), c in f.terms.items()) % BIG_P
    for k in range(6):
        got = m.act_poly({k: 1}, f)
        assert [got.get(i, 0) for i in range(6)] == want[:, k].tolist()


def test_loewy_series_rejects_a_non_nilpotent_action():
    # the identity never shrinks the module, so the radical layers never end
    with pytest.raises(PipelineInvariantError, match="does not descend"):
        FiniteLengthModule(3, [np.eye(3, dtype=np.int64)]).loewy_series()


# -- realize_finite against the column-by-column oracle -------------------------


def assert_realizes_like_oracle(pres):
    module = realize_finite(pres)
    actions, degrees = realize_finite_oracle(pres)
    assert module.degrees == degrees
    assert action_matrices(module) == [a.tolist() for a in actions]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_realize_finite_matches_oracle_on_staircases(p):
    several_components = binomial_basis = False
    for _, rs in staircase_rings(p):
        pres_e = present_finite(injective_hull_of_residue_field(rs), rs)
        fe = frobenius_functor(pres_e)
        for pres in (ring_as_module(rs), pres_e, fe):
            assert_realizes_like_oracle(pres)
            binomial_basis |= any(len(g.terms) > 1 for g in pres.groebner_columns())
        several_components |= fe.nrows > 1
    # E of a non-Gorenstein staircase has several generators, and relations
    # such as y*e0 - x*e1 make some columns reduce to non-monomial images
    assert several_components and binomial_basis


def socle_and_length_oracle(pres):
    """(length, socle dimension) of the module from the oracle's dense
    actions: the socle is the kernel of the stacked action matrices."""
    actions, degrees = realize_finite_oracle(pres)
    stacked = np.vstack(actions) if degrees else np.zeros((0, 0), dtype=np.int64)
    return len(degrees), len(degrees) - len(dense_rref(stacked, pres.ring.p)[1])


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_socle_and_length_match_oracle_on_staircases(p):
    for _, rs in staircase_rings(p):
        pres_e = canonical_module(rs)
        for pres in (ring_as_module(rs), pres_e, frobenius_functor(pres_e)):
            module = realize_finite(pres)
            assert (module.dim, module.socle_dimension()) == socle_and_length_oracle(pres)


def test_big_prime_realize_finite_matches_oracle():
    rs = RingSpec(BIG_P, ["x", "y"], ["x^2 - 3*x*y + 2*y^2", "x^3", "y^3"])
    assert_realizes_like_oracle(ring_as_module(rs))
    assert_realizes_like_oracle(present_finite(injective_hull_of_residue_field(rs), rs))
