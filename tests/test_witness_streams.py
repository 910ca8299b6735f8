"""Pins on the candidates the witness searches try past their caps.

The benchmark workloads keep every witness search exhaustive, so nothing
else checks what a search tries once its span is too large to walk line by
line. Each test feeds one site an input past its cap and pins the first
candidates handed to the site's exact accept test, or the witness it
returns. The pipeline searches walk a rational normal curve
(`artinian.span_search`), so a change of the walk's order fails here;
`modules_isomorphic` samples a seeded stream, and a change of its stream or
of its draw order fails here too.
"""

import hashlib

import numpy as np
import pytest
from test_artinian import BIG_P, _conjugate

from fpicheck import artinian
from fpicheck.artinian import FiniteLengthModule, modules_isomorphic
from fpicheck.classify import (
    canonical_ideal,
    find_nzds,
    ideals_isomorphic,
)
from fpicheck.errors import NoNzdFoundError
from fpicheck.gfpoly import poly_to_string
from fpicheck.groebner import RingSpec


@pytest.fixture
def nzd_calls(monkeypatch):
    """Every candidate handed to `RingSpec.is_nzd`, as a string."""
    calls = []
    original = RingSpec.is_nzd

    def spy(self, f):
        calls.append(poly_to_string(f, self.ring.varnames))
        return original(self, f)

    monkeypatch.setattr(RingSpec, "is_nzd", spy)
    return calls


@pytest.fixture
def invertible_calls(monkeypatch):
    """Every candidate map handed to `is_invertible` in `modules_isomorphic`."""
    calls = []
    original = artinian.is_invertible

    def spy(m, p):
        calls.append(np.asarray(m).tolist())
        return original(m, p)

    monkeypatch.setattr(artinian, "is_invertible", spy)
    return calls


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _depth_zero(p):
    # x is killed by the maximal ideal, so R has no non-zero-divisor at all
    return RingSpec(p, ["x", "y", "z"], ["x^2", "x*y", "x*z"])


def test_find_nzds_degree_two_stream(nzd_calls):
    # p = 7: the 57 linear forms are walked line by line; the 19608 quadric
    # lines are past the cap, so the walk takes e(k - 1) + 1 = 6 points of
    # the curve (1, c, ..., c^5) in the monomial basis x^2, xy, y^2, xz, yz,
    # z^2 (e = 1, k = 6). The first, x^2, is zero in R and never tested.
    # R has depth 0, so e bounds no associated primes: the miss is incomplete
    with pytest.raises(NoNzdFoundError, match="degree 2 was incomplete: R is not Cohen-Macaulay"):
        find_nzds(_depth_zero(7))
    assert len(nzd_calls) == 62
    assert nzd_calls[:2] == ["x", "x + z"] and nzd_calls[56] == "z"
    assert nzd_calls[57:] == [
        "x^2 + x*y + y^2 + x*z + y*z + z^2",
        "x^2 + 2*x*y + y^2 + 4*x*z + 2*y*z + 4*z^2",
        "x^2 + 3*x*y + 6*y^2 + 2*x*z + 4*y*z + 5*z^2",
        "x^2 + 4*x*y + y^2 + 2*x*z + 4*y*z + 2*z^2",
        "x^2 + 5*x*y + 6*y^2 + 4*x*z + 2*y*z + 3*z^2",
    ]


def test_ideals_isomorphic_multiplier_stream():
    # m ≅ m^2 on the cross xy = 0 at p = 4099: both the non-zero-divisor
    # f = a*x + b*y of R (which lies in m) and the multiplier h = c*x^2 +
    # d*y^2 range over p + 1 = 4100 lines, one past the cap, so both come
    # from the curve walk: its first point (1, 0) is a zero-divisor, or no
    # multiplier, and its second, (1, 1), is accepted
    rs = RingSpec(4099, ["x", "y"], ["x*y"])
    parse = rs.ring.parse
    res = ideals_isomorphic(rs, [parse("x"), parse("y")], [parse("x^2"), parse("y^2")])
    assert res.verdict == "true" and res.shift == -1
    h, f = res.multiplier
    assert poly_to_string(h, ["x", "y"]) == "x^2 + y^2"
    assert poly_to_string(f, ["x", "y"]) == "x + y"


def test_canonical_ideal_stream():
    # axes at p = 101: the degree-1 slice of Hom(omega, R) spans 10303 lines,
    # so the curve is walked, for at most e(k - 1) + 1 = 7 points
    rs = RingSpec(101, ["x", "y", "z"], ["x*y", "x*z", "y*z"])
    ci = canonical_ideal(rs)
    assert ci.status == "found" and ci.shift == 1
    assert [poly_to_string(g, ["x", "y", "z"]) for g in ci.generators] == [
        "x + z", "y + 100*z",
    ]


def test_modules_isomorphic_witness_stream(invertible_calls):
    # the BIG_P pair of test_artinian at seed 0: the first draw is invertible
    plain = np.diag([1, 1, 0, 1, 1], k=1)
    src = FiniteLengthModule(BIG_P, [plain])
    dst = FiniteLengthModule(BIG_P, [_conjugate(plain)])
    res = modules_isomorphic(src, dst, seed=0)
    assert res.verdict == "isomorphic"
    assert len(invertible_calls) == 1
    assert _digest(invertible_calls) == (
        "be934766a5b599b75e966ab8507c7b882a7429941a4ac0120e3d80cd99ed0c5c"
    )
    assert _digest(res.witness) == (
        "9c536ea84e38756b56da0de0b8b9ce591837e91d665c440f42059b56f2e3e758"
    )


def test_modules_isomorphic_refutation_stream(invertible_calls):
    # k[x]/(x^2) + k[y]/(y^2) against k[x]/(x^2) twice: the same length,
    # socle, generators and Loewy series, but y acts on only one of them, so
    # all 500 draws from the 6-dimensional hom space fail
    x1, y1, x2 = (np.zeros((4, 4), dtype=np.int64) for _ in range(3))
    x1[1, 0] = y1[3, 2] = x2[1, 0] = x2[3, 2] = 1
    src = FiniteLengthModule(BIG_P, [x1, y1])
    dst = FiniteLengthModule(BIG_P, [x2, np.zeros((4, 4), dtype=np.int64)])
    res = modules_isomorphic(src, dst, seed=0)
    assert res.verdict == "inconclusive"
    assert len(invertible_calls) == 500
    assert invertible_calls[0] == [
        [673887960, 0, 0, 0],
        [1209182493, 673887960, 842974865, 0],
        [1243360, 0, 0, 0],
        [1568892619, 1243360, 1874531801, 0],
    ]
    assert _digest(invertible_calls[:20]) == (
        "ffdf88a927c240437bff9914ad9ffb0e54cdafea01d9769669ca978f84b2a3b5"
    )
