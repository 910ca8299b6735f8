"""Exact classifier for Frobenius properties of graded quotient rings.

The package decides, for R = F_p[x_1..x_n]/I of Krull dimension at most
one, whether R is Cohen-Macaulay, Gorenstein, F-pure, and whether the
Frobenius functor carries injective modules to injective modules. All
arithmetic is exact over F_p and every verdict carries a witness.
"""

from .errors import (
    CasError,
    InfiniteLengthError,
    NoNzdFoundError,
    NonHomogeneousError,
    NonPrimeError,
    NotCohenMacaulayError,
    ParseError,
    PipelineInvariantError,
    ResourceLimitError,
    UnsupportedDimensionError,
)
from .gfpoly import Polynomial, monomials_of_degree, poly_to_string
from .groebner import (
    Ideal,
    PolyRing,
    RingSpec,
    bracket_power,
    ideal_colon,
    ideal_intersect,
    ideal_product,
    ideal_saturation,
    in_radical,
    minimal_primes_monomial,
)
from .modgb import Vec, kernel_over_quotient, module_groebner, syzygy_basis
from .resolutions import (
    FreeResolution,
    ModulePresentation,
    canonical_module,
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
    with_modulus,
)
from .artinian import (
    FiniteLengthModule,
    IsoResult,
    frobenius_fixes_injective_hull,
    modules_isomorphic,
    realize_finite,
    socle_dimension_of_ring,
)
from .pushforward import (
    TwistedHom,
    frobenius_pushforward,
    hom_presentation,
    hom_pushforward_into_ring,
)
from .classify import (
    CanonicalIdealResult,
    IdealIsoResult,
    RingReport,
    canonical_ideal,
    classify_ring,
    find_nzds,
    ideals_isomorphic,
    is_f_pure,
    is_f_pure_by_fedder,
    is_gorenstein,
    minimal_ideal_generators,
    minimal_prime_count,
    monomial_generically_gorenstein,
    report_is_decisive,
)
from .cli import CensusConfig, main, parse_ring_spec, run_census

__version__ = "0.1.0"
