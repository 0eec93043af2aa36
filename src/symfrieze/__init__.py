"""Exact arithmetic for symplectic 2-friezes and their relatives.

The package works over exact scalars (rationals, Gaussian rationals,
or tolerance-checked complex floats) and connects five views of the
same data: staggered frieze grids, symmetric superperiodic difference
equations, SL-friezes with their projective and Gale duals, polygon
lifts paired by a symplectic form, and cluster-algebra seeds.  A
command line tool (`symfrieze`) exposes the conversions and checks.
"""

from .cluster import (
    ExchangeMatrix,
    LaurentPolynomial,
    NonLaurentQuotient,
    Seed,
    belt_step,
    c2_square_aw,
    evaluate_frieze,
    formal_frieze,
    initial_seed,
    mutate_matrix,
    mutate_seed,
)
from .diffeq import (
    SymmetricDiffEq,
    band_determinant,
    is_superperiodic,
    monodromy,
    solve,
    variety_residuals,
    white_band_determinant,
)
from .formats import (
    FormatError,
    InvalidDocument,
    document_of,
    dumps,
    grid_of,
    loads,
    render_frieze_text,
)
from .frieze import (
    FriezeError,
    FriezeGrid,
    GridIndex,
    SLFrieze,
    ZigZag,
    check_glide,
    check_local_rules,
    check_periodicity,
    check_tame,
    dihedral_images,
    extract_coeffs,
    from_equation,
    mirror_grid,
    propagate_from_coeffs,
    propagate_from_zigzag,
    sign_twist,
    translate,
)
from .legendrian import (
    Polygon,
    SymplecticForm,
    frieze_from_polygon,
    normalize_lift,
    omega,
    polygon_from_frieze,
)
from .scalars import COMPLEX, GAUSSIAN, RATIONAL, GaussianRational, kind_by_name
from .search import SearchConfig, census, dihedral_orbits, enumerate_friezes
from .slfrieze import black_of, coeffs_of, gale_dual, projective_dual, symplectic_of

__version__ = "0.1.0"

__all__ = [
    "COMPLEX",
    "ExchangeMatrix",
    "FormatError",
    "FriezeError",
    "FriezeGrid",
    "GAUSSIAN",
    "GaussianRational",
    "GridIndex",
    "InvalidDocument",
    "LaurentPolynomial",
    "NonLaurentQuotient",
    "Polygon",
    "RATIONAL",
    "SLFrieze",
    "SearchConfig",
    "Seed",
    "SymmetricDiffEq",
    "SymplecticForm",
    "ZigZag",
    "band_determinant",
    "belt_step",
    "black_of",
    "c2_square_aw",
    "census",
    "check_glide",
    "check_local_rules",
    "check_periodicity",
    "check_tame",
    "coeffs_of",
    "dihedral_images",
    "dihedral_orbits",
    "document_of",
    "dumps",
    "enumerate_friezes",
    "evaluate_frieze",
    "extract_coeffs",
    "formal_frieze",
    "frieze_from_polygon",
    "from_equation",
    "gale_dual",
    "grid_of",
    "initial_seed",
    "is_superperiodic",
    "kind_by_name",
    "loads",
    "mirror_grid",
    "monodromy",
    "mutate_matrix",
    "mutate_seed",
    "normalize_lift",
    "omega",
    "polygon_from_frieze",
    "projective_dual",
    "propagate_from_coeffs",
    "propagate_from_zigzag",
    "render_frieze_text",
    "sign_twist",
    "solve",
    "symplectic_of",
    "translate",
    "variety_residuals",
    "white_band_determinant",
]
