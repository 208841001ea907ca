"""Exact Casson-Gordon obstruction engine for cabled torus knot sums.

Computes Casson-Gordon sigma invariants and nullities of connected sums
of (2,p)-cables of (2,q) torus knots, enumerates isotropic characters of
the double-branched-cover linking form, and certifies topological
four-genus lower bounds by exhausting the signature inequality over all
of them.  Includes a search mode over prime tuples.

Records are `typing.NamedTuple`s, not dataclasses: they are immutable
and compare by value like frozen dataclasses, but defining them
generates no code, which a cold CLI process would pay for at every
import.
"""

# set before the submodule imports: search.py stamps it into checkpoints
__version__ = "0.1.0"

from .casson_gordon import (
    Character,
    SigmaTable,
    build_sigma_tables,
    eta_cable,
    eta_knot,
    sigma_cable,
    sigma_knot,
    sigma_torus,
)
from .knots import (
    FoxMilnorResult,
    GAKnot,
    Piece,
    build_family,
    format_knot,
    fox_milnor_check,
    is_algebraic_piece,
    parse_knot,
)
from .linking_form import (
    PrimaryPart,
    enumerate_isotropic_classes,
    enumerate_projective_isotropic,
    is_isotropic,
    primary_parts,
    sqrt_table,
)
from .obstruction import (
    ObstructionReport,
    PrimeResult,
    Witness,
    check_point,
    family_parameters,
    genus_lower_bound,
    verify_primary_part,
)
from .search import RANKINGS, SearchConfig, config_from_settings, enumerate_candidates
from .search import parse_config_file, search
from .signatures import (
    RootOfUnity,
    lt_nullity,
    lt_signature,
    signature_at_minus_one,
    signature_function_samples,
    signature_nullity_exact,
    torus_signature_at_angle,
)

__all__ = [
    "Character",
    "FoxMilnorResult",
    "GAKnot",
    "ObstructionReport",
    "Piece",
    "PrimaryPart",
    "PrimeResult",
    "RANKINGS",
    "RootOfUnity",
    "SearchConfig",
    "SigmaTable",
    "Witness",
    "build_family",
    "build_sigma_tables",
    "check_point",
    "config_from_settings",
    "enumerate_candidates",
    "enumerate_isotropic_classes",
    "enumerate_projective_isotropic",
    "eta_cable",
    "eta_knot",
    "family_parameters",
    "format_knot",
    "fox_milnor_check",
    "genus_lower_bound",
    "is_algebraic_piece",
    "is_isotropic",
    "lt_nullity",
    "lt_signature",
    "parse_config_file",
    "parse_knot",
    "primary_parts",
    "search",
    "sigma_cable",
    "sigma_knot",
    "sigma_torus",
    "signature_at_minus_one",
    "signature_function_samples",
    "signature_nullity_exact",
    "sqrt_table",
    "torus_signature_at_angle",
    "verify_primary_part",
]
