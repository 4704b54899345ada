"""Finite Boolean algebras, Stone spaces, canonical extensions, and the
greatest compactification of finite discrete spaces, with an exhaustive
harness certifying that the order-theoretic extension of a homomorphism
coincides with its topological double dual."""

__version__ = "0.1.0"

from .algebra import (
    BoolHom,
    FinBoolAlg,
    FinLattice,
    FinPoset,
    UltraFilter,
    all_filters,
    all_homs,
    all_ideals,
    hom_from_atom_function,
    powerset_algebra,
    ultrafilters,
    validate_hom,
)
from .compactification import (
    BetaSpace,
    Compactification,
    beta_extend_to_compact,
    beta_lift,
    beta_preserves,
    beta_space,
    build_compactification,
    compactification_equivalent,
    compactification_leq,
)
from .duality import (
    ClopenAlgebra,
    ContinuousLanes,
    FinStoneSpace,
    clopen_algebra,
    discrete_space,
    dual_map,
    dual_of_continuous,
    dual_space,
    stone_representation,
)
from .extension import (
    Completion,
    canonical_extension,
    completion,
    completion_isomorphic,
    is_compact,
    is_dense,
    sigma_extend,
)
from .harness import (
    DiagramLanes,
    VerificationReport,
    build_diagram,
    double_dual_map,
    exhaustive_suite,
)
