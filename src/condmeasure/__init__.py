"""Exactly-computable conditional set and measure theory over finite measure algebras."""

from .algebra import INF, Field, MeasureAlgebra, format_value, parse_value
from .condsets import (
    BOTTOM,
    CondSpace,
    ConditionalSet,
    GroundSpace,
    cartesian_product,
    cond_difference,
    cond_intersection,
    cond_le,
    cond_union,
    membership_event,
    product_space,
)
from .sigma import (
    SetRing,
    StableFunction,
    StableRing,
    StableSigmaAlgebra,
    classify,
    cond_preimage,
    fiberwise_sigma_oracle,
    generate_dynkin,
    generate_sigma,
    is_stable_collection,
    is_stably_measurable,
)
from .measure import (
    OuterMeasure,
    StableMeasure,
    caratheodory_extend,
    check_measure_axioms,
    is_caratheodory_measurable,
    uniqueness_check,
)
from .integral import (
    ElementaryFunction,
    Integrand,
    canonical_elementary,
    concatenate_integrands,
    dyadic_approximation,
    elementary_integral,
    indicator,
    integrate,
    integrate_via_dyadic,
)
from .kernels import (
    Kernel,
    SubAlgebra,
    conditional_distribution,
    conditional_expectation,
    field_as_observation,
    kernel_to_measure,
    measure_to_kernel,
)
from .product import (
    StableMarkovKernel,
    daniell_stone_finite,
    fubini,
    hahn_positive_set,
    markov_product,
    product_measure,
    product_sigma,
    radon_nikodym,
    rn_improvement_step,
    section_at,
    section_mass_integrand,
)

__version__ = "0.1.0"
