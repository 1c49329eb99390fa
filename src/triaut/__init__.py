"""Exact computer algebra for triangular automorphisms of affine space.

The carrier is sparse multivariate polynomial arithmetic over the
rationals (`Polynomial`).  On top of it: the group of triangular
automorphisms (compose, invert, commutators, elementary factorization),
triangular derivations with their Lie bracket and exponential map, exact
bracket-closure of derivation sets with lower-central and derived
series, and a witness harness that checks the degree bound, solvability
depth, unipotency, and the order-two counterexample on sampled data.
"""

from .errors import CapExceededError, ParseError, PropertyViolation, TriangularityError
from .polynomials import (
    MINUS_INFINITY,
    Monomial,
    Polynomial,
    Scalar,
    as_scalar,
    monomials_up_to_degree,
    term_order_key,
)
from .automorphisms import (
    TriangularAutomorphism,
    commutator,
    compose,
    compose_all,
    elementary_factorization,
    elementary_scaling,
    elementary_shear,
    identity,
    invert,
    make,
    power,
    random_triangular,
    staircase_map,
)
from .derivations import (
    TriangularDerivation,
    bracket,
    exponential,
    make_derivation,
    nilpotency_index,
    random_triangular_derivation,
)
from .lie import (
    LieBasis,
    closure_report,
    derived_series,
    lie_closure,
    lower_central_series,
    nilpotency_class,
    vectorize,
)
from .harness import (
    CounterexampleReport,
    DepthReport,
    FuzzReport,
    UnipotentReport,
    degree_fuzz,
    derived_depth_test,
    nonconnected_counterexample,
    order_two_generator,
    unipotent_generation_test,
)
from .parsing import (
    parse_automorphism,
    parse_derivation,
    parse_derivation_blocks,
    parse_polynomial,
)

__version__ = "0.1.0"
