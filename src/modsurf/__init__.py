"""Numerics for equidistribution and Wasserstein distances on the modular surface.

The package verifies, at desk scale, the spectral machinery behind
Berry-Esseen-type bounds for the 1-Wasserstein distance on the modular
surface: the Gaussian test-function pair and its automorphic kernel, the
smoothing mollifier, Heegner-point and closed-geodesic measures, the
exact Eisenstein Weyl-sum identities, and exact/entropic optimal
transport between discrete measures.
"""

from .arithmetic import (
    ClosedGeodesic,
    DiscreteMeasure,
    QuadraticForm,
    class_number,
    closed_geodesics,
    geodesic_measure,
    haar_discretization,
    heegner_measure,
    is_fundamental,
    load_measure,
    reduced_forms,
    save_measure,
)
from .eisenstein import (
    MaassData,
    PartialBoundWarning,
    berry_esseen_rhs,
    berry_esseen_rhs_many,
    eisenstein_eval,
    scattering_phi,
    weyl_compare,
    weyl_sum_empirical,
    weyl_sum_exact_sq,
    weyl_sums_empirical,
)
from .hypgeo import (
    Point,
    UnimodularMatrix,
    height,
    reduce,
    surface_distance,
)
from .specfun import (
    bessel_k_imag,
    conical_p,
    dirichlet_l,
    h_minus,
    h_plus,
    h_watson,
    hurwitz_zeta,
    kronecker_symbol,
    riemann_zeta,
)
from .transform import (
    TransformParams,
    arsinh_moment,
    automorphic_kernel,
    forward_transform,
    h_test,
    inner_sine_integral,
    k_kernel,
    k_kernel_spectral,
    mollifier_k_eps,
    smooth,
    smooth_with_gradient,
)
from .transport import (
    CostMatrix,
    TransportPlan,
    cost_matrix,
    dual_lower_bound,
    w1_exact,
    w1_sinkhorn,
)

__version__ = "0.1.0"
