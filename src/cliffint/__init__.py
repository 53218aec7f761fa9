"""Exact and numerical integration built on real Clifford algebra.

Modules:

- ``clifford``: multivectors, geometric/dot/wedge products, Gram determinants.
- ``polyalg``: exact polynomials in several vector variables, differential
  operators, delta-distribution pairing, exact pi-power scalars.
- ``exterior``: Clifford-valued differential forms and the oriented
  surface-measure identities.
- ``pizzetti``: exact sphere and Stiefel integrals of polynomials.
- ``geomint``: delta-function surface quadrature on grids, Monte Carlo over
  frames, tangential Dirac operators and boundary-value checks.
- ``cli``: command-line interface.
"""

from .clifford import (Multivector, blades_of_grade, dot, gram_det, wedge,
                       wedge_vectors)
from .exterior import (CheckResult, CliffordForm, CliffordPoly, check_psi_blade_pairing,
                       check_gradient_contraction, check_dirac_psi_derivative, check_gradient_blade_volume, check_oriented_measure_product,
                       exterior_derivative, form_mul, psi)
from .geomint import (BlockOrthogonalResult, BoundaryContactError,
                      CauchyResult, FloatRangeError, Frame, ImplicitSurfaceSpec,
                      IndependenceError, MCEstimate, QuadratureConfig,
                      TransversalityError, block_orthogonal_check,
                      cauchy_check, haar_sample_stiefel, integrate_implicit,
                      integrate_oriented, mc_stiefel_integral,
                      phase_rescale_invariance, tangent_normal_frames,
                      tangential_dirac)
from .pizzetti import (PizzettiResult, directional_power_closed_form, gauss_sum_check,
                       phi_coefficient, sphere_pizzetti,
                       sphere_pizzetti_detailed, stiefel2_explicit,
                       stiefel_pizzetti_composed, stiefel_volume,
                       surface_area)
from .polyalg import (ExactScalar, VectorPoly, apply_diffop, delta_pair,
                      fischer_commute, fischer_pair, gamma_half,
                      pochhammer_half)

__all__ = [
    "Multivector", "blades_of_grade", "dot", "gram_det", "wedge",
    "wedge_vectors",
    "CheckResult", "CliffordForm", "CliffordPoly", "check_psi_blade_pairing", "check_gradient_contraction",
    "check_dirac_psi_derivative", "check_gradient_blade_volume", "check_oriented_measure_product", "exterior_derivative",
    "form_mul", "psi",
    "BlockOrthogonalResult", "BoundaryContactError", "CauchyResult",
    "FloatRangeError", "Frame",
    "ImplicitSurfaceSpec", "IndependenceError", "MCEstimate",
    "QuadratureConfig", "TransversalityError", "block_orthogonal_check",
    "cauchy_check", "haar_sample_stiefel", "integrate_implicit",
    "integrate_oriented", "mc_stiefel_integral", "phase_rescale_invariance",
    "tangent_normal_frames", "tangential_dirac",
    "PizzettiResult", "directional_power_closed_form", "gauss_sum_check",
    "phi_coefficient", "sphere_pizzetti", "sphere_pizzetti_detailed",
    "stiefel2_explicit", "stiefel_pizzetti_composed", "stiefel_volume",
    "surface_area",
    "ExactScalar", "VectorPoly", "apply_diffop", "delta_pair",
    "fischer_commute", "fischer_pair", "gamma_half", "pochhammer_half",
]

__version__ = "0.1.0"
