"""Numerical laboratory for non-intersecting Brownian bridges with two target
points: spectral-curve densities, cusp critical data, Pearcey/Airy/finite-n
kernels, Fredholm gap probabilities, the Pearcey PDE residual, resolvent
identities, and the generic steepest-descent scaling solver."""

from ._quad import QuadratureError, QuadratureSpec
from .spectral_curve import (CriticalData, DensitySample, MergeEvent, SupportSet,
                             TargetConfig, branch_points, find_cusp,
                             solve_stieltjes, support_endpoints, sweep_density,
                             track_merges)
from .kernels import (ContourPath, FiniteKernelParams, PearceyPQ, airy_kernel,
                      build_contours, finite_n_diagonal, finite_n_kernel,
                      pearcey_kernel, pearcey_kernel_pq_form, pearcey_pq)
from .fredholm import (GapResult, IntervalUnion, ResolventData, airy_gap_on_ray,
                       gap_probability, multitime_gap, pearcey_kernel_handle,
                       resolvent_quantities)
from .scaling import (ActionDerivatives, ScalingCoefficients, ScalingExponents,
                      action_F, contour_descent_check, convergence_study,
                      conjugation_factor, critical_exponents, remainder_bound_check,
                      rescale_map, solve_scaling, two_target_action_derivatives)
from .pde_lab import (QSurface, ResidualReport, pearcey_pde_residual, q_surface,
                      small_interval_checks, wronskian_coefficient)
from .ensemble_mc import (PathBundle, SpectrumSample, density_compare,
                          fit_cusp_exponent, sample_bridge_paths, sample_spectrum)

__version__ = "0.1.0"
