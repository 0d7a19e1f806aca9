"""Numerical laboratory for non-intersecting Brownian bridges with two target
points: spectral-curve densities, cusp critical data, Pearcey/Airy/finite-n
kernels, Fredholm gap probabilities, the Pearcey PDE residual, resolvent
identities, and the generic steepest-descent scaling solver.

`import pearceylab` loads none of the layer modules.  A name exported here,
or a layer module reached as `pearceylab.<layer>`, imports its layer on first
use (PEP 562), and a layer loads only the layers it imports itself:

- `spectral_curve`: no other layer;
- `ensemble_mc`: `_quad` and `spectral_curve`;
- `kernels`: `_quad` and `spectral_curve`;
- `fredholm`: `_quad`, `spectral_curve` and `kernels`;
- `scaling`: `_quad`, `spectral_curve` and `kernels`;
- `pde_lab`: `_quad`, `spectral_curve`, `kernels` and `fredholm`;
- `cli`: `_quad`, and each other layer when a subcommand first calls into it.
"""

import importlib

__version__ = "0.1.0"

# layer module -> the names the package exports from it
_EXPORTS = {
    "_quad": ("QuadratureError", "QuadratureSpec"),
    "spectral_curve": ("CriticalData", "DensitySample", "MergeEvent", "SupportSet",
                       "TargetConfig", "branch_points", "find_cusp", "solve_stieltjes",
                       "support_endpoints", "sweep_density", "track_merges"),
    "kernels": ("ContourPath", "FiniteKernelParams", "PearceyPQ", "airy_kernel",
                "build_contours", "finite_n_diagonal", "finite_n_kernel", "pearcey_kernel",
                "pearcey_kernel_pq_form", "pearcey_pq"),
    "fredholm": ("GapResult", "IntervalUnion", "ResolventData", "airy_gap_on_ray",
                 "gap_probability", "multitime_gap", "pearcey_kernel_handle",
                 "resolvent_quantities"),
    "scaling": ("ActionDerivatives", "ScalingCoefficients", "ScalingExponents", "action_F",
                "contour_descent_check", "convergence_study", "conjugation_factor",
                "critical_exponents", "remainder_bound_check", "rescale_map",
                "solve_scaling", "two_target_action_derivatives"),
    "pde_lab": ("QSurface", "ResidualReport", "pearcey_pde_residual", "q_surface",
                "small_interval_checks", "wronskian_coefficient"),
    "ensemble_mc": ("PathBundle", "SpectrumSample", "density_compare", "fit_cusp_exponent",
                    "sample_bridge_paths", "sample_spectrum"),
}
_OWNER = {name: layer for layer, names in _EXPORTS.items() for name in names}

# `from pearceylab import *` binds every exported name and the public layers
__all__ = [*_OWNER, *(layer for layer in _EXPORTS if not layer.startswith("_"))]


def __getattr__(name):
    if name in _EXPORTS:
        # the import binds the submodule as a package attribute
        return importlib.import_module(f"{__name__}.{name}")
    if name in _OWNER:
        value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
