"""The package namespace: every name the package exports resolves to its
layer's object, and each import loads only the layers it reaches."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pearceylab

ROOT = Path(__file__).resolve().parents[1]

# layer module -> the names `pearceylab` has exported from it since the
# package imported every layer eagerly
EXPORTS = {
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
NAMES = [(layer, name) for layer, names in EXPORTS.items() for name in names]


class TestNamespace:
    @pytest.mark.parametrize("layer,name", NAMES)
    def test_export_is_the_layer_object(self, layer, name):
        owner = importlib.import_module(f"pearceylab.{layer}")
        # through the module __getattr__ too, which a cached global would bypass
        assert getattr(pearceylab, name) is getattr(owner, name)
        assert pearceylab.__getattr__(name) is getattr(owner, name)

    @pytest.mark.parametrize("layer", EXPORTS)
    def test_layer_resolves_by_name(self, layer):
        owner = importlib.import_module(f"pearceylab.{layer}")
        assert getattr(pearceylab, layer) is owner
        assert pearceylab.__getattr__(layer) is owner

    def test_dir_lists_every_export_and_layer(self):
        listed = set(dir(pearceylab))
        assert {name for _, name in NAMES} <= listed
        assert set(EXPORTS) <= listed
        assert "__version__" in listed

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            pearceylab.no_such_name  # noqa: B018
        assert not hasattr(pearceylab, "Kernels")

    def test_star_import_binds_every_export(self):
        ns = {}
        exec("from pearceylab import *", ns)
        for layer, name in NAMES:
            assert ns[name] is getattr(importlib.import_module(f"pearceylab.{layer}"), name)
        for layer in EXPORTS:
            if not layer.startswith("_"):
                assert ns[layer] is importlib.import_module(f"pearceylab.{layer}")


def _loaded(code):
    """The pearceylab submodules a fresh interpreter holds after running
    `code`, without the package prefix, and whether it loaded scipy."""
    probe = (f"{code}\nimport json, sys\n"
             "print(json.dumps([[m.split('.', 1)[1] for m in sys.modules "
             "if m.startswith('pearceylab.')], 'scipy' in sys.modules]))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    layers, scipy_loaded = json.loads(done.stdout.splitlines()[-1])
    return set(layers), scipy_loaded


def _first_calls():
    """Workload name -> FIRST_CALL of bench/workloads.py, read without
    importing the benchmark."""
    tree = ast.parse((ROOT / "bench" / "workloads.py").read_text())
    calls = {}
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        fields = {stmt.targets[0].id: stmt.value for stmt in cls.body
                  if isinstance(stmt, ast.Assign) and isinstance(stmt.targets[0], ast.Name)}
        if "FIRST_CALL" in fields:
            calls[ast.literal_eval(fields["name"])] = ast.literal_eval(fields["FIRST_CALL"])
    return calls


class TestLayerIsolation:
    """Each case runs in a fresh interpreter."""

    @pytest.mark.parametrize("code,layers", [
        ("import pearceylab", set()),
        ("import pearceylab.ensemble_mc", {"spectral_curve", "ensemble_mc"}),
        ("import pearceylab.fredholm", {"_quad", "spectral_curve", "kernels", "fredholm"}),
        ("from pearceylab import cli; cli.dispatch(['cusp', '--a', '1', '--b', '-1', "
         "'--p', '0.5'])", {"cli", "_quad", "spectral_curve"}),
        ("import pearceylab; pearceylab.gap_probability; pearceylab.spectral_curve",
         {"_quad", "spectral_curve", "kernels", "fredholm"}),
    ], ids=["package", "ensemble_mc", "fredholm", "cli-cusp", "attribute"])
    def test_import_loads_only_its_layers(self, code, layers):
        loaded, scipy_loaded = _loaded(code)
        assert loaded == layers
        assert not scipy_loaded

    @pytest.mark.parametrize("workload,layers", [
        ("pearcey-fredholm", {"_quad", "spectral_curve", "kernels", "fredholm"}),
        # the first finite-n value runs the descent check, which lives in kernels
        ("finite-n-spectral", {"_quad", "spectral_curve", "kernels"}),
        ("bridge-mc", {"spectral_curve", "ensemble_mc"}),
    ])
    def test_benchmark_first_call(self, workload, layers):
        loaded, scipy_loaded = _loaded(_first_calls()[workload])
        assert loaded == layers
        assert not scipy_loaded
