"""Correlation-tensor criteria for two-qubit steering, entanglement and
Bell nonlocality, verified by spherical quadrature."""

import importlib

# Bound first and eagerly: importing the submodule ``steerkit.svd3`` sets the
# package attribute of that name to the module, which would hide the function.
from .svd3 import svd3

__version__ = "0.1.0"

# Every other export, by the module that defines it. Each loads on first
# access (PEP 562), so a command imports only the modules it runs. Each
# access reads the module's current attribute, so patching
# ``steerkit.<module>.X`` reaches ``steerkit.X`` too.
_EXPORTS = {
    **dict.fromkeys([
        "Criterion",
        "NoDetection",
        "critical_noise",
        "ladder",
        "tensor_norm_sq",
    ], "criteria"),
    **dict.fromkeys([
        "NoiseFamily",
        "ParameterOutOfRange",
        "family_from_name",
        "noisy_schmidt",
        "noisy_schmidt_family",
        "sweep",
        "werner",
        "werner_family",
    ], "families"),
    **dict.fromkeys([
        "ClippedLinearResponse",
        "ConstantResponse",
        "DegenerateTensor",
        "HiddenStateModel",
        "ModelComponent",
        "SignResponse",
        "lhv_bound",
        "model_state_overlap",
        "model_state_overlap_mc",
        "model_state_overlaps",
        "norm_eq_analytic",
        "ns_bound",
        "ns_correlation_fn",
        "random_model",
        "random_models",
        "saturating_model",
    ], "oracle"),
    **dict.fromkeys([
        "SphereGrid",
        "inner_product",
        "integrate",
        "sphere_grid",
        "uniform_sphere",
    ], "sphere"),
    **dict.fromkeys([
        "CorrelationTensor",
        "DensityMatrix4",
        "StateValidationError",
        "correlation_fn",
        "pauli_expansion",
        "random_density_matrix",
        "validate_state",
    ], "states"),
    "SchmidtForm": "svd3",
}


def __getattr__(name):
    if name in _EXPORTS:
        return getattr(__getattr__(_EXPORTS[name]), name)
    if name in _EXPORTS.values():  # the module itself
        return importlib.import_module("." + name, __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTS})


__all__ = sorted(["svd3", *_EXPORTS])
