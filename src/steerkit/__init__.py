"""Correlation-tensor criteria for two-qubit steering, entanglement and
Bell nonlocality, verified by spherical quadrature."""

import importlib

from .criteria import (
    Criterion,
    NoDetection,
    critical_noise,
    ladder,
    tensor_norm_sq,
)
from .families import (
    NoiseFamily,
    ParameterOutOfRange,
    family_from_name,
    noisy_schmidt,
    noisy_schmidt_family,
    sweep,
    werner,
    werner_family,
)
from .states import (
    ConditionalState,
    CorrelationTensor,
    DensityMatrix4,
    StateValidationError,
    conditional_state,
    correlation_fn,
    joint_probability,
    pauli_expansion,
    random_density_matrix,
    random_unit_vector,
    state_from_tensor,
    validate_state,
)
from .svd3 import SchmidtForm, svd3

__version__ = "0.1.0"

# The oracle and the quadrature are loaded on first access (PEP 562), so
# that the criteria commands never import them. Each access reads the
# module's current attribute, so patching ``steerkit.oracle.X`` reaches
# ``steerkit.X`` too.
_LAZY = {
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
}


def __getattr__(name):
    if name in _LAZY:
        return getattr(__getattr__(_LAZY[name]), name)
    if name in _LAZY.values():  # the module itself
        return importlib.import_module("." + name, __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_LAZY})


__all__ = sorted([
    "ConditionalState",
    "CorrelationTensor",
    "Criterion",
    "DensityMatrix4",
    "NoDetection",
    "NoiseFamily",
    "ParameterOutOfRange",
    "SchmidtForm",
    "StateValidationError",
    "conditional_state",
    "correlation_fn",
    "critical_noise",
    "family_from_name",
    "joint_probability",
    "ladder",
    "noisy_schmidt",
    "noisy_schmidt_family",
    "pauli_expansion",
    "random_density_matrix",
    "random_unit_vector",
    "state_from_tensor",
    "svd3",
    "sweep",
    "tensor_norm_sq",
    "validate_state",
    "werner",
    "werner_family",
    *_LAZY,
])
