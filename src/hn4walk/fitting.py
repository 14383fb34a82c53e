"""Runtime-model fits over scaling records.

The peak times of a family of runs are reduced to a single coefficient c of
a one-parameter model t = c * f(N, M), fitted by least squares through the
origin.  Two models are supported: f = sqrt(N/M) and
f = sqrt((N/M) * ln(N/M)).  The logarithm is natural; a different base only
rescales the coefficient, never the residual ordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .reporting import ScalingRecord

__all__ = [
    "RuntimeModel",
    "parse_model",
    "model_scale",
    "FitResult",
    "FitError",
    "fit_scaling",
]


class RuntimeModel(str, Enum):
    SQRT = "sqrt"
    SQRT_LOG = "sqrt_log"


def parse_model(token: str) -> RuntimeModel:
    """Accept canonical names plus the CLI spelling "sqrtlog"."""
    normalized = token.strip().lower().replace("-", "_")
    if normalized == "sqrtlog":
        normalized = "sqrt_log"
    try:
        return RuntimeModel(normalized)
    except ValueError:
        raise FitError(f"unknown model {token!r}; expected sqrt or sqrtlog") from None


class FitError(ValueError):
    """Records do not satisfy the model's preconditions."""


def model_scale(model: RuntimeModel, n_elements: int, m: int) -> float:
    """Model value f(N, M) for one record; N and M must be at least 1."""
    if n_elements < 1 or m < 1:
        raise FitError(f"a record needs N >= 1 and M >= 1, got N={n_elements}, M={m}")
    ratio = n_elements / m
    if RuntimeModel(model) is RuntimeModel.SQRT:
        return math.sqrt(ratio)
    if ratio <= 1.0:
        raise FitError(f"sqrt_log needs N/M > 1, got N={n_elements}, M={m}")
    return math.sqrt(ratio * math.log(ratio))


@dataclass(frozen=True)
class FitResult:
    model: RuntimeModel
    coefficient: float
    rms_relative_residual: float
    points: int


def fit_scaling(records: Sequence[ScalingRecord], model: RuntimeModel) -> FitResult:
    """Least-squares coefficient of t = c * f(N, M) through the origin.

    Requires at least three records spanning at least three distinct model
    values f(N, M): three lattice sizes at fixed M, or three N/M ratios in a
    pooled fit.  Records of different M may be pooled under the sqrt model,
    where f absorbs M exactly; pooling under sqrt_log is refused because the
    log arguments differ.
    """
    model = RuntimeModel(model)
    if len(records) < 3:
        raise FitError(f"need at least 3 records, got {len(records)}")
    if model is RuntimeModel.SQRT_LOG and len({r.m for r in records}) > 1:
        raise FitError("sqrt_log cannot pool records with different target counts")
    scales = [model_scale(model, r.n_elements, r.m) for r in records]
    if len(set(scales)) < 3:
        raise FitError("records must span at least 3 distinct model values f(N, M)")
    times = [float(r.peak_step) for r in records]
    # fsum keeps the result independent of record order
    coefficient = math.fsum(t * f for t, f in zip(times, scales)) / math.fsum(
        f * f for f in scales
    )
    if coefficient <= 0:
        raise FitError(f"non-positive fitted coefficient {coefficient!r}")
    residual = math.sqrt(
        math.fsum(
            ((t - coefficient * f) / (coefficient * f)) ** 2 for t, f in zip(times, scales)
        )
        / len(records)
    )
    return FitResult(model, coefficient, residual, len(records))
