import math

import pytest
from hypothesis import given, strategies as st

from hn4walk.experiments import ScalingRecord
from hn4walk.fitting import (
    FitError,
    RuntimeModel,
    fit_scaling,
    model_scale,
    parse_model,
)


def record(n_elements, m, peak_step, side=None):
    side = side or int(round(math.sqrt(n_elements)))
    return ScalingRecord(
        side=side,
        n_elements=n_elements,
        m=m,
        na=8.5 * m,
        mode="hn4",
        seed=0,
        trial=0,
        peak_step=peak_step,
        peak_probability=0.9,
        amplified_cost=peak_step / math.sqrt(0.9),
    )


def synthetic(coefficient, model, sizes=(4096, 16384, 65536, 262144), m=1):
    return [
        record(n, m, int(round(coefficient * model_scale(model, n, m))))
        for n in sizes
    ]


def test_parse_model():
    assert parse_model("sqrt") is RuntimeModel.SQRT
    assert parse_model("sqrtlog") is RuntimeModel.SQRT_LOG
    assert parse_model("sqrt_log") is RuntimeModel.SQRT_LOG
    with pytest.raises(FitError):
        parse_model("cubic")


def test_model_scale():
    assert model_scale(RuntimeModel.SQRT, 4096, 1) == 64.0
    assert model_scale(RuntimeModel.SQRT, 4096, 4) == 32.0
    expected = math.sqrt(4096 * math.log(4096))
    assert model_scale(RuntimeModel.SQRT_LOG, 4096, 1) == pytest.approx(expected)
    with pytest.raises(FitError):
        model_scale(RuntimeModel.SQRT_LOG, 16, 16)


@pytest.mark.parametrize("model", list(RuntimeModel))
@pytest.mark.parametrize(
    "n_elements, m, match",
    [(4096, 0, "M >= 1, got N=4096, M=0"), (4096, -1, "M >= 1, got N=4096, M=-1"),
     (0, 1, "M >= 1, got N=0, M=1")],
    ids=["m-zero", "m-negative", "n-zero"],
)
def test_model_scale_refuses_empty_lattice_or_target_set(model, n_elements, m, match):
    with pytest.raises(FitError, match=match):
        model_scale(model, n_elements, m)


def test_fit_exact_synthetic():
    records = [record(n, 1, 2 * int(math.sqrt(n))) for n in (4096, 16384, 65536)]
    fit = fit_scaling(records, RuntimeModel.SQRT)
    assert fit.coefficient == pytest.approx(2.0)
    assert fit.rms_relative_residual == pytest.approx(0.0, abs=1e-12)
    assert fit.points == 3


def test_fit_preconditions():
    with pytest.raises(FitError):
        fit_scaling([record(4096, 1, 100)] * 2, RuntimeModel.SQRT)
    same_n = [record(4096, 1, 100 + i) for i in range(5)]
    with pytest.raises(FitError):
        fit_scaling(same_n, RuntimeModel.SQRT)
    two_n = [record(4096, 1, 100), record(16384, 1, 200), record(16384, 1, 210)]
    with pytest.raises(FitError):
        fit_scaling(two_n, RuntimeModel.SQRT)


def test_sqrt_log_refuses_pooled_target_counts():
    records = synthetic(2.0, RuntimeModel.SQRT, m=1) + synthetic(
        2.0, RuntimeModel.SQRT, m=2
    )
    with pytest.raises(FitError):
        fit_scaling(records, RuntimeModel.SQRT_LOG)
    # the sqrt model absorbs M and accepts the pooled records
    fit = fit_scaling(records, RuntimeModel.SQRT)
    assert fit.coefficient == pytest.approx(2.0, rel=1e-2)


def test_scale_equivariance():
    base = synthetic(3.0, RuntimeModel.SQRT)
    fit1 = fit_scaling(base, RuntimeModel.SQRT)
    doubled = [
        record(r.n_elements, r.m, 2 * r.peak_step) for r in base
    ]
    fit2 = fit_scaling(doubled, RuntimeModel.SQRT)
    assert fit2.coefficient == pytest.approx(2 * fit1.coefficient, rel=1e-12)


@given(st.permutations(range(4)))
def test_permutation_invariance(order):
    base = synthetic(1.75, RuntimeModel.SQRT)
    shuffled = [base[i] for i in order]
    assert fit_scaling(shuffled, RuntimeModel.SQRT) == fit_scaling(base, RuntimeModel.SQRT)


def test_closed_form_minimizes_squared_error():
    # golden-section scan around the closed-form optimum on noisy data
    records = [
        record(4096, 1, 130),
        record(16384, 1, 248),
        record(65536, 1, 540),
        record(262144, 1, 1010),
    ]
    fit = fit_scaling(records, RuntimeModel.SQRT)
    scales = [model_scale(RuntimeModel.SQRT, r.n_elements, r.m) for r in records]
    times = [r.peak_step for r in records]

    def loss(c):
        return sum((t - c * f) ** 2 for t, f in zip(times, scales))

    lo, hi = fit.coefficient * 0.5, fit.coefficient * 1.5
    phi = (math.sqrt(5) - 1) / 2
    for _ in range(200):
        a = hi - phi * (hi - lo)
        b = lo + phi * (hi - lo)
        if loss(a) < loss(b):
            hi = b
        else:
            lo = a
    scanned = (lo + hi) / 2
    assert scanned == pytest.approx(fit.coefficient, rel=1e-9)
