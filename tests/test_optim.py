"""Adam against an independent recomputation; differentiable SGD through the tape."""

import numpy as np
import pytest

from biltrans import tensor as T
from biltrans.config import default_config
from biltrans.nets import ParameterSet
from biltrans.optim import AdamState, adam_step, sgd_step_differentiable
from biltrans.tensor import Tape, TensorError, backward


def make_params(values: dict) -> ParameterSet:
    ps = ParameterSet("pg2")
    for name, v in values.items():
        ps.add(name, np.asarray(v, dtype=np.float64))
    return ps


def test_zero_gradient_is_fixed_point():
    ps = make_params({"w": [1.0, -2.0, 3.0]})
    state = AdamState.for_params(ps)
    before = ps["w"].data.copy()
    adam_step(state, ps, {"w": np.zeros(3)}, 0.1)
    assert state.t == 1
    np.testing.assert_array_equal(ps["w"].data, before)


def test_first_step_closed_form():
    ps = make_params({"w": 0.0})
    state = AdamState.for_params(ps)
    adam_step(state, ps, {"w": np.asarray(0.3)}, 0.1)
    # fresh state: m_hat = g, v_hat = g^2, update = -rate * g / (|g| + eps)
    expect = -0.1 * 0.3 / (0.3 + 1e-8)
    assert float(ps["w"].data) == pytest.approx(expect, abs=1e-12)
    assert float(ps["w"].data) == pytest.approx(-0.1, abs=1e-6)


def test_five_steps_match_independent_recomputation():
    # optimize f(theta) = (theta - 2)^2 from theta = 0
    ps = make_params({"w": 0.0})
    state = AdamState.for_params(ps)
    for _ in range(5):
        g = 2.0 * (float(ps["w"].data) - 2.0)
        adam_step(state, ps, {"w": np.asarray(g)}, 0.1)

    # independent reference, written straight from the update equations
    theta, m, v = 0.0, 0.0, 0.0
    b1, b2, eps, rate = 0.5, 0.999, 1e-8, 0.1
    for t in range(1, 6):
        g = 2.0 * (theta - 2.0)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        theta -= rate * m_hat / (np.sqrt(v_hat) + eps)
    assert float(ps["w"].data) == pytest.approx(theta, abs=1e-12)
    assert state.t == 5


def test_grad_key_mismatch_rejected():
    ps = make_params({"w": 0.0, "b": 0.0})
    state = AdamState.for_params(ps)
    with pytest.raises(TensorError, match="mismatch"):
        adam_step(state, ps, {"w": np.asarray(1.0)}, 0.1)
    with pytest.raises(TensorError, match="mismatch"):
        adam_step(state, ps, {"w": np.asarray(1.0), "b": np.asarray(1.0), "x": np.asarray(1.0)}, 0.1)


def test_non_finite_grad_rejected():
    ps = make_params({"w": 0.0})
    state = AdamState.for_params(ps)
    with pytest.raises(TensorError, match="non-finite"):
        adam_step(state, ps, {"w": np.asarray(np.nan)}, 0.1)


def test_adam_deterministic_and_state_pure():
    def run():
        ps = make_params({"w": np.ones(4)})
        state = AdamState.for_params(ps)
        rng = np.random.default_rng(3)
        for _ in range(10):
            adam_step(state, ps, {"w": rng.standard_normal(4)}, 0.05)
        return ps["w"].data.copy()

    np.testing.assert_array_equal(run(), run())


def test_adam_step_magnitude_bounded_by_rate():
    rng = np.random.default_rng(4)
    ps = make_params({"w": np.zeros(16)})
    state = AdamState.for_params(ps)
    prev = ps["w"].data.copy()
    for _ in range(50):
        adam_step(state, ps, {"w": rng.standard_normal(16) * 10}, 0.01)
        step = np.abs(ps["w"].data - prev)
        assert np.all(step <= 0.01 * (1 + 1e-6) / (1 - 0.5))  # loose Kingma bound
        prev = ps["w"].data.copy()


def test_sgd_config_validation():
    # the inner SGD step size is the config's alpha, rejected unless positive
    for alpha in (0.0, -1e-3, float("nan")):
        with pytest.raises(TensorError, match="alpha"):
            default_config(alpha=alpha)


def test_sgd_zero_rate_not_allowed_but_zero_alpha_step_identity():
    params = {"w": T.tensor([1.0, 2.0], requires_grad=True)}
    grads = {"w": T.tensor([5.0, -5.0])}
    out = sgd_step_differentiable(params, grads, rate=0.0)
    np.testing.assert_array_equal(out["w"].data, params["w"].data)


def test_sgd_arithmetic():
    params = {"w": T.tensor(1.0, requires_grad=True)}
    grads = {"w": T.tensor(2.0)}
    out = sgd_step_differentiable(params, grads, rate=0.1)
    assert float(out["w"].data) == pytest.approx(0.8)


def test_sgd_rejects_values_mode_tape():
    with Tape(Tape.VALUES):
        params = {"w": T.tensor(1.0, requires_grad=True)}
        grads = {"w": T.tensor(2.0)}
        with pytest.raises(TensorError, match="record-differentiably"):
            sgd_step_differentiable(params, grads, rate=0.1)


def test_unrolled_derivative_matches_hand_derivation():
    # L(theta) = theta^2, one step: theta' = theta - a * 2 theta = (1 - 2a) theta
    alpha = 0.1
    with Tape(Tape.DIFFERENTIABLE):
        theta = T.tensor(1.0, requires_grad=True)
        loss = T.square(theta)
        g = backward(loss, [theta])[theta]
        new = sgd_step_differentiable({"w": theta}, {"w": g}, rate=alpha)
        d = backward(new["w"], [theta])[theta]
    assert float(d.data) == pytest.approx(1 - 2 * alpha, abs=1e-12)
    assert float(new["w"].data) == pytest.approx(0.8)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_k_step_unrolled_quadratic_matches_analytic(k):
    # repeated steps on L = theta^2 give theta_k = (1 - 2a)^k theta_0
    alpha = 0.07
    with Tape(Tape.DIFFERENTIABLE):
        theta0 = T.tensor(0.9, requires_grad=True)
        cur = {"w": theta0}
        for _ in range(k):
            loss = T.square(cur["w"])
            g = backward(loss, [cur["w"]])[cur["w"]]
            cur = sgd_step_differentiable(cur, {"w": g}, rate=alpha)
        d = backward(cur["w"], [theta0])[theta0]
    assert float(d.data) == pytest.approx((1 - 2 * alpha) ** k, rel=1e-9)


@pytest.mark.parametrize("rate", [1e-3, 3e-4])
def test_first_step_moves_each_entry_by_at_most_the_rate(rate):
    # a fresh state serves any rate: the step size is the caller's
    rng = np.random.default_rng(6)
    ps = make_params({"w": rng.standard_normal((4, 3)), "b": rng.standard_normal(3)})
    before = {n: p.data.copy() for n, p in ps.items()}
    adam_step(AdamState.for_params(ps), ps, {n: rng.standard_normal(p.data.shape) for n, p in ps.items()}, rate)
    for n, p in ps.items():
        step = np.abs(p.data - before[n])
        assert np.all(step <= rate * (1 + 1e-9)) and np.all(step > rate / 2), n
