"""Parameter updates: Adam for outer/baseline training, SGD for the
differentiable inner loop."""

from dataclasses import dataclass, field, replace

import numpy as np

from . import tensor as T
from .tensor import Tape, TensorError, active_tape


@dataclass
class AdamState:
    """Per-parameter moments and step counter for one network."""

    rate: float
    beta1: float = 0.5
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    @classmethod
    def for_params(cls, params, rate, beta1=0.5, beta2=0.999, eps=1e-8):
        state = cls(rate=float(rate), beta1=beta1, beta2=beta2, eps=eps)
        for name, p in params.items():
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        return state

    def copy(self) -> "AdamState":
        """Deep copy of the moments."""
        return replace(self, m={k: a.copy() for k, a in self.m.items()},
                       v={k: a.copy() for k, a in self.v.items()})


def adam_step(state: AdamState, params, grads: dict):
    """One bias-corrected Adam update, in place on the parameter values.

    ``grads`` maps parameter name -> ndarray and must carry exactly the
    parameter names, all finite.
    """
    names = list(params.keys())
    if set(grads.keys()) != set(names):
        missing = set(names) - set(grads.keys())
        extra = set(grads.keys()) - set(names)
        raise TensorError(f"adam_step: grad keys mismatch (missing={sorted(missing)}, extra={sorted(extra)})")
    for name in names:
        if not np.all(np.isfinite(grads[name])):
            raise TensorError(f"adam_step: non-finite gradient for {name!r}")
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1**state.t
    bc2 = 1.0 - b2**state.t
    for name in names:
        g = np.asarray(grads[name], dtype=np.float64)
        state.m[name] = b1 * state.m[name] + (1.0 - b1) * g
        state.v[name] = b2 * state.v[name] + (1.0 - b2) * g * g
        m_hat = state.m[name] / bc1
        v_hat = state.v[name] / bc2
        params[name].data -= state.rate * m_hat / (np.sqrt(v_hat) + state.eps)
    return state, params


def sgd_step_differentiable(params, grads: dict, rate: float):
    """theta' = theta - rate * grad, staying connected on the active tape.

    ``params``/``grads`` map name -> Tensor. Returns a new name -> Tensor
    mapping; the originals are untouched. With an active tape the tape must
    be in DIFFERENTIABLE mode so the outer backward can flow through.
    """
    tape = active_tape()
    if tape is not None and tape.mode != Tape.DIFFERENTIABLE:
        raise TensorError("sgd_step_differentiable: active tape must be in record-differentiably mode")
    updated = {}
    for name, p in params.items():
        updated[name] = T.sub(p, T.scalar_mul(grads[name], rate))
    return updated
