"""Parameter updates: Adam for pretraining, the first-order inner loop and
the meta update; SGD for the differentiable (unrolled) inner loop."""

import numpy as np

from . import tensor as T
from .tensor import NumericalError, Tape, TensorError, active_tape


# Adam's constants are those of the recipe the paper trains with, Pix2Pix's
# (Isola et al. 2017, arXiv:1611.07004): beta1 = 0.5, beta2 = 0.999, and the
# usual eps = 1e-8 (Kingma & Ba 2015, arXiv:1412.6980).
BETA1, BETA2, EPS = 0.5, 0.999, 1e-8


class AdamState:
    """Moments and step counter for one network; the step size is the
    caller's, so one state serves any rate.

    ``arrays`` maps each parameter name to something with a ``.shape``: a
    ``ParameterSet``'s tensors or another state's moments. Each moment is
    one flat buffer over all parameters, in that order; ``m`` and ``v`` map
    each parameter name to a view of its slice.
    """

    def __init__(self, arrays):
        self.t = 0
        shapes = {name: a.shape for name, a in arrays.items()}
        ends = np.cumsum([0] + [int(np.prod(s)) for s in shapes.values()])
        self.m_flat, self.v_flat = np.zeros(ends[-1]), np.zeros(ends[-1])
        self.m, self.v = ({name: flat[lo:hi].reshape(shape) for (name, shape), lo, hi
                           in zip(shapes.items(), ends, ends[1:])} for flat in (self.m_flat, self.v_flat))

    def copy(self) -> "AdamState":
        """Deep copy of the moments."""
        out = AdamState(self.m)
        out.t, out.m_flat[:], out.v_flat[:] = self.t, self.m_flat, self.v_flat
        return out


def adam_step(state: AdamState, params, grads: dict, rate: float):
    """One bias-corrected Adam update of step size ``rate``, in place on the
    parameter values: one vectorised update over all of the network's
    parameters, each element by the same expression as alone.

    ``grads`` maps parameter name -> ndarray and must carry exactly the
    parameter names, all finite.
    """
    names = list(state.m)
    if set(grads.keys()) != set(names):
        missing = set(names) - set(grads.keys())
        extra = set(grads.keys()) - set(names)
        raise TensorError(f"adam_step: grad keys mismatch (missing={sorted(missing)}, extra={sorted(extra)})")
    g = np.concatenate([np.ravel(grads[name]) for name in names], dtype=np.float64)
    if not np.isfinite(g).all():
        bad = next(name for name in names if not np.all(np.isfinite(grads[name])))
        raise NumericalError(f"adam_step: non-finite gradient for {bad!r}")
    state.t += 1
    b1, b2 = BETA1, BETA2
    bc1 = 1.0 - b1**state.t
    bc2 = 1.0 - b2**state.t
    m, v = state.m_flat, state.v_flat
    # the expressions b1*m + (1-b1)*g, b2*v + ((1-b2)*g)*g and
    # rate*(m/bc1) / (sqrt(v/bc2) + eps), operand for operand, evaluated into
    # the moments, g and one scratch array instead of a temporary per operation
    s = np.multiply(1.0 - b1, g)
    np.add(np.multiply(b1, m, out=m), s, out=m)
    np.multiply(np.multiply(1.0 - b2, g, out=s), g, out=s)
    np.add(np.multiply(b2, v, out=v), s, out=v)
    np.add(np.sqrt(np.divide(v, bc2, out=s), out=s), EPS, out=s)
    update = np.divide(np.multiply(rate, np.divide(m, bc1, out=g), out=g), s, out=g)
    lo = 0
    for name in names:
        p = params[name].data
        p -= update[lo : lo + p.size].reshape(p.shape)
        lo += p.size
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
