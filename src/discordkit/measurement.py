"""Von Neumann measurements on party b and the correlation objectives.

A rank-1 projective measurement {B_0, B_1} on the second qubit is
parametrized by a unit axis z on the Bloch sphere (the image of an SU(2)
element).  Measuring a family state collapses party a onto a two-branch
ensemble whose weighted entropy is the conditional entropy; the classical
correlation is its minimum over z, reached through the scalar objective
evaluated here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import (
    _LOG_ARG_FLOOR,
    BlochParams,
    _check_floor,
    _xlog2,
    qubit_state,
    von_neumann_entropy,
)
from .errors import DegenerateBranchError, DomainError, NormError

_BRANCH_FLOOR = 1e-12
_QUAT_NORM_TOL = 1e-9
_AXIS_NORM_TOL = 1e-9
# Derivatives are reported only where every log argument and x+- is at
# least this, away from the domain edge and from where x+- is not
# differentiable.  A Newton step of sphereopt (up to 0.224 rad by default)
# can leave that region: the trial is still evaluated, since the kernel is
# defined on every axis of a state that passed the PSD gate, and where it
# lands the derivatives are NaN, so the row stops uncertified and falls
# back to the plain cap rounds.
_SMOOTH_FLOOR = 1e-3
_LN2 = np.log(2.0)


@dataclass(frozen=True)
class UnitQuaternion:
    """Real quadruple (t, y1, y2, y3) with t^2 + y1^2 + y2^2 + y3^2 = 1,
    representing V = t I + i (y1 s1 + y2 s2 + y3 s3) in SU(2)."""

    t: float
    y1: float
    y2: float
    y3: float

    @property
    def norm_squared(self) -> float:
        return self.t**2 + self.y1**2 + self.y2**2 + self.y3**2


def axis_from_su2(q: UnitQuaternion) -> np.ndarray:
    """Measurement axis induced by an SU(2) element.

    z1 = 2(-t y2 + y1 y3), z2 = 2(t y1 + y2 y3), z3 = t^2 + y3^2 - y1^2 - y2^2.
    The output is a unit vector whenever the input is unit norm.

    Raises
    ------
    NormError
        If the quaternion norm deviates from 1 by more than 1e-9, or is
        NaN.
    """
    if not abs(q.norm_squared - 1.0) <= _QUAT_NORM_TOL:
        raise NormError(f"quaternion norm^2 = {q.norm_squared!r} deviates from 1")
    z = np.array(
        [
            2.0 * (-q.t * q.y2 + q.y1 * q.y3),
            2.0 * (q.t * q.y1 + q.y2 * q.y3),
            q.t**2 + q.y3**2 - q.y1**2 - q.y2**2,
        ]
    )
    return z


@dataclass(frozen=True)
class Ensemble:
    """Post-measurement ensemble: branch probabilities and 2x2 states of
    party a, in branch order k = 0, 1."""

    probabilities: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        self.probabilities.setflags(write=False)
        self.states.setflags(write=False)


def _check_axis(z: np.ndarray) -> None:
    norms = np.linalg.norm(z, axis=-1)
    dev = float(np.max(np.abs(norms - 1.0), initial=0.0))
    if not dev <= _AXIS_NORM_TOL:  # written so that NaN fails
        raise NormError(f"measurement axis norm deviates from 1 by {dev:.3e}")


def _branch_data(params: BlochParams, axis: np.ndarray):
    """Probabilities and unnormalized Bloch vectors of the two branches."""
    axis = np.asarray(axis, dtype=float)
    _check_axis(axis)
    w = float(params.s @ axis)
    probs = np.array([(1.0 + w) / 2.0, (1.0 - w) / 2.0])
    vecs = np.stack([params.r + params.c * axis, params.r - params.c * axis])
    return probs, vecs


def post_measurement_ensemble(params: BlochParams, axis: np.ndarray) -> Ensemble:
    """Collapse party a by measuring party b along ``axis``.

    Branch k occurs with probability p_k = (1 + (-1)^k s.z)/2 and leaves
    party a in the state with Bloch vector (r + (-1)^k c*z) / (2 p_k),
    where c*z is the component-wise product.

    Raises
    ------
    DegenerateBranchError
        If a branch probability falls below 1e-12; its conditional state
        is undefined.  (Entropy sums simply drop such branches, see
        :func:`conditional_entropy`.)
    """
    probs, vecs = _branch_data(params, axis)
    if probs.min() < _BRANCH_FLOOR:
        raise DegenerateBranchError(
            f"branch probability {probs.min():.3e} below {_BRANCH_FLOOR}"
        )
    states = np.stack([qubit_state(vecs[k] / (2.0 * probs[k])) for k in range(2)])
    return Ensemble(probs, states)


def conditional_entropy(params: BlochParams, axis: np.ndarray) -> float:
    """Measurement-conditioned entropy sum_k p_k S(rho_k), in bits.

    Branches with probability below 1e-12 contribute zero (x log x -> 0),
    so the value is defined for every axis.
    """
    probs, vecs = _branch_data(params, axis)
    total = 0.0
    for k in range(2):
        if probs[k] < _BRANCH_FLOOR:
            continue
        total += probs[k] * von_neumann_entropy(qubit_state(vecs[k] / (2.0 * probs[k])))
    return total


def _axes_2d(axis) -> tuple[np.ndarray, bool]:
    z = np.asarray(axis, dtype=float)
    _check_axis(z)
    if z.ndim == 1:
        return z[None, :], True
    return z, False


def _columns(v: np.ndarray) -> list[np.ndarray]:
    """The three components of (n, 3) rows as (n, 1) columns, which
    broadcast against (n, m) arrays of axis components."""
    return [v[:, k, None] for k in range(3)]


def _norm(u: list[np.ndarray]) -> np.ndarray:
    """Euclidean norm of a vector given as its three component arrays."""
    return np.sqrt(u[0] * u[0] + u[1] * u[1] + u[2] * u[2])


def _log_arguments(r: np.ndarray, s: np.ndarray, c: np.ndarray, z: np.ndarray):
    """The six log arguments of the correlation objective of n states,
    stacked as (n, 3) rows of r, s and c, on an (n, m, 3) array of axes.

    Returns the (6, n, m) arguments 1 + w, 1 - w, 1 + w +- x+ and
    1 - w +- x-, where w = s.z and x+- = |u+-| with u+- = r +- c*z, and
    the components of u+- as two lists of three (n, m) arrays with their
    (n, m) norms x+-.  Every dot product and norm is written out component
    by component: each value is then a fixed sequence of elementwise
    operations on its own axis, so its rounding does not depend on where
    the axis sits in the batch (a BLAS product may round differently with
    the batch's shape).  x+- is the norm of u+- and not the square root of
    the expanded quadratic form |r|^2 +- 2 (r*c).z + (c*c).(z*z): where
    x+- is small, that form cancels, and its error of about 1e-16 becomes
    an error of about 1e-8 in x+-, enough to push a log argument of a
    state near |s| = 1 below the domain floor.
    """
    z0, z1, z2 = z[..., 0], z[..., 1], z[..., 2]
    s0, s1, s2 = _columns(s)
    w = z0 * s0 + z1 * s1 + z2 * s2
    rk = _columns(r)
    cz = [ck * zk for ck, zk in zip(_columns(c), (z0, z1, z2))]
    u_plus = [a + b for a, b in zip(rk, cz)]
    u_minus = [a - b for a, b in zip(rk, cz)]
    x_plus, x_minus = _norm(u_plus), _norm(u_minus)
    t = np.empty((6,) + w.shape)
    np.add(1.0, w, out=t[0])
    np.subtract(1.0, w, out=t[1])
    np.add(t[0], x_plus, out=t[2])
    np.subtract(t[0], x_plus, out=t[3])
    np.add(t[1], x_minus, out=t[4])
    np.subtract(t[1], x_minus, out=t[5])
    return t, u_plus, x_plus, u_minus, x_minus


def _correlation_kernel(
    r: np.ndarray, s: np.ndarray, c: np.ndarray, z: np.ndarray
) -> np.ndarray:
    """Correlation objective of n states, stacked as (n, 3) rows of r, s
    and c, on an (n, m, 3) array of unit axes; returns (n, m) values.

    Every log argument 1 + eps +- x of the three entropic terms is four
    times an eigenvalue of a 2x2 compression of the state, so on a state
    that passed the PSD gate it is at least ``density._LOG_ARG_FLOOR``.  Log
    arguments from that bound up to 1e-12 contribute zero (the
    x log x -> 0 limit); anything lower raises ``DomainError``.  Each
    value depends on its state and axis alone, bit for bit, whatever the
    shape of the batch (see :func:`_log_arguments`).
    """
    t = _log_arguments(r, s, c, z)[0]
    _check_floor(t.min(initial=np.inf), _LOG_ARG_FLOOR, DomainError, "log argument")
    xlog = _xlog2(t)
    return (
        -(0.5 * (xlog[0] + xlog[1]))
        + 0.5 * (0.5 * (xlog[2] + xlog[3]))
        + 0.5 * (0.5 * (xlog[4] + xlog[5]))
    )


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[:, :, None] * b[:, None, :]


def _correlation_derivatives(
    r: np.ndarray, s: np.ndarray, c: np.ndarray, z: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Euclidean gradient (n, 3) and Hessian (n, 3, 3) of the objective
    of :func:`_correlation_kernel` at one axis per state, z of shape
    (n, 3).

    With f(t) = t log2 t the objective is
    -[f(t0) + f(t1)]/2 + [f(t2) + f(t3) + f(t4) + f(t5)]/4 over the six
    log arguments; f'(t) = log2 t + 1/ln 2 and f''(t) = 1/(t ln 2).  The
    arguments depend on z through w = s.z (gradient s) and x+- (gradient
    v+- = +-c*u+- / x+-, Hessian (diag(c^2) - v+- v+-^T) / x+-).  Rows
    where a log argument or x+- lies below 1e-3 (near the domain edge,
    or near where x+- is not differentiable) come back as NaN.
    """
    t, u_plus, x_plus, u_minus, x_minus = _log_arguments(r, s, c, z[:, None, :])
    t, x_plus, x_minus = t[..., 0], x_plus[:, 0], x_minus[:, 0]
    u_plus, u_minus = np.concatenate(u_plus, axis=1), np.concatenate(u_minus, axis=1)
    rough = ~((t.min(axis=0) >= _SMOOTH_FLOOR) & (np.minimum(x_plus, x_minus) >= _SMOOTH_FLOOR))
    any_rough = rough.any()  # the masked writes cost even when empty
    if any_rough:
        t[:, rough] = 1.0
        x_plus[rough] = 1.0
        x_minus[rough] = 1.0
    d1 = np.log2(t) + 1.0 / _LN2
    d2 = 1.0 / (_LN2 * t)
    g_w = -0.5 * (d1[0] - d1[1]) + 0.25 * (d1[2] + d1[3]) - 0.25 * (d1[4] + d1[5])
    g_plus = 0.25 * (d1[2] - d1[3])
    g_minus = 0.25 * (d1[4] - d1[5])
    v_plus = c * u_plus / x_plus[:, None]
    v_minus = -c * u_minus / x_minus[:, None]
    grad = g_w[:, None] * s + g_plus[:, None] * v_plus + g_minus[:, None] * v_minus

    h_ww = -0.5 * (d2[0] + d2[1]) + 0.25 * (d2[2] + d2[3] + d2[4] + d2[5])
    h_wp = 0.25 * (d2[2] - d2[3])
    h_wm = 0.25 * (d2[5] - d2[4])
    curv_plus = g_plus / x_plus
    curv_minus = g_minus / x_minus
    cross_p = _outer(s, v_plus)
    cross_m = _outer(s, v_minus)
    hess = (
        h_ww[:, None, None] * _outer(s, s)
        + h_wp[:, None, None] * (cross_p + cross_p.transpose(0, 2, 1))
        + h_wm[:, None, None] * (cross_m + cross_m.transpose(0, 2, 1))
        + (0.25 * (d2[2] + d2[3]) - curv_plus)[:, None, None] * _outer(v_plus, v_plus)
        + (0.25 * (d2[4] + d2[5]) - curv_minus)[:, None, None] * _outer(v_minus, v_minus)
    )
    hess.reshape(-1, 9)[:, ::4] += (curv_plus + curv_minus)[:, None] * (c * c)  # diagonal
    if any_rough:
        grad[rough] = np.nan
        hess[rough] = np.nan
    return grad, hess


def correlation_objective(params: BlochParams, axis):
    """Objective whose sphere maximum gives the classical correlation.

    For a single axis z (or a batch of shape (n, 3)):

        G(z) = -H_0(s.z) + H_{s.z}(|r + c*z|)/2 + H_{-s.z}(|r - c*z|)/2

    with c*z the component-wise product.  G(z) = 1 - conditional_entropy
    and G(-z) = G(z).
    """
    z, single = _axes_2d(axis)
    g = _correlation_kernel(
        params.r[None, :], params.s[None, :], params.c[None, :], z[None]
    )[0]
    return float(g[0]) if single else g


def damped_correlation_objective(params: BlochParams, gamma: float, axis):
    """Correlation objective of the phase-damped state, evaluated from the
    undamped parameters.

    Equals :func:`correlation_objective` on the parameter-route damped
    state ``damp_bloch(params, PhaseDamping(gamma))``; gamma outside
    [0, 1] raises ``RangeError``.
    """
    # channels imports this module, so its names are looked up at call time
    from .channels import PhaseDamping, damp_bloch

    return correlation_objective(damp_bloch(params, PhaseDamping(gamma)), axis)
