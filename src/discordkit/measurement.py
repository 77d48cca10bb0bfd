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
    LOG_CLAMP,
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
# can leave that region: the model still gives the trial's value, defined
# on every axis of a state that passed the PSD gate, but NaN derivatives
# there, so the row stops uncertified and falls back to the cap rounds.
_SMOOTH_FLOOR = 1e-3
_LN2 = np.log(2.0)
_SIGNS = np.array([1.0, -1.0])
# The objective is sum_j _WEIGHTS[j] t_j log2 t_j, t_j = 1 + _JACOBIAN[j] . (w, x+, x-).
_WEIGHTS = np.array([-0.5, -0.5, 0.25, 0.25, 0.25, 0.25])
_JACOBIAN = np.array([[1, 0, 0], [-1, 0, 0], [1, 1, 0], [1, -1, 0], [-1, 0, 1], [-1, 0, -1.0]])


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


def _log_arguments(r: np.ndarray, s: np.ndarray, c: np.ndarray, z: np.ndarray):
    """The six log arguments of the correlation objective of n states,
    stacked as (n, 3) rows of r, s and c, on an (n, m, 3) array of axes.

    Returns the (6, n, m) arguments 1 + w, 1 - w, 1 + w +- x+ and
    1 - w +- x-, where w = s.z and x+- = |u+-| with u+- = r +- c*z, the
    components of u+- as a (2, 3, n, m) array and their (2, n, m) norms
    x+-.  The work runs on contiguous component-major (3, n, m) arrays,
    and every dot product and norm is written out component by component:
    each value is then a fixed sequence of elementwise operations on its
    own axis, so its rounding does not depend on where the axis sits in the
    batch (a BLAS product may round differently with the batch's shape).
    x+- is the norm of u+- and not the square root of the expanded form
    |r|^2 +- 2 (r*c).z + (c*c).(z*z): where x+- is small, that form
    cancels, and its error of about 1e-16 becomes an error of about 1e-8
    in x+-, enough to push a log argument of a state near |s| = 1 below
    the domain floor.
    """
    axes = z.transpose(2, 0, 1)
    sz = np.multiply(s.T[:, :, None], axes, order="C")
    w = sz[0] + sz[1] + sz[2]
    cz = np.multiply(c.T[:, :, None], axes, order="C")
    u = np.empty((2,) + cz.shape)
    np.add(r.T[:, :, None], cz, out=u[0])
    np.subtract(r.T[:, :, None], cz, out=u[1])
    sq = u * u
    x = np.sqrt(sq[:, 0] + sq[:, 1] + sq[:, 2])
    t = np.empty((6,) + w.shape)
    np.add(1.0, w, out=t[0])
    np.subtract(1.0, w, out=t[1])
    np.add(t[:2], x, out=t[2::2])
    np.subtract(t[:2], x, out=t[3::2])
    return t, u, x


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
    lowest = t.min(initial=np.inf)
    _check_floor(lowest, _LOG_ARG_FLOOR, DomainError, "log argument")
    if lowest >= LOG_CLAMP:  # nothing to clamp: _xlog2 without its clamp pass
        xlog = np.log2(t)
        return _combine(np.multiply(xlog, t, out=xlog))
    return _combine(_xlog2(t))


def _combine(xlog: np.ndarray) -> np.ndarray:
    """The objective from its six t log2 t terms x0..x5, in one fixed order:
    -(x0 + x1)/2 + (x2 + x3)/4 + (x4 + x5)/4, each quarter as half a half."""
    half = 0.5 * (xlog[0::2] + xlog[1::2])
    quarter = 0.5 * half[1:]
    return -half[0] + quarter[0] + quarter[1]


def _correlation_model(
    r: np.ndarray, s: np.ndarray, c: np.ndarray, z: np.ndarray, basis: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Value (n,), tangent gradient (n, 2) and Riemannian Hessian (n, 2, 2)
    of the objective of :func:`_correlation_kernel` at one axis per state,
    z of shape (n, 3), in orthonormal tangent bases B (``basis``, (n, 3, 2))
    at z, from one set of log arguments and one ``np.log2``.

    The value is the kernel's at that axis, bit for bit (same floor check,
    clamp, log2(t) * t and sum).  The objective is sum_j a_j f(t_j), with
    f(t) = t log2 t, a = ``_WEIGHTS`` and t_j = 1 + J_j . (w, x+, x-), J =
    ``_JACOBIAN``; w = s.z has gradient s, x+- = |u+-| = |r +- c*z| has
    gradient v+- = +-c*u+- / x+- and Hessian (diag(c^2) - v+- v+-^T) / x+-.
    With V = [s; v+; v-], g = J^T a log2(t) (f' is log2 t + 1/ln 2, and
    J^T a = 0), k+- = g+- / x+- and K = J^T diag(a / (t ln 2)) J -
    diag(0, k+, k-), the gradient is V^T g and the Hessian V^T K V +
    (k+ + k-) diag(c^2).  On W = V B the tangent gradient is W^T g and the
    Riemannian Hessian W^T K W + (k+ + k-) B^T diag(c^2) B - (z . grad) I.
    Every product is elementwise or a matmul stacked over rows, on operands
    laid out alike whatever n, so a row's output does not depend on the
    batch.  Rows with a log argument or x+- below 1e-3 get NaN derivatives.
    """
    t, u, x = _log_arguments(r, s, c, z[:, None, :])
    t, u, x = t[..., 0], u[..., 0].transpose(2, 0, 1), x[..., 0].T  # (6, n), (n, 2, 3), (n, 2)
    lowest = t.min(initial=np.inf)
    _check_floor(lowest, _LOG_ARG_FLOOR, DomainError, "log argument")
    rough = None
    if not min(lowest, x.min(initial=np.inf)) >= _SMOOTH_FLOOR:
        rough = ~((t.min(axis=0) >= _SMOOTH_FLOOR) & (x.min(axis=1) >= _SMOOTH_FLOOR))
        t[~(t >= LOG_CLAMP)] = 1.0  # _xlog2's clamp, which only a rough row needs
        x[rough] = 1.0
    log_t = np.log2(t)
    value = _combine(log_t * t)
    # a_j f'(t_j) without the constant, and a_j f''(t_j), as C-ordered (n, 6)
    d1 = np.multiply(log_t.T, _WEIGHTS, order="C")
    d2 = np.divide(_WEIGHTS / _LN2, t.T, order="C")
    coef = d1[:, None, :] @ _JACOBIAN  # (n, 1, 3): g = (g_w, g+, g-)
    curv = coef[:, 0, 1:] / x  # k+-
    k = _JACOBIAN.T @ (d2[:, :, None] * _JACOBIAN)
    k.reshape(-1, 9)[:, 4::4] -= curv  # the own terms q+- / 4 - k+-
    vecs = np.empty((len(z), 3, 3))  # V
    vecs[:, 0] = s
    vecs[:, 1:] = _SIGNS[:, None] * c[:, None] * u / x[:, :, None]
    proj = vecs @ np.concatenate([basis, z[:, :, None]], axis=2)  # W, and V z
    grad = (coef @ proj)[:, 0]  # B^T grad, and z . grad
    hess = proj[:, :, :2].transpose(0, 2, 1) @ k @ proj[:, :, :2]
    c2 = basis.transpose(0, 2, 1) @ (basis * (c * c)[:, :, None])  # B^T diag(c^2) B
    hess += (curv[:, 0] + curv[:, 1])[:, None, None] * c2
    hess.reshape(-1, 4)[:, ::3] -= grad[:, 2:]  # the diagonal of each 2x2
    hess[:, 1, 0] = hess[:, 0, 1]  # symmetric bit for bit
    if rough is not None:
        grad[rough] = np.nan
        hess[rough] = np.nan
    return value, grad[:, :2], hess


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
