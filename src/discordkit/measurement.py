"""Von Neumann measurements on party b and the correlation objectives.

A rank-1 projective measurement {B_0, B_1} on the second qubit is
parametrized by a unit axis z on the Bloch sphere (the image of an SU(2)
element).  Measuring a family state collapses party a onto a two-branch
ensemble whose weighted entropy is the conditional entropy; the classical
correlation is its minimum over z, reached through the scalar objective
evaluated here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import BlochParams, _xlog2, qubit_state, von_neumann_entropy
from .errors import DegenerateBranchError, NormError

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
# |a_j| / ln 2 for the weights a_j = -1/2 and 1/4 of the objective's t log2 t terms
_HALF_OVER_LN2 = 0.5 / float(np.log(2.0))
_QUARTER_OVER_LN2 = 0.25 / float(np.log(2.0))
# the tangent gradient and Riemannian Hessian of a row off the smooth region
_NAN_ROW = (math.nan,) * 6


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


def _check_axis(axis, batch: bool = False) -> np.ndarray:
    """``axis`` as a float array, shape (3,) or, for a ``batch``, (n, 3)
    (else ``ValueError``), of unit rows (else ``NormError``)."""
    z = np.asarray(axis, dtype=float)
    if z.shape != (3,) and not (batch and z.ndim == 2 and z.shape[1] == 3):
        shapes = "(3,) or (n, 3)" if batch else "(3,)"
        raise ValueError(f"measurement axis must have shape {shapes}, got shape {z.shape}")
    norms = np.linalg.norm(z, axis=-1)
    dev = float(np.max(np.abs(norms - 1.0), initial=0.0))
    if not dev <= _AXIS_NORM_TOL:  # written so that NaN fails
        raise NormError(f"measurement axis norm deviates from 1 by {dev:.3e}")
    return z


def _branch_data(params: BlochParams, axis):
    """Probabilities and unnormalized Bloch vectors of the two branches."""
    axis = _check_axis(axis)
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
    z = _check_axis(axis, batch=True)
    if z.ndim == 1:
        return z[None, :], True
    return z, False


def _log_arguments(r: np.ndarray, s: np.ndarray, c: np.ndarray, z: np.ndarray):
    """The six log arguments of the correlation objective of n states,
    stacked as (n, 3) rows of r, s and c, on an (n, m, 3) array of axes.

    Returns the (6, n, m) arguments 1 + w, 1 - w, 1 + w +- x+ and
    1 - w +- x-, where w = s.z and x+- = |u+-| with u+- = r +- c*z.  The
    work runs on component-major (3, n, m) arrays written in place into a
    few buffers, and every dot product and norm is written out component
    by component: each value is then a fixed sequence of elementwise
    operations on its own axis, so its rounding does not depend on where
    the axis sits in the batch (a BLAS product may round differently with
    the batch's shape).  x+- is the norm of u+- and not the square root of
    the expanded form |r|^2 +- 2 (r*c).z + (c*c).(z*z): where x+- is small,
    that form cancels, and its error of about 1e-16 becomes an error of
    about 1e-8 in x+-, enough to push a log argument of a state near
    |s| = 1 below the domain floor.
    """
    axes = z.transpose(2, 0, 1)
    shape = axes.shape[1:]
    prod = np.multiply(s.T[:, :, None], axes, order="C")  # s*z, then c*z
    w = np.add(prod[0], prod[1])
    w += prod[2]
    np.multiply(c.T[:, :, None], axes, out=prod)
    sq = np.empty((2, 3) + shape)  # u+-, then their squares
    np.add(r.T[:, :, None], prod, out=sq[0])
    np.subtract(r.T[:, :, None], prod, out=sq[1])
    sq *= sq
    x = np.add(sq[:, 0], sq[:, 1])
    x += sq[:, 2]
    np.sqrt(x, out=x)
    t = np.empty((6,) + shape)
    np.add(1.0, w, out=t[0])
    np.subtract(1.0, w, out=t[1])
    np.add(t[:2], x, out=t[2::2])
    np.subtract(t[:2], x, out=t[3::2])
    return t


def _correlation_kernel(
    r: np.ndarray, s: np.ndarray, c: np.ndarray, z: np.ndarray
) -> np.ndarray:
    """Correlation objective of n states, stacked as (n, 3) rows of r, s
    and c, on an (n, m, 3) array of unit axes; returns (n, m) values.

    Every log argument 1 + eps +- x of the three entropic terms is four
    times an eigenvalue of a 2x2 compression of the state, so on a state
    that passed the PSD gate it is at least -4e-9.  The terms come from
    :func:`density._xlog2`, which checks that floor (``DomainError``
    below it) and counts arguments from it up to 1e-12 as zero (the
    x log x -> 0 limit).  Each value depends on its state and axis alone,
    bit for bit, whatever the shape of the batch (see
    :func:`_log_arguments`).
    """
    return _combine(_xlog2(_log_arguments(r, s, c, z)))


def _combine(xlog: np.ndarray) -> np.ndarray:
    """The objective from its six t log2 t terms x0..x5, in one fixed order:
    -(x0 + x1)/2 + (x2 + x3)/4 + (x4 + x5)/4, each quarter as half a half,
    in five ufunc calls: the three pair sums, halved together, the last two
    halved again, then q23 - h01 (exactly -h01 + q23 in IEEE arithmetic)
    plus q45.  :func:`_correlation_model` sums its float terms in the same
    order."""
    pairs = np.add(xlog[0::2], xlog[1::2])
    pairs *= 0.5
    pairs[1:] *= 0.5
    value = np.subtract(pairs[1], pairs[0])
    value += pairs[2]
    return value


def _correlation_model(r, s, c, z, pairs):
    """Values and derivatives of the objective of :func:`_correlation_kernel`
    at one axis per state, from one set of log arguments, under
    :func:`sphereopt.maximize_batch`'s model contract: n axes ``z`` and
    tangent ``pairs`` in, n values and n (g1, g2, h11, h12, h21, h22) out,
    all rows of Python floats.  ``r``, ``s`` and ``c`` hold the states' n
    rows the same way; the search converts them once.

    Each row's six log arguments are formed in Python floats in exactly
    :func:`_log_arguments`' operation order, all rows go through one
    :func:`density._xlog2` pass, which checks the floor and clamps t in
    place, and each row's terms are summed in :func:`_combine`'s order: so
    the value is the kernel's at that axis, bit for bit.  The derivatives
    take log2 of that clamped t and are worked out per row in floats
    (:func:`_tangent_derivatives`).  The objective is sum_j a_j
    f(t_j) with f(t) = t log2 t, weights a = (-1/2, -1/2, 1/4, 1/4, 1/4,
    1/4) and t_j = 1 + J_j . (w, x+, x-) for the sign rows J_j = (1, 0, 0),
    (-1, 0, 0), (1, +-1, 0) and (-1, 0, +-1); w = s.z has gradient s, x+- =
    |u+-| = |r +- c*z| has gradient v+- = +-c*u+- / x+- and Hessian
    (diag(c^2) - v+- v+-^T) / x+-.  With V = [s; v+; v-], g = J^T a log2(t)
    (f' is log2 t + 1/ln 2, and J^T a = 0), k+- = g+- / x+- and K = J^T
    diag(a / (t ln 2)) J - diag(0, k+, k-), the gradient is V^T g and the
    Hessian V^T K V + (k+ + k-) diag(c^2).  On W = V B the tangent gradient
    is W^T g and the Riemannian Hessian W^T K W + (k+ + k-) B^T diag(c^2) B
    - (z . grad) I.  Each row's output depends on that row alone.  Rows
    with a log argument or x+- below 1e-3 get NaN derivatives.
    """
    rows, args = [], []
    for (r0, r1, r2), s_row, c_row, z_row, pair in zip(r, s, c, z, pairs):
        (s0, s1, s2), (c0, c1, c2), (z0, z1, z2) = s_row, c_row, z_row
        w = (s0 * z0 + s1 * z1) + s2 * z2
        cz0, cz1, cz2 = c0 * z0, c1 * z1, c2 * z2
        up = (r0 + cz0, r1 + cz1, r2 + cz2)
        um = (r0 - cz0, r1 - cz1, r2 - cz2)
        xp = math.sqrt((up[0] * up[0] + up[1] * up[1]) + up[2] * up[2])
        xm = math.sqrt((um[0] * um[0] + um[1] * um[1]) + um[2] * um[2])
        tp, tm = 1.0 + w, 1.0 - w
        t_row = (tp, tm, tp + xp, tp - xp, tm + xm, tm - xm)
        args += t_row
        # on the raw t: _xlog2 sets a clamped argument to 1, which looks smooth
        smooth = min(t_row[3], t_row[5], xp, xm) >= _SMOOTH_FLOOR
        rows.append((t_row, w, s_row, c_row, z_row, pair, up, um, xp, xm) if smooth else None)
    t = np.array(args).reshape(-1, 6)
    # _xlog2 first: it clamps t in place, and np.log2 warns on a t <= 0
    xlogs = _xlog2(t).tolist()
    logs = np.log2(t).tolist()
    values, derivatives = [], []
    for (x0, x1, x2, x3, x4, x5), log_t, row in zip(xlogs, logs, rows):
        half = 0.5 * (x0 + x1)  # _combine's order
        values.append(-half + 0.5 * (0.5 * (x2 + x3)) + 0.5 * (0.5 * (x4 + x5)))
        derivatives.append(_NAN_ROW if row is None else _tangent_derivatives(log_t, *row))
    return values, derivatives


def _tangent_derivatives(log_t, t, w, s, c, z, pair, up, um, xp, xm):
    """One row of :func:`_correlation_model`'s derivatives, in Python
    floats: the tangent gradient and the Riemannian Hessian, flattened."""
    l0, l1, l2, l3, l4, l5 = log_t
    t0, t1, t2, t3, t4, t5 = t
    (s0, s1, s2), (c0, c1, c2), (z0, z1, z2) = s, c, z
    b00, b01, b10, b11, b20, b21 = pair
    # g = J^T a log2(t) = (g_w, g+, g-), and k+-
    gw = 0.5 * (l1 - l0) + 0.25 * ((l2 + l3) - (l4 + l5))
    gp, gm = 0.25 * (l2 - l3), 0.25 * (l4 - l5)
    kp, km = gp / xp, gm / xm
    # K = J^T diag(a / (t ln 2)) J - diag(0, k+, k-), whose +- entry is 0
    q2, q3 = _QUARTER_OVER_LN2 / t2, _QUARTER_OVER_LN2 / t3
    q4, q5 = _QUARTER_OVER_LN2 / t4, _QUARTER_OVER_LN2 / t5
    kww = ((q2 + q3) + (q4 + q5)) - (_HALF_OVER_LN2 / t0 + _HALF_OVER_LN2 / t1)
    kwp, kwm = q2 - q3, q5 - q4
    kpp, kmm = (q2 + q3) - kp, (q4 + q5) - km
    # v+- = +-c*u+- / x+-, then W = V B and V z
    vp0, vp1, vp2 = c0 * up[0] / xp, c1 * up[1] / xp, c2 * up[2] / xp
    vm0, vm1, vm2 = -c0 * um[0] / xm, -c1 * um[1] / xm, -c2 * um[2] / xm
    ws0, ws1 = (s0 * b00 + s1 * b10) + s2 * b20, (s0 * b01 + s1 * b11) + s2 * b21
    wp0, wp1 = (vp0 * b00 + vp1 * b10) + vp2 * b20, (vp0 * b01 + vp1 * b11) + vp2 * b21
    wm0, wm1 = (vm0 * b00 + vm1 * b10) + vm2 * b20, (vm0 * b01 + vm1 * b11) + vm2 * b21
    vz_p, vz_m = (vp0 * z0 + vp1 * z1) + vp2 * z2, (vm0 * z0 + vm1 * z1) + vm2 * z2
    radial = (gw * w + gp * vz_p) + gm * vz_m  # z . grad
    # K W, column by column
    yw0, yw1 = (kww * ws0 + kwp * wp0) + kwm * wm0, (kww * ws1 + kwp * wp1) + kwm * wm1
    yp0, yp1 = kwp * ws0 + kpp * wp0, kwp * ws1 + kpp * wp1
    ym0, ym1 = kwm * ws0 + kmm * wm0, kwm * ws1 + kmm * wm1
    # diag(c) B, for (k+ + k-) B^T diag(c^2) B
    e0, e1, e2 = c0 * b00, c1 * b10, c2 * b20
    f0, f1, f2 = c0 * b01, c1 * b11, c2 * b21
    kc = kp + km
    h00 = ((ws0 * yw0 + wp0 * yp0) + wm0 * ym0) + kc * ((e0 * e0 + e1 * e1) + e2 * e2)
    h01 = ((ws0 * yw1 + wp0 * yp1) + wm0 * ym1) + kc * ((e0 * f0 + e1 * f1) + e2 * f2)
    h11 = ((ws1 * yw1 + wp1 * yp1) + wm1 * ym1) + kc * ((f0 * f0 + f1 * f1) + f2 * f2)
    return (
        (gw * ws0 + gp * wp0) + gm * wm0,
        (gw * ws1 + gp * wp1) + gm * wm1,
        h00 - radial,
        h01,
        h01,
        h11 - radial,
    )


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
