"""Two-qubit density matrices of the diagonal-correlation Bloch family.

A state in this family is parametrized by two local Bloch vectors r, s and
the diagonal c = (c1, c2, c3) of the correlation tensor:

    rho = (1/4) [ I (x) I + r.sigma (x) I + I (x) s.sigma
                  + sum_i c_i sigma_i (x) sigma_i ]

in the product basis |00>, |01>, |10>, |11>.  This module provides the
state constructor and its inverse, the PSD gate, partial traces, the von
Neumann entropy and the two-parameter entropic function that underlies
every closed form in the package.  Every spectrum comes from LAPACK:
the eigenvalues-only needs (the gate, ``check_density_matrix``,
``von_neumann_entropy``) from one ``eigvalsh`` call, full decompositions
(:func:`hermitian_eigen`) from ``eigh`` with a deterministic phase and
order convention.  Matrices from outside the family pass one shared gate
first: nonempty, square, finite and Hermitian.  All logarithms are base 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, OutOfFamilyError, PhysicalityError

IDENTITY2 = np.eye(2, dtype=complex)
PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

# Numerical gates, shared across the package.
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-9
LOG_CLAMP = 1e-12
# Floor of every log argument 1 + eps +- x: four times an eigenvalue of a
# state that passed the PSD gate, or of a 2x2 compression of one.
_LOG_ARG_FLOOR = 4.0 * EIGENVALUE_FLOOR


def _as_vec3(v, name: str) -> np.ndarray:
    arr = np.array(v, dtype=float).reshape(-1)  # a copy, so the cached norms hold
    if arr.shape != (3,):
        raise ValueError(f"{name} must be a real 3-vector, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class BlochParams:
    """Immutable triple (r, s, c) of real 3-vectors.

    ``r`` and ``s`` are the Bloch vectors of the two marginals, ``c`` holds
    the diagonal correlation coefficients.  Construction only checks shape
    and finiteness; positivity of the resulting matrix is enforced by
    :func:`build_state`.
    """

    r: np.ndarray
    s: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "r", _as_vec3(self.r, "r"))
        object.__setattr__(self, "s", _as_vec3(self.s, "s"))
        object.__setattr__(self, "c", _as_vec3(self.c, "c"))

    @cached_property
    def r_norm(self) -> float:
        return float(np.linalg.norm(self.r))

    @cached_property
    def s_norm(self) -> float:
        return float(np.linalg.norm(self.s))


@dataclass(frozen=True)
class Spectrum:
    """Spectral decomposition with a deterministic output convention.

    ``eigenvalues`` are sorted descending; exact ties are broken by the
    lexicographically larger eigenvector.  Each eigenvector column carries
    the phase convention that its first component above 1e-12 in magnitude
    is real and positive.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        self.eigenvalues.setflags(write=False)
        self.eigenvectors.setflags(write=False)


def build_state(params: BlochParams) -> np.ndarray:
    """Assemble the 4x4 density matrix of the family.

    Parameters
    ----------
    params : BlochParams
        Bloch vectors and correlation diagonal.

    Returns
    -------
    numpy.ndarray
        Complex 4x4 matrix, Hermitian with unit trace by construction.

    Raises
    ------
    PhysicalityError
        If the smallest eigenvalue is below -1e-9, i.e. the parameters do
        not describe a physical state.
    """
    return _gated_state(params)[0]


def _gated_state(params: BlochParams) -> tuple[np.ndarray, np.ndarray]:
    """The state and its descending eigenvalues, after the PSD gate of
    :func:`build_state`: the one-state case of :func:`_gated_states`."""
    rho, lam = _gated_states([params])
    return rho[0], lam[0]


def _gated_states(states) -> tuple[np.ndarray, np.ndarray]:
    """The (n, 4, 4) matrices of ``states`` and their (n, 4) descending
    eigenvalues, after the PSD gate of :func:`build_state`; the first state
    that fails it raises.

    Each matrix is written out in Python floats (:func:`_family_entries`;
    arithmetic on numpy scalars would cost more than the eigensolve), and
    all go through one stacked LAPACK call (:func:`_eigenvalues`), which
    solves each matrix on its own: every spectrum is the one of its state
    alone, bit for bit.  The tests check them against an independent
    Jacobi eigensolver within 4e-15.
    """
    rho = 0.25 * np.array(
        [_family_entries(p.r.tolist(), p.s.tolist(), p.c.tolist()) for p in states],
        dtype=complex,
    )
    lam = _eigenvalues(rho)
    for smallest in lam[:, -1].tolist():
        _check_floor(smallest, EIGENVALUE_FLOOR, PhysicalityError, "smallest eigenvalue")
    return rho, lam


def _family_matrix(r, s, c) -> np.ndarray:
    """The family matrix of :func:`_family_entries`: Python floats give one
    4x4 matrix, length-n arrays a (4, 4, n) stack."""
    return 0.25 * np.array(_family_entries(r, s, c), dtype=complex)


def _family_entries(r, s, c) -> list:
    """Four times the family matrix, written entry by entry as nested lists.

    Each of ``r``, ``s`` and ``c`` unpacks into three components, Python
    floats or length-n arrays.  Every entry sums the same nonzero terms in
    the same order as the Pauli expansion, so the matrix is bit-identical
    to the sum of the nine Kronecker products.
    """
    (r0, r1, r2), (s0, s1, s2), (c0, c1, c2) = r, s, c
    ra, sa = r0 - 1j * r1, s0 - 1j * s1
    rb, sb = r0 + 1j * r1, s0 + 1j * s1
    return [
        [1 + r2 + s2 + c2, sa, ra, c0 - c1],
        [sb, 1 + r2 - s2 - c2, c0 + c1, ra],
        [rb, c0 + c1, 1 - r2 + s2 - c2, sa],
        [c0 - c1, rb, sb, 1 - r2 - s2 + c2],
    ]


def _check_floor(smallest, floor: float, error: type[Exception], what: str) -> None:
    """Raise ``error`` unless ``smallest >= floor``; written so that NaN
    fails.  The one floor test of every gate in the package."""
    if not smallest >= floor:
        raise error(f"{what} {float(smallest):.3e} below {floor}")


def _eigenvalues(rho: np.ndarray) -> np.ndarray:
    """Descending eigenvalues of an exactly Hermitian ``rho``, or of each
    matrix of a stack, by LAPACK; the one spectrum route for every
    eigenvalues-only need.  Matrices from outside the family come through
    :func:`_hermitian` first."""
    return np.linalg.eigvalsh(rho)[..., ::-1]


def _isotropic_spectrum(norm: float, c: float) -> np.ndarray:
    """Eigenvalues of the uniform-c state whose one nonzero marginal
    (r, or s) has length ``norm``:
    (1+c+-norm, 1-c+-sqrt(4c^2+norm^2))/4, unsorted."""
    big = math.sqrt(4 * c * c + norm * norm)  # a float: an infinite c gives NaN, no warning
    return 0.25 * np.array([1 + c + norm, 1 + c - norm, 1 - c + big, 1 - c - big])


def _planar_radii(r, c: float) -> tuple[float, float]:
    """Radii a+- = sqrt(2c^2 + |r|^2 +- 2 sqrt(c^4 + c^2 (r1^2 + r2^2))) of the
    s = 0, c3 = 0, c1 = c2 = c state, whose eigenvalues are (1 +- a+-)/4."""
    r_sq = float(r @ r)  # floats: an infinite r or c gives NaN, no warning
    inner = math.sqrt(c**4 + c**2 * float(r[0] ** 2 + r[1] ** 2))
    return (
        math.sqrt(2 * c**2 + r_sq + 2 * inner),
        math.sqrt(max(2 * c**2 + r_sq - 2 * inner, 0.0)),
    )


def extract_bloch(rho: np.ndarray) -> BlochParams:
    """Recover (r, s, c) from a physical family state via one table of
    Pauli expectations T_ij = tr(rho sigma_i (x) sigma_j), sigma_0 = I.

    Raises
    ------
    OutOfFamilyError
        If any off-diagonal correlation component tr(rho sigma_i (x) sigma_j),
        i != j, exceeds 1e-9 in magnitude: the state is not in the
        diagonal-correlation family and is rejected rather than projected.
    PhysicalityError
        Propagated from the density-matrix gates, and on a 2x2 input.
    """
    rho = _two_qubit(rho)
    paulis = (IDENTITY2, *PAULI)
    table = np.array([[np.trace(rho @ np.kron(a, b)).real for b in paulis] for a in paulis])
    for (i, j), t_ij in np.ndenumerate(table[1:, 1:]):
        if i != j and abs(t_ij) > 1e-9:
            raise OutOfFamilyError(
                f"off-diagonal correlation tr(rho sigma_{i + 1} (x) sigma_{j + 1})"
                f" = {t_ij:.3e} exceeds 1e-9"
            )
    return BlochParams(table[1:, 0], table[0, 1:], np.diag(table[1:, 1:]))


def check_density_matrix(rho: np.ndarray) -> None:
    """Gate a matrix through the density-matrix invariants.

    Finite entries, Hermiticity within 1e-12, unit trace within 1e-12 and
    smallest eigenvalue above -1e-9, taken from the LAPACK spectrum of the
    Hermitian part.  Works for 2x2 and 4x4 inputs.
    """
    rho = np.asarray(rho)
    if rho.shape not in ((2, 2), (4, 4)):
        raise PhysicalityError(f"expected a 2x2 or 4x4 matrix, got shape {rho.shape}")
    hermitian = _hermitian(rho)
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > TRACE_TOL:
        raise PhysicalityError(f"trace {tr} deviates from 1 beyond {TRACE_TOL}")
    _check_floor(_eigenvalues(hermitian)[-1], EIGENVALUE_FLOOR,
                 PhysicalityError, "smallest eigenvalue")


def _two_qubit(rho) -> np.ndarray:
    """``rho`` as an array, after :func:`check_density_matrix` and a 4x4
    shape check: the gate of the two-qubit matrix routes."""
    check_density_matrix(rho)
    rho = np.asarray(rho)
    if rho.shape != (4, 4):
        raise PhysicalityError(f"expected a 4x4 matrix, got shape {rho.shape}")
    return rho


def _hermitian(rho) -> np.ndarray:
    """(rho + rho^H)/2, after the gate every spectrum route shares: a nonempty
    square matrix with finite entries, Hermitian within 1e-12.  An exactly
    Hermitian rho comes back bit for bit."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1] or rho.size == 0:
        raise PhysicalityError(f"expected a square matrix, got shape {rho.shape}")
    if not np.all(np.isfinite(rho)):
        raise PhysicalityError("matrix has non-finite entries")
    dev = float(np.max(np.abs(rho - rho.conj().T)))
    if dev > HERMITICITY_TOL:
        raise PhysicalityError(f"Hermiticity deviation {dev:.3e} exceeds {HERMITICITY_TOL}")
    return 0.5 * (rho + rho.conj().T)


def hermitian_eigen(rho: np.ndarray) -> Spectrum:
    """Full spectral decomposition of the Hermitian part (rho + rho^H)/2,
    by LAPACK (``numpy.linalg.eigh``).

    Eigenvalues come out sorted descending; exact ties are ordered by the
    lexicographically larger phase-fixed eigenvector, so the output is
    fully deterministic.

    Raises
    ------
    PhysicalityError
        If the input is not a nonempty square matrix, an entry is not finite
        or the input deviates from Hermitian by more than 1e-12.
    """
    lam, vecs = np.linalg.eigh(_hermitian(rho))
    # Each column is a unit vector, so it has a component above 1e-12.
    lead = vecs[np.argmax(np.abs(vecs) > 1e-12, axis=0), np.arange(len(lam))]
    vecs = vecs * (np.conj(lead) / np.abs(lead))
    # The Spectrum order: -lambda first, then -Re and -Im of each component
    # in turn (np.lexsort reads its last key first).
    keys = np.stack([-vecs.real, -vecs.imag], axis=1).reshape(-1, len(lam))
    order = np.lexsort((*keys[::-1], -lam))
    return Spectrum(lam[order], vecs[:, order])


def partial_trace(rho: np.ndarray, side: str) -> np.ndarray:
    """Marginal state of one party.

    ``side="a"`` traces out party b and returns rho^a; ``side="b"``
    returns rho^b.  For a family state these are (I + r.sigma)/2 and
    (I + s.sigma)/2.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise PhysicalityError(f"expected a 4x4 matrix, got shape {rho.shape}")
    rho = rho.reshape(2, 2, 2, 2)
    if side == "a":
        return np.einsum("ikjk->ij", rho)
    if side == "b":
        return np.einsum("kikj->ij", rho)
    raise ValueError(f"side must be 'a' or 'b', got {side!r}")


def qubit_state(v) -> np.ndarray:
    """Single-qubit state (I + v.sigma)/2 for a Bloch vector v."""
    v = _as_vec3(v, "v")
    rho = IDENTITY2.copy()
    for i in range(3):
        rho += v[i] * PAULI[i]
    return 0.5 * rho


def bloch_vector(rho2: np.ndarray) -> np.ndarray:
    """Bloch vector of a 2x2 state via Pauli expectations."""
    rho2 = np.asarray(rho2, dtype=complex)
    if rho2.shape != (2, 2):
        raise PhysicalityError(f"expected a 2x2 matrix, got shape {rho2.shape}")
    return np.array([np.trace(rho2 @ sig).real for sig in PAULI])


def _xlog2(t) -> np.ndarray:
    """t*log2(t) elementwise, the one checked x log x of the package.

    Every argument is a log argument 1 + eps +- x, or an eigenvalue, of a
    state that passed the PSD gate, so it is at least ``_LOG_ARG_FLOOR``
    (-4e-9); a lower one, or NaN, raises ``DomainError``.  Arguments from
    the floor up to 1e-12 give zero, the x log x -> 0 limit: they are set
    to 1 (1 log2 1 = 0) in place, a pass that runs only when some argument
    needs it.  A float array ``t`` is overwritten, so callers pass a
    temporary they own (copying the kernel's (6, n, m) arguments added a
    quarter to its time at n = 12).  Always ``np.log2``: ``math.log2``
    differs from it in the last bit on some inputs.
    """
    t = np.asarray(t, dtype=float)
    lowest = t.min(initial=np.inf)
    _check_floor(lowest, _LOG_ARG_FLOOR, DomainError, "log argument")
    if not lowest >= LOG_CLAMP:
        t[t < LOG_CLAMP] = 1.0
    out = np.log2(t)
    out *= t
    return out


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Entropy -Tr rho log2 rho in bits, from the LAPACK spectrum of the
    Hermitian part of rho.

    Eigenvalues in [-1e-9, 0) are treated as rounding noise and clamped
    to zero; anything lower, an empty or non-square input, a non-finite entry
    or a deviation from Hermitian above 1e-12 raises ``PhysicalityError``.
    """
    lam = _eigenvalues(_hermitian(rho))
    _check_floor(lam[-1], EIGENVALUE_FLOOR, PhysicalityError, "eigenvalue")
    return float(-np.sum(_xlog2(lam)))


def entropic_h(eps, x):
    """Entropic building block of all closed forms in this package.

    H_eps(x) = (1+eps+x)/2 * log2(1+eps+x) + (1+eps-x)/2 * log2(1+eps-x)

    Even in ``x``.  Both arguments broadcast; the return is a float for
    scalar input and an array otherwise.  The two log arguments are
    stacked and go through one :func:`_xlog2` pass, which checks their
    floor; those inside [-4e-9, 1e-12) contribute zero (the x log x -> 0
    limit).

    Raises
    ------
    DomainError
        If 1 + eps - |x| < -4e-9, below four times the PSD gate's
        eigenvalue floor, or if an argument is NaN.
    """
    eps_arr, x_arr = np.asarray(eps, dtype=float), np.asarray(x, dtype=float)
    xlog = _xlog2(np.stack([1.0 + eps_arr + x_arr, 1.0 + eps_arr - x_arr]))
    out = 0.5 * (xlog[0] + xlog[1])
    if np.isscalar(eps) and np.isscalar(x):
        return float(out)
    return out
