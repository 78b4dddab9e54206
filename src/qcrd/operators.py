"""Dense complex linear algebra for small quantum operators.

Everything operates on plain numpy arrays and validates its inputs; no
function mutates its arguments.  Composite spaces use one ordering
throughout the package: reference system first, then the measured system,
then side information, with the classical outcome register always last.
The first tensor factor is the slow index (``numpy.kron`` convention).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

#: Largest supported operator dimension.
MAX_DIM = 64

#: Construction tolerance on max|M - M^dagger|.
HERMITICITY_ATOL = 1e-10

#: Eigenvalues above -PSD_ATOL count as nonnegative; anything lower is an error.
PSD_ATOL = 1e-10

_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


class DimensionMismatch(ValueError):
    """Operands act on incompatible spaces."""


class NotPositiveSemidefinite(ValueError):
    """An operator required to be PSD has an eigenvalue below ``-PSD_ATOL``."""


def as_square_matrix(m, name: str = "operator") -> np.ndarray:
    """Coerce ``m`` to a square complex matrix with finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{name} must be a square matrix, got shape {a.shape}")
    dim = a.shape[0]
    if not 1 <= dim <= MAX_DIM:
        raise DimensionMismatch(f"{name} dimension {dim} outside supported range 1..{MAX_DIM}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


def as_hermitian(m, name: str = "operator") -> np.ndarray:
    """Coerce ``m`` to a square matrix and check Hermiticity within ``HERMITICITY_ATOL``."""
    a = as_square_matrix(m, name)
    dev = float(np.abs(a - a.conj().T).max())
    if dev > HERMITICITY_ATOL:
        raise ValueError(f"{name} is not Hermitian: max|M - M^dag| = {dev:.3e} > {HERMITICITY_ATOL:.0e}")
    return a


def psd_stack(mats, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Stack of nonempty ``mats``, each Hermitian (:func:`as_hermitian`), all of
    one dimension and PSD, with their ascending eigenvalues from one stacked
    ``eigvalsh``.  Errors name the offending matrix as ``{name} {index}``.
    """
    if len(mats) == 0:
        raise ValueError(f"at least one {name} is required")
    checked = [as_hermitian(m, f"{name} {i}") for i, m in enumerate(mats)]
    dim = checked[0].shape[0]
    for i, m in enumerate(checked):
        if m.shape[0] != dim:
            raise DimensionMismatch(f"{name} {i} has dimension {m.shape[0]}, expected {dim}")
    stack = np.stack(checked)
    w = np.linalg.eigvalsh(stack)
    bad = np.flatnonzero(w[:, 0] < -PSD_ATOL)
    if bad.size:
        i = int(bad[0])
        raise NotPositiveSemidefinite(f"{name} {i} eigenvalue {w[i, 0]:.3e} < -{PSD_ATOL:.0e}")
    return stack, w


def tensor(a, b) -> np.ndarray:
    """Kronecker product with ``a`` as the slower (first) factor."""
    x = as_square_matrix(a, "a")
    y = as_square_matrix(b, "b")
    if x.shape[0] * y.shape[0] > MAX_DIM:
        raise DimensionMismatch(
            f"tensor product dimension {x.shape[0] * y.shape[0]} exceeds the {MAX_DIM} cap"
        )
    return np.kron(x, y)


def partial_trace(m, dims, keep) -> np.ndarray:
    """Trace out every tensor factor of ``m`` not listed in ``keep``.

    ``dims`` gives the factor dimensions in order (first factor slow);
    ``keep`` is the set of factor indices to retain.  The trace of the
    result equals the trace of ``m``.
    """
    a = as_square_matrix(m)
    dims = [int(d) for d in dims]
    if any(d < 1 for d in dims):
        raise DimensionMismatch("factor dimensions must be positive")
    if prod(dims) != a.shape[0]:
        raise DimensionMismatch(f"factor dims {dims} do not multiply to {a.shape[0]}")
    n = len(dims)
    if 2 * n > len(_LETTERS):
        raise DimensionMismatch("too many tensor factors")
    kept = sorted({int(k) for k in keep})
    if not kept:
        raise DimensionMismatch("keep must name at least one factor")
    if kept[0] < 0 or kept[-1] >= n:
        raise DimensionMismatch(f"keep indices {kept} out of range for {n} factors")
    rows = list(_LETTERS[:n])
    cols = [(_LETTERS[n + i] if i in kept else rows[i]) for i in range(n)]
    out = "".join(rows[i] for i in kept) + "".join(cols[i] for i in kept)
    reduced = np.einsum("".join(rows) + "".join(cols) + "->" + out, a.reshape(dims + dims))
    d_keep = prod(dims[i] for i in kept)
    return reduced.reshape(d_keep, d_keep)


@dataclass(frozen=True)
class EigDecomposition:
    """Spectral decomposition with eigenvalues sorted in descending order.

    Column ``eigenvectors[:, i]`` pairs with ``eigenvalues[i]``.  For
    degenerate eigenvalues any orthonormal basis of the eigenspace may be
    returned; callers must not rely on the choice within a degenerate block.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def eig_hermitian(m) -> EigDecomposition:
    """Full spectral decomposition of a Hermitian matrix.

    Raises ``numpy.linalg.LinAlgError`` on the (never observed for the
    supported dimensions) failure of the underlying solver.
    """
    a = as_hermitian(m)
    w, v = np.linalg.eigh((a + a.conj().T) / 2)
    return EigDecomposition(w[::-1].copy(), v[:, ::-1].copy())


def sqrt_psd(m) -> np.ndarray:
    """Positive square root of a PSD matrix.

    Eigenvalues in ``[-PSD_ATOL, 0)`` are clamped to zero; anything lower
    raises :class:`NotPositiveSemidefinite`.
    """
    eig = eig_hermitian(m)
    low = float(eig.eigenvalues.min())
    if low < -PSD_ATOL:
        raise NotPositiveSemidefinite(f"minimum eigenvalue {low:.3e} < -{PSD_ATOL:.0e}")
    root = (eig.eigenvectors * np.sqrt(np.clip(eig.eigenvalues, 0.0, None))) @ eig.eigenvectors.conj().T
    return (root + root.conj().T) / 2


def trace_distance(a, b) -> float:
    """Trace norm ||a - b||_1, the sum of |eigenvalues| of the difference."""
    x = as_hermitian(a, "a")
    y = as_hermitian(b, "b")
    if x.shape != y.shape:
        raise DimensionMismatch(f"shape mismatch {x.shape} vs {y.shape}")
    return float(np.abs(np.linalg.eigvalsh(x - y)).sum())
