"""Density operators, Schmidt purifications, POVMs, and induced cq states."""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .operators import (
    MAX_DIM,
    DimensionMismatch,
    as_hermitian,
    eig_hermitian,
    psd_stack,
)

#: Tolerance on unit trace / unit norm at construction.
TRACE_ATOL = 1e-10

#: Tolerance on max-entry deviation of a POVM's effect sum from the identity.
COMPLETENESS_ATOL = 1e-9

#: Tolerance on the Gram matrix when a caller supplies an orthonormal basis.
BASIS_ATOL = 1e-9


def _freeze(a) -> np.ndarray:
    """Read-only, C-contiguous copy of ``a``: every value type stores its arrays
    through it, so none shares an array with its caller."""
    a = np.array(a, order="C")
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class DensityOperator:
    """Unit-trace PSD operator, checked by :func:`~qcrd.operators.psd_stack` as a
    one-matrix stack; ``mat`` is a read-only copy."""

    mat: np.ndarray

    def __post_init__(self):
        (a,), _ = psd_stack((self.mat,), "density operator")
        tr = float(a.trace().real)
        if abs(tr - 1.0) > TRACE_ATOL:
            raise ValueError(f"density operator trace {tr!r} differs from 1")
        object.__setattr__(self, "mat", _freeze(a))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


@dataclass(frozen=True)
class Povm:
    """Finite measurement: PSD effects summing to the identity.

    Outcome labels are the indices ``0..len(effects)-1``.  ``effects`` is one
    read-only (k, d, d) stack, copied from any sequence of matrices, that the
    kernels take as it is.  One stacked check,
    :func:`~qcrd.operators.psd_stack`, names an offending effect's index.
    """

    effects: np.ndarray

    def __post_init__(self):
        mats, _ = psd_stack(self.effects, "effect")
        dev = float(np.abs(mats.sum(axis=0) - np.eye(mats.shape[-1])).max())
        if dev > COMPLETENESS_ATOL:
            raise ValueError(f"effects do not sum to the identity: max deviation {dev:.3e}")
        object.__setattr__(self, "effects", _freeze(mats))

    @property
    def dim(self) -> int:
        return self.effects.shape[-1]

    @property
    def outcomes(self) -> int:
        return len(self.effects)


@dataclass(frozen=True)
class Purification:
    """Pure state on (reference, system factors...) with the reference slowest.

    ``vector`` holds the amplitudes in row-major order over
    ``(reference_dim, *system_dims)``.  For Schmidt-form purifications
    produced by :func:`purify`, ``schmidt_coeffs`` are the square roots of
    the source eigenvalues (descending, zero-padded for rank-deficient
    sources).
    """

    vector: np.ndarray
    reference_dim: int
    system_dims: tuple[int, ...]
    schmidt_coeffs: np.ndarray | None = None

    def __post_init__(self):
        v = np.asarray(self.vector, dtype=complex).reshape(-1)
        dims = (int(self.reference_dim),) + tuple(int(d) for d in self.system_dims)
        if any(d < 1 for d in dims):
            raise DimensionMismatch("all factor dimensions must be positive")
        if len(self.system_dims) not in (1, 2):
            raise DimensionMismatch("purification supports one system factor plus optional side factor")
        if prod(dims) != v.size:
            raise DimensionMismatch(f"vector length {v.size} does not match dims {dims}")
        if not np.isfinite(v).all():
            raise ValueError("state vector contains non-finite entries")
        norm = float(np.linalg.norm(v))
        if abs(norm - 1.0) > TRACE_ATOL:
            raise ValueError(f"state vector norm {norm!r} differs from 1")
        object.__setattr__(self, "vector", _freeze(v))
        object.__setattr__(self, "reference_dim", dims[0])
        object.__setattr__(self, "system_dims", dims[1:])
        if self.schmidt_coeffs is not None:
            object.__setattr__(self, "schmidt_coeffs", _freeze(np.asarray(self.schmidt_coeffs, float)))

    @property
    def dims(self) -> tuple[int, ...]:
        return (self.reference_dim,) + self.system_dims

    @property
    def side_dim(self) -> int:
        """Dimension of the side factor B; 1 for a bipartite purification."""
        return self.system_dims[1] if len(self.system_dims) == 2 else 1

    def measured_matrix(self) -> np.ndarray:
        """Amplitudes as a (reference (x) side, system) matrix M: measuring
        effect E on A leaves M E^T M^dagger on R (x) B."""
        d_a = self.system_dims[0]
        t = self.vector.reshape(self.reference_dim, d_a, self.side_dim)
        return np.ascontiguousarray(t.transpose(0, 2, 1).reshape(-1, d_a))

    def as_matrix(self) -> np.ndarray:
        """Amplitudes as a (reference, joint-system) matrix."""
        return self.vector.reshape(self.reference_dim, -1)

    def as_tensor(self) -> np.ndarray:
        """Amplitudes as an array indexed by every factor."""
        return self.vector.reshape(self.dims)

    def reduced_reference_state(self) -> np.ndarray:
        """Reduced state on the reference system."""
        w = self.as_matrix()
        return w @ w.conj().T

    def reduced_system_state(self) -> np.ndarray:
        """Reduced state on the (joint) system factors, tracing out the reference."""
        w = self.as_matrix()
        return np.einsum("ra,rb->ab", w, w.conj())


def _schmidt_purification(rho: DensityOperator, system_dims: tuple[int, ...]) -> Purification:
    eig = eig_hermitian(rho.mat)
    coeffs = np.sqrt(np.clip(eig.eigenvalues, 0.0, None))
    w = (eig.eigenvectors * coeffs) @ eig.eigenvectors.T
    return Purification(w.reshape(-1), rho.dim, system_dims, schmidt_coeffs=coeffs)


def purify(rho: DensityOperator) -> Purification:
    """Schmidt-form purification sum_i sqrt(lambda_i) |v_i>_R |v_i>_A.

    The reference copies the system dimension and both Schmidt bases equal
    the eigenbasis of ``rho`` (descending eigenvalue order), so tracing out
    either side returns ``rho``.
    """
    return _schmidt_purification(rho, (rho.dim,))


def purify_joint(rho_ab: DensityOperator, system_dims: tuple[int, int]) -> Purification:
    """Schmidt-form purification of a joint state over factors (R, A, B).

    The reference has dimension ``dim(A) * dim(B)`` and mirrors the joint
    eigenbasis, exactly as :func:`purify` does for a single system.
    """
    d_a, d_b = (int(d) for d in system_dims)
    if d_a * d_b != rho_ab.dim:
        raise DimensionMismatch(f"system dims {system_dims} do not multiply to {rho_ab.dim}")
    return _schmidt_purification(rho_ab, (d_a, d_b))


def apply_measurement_map(povm: Povm, state: DensityOperator) -> np.ndarray:
    """Outcome probabilities p(x) = Tr(effect_x rho), one contraction over the effect stack."""
    if povm.dim != state.dim:
        raise DimensionMismatch(f"POVM dimension {povm.dim} != state dimension {state.dim}")
    return np.einsum("xij,ji->x", povm.effects, state.mat).real


@dataclass(frozen=True)
class CqState:
    """Classical-quantum block state sum_x sigma_x (x) |x><x|.

    ``conditional_ops[x]`` is unnormalized with trace ``probs[x]``;
    ``factor_dims`` records the tensor factors of the quantum side,
    e.g. ``(dR,)`` or ``(dR, dB)``; ``conditional_ops`` is one read-only
    (k, d, d) stack, copied from any sequence of matrices.  Producers
    guarantee positivity of the blocks; it is not re-verified here.
    """

    probs: np.ndarray
    conditional_ops: np.ndarray
    factor_dims: tuple[int, ...]

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float).reshape(-1)
        if p.size != len(self.conditional_ops):
            raise DimensionMismatch("one conditional operator per outcome is required")
        if abs(float(p.sum()) - 1.0) > TRACE_ATOL:
            raise ValueError(f"outcome probabilities sum to {p.sum()!r}, expected 1")
        dims = tuple(int(d) for d in self.factor_dims)
        d = prod(dims)
        ops = [np.asarray(op, dtype=complex) for op in self.conditional_ops]
        for i, a in enumerate(ops):
            if a.shape != (d, d):
                raise DimensionMismatch(f"conditional operator {i} has shape {a.shape}, expected ({d}, {d})")
        object.__setattr__(self, "probs", _freeze(p))
        object.__setattr__(self, "conditional_ops", _freeze(ops))
        object.__setattr__(self, "factor_dims", dims)

    @property
    def outcome_count(self) -> int:
        return len(self.conditional_ops)

    @property
    def quantum_dim(self) -> int:
        return prod(self.factor_dims)

    def marginal_quantum(self) -> np.ndarray:
        """Reduced state on the quantum factor(s): sum_x sigma_x."""
        return self.conditional_ops.sum(axis=0)


def _stacked_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` of stacked small matrices as sum_j a[..., :, j] b[..., j, :]: the
    same elementwise steps for every slice, whatever stack it is in, where a
    stacked ``@`` pays one BLAS call per slice."""
    out = a[..., :, 0, None] * b[..., None, 0, :]
    for j in range(1, a.shape[-1]):
        out += a[..., :, j, None] * b[..., None, j, :]
    return out


def conditional_blocks(m: np.ndarray, effects: np.ndarray) -> np.ndarray:
    """Blocks sigma_x = M effect_x^T M^dagger on R (x) B, of trace p(x), for
    stacked effects (..., k, dA, dA) and M from :meth:`Purification.measured_matrix`."""
    return _stacked_matmul(_stacked_matmul(m, effects.swapaxes(-1, -2)), m.conj().T)


def induced_cq_state(psi: Purification, povm: Povm) -> CqState:
    """State of (reference, side information, outcome register) after measuring A.

    Block x is Tr_A{(I_R (x) effect_x (x) I_B) psi}, an operator on R (x) B,
    or on R alone for a bipartite purification.  Written with the matrix M
    of :meth:`Purification.measured_matrix` it is M effect_x^T M^dagger,
    which for Schmidt-form purifications without side information is
    exactly sqrt(rho) effect_x^T sqrt(rho) in the Schmidt basis.
    """
    if povm.dim != psi.system_dims[0]:
        raise DimensionMismatch(f"POVM dimension {povm.dim} != system dimension {psi.system_dims[0]}")
    ops = conditional_blocks(psi.measured_matrix(), povm.effects)
    return CqState(np.einsum("xrr->x", ops).real, ops, (psi.reference_dim,) + psi.system_dims[1:])


def _checked_basis(basis, dim: int) -> np.ndarray:
    v = np.asarray(basis, dtype=complex)
    if v.ndim != 2 or v.shape != (dim, dim):
        raise DimensionMismatch(f"basis must be a ({dim}, {dim}) matrix of column vectors")
    dev = float(np.abs(v.conj().T @ v - np.eye(dim)).max())
    if dev > BASIS_ATOL:
        raise ValueError(f"basis is not orthonormal: Gram deviation {dev:.3e} > {BASIS_ATOL:.0e}")
    return v


def dephase(m, basis) -> np.ndarray:
    """Remove off-diagonal elements of ``m`` in the given basis (columns)."""
    a = as_hermitian(m)
    v = _checked_basis(basis, a.shape[0])
    diag = np.einsum("iz,ij,jz->z", v.conj(), a, v).real
    return (v * diag) @ v.conj().T


def pinch_povm(povm: Povm, basis) -> Povm:
    """Replace every effect by its diagonal part in the given basis: one
    contraction over the effect stack, as :func:`dephase` does for one matrix."""
    v = _checked_basis(basis, povm.dim)
    diag = np.einsum("iz,xij,jz->xz", v.conj(), povm.effects, v).real
    return Povm((v * diag[:, None, :]) @ v.conj().T)


def _inverse_cholesky_adjoint(m: np.ndarray) -> np.ndarray:
    """R^{-dag} of stacked Hermitian positive definite m = R^dag R, with R
    upper triangular and of positive diagonal (its Cholesky factor).

    Row j of R is row j of [m | I], after the eliminations of the earlier
    rows, scaled by 1/sqrt of its diagonal entry; eliminating conj(R_ji)
    times it from each later row i leaves R on the left and R^{-dag} on the
    right.  Every step is elementwise, so
    a slice's result does not depend on the stack it is in, and no step
    depends on d beyond the loop's length.
    """
    d = m.shape[-1]
    aug = np.concatenate([m, np.broadcast_to(np.eye(d, dtype=m.dtype), m.shape)], axis=-1)
    for j in range(d):
        aug[..., j, :] *= (1.0 / np.sqrt(aug[..., j, j].real))[..., None]
        aug[..., j + 1:, :] -= aug[..., j, j + 1:d, None].conj() * aug[..., None, j, :]
    return aug[..., d:]


def whiten_effects(a: np.ndarray) -> np.ndarray:
    """POVM effects R^{-dag} a_x R^{-1} of stacked PSD a (..., k, d, d) whose sum
    M = R^dag R is positive definite, R its Cholesky factor (upper triangular,
    positive diagonal), so completeness holds by construction.  No LAPACK call,
    and batch-invariant: a slice's effects are the same bits in any stack.  A
    sum that is not positive definite warns (``RuntimeWarning``), not raises.
    """
    w = _inverse_cholesky_adjoint(a.sum(axis=-3))[..., None, :, :]
    return _stacked_matmul(_stacked_matmul(w, a), w.conj().swapaxes(-1, -2))


def povm_effects_from_ginibre(g: np.ndarray) -> np.ndarray:
    """Map stacked Ginibre matrices (..., k, d, d) to POVM effects.

    effect_x = R^{-dag} A_x R^{-1} with A_x = G_x^dag G_x, whitened by
    :func:`whiten_effects`.  The effects equal Q_x^dag Q_x for the QR factor
    Q = G R^{-1} of the stacked (k d, d) Ginibre matrix, a Haar-distributed
    isometry like the polar factor G M^{-1/2}.  So each sample has the same
    law as under the symmetric map M^{-1/2} A_x M^{-1/2} of earlier versions,
    but a given draw G, and so a given seed, names a different POVM under the
    two.  Only sampled POVMs come through here: the solver's witnesses call
    :func:`whiten_effects` directly.
    """
    return whiten_effects(_stacked_matmul(g.conj().swapaxes(-1, -2), g))


def _check_povm_size(dim: int, outcomes: int) -> None:
    if outcomes < 1:
        raise ValueError("a POVM needs at least one outcome")
    if not 1 <= dim <= MAX_DIM:
        raise DimensionMismatch(f"dimension {dim} outside supported range 1..{MAX_DIM}")


def _ginibre_draws(seed: int, start: int, stop: int, shape: tuple[int, ...]) -> np.ndarray:
    """Complex Ginibre matrices (stop - start, *shape) of the sweep samples
    ``start..stop-1``.

    One Philox keyed by ``seed`` serves every sample: sample ``i`` owns the
    ``B = ceil(2 n / 4)`` counter blocks after ``i * B`` (n entries of
    ``shape``), read as 4 B raw words, so it is a pure function of
    ``(seed, i)`` whatever range it is drawn in.  Its first 2 n words become
    doubles u in [0, 1), and Box-Muller turns the pair (u_2j, u_2j+1) into
    entry j, whose real and imaginary parts are independent standard
    normals.  Raw words rather than ``Generator`` methods keep the stream
    fixed by the Philox algorithm alone.
    """
    n = prod(shape)
    blocks = -(-2 * n // 4)
    bits = np.random.Philox(seed=seed, counter=start * blocks)
    words = bits.random_raw((stop - start) * 4 * blocks).reshape(stop - start, 4 * blocks)
    words = np.ascontiguousarray(words[:, :2 * n])
    # computed in place, so a chunk's draw needs little more memory than its
    # matrices: the words of pair j become the real and imaginary part of g_j
    words >>= np.uint64(11)
    g = words.view(complex)
    np.multiply(words, 2.0**-53, out=words.view(np.float64))
    radius = 1.0 - g.real
    np.log(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    g.imag *= 2.0 * np.pi
    np.cos(g.imag, out=g.real)
    np.sin(g.imag, out=g.imag)
    g.real *= radius
    g.imag *= radius
    return g.reshape((stop - start, *shape))


def sweep_povm(dim: int, outcomes: int, seed: int, index: int) -> Povm:
    """POVM of sample ``index`` of a Monte-Carlo sweep keyed by ``seed``.

    It comes from the same draws and the same Ginibre map as the sweep,
    so the sweep's sample ``index`` is this POVM's rate and distortion:
    effect_x = R^{-dag} G_x^dag G_x R^{-1} with R the Cholesky factor of
    sum_x G_x^dag G_x (see :func:`povm_effects_from_ginibre`).  The draws
    are unchanged since the map replaced the symmetric root M^{-1/2}, but
    a given ``(seed, index)`` now names a different POVM than under it,
    with the same law.
    """
    _check_povm_size(dim, outcomes)
    if index < 0:
        raise ValueError("sample index must be nonnegative")
    g = _ginibre_draws(seed, index, index + 1, (outcomes, dim, dim))
    return Povm(povm_effects_from_ginibre(g)[0])


def sample_random_povm(dim: int, outcomes: int, rng_seed) -> Povm:
    """Random POVM from the Ginibre-square construction, deterministic per seed.

    Draws from ``numpy.random.default_rng(rng_seed)``, a stream separate
    from the sweep's (see :func:`sweep_povm`), and whitens them by the
    Cholesky factor of their Gram sum as :func:`povm_effects_from_ginibre`
    does.  A given seed names a different POVM than under the symmetric
    root M^{-1/2} that the map used before, with the same law.
    """
    _check_povm_size(dim, outcomes)
    rng = np.random.default_rng(rng_seed)
    g = rng.standard_normal((outcomes, dim, dim)) + 1j * rng.standard_normal((outcomes, dim, dim))
    return Povm(povm_effects_from_ginibre(g))


def example_source() -> DensityOperator:
    """Qubit source emitting |+> and |0> with probability 1/2 each."""
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    zero = np.array([1.0, 0.0])
    return DensityOperator((np.outer(plus, plus) + np.outer(zero, zero)) / 2.0)
