"""Distortion observables and distortion evaluation.

A distortion observable is a block operator sum_x Delta_x (x) |x><x| whose
expectation on the joint (reference, outcome) state measures reconstruction
error.  Blocks act on reference (x) side information, with the plain setting
the case of a one-dimensional side factor; the classical register is always
the last factor.  :func:`expected_cost` is the one distortion contraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .information import _ordered_sum
from .operators import DimensionMismatch, eig_hermitian, psd_stack
from .states import (
    DensityOperator,
    Povm,
    Purification,
    _checked_basis,
    _freeze,
    conditional_blocks,
)


@dataclass(frozen=True, eq=False)
class DistortionObservable:
    """PSD blocks Delta_x indexed by outcome label, checked as one stack by
    :func:`~qcrd.operators.psd_stack`, with the largest block eigenvalue (or 0)
    cached as ``d_max``.  ``blocks`` is one read-only (k, d, d) stack, copied
    from any sequence of matrices, that the kernels take as it is."""

    blocks: np.ndarray
    d_max: float = field(init=False)

    def __post_init__(self):
        mats, w = psd_stack(self.blocks, "block")
        object.__setattr__(self, "blocks", _freeze(mats))
        object.__setattr__(self, "d_max", max(0.0, float(w.max())))

    @property
    def outcome_count(self) -> int:
        return len(self.blocks)

    @property
    def dim(self) -> int:
        return self.blocks.shape[-1]


def expected_cost(blocks: np.ndarray, sig: np.ndarray) -> np.ndarray:
    """Distortion sum_x Tr(Delta_x sigma_x) of stacked blocks (..., k, d, d).

    The terms Re(Delta_x[i, j] sigma_x[j, i]) are added one after another in
    (x, i, j) order (:func:`~qcrd.information._ordered_sum`), so a POVM's
    distortion does not depend on its stack's size or memory layout.
    """
    t = sig.swapaxes(-1, -2)
    terms = blocks.real * t.real
    terms -= blocks.imag * t.imag
    return _ordered_sum(terms.reshape(*terms.shape[:-3], -1)) + 0.0


def reported_distortion(blocks: np.ndarray, sig: np.ndarray) -> float:
    """:func:`expected_cost` of one POVM's blocks, roundoff below zero read as 0."""
    val = float(expected_cost(blocks, sig))
    return 0.0 if -1e-12 < val < 0.0 else val


def distortion(psi: Purification, povm: Povm, delta: DistortionObservable) -> float:
    """Average distortion Tr{sum_x (Delta_x (x) effect_x) psi}, the blocks
    acting on R (x) B, or on R alone for a bipartite purification.

    Evaluated through the conditional blocks sigma_x = M effect_x^T M^dag,
    which is algebraically identical to the bilinear form above.
    """
    if povm.dim != psi.system_dims[0]:
        raise DimensionMismatch(f"POVM dimension {povm.dim} != system dimension {psi.system_dims[0]}")
    d = psi.reference_dim * psi.side_dim
    if delta.dim != d:
        raise DimensionMismatch(f"block dimension {delta.dim} != reference*side dimension {d}")
    if povm.outcomes != delta.outcome_count:
        raise DimensionMismatch(
            f"POVM has {povm.outcomes} outcomes but the observable has {delta.outcome_count} blocks"
        )
    sig = conditional_blocks(psi.measured_matrix(), povm.effects)
    return reported_distortion(delta.blocks, sig)


def distortion_qsi(psi: Purification, povm: Povm, delta: DistortionObservable) -> float:
    """Deprecated alias of :func:`distortion` that demands a tripartite purification."""
    if len(psi.system_dims) != 2:
        raise DimensionMismatch("expected a tripartite (reference, system, side) purification")
    return distortion(psi, povm, delta)


def eigenbasis_observable(rho: DensityOperator) -> DistortionObservable:
    """Blocks I - |x><x| in the eigenbasis of ``rho`` (descending order).

    Outcome x then means "the source was in its x-th eigenstate", so ideal
    eigenbasis readout has zero distortion.
    """
    eig = eig_hermitian(rho.mat)
    eye = np.eye(rho.dim, dtype=complex)
    return DistortionObservable(eye - np.einsum("ix,jx->xij", eig.eigenvectors, eig.eigenvectors.conj()))


def classical_cost_observable(costs, basis) -> DistortionObservable:
    """Lift a classical cost matrix d(z, x) into block form.

    Block x is sum_z d(z, x) |v_z><v_z| over the given orthonormal basis
    (columns), so measuring in that basis and reading outcome x off a source
    letter z incurs cost d(z, x).  Rows index source letters, columns index
    outcome labels.
    """
    c = np.asarray(costs, dtype=float)
    if c.ndim != 2 or c.size == 0:
        raise ValueError(f"cost matrix must be 2-D and nonempty, got shape {c.shape}")
    if float(c.min()) < 0.0:
        raise ValueError(f"negative cost entry {c.min()!r}")
    v = _checked_basis(basis, c.shape[0])
    return DistortionObservable((v * c.T[:, None, :]) @ v.conj().T)


def example_observable() -> DistortionObservable:
    """Qubit observable with blocks (I - |+><+|) for outcome 0 and
    (I - |0><0|) for outcome 1: outcome 0 claims the source emitted |+>,
    outcome 1 claims |0>."""
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    zero = np.array([1.0, 0.0])
    eye = np.eye(2)
    return DistortionObservable((eye - np.outer(plus, plus), eye - np.outer(zero, zero)))
