"""Entropic quantities in bits: von Neumann entropy, Shannon entropy, and
(conditional) quantum mutual information of classical-quantum states.

I(X;R) is I(X;R|B) with d_B = 1, and :func:`entropy_gap` computes both.
:func:`cq_information` is the one function that turns blocks sigma_x into a
rate: the public functions below, the solver's witnesses and every sample of
its Monte-Carlo sweep call it, summing left to right in any stack layout, so
sample ``i`` of a sweep has, bit for bit, the rate of ``sweep_povm(d, k, seed, i)``.
"""

from __future__ import annotations

import numpy as np

from .states import CqState, DensityOperator

#: Eigenvalues and probabilities at or below this floor are treated as exact
#: zeros inside log terms, so rank-deficient operators never produce -inf.
EIG_FLOOR = 1e-14


class InvalidDistribution(ValueError):
    """Input is not a probability distribution within tolerance."""


def _ordered_sum(t: np.ndarray) -> np.ndarray:
    """Sum over the last axis, strictly left to right, where ``sum`` picks its
    order from the memory layout.  With 64 or more sums per term (a sweep's)
    it adds a term to all sums at once, else ``accumulate``s: the same bits."""
    if t.size < 64 * t.shape[-1] ** 2:
        return np.add.accumulate(t, axis=-1)[..., -1]
    out = t[..., 0].copy()
    for i in range(1, t.shape[-1]):
        out += t[..., i]
    return out


def entropy_terms(w) -> np.ndarray:
    """-sum w log2 w over the last axis of nonnegative weights, with 0 log 0 := 0.

    The weights need not be normalized; this is the building block shared by
    the entropy functions below.
    """
    w = np.asarray(w, dtype=float)
    keep = w > EIG_FLOOR
    return -_ordered_sum(np.where(keep, w * np.log2(np.where(keep, w, 1.0)), 0.0))


def checked_distribution(p) -> np.ndarray:
    """``p`` flattened to floats, raising :class:`InvalidDistribution` unless it
    is nonempty and finite, no entry is below -1e-12 and it sums to 1 within 1e-9."""
    a = np.asarray(p, dtype=float).reshape(-1)
    if a.size == 0:
        raise InvalidDistribution("empty distribution")
    if not np.isfinite(a).all():
        raise InvalidDistribution("distribution contains non-finite entries")
    if float(a.min()) < -1e-12:
        raise InvalidDistribution(f"negative probability {a.min()!r}")
    if abs(float(a.sum()) - 1.0) > 1e-9:
        raise InvalidDistribution(f"probabilities sum to {a.sum()!r}, expected 1")
    return a


def shannon_entropy(p) -> float:
    """Shannon entropy of a probability distribution, in bits."""
    return float(entropy_terms(checked_distribution(p)))


def von_neumann_entropy(rho: DensityOperator) -> float:
    """H(rho) = -Tr(rho log2 rho) in bits."""
    return float(entropy_terms(np.linalg.eigvalsh(rho.mat)))


def side_marginal(blocks: np.ndarray, side_dim: int) -> np.ndarray:
    """Tr_R of stacked operators (..., dRdB, dRdB) on R (x) B; with ``side_dim``
    1 this is the 1x1 trace."""
    d_r = blocks.shape[-1] // side_dim
    t = blocks.reshape(blocks.shape[:-2] + (d_r, side_dim, d_r, side_dim))
    return _ordered_sum(t.diagonal(0, -4, -2))


def _eigvals(mats: np.ndarray) -> np.ndarray:
    """Eigenvalues of stacked Hermitian matrices: closed forms for d <= 2,
    which agree with LAPACK to ~1e-15 and are ~40x faster, else LAPACK."""
    d = mats.shape[-1]
    if d == 1:
        return mats[..., 0, 0].real[..., None]
    if d == 2:
        a = mats[..., 0, 0].real
        c = mats[..., 1, 1].real
        b = mats[..., 0, 1]
        half = (a + c) / 2.0
        gap = np.sqrt(((a - c) / 2.0) ** 2 + b.real**2 + b.imag**2)
        return np.stack([half - gap, half + gap], axis=-1)
    return np.linalg.eigvalsh(mats)


def entropy_gap(blocks: np.ndarray, side_dim: int) -> np.ndarray:
    """sum_x [S(sigma_x) - S(Tr_R sigma_x)] over stacked blocks (..., k, dRdB, dRdB).

    The blocks are unnormalized, so with ``side_dim`` 1 the side term is
    -p(x) log2 p(x).
    """
    joint = entropy_terms(_eigvals(blocks))
    return _ordered_sum(joint - entropy_terms(_eigvals(side_marginal(blocks, side_dim))))


def cq_information(ops: np.ndarray, side_dim: int) -> np.ndarray:
    """I(X;R|B) = gap(sum_x sigma_x) - gap(sigma) of stacked blocks
    (..., k, dRdB, dRdB), one value per POVM, shape (...); every sum is an
    :func:`_ordered_sum`, so the value does not depend on the stack's layout."""
    total = _ordered_sum(ops.swapaxes(-3, -1).swapaxes(-3, -2))[..., None, :, :]
    return entropy_gap(total, side_dim) - entropy_gap(ops, side_dim)


def mutual_information_cq(sigma: CqState) -> float:
    """I(X;R) of a cq state, in bits.

    Uses I(X;R) = H(rho_R) - sum_x p(x) H(sigma_x / p(x)); outcomes with
    p(x) below the eigenvalue floor contribute nothing.  The blocks are read
    as one quantum system, so for a two-factor state on R (x) B this is
    I(X;RB); I(X;R|B) is :func:`conditional_mutual_information_cq`.
    """
    return float(cq_information(sigma.conditional_ops, 1))


def conditional_mutual_information_cq(sigma: CqState) -> float:
    """I(X;R|B) of a cq state whose blocks live on R (x) B, in bits.

    Computed as H(RB) - H(B) - sum_x [S(sigma_x^RB) - S(sigma_x^B)], the
    difference I(X;RB) - I(X;B) with the p(x) log p(x) terms cancelled.
    """
    if len(sigma.factor_dims) != 2:
        raise ValueError("conditional mutual information needs (reference, side) factor dims")
    return float(cq_information(sigma.conditional_ops, sigma.factor_dims[1]))
