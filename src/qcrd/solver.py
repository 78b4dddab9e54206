"""Rate-distortion solvers.

Four routes to (distortion, rate) points:

* :func:`sample_sweep` — Monte-Carlo cloud of random POVMs (the figure
  reproduction path), with :func:`lower_envelope` extracting the trade-off
  boundary;
* :func:`minimize_rate` / :func:`minimize_rate_qsi` — constrained
  minimization of I(X;R) resp. I(X;R|B) via a Lagrangian sweep over
  multipliers mu, minimizing L = rate + mu * distortion at each;
* :func:`blahut_arimoto` — the classical oracle for effectively classical
  (Schmidt-diagonal) observables;
* :func:`classical_strategy_rate` — eigenbasis measurement plus classical
  post-processing, i.e. the best strategy available without collective
  quantum measurements.

Sweep and descent share one objective, :class:`_Objective`: I(X;R|B) and
distortion of POVMs on the system factor A, with the purification read as
(R, A, B).  A bipartite purification is the d_B = 1 case, where I(X;R|B) is
I(X;R), so the number of system factors alone decides the setting.

Every sampled and reported rate comes from :func:`~qcrd.information.cq_information`,
the function behind ``mutual_information_cq`` and its conditional variant:
sample ``i`` of :func:`sample_sweep` has, bit for bit, the rate they give
``sample_random_povm(d, k, (seed, i))``.

L is convex in the effects: I(X;R) = sum_x D(sigma_x || p_x rho_R) with
sigma_x linear in the effects, I(X;R|B) = const - sum_x D(sigma_x || 1_R (x)
Tr_R sigma_x) by joint convexity of relative entropy, and distortion is
linear.  The descent therefore works on the effects themselves, with a
monotone multiplicative step along the analytic gradient that keeps every
iterate a POVM.  Reported optimizer values are achievable upper bounds
witnessed by explicit POVMs; no lower bound is computed yet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distortion import DistortionObservable, expected_cost, reported_distortion
from .information import (EIG_FLOOR, InvalidDistribution, cq_information, entropy_gap, entropy_terms,
                          side_marginal)
from .operators import DimensionMismatch, eig_hermitian
from .states import Povm, Purification, conditional_blocks, povm_effects_from_ginibre

#: Largest Lagrange multiplier tried before declaring a target infeasible.
MU_CAP = 1e7

#: Descent declares a plateau when the objective improves by less than the
#: convergence tolerance over this many iterations.
PLATEAU_WINDOW = 50

_SWEEP_CHUNK = 4096

#: Largest step, in units of the gradient-eigenvalue spread, of the descent.
_MAX_STEP = 8.0


@dataclass(frozen=True)
class RdPoint:
    """One achievable (distortion, rate) point, optionally with its witness."""

    distortion: float
    rate: float
    povm: Povm | None = None


@dataclass(frozen=True)
class RdCurve:
    """Rates over a sorted distortion grid; ``inf`` marks unreachable values.

    ``witnesses`` holds, per grid point, the index of the sample behind the
    rate, or -1 where the grid point is unreachable.  The fields are
    read-only copies, so the caller's arrays stay writable.
    """

    grid: np.ndarray
    rates: np.ndarray
    witnesses: np.ndarray = ()

    def __post_init__(self):
        g = np.array(self.grid, dtype=float)
        r = np.array(self.rates, dtype=float)
        w = np.array(self.witnesses, dtype=np.intp)
        if g.ndim != 1 or g.shape != r.shape:
            raise ValueError("grid and rates must be 1-D arrays of equal length")
        if w.size and w.shape != g.shape:
            raise ValueError("one witness entry per grid point is required")
        for name, a in (("grid", g), ("rates", r), ("witnesses", w)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)


@dataclass(frozen=True)
class SolverOptions:
    restarts: int = 16
    max_iterations: int = 5000
    lagrange_grid: tuple[float, ...] = (0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0)
    convergence_tol: float = 1e-7
    rng_seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not 0 < self.convergence_tol < math.inf:
            raise ValueError("convergence_tol must be finite and positive")
        if not self.lagrange_grid or not all(0 < mu < math.inf for mu in self.lagrange_grid):
            raise ValueError("lagrange_grid must contain finite positive multipliers")
        object.__setattr__(self, "lagrange_grid", tuple(sorted(float(m) for m in self.lagrange_grid)))


# ---------------------------------------------------------------------------
# the objective shared by the sweep and the descent


def _spectral(v: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Stacked v diag(values) v^dagger."""
    return (v * values[..., None, :]) @ v.conj().swapaxes(-1, -2)


class _Objective:
    """I(X;R|B) and distortion of POVMs acting on the system factor A.

    A bipartite purification is the d_B = 1 case, where I(X;R|B) = I(X;R);
    the observable's blocks act on R (x) B.  :meth:`lagrangian` serves the
    descent; every reported value is recomputed by :meth:`witness`.
    """

    def __init__(self, psi: Purification, delta: DistortionObservable, outcomes: int):
        d_rb = psi.reference_dim * psi.side_dim
        if delta.outcome_count != int(outcomes):
            raise DimensionMismatch(
                f"requested {outcomes} outcomes but the observable has {delta.outcome_count} blocks"
            )
        if delta.dim != d_rb:
            raise DimensionMismatch(f"block dimension {delta.dim} != reference*side dimension {d_rb}")
        self.outcomes = int(outcomes)
        self.system_dim = psi.system_dims[0]
        self.side_dim = psi.side_dim
        self.m = psi.measured_matrix()
        self.blocks = np.stack(delta.blocks)
        rho = self.m @ self.m.conj().T
        self.h_const = float(entropy_gap(rho[None], self.side_dim))
        self.block_means = np.einsum("xij,ji->x", self.blocks, rho).real
        self.cost_gradient = np.einsum("ra,xrs,sb->xba", self.m.conj(), self.blocks, self.m)

    def lagrangian(self, lam: np.ndarray, mu: float):
        """L = rate + mu * distortion of effects (n, k, dA, dA) on LAPACK eigh,
        returned with rate, distortion and the gradient dL/dLambda_x.

        The gradient is (M^dag [log sigma_x - 1_R (x) log Tr_R sigma_x] M)^T / ln 2
        + mu (M^dag Delta_x M)^T; one eigh per block gives value and gradient.
        """
        sig = conditional_blocks(self.m, lam)
        w, v = np.linalg.eigh(sig)
        ws, vs = np.linalg.eigh(side_marginal(sig, self.side_dim))
        gap = entropy_terms(np.clip(w, 0.0, None)) - entropy_terms(np.clip(ws, 0.0, None))
        rate = self.h_const - gap.sum(axis=-1)
        dist = expected_cost(self.blocks, sig)
        log_joint = _spectral(v, np.log(np.maximum(w, EIG_FLOOR)))
        log_side = _spectral(vs, np.log(np.maximum(ws, EIG_FLOOR)))
        m3 = self.m.reshape(-1, self.side_dim, self.system_dim)
        d_rate = (np.einsum("ra,...rs,sb->...ba", self.m.conj(), log_joint, self.m)
                  - np.einsum("rca,...cd,rdb->...ba", m3.conj(), log_side, m3)) / math.log(2.0)
        return rate + mu * dist, rate, dist, d_rate + mu * self.cost_gradient

    def witness(self, effects: np.ndarray) -> RdPoint:
        """Reported point of the given effects, evaluated like the public functions."""
        povm = Povm(tuple(effects))
        sig = conditional_blocks(self.m, np.stack(povm.effects))
        return RdPoint(reported_distortion(self.blocks, sig), float(cq_information(sig, self.side_dim)), povm=povm)

    def zero_rate_point(self) -> tuple[float, np.ndarray]:
        """Best trivial POVM: a single identity effect on the cheapest label."""
        x0 = int(np.argmin(self.block_means))
        effects = np.zeros((self.outcomes, self.system_dim, self.system_dim), dtype=complex)
        effects[x0] = np.eye(self.system_dim)
        return float(self.block_means[x0]), effects


# ---------------------------------------------------------------------------
# Monte-Carlo sweep and lower envelope


def sample_sweep(
    psi: Purification,
    delta: DistortionObservable,
    outcomes: int,
    n_samples: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """(distortion, rate) arrays with one entry per random POVM; the rate is
    I(X;R), or I(X;R|B) for a tripartite purification.

    Sample ``i`` sits at position ``i`` and draws from the stream keyed by
    ``(seed, i)`` — identical to ``sample_random_povm(dim, outcomes, (seed, i))``
    — so the output does not depend on the chunking.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    obj = _Objective(psi, delta, outcomes)
    shape = (obj.outcomes, obj.system_dim, obj.system_dim)
    dist, rate = np.empty(n_samples), np.empty(n_samples)
    for start in range(0, n_samples, _SWEEP_CHUNK):
        stop = min(start + _SWEEP_CHUNK, n_samples)
        g = np.empty((stop - start,) + shape, dtype=complex)
        for i in range(start, stop):
            rng = np.random.default_rng((seed, i))
            g[i - start] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        sig = conditional_blocks(obj.m, povm_effects_from_ginibre(g))
        rate[start:stop] = cq_information(sig, obj.side_dim)
        dist[start:stop] = expected_cost(obj.blocks, sig)
    return dist, rate


def lower_envelope(distortion, rate, grid) -> RdCurve:
    """Minimum rate among samples with distortion <= D, for each grid D.

    The prefix minimum over a growing feasible set is automatically monotone
    non-increasing.  Each grid value's witness is the index of the first
    argmin: smallest distortion, then lowest index.  Grid values below every
    sampled distortion get ``inf`` and witness -1.
    """
    d = np.asarray(distortion, dtype=float)
    r = np.asarray(rate, dtype=float)
    if d.ndim != 1 or d.size == 0 or d.shape != r.shape:
        raise ValueError("distortion and rate must be nonempty 1-D arrays of equal length")
    if not (np.isfinite(d).all() and np.isfinite(r).all()):
        raise ValueError("distortion and rate samples must be finite")
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size == 0 or not np.isfinite(g).all() or np.any(np.diff(g) < 0):
        raise ValueError("grid must be a nonempty sorted 1-D array of finite values")
    order = np.argsort(d, kind="stable")
    rs = r[order]
    prefix = np.minimum.accumulate(rs)
    # position of the first argmin of rs[:j + 1]: the last strict new minimum
    first_min = np.maximum.accumulate(np.where(np.r_[True, rs[1:] < prefix[:-1]], np.arange(d.size), 0))
    pos = np.searchsorted(d[order], g, side="right") - 1
    reached = pos >= 0
    rates = np.where(reached, prefix[np.maximum(pos, 0)], np.inf)
    witnesses = np.where(reached, order[first_min[np.maximum(pos, 0)]], -1)
    return RdCurve(g, rates, witnesses)


# ---------------------------------------------------------------------------
# Lagrangian multistart descent


def _multiplicative_step(root: np.ndarray, grad: np.ndarray, step: np.ndarray) -> np.ndarray:
    """Factors of S^{-1/2} R_x Lambda_x R_x S^{-1/2}, R_x = exp(-eta (G_x - g_min) / 2).

    ``root`` holds factors U_x with U_x^dag U_x = Lambda_x, stacked (n, k, d, d).
    The new factors are the polar factor of the stacked U_x R_x, an isometry,
    so the new effects are PSD and sum to the identity by construction.  eta
    is ``step`` over the chain's gradient-eigenvalue spread.
    """
    n, k, d = root.shape[:3]
    gw, gv = np.linalg.eigh(grad)
    low = gw.min(axis=(-2, -1))[:, None, None]
    spread = gw.max(axis=(-2, -1))[:, None, None] - low
    eta = step[:, None, None] / np.maximum(spread, 1e-12)
    r = _spectral(gv, np.exp(-eta * (gw - low) / 2.0))
    u, _, vh = np.linalg.svd((root @ r).reshape(n, k * d, d), full_matrices=False)
    return (u @ vh).reshape(n, k, d, d)


def _descend(obj, mu: float, lam: np.ndarray, opts: SolverOptions):
    """Monotone multiplicative descent of L = rate + mu * distortion on
    stacked chains of effects (n, k, d, d).

    Each chain keeps its own adaptive step; a chain freezes when its step
    collapses or when the objective improves by less than the convergence
    tolerance over PLATEAU_WINDOW iterations.
    """
    w, v = np.linalg.eigh(lam)
    root = _spectral(v, np.sqrt(np.clip(w, 0.0, None)))
    f, rate, dist, grad = obj.lagrangian(lam, mu)
    n = f.size
    step = np.ones(n)
    window_f = f.copy()
    active = np.arange(n)
    it = 0
    while active.size and it < opts.max_iterations:
        prop_root = _multiplicative_step(root[active], grad[active], step[active])
        prop = prop_root.conj().swapaxes(-1, -2) @ prop_root
        fp, rp, dp, gp = obj.lagrangian(prop, mu)
        acc = fp < f[active]
        idx_acc = active[acc]
        idx_rej = active[~acc]
        lam[idx_acc], root[idx_acc], grad[idx_acc] = prop[acc], prop_root[acc], gp[acc]
        f[idx_acc], rate[idx_acc], dist[idx_acc] = fp[acc], rp[acc], dp[acc]
        step[idx_acc] = np.minimum(step[idx_acc] * 1.5, _MAX_STEP)
        step[idx_rej] *= 0.5
        it += 1
        if it % PLATEAU_WINDOW == 0:
            keep = (window_f[active] - f[active] >= opts.convergence_tol) & (step[active] > 1e-10)
            active = active[keep]
            window_f = f.copy()
        elif (step[active] <= 1e-10).any():
            active = active[step[active] > 1e-10]
    return lam, f, rate, dist


@dataclass
class _MuSolution:
    mu: float
    rate: float
    dist: float
    effects: np.ndarray  # best chain


class _LagrangianSolver:
    """Shared Lagrangian sweep serving one or many target distortions.

    Solutions at each multiplier are cached so a grid of targets reuses the
    same descent work; each solve warm-starts from the nearest multiplier
    solved so far.
    """

    #: extra rate allowed between the reported witness and the true optimum
    #: at the exact target, used to stop the multiplier bisection.
    RATE_MARGIN = 2e-4

    #: weight of the maximally mixed POVM in a warm start: multiplicative
    #: steps never grow a support, so an unmixed warm start could stay on a
    #: boundary face that is optimal only at the old multiplier.
    WARM_MIX = 0.1

    def __init__(self, obj, opts: SolverOptions):
        self.obj = obj
        self.opts = opts
        self.rng = np.random.default_rng(opts.rng_seed)
        self.k, self.d = obj.outcomes, obj.system_dim
        self.mixed = np.broadcast_to(np.eye(self.d, dtype=complex) / self.k, (self.k, self.d, self.d))
        self.solutions: dict[float, _MuSolution] = {}

    def _starts(self, warm: np.ndarray | None) -> np.ndarray:
        """``restarts`` chains: the maximally mixed POVM, the warm start mixed
        toward it, then Ginibre POVMs."""
        chains = [self.mixed]
        if warm is not None and self.opts.restarts > 1:
            chains.append((1.0 - self.WARM_MIX) * warm + self.WARM_MIX * self.mixed)
        shape = (self.opts.restarts - len(chains), self.k, self.d, self.d)
        g = self.rng.standard_normal(shape) + 1j * self.rng.standard_normal(shape)
        return np.concatenate([np.stack(chains), povm_effects_from_ginibre(g)])

    def solve_at(self, mu: float) -> _MuSolution:
        if mu in self.solutions:
            return self.solutions[mu]
        warm = None
        if self.solutions:
            nearest = min(self.solutions, key=lambda m: abs(math.log(m / mu)))
            warm = self.solutions[nearest].effects
        lam, f, rate, dist = _descend(self.obj, mu, self._starts(warm), self.opts)
        best = int(np.argmin(f))
        sol = _MuSolution(mu, float(rate[best]), float(dist[best]), lam[best])
        self.solutions[mu] = sol
        return sol

    def sweep(self) -> None:
        for mu in self.opts.lagrange_grid:
            self.solve_at(mu)

    def for_target(self, target: float) -> RdPoint | None:
        tol = self.opts.convergence_tol
        d0, trivial = self.obj.zero_rate_point()
        if d0 <= target + tol:
            return self.obj.witness(trivial)
        self.sweep()

        mixes: list[tuple[float, float, np.ndarray]] = []  # (rate, dist, effects)

        def bracket():
            feas = [s for s in self.solutions.values() if s.dist <= target + tol]
            infeas = [s for s in self.solutions.values() if s.dist > target + tol]
            lo = max(infeas, key=lambda s: s.mu) if infeas else None
            hi = min(feas, key=lambda s: s.mu) if feas else None
            return lo, hi

        lo, hi = bracket()
        mu_grow = max(self.solutions) if self.solutions else 1.0
        while hi is None and mu_grow < MU_CAP:
            mu_grow *= 4.0
            self.solve_at(mu_grow)
            lo, hi = bracket()
        if hi is None:
            return None  # target below everything the descent can reach
        mu_shrink = min(self.solutions)
        while lo is None and mu_shrink > 1e-4:
            mu_shrink /= 4.0
            self.solve_at(mu_shrink)
            lo, hi = bracket()

        for _ in range(16):
            if hi.rate <= 1e-12 or lo is None:
                break
            if hi.mu * (target - hi.dist) <= self.RATE_MARGIN:
                break
            # outcome-wise mixture of the bracket witnesses lands on the target;
            # its rate sits on the chord, whose sag is bounded by the slope gap
            if lo.dist > target > hi.dist:
                t = (lo.dist - target) / (lo.dist - hi.dist)
                mixed = t * hi.effects + (1.0 - t) * lo.effects
                _, r, d, _ = self.obj.lagrangian(mixed[None], 0.0)
                mixes.append((float(r[0]), float(d[0]), mixed))
                if (lo.dist - hi.dist) * (hi.mu - lo.mu) / 8.0 <= self.RATE_MARGIN / 4.0:
                    break
            if hi.mu / lo.mu < 1.001:
                break
            self.solve_at(math.sqrt(lo.mu * hi.mu))
            lo, hi = bracket()

        candidates = [(s.rate, s.dist, s.effects) for s in self.solutions.values()] + mixes
        feasible = [(r, d, e) for r, d, e in candidates if d <= target + tol]
        if not feasible:
            return None
        best = min(feasible, key=lambda c: (c[0], c[1]))
        return self.obj.witness(best[2])


def minimize_rate(
    psi: Purification,
    delta: DistortionObservable,
    target_d: float,
    outcomes: int,
    opts: SolverOptions | None = None,
) -> RdPoint | None:
    """Best found POVM with distortion <= target_d + tol and minimal I(X;R).

    Returns ``None`` when no sampled or descended POVM meets the target.
    The result is an achievable upper bound on the rate-distortion function,
    witnessed by the returned POVM.
    """
    if len(psi.system_dims) != 1:
        raise DimensionMismatch("expected a bipartite (reference, system) purification")
    return minimize_rate_curve(psi, delta, [target_d], outcomes, opts)[0]


def minimize_rate_qsi(
    psi: Purification,
    delta: DistortionObservable,
    target_d: float,
    outcomes: int,
    opts: SolverOptions | None = None,
) -> RdPoint | None:
    """Same scheme as :func:`minimize_rate` with objective I(X;R|B).

    A one-dimensional side factor runs the very code of the plain setting,
    so the trivial-B case returns the plain solver's result bit for bit.
    """
    if len(psi.system_dims) != 2:
        raise DimensionMismatch("expected a tripartite (reference, system, side) purification")
    return minimize_rate_curve(psi, delta, [target_d], outcomes, opts)[0]


def minimize_rate_curve(
    psi: Purification,
    delta: DistortionObservable,
    targets,
    outcomes: int,
    opts: SolverOptions | None = None,
) -> list[RdPoint | None]:
    """Minimal I(X;R), or I(X;R|B) for a tripartite purification, over a
    grid of targets sharing one Lagrangian sweep."""
    opts = opts or SolverOptions()
    for t in targets:
        _check_target(t, delta)
    solver = _LagrangianSolver(_Objective(psi, delta, outcomes), opts)
    return [solver.for_target(float(t)) for t in targets]


def _check_target(target_d: float, delta: DistortionObservable) -> None:
    if not -1e-12 <= float(target_d) <= delta.d_max + 1e-9:
        raise ValueError(f"target distortion {target_d!r} outside [0, d_max={delta.d_max!r}]")


# ---------------------------------------------------------------------------
# classical Blahut-Arimoto oracle


def _ba_fixed_slope(p: np.ndarray, costs: np.ndarray, beta: float, eps: float = 1e-13,
                    max_iter: int = 200_000) -> tuple[float, float]:
    """Alternating minimization at fixed Lagrange slope; returns (rate, distortion)."""
    shift = costs.min(axis=1, keepdims=True)
    e = np.exp(-beta * (costs - shift))
    q = np.full(costs.shape[1], 1.0 / costs.shape[1])
    for _ in range(max_iter):
        w = e * q
        w /= w.sum(axis=1, keepdims=True)
        q_new = p @ w
        delta = float(np.abs(q_new - q).max())
        q = q_new
        if delta < eps:
            break
    w = e * q
    w /= w.sum(axis=1, keepdims=True)
    dist = float((p[:, None] * w * costs).sum())
    mask = w > 1e-300
    ratio = np.where(mask, w / np.where(q > 0, q, 1.0)[None, :], 1.0)
    rate = float((p[:, None] * np.where(mask, w * np.log2(ratio), 0.0)).sum())
    return max(rate, 0.0), dist


def blahut_arimoto(p, costs, target_d: float, tol: float = 1e-9) -> float | None:
    """Classical rate-distortion value R(D) in bits.

    Bisects the Lagrange slope until the fixed-slope distortion hits
    ``target_d`` within ``tol``; when the curve has a linear segment the
    bracket endpoints are chord-interpolated instead.  Returns ``None`` when
    the target lies below the minimal achievable distortion; a NaN target or
    a non-finite cost raises ``ValueError``.
    """
    pa = np.asarray(p, dtype=float).reshape(-1)
    if pa.size == 0 or not np.isfinite(pa).all() or float(pa.min()) < -1e-12:
        raise InvalidDistribution("source probabilities must be a distribution")
    if abs(float(pa.sum()) - 1.0) > 1e-9:
        raise InvalidDistribution(f"source probabilities sum to {pa.sum()!r}")
    c = np.asarray(costs, dtype=float)
    if c.ndim != 2 or c.shape[0] != pa.size:
        raise DimensionMismatch(f"cost matrix shape {c.shape} does not match {pa.size} source letters")
    if not np.isfinite(c).all():
        raise ValueError("cost entries must be finite")
    if float(c.min()) < 0.0:
        raise ValueError(f"negative cost entry {c.min()!r}")
    target = float(target_d)
    if math.isnan(target):
        raise ValueError("target distortion is NaN")
    pa = np.clip(pa, 0.0, None)
    pa /= pa.sum()

    d_floor = float((pa * c.min(axis=1)).sum())
    d_zero = float((pa @ c).min())
    if target < d_floor - max(tol, 1e-12):
        return None
    if target >= d_zero - 1e-12:
        return 0.0

    lo_beta, lo_rate, lo_dist = 0.0, 0.0, d_zero
    hi_beta = 1.0
    while True:
        hi_rate, hi_dist = _ba_fixed_slope(pa, c, hi_beta)
        if hi_dist <= target:
            break
        lo_beta, lo_rate, lo_dist = hi_beta, hi_rate, hi_dist
        hi_beta *= 4.0
        if hi_beta > 1e12:  # exp() already saturates far earlier
            break
    if hi_dist > target:
        return None if target < hi_dist - max(tol, 1e-12) else hi_rate

    for _ in range(200):
        if abs(hi_dist - target) <= tol:
            return hi_rate
        if hi_beta - lo_beta <= 1e-12 * max(1.0, hi_beta):
            break
        mid = (lo_beta + hi_beta) / 2.0
        mid_rate, mid_dist = _ba_fixed_slope(pa, c, mid)
        if mid_dist > target:
            lo_beta, lo_rate, lo_dist = mid, mid_rate, mid_dist
        else:
            hi_beta, hi_rate, hi_dist = mid, mid_rate, mid_dist
    # linear segment of the curve: interpolate the chord at the target
    span = lo_dist - hi_dist
    if span <= 0:
        return hi_rate
    t = (lo_dist - target) / span
    return float(lo_rate + t * (hi_rate - lo_rate))


def classical_strategy_rate(rho, delta: DistortionObservable, target_d: float) -> float | None:
    """Rate of the eigenbasis-measurement-plus-post-processing strategy.

    Runs the classical oracle on the source eigenvalues with costs
    c(z, x) = <z|Delta_x|z>; returns ``None`` when no post-processing channel
    achieves the target distortion.
    """
    if delta.dim != rho.dim:
        raise DimensionMismatch(f"block dimension {delta.dim} != source dimension {rho.dim}")
    eig = eig_hermitian(rho.mat)
    pa = np.clip(eig.eigenvalues, 0.0, None)
    pa /= pa.sum()
    v = eig.eigenvectors
    costs = np.einsum("iz,xij,jz->zx", v.conj(), np.stack(delta.blocks), v).real
    return blahut_arimoto(pa, np.clip(costs, 0.0, None), target_d)
