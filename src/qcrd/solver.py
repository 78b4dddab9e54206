"""Rate-distortion solvers.

Four routes to (distortion, rate) points:

* :func:`sample_sweep` — Monte-Carlo cloud of random POVMs (the figure
  reproduction path), with :func:`lower_envelope` extracting the trade-off
  boundary;
* :func:`minimize_rate` / :func:`minimize_rate_qsi` — constrained
  minimization of I(X;R) resp. I(X;R|B) via a Lagrangian sweep with
  multistart finite-difference descent on the Ginibre parametrization;
* :func:`blahut_arimoto` — the classical oracle for effectively classical
  (Schmidt-diagonal) observables;
* :func:`classical_strategy_rate` — eigenbasis measurement plus classical
  post-processing, i.e. the best strategy available without collective
  quantum measurements.

Sweep and descent share one objective, :class:`_Objective`: I(X;R|B) and
distortion of POVMs on the system factor A, with the purification read as
(R, A, B).  A bipartite purification is the d_B = 1 case, where I(X;R|B) is
I(X;R), so the number of system factors alone decides the setting.

Reported optimizer values are achievable upper bounds witnessed by explicit
POVMs; no global-optimality certificate is claimed.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .distortion import DistortionObservable, expected_cost, reported_distortion
from .information import InvalidDistribution, cq_information, entropy_gap
from .operators import DimensionMismatch, eig_hermitian
from .states import Povm, Purification, conditional_blocks, povm_effects_from_ginibre

#: Largest Lagrange multiplier tried before declaring a target infeasible.
MU_CAP = 1e7

#: Descent declares a plateau when the objective improves by less than the
#: convergence tolerance over this many iterations.
PLATEAU_WINDOW = 50

_SWEEP_CHUNK = 4096
_FD_STEP = 1e-5


@dataclass(frozen=True)
class RdPoint:
    """One achievable (distortion, rate) point, optionally with its witness."""

    distortion: float
    rate: float
    povm: Povm | None = None
    seed: int | None = None


@dataclass(frozen=True)
class RdCurve:
    """Rates over a sorted distortion grid; ``inf`` marks unreachable values."""

    grid: np.ndarray
    rates: np.ndarray
    witnesses: tuple[RdPoint | None, ...] = ()

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        r = np.asarray(self.rates, dtype=float)
        if g.ndim != 1 or g.shape != r.shape:
            raise ValueError("grid and rates must be 1-D arrays of equal length")
        if self.witnesses and len(self.witnesses) != g.size:
            raise ValueError("one witness entry per grid point is required")
        g.setflags(write=False)
        r.setflags(write=False)
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "rates", r)


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
        if self.convergence_tol <= 0:
            raise ValueError("convergence_tol must be positive")
        if not self.lagrange_grid or any(mu <= 0 for mu in self.lagrange_grid):
            raise ValueError("lagrange_grid must contain positive multipliers")
        object.__setattr__(self, "lagrange_grid", tuple(sorted(float(m) for m in self.lagrange_grid)))


# ---------------------------------------------------------------------------
# batched evaluation of (rate, distortion) for stacked POVM effects


def _eigvals_stacked(mats: np.ndarray) -> np.ndarray:
    """Eigenvalues of stacked Hermitian matrices, closed forms for d <= 3.

    Only :meth:`_Objective.evaluate` uses these: the closed forms sit well
    above the finite-difference noise floor but not at the 1e-10 level near
    rank deficiency, so every reported value goes through LAPACK in
    :func:`qcrd.information.cq_information` instead.
    """
    d = mats.shape[-1]
    if d > 3:
        return np.linalg.eigvalsh(mats)
    if d == 1:
        return mats[..., 0, 0].real.copy()[..., None]
    if d == 2:
        a = mats[..., 0, 0].real
        c = mats[..., 1, 1].real
        b = mats[..., 0, 1]
        half = (a + c) / 2.0
        gap = np.sqrt(((a - c) / 2.0) ** 2 + b.real**2 + b.imag**2)
        return np.stack([half - gap, half + gap], axis=-1)
    return _eigvals3(mats)


def _eigvals3(m: np.ndarray) -> np.ndarray:
    """Closed-form (trigonometric) eigenvalues of Hermitian 3x3 stacks."""
    a00, a11, a22 = m[..., 0, 0].real, m[..., 1, 1].real, m[..., 2, 2].real
    a01, a02, a12 = m[..., 0, 1], m[..., 0, 2], m[..., 1, 2]
    n01 = a01.real**2 + a01.imag**2
    n02 = a02.real**2 + a02.imag**2
    n12 = a12.real**2 + a12.imag**2
    q = (a00 + a11 + a22) / 3.0
    b00, b11, b22 = a00 - q, a11 - q, a22 - q
    p = np.sqrt(np.maximum(b00**2 + b11**2 + b22**2 + 2.0 * (n01 + n02 + n12), 0.0) / 6.0)
    det = (
        b00 * b11 * b22
        + 2.0 * (a01 * a12 * a02.conj()).real
        - b00 * n12
        - b11 * n02
        - b22 * n01
    )
    safe = np.where(p > 0.0, p, 1.0)
    r = np.clip(det / (2.0 * safe**3), -1.0, 1.0)
    phi = np.arccos(r) / 3.0
    e_hi = q + 2.0 * p * np.cos(phi)
    e_lo = q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)
    return np.stack([e_lo, 3.0 * q - e_hi - e_lo, e_hi], axis=-1)


class _Objective:
    """Batched I(X;R|B) and distortion for POVMs acting on the system factor A.

    A bipartite purification is the d_B = 1 case, where I(X;R|B) = I(X;R);
    the observable's blocks act on R (x) B.
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
        self.h_const = float(entropy_gap(rho[None], self.side_dim, np.linalg.eigvalsh))
        self.block_means = np.einsum("xij,ji->x", self.blocks, rho).real

    def evaluate(self, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """lam: (..., k, dA, dA) stacked effects -> (rate, distortion), each (...)."""
        sig = conditional_blocks(self.m, lam)
        rate = self.h_const - entropy_gap(sig, self.side_dim, _eigvals_stacked)
        return rate, expected_cost(self.blocks, sig)

    def witness(self, effects: np.ndarray, seed: int) -> RdPoint:
        """Reported point of the given effects, evaluated like the public functions."""
        povm = Povm(tuple(effects))
        sig = conditional_blocks(self.m, np.stack(povm.effects))
        return RdPoint(reported_distortion(self.blocks, sig), cq_information(sig, self.side_dim),
                       povm=povm, seed=seed)

    def zero_rate_point(self) -> tuple[float, np.ndarray]:
        """Best trivial POVM: a single identity effect on the cheapest label."""
        x0 = int(np.argmin(self.block_means))
        effects = np.zeros((self.outcomes, self.system_dim, self.system_dim), dtype=complex)
        effects[x0] = np.eye(self.system_dim)
        return float(self.block_means[x0]), effects


# ---------------------------------------------------------------------------
# Monte-Carlo sweep and lower envelope


def _sweep_chunk(obj: _Objective, seed, start: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    shape = (obj.outcomes, obj.system_dim, obj.system_dim)
    g = np.empty((count,) + shape, dtype=complex)
    for j in range(count):
        rng = np.random.default_rng((seed, start + j))
        g[j] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return obj.evaluate(povm_effects_from_ginibre(g))


def sample_sweep(
    psi: Purification,
    delta: DistortionObservable,
    outcomes: int,
    n_samples: int,
    seed: int,
    threads: int = 1,
) -> list[RdPoint]:
    """One (distortion, I(X;R)) point per random POVM; I(X;R|B) for a
    tripartite purification.

    Sample ``i`` draws from the stream keyed by ``(seed, i)`` — identical to
    ``sample_random_povm(dim, outcomes, (seed, i))`` — so the output is
    deterministic regardless of chunking or thread count.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    obj = _Objective(psi, delta, outcomes)
    jobs = [(s, min(_SWEEP_CHUNK, n_samples - s)) for s in range(0, n_samples, _SWEEP_CHUNK)]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=int(threads)) as pool:
            parts = list(pool.map(lambda sc: _sweep_chunk(obj, seed, sc[0], sc[1]), jobs))
    else:
        parts = [_sweep_chunk(obj, seed, s, c) for s, c in jobs]
    points: list[RdPoint] = []
    index = 0
    for rate, dist in parts:
        for j in range(rate.size):
            points.append(RdPoint(float(dist[j]), float(rate[j]), seed=index))
            index += 1
    return points


def lower_envelope(points: list[RdPoint], grid) -> RdCurve:
    """Minimum rate among points with distortion <= D, for each grid D.

    The prefix minimum over a growing feasible set is automatically monotone
    non-increasing.  Grid values below every sampled distortion get ``inf``
    and no witness.
    """
    if not points:
        raise ValueError("lower_envelope needs at least one point")
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size == 0 or np.any(np.diff(g) < 0):
        raise ValueError("grid must be a nonempty sorted 1-D array")
    d = np.array([p.distortion for p in points])
    r = np.array([p.rate for p in points])
    order = np.argsort(d, kind="stable")
    ds, rs = d[order], r[order]
    prefix = np.minimum.accumulate(rs)
    pos = np.searchsorted(ds, g, side="right") - 1
    rates = np.where(pos >= 0, prefix[np.maximum(pos, 0)], np.inf)
    witnesses: list[RdPoint | None] = []
    for p_idx in pos:
        if p_idx < 0:
            witnesses.append(None)
        else:
            # first argmin = smallest distortion, then lowest seed (stable sort)
            j = int(np.argmin(rs[: p_idx + 1]))
            witnesses.append(points[order[j]])
    return RdCurve(g, rates, tuple(witnesses))


# ---------------------------------------------------------------------------
# Lagrangian multistart descent


def _to_params(g: np.ndarray) -> np.ndarray:
    lead = g.shape[:-3]
    flat = g.reshape(lead + (-1,))
    return np.concatenate([flat.real, flat.imag], axis=-1)


def _from_params(theta: np.ndarray, k: int, d: int) -> np.ndarray:
    lead = theta.shape[:-1]
    half = theta.shape[-1] // 2
    flat = theta[..., :half] + 1j * theta[..., half:]
    return flat.reshape(lead + (k, d, d))


def _ginibre_root(effects: np.ndarray) -> np.ndarray:
    """Parameter matrices reproducing the given effects exactly.

    With G_x = sqrt(effect_x) the normalizer M equals the identity, so the
    Ginibre-square map returns the effects unchanged (up to roundoff).
    """
    w, v = np.linalg.eigh(effects)
    return (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ v.conj().swapaxes(-1, -2)


def _mix_to_target(eff_low: np.ndarray, d_low: float, eff_high: np.ndarray, d_high: float,
                   target: float) -> np.ndarray:
    """Outcome-wise POVM mixture whose (affine) distortion equals the target."""
    t = (d_high - target) / (d_high - d_low)
    return t * eff_low + (1.0 - t) * eff_high


def _objective(obj, mu: float, theta: np.ndarray, k: int, d: int):
    lam = povm_effects_from_ginibre(_from_params(theta, k, d))
    rate, dist = obj.evaluate(lam)
    return rate + mu * dist, rate, dist


def _fd_gradient(obj, mu: float, theta: np.ndarray, k: int, d: int) -> np.ndarray:
    """Central finite differences with step ``_FD_STEP`` on the real parameters."""
    c, p = theta.shape
    pts = np.repeat(theta[:, None, :], 2 * p, axis=1)
    idx = np.arange(p)
    pts[:, idx, idx] += _FD_STEP
    pts[:, p + idx, idx] -= _FD_STEP
    f, _, _ = _objective(obj, mu, pts.reshape(c * 2 * p, p), k, d)
    f = f.reshape(c, 2 * p)
    return (f[:, :p] - f[:, p:]) / (2 * _FD_STEP)


def _descend(obj, mu: float, g0: np.ndarray, opts: SolverOptions):
    """Monotone normalized-gradient descent on stacked chains.

    Each chain keeps its own adaptive step; a chain freezes when its step
    collapses or when the objective improves by less than the convergence
    tolerance over PLATEAU_WINDOW iterations.
    """
    k, d = obj.outcomes, obj.system_dim
    theta = _to_params(np.asarray(g0, dtype=complex))
    n = theta.shape[0]
    f, rate, dist = _objective(obj, mu, theta, k, d)
    step = np.full(n, 0.25)
    window_f = f.copy()
    active = np.arange(n)
    it = 0
    while active.size and it < opts.max_iterations:
        grad = _fd_gradient(obj, mu, theta[active], k, d)
        norms = np.linalg.norm(grad, axis=1)
        dirn = grad / np.maximum(norms, 1e-30)[:, None]
        prop = theta[active] - step[active][:, None] * dirn
        fp, rp, dp = _objective(obj, mu, prop, k, d)
        acc = fp < f[active]
        idx_acc = active[acc]
        idx_rej = active[~acc]
        theta[idx_acc] = prop[acc]
        f[idx_acc], rate[idx_acc], dist[idx_acc] = fp[acc], rp[acc], dp[acc]
        step[idx_acc] = np.minimum(step[idx_acc] * 1.3, 4.0)
        step[idx_rej] *= 0.5
        it += 1
        if it % PLATEAU_WINDOW == 0:
            keep = (window_f[active] - f[active] >= opts.convergence_tol) & (step[active] > 1e-10)
            active = active[keep]
            window_f = f.copy()
        elif (step[active] <= 1e-10).any():
            active = active[step[active] > 1e-10]
    return _from_params(theta, k, d), f, rate, dist


@dataclass
class _MuSolution:
    mu: float
    rate: float
    dist: float
    g: np.ndarray       # best chain
    pool: np.ndarray    # top chains for warm starts


class _LagrangianSolver:
    """Shared Lagrangian sweep serving one or many target distortions.

    Solutions at each multiplier are cached so a grid of targets reuses the
    same descent work; neighbouring multipliers warm-start each other.
    """

    #: extra rate allowed between the reported witness and the true optimum
    #: at the exact target, used to stop the multiplier bisection.
    RATE_MARGIN = 2e-4

    def __init__(self, obj, opts: SolverOptions):
        self.obj = obj
        self.opts = opts
        self.rng = np.random.default_rng(opts.rng_seed)
        self.k, self.d = obj.outcomes, obj.system_dim
        self.solutions: dict[float, _MuSolution] = {}
        self._swept = False

    def _fresh(self, n: int) -> np.ndarray:
        shape = (n, self.k, self.d, self.d)
        return self.rng.standard_normal(shape) + 1j * self.rng.standard_normal(shape)

    def _solve(self, mu: float, warm: np.ndarray | None, fresh: int) -> _MuSolution:
        if warm is None:
            chains = self._fresh(self.opts.restarts)
        else:
            # a rank-deficient effect is a saddle of the Ginibre map (zero
            # differential), so warm chains can stall there; an
            # interior-centered copy of the best warm chain escapes it
            parts = [warm, self._centered(warm[0])[None]]
            if fresh > 0:
                parts.append(self._fresh(fresh))
            chains = np.concatenate(parts, axis=0)
        g, f, rate, dist = _descend(self.obj, mu, chains, self.opts)
        order = np.argsort(f, kind="stable")
        pool = g[order[: max(2, self.opts.restarts // 4)]]
        sol = _MuSolution(mu, float(rate[order[0]]), float(dist[order[0]]), g[order[0]], pool)
        self.solutions[mu] = sol
        return sol

    def _centered(self, g: np.ndarray, weight: float = 0.1) -> np.ndarray:
        effects = povm_effects_from_ginibre(g)
        eye = np.eye(self.d, dtype=complex)[None] / self.k
        return _ginibre_root((1.0 - weight) * effects + weight * np.broadcast_to(eye, effects.shape))

    def solve_at(self, mu: float) -> _MuSolution:
        """Warm-started refinement solve."""
        if mu in self.solutions:
            return self.solutions[mu]
        warm = None
        if self.solutions:
            nearest = min(self.solutions, key=lambda m: abs(math.log(m / mu)))
            warm = self.solutions[nearest].pool
        return self._solve(mu, warm, fresh=1)

    def sweep(self) -> None:
        if self._swept:
            return
        self._swept = True
        warm = None
        for mu in self.opts.lagrange_grid:
            sol = self._solve(mu, warm, fresh=1)
            warm = sol.pool

    def for_target(self, target: float) -> RdPoint | None:
        tol = self.opts.convergence_tol
        d0, trivial = self.obj.zero_rate_point()
        if d0 <= target + tol:
            return self.obj.witness(trivial, self.opts.rng_seed)
        self.sweep()

        candidates: list[tuple[float, float, np.ndarray]] = []  # (rate, dist, effects or g)

        def record(sol: _MuSolution):
            candidates.append((sol.rate, sol.dist, povm_effects_from_ginibre(sol.g)))

        for sol in self.solutions.values():
            record(sol)

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
            record(self.solve_at(mu_grow))
            lo, hi = bracket()
        if hi is None:
            return None  # target below everything the descent can reach
        mu_shrink = min(self.solutions)
        while lo is None and mu_shrink > 1e-4:
            mu_shrink /= 4.0
            record(self.solve_at(mu_shrink))
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
                mixed = t * povm_effects_from_ginibre(hi.g) + (1.0 - t) * povm_effects_from_ginibre(lo.g)
                r, d = self.obj.evaluate(mixed[None])
                candidates.append((float(r[0]), float(d[0]), mixed))
                if (lo.dist - hi.dist) * (hi.mu - lo.mu) / 8.0 <= self.RATE_MARGIN / 4.0:
                    break
            if hi.mu / lo.mu < 1.001:
                break
            sol = self.solve_at(math.sqrt(lo.mu * hi.mu))
            record(sol)
            lo, hi = bracket()

        feasible = [(r, d, e) for r, d, e in candidates if d <= target + tol]
        if not feasible:
            return None
        best = min(feasible, key=lambda c: (c[0], c[1]))

        # polish: restart descent from the winning witness at the bracket slope,
        # then re-select among old and polished candidates
        if best[0] > 1e-12 and lo is not None:
            mu_star = math.sqrt(lo.mu * hi.mu)
            g, _, _, _ = _descend(self.obj, mu_star, _ginibre_root(best[2])[None], self.opts)
            polished = povm_effects_from_ginibre(g[0])
            r, d = self.obj.evaluate(polished[None])
            r_pol, d_pol = float(r[0]), float(d[0])
            if d_pol <= target + tol:
                feasible.append((r_pol, d_pol, polished))
            if (d_pol - target) * (best[1] - target) < 0.0:
                # polished and previous best straddle the target: mix onto it
                if d_pol < target:
                    mixed = _mix_to_target(polished, d_pol, best[2], best[1], target)
                else:
                    mixed = _mix_to_target(best[2], best[1], polished, d_pol, target)
                r, d = self.obj.evaluate(mixed[None])
                if float(d[0]) <= target + tol:
                    feasible.append((float(r[0]), float(d[0]), mixed))
            best = min(feasible, key=lambda c: (c[0], c[1]))
        return self.obj.witness(best[2], self.opts.rng_seed)


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
    the target lies below the minimal achievable distortion.
    """
    pa = np.asarray(p, dtype=float).reshape(-1)
    if pa.size == 0 or not np.isfinite(pa).all() or float(pa.min()) < -1e-12:
        raise InvalidDistribution("source probabilities must be a distribution")
    if abs(float(pa.sum()) - 1.0) > 1e-9:
        raise InvalidDistribution(f"source probabilities sum to {pa.sum()!r}")
    c = np.asarray(costs, dtype=float)
    if c.ndim != 2 or c.shape[0] != pa.size:
        raise DimensionMismatch(f"cost matrix shape {c.shape} does not match {pa.size} source letters")
    if float(c.min()) < 0.0:
        raise ValueError(f"negative cost entry {c.min()!r}")
    pa = np.clip(pa, 0.0, None)
    pa /= pa.sum()

    d_floor = float((pa * c.min(axis=1)).sum())
    d_zero = float((pa @ c).min())
    target = float(target_d)
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
