"""Rate-distortion solvers.

Four routes to (distortion, rate) points:

* :func:`sample_sweep` — Monte-Carlo cloud of random POVMs (the figure
  reproduction path, its chunks run in parallel with the same output for
  any worker count), with :func:`lower_envelope` extracting the boundary;
* :func:`minimize_rate` / :func:`minimize_rate_curve` — constrained
  minimization of I(X;R), or of I(X;R|B) for a tripartite purification, via
  a search for the multipliers mu that bracket each target, minimizing
  L = rate + mu * distortion at each;
* :func:`blahut_arimoto` — the classical oracle for effectively classical
  (Schmidt-diagonal) observables;
* :func:`classical_strategy_rate` — eigenbasis measurement plus classical
  post-processing, i.e. the best strategy available without collective
  quantum measurements.

Sweep and descent share one objective, :class:`_Objective`: I(X;R|B) and
distortion of POVMs on the system factor A, with the purification read as
(R, A, B).  A bipartite purification is the d_B = 1 case, where I(X;R|B) is
I(X;R), so the number of system factors alone decides the setting.  Every
sampled, compared and reported value comes from the kernels behind
``mutual_information_cq`` and ``distortion``, whatever a stack's size or
memory layout: sample ``i`` of :func:`sample_sweep` has, bit for bit, the
rate they give ``sweep_povm(d, k, seed, i)``.  Only the mirror descent's
step and stopping tests compute L their own way.

L is convex in the blocks: I(X;R) = sum_x D(sigma_x || p_x rho_R),
I(X;R|B) = const - sum_x D(sigma_x || 1_R (x) Tr_R sigma_x) by joint
convexity of relative entropy, and distortion is linear.  Each multiplier
is solved by quantum Blahut-Arimoto: mirror descent with step 1, or 2 where
that lowers L by a margin, on the blocks sigma_x restricted to the range of
the source, with one Newton solve per step for the multiplier of the
constraint sum_x sigma_x = rho_RB; every accepted step lowers L.  The
plain and side-information settings run the same step, and every solve is
deterministic.  Reported optimizer values are achievable upper bounds
witnessed by explicit POVMs; no lower bound is computed yet.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass

import numpy as np

from .distortion import DistortionObservable, expected_cost, reported_distortion
from .information import checked_distribution, cq_information, entropy_gap, entropy_terms
from .operators import DimensionMismatch, eig_hermitian
from .states import (Povm, Purification, _freeze, _ginibre_draws, conditional_blocks, povm_effects_from_ginibre,
                     whiten_effects)

#: Largest Lagrange multiplier tried before declaring a target infeasible.
MU_CAP = 1e7

#: Singular values of M below this fraction of the largest one are dropped:
#: the solver works in range(M) only.
_RANK_CUT = 1e-12

#: Largest exponent spread, in nats, that one mirror-descent step may add to
#: the blocks; a Y-solve cannot represent the spreads that mu ln2 Delta
#: reaches near MU_CAP in double precision.
_STEP_SPREAD = 200.0
#: Over-relaxed mirror-descent step, in base steps.  Each multiplier is solved from
#: scratch, so any length keeps rates independent of solve order; 2 is the one measured.
_OVER_RELAX = 2.0

#: Newton decrement below which a Y-solve takes the full step and stops.
_NEWTON_EXACT = 1e-12
#: Limits of one Y-solve: Newton steps, the smallest Armijo damping before
#: Newton counts as stalled, and the steps and residual of the fixed point.
_NEWTON_STEPS = 50
_MIN_DAMPING = 1e-10
_FIXED_POINT_STEPS = 100
_FIXED_POINT_TOL = 1e-6

#: Largest exponent passed to exp (which overflows above 709), and the floor
#: of eigenvalues passed to log.
_EXP_MAX = 700.0
_TINY = 1e-300


@dataclass(frozen=True)
class RdPoint:
    """One achievable (distortion, rate) point with its witness POVM."""

    distortion: float
    rate: float
    povm: Povm


@dataclass(frozen=True, eq=False)
class RdCurve:
    """Rates over a sorted distortion grid; ``inf`` marks unreachable values.

    ``witnesses`` holds, per grid point, the index of the sample behind the
    rate, or -1 where the grid point is unreachable; index ``i`` of a sweep
    keyed by ``seed`` is the POVM ``sweep_povm(d, k, seed, i)``.  The fields
    are read-only copies, so the caller's arrays stay writable.
    """

    grid: np.ndarray
    rates: np.ndarray
    witnesses: np.ndarray = ()

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        r = np.asarray(self.rates, dtype=float)
        w = np.asarray(self.witnesses, dtype=np.intp)
        if g.ndim != 1 or g.shape != r.shape:
            raise ValueError("grid and rates must be 1-D arrays of equal length")
        if w.size and w.shape != g.shape:
            raise ValueError("one witness entry per grid point is required")
        for name, a in (("grid", g), ("rates", r), ("witnesses", w)):
            object.__setattr__(self, name, _freeze(a))


@dataclass(frozen=True)
class SolverOptions:
    """Options of the Lagrangian solver.

    A target's bracket search bisects ``lagrange_grid``, then grows the bracket or
    narrows it by regula falsi in log mu; each multiplier it solves runs mirror descent, which
    keeps a doubled step only if it lowers L by 3 ``convergence_tol`` bits, until L improves
    by less than ``convergence_tol`` bits in one step, or for ``max_iterations`` steps (Y-solves).
    ``restarts`` and ``rng_seed`` are accepted and validated but ignored:
    the solve is convex and deterministic, with one start per multiplier.
    """

    restarts: int = 16
    max_iterations: int = 5000
    lagrange_grid: tuple[float, ...] = (0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0)
    convergence_tol: float = 1e-7
    rng_seed: int = 0

    def __post_init__(self):
        for name, least in (("restarts", 1), ("max_iterations", 1), ("rng_seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer")
            if value < least:
                raise ValueError(f"{name} must be at least {least}")

        def finite_positive(x):
            return isinstance(x, numbers.Real) and not isinstance(x, bool) and 0 < x < math.inf

        if not finite_positive(self.convergence_tol):
            raise ValueError("convergence_tol must be finite and positive")
        if not self.lagrange_grid or not all(map(finite_positive, self.lagrange_grid)):
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
    the observable's blocks act on R (x) B.  :meth:`evaluate` values every
    POVM the sweep and the descent compare, with the kernels behind the
    public functions; :meth:`witness` reports a point with the same kernels.
    """

    def __init__(self, psi: Purification, delta: DistortionObservable, outcomes: int):
        d_rb = psi.reference_dim * psi.side_dim
        if isinstance(outcomes, bool) or not isinstance(outcomes, numbers.Integral):
            raise ValueError(f"outcomes must be an integer, got {outcomes!r}")
        if delta.outcome_count != outcomes:
            raise DimensionMismatch(
                f"requested {outcomes} outcomes but the observable has {delta.outcome_count} blocks"
            )
        if delta.dim != d_rb:
            raise DimensionMismatch(f"block dimension {delta.dim} != reference*side dimension {d_rb}")
        self.outcomes = int(outcomes)
        self.system_dim = psi.system_dims[0]
        self.side_dim = psi.side_dim
        self.m = psi.measured_matrix()
        self.blocks = delta.blocks
        self.h_const = float(entropy_gap((self.m @ self.m.conj().T)[None], self.side_dim))

    def evaluate(self, effects: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(rate, distortion) of stacked effects (..., k, dA, dA), one value per POVM."""
        sig = conditional_blocks(self.m, effects)
        return cq_information(sig, self.side_dim), expected_cost(self.blocks, sig)

    def witness(self, effects: np.ndarray) -> RdPoint:
        """Reported point of the given effects, evaluated like the public functions."""
        povm = Povm(effects)
        sig = conditional_blocks(self.m, povm.effects)
        return RdPoint(reported_distortion(self.blocks, sig), float(cq_information(sig, self.side_dim)), povm)

    def zero_rate_point(self) -> tuple[float, np.ndarray]:
        """Best trivial POVM: a single identity effect on the cheapest label."""
        trivial = np.eye(self.outcomes)[:, :, None, None] * np.eye(self.system_dim, dtype=complex)
        dist = self.evaluate(trivial)[1]
        x0 = int(np.argmin(dist))
        return float(dist[x0]), trivial[x0]


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

    Sample ``i`` sits at position ``i`` and is the POVM
    ``sweep_povm(dim, outcomes, seed, i)``: each chunk of samples is one draw
    from a counter-based stream in which sample ``i`` owns a fixed block, so
    the output does not depend on the chunking and the first ``m`` samples
    do not depend on ``n_samples``.

    A chunk holds max(2048, 2^15 // (k max(d_A, d_RB)^2)) samples
    (:func:`_sweep_chunk`): 4,096 on the paper example (k = 2, d_A = d_RB =
    2) and 2,048 on ``examples/qutrit.json`` and ``examples/side-info.json``.
    In 60,000-sample sweeps (7 interleaved runs, 2-vCPU Xeon), 4,096 cut the
    paper example's CPU by 10% against 2,048, while on the two example specs
    4,096 cost 3-10% more CPU and 1,024 6-8% more.

    Chunks run on one thread per CPU in the process's affinity (``taskset``
    limits it); each writes only its own slice with batch-invariant kernels,
    so the output is the same for any worker count.  A chunk's exception is
    raised here.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    # imported here: only the sweep needs it, and it adds to every start-up
    from concurrent.futures import ThreadPoolExecutor

    obj = _Objective(psi, delta, outcomes)
    shape = (obj.outcomes, obj.system_dim, obj.system_dim)
    chunk = _sweep_chunk(obj.outcomes, obj.system_dim, len(obj.m))
    dist, rate = np.empty(n_samples), np.empty(n_samples)

    def run_chunk(start: int) -> None:
        stop = min(start + chunk, n_samples)
        # the draw is handed over unnamed, so the map frees it once its Gram product exists
        effects = povm_effects_from_ginibre(_ginibre_draws(seed, start, stop, shape))
        rate[start:stop], dist[start:stop] = obj.evaluate(effects)

    starts = range(0, n_samples, chunk)
    with ThreadPoolExecutor(min(_sweep_workers(), len(starts))) as pool:
        # re-raises the first failed chunk's exception and cancels the chunks not yet started
        list(pool.map(run_chunk, starts))
    return dist, rate


def _sweep_chunk(outcomes: int, system_dim: int, block_dim: int) -> int:
    """Samples in one chunk of :func:`sample_sweep`: 2^15 matrix entries of a
    sample's larger stack, its k d_A x d_A effects or k d_RB x d_RB blocks."""
    return max(2048, 2**15 // (outcomes * max(system_dim, block_dim) ** 2))


def _sweep_workers() -> int:
    """Threads of one sweep: the CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


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
# Lagrangian solver: quantum Blahut-Arimoto per multiplier


def _exp_hessian(w: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Hessian of Y -> sum_x Tr exp(K_x + Y) from the eigendecompositions
    (w, u) of K_x + Y, as an (r^2, r^2) matrix on row-major vec(Y).

    The Frechet derivative of exp at U diag(w) U^dag maps H to
    U (Gamma o U^dag H U) U^dag with the Daleckii-Krein divided differences
    Gamma_ij = (e^w_i - e^w_j) / (w_i - w_j), written so that it never
    exponentiates more than the larger eigenvalue.
    """
    k, r = w.shape
    gap = np.abs(w[:, :, None] - w[:, None, :])
    ratio = np.where(gap > 0.0, -np.expm1(-gap) / np.where(gap > 0.0, gap, 1.0), 1.0)
    gamma = np.exp(np.maximum(w[:, :, None], w[:, None, :])) * ratio
    kron = np.einsum("xai,xbj->xabij", u, u.conj()).reshape(k, r * r, r * r)
    return ((kron * gamma.reshape(k, 1, r * r)) @ kron.conj().swapaxes(1, 2)).sum(axis=0)


def _log_fixed_point(k_mats: np.ndarray, s2: np.ndarray, y: np.ndarray,
                     steps: int = _FIXED_POINT_STEPS) -> np.ndarray:
    """Y <- Y + log S^2 - log sum_x exp(K_x + Y), shifted by the top exponent so no exp overflows, for
    ``steps`` steps or until Y moves by < ``_FIXED_POINT_TOL``; exact in one step when the K_x and S^2 commute."""
    log_s2 = np.diag(np.log(s2))
    for _ in range(steps):
        w, u = np.linalg.eigh(k_mats + y)
        top = w.max()
        tw, tu = np.linalg.eigh(_spectral(u, np.exp(w - top)).sum(axis=0))
        step = log_s2 - _spectral(tu, np.log(np.maximum(tw, _TINY))) - top * np.eye(y.shape[0])
        y = y + (step + step.conj().T) / 2.0
        if np.abs(step).max() < _FIXED_POINT_TOL:
            break
    return y


def _solve_dual(k_mats: np.ndarray, s2: np.ndarray, y: np.ndarray | None) -> np.ndarray:
    """Hermitian Y with sum_x exp(K_x + Y) = diag(s2): damped Newton on the
    convex phi(Y) = sum_x Tr exp(K_x + Y) - Tr(S^2 Y), warm-started from ``y``.

    A cold start (``y`` None) takes one log-domain fixed-point step from Y = 0, exact when the K_x
    and S^2 commute; a numerically singular Hessian or a Newton step that finds no Armijo decrease
    runs the fixed point until it converges.  Once the Newton decrement is below ``_NEWTON_EXACT``
    the Armijo test is round-off, so the full step is taken.
    """
    r = s2.size

    def phi(trial):
        """phi(trial), with the eigendecomposition of K_x + trial it took."""
        w, u = np.linalg.eigh(k_mats + trial)
        return (np.exp(w).sum() - s2 @ np.diag(trial).real if w.max() <= _EXP_MAX else math.inf), (w, u)

    if y is None:
        y = _log_fixed_point(k_mats, s2, np.zeros((r, r), dtype=complex), 1)
    eye, log_total = np.eye(r), math.log(s2.sum())
    wu = None  # eigendecomposition of K_x + Y when the line search already made it
    for _ in range(_NEWTON_STEPS):
        w, u = wu if wu is not None else np.linalg.eigh(k_mats + y)
        # exact minimization of phi along Y + c 1, which moves no eigenvector
        top = w.max()
        shift = log_total - top - math.log(np.exp(w - top).sum())
        y, w = y + shift * eye, w + shift
        ex = np.exp(w)
        grad = _spectral(u, ex).sum(axis=0) - np.diag(s2)
        try:
            step = np.linalg.solve(_exp_hessian(w, u), -grad.reshape(-1)).reshape(r, r)
        except np.linalg.LinAlgError:
            step = np.full((r, r), math.nan)
        step = (step + step.conj().T) / 2.0
        decrement = -np.vdot(step, grad).real
        if not 0.0 <= decrement < math.inf:  # Hessian singular in double precision
            y, wu = _log_fixed_point(k_mats, s2, y), None
            continue
        if decrement < _NEWTON_EXACT:
            return y + step
        f = ex.sum() - s2 @ np.diag(y).real
        t = 1.0
        while t > _MIN_DAMPING:
            value, wu = phi(y + t * step)
            if value <= f - 1e-4 * t * decrement:
                break
            t *= 0.5
        # an accepted step's decomposition is the next iteration's
        y, wu = (y + t * step, wu) if t > _MIN_DAMPING else (_log_fixed_point(k_mats, s2, y), None)
    return y


class _SlopeSearch:
    """Slopes narrowing a bracket (lo, hi) to where a non-increasing D(slope) meets a target, one
    round per call: regula falsi on D - target, an end kept k >= 2 rounds running weighted 2^(1-k)
    (Illinois; Dowell and Jarratt, BIT 1971), in the inner [0.05, 0.95] of the bracket and as near
    its midpoint as keeps it within 2^(-n/2) of the first after n rounds: at most twice bisection's rounds."""

    cap, ends, kept = 0.0, (math.nan, math.nan), (0, 0)

    def __call__(self, lo: float, f_lo: float, hi: float, f_hi: float) -> float:
        self.cap = (self.cap or hi - lo) / math.sqrt(2.0)  # the widest bracket allowed after this round
        self.kept = tuple(k + 1 if now == before else 0 for k, now, before in zip(self.kept, (lo, hi), self.ends))
        self.ends = lo, hi
        a, b = (f / 2.0 ** max(k - 1, 0) for f, k in zip((f_lo, -f_hi), self.kept))
        share = self.cap / (hi - lo)  # of this bracket, the most either side may keep
        return lo + min(max(a / (a + b), 0.05, 1.0 - share), 0.95, share) * (hi - lo)


def _sandwich_closed(target: float, upper: float, margin: float, *ends: tuple[float, float, float]) -> bool:
    """Whether a rate ``upper`` achievable at ``target`` is within ``margin`` of R = 0 or of a line supporting the
    convex R(D) at a bracket end (slope in bits per unit distortion, rate, distortion): Blahut's sandwich, 1972."""
    return upper - max(0.0, *(rate - slope * (target - dist) for slope, rate, dist in ends)) <= margin


@dataclass
class _MuSolution:
    mu: float
    rate: float
    dist: float
    effects: np.ndarray


class _LagrangianSolver:
    """Lagrangian solver serving one or many target distortions.

    At each multiplier mu, quantum Blahut-Arimoto minimizes L = rate + mu *
    distortion: mirror descent on the blocks s_x = V^dag sigma_x V, with V an
    isometry onto range(M) (M = V S W^dag), under the one constraint
    sum_x s_x = S^2.  One step is s_x <- exp(K_x + Y) with
    K_x = V^dag [log tau_x - mu ln2 Delta_x] V, tau_x = 1_R (x) Tr_R sigma_x
    (p_x 1 in the plain setting), and Y solving the constraint.  L minus
    sum_x Tr s_x log s_x is concave, so L is 1-smooth relative to it and
    every step with eta <= 1 lowers L; a step of 2 eta, tried after one that
    lowered L by 3 tol, is kept only if it does so too, so every accepted step
    lowers L.  With commuting blocks a step of 1 is classical Blahut-Arimoto.

    A target solves only the multipliers its bracket search visits.  The bracket runs
    from the largest infeasible multiplier solved, or else the best trivial POVM, the
    exact mu = 0 solution, to the smallest feasible one; each step bisects the grid
    multipliers inside it, grows it fourfold while nothing is feasible, or narrows it by
    :class:`_SlopeSearch` on (log mu, D) until the best feasible solution or chord mixture,
    which it returns, is within ``RATE_MARGIN`` of the ends' supporting lines at the
    target, or the bracket collapses.  Solutions are cached per multiplier.  Every solve
    starts from the maximally mixed POVM and a cold Y-solve, so it depends on mu alone,
    bit for bit.  A warm start from another multiplier's blocks would carry their
    near-zero parts (an unused outcome, or a direction of Tr_R sigma_x), which mirror
    descent regrows by too little per step for the stopping rule to wait.
    """

    #: bits between the best rate achieved at the target and the bracket ends'
    #: supporting lines there, below which narrowing the bracket stops.
    RATE_MARGIN = 2e-5

    def __init__(self, obj, opts: SolverOptions):
        self.obj = obj
        self.opts = opts
        self.k, self.d = obj.outcomes, obj.system_dim
        v, s, wh = np.linalg.svd(obj.m, full_matrices=False)
        r = int((s > _RANK_CUT * s[0]).sum())
        self.s, self.w = s[:r], wh[:r].conj().T
        self.v3 = v[:, :r].reshape(-1, obj.side_dim, r)
        self.costs = np.einsum("ai,xab,bj->xij", v[:, :r].conj(), obj.blocks, v[:, :r])
        cw = np.linalg.eigvalsh(self.costs)
        self.cost_spread = float(cw.max() - cw.min())
        self.solutions: dict[float, _MuSolution] = {}
        # the best trivial POVM is the exact mu = 0 solution of every Lagrangian
        self.zero_rate = _MuSolution(0.0, 0.0, *obj.zero_rate_point())

    def _effects(self, blocks: np.ndarray) -> np.ndarray:
        """POVM of blocks s_x: conj(W S^-1 s_x S^-1 W^dag + (1 - W W^dag)/k), whose sum is the
        identity up to the Y-solve's residual, completed by :func:`whiten_effects`, the Cholesky
        whitening that also maps the sweep's Ginibre samples."""
        inv = 1.0 / self.s
        core = inv[:, None] * blocks * inv[None, :]
        free = (np.eye(self.d) - self.w @ self.w.conj().T) / self.k
        return whiten_effects((self.w @ core @ self.w.conj().T + free).conj())

    def _mirror_descent(self, mu: float) -> np.ndarray:
        """Mirror descent from the maximally mixed POVM, s_x = S^2 / k, until
        L improves by less than the convergence tolerance or for
        ``max_iterations`` steps; returns the last kept blocks s_x.  Only the
        first Y-solve starts cold; each later one starts from the last Y.

        The base step eta caps the exponent spread that mu ln2 Delta adds per step
        at ``_STEP_SPREAD`` nats, which double precision can still represent.  After
        a step that lowers L by 3 tol, ``_OVER_RELAX`` eta is tried where that cap
        allows; it is kept only if it lowers L by 3 tol too, ends the descent at the
        point it left if it moved L by less than tol, and is redone with eta otherwise.
        """
        tol, scale = self.opts.convergence_tol, mu * math.log(2.0) * self.cost_spread
        eta = _STEP_SPREAD / max(scale, _STEP_SPREAD)
        long = _OVER_RELAX * eta if _OVER_RELAX * scale <= _STEP_SPREAD else eta
        s2 = self.s**2
        cand = np.broadcast_to(np.diag(np.log(s2 / self.k)), (self.k,) + (s2.size,) * 2).astype(complex)
        # Y grows linearly with the step: the constraint's multiplier is t times that of step 1
        t, y, f = eta, None, math.inf
        for n in range(self.opts.max_iterations + 1):
            w, u = np.linalg.eigh(cand)
            blocks = _spectral(u, np.exp(w))
            tw, tu = np.linalg.eigh(np.einsum("rbi,xij,rcj->xbc", self.v3, blocks, self.v3.conj()))
            # L on this step's own eigendecompositions: it only decides steps and stops, no value is reported
            joint = -(np.exp(w) * w).sum() / math.log(2.0)
            rate = self.obj.h_const - joint + entropy_terms(tw).sum()
            f_cand = rate + mu * np.einsum("xij,xji->", self.costs, blocks).real
            gain = f - f_cand
            kept = t == eta or gain >= 3.0 * tol
            if kept:
                exponent, f, side, best = cand, f_cand, (tw, tu), blocks
            if (gain < tol if kept else abs(gain) < tol) or n == self.opts.max_iterations:
                break
            step = long if 3.0 * tol <= gain < math.inf else eta  # the first step is a base step
            log_side = _spectral(side[1], np.log(np.maximum(side[0], _TINY)))
            k_mats = (np.einsum("rbi,xbc,rcj->xij", self.v3.conj(), log_side, self.v3)
                      - mu * math.log(2.0) * self.costs)
            k_mats = exponent + step * (k_mats - exponent)
            y = _solve_dual(k_mats, s2, None if y is None else y * (step / t))
            t, cand = step, k_mats + y
        return best

    def solve_at(self, mu: float) -> _MuSolution:
        effects = self._effects(self._mirror_descent(mu))
        self.solutions[mu] = _MuSolution(mu, *map(float, self.obj.evaluate(effects)), effects)
        return self.solutions[mu]

    def for_target(self, target: float) -> RdPoint | None:
        tol = self.opts.convergence_tol
        if self.zero_rate.dist <= target + tol:
            return self.obj.witness(self.zero_rate.effects)
        mixes: list[_MuSolution] = []  # chord mixtures, which no multiplier solves
        search = _SlopeSearch()  # fed only by the narrowing rounds above mu = 0, which come last
        while True:
            # D(mu) does not increase with mu, so the bracket holds the target
            lo = max((s for s in self.solutions.values() if s.dist > target + tol),
                     key=lambda s: s.mu, default=self.zero_rate)
            hi = min((s for s in self.solutions.values() if s.dist <= target + tol),
                     key=lambda s: s.mu, default=None)
            inside = [m for m in self.opts.lagrange_grid if lo.mu < m and (hi is None or m < hi.mu)]
            if inside:
                # bisect the grid for the pair bracketing the target on the whole grid;
                # the multipliers skipped are infeasible or at no lower rate
                mu = inside[len(inside) // 2 if hi else (len(inside) - 1) // 2]
            elif hi is None:
                if lo.mu >= MU_CAP:
                    return None  # target below everything the descent can reach
                mu = 4.0 * lo.mu
            else:
                # outcome-wise mixture of the bracket witnesses lands on the target, at a rate at most their chord's
                if lo.dist > target > hi.dist:
                    t = (lo.dist - target) / (lo.dist - hi.dist)
                    mixed = t * hi.effects + (1.0 - t) * lo.effects
                    mixes.append(_MuSolution(math.nan, *map(float, self.obj.evaluate(mixed)), mixed))
                # the bracket's feasible end is among the candidates, so one always qualifies
                best = min((s for s in [*self.solutions.values(), *mixes] if s.dist <= target + tol),
                           key=lambda s: (s.rate, s.dist))
                ends = ((s.mu, s.rate, s.dist) for s in (lo, hi))
                if _sandwich_closed(target, best.rate, self.RATE_MARGIN, *ends) or hi.mu < 1.001 * lo.mu:
                    return self.obj.witness(best.effects)
                mu = (math.exp(search(math.log(lo.mu), lo.dist - target, math.log(hi.mu), hi.dist - target))
                      if lo.mu else hi.mu / 4.0)
            self.solve_at(mu)


def minimize_rate(
    psi: Purification,
    delta: DistortionObservable,
    target_d: float,
    outcomes: int,
    opts: SolverOptions | None = None,
) -> RdPoint | None:
    """Best found POVM with distortion <= target_d + tol and minimal I(X;R),
    or I(X;R|B) for a tripartite purification.

    Returns ``None`` when no POVM the Lagrangian search finds meets the target.
    The result is an achievable upper bound on the rate-distortion function,
    witnessed by the returned POVM.  A one-dimensional side factor runs the
    very code of the plain setting, so it returns the plain result bit for bit.
    """
    return minimize_rate_curve(psi, delta, [target_d], outcomes, opts)[0]


def minimize_rate_curve(
    psi: Purification,
    delta: DistortionObservable,
    targets,
    outcomes: int,
    opts: SolverOptions | None = None,
) -> list[RdPoint | None]:
    """Minimal I(X;R), or I(X;R|B) for a tripartite purification, over a
    grid of targets sharing one cache of per-multiplier solutions."""
    opts = opts or SolverOptions()
    for t in targets:
        _check_target(t, delta)
    solver = _LagrangianSolver(_Objective(psi, delta, outcomes), opts)
    return [solver.for_target(float(t)) for t in targets]


def default_grid(psi: Purification, delta: DistortionObservable, outcomes: int) -> np.ndarray:
    """Grid of a curve given none: 26 points from 0 to the zero-rate distortion D0 of the best
    single-outcome measurement, past which R(D) = 0.  Where D0 is 0, as when a block vanishes
    on the source's support, R is 0 at every distortion and the grid is the one point 0."""
    d_zero = _Objective(psi, delta, outcomes).zero_rate_point()[0]
    return np.linspace(0.0, d_zero, 26) if d_zero > 0.0 else np.zeros(1)


def _check_target(target_d: float, delta: DistortionObservable) -> None:
    if not -1e-12 <= float(target_d) <= delta.d_max + 1e-9:
        raise ValueError(f"target distortion {target_d!r} outside [0, d_max={delta.d_max!r}]")


# ---------------------------------------------------------------------------
# classical Blahut-Arimoto oracle


def _ba_fixed_slope(p: np.ndarray, costs: np.ndarray, beta: float) -> tuple[float, float]:
    """Alternating minimization at fixed Lagrange slope, until the output distribution
    moves by less than 1e-13 or for 200,000 iterations; returns (rate, distortion)."""
    shift = costs.min(axis=1, keepdims=True)
    e = np.exp(-beta * (costs - shift))
    q = np.full(costs.shape[1], 1.0 / costs.shape[1])
    for _ in range(200_000):
        w = e * q
        w /= w.sum(axis=1, keepdims=True)
        q_new = p @ w
        delta = float(np.abs(q_new - q).max())
        q = q_new
        if delta < 1e-13:
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

    Narrows the Lagrange slope by :class:`_SlopeSearch` and returns the chord of
    the bracket ends at ``target_d``, which time sharing achieves, once it lies
    within ``tol`` bits of the ends' supporting lines there.  Returns ``None``
    when the target lies more than 1e-9 below the minimal achievable distortion;
    a NaN target, a ``tol`` not finite and >= 0 or a non-finite cost raises ``ValueError``.
    """
    pa = checked_distribution(p)
    c = np.asarray(costs, dtype=float)
    if c.ndim != 2 or c.shape[0] != pa.size or c.shape[1] == 0:
        raise DimensionMismatch(f"cost matrix shape {c.shape} needs {pa.size} rows and at least one column")
    if not np.isfinite(c).all():
        raise ValueError("cost entries must be finite")
    if float(c.min()) < 0.0:
        raise ValueError(f"negative cost entry {c.min()!r}")
    target = float(target_d)
    if math.isnan(target) or not 0.0 <= tol < math.inf:
        raise ValueError(f"target distortion {target!r} is NaN or tol {tol!r} is not finite and >= 0")
    pa = np.clip(pa, 0.0, None)
    pa /= pa.sum()

    d_floor = float((pa * c.min(axis=1)).sum())
    d_zero = float((pa @ c).min())
    if target < d_floor - 1e-9:
        return None
    if target >= d_zero - 1e-12:
        return 0.0

    lo, hi = (0.0, 0.0, d_zero), None  # (beta, rate, distortion) ends; no hi until a slope meets the target
    search = _SlopeSearch()  # fed only by the narrowing rounds, which come last
    while True:
        if hi is None:
            if 4.0 * lo[0] > 1e12:  # exp() already saturates far earlier
                return None if target < lo[2] - 1e-9 else lo[1]
            beta = 4.0 * lo[0] or 1.0
        else:
            (lo_beta, lo_rate, lo_dist), (hi_beta, hi_rate, hi_dist) = lo, hi
            # time sharing of the bracket ends achieves their chord; lo_dist > target >= hi_dist
            chord = lo_rate + (lo_dist - target) / (lo_dist - hi_dist) * (hi_rate - lo_rate)
            ends = ((b / math.log(2.0), r, d) for b, r, d in (lo, hi))
            if _sandwich_closed(target, chord, tol, *ends) or hi_beta - lo_beta <= 1e-12 * max(1.0, hi_beta):
                return chord
            beta = search(lo_beta, lo_dist - target, hi_beta, hi_dist - target)
        rate, dist = _ba_fixed_slope(pa, c, beta)
        if dist > target:
            lo = beta, rate, dist
        else:
            hi = beta, rate, dist


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
    costs = np.einsum("iz,xij,jz->zx", v.conj(), delta.blocks, v).real
    return blahut_arimoto(pa, np.clip(costs, 0.0, None), target_d)
