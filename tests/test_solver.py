import math
import os
import sys
import warnings

import numpy as np
import pytest

import qcrd.solver as solver
from qcrd import (
    DensityOperator,
    DimensionMismatch,
    DistortionObservable,
    InvalidDistribution,
    Povm,
    Purification,
    RdCurve,
    SolverOptions,
    blahut_arimoto,
    classical_cost_observable,
    classical_strategy_rate,
    distortion,
    eig_hermitian,
    eigenbasis_observable,
    example_observable,
    example_source,
    induced_cq_state,
    load_problem,
    lower_envelope,
    minimize_rate,
    minimize_rate_curve,
    mutual_information_cq,
    conditional_mutual_information_cq,
    purify,
    purify_joint,
    sample_random_povm,
    sample_sweep,
    sweep_povm,
    von_neumann_entropy,
)

from qcrd.distortion import expected_cost
from qcrd.information import cq_information
from qcrd.states import conditional_blocks, povm_effects_from_ginibre

HAMMING = np.array([[0.0, 1.0], [1.0, 0.0]])


def binary_entropy(p):
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def random_density(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return DensityOperator(m / m.trace().real)


def ginibre(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def light_opts(seed=0, **kw):
    base = dict(restarts=4, max_iterations=1200, convergence_tol=1e-6,
                lagrange_grid=(0.1, 0.5, 2.0, 8.0, 32.0, 128.0), rng_seed=seed)
    base.update(kw)
    return SolverOptions(**base)


def criterion_4_trial(trial):
    """Source, classical costs and observable of acceptance criterion 4's trial."""
    rng = np.random.default_rng(404)
    for t in range(trial + 1):
        dim = 2 if t % 2 == 0 else 3
        rho = random_density(rng, dim)
        costs = rng.uniform(0.1, 2.0, size=(dim, 2))
        for z in range(dim):
            costs[z, z % 2] = 0.0
    eig = eig_hermitian(rho.mat)
    p = np.clip(eig.eigenvalues, 0.0, None)
    return rho, p / p.sum(), costs, classical_cost_observable(costs, eig.eigenvectors)


def binary_rate_distortion(p, costs, target):
    """R(D) in bits of a binary source with costs [[0, a], [b, 0]]: the
    Blahut-Arimoto fixed point at slope beta in closed form, bisected in beta."""
    a, b = costs[0, 1], costs[1, 0]

    def point(beta):
        ea, eb = math.exp(-beta * a), math.exp(-beta * b)
        # Z_z = sum_x q_x exp(-beta c(z, x)), from sum_z p_z exp(-beta c(z, x)) / Z_z = 1
        z0, z1 = p[0] * (1.0 - ea * eb) / (1.0 - eb), p[1] * (1.0 - ea * eb) / (1.0 - ea)
        q0, q1 = np.linalg.solve([[1.0, ea], [eb, 1.0]], [z0, z1])
        dist = p[0] * q1 * ea * a / z0 + p[1] * q0 * eb * b / z1
        return dist, (-beta * dist - p[0] * math.log(z0) - p[1] * math.log(z1)) / math.log(2.0)

    lo, hi = 0.0, 1.0
    while point(hi)[0] > target:
        lo, hi = hi, 2.0 * hi
    for _ in range(100):
        mid = (lo + hi) / 2.0
        lo, hi = (mid, hi) if point(mid)[0] > target else (lo, mid)
    return point(hi)[1]


class TestBlahutArimoto:
    def test_lossless_limit_is_source_entropy(self):
        p = np.array([0.3, 0.7])
        assert abs(blahut_arimoto(p, HAMMING, 0.0) - binary_entropy(0.3)) < 1e-9

    def test_binary_symmetric_closed_form(self):
        got = blahut_arimoto(np.array([0.5, 0.5]), HAMMING, 0.11)
        assert abs(got - (1.0 - binary_entropy(0.11))) < 1e-6

    def test_brute_force_channel_grid(self):
        # oracle: exhaustive scan over binary test channels q(y|x) = [[a,1-a],[b,1-b]]
        p = np.array([0.5, 0.5])
        target = 0.11

        def mi_of(q0, q1):
            marg = p[0] * q0 + p[1] * q1
            return p[0] * (q0 * (np.log2(q0) - np.log2(marg))).sum(-1) + p[1] * (
                q1 * (np.log2(q1) - np.log2(marg))
            ).sum(-1)

        # coarse interior scan: every feasible channel upper-bounds R(D)
        a = np.linspace(1e-9, 1 - 1e-9, 801)
        aa, bb = np.meshgrid(a, a, indexing="ij")
        q0 = np.stack([aa, 1 - aa], axis=-1)
        q1 = np.stack([bb, 1 - bb], axis=-1)
        dist = p[0] * (q0 * HAMMING[0]).sum(-1) + p[1] * (q1 * HAMMING[1]).sum(-1)
        brute_interior = float(mi_of(q0, q1)[dist <= target].min())

        # dense scan along the active boundary dist == target, where the
        # optimum of the strictly decreasing R(D) lives: b = a - (1 - 2 target)
        aa = np.linspace(1 - 2 * target + 1e-9, 1 - 1e-9, 200_001)
        bb = aa - (1 - 2 * target)
        q0 = np.stack([aa, 1 - aa], axis=-1)
        q1 = np.stack([bb, 1 - bb], axis=-1)
        brute_boundary = float(mi_of(q0, q1).min())

        ba = blahut_arimoto(p, HAMMING, target, tol=1e-12)
        assert ba <= brute_interior + 1e-9  # BA is the true optimum
        assert ba <= brute_boundary + 1e-9
        assert brute_boundary - ba < 1e-6  # the boundary scan pins it down

    def test_rate_tolerance_on_a_steep_slope(self):
        # the ninth criterion-4-style draw from default_rng(404) (d = 2, costs uniform on
        # [0, 2)) at 8/11 of the way from d_floor to d_zero, where R(D) falls by about 101 bits
        # per unit distortion: a distortion tolerance of 1e-9 missed R by 8.4e-8 bits there
        p = [0.9635460481802233, 0.03645395181977676]
        costs = [[1.6458775986655292, 0.19535638070449446], [0.6452928745093083, 0.6968918441279104]]
        # Blahut's lower bound at the optimal slope and the time-shared chord agree on it within 3e-15
        reference = 0.0495919180930756
        assert abs(blahut_arimoto(p, costs, 0.21312633404610654) - reference) <= 1e-9

    def test_zero_rate_region(self):
        p = np.array([0.8, 0.2])
        d_zero = min(0.2, 0.8)  # best constant answer under Hamming cost
        assert blahut_arimoto(p, HAMMING, d_zero) == 0.0
        assert blahut_arimoto(p, HAMMING, 0.9) == 0.0

    def test_infeasible_below_floor(self):
        assert blahut_arimoto(np.array([0.5, 0.5]), HAMMING, -0.01) is None
        costs = np.array([[0.5, 1.0], [1.0, 0.5]])  # floor is 0.5
        assert blahut_arimoto(np.array([0.5, 0.5]), costs, 0.3) is None

    def test_monotone_in_target(self):
        p = np.array([0.6, 0.4])
        rates = [blahut_arimoto(p, HAMMING, d) for d in np.linspace(0.0, 0.4, 9)]
        assert all(r1 >= r2 - 1e-9 for r1, r2 in zip(rates, rates[1:]))

    def test_rejects_bad_distribution(self):
        with pytest.raises(InvalidDistribution):
            blahut_arimoto(np.array([0.5, 0.6]), HAMMING, 0.1)

    def test_rejects_negative_costs(self):
        with pytest.raises(ValueError):
            blahut_arimoto(np.array([0.5, 0.5]), -HAMMING, 0.1)

    def test_rejects_nan_target(self):
        with pytest.raises(ValueError):
            blahut_arimoto(np.array([0.5, 0.5]), HAMMING, math.nan)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_costs(self, bad):
        costs = HAMMING.copy()
        costs[0, 1] = bad
        with pytest.raises(ValueError):
            blahut_arimoto(np.array([0.5, 0.5]), costs, 0.1)

    @pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf])
    def test_rejects_negative_or_non_finite_tol(self, tol):
        # a negative or NaN tol is never met, so the slope bracket would run down to 1e-12
        with pytest.raises(ValueError, match="tol"):
            blahut_arimoto(np.array([0.5, 0.5]), HAMMING, 0.11, tol=tol)

    def test_cost_matrix_without_columns_is_a_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            blahut_arimoto(np.array([0.5, 0.5]), np.zeros((2, 0)), 0.1)


class TestClassicalStrategy:
    def test_example_is_infeasible_below_quarter(self):
        assert classical_strategy_rate(example_source(), example_observable(), 0.2) is None

    def test_nan_target_rejected(self):
        with pytest.raises(ValueError):
            classical_strategy_rate(example_source(), example_observable(), math.nan)

    def test_example_reaches_zero_rate_at_quarter(self):
        got = classical_strategy_rate(example_source(), example_observable(), 0.25)
        assert got == 0.0

    def test_eigenbasis_observable_lossless_limit(self):
        rho = example_source()
        got = classical_strategy_rate(rho, eigenbasis_observable(rho), 0.0)
        assert abs(got - von_neumann_entropy(rho)) < 1e-9

    def test_matches_descent_on_diagonal_observable(self):
        rng = np.random.default_rng(5)
        rho = random_density(rng, 2)
        eig = eig_hermitian(rho.mat)
        costs = np.array([[0.0, 1.3], [0.9, 0.0]])
        obs = classical_cost_observable(costs, eig.eigenvectors)
        p = np.clip(eig.eigenvalues, 0, None)
        p /= p.sum()
        d_zero = float((p @ costs).min())
        target = 0.5 * d_zero
        classical = classical_strategy_rate(rho, obs, target)
        quantum = minimize_rate(purify(rho), obs, target, 2, light_opts(seed=7))
        assert classical is not None and quantum is not None
        assert abs(classical - quantum.rate) < 1e-3


class TestMinimizeRate:
    def test_anchor_point_zero_rate(self):
        point = minimize_rate(purify(example_source()), example_observable(), 0.25, 2, light_opts())
        assert point is not None
        assert abs(point.rate) < 1e-12
        assert abs(point.distortion - 0.25) < 1e-12
        assert point.povm is not None

    def test_witness_reproduces_reported_values(self):
        psi = purify(example_source())
        obs = example_observable()
        for target in (0.10, 0.18):
            point = minimize_rate(psi, obs, target, 2, light_opts(seed=2))
            d_check = distortion(psi, point.povm, obs)
            r_check = mutual_information_cq(induced_cq_state(psi, point.povm))
            assert abs(d_check - point.distortion) < 1e-10
            assert abs(r_check - point.rate) < 1e-10
            assert point.distortion <= target + 1e-6
        # d=3 pure source: every block is rank 1, where a trigonometric
        # closed form for 3x3 eigenvalues is off by ~1e-7 bits; the reported
        # zero rate must be the public function's value, bit for bit
        rng = np.random.default_rng(404)
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        rho = DensityOperator(np.outer(v, v.conj()) / np.vdot(v, v).real)
        obs = classical_cost_observable(np.array([[0.3, 1.0], [1.0, 0.0], [0.0, 0.6]]),
                                        eig_hermitian(rho.mat).eigenvectors)
        psi = purify(rho)
        point = minimize_rate(psi, obs, 0.3, 2, light_opts(seed=2))
        assert abs(point.rate) < 1e-10
        assert point.rate == mutual_information_cq(induced_cq_state(psi, point.povm))
        assert point.distortion == distortion(psi, point.povm, obs)

    def test_eigenbasis_lossless_limit(self):
        rho = example_source()
        point = minimize_rate(
            purify(rho), eigenbasis_observable(rho), 0.0, 2,
            light_opts(seed=5, convergence_tol=1e-5, max_iterations=2500),
        )
        assert point is not None
        assert point.distortion <= 1e-5
        assert abs(point.rate - von_neumann_entropy(rho)) < 1e-3

    def test_truly_infeasible_target(self):
        # both blocks the identity: distortion is exactly 1 for every POVM
        obs = DistortionObservable((np.eye(2), np.eye(2)))
        point = minimize_rate(purify(example_source()), obs, 0.5, 2, light_opts())
        assert point is None

    def test_target_validation(self):
        with pytest.raises(ValueError):
            minimize_rate(purify(example_source()), example_observable(), 1.5, 2, light_opts())

    @pytest.mark.parametrize("outcomes", [2.0, 2.5, 2.7, np.float64(2.0), "2"])
    def test_non_integral_outcomes_rejected(self, outcomes):
        psi, obs = purify(example_source()), example_observable()
        with pytest.raises(ValueError, match="outcomes must be an integer"):
            minimize_rate_curve(psi, obs, [0.1], outcomes, light_opts())
        with pytest.raises(ValueError, match="outcomes must be an integer"):
            sample_sweep(psi, obs, outcomes, 5, seed=0)

    def test_boolean_outcomes_rejected(self):
        # True would pass as one outcome
        psi, obs = purify(example_source()), DistortionObservable((np.eye(2),))
        with pytest.raises(ValueError, match="outcomes must be an integer"):
            minimize_rate_curve(psi, obs, [0.5], True, light_opts())
        with pytest.raises(ValueError, match="outcomes must be an integer"):
            sample_sweep(psi, obs, True, 5, seed=0)

    def test_numpy_integer_outcomes_accepted(self):
        psi, obs = purify(example_source()), example_observable()
        point = minimize_rate_curve(psi, obs, [0.1], np.int64(2), light_opts())[0]
        assert point.rate == minimize_rate_curve(psi, obs, [0.1], 2, light_opts())[0].rate
        swept = sample_sweep(psi, obs, np.int64(2), 5, seed=0)
        assert np.array_equal(swept[1], sample_sweep(psi, obs, 2, 5, seed=0)[1])

    def test_outcome_count_must_match_observable(self):
        from qcrd import DimensionMismatch

        with pytest.raises(DimensionMismatch):
            minimize_rate(purify(example_source()), example_observable(), 0.1, 3, light_opts())
        with pytest.raises(DimensionMismatch):
            sample_sweep(purify(example_source()), example_observable(), 3, 10, seed=0)

    def test_lagrange_sweep_distortion_ordering(self):
        # the bracket search bisects the grid, which needs D(mu) non-increasing
        # there: on the paper example and on criterion 4's first d = 2 and
        # d = 3 instances under its options
        cases = [(purify(example_source()), example_observable(), light_opts(seed=3))]
        for trial in (0, 1):
            rho, _, _, obs = criterion_4_trial(trial)
            cases.append((purify(rho), obs, light_opts(seed=1000 + trial)))
        for psi, obs, opts in cases:
            qba = solver._LagrangianSolver(solver._Objective(psi, obs, 2), opts)
            dists = [qba.solve_at(mu).dist for mu in opts.lagrange_grid]
            assert all(d1 >= d2 - 1e-8 for d1, d2 in zip(dists, dists[1:]))

    def test_curve_matches_single_target_calls(self):
        psi = purify(example_source())
        obs = example_observable()
        targets = [0.08, 0.16]
        curve_points = minimize_rate_curve(psi, obs, targets, 2, light_opts(seed=9))
        for target, pt in zip(targets, curve_points):
            single = minimize_rate(psi, obs, target, 2, light_opts(seed=9))
            assert abs(single.rate - pt.rate) < 1e-6

    def test_descent_curve_monotone_and_convex(self):
        psi = purify(example_source())
        obs = example_observable()
        grid = np.linspace(0.025, 0.25, 10)
        points = minimize_rate_curve(psi, obs, grid, 2, light_opts(seed=12))
        rates = np.array([p.rate for p in points])
        assert np.all(np.diff(rates) <= 1e-6)
        mids = rates[1:-1] - (rates[:-2] + rates[2:]) / 2
        assert mids.max() <= 1e-4

    @pytest.mark.parametrize("case", ["paper-example", "side-info", "d4-k4"])
    def test_witnesses_sum_to_identity(self, case):
        # the Cholesky whitening completes every descent witness, not only the sweep's samples
        if case == "paper-example":
            psi, obs, k = purify(example_source()), example_observable(), 2
            targets, opts = 0.02 * np.arange(1, 13), None
        elif case == "side-info":
            problem = load_problem(os.path.join(os.path.dirname(__file__), "..", "examples", "side-info.json"))
            (psi, obs, k), opts = problem.build(), problem.solver
            targets = np.array([0.02, 0.05, 0.1, 0.15, 0.2, 0.25])  # the zero-rate distortion is 0.3
        else:
            rng = np.random.default_rng(5)
            rho = random_density(rng, 4)
            blocks = [g @ g.conj().T for g in ginibre(rng, (4, 4, 4))]
            psi, obs, k = purify(rho), DistortionObservable(tuple(b / np.linalg.norm(b, 2) for b in blocks)), 4
            d_zero = min(distortion(psi, Povm(tuple(np.eye(4) * (x == y) for y in range(k))), obs)
                         for x in range(k))
            targets, opts = d_zero * np.array([0.6, 0.8, 0.95]), None
        points = minimize_rate_curve(psi, obs, targets, k, opts)
        assert all(p is not None and p.rate > 0.0 for p in points)
        for point in points:
            assert np.abs(sum(point.povm.effects) - np.eye(psi.system_dims[0])).max() <= 1e-12


class TestOneValuationKernel:
    """The values the Lagrangian sweep compares are, bit for bit, those the
    public functions give the same POVM."""

    @staticmethod
    def _instances():
        yield purify(example_source()), example_observable()
        rng = np.random.default_rng(37)
        yield purify(random_density(rng, 3)), DistortionObservable(
            tuple(random_density(rng, 3).mat * 2.0 for _ in range(2)))
        yield purify_joint(random_density(rng, 4), (2, 2)), DistortionObservable(
            tuple(random_density(rng, 8).mat * 1.5 for _ in range(2)))

    @pytest.mark.parametrize("case", [0, 1, 2])
    def test_solutions_are_public_values(self, case):
        psi, obs = list(self._instances())[case]
        qba = solver._LagrangianSolver(solver._Objective(psi, obs, 2), SolverOptions())
        for mu in qba.opts.lagrange_grid:
            qba.solve_at(mu)
        info = conditional_mutual_information_cq if len(psi.system_dims) == 2 else mutual_information_cq
        for sol in qba.solutions.values():
            povm = Povm(tuple(sol.effects))
            assert sol.rate == info(induced_cq_state(psi, povm))
            assert sol.dist == distortion(psi, povm, obs)

    def test_zero_rate_distortion_is_the_reported_one(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            d = int(rng.integers(2, 5))
            obs = DistortionObservable(tuple(random_density(rng, d).mat for _ in range(3)))
            obj = solver._Objective(purify(random_density(rng, d)), obs, 3)
            d0, effects = obj.zero_rate_point()
            assert d0 == obj.witness(effects).distortion


class TestBracketSearch:
    """A target solves the multipliers its bracket search visits, starting
    with a bisection of the grid, and gets the answer the whole grid gives."""

    def test_multipliers_far_below_the_bracket_are_not_solved(self):
        # criterion 4's trial-0 instance at its target i = 3, bracketed by 8 and 32
        rho, p, costs, obs = criterion_4_trial(0)
        d_floor, d_zero = float((p * costs.min(axis=1)).sum()), float((p @ costs).min())
        target = d_floor + (np.arange(1, 11) / 11.0)[3] * (d_zero - d_floor)
        qba = solver._LagrangianSolver(solver._Objective(purify(rho), obs, 2), light_opts(seed=1000))
        assert qba.for_target(target) is not None
        assert 0.1 not in qba.solutions and 0.5 not in qba.solutions

    @staticmethod
    def _instances():
        """(purification, observable, grid): positive definite cost blocks, so
        a zero target is infeasible, and a grid whose ends leave room both to
        shrink and to grow the bracket."""
        rng = np.random.default_rng(20)
        yield (purify(random_density(rng, 2)),
               DistortionObservable(tuple(random_density(rng, 2).mat * 2.0 for _ in range(2))),
               (2.0, 3.0, 4.0, 6.0, 8.0))
        rng = np.random.default_rng(37)
        yield (purify(random_density(rng, 3)),
               DistortionObservable(tuple(random_density(rng, 3).mat * 2.0 for _ in range(2))),
               (1.0, 2.0, 4.0, 8.0, 16.0, 32.0))
        yield (purify_joint(random_density(rng, 4), (2, 2)),
               DistortionObservable(tuple(random_density(rng, 8).mat * 1.5 for _ in range(2))),
               (2.0, 4.0, 8.0, 16.0, 32.0, 64.0))

    @pytest.mark.parametrize("case", [0, 1, 2])
    def test_same_points_as_after_solving_the_whole_grid(self, case):
        psi, obs, grid = list(self._instances())[case]
        obj, opts = solver._Objective(psi, obs, 2), light_opts(lagrange_grid=grid)
        full, lazy, probe = (solver._LagrangianSolver(obj, opts) for _ in range(3))
        for mu in grid:
            full.solve_at(mu)
        dist = {mu: probe.solve_at(mu).dist for mu in grid + (4.0 * grid[-1],)}
        targets = {
            "mid-range": (dist[grid[2]] + dist[grid[3]]) / 2.0,
            "grow": (dist[grid[-1]] + dist[4.0 * grid[-1]]) / 2.0,
            "shrink": (dist[grid[0]] + obj.zero_rate_point()[0]) / 2.0,
            "infeasible": 0.0,
        }
        for name, target in targets.items():
            a, b = full.for_target(target), lazy.for_target(target)
            if name == "infeasible":
                assert a is None and b is None
                continue
            assert abs(a.rate - b.rate) <= 1e-12 and abs(a.distortion - b.distortion) <= 1e-12
            if name == "mid-range":
                assert set(grid) - set(lazy.solutions)
            if name == "grow":
                assert max(lazy.solutions) > grid[-1]

    def test_trivial_povm_is_the_lower_end_near_zero_rate(self):
        # every grid multiplier is feasible at 0.999 d0, so the bracket's lower
        # end is the trivial POVM at mu = 0 until a smaller multiplier misses
        rho, p, costs, obs = criterion_4_trial(4)
        d0 = float((p @ costs).min())
        # blahut_arimoto takes about 50 s at 0.999 d0, so the closed form stands in
        # there; it is checked against blahut_arimoto where that one is fast
        assert abs(binary_rate_distortion(p, costs, 0.7 * d0) - blahut_arimoto(p, costs, 0.7 * d0)) <= 1e-8
        target = 0.999 * d0
        point = minimize_rate(purify(rho), obs, target, 2, light_opts(lagrange_grid=(2.0, 8.0, 32.0)))
        assert point.distortion <= target + 1e-6
        assert abs(point.rate - binary_rate_distortion(p, costs, target)) <= 2e-5

    def test_paper_example_curve_solves_few_multipliers(self, monkeypatch):
        # each bracket stops once its best rate at the target is within RATE_MARGIN of its
        # ends' supporting lines: 29 multipliers here, where a bound on the chord's sag took 37
        calls, descend = [], solver._LagrangianSolver._mirror_descent
        monkeypatch.setattr(solver._LagrangianSolver, "_mirror_descent",
                            lambda *args: calls.append(1) or descend(*args))
        points = minimize_rate_curve(purify(example_source()), example_observable(),
                                     0.02 * np.arange(1, 13), 2)
        assert all(p is not None for p in points)
        assert len(calls) <= 32

    @pytest.mark.parametrize("grid", [(1e-6,), (5.0,), (1e6,)])
    def test_one_multiplier_grid_reaches_every_target(self, grid):
        psi, obs = purify(example_source()), example_observable()
        for target in (0.01, 0.05, 0.1, 0.15, 0.2, 0.24, 0.2499):
            point = minimize_rate(psi, obs, target, 2, light_opts(lagrange_grid=grid))
            assert point is not None and distortion(psi, point.povm, obs) <= target + 1e-6


class TestSlopeSearch:
    """The safeguarded regula falsi that narrows both solvers' slope brackets."""

    @staticmethod
    def _assert_halving(widths):
        """The bracket after n rounds is at most 2^(-n/2) of the first one."""
        for n, width in enumerate(widths):
            assert width <= widths[0] * 2.0 ** (-n / 2.0) * (1.0 + 1e-9)

    @pytest.fixture
    def brackets(self, monkeypatch):
        """Widths of the brackets that each slope search is given, in order."""
        runs = {}
        call = solver._SlopeSearch.__call__

        def recorded(search, lo, f_lo, hi, f_hi):
            runs.setdefault(search, []).append(hi - lo)
            return call(search, lo, f_lo, hi, f_hi)

        monkeypatch.setattr(solver._SlopeSearch, "__call__", recorded)
        return runs

    @pytest.mark.parametrize("curve, root", [
        (lambda x: math.exp(-5.0 * x), 0.3),
        (lambda x: 1.0 if x < 0.3 else 0.0, 0.3),
        (lambda x: 1.0 - x**20, 0.95),
        (lambda x: max(0.0, 1.0 - x) ** 8, 0.05),
    ], ids=["smooth", "jump", "flat-then-steep", "steep-then-flat"])
    def test_bracket_halves_every_two_rounds(self, curve, root):
        target = 0.5 * (curve(root - 1e-3) + curve(root + 1e-3))
        search, lo, hi, widths = solver._SlopeSearch(), 0.0, 1.0, []
        while hi - lo > 1e-9:
            widths.append(hi - lo)
            x = search(lo, curve(lo) - target, hi, curve(hi) - target)
            assert lo < x < hi
            lo, hi = (x, hi) if curve(x) > target else (lo, x)
        self._assert_halving(widths)
        # bisection takes 30 rounds from 1 to 1e-9
        assert len(widths) <= 60 and abs(hi - root) <= 1e-3

    def test_bracket_halves_every_two_rounds_in_both_solvers(self, brackets):
        rho, p, costs, obs = criterion_4_trial(0)
        d_floor, d_zero = float((p * costs.min(axis=1)).sum()), float((p @ costs).min())
        targets = [d_floor + f * (d_zero - d_floor) for f in (0.1, 0.5, 0.9)]
        minimize_rate_curve(purify(rho), obs, targets, 2, light_opts())
        for target in targets:
            blahut_arimoto(p, costs, target)
        assert len(brackets) >= 4
        for widths in brackets.values():
            self._assert_halving(widths)

    @pytest.mark.parametrize("target, bisection", [(0.1, 13), (0.5, 14), (0.9, 13)])
    def test_jump_of_the_distortion_on_binary_erasure(self, target, bisection):
        # a uniform bit with erasures at cost 1 and errors at cost 100 has
        # R(D) = 1 - D, so D(mu) jumps from 1 to 0 at mu = 1: regula falsi has
        # no slope to follow there, yet solves no more multipliers than bisection
        obs = classical_cost_observable(np.array([[0.0, 100.0, 1.0], [100.0, 0.0, 1.0]]), np.eye(2))
        obj = solver._Objective(purify(DensityOperator(np.eye(2) / 2.0)), obs, 3)
        qba = solver._LagrangianSolver(obj, SolverOptions(max_iterations=1200, convergence_tol=1e-6))
        point = qba.for_target(target)
        assert point.distortion <= target + 1e-6 and abs(point.rate - (1.0 - target)) <= 1e-6
        assert len(qba.solutions) <= bisection

    def test_fewer_rounds_than_bisection_on_the_oracle_benchmark(self, monkeypatch):
        # the oracle benchmark's first instance, criterion 4's trial 0 at grid
        # indices 3 and 6: bisection solved 13 multipliers, and 29 and 30 fixed slopes
        rho, p, costs, obs = criterion_4_trial(0)
        d_floor, d_zero = float((p * costs.min(axis=1)).sum()), float((p @ costs).min())
        targets = [d_floor + (i / 11.0) * (d_zero - d_floor) for i in (3, 6)]
        qba = solver._LagrangianSolver(solver._Objective(purify(rho), obs, 2), light_opts(max_iterations=300))
        assert all(qba.for_target(target) is not None for target in targets)
        assert len(qba.solutions) <= 11
        slopes, fixed_slope = [], solver._ba_fixed_slope
        monkeypatch.setattr(solver, "_ba_fixed_slope", lambda *args: slopes.append(args[2]) or fixed_slope(*args))
        for target in targets:
            slopes.clear()
            assert blahut_arimoto(p, costs, target) is not None
            assert len(slopes) <= 16


class TestQuantumBlahutArimoto:
    """The per-multiplier solve: mirror descent on the blocks in range(M)."""

    def test_skewed_source_reaches_blahut_arimoto(self):
        # trial 12 has source spectrum 0.996/0.004
        rho, p, costs, obs = criterion_4_trial(12)
        assert p.min() < 0.005
        mu = 4.555
        opts = SolverOptions(convergence_tol=1e-12, max_iterations=20_000)
        sol = solver._LagrangianSolver(solver._Objective(purify(rho), obs, 2), opts).solve_at(mu)
        rate, dist = solver._ba_fixed_slope(p, costs, mu * math.log(2.0))
        assert abs((sol.rate + mu * sol.dist) - (rate + mu * dist)) < 1e-9

    @pytest.mark.parametrize("side", [False, True])
    def test_lagrangian_never_increases(self, side):
        rng = np.random.default_rng(37)
        if side:
            psi = purify_joint(random_density(rng, 4), (2, 2))
            obs = DistortionObservable(tuple(random_density(rng, 8).mat * 1.5 for _ in range(2)))
        else:
            rho = random_density(rng, 3)
            psi = purify(rho)
            obs = DistortionObservable(tuple(random_density(rng, 3).mat * 2.0 for _ in range(2)))
        obj = solver._Objective(psi, obs, 2)
        for mu in (0.5, 5.0, 5e4):  # the last takes steps eta < 1
            values = []
            for n in range(1, 25):
                qba = solver._LagrangianSolver(obj, SolverOptions(max_iterations=n, convergence_tol=1e-15))
                sol = qba.solve_at(mu)
                values.append(sol.rate + mu * sol.dist)
            assert np.all(np.diff(values) <= 1e-12 * max(1.0, mu))

    @pytest.mark.parametrize("r", [2, 4, 8])
    def test_hessian_is_the_derivative_of_the_gradient(self, r):
        # the gradient of Y -> sum_x Tr exp(K_x + Y) is sum_x exp(K_x + Y); its
        # central difference along a Hermitian H is the Hessian applied to vec(H)
        rng = np.random.default_rng(31 + r)
        g, h = rng.standard_normal((2, 4, r, r)) + 1j * rng.standard_normal((2, 4, r, r))
        k_mats, h = g[:3] + g[:3].conj().swapaxes(-1, -2), h[0] + h[0].conj().T

        def grad(y):
            w, u = np.linalg.eigh(k_mats + y)
            return solver._spectral(u, np.exp(w)).sum(axis=0)

        w, u = np.linalg.eigh(k_mats)
        applied = (solver._exp_hessian(w, u) @ h.reshape(-1)).reshape(r, r)
        eps = 1e-5
        central = (grad(eps * h) - grad(-eps * h)) / (2.0 * eps)
        assert np.abs(applied - central).max() <= 1e-6 * np.abs(central).max()

    def test_dual_solve_meets_the_constraint(self):
        # cold, zero and warm starts; Newton reuses the eigendecomposition of
        # each step its line search accepts
        rng = np.random.default_rng(23)
        for _ in range(30):
            k, r = int(rng.integers(2, 4)), int(rng.integers(2, 5))
            g = rng.standard_normal((k, r, r)) + 1j * rng.standard_normal((k, r, r))
            k_mats = (g + g.conj().swapaxes(-1, -2)) * rng.uniform(0.5, 5.0)
            s2 = rng.uniform(0.05, 1.0, r)
            s2 /= s2.sum()
            y0 = solver._solve_dual(k_mats, s2, None)
            h = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
            for start in (None, np.zeros((r, r), dtype=complex), y0 + 0.3 * (h + h.conj().T)):
                w, u = np.linalg.eigh(k_mats + solver._solve_dual(k_mats, s2, start))
                total = solver._spectral(u, np.exp(w)).sum(axis=0)
                assert np.abs(total - np.diag(s2)).max() <= 1e-10

    def test_one_fixed_point_step_is_exact_on_commuting_blocks(self):
        # the cold start of every Y-solve: with the K_x and S^2 diagonal, one step
        # from Y = 0 sets Y = log S^2 - log sum_x exp(K_x), which meets the constraint
        rng = np.random.default_rng(31)
        for _ in range(50):
            k, r = int(rng.integers(2, 5)), int(rng.integers(2, 6))
            k_mats = np.stack([np.diag(rng.uniform(-30.0, 5.0, r)) for _ in range(k)]).astype(complex)
            s2 = rng.uniform(0.05, 1.0, r)
            s2 /= s2.sum()
            y = solver._log_fixed_point(k_mats, s2, np.zeros((r, r), dtype=complex), 1)
            w, u = np.linalg.eigh(k_mats + y)
            total = solver._spectral(u, np.exp(w)).sum(axis=0)
            assert np.abs(total - np.diag(s2)).max() <= 1e-12

    def test_dual_solve_from_a_start_scaled_by_the_step_ratio(self):
        # a mirror-descent step t from a point X solves K = X + t (G - X); when
        # the next step doubles or halves t, Y starts from the last one scaled alike
        rng = np.random.default_rng(29)
        for _ in range(20):
            k, r = int(rng.integers(2, 4)), int(rng.integers(2, 5))
            g, a = rng.standard_normal((2, k, r, r)) + 1j * rng.standard_normal((2, k, r, r))
            g, a = (g + g.conj().swapaxes(-1, -2)) * rng.uniform(0.5, 5.0), a + a.conj().swapaxes(-1, -2)
            s2 = rng.uniform(0.05, 1.0, r)
            s2 /= s2.sum()
            x = a + solver._solve_dual(a, s2, None)
            t = rng.uniform(0.1, 1.0)
            y = solver._solve_dual(x + t * (g - x), s2, None)
            for ratio in (2.0, 0.5):
                k_mats = x + ratio * t * (g - x)
                w, u = np.linalg.eigh(k_mats + solver._solve_dual(k_mats, s2, ratio * y))
                total = solver._spectral(u, np.exp(w)).sum(axis=0)
                assert np.abs(total - np.diag(s2)).max() <= 1e-10

    def test_over_relaxed_steps_on_the_four_level_scaling_instance(self, monkeypatch):
        # d = k = 4 from rng 5: random source, four Ginibre cost blocks of spectral
        # norm 1, target 0.8 of the zero-rate distortion; steps of 1 only took 199 Y-solves
        from qcrd.checks import random_density as regularized_density

        rng = np.random.default_rng(5)
        rho = regularized_density(rng, 4)
        blocks = []
        for _ in range(4):
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            b = g @ g.conj().T
            blocks.append(b / np.linalg.norm(b, 2))
        obs = DistortionObservable(tuple(blocks))
        target = 0.8 * solver._Objective(purify(rho), obs, 4).zero_rate_point()[0]
        calls, solve = [], solver._solve_dual
        monkeypatch.setattr(solver, "_solve_dual", lambda *args: calls.append(1) or solve(*args))
        point = minimize_rate(purify(rho), obs, target, 4)
        assert len(calls) <= 140
        assert point.distortion <= target + 1e-7
        assert point.rate <= 0.14294051557030496 + 1e-7

    def test_solution_does_not_depend_on_solve_order(self):
        # every multiplier starts from the maximally mixed POVM; only the
        # Y-solve is warm-started, and its solution is unique
        rng = np.random.default_rng(17)
        psi = purify_joint(random_density(rng, 4), (2, 2))
        obs = DistortionObservable(tuple(random_density(rng, 8).mat * 1.5 for _ in range(2)))
        obj = solver._Objective(psi, obs, 2)
        grid = (0.3, 1.0, 3.0, 10.0, 30.0)
        up, down = (solver._LagrangianSolver(obj, light_opts(lagrange_grid=grid)) for _ in range(2))
        for mu in grid:
            up.solve_at(mu)
        for mu in reversed(grid):
            down.solve_at(mu)
        for mu in grid:
            a, b = up.solutions[mu], down.solutions[mu]
            assert abs(a.rate - b.rate) < 1e-9 and abs(a.dist - b.dist) < 1e-9

    @pytest.mark.parametrize("case", ["side-information", "qutrit"])
    def test_solution_does_not_depend_on_solve_order_bit_for_bit(self, case):
        # each multiplier's solve, its first Y-solve included, starts cold
        rng = np.random.default_rng(17)
        if case == "side-information":
            psi = purify_joint(random_density(rng, 4), (2, 2))
            obs = DistortionObservable(tuple(random_density(rng, 8).mat * 1.5 for _ in range(2)))
        else:
            psi = purify(random_density(rng, 3))
            obs = DistortionObservable(tuple(random_density(rng, 3).mat * 2.0 for _ in range(2)))
        obj = solver._Objective(psi, obs, 2)
        grid = (0.3, 1.0, 3.0, 10.0, 30.0)
        up, down = (solver._LagrangianSolver(obj, light_opts(lagrange_grid=grid)) for _ in range(2))
        for mu in grid:
            up.solve_at(mu)
        for mu in reversed(grid):
            down.solve_at(mu)
        for mu in grid:
            a, b = up.solutions[mu], down.solutions[mu]
            assert np.array_equal(a.effects, b.effects)
            assert a.rate == b.rate and a.dist == b.dist

    @staticmethod
    def _infeasible_instances():
        """(purification, observable, target below the smallest distortion)."""
        # positive definite cost blocks: every POVM has distortion at least
        # their smallest eigenvalue
        rng = np.random.default_rng(17)
        psi = purify_joint(random_density(rng, 4), (2, 2))
        yield psi, DistortionObservable(tuple(random_density(rng, 8).mat * 1.5 for _ in range(2))), 0.0
        # a qubit whose outcome 1 costs more on every letter, at a target below
        # the cost floor 0.648: that block underflows as mu grows
        rho = DensityOperator(np.diag([0.79, 0.21]).astype(complex))
        costs = np.array([[0.465, 0.729], [1.334, 1.401]])
        obs = classical_cost_observable(costs, eig_hermitian(rho.mat).eigenvectors)
        yield purify_joint(rho, (2, 1)), obs, 0.436

    @pytest.mark.parametrize("case", [0, 1])
    def test_side_information_target_below_floor_is_infeasible(self, case):
        # the bracket grows to MU_CAP, where mu ln2 Delta spans exponents far
        # beyond double precision unless each step's spread is capped
        psi, obs, target = list(self._infeasible_instances())[case]
        qba = solver._LagrangianSolver(solver._Objective(psi, obs, 2), light_opts())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert qba.for_target(target) is None
        assert max(qba.solutions) >= solver.MU_CAP

    def test_rank_deficient_source(self):
        # rank 2 on a qutrit: the solver works on the 2-dimensional range of M
        rng = np.random.default_rng(41)
        basis = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
        rho = DensityOperator((basis * np.array([0.7, 0.3, 0.0])) @ basis.conj().T)
        eig = eig_hermitian(rho.mat)
        p = np.clip(eig.eigenvalues, 0.0, None)
        p /= p.sum()
        costs = np.array([[0.0, 1.0], [1.2, 0.0], [0.0, 0.5]])
        obs = classical_cost_observable(costs, eig.eigenvectors)
        psi = purify(rho)
        assert solver._LagrangianSolver(solver._Objective(psi, obs, 2), light_opts()).s.size == 2
        target = 0.5 * float((p @ costs).min())
        point = minimize_rate(psi, obs, target, 2, light_opts())
        assert isinstance(point.povm, Povm)
        assert point.distortion <= target + 1e-6
        assert point.rate == mutual_information_cq(induced_cq_state(psi, point.povm))
        assert abs(point.rate - blahut_arimoto(p, costs, target)) < 1e-6

    def test_restarts_and_seed_have_no_effect(self):
        psi, obs = purify(example_source()), example_observable()
        grid = [0.05, 0.12, 0.2]
        runs = [minimize_rate_curve(psi, obs, grid, 2, light_opts(seed=seed, restarts=restarts))
                for restarts, seed in ((1, 0), (16, 0), (1, 9))]
        for other in runs[1:]:
            for a, b in zip(runs[0], other):
                assert (a.rate, a.distortion) == (b.rate, b.distortion)
                assert np.array_equal(np.stack(a.povm.effects), np.stack(b.povm.effects))

    def test_four_level_eigenbasis_target(self):
        # d = k = 4 with source spectrum down to 0.0038
        from qcrd.checks import random_density as regularized_density

        rho = regularized_density(np.random.default_rng(7), 4)
        point = minimize_rate(purify(rho), eigenbasis_observable(rho), 0.1, 4)
        assert point is not None and point.distortion <= 0.1 + 1e-7
        assert point.rate <= 0.62333 + 1e-5


class TestMinimizeRateQsi:
    def test_trivial_side_factor_identical_to_plain(self):
        rng = np.random.default_rng(11)
        for seed in range(3):
            rho = random_density(rng, 2)
            eig = eig_hermitian(rho.mat)
            costs = np.array([[0.0, 1.0], [1.0, 0.0]])
            obs = classical_cost_observable(costs, eig.eigenvectors)
            target = 0.4 * float((np.clip(eig.eigenvalues, 0, None) @ costs).min())
            opts = light_opts(seed=20 + seed)
            plain = minimize_rate(purify(rho), obs, target, 2, opts)
            lifted = minimize_rate(purify_joint(rho, (2, 1)), obs, target, 2, opts)
            assert (plain is None) == (lifted is None)
            if plain is not None:
                # one code path: the trivial side factor changes no bit
                assert (plain.rate, plain.distortion) == (lifted.rate, lifted.distortion)

    def test_product_side_information_changes_nothing(self):
        rng = np.random.default_rng(13)
        rho = random_density(rng, 2)
        psi = purify(rho)
        phi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        phi /= np.linalg.norm(phi)
        extended = Purification(np.einsum("ra,b->rab", psi.as_matrix(), phi).reshape(-1), 2, (2, 2))
        obs = example_observable()
        from qcrd import tensor

        lifted_obs = DistortionObservable(tuple(tensor(b, np.eye(2)) for b in obs.blocks))
        opts = light_opts(seed=31, convergence_tol=1e-5)
        target = 0.12
        plain = minimize_rate(psi, obs, target, 2, opts)
        qsi = minimize_rate(extended, lifted_obs, target, 2, opts)
        assert plain is not None and qsi is not None
        assert abs(plain.rate - qsi.rate) < 1e-4
        sigma = induced_cq_state(extended, qsi.povm)
        assert abs(conditional_mutual_information_cq(sigma) - qsi.rate) < 1e-10
        assert abs(distortion(extended, qsi.povm, lifted_obs) - qsi.distortion) < 1e-10

    def test_side_information_never_hurts(self):
        rng = np.random.default_rng(17)
        joint = random_density(rng, 4)
        psi = purify_joint(joint, (2, 2))
        blocks = tuple(random_density(rng, 8).mat * 1.5 for _ in range(2))
        obs = DistortionObservable(blocks)
        opts = light_opts(seed=41, convergence_tol=1e-5)
        target = 0.6 * obs.d_max

        # unconditioned solver on the same feasible set: treat (R, B) jointly as
        # the reference by permuting the purification factors to ((R, B), A)
        t = psi.as_tensor()
        w_joint = np.transpose(t, (0, 2, 1)).reshape(8, 2)
        psi_unconditioned = Purification(w_joint.reshape(-1), 8, (2,))
        plain = minimize_rate(psi_unconditioned, obs, target, 2, opts)
        qsi = minimize_rate(psi, obs, target, 2, opts)
        assert plain is not None and qsi is not None
        assert qsi.rate <= plain.rate + 1e-4

        # coarse POVM grid grounding: the solver is at least as good as the
        # best feasible point among many random measurements
        best_sampled = np.inf
        for seed in range(500):
            povm = sample_random_povm(2, 2, (4141, seed))
            if distortion(psi, povm, obs) <= target + 1e-9:
                sigma = induced_cq_state(psi, povm)
                best_sampled = min(best_sampled, conditional_mutual_information_cq(sigma))
        assert qsi.rate <= best_sampled + 1e-6

    def test_cq_source_matches_classical_conditional_rate_distortion(self):
        # classical-quantum source: A holds letter y with prob p(y), B holds a
        # pure state beta_y; a Schmidt-diagonal cost observable reduces the
        # problem to classical conditional rate distortion over channels q(x|y)
        from qcrd import DensityOperator as DO

        p = np.array([0.7, 0.3])
        beta = [np.array([1.0, 0.0]), np.array([1.0, 1.0]) / np.sqrt(2)]
        joint = sum(
            p[y] * np.kron(np.diag(np.eye(2)[y]), np.outer(beta[y], beta[y]))
            for y in range(2)
        )
        joint_state = DO(joint)
        psi = purify_joint(joint_state, (2, 2))

        # Hamming costs on the two populated eigendirections; the two null
        # directions of the rank-2 joint state never contribute
        costs = np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5], [0.5, 0.5]])
        base = classical_cost_observable(costs, eig_hermitian(joint).eigenvectors)
        from qcrd import tensor

        obs = DistortionObservable(tuple(tensor(b, np.eye(2)) for b in base.blocks))

        # brute-force oracle: scan channels on the active distortion boundary
        # p0 (1 - a) + p1 b = D and take I(X;Y|B) of the induced state
        h_yb = float(-(p * np.log2(p)).sum())  # pure side states per letter
        rho_b = p[0] * np.outer(beta[0], beta[0]) + p[1] * np.outer(beta[1], beta[1])
        wb = np.clip(np.linalg.eigvalsh(rho_b), 0.0, None)
        h_b = float(-(wb[wb > 1e-14] * np.log2(wb[wb > 1e-14])).sum())

        def brute(target):
            a = np.linspace(max(0.0, 1.0 - target / p[0]) + 1e-12, 1.0 - 1e-12, 20001)
            b = (target - p[0] * (1.0 - a)) / p[1]
            q = np.stack([np.stack([a, 1 - a], -1), np.stack([b, 1 - b], -1)], 1)  # (n, y, x)
            joint_probs = q * p[None, :, None]  # (n, y, x)
            flat = np.clip(joint_probs.reshape(-1, 4), 1e-300, None)
            h_xyb = -(joint_probs.reshape(-1, 4) * np.log2(flat)).sum(-1)
            betas = np.stack([np.outer(beta[0], beta[0]), np.outer(beta[1], beta[1])])
            m = np.einsum("nyx,yij->nxij", joint_probs, betas)  # sigma_x on B
            w = np.clip(np.linalg.eigvalsh(m), 1e-300, None)
            h_xb = -(np.where(w > 1e-14, w * np.log2(w), 0.0)).sum(axis=(-1, -2))
            return float((h_xb + h_yb - h_b - h_xyb).min())

        opts = light_opts(seed=77, convergence_tol=1e-6)
        for target in (0.10, 0.20):
            point = minimize_rate(psi, obs, target, 2, opts)
            assert point is not None
            assert abs(point.rate - brute(target)) < 1e-3


class TestSampleSweep:
    def test_deterministic(self):
        psi = purify(example_source())
        obs = example_observable()
        a = sample_sweep(psi, obs, 2, 64, seed=5)
        b = sample_sweep(psi, obs, 2, 64, seed=5)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_columnar_arrays_across_chunks(self):
        psi = purify(example_source())
        dist, rate = sample_sweep(psi, example_observable(), 2, 4100, seed=5)
        assert dist.shape == rate.shape == (4100,)
        assert dist.dtype == rate.dtype == np.float64
        tail = sweep_povm(2, 2, 5, 4099)
        assert abs(dist[-1] - distortion(psi, tail, example_observable())) < 1e-10

    @staticmethod
    def _sweep_instances():
        """(purification, observable, public rate of a POVM, public distortion)
        on the paper example, a pure qutrit and a (2, 2) side factor."""
        yield (purify(example_source()), example_observable(),
               lambda psi, povm: mutual_information_cq(induced_cq_state(psi, povm)), distortion)
        # every block of a pure source is rank 1, where a trigonometric 3x3
        # closed form is off by ~1e-7 bits
        rng = np.random.default_rng(404)
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        rho = DensityOperator(np.outer(v, v.conj()) / np.vdot(v, v).real)
        obs = classical_cost_observable(np.array([[0.3, 1.0], [1.0, 0.0], [0.0, 0.6]]),
                                        eig_hermitian(rho.mat).eigenvectors)
        yield (purify(rho), obs,
               lambda psi, povm: mutual_information_cq(induced_cq_state(psi, povm)), distortion)
        rng = np.random.default_rng(17)
        psi = purify_joint(random_density(rng, 4), (2, 2))
        obs = DistortionObservable(tuple(random_density(rng, 8).mat * 1.5 for _ in range(2)))
        yield (psi, obs,
               lambda psi, povm: conditional_mutual_information_cq(induced_cq_state(psi, povm)),
               distortion)

    def test_matches_per_sample_povm_construction(self):
        # one rate function: sample i's rate is the public function's rate of
        # its POVM, bit for bit; the public distortion clamps roundoff below
        # zero to 0, hence the tolerance there
        for psi, obs, public_rate, public_distortion in self._sweep_instances():
            d = psi.system_dims[0]
            dist, rate = sample_sweep(psi, obs, 2, 40, seed=11)
            for i in range(40):
                povm = sweep_povm(d, 2, 11, i)
                assert rate[i] == public_rate(psi, povm)
                assert abs(dist[i] - public_distortion(psi, povm, obs)) < 1e-10

    def test_output_does_not_depend_on_chunk_size(self, monkeypatch):
        for psi, obs, _, _ in self._sweep_instances():
            runs = []
            for chunk in (1, 7, 4096):
                monkeypatch.setattr(solver, "_SWEEP_CHUNK", chunk)
                runs.append(sample_sweep(psi, obs, 2, 100, seed=13))
            for dist, rate in runs[1:]:
                assert np.array_equal(dist, runs[0][0]) and np.array_equal(rate, runs[0][1])

    def test_output_does_not_depend_on_worker_count(self, monkeypatch):
        default_chunk = solver._SWEEP_CHUNK
        for psi, obs, _, _ in self._sweep_instances():
            for chunk in (1, 7, default_chunk):
                # three or more chunks; at 7 and the default the last one is short
                n = max(40, 2 * chunk + 5)
                monkeypatch.setattr(solver, "_SWEEP_CHUNK", chunk)
                runs = []
                for workers in (1, 2, 3):
                    monkeypatch.setattr(solver, "_sweep_workers", lambda: workers)
                    runs.append(sample_sweep(psi, obs, 2, n, seed=13))
                for dist, rate in runs[1:]:
                    assert np.array_equal(dist, runs[0][0]) and np.array_equal(rate, runs[0][1])

    def test_more_workers_than_cpus_with_frequent_switches(self, monkeypatch):
        psi, obs = purify(example_source()), example_observable()
        monkeypatch.setattr(solver, "_SWEEP_CHUNK", 1)
        monkeypatch.setattr(solver, "_sweep_workers", lambda: 1)
        serial = sample_sweep(psi, obs, 2, 200, seed=4)
        monkeypatch.setattr(solver, "_sweep_workers", lambda: (os.cpu_count() or 1) + 2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            parallel = sample_sweep(psi, obs, 2, 200, seed=4)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(parallel[0], serial[0]) and np.array_equal(parallel[1], serial[1])

    def test_never_more_workers_than_chunks(self, monkeypatch):
        import concurrent.futures

        sizes = []

        class Recording(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
        monkeypatch.setattr(solver, "_sweep_workers", lambda: 16)
        psi, obs = purify(example_source()), example_observable()
        sample_sweep(psi, obs, 2, 5, seed=0)
        monkeypatch.setattr(solver, "_SWEEP_CHUNK", 2)
        sample_sweep(psi, obs, 2, 5, seed=0)
        sample_sweep(psi, obs, 2, 100, seed=0)
        assert sizes == [1, 3, 16]

    def test_worker_count_is_the_process_affinity(self):
        workers = solver._sweep_workers()
        assert workers >= 1
        if hasattr(os, "sched_getaffinity"):
            assert workers == len(os.sched_getaffinity(0))

    @staticmethod
    def _failing_on_later_chunks(monkeypatch, failure):
        """Chunks of 4 samples, two workers, and a rate that calls ``failure``
        on every chunk but the first (a 10-sample sweep's chunk at 8 is short)."""
        real = solver.cq_information
        monkeypatch.setattr(solver, "_SWEEP_CHUNK", 4)
        monkeypatch.setattr(solver, "_sweep_workers", lambda: 2)

        def rate(sig, side_dim):
            if len(sig) < 4:
                failure()
            return real(sig, side_dim)

        monkeypatch.setattr(solver, "cq_information", rate)

    def test_exception_in_a_worker_is_raised(self, monkeypatch):
        error = ValueError("chunk at 8 failed")

        def fail():
            raise error

        self._failing_on_later_chunks(monkeypatch, fail)
        with pytest.raises(ValueError) as caught:
            sample_sweep(purify(example_source()), example_observable(), 2, 10, seed=0)
        assert caught.value is error

    def test_warning_in_a_worker_fails_under_the_suite_filter(self, monkeypatch):
        # pyproject.toml turns RuntimeWarning into an error; the filter must
        # reach the pool's threads too
        self._failing_on_later_chunks(monkeypatch, lambda: warnings.warn("overflow", RuntimeWarning))
        with pytest.raises(RuntimeWarning, match="overflow"):
            sample_sweep(purify(example_source()), example_observable(), 2, 10, seed=0)

    def test_prefix_of_a_longer_sweep(self):
        # 4097 samples end on a chunk of one
        psi, obs = purify(example_source()), example_observable()
        dist, rate = sample_sweep(psi, obs, 2, 5000, seed=21)
        for m in (1, 10, 4097):
            head = sample_sweep(psi, obs, 2, m, seed=21)
            assert np.array_equal(head[0], dist[:m]) and np.array_equal(head[1], rate[:m])

    @staticmethod
    def _ks_distance(a, b):
        a, b = np.sort(a), np.sort(b)
        x = np.concatenate([a, b])
        return np.abs(np.searchsorted(a, x, "right") / a.size - np.searchsorted(b, x, "right") / b.size).max()

    def test_same_distribution_as_per_sample_generators(self):
        # oracle: the Ginibre draws of one default_rng((seed, i)) per sample;
        # 0.0195 is the two-sample Kolmogorov-Smirnov critical value at
        # alpha = 1e-3 for 20,000 + 20,000 samples
        psi, obs = purify(example_source()), example_observable()
        n, seed = 20_000, 7
        dist, rate = sample_sweep(psi, obs, 2, n, seed=seed)
        g = np.empty((n, 2, 2, 2), dtype=complex)
        for i in range(n):
            g[i] = ginibre(np.random.default_rng((seed, i)), (2, 2, 2))
        sig = conditional_blocks(psi.measured_matrix(), povm_effects_from_ginibre(g))
        assert self._ks_distance(dist, expected_cost(np.stack(obs.blocks), sig)) < 0.0195
        assert self._ks_distance(rate, cq_information(sig, 1)) < 0.0195

    @pytest.mark.parametrize("instance", ["paper-example", "classical-cost-qutrit"])
    def test_same_distribution_as_symmetric_root_map(self, instance):
        # oracle: the map M^{-1/2} A_x M^{-1/2} that the Cholesky whitening
        # replaced, on independent draws; 0.0195 as above
        if instance == "paper-example":
            psi, obs = purify(example_source()), example_observable()
        else:
            rho, _, _, obs = criterion_4_trial(1)
            psi = purify(rho)
        n, d = 20_000, psi.system_dims[0]
        dist, rate = sample_sweep(psi, obs, 2, n, seed=5)
        g = ginibre(np.random.default_rng(6), (n, 2, d, d))
        a = g.conj().swapaxes(-1, -2) @ g
        w, v = np.linalg.eigh(a.sum(axis=1))
        root = ((v / np.sqrt(w)[:, None, :]) @ v.conj().swapaxes(-1, -2))[:, None]
        sig = conditional_blocks(psi.measured_matrix(), root @ a @ root)
        assert self._ks_distance(dist, expected_cost(np.stack(obs.blocks), sig)) < 0.0195
        assert self._ks_distance(rate, cq_information(sig, 1)) < 0.0195

    def test_golden_draws(self):
        # the Ginibre entries of samples 0 and 1 at seed 0, shape (2, 2, 2);
        # the tolerance admits last-bit differences of log and cos between
        # builds, while any change of the stream moves the entries by order one
        h = float.fromhex
        golden = [
            ("-0x1.0d13c9f9c8b86p-7", "0x1.58528439b0459p-3"), ("0x1.e579e4625c05ep-1", "0x1.3a33a9db6d21cp-1"),
            ("-0x1.b37abbcf1ab96p-4", "0x1.63d4c21dd7f3fp+1"), ("0x1.b90e00f15035cp-1", "0x1.16c379247cbb9p+1"),
            ("0x1.04bb6d44c4bc7p-2", "0x1.7db8142bb14efp-4"), ("-0x1.ab5d5a2cc0933p+0", "0x1.045225085f03ep-1"),
            ("0x1.4bc963d79ec65p+1", "-0x1.6a538ff2cd65cp-1"), ("0x1.8af019e1173c9p-3", "0x1.022e495de3ba7p-1"),
            ("-0x1.b88ce93341c49p-2", "0x1.8afb2ee4a86aep+0"), ("0x1.e542c32d494ccp-2", "0x1.fba976c358183p-4"),
            ("0x1.27760a67ebe1bp-1", "0x1.0f8a8c32e431ap-1"), ("0x1.d8dc7e67c01a7p-1", "-0x1.b05e3cd5f9ad6p-2"),
            ("-0x1.e911ce9ed17cdp-1", "-0x1.46aa430806cf6p+0"), ("0x1.30c21a889131dp-3", "0x1.3755e3f5cd8f0p-2"),
            ("0x1.3875da92d7e18p-4", "-0x1.f0bb66931e405p-1"), ("0x1.8be97fd20fae4p+0", "0x1.24ff6c0cb1d4dp-2"),
        ]
        expected = np.array([complex(h(re), h(im)) for re, im in golden]).reshape(2, 2, 2, 2)
        assert np.abs(solver._ginibre_draws(0, 0, 2, (2, 2, 2)) - expected).max() < 1e-12

    def test_golden_stream(self):
        # first effect of samples 0 and 1 at seed 0, through the Cholesky
        # whitening of test_golden_draws' entries; the tolerance admits
        # last-bit differences of log and cos between builds, while any
        # change of the stream or the map moves the entries by order one
        h = float.fromhex
        golden = [
            [[complex(h("0x1.08107dbab83aep-1"), h("0x1.9f2766f4c9f2ep-60")),
              complex(h("0x1.2121a0c13c826p-2"), h("-0x1.a899dfa166366p-3"))],
             [complex(h("0x1.2121a0c13c828p-2"), h("0x1.a899dfa166366p-3")),
              complex(h("0x1.7bccd6ceeb7cep-2"), h("0x1.0000000000000p-56"))]],
            [[complex(h("0x1.e85c1e94b06adp-2"), h("-0x1.2eefd92b2af0ap-58")),
              complex(h("0x1.8808335fcc1a0p-4"), h("-0x1.2a1a0e4ca2d2cp-2"))],
             [complex(h("0x1.8808335fcc1a1p-4"), h("0x1.2a1a0e4ca2d2cp-2")),
              complex(h("0x1.5434f58921d65p-2"), h("0x1.0000000000000p-58"))]],
        ]
        for i, expected in enumerate(golden):
            assert np.abs(sweep_povm(2, 2, 0, i).effects[0] - np.array(expected)).max() < 1e-12

    def test_sweep_povm_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            sweep_povm(2, 2, -1, 0)
        with pytest.raises(ValueError):
            sweep_povm(2, 2, 0, -1)
        with pytest.raises(ValueError):
            sweep_povm(2, 0, 0, 0)

    def test_rates_within_qubit_bounds(self):
        psi = purify(example_source())
        _, rates = sample_sweep(psi, example_observable(), 2, 2000, seed=3)
        assert rates.min() >= -1e-9
        assert rates.max() <= 1.0 + 1e-9

    def test_single_sample(self):
        dist, rate = sample_sweep(purify(example_source()), example_observable(), 2, 1, seed=0)
        assert dist.shape == rate.shape == (1,)


class TestStackLayout:
    """A POVM's rate and distortion do not depend on the memory layout of the
    stack it is in: the sweep stores its stacks sample-last, single POVMs are
    C-ordered, and both give the same bits."""

    CASES = [(2, 2, 1), (4, 5, 1), (2, 9, 1), (3, 10, 1), (2, 3, 2)]

    @staticmethod
    def _instance(d, k, d_b):
        """(purification, observable, public rate of a cq state) for system
        dimension d, k outcomes and side dimension d_b."""
        rng = np.random.default_rng(1000 * d + 10 * k + d_b)
        if d_b == 1:
            psi, info = purify(random_density(rng, d)), mutual_information_cq
        else:
            psi, info = purify_joint(random_density(rng, d * d_b), (d, d_b)), conditional_mutual_information_cq
        dim = psi.reference_dim * d_b
        obs = DistortionObservable(tuple(random_density(rng, dim).mat * 1.5 for _ in range(k)))
        return psi, obs, info

    @pytest.mark.parametrize("case", CASES)
    def test_kernels_give_the_same_bits_in_either_layout(self, case):
        d, k, d_b = case
        psi, obs, _ = self._instance(d, k, d_b)
        g = solver._ginibre_draws(3, 0, solver._SWEEP_CHUNK, (k, d, d))
        sig = conditional_blocks(psi.measured_matrix(), povm_effects_from_ginibre(g))
        c_order = np.ascontiguousarray(sig)
        sample_last = np.moveaxis(np.ascontiguousarray(np.moveaxis(sig, 0, -1)), -1, 0)
        assert c_order.flags.c_contiguous and sample_last.strides[0] == sample_last.itemsize
        assert np.array_equal(c_order, sample_last)
        for kernel in (lambda s: cq_information(s, d_b), lambda s: expected_cost(obs.blocks, s)):
            assert kernel(c_order).tobytes() == kernel(sample_last).tobytes()

    @pytest.mark.parametrize("case", CASES)
    def test_sweep_samples_are_their_povms_values(self, case):
        d, k, d_b = case
        psi, obs, info = self._instance(d, k, d_b)
        n = 2 * solver._SWEEP_CHUNK + 3
        dist, rate = sample_sweep(psi, obs, k, n, seed=3)
        for i in (0, solver._SWEEP_CHUNK - 1, solver._SWEEP_CHUNK, n - 1):
            povm = sweep_povm(d, k, 3, i)
            assert rate[i] == info(induced_cq_state(psi, povm))
            assert dist[i] == distortion(psi, povm, obs)


class TestLowerEnvelope:
    def test_single_point(self):
        curve = lower_envelope([0.25], [0.0], np.array([0.1, 0.25, 0.3]))
        assert math.isinf(curve.rates[0])
        assert curve.rates[1] == 0.0 and curve.rates[2] == 0.0
        assert curve.witnesses.tolist() == [-1, 0, 0]

    def test_two_points(self):
        curve = lower_envelope(np.array([0.1, 0.2]), np.array([0.5, 0.3]),
                               np.array([0.05, 0.1, 0.15, 0.2, 0.5]))
        assert math.isinf(curve.rates[0])
        assert np.allclose(curve.rates[1:], [0.5, 0.5, 0.3, 0.3])
        assert curve.witnesses.tolist() == [-1, 0, 0, 1, 1]

    def test_monotone_for_random_clouds(self):
        rng = np.random.default_rng(19)
        d, r = rng.uniform(0, 1, size=(2, 500))
        curve = lower_envelope(d, r, np.linspace(0, 1, 21))
        finite = curve.rates[np.isfinite(curve.rates)]
        assert np.all(np.diff(finite) <= 1e-12)

    def test_witness_tie_break_prefers_smaller_distortion(self):
        curve = lower_envelope([0.3, 0.1], [0.2, 0.2], np.array([0.4]))
        assert curve.witnesses[0] == 1

    def test_witnesses_match_first_argmin_loop(self):
        # coarse values force ties in distortion and in rate
        rng = np.random.default_rng(23)
        for _ in range(200):
            n = int(rng.integers(1, 30))
            d, r = rng.integers(0, 5, n) / 10, rng.integers(0, 4, n) / 4
            grid = np.sort(rng.integers(-1, 6, int(rng.integers(1, 8))) / 10)
            curve = lower_envelope(d, r, grid)
            for g, rate, w in zip(grid, curve.rates, curve.witnesses):
                feasible = [i for i in range(n) if d[i] <= g]
                if not feasible:
                    assert w == -1 and math.isinf(rate)
                    continue
                best = min(feasible, key=lambda i: (r[i], d[i], i))
                assert w == best and rate == r[best]

    def test_empty_points_rejected(self):
        with pytest.raises(ValueError):
            lower_envelope([], [], np.array([0.1]))

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError):
            lower_envelope([0.1, 0.2], [0.1], np.array([0.1]))

    def test_non_1d_samples_rejected(self):
        with pytest.raises(ValueError):
            lower_envelope(np.array([[0.1, 0.2]]), np.array([[0.1, 0.2]]), np.array([0.1]))

    def test_unsorted_grid_rejected(self):
        with pytest.raises(ValueError):
            lower_envelope([0.1], [0.1], np.array([0.2, 0.1]))

    def test_non_finite_grid_rejected(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError):
                lower_envelope([0.1], [0.1], np.array([0.05, bad]))

    def test_non_finite_samples_rejected(self):
        grid = np.array([0.15, 0.25, 0.35])
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError):
                lower_envelope([0.1, 0.2, 0.3], [0.5, bad, 0.1], grid)
            with pytest.raises(ValueError):
                lower_envelope([0.1, bad, 0.3], [0.5, 0.2, 0.1], grid)

    def test_caller_arrays_stay_writable(self):
        d, r, grid = np.array([0.1, 0.2]), np.array([0.5, 0.3]), np.array([0.1, 0.3])
        curve = lower_envelope(d, r, grid)
        grid[0] = 0.05
        d[0] = r[0] = 0.0
        assert curve.grid[0] == 0.1
        rates = np.array([0.5, 0.3])
        RdCurve(grid, rates)
        grid[1] = rates[1] = 0.2
        with pytest.raises(ValueError):
            curve.rates[0] = 1.0


class TestSolverOptions:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverOptions(restarts=0)
        with pytest.raises(ValueError):
            SolverOptions(convergence_tol=0.0)
        with pytest.raises(ValueError):
            SolverOptions(lagrange_grid=())
        with pytest.raises(ValueError):
            SolverOptions(lagrange_grid=(-1.0,))
        for bad in (dict(max_iterations=True, convergence_tol=True), dict(max_iterations=2.5),
                    dict(restarts=True), dict(restarts=2.0), dict(rng_seed=False), dict(rng_seed=1.5),
                    dict(convergence_tol=True), dict(lagrange_grid=(1.0, True)), dict(rng_seed=-5),
                    dict(convergence_tol="1e-7"), dict(lagrange_grid=(1.0, "2"))):
            with pytest.raises(ValueError):
                SolverOptions(**bad)
        opts = SolverOptions(restarts=np.int64(2), max_iterations=np.int64(3), rng_seed=np.int64(4))
        assert (opts.restarts, opts.max_iterations, opts.rng_seed) == (2, 3, 4)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(ValueError):
            SolverOptions(convergence_tol=bad)
        with pytest.raises(ValueError):
            SolverOptions(lagrange_grid=(1.0, bad))

    def test_grid_sorted_on_construction(self):
        opts = SolverOptions(lagrange_grid=(3.0, 1.0, 2.0))
        assert opts.lagrange_grid == (1.0, 2.0, 3.0)
