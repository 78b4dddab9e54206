import math

import numpy as np
import pytest

from qcrd import (
    DensityOperator,
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
    distortion_qsi,
    eig_hermitian,
    eigenbasis_observable,
    example_observable,
    example_source,
    induced_cq_state,
    induced_cq_state_qsi,
    lower_envelope,
    minimize_rate,
    minimize_rate_curve,
    minimize_rate_qsi,
    mutual_information_cq,
    conditional_mutual_information_cq,
    purify,
    purify_joint,
    sample_random_povm,
    sample_sweep,
    von_neumann_entropy,
)

HAMMING = np.array([[0.0, 1.0], [1.0, 0.0]])


def binary_entropy(p):
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def random_density(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return DensityOperator(m / m.trace().real)


def light_opts(seed=0, **kw):
    base = dict(restarts=4, max_iterations=1200, convergence_tol=1e-6,
                lagrange_grid=(0.1, 0.5, 2.0, 8.0, 32.0, 128.0), rng_seed=seed)
    base.update(kw)
    return SolverOptions(**base)


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

    def test_outcome_count_must_match_observable(self):
        from qcrd import DimensionMismatch

        with pytest.raises(DimensionMismatch):
            minimize_rate(purify(example_source()), example_observable(), 0.1, 3, light_opts())
        with pytest.raises(DimensionMismatch):
            sample_sweep(purify(example_source()), example_observable(), 3, 10, seed=0)

    def test_lagrange_sweep_distortion_ordering(self):
        from qcrd.solver import _LagrangianSolver, _Objective

        obj = _Objective(purify(example_source()), example_observable(), 2)
        solver = _LagrangianSolver(obj, light_opts(seed=3))
        solver.sweep()
        mus = sorted(solver.solutions)
        dists = [solver.solutions[m].dist for m in mus]
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


class TestLagrangianGradient:
    """The descent's analytic gradient of L = rate + mu * distortion against
    central differences of L itself.  The perturbed effects are not a POVM;
    ``lagrangian`` holds H(RB) at its value for the source, as the descent
    does, so L stays the function the gradient differentiates."""

    @staticmethod
    def _instances():
        rng = np.random.default_rng(23)
        yield purify(example_source()), example_observable(), 2.0
        rho = random_density(rng, 3)
        costs = rng.uniform(0.1, 2.0, size=(3, 2))
        yield purify(rho), classical_cost_observable(costs, eig_hermitian(rho.mat).eigenvectors), 5.0
        joint = random_density(rng, 4)
        yield purify_joint(joint, (2, 2)), DistortionObservable(
            tuple(random_density(rng, 8).mat * 1.5 for _ in range(2))), 30.0

    def test_matches_central_differences(self):
        from qcrd.distortion import expected_cost
        from qcrd.information import cq_information
        from qcrd.solver import _Objective
        from qcrd.states import conditional_blocks

        rng = np.random.default_rng(29)
        for psi, obs, mu in self._instances():
            obj = _Objective(psi, obs, 2)
            d = obj.system_dim
            lam = np.stack(sample_random_povm(d, 2, rng.integers(2**63)).effects)
            f, rate, dist, grad = obj.lagrangian(lam[None], mu)
            sig = conditional_blocks(obj.m, lam)
            assert abs(rate[0] - cq_information(sig, obj.side_dim)) < 1e-9
            assert dist[0] == expected_cost(obj.blocks, sig)
            assert abs(f[0] - (rate[0] + mu * dist[0])) < 1e-12
            for _ in range(4):
                h = rng.standard_normal(lam.shape) + 1j * rng.standard_normal(lam.shape)
                h = (h + h.conj().swapaxes(-1, -2)) / 2
                eps = 1e-5
                fp = obj.lagrangian((lam + eps * h)[None], mu)[0]
                fm = obj.lagrangian((lam - eps * h)[None], mu)[0]
                numeric = float((fp - fm)[0]) / (2 * eps)
                analytic = float(np.einsum("xab,xba->", grad[0], h).real)
                assert abs(numeric - analytic) <= 1e-7 * max(1.0, abs(analytic))


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
            lifted = minimize_rate_qsi(purify_joint(rho, (2, 1)), obs, target, 2, opts)
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
        qsi = minimize_rate_qsi(extended, lifted_obs, target, 2, opts)
        assert plain is not None and qsi is not None
        assert abs(plain.rate - qsi.rate) < 1e-4
        sigma = induced_cq_state_qsi(extended, qsi.povm)
        assert abs(conditional_mutual_information_cq(sigma) - qsi.rate) < 1e-10
        assert abs(distortion_qsi(extended, qsi.povm, lifted_obs) - qsi.distortion) < 1e-10

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
        qsi = minimize_rate_qsi(psi, obs, target, 2, opts)
        assert plain is not None and qsi is not None
        assert qsi.rate <= plain.rate + 1e-4

        # coarse POVM grid grounding: the solver is at least as good as the
        # best feasible point among many random measurements
        best_sampled = np.inf
        for seed in range(500):
            povm = sample_random_povm(2, 2, (4141, seed))
            if distortion_qsi(psi, povm, obs) <= target + 1e-9:
                sigma = induced_cq_state_qsi(psi, povm)
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
            point = minimize_rate_qsi(psi, obs, target, 2, opts)
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
        tail = sample_random_povm(2, 2, (5, 4099))
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
               lambda psi, povm: conditional_mutual_information_cq(induced_cq_state_qsi(psi, povm)),
               distortion_qsi)

    def test_matches_per_sample_povm_construction(self):
        # one rate function: sample i's rate is the public function's rate of
        # its POVM, bit for bit; the public distortion clamps roundoff below
        # zero to 0 and sums in its own order, hence the tolerance there
        for psi, obs, public_rate, public_distortion in self._sweep_instances():
            d = psi.system_dims[0]
            dist, rate = sample_sweep(psi, obs, 2, 40, seed=11)
            for i in range(40):
                povm = sample_random_povm(d, 2, (11, i))
                assert rate[i] == public_rate(psi, povm)
                assert abs(dist[i] - public_distortion(psi, povm, obs)) < 1e-10

    def test_rates_within_qubit_bounds(self):
        psi = purify(example_source())
        _, rates = sample_sweep(psi, example_observable(), 2, 2000, seed=3)
        assert rates.min() >= -1e-9
        assert rates.max() <= 1.0 + 1e-9

    def test_single_sample(self):
        dist, rate = sample_sweep(purify(example_source()), example_observable(), 2, 1, seed=0)
        assert dist.shape == rate.shape == (1,)


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(ValueError):
            SolverOptions(convergence_tol=bad)
        with pytest.raises(ValueError):
            SolverOptions(lagrange_grid=(1.0, bad))

    def test_grid_sorted_on_construction(self):
        opts = SolverOptions(lagrange_grid=(3.0, 1.0, 2.0))
        assert opts.lagrange_grid == (1.0, 2.0, 3.0)
