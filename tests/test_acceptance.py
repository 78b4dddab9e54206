"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured slack (run with ``pytest -s`` to see them).
"""

import math
import time

import numpy as np

from qcrd import (
    DensityOperator,
    Povm,
    SolverOptions,
    blahut_arimoto,
    classical_cost_observable,
    classical_strategy_rate,
    conditional_mutual_information_cq,
    dephase,
    distortion,
    eig_hermitian,
    example_observable,
    example_source,
    induced_cq_state,
    induced_cq_state_qsi,
    lower_envelope,
    minimize_rate,
    minimize_rate_curve,
    minimize_rate_qsi,
    mutual_information_cq,
    partial_trace,
    pinch_povm,
    purify,
    purify_joint,
    sample_random_povm,
    von_neumann_entropy,
)
from qcrd.checks import _marginal_cq, _product_purification
from qcrd.cli import main
from qcrd.states import CqState


def report(number, name, detail):
    print(f"ACCEPTANCE {number} PASS {name}: {detail}")


def random_density(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return DensityOperator(m / m.trace().real)


def solver_opts(seed, **kw):
    base = dict(restarts=4, max_iterations=1200, convergence_tol=1e-6,
                lagrange_grid=(0.1, 0.5, 2.0, 8.0, 32.0, 128.0), rng_seed=seed)
    base.update(kw)
    return SolverOptions(**base)


def test_criterion_1_anchor_point():
    start = time.monotonic()
    psi = purify(example_source())
    trivial = Povm((np.eye(2) / 2, np.eye(2) / 2))
    d_val = distortion(psi, trivial, example_observable())
    rate = mutual_information_cq(induced_cq_state(psi, trivial))
    elapsed = time.monotonic() - start
    assert abs(d_val - 0.25) <= 1e-12
    assert abs(rate) <= 1e-12
    assert elapsed < 1.0
    report(1, "anchor point", f"|D-1/4|={abs(d_val - 0.25):.1e}, |I|={abs(rate):.1e}, {elapsed:.2f}s")


def test_criterion_2_classical_saturation():
    start = time.monotonic()
    rng = np.random.default_rng(202)
    rho = example_source()
    psi = purify(rho)
    obs = example_observable()
    basis = eig_hermitian(rho.mat).eigenvectors
    worst = 0.0
    for _ in range(100):
        channel = rng.dirichlet(np.ones(2), size=2)  # q(x|z) rows on the simplex
        povm = Povm(tuple((basis * channel[:, x]) @ basis.conj().T for x in range(2)))
        worst = max(worst, abs(distortion(psi, povm, obs) - 0.25))
    elapsed = time.monotonic() - start
    assert worst <= 1e-10
    assert elapsed < 5.0
    report(2, "classical saturation", f"worst |D-1/4|={worst:.2e} over 100 POVMs, {elapsed:.2f}s")


def test_criterion_3_figure_reproduction(tmp_path):
    start = time.monotonic()
    out = tmp_path / "samples.csv"
    code = main(["sample", "--preset", "paper-example", "--n", "250000",
                 "--seed", "2024", "--out-csv", str(out)])
    elapsed = time.monotonic() - start
    assert code == 0
    assert elapsed < 300.0

    rows = out.read_text(encoding="utf-8").splitlines()[1:]
    assert len(rows) == 250000
    table = np.array([row.split(",") for row in rows], dtype=float)
    assert np.array_equal(table[:, 2], np.arange(250000))
    grid = 0.01 * np.arange(26)
    curve = lower_envelope(table[:, 0], table[:, 1], grid)
    finite = curve.rates[np.isfinite(curve.rates)]
    assert np.all(np.diff(finite) <= 1e-6)
    env_024 = curve.rates[24]
    env_002 = curve.rates[2]
    assert env_024 <= 0.02
    assert env_002 >= 0.1
    report(3, "figure reproduction",
           f"250k samples in {elapsed:.1f}s, envelope(0.24)={env_024:.4f}<=0.02, "
           f"envelope(0.02)={env_002:.4f}>=0.1, monotone")


def test_criterion_4_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(404)
    worst = 0.0
    for trial in range(20):
        dim = 2 if trial % 2 == 0 else 3
        rho = random_density(rng, dim)
        costs = rng.uniform(0.1, 2.0, size=(dim, 2))
        for z in range(dim):
            costs[z, z % 2] = 0.0
        eig = eig_hermitian(rho.mat)
        obs = classical_cost_observable(costs, eig.eigenvectors)
        p = np.clip(eig.eigenvalues, 0.0, None)
        p /= p.sum()
        d_floor = float((p * costs.min(axis=1)).sum())
        d_zero = float((p @ costs).min())
        targets = d_floor + (np.arange(1, 11) / 11.0) * (d_zero - d_floor)
        points = minimize_rate_curve(purify(rho), obs, targets, 2,
                                     solver_opts(seed=1000 + trial))
        for target, point in zip(targets, points):
            oracle = blahut_arimoto(p, costs, float(target))
            assert point is not None and oracle is not None
            gap = abs(point.rate - oracle)
            assert gap <= 1e-3
            worst = max(worst, gap)
        if trial == 0:
            # the grid solver is the same engine as single-target calls
            single = minimize_rate(purify(rho), obs, float(targets[4]), 2,
                                   solver_opts(seed=1000))
            assert abs(single.rate - points[4].rate) <= 1e-6
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    report(4, "oracle equivalence",
           f"worst |descent-BA|={worst:.2e} over 20 observables x 10 targets, {elapsed:.1f}s")


def test_criterion_5_quantum_advantage():
    start = time.monotonic()
    rho = example_source()
    psi = purify(rho)
    obs = example_observable()
    lines = []
    for target in (0.05, 0.10, 0.15, 0.20):
        classical = classical_strategy_rate(rho, obs, target)
        assert classical is None
        point = minimize_rate(psi, obs, target, 2, solver_opts(seed=55, convergence_tol=1e-7))
        assert point is not None
        verified = distortion(psi, point.povm, obs)
        assert verified <= target + 1e-6
        assert math.isfinite(point.rate) and point.rate <= 1.0
        lines.append(f"D={target}: R={point.rate:.4f}")
    elapsed = time.monotonic() - start
    report(5, "quantum advantage", "; ".join(lines) + f" (classical infeasible), {elapsed:.1f}s")


def test_criterion_6_dephasing_monotonicity_and_pinching():
    start = time.monotonic()
    rng = np.random.default_rng(606)
    worst_mi = -np.inf
    worst_dist = 0.0
    for _ in range(1000):
        dim = int(rng.integers(2, 4))
        rho = random_density(rng, dim)
        psi = purify(rho)
        basis = eig_hermitian(rho.mat).eigenvectors
        povm = sample_random_povm(dim, 2, rng.integers(2**63))

        sigma = induced_cq_state(psi, povm)
        dephased = CqState(sigma.probs,
                           tuple(dephase(op, basis) for op in sigma.conditional_ops),
                           sigma.factor_dims)
        worst_mi = max(worst_mi, mutual_information_cq(dephased) - mutual_information_cq(sigma))

        costs = rng.uniform(0.0, 2.0, size=(dim, 2))
        obs = classical_cost_observable(costs, basis)
        gap = abs(distortion(psi, povm, obs) - distortion(psi, pinch_povm(povm, basis), obs))
        worst_dist = max(worst_dist, gap)
    elapsed = time.monotonic() - start
    assert worst_mi <= 1e-9
    assert worst_dist <= 1e-10
    report(6, "dephasing monotonicity",
           f"max MI increase {worst_mi:.2e}<=1e-9, max distortion change {worst_dist:.2e}<=1e-10, "
           f"1000 instances, {elapsed:.1f}s")


def test_criterion_7_superadditivity():
    from qcrd import tensor

    start = time.monotonic()
    rng = np.random.default_rng(707)

    worst_eq = 0.0
    for _ in range(2):
        d1, d2 = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        psi1, psi2 = purify(random_density(rng, d1)), purify(random_density(rng, d2))
        p1 = sample_random_povm(d1, 2, rng.integers(2**63))
        p2 = sample_random_povm(d2, 2, rng.integers(2**63))
        joint_povm = Povm(tuple(tensor(a, b) for a in p1.effects for b in p2.effects))
        i_joint = mutual_information_cq(induced_cq_state(_product_purification(psi1, psi2), joint_povm))
        i_split = (mutual_information_cq(induced_cq_state(psi1, p1))
                   + mutual_information_cq(induced_cq_state(psi2, p2)))
        worst_eq = max(worst_eq, abs(i_joint - i_split))
    assert worst_eq <= 1e-9

    psi1, psi2 = purify(random_density(rng, 2)), purify(random_density(rng, 2))
    psi12 = _product_purification(psi1, psi2)
    worst_gap = -np.inf
    for _ in range(100):
        povm = sample_random_povm(4, 4, rng.integers(2**63))
        sigma = induced_cq_state(psi12, povm)
        i1 = mutual_information_cq(_marginal_cq(sigma, (2, 2), 0, (2, 2)))
        i2 = mutual_information_cq(_marginal_cq(sigma, (2, 2), 1, (2, 2)))
        worst_gap = max(worst_gap, i1 + i2 - mutual_information_cq(sigma))
    elapsed = time.monotonic() - start
    assert worst_gap <= 1e-9
    report(7, "superadditivity",
           f"product equality slack {worst_eq:.2e}, joint-POVM violation {worst_gap:.2e}, {elapsed:.1f}s")


def test_criterion_8_qsi_reduction():
    start = time.monotonic()
    rng = np.random.default_rng(808)

    worst_red = 0.0
    for i in range(10):
        rho = random_density(rng, 2)
        eig = eig_hermitian(rho.mat)
        costs = rng.uniform(0.1, 1.5, size=(2, 2))
        for z in range(2):
            costs[z, z] = 0.0
        obs = classical_cost_observable(costs, eig.eigenvectors)
        p = np.clip(eig.eigenvalues, 0.0, None)
        d_zero = float((p @ costs).min())
        target = float(rng.uniform(0.3, 0.8)) * d_zero
        opts = solver_opts(seed=2000 + i)
        plain = minimize_rate(purify(rho), obs, target, 2, opts)
        lifted = minimize_rate_qsi(purify_joint(rho, (2, 1)), obs, target, 2, opts)
        assert (plain is None) == (lifted is None)
        if plain is not None:
            gap = abs(plain.rate - lifted.rate)
            assert gap <= opts.convergence_tol
            worst_red = max(worst_red, gap)

    worst_cmi = 0.0
    for _ in range(100):
        joint = random_density(rng, 4)
        psi = purify_joint(joint, (2, 2))
        povm = sample_random_povm(2, int(rng.integers(2, 4)), rng.integers(2**63))
        sigma = induced_cq_state_qsi(psi, povm)
        got = conditional_mutual_information_cq(sigma)

        # independent oracle: assemble the full density matrix and take
        # I(X;R|B) = H(XB) + H(RB) - H(B) - H(XRB)
        k, (d_r, d_b) = sigma.outcome_count, sigma.factor_dims
        full = np.zeros((k * d_r * d_b, k * d_r * d_b), dtype=complex)
        for x, op in enumerate(sigma.conditional_ops):
            proj = np.zeros((k, k))
            proj[x, x] = 1.0
            full += np.kron(proj, op)

        def entropy_of(mat):
            w = np.clip(np.linalg.eigvalsh(mat), 0.0, None)
            w = w[w > 1e-14]
            return float(-(w * np.log2(w)).sum())

        dims = [k, d_r, d_b]
        expected = (entropy_of(partial_trace(full, dims, [0, 2]))
                    + entropy_of(partial_trace(full, dims, [1, 2]))
                    - entropy_of(partial_trace(full, dims, [2]))
                    - entropy_of(full))
        gap = abs(got - expected)
        assert gap <= 1e-10
        worst_cmi = max(worst_cmi, gap)
    elapsed = time.monotonic() - start
    report(8, "QSI reduction",
           f"trivial-B solver gap {worst_red:.2e}, CMI oracle gap {worst_cmi:.2e}, {elapsed:.1f}s")


def test_criterion_9_entropy_fixtures():
    start = time.monotonic()
    h_mixed = von_neumann_entropy(DensityOperator(np.eye(2) / 2))
    assert abs(h_mixed - 1.0) <= 1e-12

    # expected value computed from the closed-form eigenvalues (2 +- sqrt 2)/4
    p = (2.0 - math.sqrt(2.0)) / 4.0
    expected = -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)
    h_source = von_neumann_entropy(example_source())
    assert abs(h_source - expected) <= 1e-9
    assert abs(h_source - 0.6008760366928562) <= 1e-9
    elapsed = time.monotonic() - start
    report(9, "entropy fixtures",
           f"H(I/2)-1={h_mixed - 1.0:.1e}, H(rho)-h={h_source - expected:.1e}, {elapsed:.2f}s")
