"""Named self-check suites behind ``qcrd check``.

Each suite returns a JSON-friendly report: per-check pass/fail plus the
measured slack, so regressions show up as numbers rather than booleans.
"""

from __future__ import annotations

import numpy as np

from .distortion import classical_cost_observable, distortion, example_observable
from .information import (
    conditional_mutual_information_cq,
    entropy_terms,
    mutual_information_cq,
)
from .operators import eig_hermitian, partial_trace, tensor
from .solver import SolverOptions, blahut_arimoto, minimize_rate, minimize_rate_curve
from .states import (
    CqState,
    DensityOperator,
    Povm,
    Purification,
    _dephase_stack,
    example_source,
    induced_cq_state,
    purify,
    purify_joint,
    sample_random_povm,
)

_ORACLE_TOL = 1e-3


def random_density(rng: np.random.Generator, dim: int) -> DensityOperator:
    """Full-rank random state from the Ginibre construction."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T + 1e-6 * np.eye(dim)
    return DensityOperator(m / m.trace().real)


def _check(name: str, passed: bool, slack: float, bound: float) -> dict:
    return {"name": name, "passed": bool(passed), "slack": float(slack), "bound": float(bound)}


def _report(suite: str, checks: list[dict]) -> dict:
    return {"suite": suite, "passed": all(c["passed"] for c in checks), "checks": checks}


def check_lemmas(trials: int = 200, joint_povms: int = 25, seed: int = 0) -> dict:
    """Data-processing monotonicity under dephasing, and superadditivity."""
    rng = np.random.default_rng(seed)
    checks = []

    # mutual information can only drop when the reference is fully dephased
    worst = -np.inf
    for _ in range(trials):
        dim = int(rng.integers(2, 4))
        rho = random_density(rng, dim)
        psi = purify(rho)
        povm = sample_random_povm(dim, int(rng.integers(2, dim + 2)), rng.integers(2**63))
        sigma = induced_cq_state(psi, povm)
        dephased = _dephase_stack(sigma.conditional_ops, eig_hermitian(rho.mat).eigenvectors)
        sigma_dep = CqState(sigma.probs, dephased, sigma.factor_dims)
        worst = max(worst, mutual_information_cq(sigma_dep) - mutual_information_cq(sigma))
    checks.append(_check("dephasing-monotonicity", worst <= 1e-9, worst, 1e-9))

    # equality on product inputs with product measurements
    worst_eq = 0.0
    for _ in range(2):
        parts = []
        for _ in range(2):
            dim = int(rng.integers(2, 4))
            rho = random_density(rng, dim)
            povm = sample_random_povm(dim, 2, rng.integers(2**63))
            parts.append((purify(rho), povm))
        (psi1, povm1), (psi2, povm2) = parts
        psi12 = _product_purification(psi1, psi2)
        povm12 = Povm(tuple(tensor(e1, e2) for e1 in povm1.effects for e2 in povm2.effects))
        i_joint = mutual_information_cq(induced_cq_state(psi12, povm12))
        i_sum = mutual_information_cq(induced_cq_state(psi1, povm1)) + mutual_information_cq(
            induced_cq_state(psi2, povm2)
        )
        worst_eq = max(worst_eq, abs(i_joint - i_sum))
    checks.append(_check("superadditivity-product-equality", worst_eq <= 1e-9, worst_eq, 1e-9))

    # joint measurements on product inputs: I(R1R2;X1X2) >= I(R1;X1) + I(R2;X2)
    d1, d2 = 2, 2
    psi1 = purify(random_density(rng, d1))
    psi2 = purify(random_density(rng, d2))
    psi12 = _product_purification(psi1, psi2)
    worst_gap = -np.inf
    for _ in range(joint_povms):
        k1, k2 = 2, 2
        povm = sample_random_povm(d1 * d2, k1 * k2, rng.integers(2**63))
        sigma = induced_cq_state(psi12, povm)
        i_joint = mutual_information_cq(sigma)
        i1 = mutual_information_cq(_marginal_cq(sigma, (d1, d2), keep=0, outcome_shape=(k1, k2)))
        i2 = mutual_information_cq(_marginal_cq(sigma, (d1, d2), keep=1, outcome_shape=(k1, k2)))
        worst_gap = max(worst_gap, i1 + i2 - i_joint)
    checks.append(_check("superadditivity-joint", worst_gap <= 1e-9, worst_gap, 1e-9))

    return _report("lemmas", checks)


def _product_purification(psi1: Purification, psi2: Purification) -> Purification:
    w1, w2 = psi1.as_matrix(), psi2.as_matrix()
    w = np.einsum("ij,kl->ikjl", w1, w2)
    d_r = psi1.reference_dim * psi2.reference_dim
    d_a = psi1.system_dims[0] * psi2.system_dims[0]
    return Purification(w.reshape(-1), d_r, (d_a,))


def _marginal_cq(sigma, ref_dims: tuple[int, int], keep: int, outcome_shape: tuple[int, int]):
    """Reduce a joint cq state to (R_i, X_i)."""
    k1, k2 = outcome_shape
    ops = {x: np.zeros((ref_dims[keep], ref_dims[keep]), dtype=complex) for x in range(outcome_shape[keep])}
    probs = np.zeros(outcome_shape[keep])
    for x, op in enumerate(sigma.conditional_ops):
        x1, x2 = divmod(x, k2)
        xi = x1 if keep == 0 else x2
        ops[xi] += partial_trace(op, list(ref_dims), [keep])
        probs[xi] += sigma.probs[x]
    return CqState(probs, tuple(ops[x] for x in range(outcome_shape[keep])), (ref_dims[keep],))


def check_example(n_povms: int = 100, seed: int = 0) -> dict:
    """Anchor point and classical saturation of the worked qubit example."""
    rng = np.random.default_rng(seed)
    rho = example_source()
    psi = purify(rho)
    delta = example_observable()
    checks = []

    trivial = Povm((np.eye(2) / 2, np.eye(2) / 2))
    d_val = distortion(psi, trivial, delta)
    i_val = mutual_information_cq(induced_cq_state(psi, trivial))
    checks.append(_check("anchor-distortion-quarter", abs(d_val - 0.25) <= 1e-12, abs(d_val - 0.25), 1e-12))
    checks.append(_check("anchor-rate-zero", abs(i_val) <= 1e-12, abs(i_val), 1e-12))

    basis = eig_hermitian(rho.mat).eigenvectors
    worst = 0.0
    for _ in range(n_povms):
        q = rng.dirichlet(np.ones(2), size=2)  # q[z, x]
        effects = tuple(
            (basis * q[:, x]) @ basis.conj().T for x in range(2)
        )
        d_diag = distortion(psi, Povm(effects), delta)
        worst = max(worst, abs(d_diag - 0.25))
    checks.append(_check("diagonal-povms-saturate", worst <= 1e-10, worst, 1e-10))

    return _report("example", checks)


def check_oracle(n_observables: int = 2, n_grid: int = 3, seed: int = 0,
                 opts: SolverOptions | None = None) -> dict:
    """Lagrangian descent against Blahut-Arimoto on diagonal observables."""
    rng = np.random.default_rng(seed)
    opts = opts or SolverOptions(max_iterations=1500, convergence_tol=1e-7)
    checks = []
    worst = 0.0
    for i in range(n_observables):
        dim = 2 if i % 2 == 0 else 3
        rho = random_density(rng, dim)
        costs = rng.uniform(0.0, 2.0, size=(dim, 2))
        eig = eig_hermitian(rho.mat)
        delta = classical_cost_observable(costs, eig.eigenvectors)
        p = np.clip(eig.eigenvalues, 0.0, None)
        p /= p.sum()
        d_floor = float((p * costs.min(axis=1)).sum())
        d_zero = float((p @ costs).min())
        targets = d_floor + (np.arange(1, n_grid + 1) / (n_grid + 1)) * (d_zero - d_floor)
        solved = minimize_rate_curve(purify(rho), delta, targets, 2, opts)
        for target, point in zip(targets, solved):
            oracle = blahut_arimoto(p, costs, float(target))
            gap = abs(point.rate - oracle) if point is not None and oracle is not None else np.inf
            worst = max(worst, gap)
    checks.append(_check("blahut-arimoto-equivalence", worst <= _ORACLE_TOL, worst, _ORACLE_TOL))
    return _report("oracle", checks)


def check_qsi(instances: int = 5, cmi_instances: int = 50, seed: int = 0,
              opts: SolverOptions | None = None) -> dict:
    """Trivial side information reduces to the plain solver; CMI matches the
    full-density-matrix computation."""
    rng = np.random.default_rng(seed)
    opts = opts or SolverOptions(max_iterations=800, convergence_tol=1e-6)
    checks = []

    worst_red = 0.0
    for _ in range(instances):
        rho = random_density(rng, 2)
        costs = rng.uniform(0.0, 1.5, size=(2, 2))
        eig = eig_hermitian(rho.mat)
        delta = classical_cost_observable(costs, eig.eigenvectors)
        target = float(rng.uniform(0.15, 0.6)) * delta.d_max
        plain = minimize_rate(purify(rho), delta, target, 2, opts)
        psi3 = purify_joint(rho, (2, 1))
        qsi = minimize_rate(psi3, delta, target, 2, opts)
        if (plain is None) != (qsi is None):
            worst_red = np.inf
        elif plain is not None:
            worst_red = max(worst_red, abs(plain.rate - qsi.rate))
    checks.append(_check("trivial-side-info-reduction", worst_red <= opts.convergence_tol,
                         worst_red, opts.convergence_tol))

    worst_cmi = 0.0
    for _ in range(cmi_instances):
        joint = random_density(rng, 4)
        psi = purify_joint(joint, (2, 2))
        povm = sample_random_povm(2, 2, rng.integers(2**63))
        sigma = induced_cq_state(psi, povm)
        worst_cmi = max(worst_cmi, abs(conditional_mutual_information_cq(sigma) - _cmi_full_matrix(sigma)))
    checks.append(_check("cmi-density-matrix-oracle", worst_cmi <= 1e-10, worst_cmi, 1e-10))

    return _report("qsi", checks)


def _cmi_full_matrix(sigma) -> float:
    """I(X;R|B) = H(XB) + H(RB) - H(B) - H(XRB) on the assembled density matrix."""
    k = sigma.outcome_count
    d_r, d_b = sigma.factor_dims
    d = k * d_r * d_b
    full = np.zeros((d, d), dtype=complex)
    for x, op in enumerate(sigma.conditional_ops):
        proj = np.zeros((k, k))
        proj[x, x] = 1.0
        full += np.kron(proj, op)

    def h(mat):
        return entropy_terms(np.clip(np.linalg.eigvalsh(mat), 0.0, None))

    dims = [k, d_r, d_b]
    return (
        h(partial_trace(full, dims, [0, 2]))
        + h(partial_trace(full, dims, [1, 2]))
        - h(partial_trace(full, dims, [2]))
        - h(full)
    )


SUITES = {
    "lemmas": check_lemmas,
    "example": check_example,
    "oracle": check_oracle,
    "qsi": check_qsi,
}
