import numpy as np
import pytest

from qcrd import (
    DensityOperator,
    DimensionMismatch,
    DistortionObservable,
    NotPositiveSemidefinite,
    Povm,
    Purification,
    classical_cost_observable,
    distortion,
    distortion_qsi,
    eig_hermitian,
    eigenbasis_observable,
    example_observable,
    example_source,
    induced_cq_state,
    pinch_povm,
    purify,
    purify_joint,
    sample_random_povm,
    tensor,
)

PLUS = np.array([1.0, 1.0]) / np.sqrt(2)
ZERO = np.array([1.0, 0.0])
TRIVIAL = ((np.eye(2) / 2, np.eye(2) / 2))


def random_density(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return DensityOperator(m / m.trace().real)


def diagonal_povm(basis, channel):
    """POVM with effects sum_z q(x|z) |v_z><v_z|; channel[z, x] rows on the simplex."""
    return Povm(tuple((basis * channel[:, x]) @ basis.conj().T for x in range(channel.shape[1])))


class TestObservableType:
    def test_blocks_must_be_psd(self):
        with pytest.raises(NotPositiveSemidefinite):
            DistortionObservable((np.diag([1.0, -1.0]),))

    def test_blocks_must_share_dims(self):
        with pytest.raises(DimensionMismatch):
            DistortionObservable((np.eye(2), np.eye(3)))

    def test_d_max_cached(self):
        obs = DistortionObservable((np.diag([0.2, 0.7]), np.diag([1.3, 0.1])))
        assert abs(obs.d_max - 1.3) < 1e-12


class TestExampleObservable:
    def test_block_kernels(self):
        obs = example_observable()
        assert np.abs(obs.blocks[0] @ PLUS).max() < 1e-12
        assert np.abs(obs.blocks[1] @ ZERO).max() < 1e-12
        for b in obs.blocks:
            assert np.allclose(np.sort(np.linalg.eigvalsh(b)), [0.0, 1.0], atol=1e-12)

    def test_d_max_is_one(self):
        assert abs(example_observable().d_max - 1.0) < 1e-12

    def test_anchor_distortion_with_trivial_povm(self):
        d = distortion(purify(example_source()), Povm(TRIVIAL), example_observable())
        assert abs(d - 0.25) < 1e-12

    def test_eigenbasis_projectors_also_give_quarter(self):
        rho = example_source()
        eig = eig_hermitian(rho.mat)
        effects = tuple(np.outer(eig.eigenvectors[:, i], eig.eigenvectors[:, i].conj()) for i in range(2))
        d = distortion(purify(rho), Povm(effects), example_observable())
        assert abs(d - 0.25) < 1e-10

    def test_every_diagonal_povm_saturates_quarter(self):
        rng = np.random.default_rng(2)
        rho = example_source()
        psi = purify(rho)
        obs = example_observable()
        basis = eig_hermitian(rho.mat).eigenvectors
        for _ in range(100):
            povm = diagonal_povm(basis, rng.dirichlet(np.ones(2), size=2))
            assert abs(distortion(psi, povm, obs) - 0.25) < 1e-10


class TestEigenbasisObservable:
    def test_qubit_blocks(self):
        rng = np.random.default_rng(3)
        rho = random_density(rng, 2)
        obs = eigenbasis_observable(rho)
        assert obs.outcome_count == 2
        assert abs(obs.d_max - 1.0) < 1e-12
        for b in obs.blocks:
            assert np.allclose(np.sort(np.linalg.eigvalsh(b)), [0.0, 1.0], atol=1e-12)

    def test_blocks_diagonal_in_schmidt_basis(self):
        rng = np.random.default_rng(5)
        rho = random_density(rng, 3)
        v = eig_hermitian(rho.mat).eigenvectors
        for b in eigenbasis_observable(rho).blocks:
            rotated = v.conj().T @ b @ v
            off = rotated - np.diag(np.diag(rotated))
            assert np.abs(off).max() < 1e-10

    def test_perfect_readout_has_zero_distortion(self):
        rng = np.random.default_rng(7)
        rho = random_density(rng, 3)
        v = eig_hermitian(rho.mat).eigenvectors
        effects = tuple(np.outer(v[:, i], v[:, i].conj()) for i in range(3))
        d = distortion(purify(rho), Povm(effects), eigenbasis_observable(rho))
        assert abs(d) < 1e-12


class TestClassicalCostObservable:
    def test_hamming_blocks(self):
        obs = classical_cost_observable(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2))
        assert np.allclose(obs.blocks[0], np.diag([0.0, 1.0]), atol=1e-12)
        assert np.allclose(obs.blocks[1], np.diag([1.0, 0.0]), atol=1e-12)

    def test_zero_costs_give_zero_distortion(self):
        rng = np.random.default_rng(11)
        rho = random_density(rng, 2)
        obs = classical_cost_observable(np.zeros((2, 3)), eig_hermitian(rho.mat).eigenvectors)
        psi = purify(rho)
        for seed in range(5):
            assert distortion(psi, sample_random_povm(2, 3, seed), obs) == 0.0

    def test_identity_channel_on_skewed_source(self):
        p = np.array([0.8535533905932737, 0.1464466094067262])
        rho = DensityOperator(np.diag(p))
        obs = classical_cost_observable(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2))
        povm = Povm((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
        assert abs(distortion(purify(rho), povm, obs)) < 1e-12

    def test_reproduces_classical_average_distortion(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            dim, k = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            rho = random_density(rng, dim)
            eig = eig_hermitian(rho.mat)
            costs = rng.uniform(0.0, 2.0, size=(dim, k))
            channel = rng.dirichlet(np.ones(k), size=dim)
            obs = classical_cost_observable(costs, eig.eigenvectors)
            got = distortion(purify(rho), diagonal_povm(eig.eigenvectors, channel), obs)
            expected = sum(
                eig.eigenvalues[z] * channel[z, x] * costs[z, x]
                for z in range(dim)
                for x in range(k)
            )
            assert abs(got - expected) < 1e-10

    def test_rejects_negative_costs(self):
        with pytest.raises(ValueError):
            classical_cost_observable(np.array([[0.0, -1.0]]), np.eye(1))


class TestDistortionEvaluation:
    def test_agrees_with_bilinear_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            dim, k = int(rng.integers(2, 4)), int(rng.integers(1, 4))
            rho = random_density(rng, dim)
            psi = purify(rho)
            povm = sample_random_povm(dim, k, rng.integers(2**63))
            blocks = tuple(random_density(rng, dim).mat * rng.uniform(0.5, 2.0) for _ in range(k))
            obs = DistortionObservable(blocks)
            got = distortion(psi, povm, obs)
            # oracle: assemble sum_x block_x (x) effect_x and take <psi|.|psi>
            joint = sum(tensor(b, e) for b, e in zip(obs.blocks, povm.effects))
            expected = float((psi.vector.conj() @ joint @ psi.vector).real)
            assert abs(got - expected) < 1e-10
            # and the induced-state route
            sigma = induced_cq_state(psi, povm)
            alt = sum(float(np.einsum("ij,ji->", b, op).real) for b, op in zip(obs.blocks, sigma.conditional_ops))
            assert abs(got - alt) < 1e-10

    def test_affine_in_povm_mixtures(self):
        rng = np.random.default_rng(19)
        rho = random_density(rng, 2)
        psi = purify(rho)
        obs = example_observable() if rho.dim == 2 else None
        a = sample_random_povm(2, 2, 1)
        b = sample_random_povm(2, 2, 2)
        for t in (0.25, 0.5, 0.9):
            mixed = Povm(tuple(t * x + (1 - t) * y for x, y in zip(a.effects, b.effects)))
            expected = t * distortion(psi, a, obs) + (1 - t) * distortion(psi, b, obs)
            assert abs(distortion(psi, mixed, obs) - expected) < 1e-10

    def test_bounds(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            dim = int(rng.integers(2, 4))
            rho = random_density(rng, dim)
            obs = eigenbasis_observable(rho)
            d = distortion(purify(rho), sample_random_povm(dim, dim, rng.integers(2**63)), obs)
            assert -1e-12 <= d <= obs.d_max + 1e-12

    def test_pinching_preserves_distortion_for_diagonal_observables(self):
        rng = np.random.default_rng(29)
        for _ in range(1000):
            dim = int(rng.integers(2, 4))
            rho = random_density(rng, dim)
            eig = eig_hermitian(rho.mat)
            costs = rng.uniform(0.0, 2.0, size=(dim, 2))
            obs = classical_cost_observable(costs, eig.eigenvectors)
            povm = sample_random_povm(dim, 2, rng.integers(2**63))
            psi = purify(rho)
            before = distortion(psi, povm, obs)
            after = distortion(psi, pinch_povm(povm, eig.eigenvectors), obs)
            assert abs(before - after) < 1e-10

    def test_outcome_mismatch_is_an_error(self):
        psi = purify(example_source())
        with pytest.raises(DimensionMismatch):
            distortion(psi, Povm((np.eye(2),)), example_observable())

    def test_dimension_mismatch_is_an_error(self):
        rng = np.random.default_rng(31)
        psi = purify(random_density(rng, 3))
        with pytest.raises(DimensionMismatch):
            distortion(psi, sample_random_povm(3, 2, 1), example_observable())


class TestDistortionQsi:
    def test_trivial_side_factor_matches_plain(self):
        rng = np.random.default_rng(37)
        rho = random_density(rng, 2)
        obs = example_observable()
        povm = sample_random_povm(2, 2, 5)
        plain = distortion(purify(rho), povm, obs)
        lifted = distortion(purify_joint(rho, (2, 1)), povm, obs)
        assert abs(plain - lifted) < 1e-12
        # (d_A, 1) purifications for further system sizes, with a full-rank observable
        for d_a in (1, 3, 4):
            rho = random_density(rng, d_a)
            povm = sample_random_povm(d_a, 3, rng.integers(2**63))
            obs = DistortionObservable(tuple(random_density(rng, d_a).mat for _ in range(3)))
            plain = distortion(purify(rho), povm, obs)
            lifted = distortion(purify_joint(rho, (d_a, 1)), povm, obs)
            assert abs(plain - lifted) < 1e-12

    def test_identity_side_blocks_ignore_side_factor(self):
        rng = np.random.default_rng(41)
        rho = random_density(rng, 2)
        psi = purify(rho)
        w = psi.as_matrix()
        phi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        phi /= np.linalg.norm(phi)
        extended = Purification(np.einsum("ra,b->rab", w, phi).reshape(-1), 2, (2, 2))
        obs = example_observable()
        lifted = DistortionObservable(tuple(tensor(b, np.eye(2)) for b in obs.blocks))
        povm = sample_random_povm(2, 2, 9)
        assert abs(distortion(extended, povm, lifted) - distortion(psi, povm, obs)) < 1e-10

    def test_matches_index_summation_oracle(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            joint = random_density(rng, 4)
            psi = purify_joint(joint, (2, 2))
            povm = sample_random_povm(2, 2, rng.integers(2**63))
            blocks = tuple(random_density(rng, 8).mat * rng.uniform(0.5, 2.0) for _ in range(2))
            obs = DistortionObservable(blocks)
            got = distortion(psi, povm, obs)
            t = psi.as_tensor()
            expected = 0.0
            for x, block in enumerate(obs.blocks):
                b4 = block.reshape(4, 2, 4, 2)  # (r, b, r', b') indices on reference (x) side
                e = povm.effects[x]
                for r in range(4):
                    for bb in range(2):
                        for s in range(4):
                            for dd in range(2):
                                for a in range(2):
                                    for c in range(2):
                                        expected += (
                                            b4[s, dd, r, bb] * e[a, c] * t[r, c, bb] * np.conj(t[s, a, dd])
                                        ).real
            assert abs(got - expected) < 1e-10

    def test_dim_checks(self):
        rng = np.random.default_rng(47)
        psi = purify_joint(random_density(rng, 4), (2, 2))
        with pytest.raises(DimensionMismatch):
            distortion(psi, sample_random_povm(2, 2, 1), example_observable())

    def test_deprecated_alias_is_distortion(self):
        rng = np.random.default_rng(53)
        psi3 = purify_joint(random_density(rng, 4), (2, 2))
        obs = DistortionObservable(tuple(random_density(rng, 8).mat for _ in range(2)))
        povm = sample_random_povm(2, 2, 3)
        assert distortion_qsi(psi3, povm, obs) == distortion(psi3, povm, obs)
        with pytest.raises(DimensionMismatch):
            distortion_qsi(purify(random_density(rng, 2)), povm, example_observable())
