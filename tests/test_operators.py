import numpy as np
import pytest

from qcrd import (
    DimensionMismatch,
    DistortionObservable,
    NotPositiveSemidefinite,
    Povm,
    eig_hermitian,
    partial_trace,
    sqrt_psd,
    tensor,
    trace_distance,
)

COS2 = (2 + np.sqrt(2)) / 4  # cos^2(pi/8)
SIN2 = (2 - np.sqrt(2)) / 4  # sin^2(pi/8)

PHI0 = np.array([np.cos(np.pi / 8), np.sin(np.pi / 8)])
PHI1 = np.array([np.sin(np.pi / 8), -np.cos(np.pi / 8)])
EXAMPLE_RHO = COS2 * np.outer(PHI0, PHI0) + SIN2 * np.outer(PHI1, PHI1)


def random_hermitian(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return g + g.conj().T


def random_psd(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return g @ g.conj().T


class TestTensor:
    def test_identity_times_identity(self):
        assert np.array_equal(tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_basis_projectors(self):
        out = tensor(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        assert np.allclose(out, np.diag([0.0, 1.0, 0.0, 0.0]))

    def test_sigma_z_pair_spectrum(self):
        sz = np.diag([1.0, -1.0])
        # oracle: direct eigendecomposition of the explicit 4x4 product
        explicit = np.diag([1.0, -1.0, -1.0, 1.0])
        expected = np.sort(np.linalg.eigvalsh(explicit))
        got = np.sort(np.linalg.eigvalsh(tensor(sz, sz)))
        assert np.allclose(got, expected, atol=1e-12)
        assert np.allclose(np.sort(got), [-1.0, -1.0, 1.0, 1.0], atol=1e-12)

    def test_first_factor_is_slow_index(self):
        a = np.diag([2.0, 3.0])
        b = np.diag([5.0, 7.0])
        assert np.allclose(np.diag(tensor(a, b)), [10.0, 14.0, 15.0, 21.0])

    def test_dimension_cap(self):
        with pytest.raises(DimensionMismatch):
            tensor(np.eye(16), np.eye(16))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            tensor(np.ones((2, 3)), np.eye(2))

    def test_rejects_non_finite_entries(self):
        with pytest.raises(ValueError):
            tensor(np.array([[np.nan, 0.0], [0.0, 1.0]]), np.eye(2))


class TestPartialTrace:
    def test_product_state(self):
        rng = np.random.default_rng(1)
        rho_a = random_psd(rng, 2)
        rho_b = random_psd(rng, 3)
        rho_b /= rho_b.trace().real
        out = partial_trace(tensor(rho_a, rho_b), [2, 3], [0])
        assert np.allclose(out, rho_a, atol=1e-12)

    def test_bell_projector(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        proj = np.outer(bell, bell.conj())
        assert np.allclose(partial_trace(proj, [2, 2], [1]), np.eye(2) / 2, atol=1e-12)

    def test_example_purification_reduces_to_source(self):
        coeffs = np.array([np.cos(np.pi / 8), np.sin(np.pi / 8)])
        psi = coeffs[0] * np.kron(PHI0, PHI0) + coeffs[1] * np.kron(PHI1, PHI1)
        proj = np.outer(psi, psi.conj())
        reduced = partial_trace(proj, [2, 2], [1])
        assert np.abs(reduced - EXAMPLE_RHO).max() < 1e-12

    @pytest.mark.parametrize("dims", [(2, 3), (2, 2, 2), (4, 2)])
    def test_trace_preserved(self, dims):
        rng = np.random.default_rng(7)
        for _ in range(50):
            m = random_psd(rng, int(np.prod(dims)))
            for keep in range(len(dims)):
                out = partial_trace(m, list(dims), [keep])
                assert abs(out.trace() - m.trace()) < 1e-12 * max(1.0, abs(m.trace()))

    def test_tensor_then_trace_recovers_scaled_factor(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            a = random_psd(rng, 3)
            b = random_psd(rng, 2)
            out = partial_trace(tensor(a, b), [3, 2], [0])
            assert np.abs(out - b.trace() * a).max() < 1e-12 * max(1.0, abs(b.trace()))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            partial_trace(np.eye(6), [2, 2], [0])

    def test_bad_keep_index(self):
        with pytest.raises(DimensionMismatch):
            partial_trace(np.eye(4), [2, 2], [2])

    def test_empty_keep(self):
        with pytest.raises(DimensionMismatch):
            partial_trace(np.eye(4), [2, 2], [])


class TestEigHermitian:
    def test_diagonal_fixture(self):
        eig = eig_hermitian(np.diag([3.0, 1.0]))
        assert np.allclose(eig.eigenvalues, [3.0, 1.0])
        assert np.allclose(np.abs(eig.eigenvectors), np.eye(2))

    def test_example_source_spectrum(self):
        eig = eig_hermitian(EXAMPLE_RHO)
        assert np.allclose(eig.eigenvalues, [COS2, SIN2], atol=1e-12)
        assert abs(eig.eigenvalues[0] - 0.8535533905932737) < 1e-12
        assert abs(eig.eigenvalues[1] - 0.1464466094067262) < 1e-12

    def test_rank_one_projector(self):
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        eig = eig_hermitian(np.outer(plus, plus))
        assert np.allclose(eig.eigenvalues, [1.0, 0.0], atol=1e-12)

    def test_reconstruction_on_random_matrices(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            dim = int(rng.integers(1, 9))
            m = random_hermitian(rng, dim)
            eig = eig_hermitian(m)
            assert eig.eigenvalues.dtype.kind == "f"
            assert np.all(np.diff(eig.eigenvalues) <= 1e-12)
            rebuilt = (eig.eigenvectors * eig.eigenvalues) @ eig.eigenvectors.conj().T
            assert np.abs(rebuilt - m).max() < 1e-9 * max(1.0, np.abs(m).max())
            gram = eig.eigenvectors.conj().T @ eig.eigenvectors
            assert np.abs(gram - np.eye(dim)).max() < 1e-9

    def test_degenerate_spectrum_reconstructs(self):
        m = np.eye(4) * 2.0
        eig = eig_hermitian(m)
        rebuilt = (eig.eigenvectors * eig.eigenvalues) @ eig.eigenvectors.conj().T
        assert np.abs(rebuilt - m).max() < 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestSqrtPsd:
    def test_identity(self):
        assert np.allclose(sqrt_psd(np.eye(3)), np.eye(3), atol=1e-12)

    def test_diagonal(self):
        assert np.allclose(sqrt_psd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12)

    def test_example_source_root_spectrum(self):
        # oracle: eigenvalues of the root are square roots of the source spectrum
        expected = np.sqrt(eig_hermitian(EXAMPLE_RHO).eigenvalues)
        got = eig_hermitian(sqrt_psd(EXAMPLE_RHO)).eigenvalues
        assert np.allclose(got, expected, atol=1e-12)
        assert np.allclose(got, [0.9238795325112867, 0.3826834323650898], atol=1e-12)

    def test_square_reproduces_input(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            dim = int(rng.integers(1, 9))
            m = random_psd(rng, dim)
            root = sqrt_psd(m)
            assert np.abs(root @ root - m).max() < 1e-9 * max(1.0, np.abs(m).max())

    def test_small_negative_eigenvalue_clamped(self):
        m = np.diag([1.0, -0.5e-10])
        root = sqrt_psd(m)
        assert np.allclose(root, np.diag([1.0, 0.0]), atol=1e-5)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveSemidefinite):
            sqrt_psd(np.diag([1.0, -1.0]))


class TestTraceDistance:
    def test_identical_states(self):
        assert trace_distance(EXAMPLE_RHO, EXAMPLE_RHO) == 0.0

    def test_orthogonal_pure_states(self):
        assert abs(trace_distance(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) - 2.0) < 1e-12

    def test_pure_versus_maximally_mixed(self):
        # eigenvalues of the difference are +-1/2, so the distance is 1
        assert abs(trace_distance(np.diag([1.0, 0.0]), np.eye(2) / 2) - 1.0) < 1e-12

    def test_metric_properties(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            dim = int(rng.integers(2, 5))
            a, b, c = (random_hermitian(rng, dim) for _ in range(3))
            dab = trace_distance(a, b)
            assert dab >= 0.0
            assert abs(dab - trace_distance(b, a)) < 1e-10
            assert dab <= trace_distance(a, c) + trace_distance(c, b) + 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            trace_distance(np.eye(2), np.eye(3))


class TestPsdStack:
    @pytest.mark.parametrize("cls, name", [(Povm, "effect"), (DistortionObservable, "block")])
    def test_stack_checks_name_the_index(self, cls, name):
        # every case but the one broken matrix at index 1 is valid, and each stack sums to the identity
        with pytest.raises(ValueError):
            cls(())
        cases = [
            (ValueError, (np.eye(2) / 2, np.array([[0.5, 0.1], [0.0, 0.5]]))),
            (DimensionMismatch, (np.eye(2) / 2, np.eye(3) / 2)),
            (NotPositiveSemidefinite, (np.diag([1.5, 0.5]), np.diag([-0.5, 0.5]))),
        ]
        for error, mats in cases:
            with pytest.raises(error) as info:
                cls(mats)
            assert f"{name} 1 " in str(info.value)
