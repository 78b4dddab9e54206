import math

import numpy as np
import pytest

from qcrd import (
    CqState,
    DensityOperator,
    InvalidDistribution,
    Povm,
    conditional_mutual_information_cq,
    dephase,
    eig_hermitian,
    example_source,
    induced_cq_state,
    mutual_information_cq,
    partial_trace,
    purify,
    purify_joint,
    sample_random_povm,
    shannon_entropy,
    tensor,
    von_neumann_entropy,
)
from qcrd.information import EIG_FLOOR, _ordered_sum, entropy_terms

SIN2 = (2 - math.sqrt(2)) / 4  # smaller eigenvalue of the example source


def binary_entropy(p):
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def random_density(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return DensityOperator(m / m.trace().real)


def entropy_of(mat):
    w = np.clip(np.linalg.eigvalsh(mat), 0.0, None)
    w = w[w > 1e-14]
    return float(-(w * np.log2(w)).sum())


def cq_full_matrix(sigma):
    """Assemble sum_x |x><x| (x) sigma_x with the classical register first."""
    k = sigma.outcome_count
    d = sigma.quantum_dim
    full = np.zeros((k * d, k * d), dtype=complex)
    for x, op in enumerate(sigma.conditional_ops):
        full[x * d : (x + 1) * d, x * d : (x + 1) * d] = op
    return full


class TestShannonEntropy:
    def test_deterministic(self):
        assert shannon_entropy([1.0, 0.0]) == 0.0

    def test_uniform_bit(self):
        assert abs(shannon_entropy([0.5, 0.5]) - 1.0) < 1e-12

    def test_example_spectrum(self):
        got = shannon_entropy([1 - SIN2, SIN2])
        assert abs(got - binary_entropy(SIN2)) < 1e-12
        assert abs(got - 0.6008760366928562) < 1e-12

    def test_rejects_negative(self):
        with pytest.raises(InvalidDistribution):
            shannon_entropy([1.2, -0.2])

    def test_rejects_unnormalized(self):
        with pytest.raises(InvalidDistribution):
            shannon_entropy([0.5, 0.4])

    def test_rejects_empty(self):
        with pytest.raises(InvalidDistribution):
            shannon_entropy([])


class TestVonNeumannEntropy:
    def test_pure_state(self):
        assert abs(von_neumann_entropy(DensityOperator(np.diag([1.0, 0.0])))) < 1e-12

    def test_maximally_mixed_qubit(self):
        assert abs(von_neumann_entropy(DensityOperator(np.eye(2) / 2)) - 1.0) < 1e-12

    def test_example_source(self):
        got = von_neumann_entropy(example_source())
        assert abs(got - binary_entropy(SIN2)) < 1e-9

    def test_matches_shannon_on_spectrum(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            rho = random_density(rng, int(rng.integers(2, 6)))
            w = np.clip(np.linalg.eigvalsh(rho.mat), 0.0, None)
            assert abs(von_neumann_entropy(rho) - shannon_entropy(w / w.sum())) < 1e-9


class TestOrderedSum:
    @pytest.mark.parametrize("shape", [(1,), (9,), (3, 2), (5, 9), (2048, 2), (300, 8), (1000, 8), (64, 4, 10)])
    def test_left_to_right_in_any_layout(self, shape):
        # reference: the terms added one at a time in Python; the layouts are
        # C order and reversed axes (the sample-last order of a sweep), and the
        # shapes reach both the accumulate and the add-per-term branch
        rng = np.random.default_rng(len(shape) * 100 + shape[-1])
        t = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)
        expected = np.empty(shape[:-1])
        for idx in np.ndindex(*shape[:-1]):
            acc = t[idx][0]
            for term in t[idx][1:]:
                acc = acc + term
            expected[idx] = acc
        reversed_axes = np.ascontiguousarray(t.transpose()).transpose()
        for layout in (t, reversed_axes):
            assert _ordered_sum(layout).tobytes() == expected.tobytes()


class TestEntropyTerms:
    @pytest.mark.parametrize("shape", [(9,), (5, 3), (2048, 2)])
    def test_clipping_first_changes_no_bit(self, shape):
        # weights at or below the floor count as zero, negative and NaN ones
        # included, so callers pass eigenvalues and probabilities unclipped;
        # the shapes reach both branches of the ordered sum
        rng = np.random.default_rng(shape[-1])
        w = rng.uniform(-0.5, 1.0, shape)
        w.flat[::7] = np.nan
        w.flat[1::7] = -0.0
        w.flat[2::7] = EIG_FLOOR
        w.flat[3::7] = -EIG_FLOOR
        for layout in (w, np.ascontiguousarray(w.transpose()).transpose()):
            assert entropy_terms(layout).tobytes() == entropy_terms(np.clip(layout, 0.0, None)).tobytes()


class TestMutualInformation:
    def test_product_state_carries_nothing(self):
        sigma = induced_cq_state(purify(example_source()), Povm((np.eye(2) / 2, np.eye(2) / 2)))
        assert abs(mutual_information_cq(sigma)) < 1e-12

    def test_eigenbasis_measurement_reads_out_full_entropy(self):
        rho = example_source()
        eig = eig_hermitian(rho.mat)
        effects = tuple(np.outer(eig.eigenvectors[:, i], eig.eigenvectors[:, i].conj()) for i in range(2))
        sigma = induced_cq_state(purify(rho), Povm(effects))
        assert abs(mutual_information_cq(sigma) - binary_entropy(SIN2)) < 1e-9

    def test_maximally_correlated_classical_state(self):
        sigma = CqState(
            np.array([0.5, 0.5]),
            (np.diag([0.5, 0.0]), np.diag([0.0, 0.5])),
            (2,),
        )
        assert abs(mutual_information_cq(sigma) - 1.0) < 1e-12

    def test_nonnegative_and_bounded(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            dim = int(rng.integers(2, 5))
            rho = random_density(rng, dim)
            povm = sample_random_povm(dim, int(rng.integers(1, 5)), rng.integers(2**63))
            sigma = induced_cq_state(purify(rho), povm)
            mi = mutual_information_cq(sigma)
            assert mi >= -1e-9
            h_x = shannon_entropy(np.clip(sigma.probs, 0, None) / sigma.probs.sum())
            h_r = von_neumann_entropy(rho)
            assert mi <= min(h_x, h_r) + 1e-9

    def test_matches_full_matrix_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            dim = int(rng.integers(2, 4))
            rho = random_density(rng, dim)
            povm = sample_random_povm(dim, int(rng.integers(2, 4)), rng.integers(2**63))
            sigma = induced_cq_state(purify(rho), povm)
            full = cq_full_matrix(sigma)
            k = sigma.outcome_count
            # oracle: H(X) + H(R) - H(XR) from the assembled density matrix
            expected = (
                entropy_of(partial_trace(full, [k, dim], [0]))
                + entropy_of(partial_trace(full, [k, dim], [1]))
                - entropy_of(full)
            )
            assert abs(mutual_information_cq(sigma) - expected) < 1e-10

    def test_dephasing_reduces_information(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            dim = int(rng.integers(2, 4))
            rho = random_density(rng, dim)
            basis = eig_hermitian(rho.mat).eigenvectors
            povm = sample_random_povm(dim, 2, rng.integers(2**63))
            sigma = induced_cq_state(purify(rho), povm)
            dephased = CqState(
                sigma.probs,
                tuple(dephase(op, basis) for op in sigma.conditional_ops),
                sigma.factor_dims,
            )
            assert mutual_information_cq(dephased) <= mutual_information_cq(sigma) + 1e-9


class TestConditionalMutualInformation:
    def test_one_dimensional_side_factor(self):
        rng = np.random.default_rng(11)
        rho = random_density(rng, 3)
        povm = sample_random_povm(3, 2, 13)
        plain = mutual_information_cq(induced_cq_state(purify(rho), povm))
        lifted = conditional_mutual_information_cq(
            induced_cq_state(purify_joint(rho, (3, 1)), povm)
        )
        assert abs(plain - lifted) < 1e-12
        for d_a in (1, 2, 4):
            rho = random_density(rng, d_a)
            povm = sample_random_povm(d_a, 3, rng.integers(2**63))
            plain = mutual_information_cq(induced_cq_state(purify(rho), povm))
            lifted = conditional_mutual_information_cq(
                induced_cq_state(purify_joint(rho, (d_a, 1)), povm)
            )
            assert abs(plain - lifted) < 1e-12

    def test_uncorrelated_side_factor_drops_out(self):
        rng = np.random.default_rng(13)
        tau = random_density(rng, 2).mat
        probs = np.array([0.4, 0.6])
        blocks_r = tuple(probs[x] * random_density(rng, 2).mat for x in range(2))
        sigma_r = CqState(probs, blocks_r, (2,))
        sigma_rb = CqState(probs, tuple(tensor(b, tau) for b in blocks_r), (2, 2))
        got = conditional_mutual_information_cq(sigma_rb)
        assert abs(got - mutual_information_cq(sigma_r)) < 1e-10

    def test_difference_form_matches_four_entropies(self):
        rng = np.random.default_rng(17)
        # 100 two-qubit (A, B) instances, then (d_A, 1) purifications
        cases = [(4, (2, 2))] * 100 + [(2, (2, 1)), (3, (3, 1)), (4, (4, 1))]
        for dim, dims in cases:
            joint = random_density(rng, dim)
            psi = purify_joint(joint, dims)
            povm = sample_random_povm(dims[0], int(rng.integers(2, 4)), rng.integers(2**63))
            sigma = induced_cq_state(psi, povm)
            full = cq_full_matrix(sigma)
            k = sigma.outcome_count
            d_r, d_b = sigma.factor_dims
            dims = [k, d_r, d_b]
            expected = (
                entropy_of(partial_trace(full, dims, [0, 2]))
                + entropy_of(partial_trace(full, dims, [1, 2]))
                - entropy_of(partial_trace(full, dims, [2]))
                - entropy_of(full)
            )
            assert abs(conditional_mutual_information_cq(sigma) - expected) < 1e-10

    def test_chain_rule_bound(self):
        # I(X;R|B) <= I(X;RB): conditioning never exceeds the joint information
        rng = np.random.default_rng(19)
        for _ in range(50):
            joint = random_density(rng, 4)
            psi = purify_joint(joint, (2, 2))
            povm = sample_random_povm(2, 2, rng.integers(2**63))
            sigma = induced_cq_state(psi, povm)
            joint_mi = mutual_information_cq(sigma)
            assert conditional_mutual_information_cq(sigma) <= joint_mi + 1e-9

    def test_nonnegative(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            joint = random_density(rng, 4)
            sigma = induced_cq_state(purify_joint(joint, (2, 2)), sample_random_povm(2, 2, rng.integers(2**63)))
            assert conditional_mutual_information_cq(sigma) >= -1e-9

    def test_requires_factor_dims(self):
        sigma = CqState(np.array([1.0]), (np.eye(2) / 2,), (2,))
        with pytest.raises(ValueError):
            conditional_mutual_information_cq(sigma)


class TestConvexityInThePovm:
    """I(X;R) = sum_x D(sigma_x || p_x rho_R) is jointly convex in the effects, and
    I(X;R|B) = const - sum_x D(sigma_x || 1_R (x) Tr_R sigma_x) is too: rate
    distortion over POVMs is a convex program in both settings."""

    @pytest.mark.parametrize("side", [False, True])
    def test_rate_of_a_mixture_is_below_the_chord(self, side):
        rng = np.random.default_rng(31 if side else 30)
        worst = -np.inf
        info = conditional_mutual_information_cq if side else mutual_information_cq
        for _ in range(200):
            dim = 2 if side else int(rng.integers(2, 4))
            psi = purify_joint(random_density(rng, 4), (2, 2)) if side else purify(random_density(rng, dim))

            def rate(povm):
                return info(induced_cq_state(psi, povm))

            k = int(rng.integers(2, 4))
            a = sample_random_povm(dim, k, rng.integers(2**63))
            b = sample_random_povm(dim, k, rng.integers(2**63))
            t = float(rng.uniform())
            mixed = Povm(tuple(t * ea + (1.0 - t) * eb for ea, eb in zip(a.effects, b.effects)))
            worst = max(worst, rate(mixed) - (t * rate(a) + (1.0 - t) * rate(b)))
        assert worst <= 1e-10


class TestSuperadditivity:
    @staticmethod
    def product_purification(psi1, psi2):
        from qcrd import Purification

        w = np.einsum("ij,kl->ikjl", psi1.as_matrix(), psi2.as_matrix())
        d_r = psi1.reference_dim * psi2.reference_dim
        d_a = psi1.system_dims[0] * psi2.system_dims[0]
        return Purification(w.reshape(-1), d_r, (d_a,))

    def test_equality_for_product_measurements(self):
        rng = np.random.default_rng(29)
        for _ in range(5):
            d1, d2 = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            psi1, psi2 = purify(random_density(rng, d1)), purify(random_density(rng, d2))
            p1, p2 = (
                sample_random_povm(d1, 2, rng.integers(2**63)),
                sample_random_povm(d2, 2, rng.integers(2**63)),
            )
            joint_povm = Povm(tuple(tensor(a, b) for a in p1.effects for b in p2.effects))
            i_joint = mutual_information_cq(induced_cq_state(self.product_purification(psi1, psi2), joint_povm))
            i_split = mutual_information_cq(induced_cq_state(psi1, p1)) + mutual_information_cq(
                induced_cq_state(psi2, p2)
            )
            assert abs(i_joint - i_split) < 1e-9

    def test_joint_measurements_are_superadditive(self):
        rng = np.random.default_rng(31)
        psi1, psi2 = purify(random_density(rng, 2)), purify(random_density(rng, 2))
        psi12 = self.product_purification(psi1, psi2)
        for _ in range(50):
            povm = sample_random_povm(4, 4, rng.integers(2**63))
            sigma = induced_cq_state(psi12, povm)
            marg1 = self.marginal(sigma, (2, 2), 0, (2, 2))
            marg2 = self.marginal(sigma, (2, 2), 1, (2, 2))
            gap = mutual_information_cq(sigma) - mutual_information_cq(marg1) - mutual_information_cq(marg2)
            assert gap >= -1e-9

    @staticmethod
    def marginal(sigma, ref_dims, keep, outcome_shape):
        k1, k2 = outcome_shape
        d = ref_dims[keep]
        k_keep = outcome_shape[keep]
        probs = np.zeros(k_keep)
        ops = [np.zeros((d, d), dtype=complex) for _ in range(k_keep)]
        for x, op in enumerate(sigma.conditional_ops):
            x1, x2 = divmod(x, k2)
            xi = x1 if keep == 0 else x2
            probs[xi] += sigma.probs[x]
            ops[xi] += partial_trace(op, list(ref_dims), [keep])
        return CqState(probs, tuple(ops), (d,))
