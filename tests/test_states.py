import dataclasses
import math

import numpy as np
import pytest

from qcrd import (
    CqState,
    DensityOperator,
    DimensionMismatch,
    DistortionObservable,
    NotPositiveSemidefinite,
    Povm,
    Purification,
    RdCurve,
    apply_measurement_map,
    dephase,
    eig_hermitian,
    example_source,
    induced_cq_state,
    partial_trace,
    pinch_povm,
    purify,
    purify_joint,
    sample_random_povm,
    sqrt_psd,
    tensor,
    trace_distance,
)
from qcrd.states import _stacked_matmul, _unit_phasors, conditional_blocks, povm_effects_from_ginibre

COS, SIN = np.cos(np.pi / 8), np.sin(np.pi / 8)
PHI0 = np.array([COS, SIN])
PHI1 = np.array([SIN, -COS])


def random_density(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return DensityOperator(m / m.trace().real)


def ginibre(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestDomainTypes:
    def test_density_operator_validates_trace(self):
        with pytest.raises(ValueError):
            DensityOperator(np.eye(2))

    def test_density_operator_validates_positivity(self):
        with pytest.raises(NotPositiveSemidefinite):
            DensityOperator(np.diag([1.5, -0.5]))

    def test_density_operator_validates_hermiticity(self):
        with pytest.raises(ValueError):
            DensityOperator(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_povm_validates_completeness(self):
        with pytest.raises(ValueError):
            Povm((np.eye(2) / 2, np.eye(2) / 3))

    def test_povm_validates_positivity(self):
        with pytest.raises(NotPositiveSemidefinite):
            Povm((np.diag([1.5, 0.5]), np.diag([-0.5, 0.5])))

    def test_povm_validates_matching_dims(self):
        with pytest.raises(DimensionMismatch):
            Povm((np.eye(2), np.eye(3)))

    def test_purification_validates_norm(self):
        with pytest.raises(ValueError):
            Purification(np.array([1.0, 1.0]), 1, (2,))

    def test_purification_shapes(self):
        v = np.zeros(8, dtype=complex)
        v[0] = 1.0
        psi = Purification(v, 2, (2, 2))
        assert psi.as_matrix().shape == (2, 4)
        assert psi.as_tensor().shape == (2, 2, 2)
        assert psi.dims == (2, 2, 2)

    def test_cq_state_validates_prob_sum(self):
        with pytest.raises(ValueError):
            CqState(np.array([0.7, 0.7]), (np.eye(2) * 0.35, np.eye(2) * 0.35), (2,))

    @pytest.mark.parametrize("make, error", [
        pytest.param(lambda: Purification(np.array([np.nan, 0.0, 0.0, 1.0]), 2, (2,)), ValueError,
                     id="purification-non-finite"),
        pytest.param(lambda: Purification(np.array([1.0]), 0, (1,)), DimensionMismatch,
                     id="purification-zero-dimension"),
        pytest.param(lambda: Purification(np.eye(8)[0], 1, (2, 2, 2)), DimensionMismatch,
                     id="purification-three-system-factors"),
        pytest.param(lambda: CqState(np.array([0.5, 0.5]), (np.eye(2) / 2,), (2,)), DimensionMismatch,
                     id="cq-state-count-mismatch"),
        pytest.param(lambda: CqState(np.array([1.0]), (np.eye(3) / 3,), (2,)), DimensionMismatch,
                     id="cq-state-operator-shape"),
        pytest.param(lambda: RdCurve(np.array([0.0, 0.1]), np.array([1.0])), ValueError,
                     id="curve-rates-length"),
        pytest.param(lambda: RdCurve(np.zeros((2, 2)), np.zeros((2, 2))), ValueError,
                     id="curve-grid-not-1d"),
        pytest.param(lambda: RdCurve(np.array([0.0, 0.1]), np.array([1.0, 0.5]), np.array([3])), ValueError,
                     id="curve-witnesses-length"),
    ])
    def test_malformed_values_rejected(self, make, error):
        with pytest.raises(error):
            make()


def _owned_case(kind):
    """(object, the caller's writable arrays it was built from) of one value type."""
    plus = np.full((2, 2), 0.5, dtype=complex)
    zero = np.diag([1.0, 0.0]).astype(complex)
    if kind == "DensityOperator":
        m = (plus + zero) / 2
        return DensityOperator(m), [m]
    if kind == "Povm":
        effects = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 0.5]).astype(complex),
                   np.diag([0.0, 0.5]).astype(complex)]
        return Povm(effects), effects
    if kind == "Povm-stack":
        stack = np.stack([plus, np.eye(2, dtype=complex) - plus])
        return Povm(stack), [stack]
    if kind == "DistortionObservable":
        blocks = [np.eye(2, dtype=complex) - plus, np.eye(2, dtype=complex) - zero]
        return DistortionObservable(blocks), blocks
    if kind == "CqState":
        probs = np.array([0.25, 0.75])
        ops = [0.25 * zero, 0.75 * plus]
        return CqState(probs, ops, (2,)), [probs, *ops]
    if kind == "Purification":
        vector = np.array([0.6, 0.0, 0.0, 0.8], dtype=complex)
        coeffs = np.array([0.8, 0.6])
        return Purification(vector, 2, (2,), schmidt_coeffs=coeffs), [vector, coeffs]
    grid, rates, witnesses = np.array([0.0, 0.1]), np.array([1.0, 0.5]), np.array([3, 4], dtype=np.intp)
    return RdCurve(grid, rates, witnesses), [grid, rates, witnesses]


class TestOwnership:
    """Value types copy what they are given: the caller's arrays stay writable,
    every stored array is read-only, and later writes to the caller's arrays
    do not reach the object."""

    ARRAY_FIELDS = {"DensityOperator": {"mat"}, "Povm": {"effects"}, "DistortionObservable": {"blocks"},
                    "CqState": {"probs", "conditional_ops"}, "Purification": {"vector", "schmidt_coeffs"},
                    "RdCurve": {"grid", "rates", "witnesses"}}

    @pytest.mark.parametrize("kind", ["DensityOperator", "Povm", "Povm-stack", "DistortionObservable",
                                      "CqState", "Purification", "RdCurve"])
    def test_value_types_own_their_arrays(self, kind):
        obj, inputs = _owned_case(kind)
        assert all(a.flags.writeable for a in inputs)
        stored = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)
                  if isinstance(getattr(obj, f.name), np.ndarray)}
        assert set(stored) == self.ARRAY_FIELDS[kind.removesuffix("-stack")]
        for name, a in stored.items():
            assert not a.flags.writeable, name
            assert a.flags.c_contiguous, name
        before = {name: a.copy() for name, a in stored.items()}
        for a in inputs:
            a[...] = 7
        for name, a in stored.items():
            assert np.array_equal(a, before[name]), name

    @pytest.mark.parametrize("kind", ["DensityOperator", "Povm", "DistortionObservable", "CqState",
                                      "Purification", "RdCurve"])
    def test_value_types_compare_by_identity(self, kind):
        obj, _ = _owned_case(kind)
        twin, _ = _owned_case(kind)
        assert (obj == obj) is True
        assert (obj == twin) is False
        assert (obj != twin) is True
        assert isinstance(hash(obj), int)
        assert {obj: 1}[obj] == 1 and len({obj, obj, twin}) == 2

    def test_families_are_read_only_stacks(self):
        effects = list(sample_random_povm(2, 3, 11).effects)
        povm = Povm(tuple(effects))
        obs = DistortionObservable([np.eye(2) * x for x in (0.0, 0.5, 1.0)])
        sigma = induced_cq_state(purify(example_source()), povm)
        for family in (povm.effects, obs.blocks, sigma.conditional_ops):
            assert type(family) is np.ndarray
            assert family.shape == (3, 2, 2)
            assert family.dtype == complex
            assert not family.flags.writeable
        assert (povm.dim, povm.outcomes, obs.dim, obs.outcome_count, sigma.outcome_count) == (2, 3, 2, 3, 3)
        assert Povm(tuple(effects)).effects.tobytes() == Povm(np.stack(effects)).effects.tobytes()


class TestPurify:
    def test_pure_source(self):
        psi = purify(DensityOperator(np.diag([1.0, 0.0])))
        assert np.allclose(psi.schmidt_coeffs, [1.0, 0.0])
        expected = np.zeros(4)
        expected[0] = 1.0
        assert np.abs(np.abs(psi.vector @ expected.conj()) - 1.0) < 1e-12

    def test_maximally_mixed(self):
        psi = purify(DensityOperator(np.eye(2) / 2))
        assert np.allclose(psi.schmidt_coeffs, [1 / np.sqrt(2)] * 2, atol=1e-12)

    def test_example_source_matches_hand_built_state(self):
        psi = purify(example_source())
        assert np.allclose(psi.schmidt_coeffs, [COS, SIN], atol=1e-12)
        hand = COS * np.kron(PHI0, PHI0) + SIN * np.kron(PHI1, PHI1)
        overlap = abs(np.vdot(hand, psi.vector))
        assert abs(overlap - 1.0) < 1e-12

    def test_reduction_roundtrip_random(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            rho = random_density(rng, int(rng.integers(2, 9)))
            psi = purify(rho)
            assert trace_distance(psi.reduced_system_state(), rho.mat) < 1e-9
            assert trace_distance(psi.reduced_reference_state(), rho.mat) < 1e-9

    def test_joint_purification_reduces_to_joint_state(self):
        rng = np.random.default_rng(5)
        rho = random_density(rng, 6)
        psi = purify_joint(rho, (2, 3))
        assert psi.dims == (6, 2, 3)
        assert trace_distance(psi.reduced_system_state(), rho.mat) < 1e-9

    def test_joint_purification_dim_check(self):
        rng = np.random.default_rng(5)
        with pytest.raises(DimensionMismatch):
            purify_joint(random_density(rng, 6), (2, 2))


class TestMeasurementMap:
    def test_trivial_povm(self):
        rng = np.random.default_rng(11)
        rho = random_density(rng, 2)
        probs = apply_measurement_map(Povm((np.eye(2) / 2, np.eye(2) / 2)), rho)
        assert np.allclose(probs, [0.5, 0.5], atol=1e-12)

    def test_eigenbasis_projectors_give_spectrum(self):
        rho = example_source()
        eig = eig_hermitian(rho.mat)
        effects = tuple(np.outer(eig.eigenvectors[:, i], eig.eigenvectors[:, i].conj()) for i in range(2))
        probs = apply_measurement_map(Povm(effects), rho)
        assert np.allclose(probs, eig.eigenvalues, atol=1e-12)

    def test_single_outcome(self):
        rng = np.random.default_rng(13)
        probs = apply_measurement_map(Povm((np.eye(3),)), random_density(rng, 3))
        assert np.allclose(probs, [1.0], atol=1e-12)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            dim = int(rng.integers(2, 5))
            probs = apply_measurement_map(
                sample_random_povm(dim, int(rng.integers(1, 5)), rng.integers(2**63)),
                random_density(rng, dim),
            )
            assert abs(probs.sum() - 1.0) < 1e-10

    def test_dim_mismatch(self):
        rng = np.random.default_rng(19)
        with pytest.raises(DimensionMismatch):
            apply_measurement_map(Povm((np.eye(3),)), random_density(rng, 2))


class TestInducedCqState:
    def test_trivial_povm_gives_product(self):
        psi = purify(example_source())
        sigma = induced_cq_state(psi, Povm((np.eye(2) / 2, np.eye(2) / 2)))
        for op in sigma.conditional_ops:
            assert np.abs(op - example_source().mat / 2).max() < 1e-12
        assert np.allclose(sigma.probs, [0.5, 0.5], atol=1e-12)

    def test_eigenbasis_measurement_gives_classical_state(self):
        rho = example_source()
        psi = purify(rho)
        eig = eig_hermitian(rho.mat)
        effects = tuple(np.outer(eig.eigenvectors[:, i], eig.eigenvectors[:, i].conj()) for i in range(2))
        sigma = induced_cq_state(psi, Povm(effects))
        # oracle: direct evaluation of sqrt(rho) effect^T sqrt(rho) in the Schmidt basis
        root = sqrt_psd(rho.mat)
        v = eig.eigenvectors
        for x, op in enumerate(sigma.conditional_ops):
            lam_schmidt = v.conj().T @ effects[x] @ v
            expected = root @ (v @ lam_schmidt.T @ v.conj().T) @ root
            assert np.abs(op - expected).max() < 1e-12
            assert np.abs(op - eig.eigenvalues[x] * np.outer(v[:, x], v[:, x].conj())).max() < 1e-12

    def test_single_outcome_returns_reference_state(self):
        rng = np.random.default_rng(23)
        rho = random_density(rng, 3)
        psi = purify(rho)
        sigma = induced_cq_state(psi, Povm((np.eye(3),)))
        assert trace_distance(sigma.conditional_ops[0], rho.mat) < 1e-12

    def test_two_formulas_agree_on_random_instances(self):
        rng = np.random.default_rng(29)
        for _ in range(1000):
            dim = int(rng.integers(2, 5))
            rho = random_density(rng, dim)
            psi = purify(rho)
            povm = sample_random_povm(dim, int(rng.integers(1, 4)), rng.integers(2**63))
            sigma = induced_cq_state(psi, povm)

            proj = np.outer(psi.vector, psi.vector.conj())
            root = sqrt_psd(rho.mat)
            v = eig_hermitian(rho.mat).eigenvectors
            for x, e in enumerate(povm.effects):
                # heavy route: Tr_A{(I (x) effect) |psi><psi|}
                heavy = partial_trace(tensor(np.eye(dim), e) @ proj, [dim, dim], [0])
                heavy = (heavy + heavy.conj().T) / 2
                assert trace_distance(sigma.conditional_ops[x], heavy) < 1e-9
                # Schmidt-basis route: sqrt(rho) effect^T sqrt(rho)
                lam_t = v @ (v.conj().T @ e @ v).T @ v.conj().T
                alt = root @ lam_t @ root
                assert trace_distance(sigma.conditional_ops[x], alt) < 1e-9

    def test_marginal_is_reference_state(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            dim = int(rng.integers(2, 5))
            rho = random_density(rng, dim)
            psi = purify(rho)
            povm = sample_random_povm(dim, 3, rng.integers(2**63))
            sigma = induced_cq_state(psi, povm)
            assert abs(sigma.probs.sum() - 1.0) < 1e-10
            assert trace_distance(sigma.marginal_quantum(), rho.mat) < 1e-9
            for op in sigma.conditional_ops:
                assert np.linalg.eigvalsh(op).min() > -1e-10

    def test_trivial_side_factor_is_the_plain_state(self):
        rng = np.random.default_rng(37)
        for d in (1, 2, 3, 4):
            rho = random_density(rng, d)
            povm = sample_random_povm(d, 3, rng.integers(2**63))
            plain = induced_cq_state(purify(rho), povm)
            lifted = induced_cq_state(purify_joint(rho, (d, 1)), povm)
            assert np.array_equal(plain.probs, lifted.probs)
            assert all(np.array_equal(a, b) for a, b in zip(plain.conditional_ops, lifted.conditional_ops))


class TestInducedCqStateQsi:
    def test_one_dimensional_side_factor_reduces(self):
        rng = np.random.default_rng(41)
        rho = random_density(rng, 3)
        povm = sample_random_povm(3, 2, 7)
        plain = induced_cq_state(purify(rho), povm)
        lifted = induced_cq_state(purify_joint(rho, (3, 1)), povm)
        assert lifted.factor_dims == (3, 1)
        for a, b in zip(plain.conditional_ops, lifted.conditional_ops):
            assert np.array_equal(a, b)
        for d_a in (1, 2, 4):
            rho = random_density(rng, d_a)
            povm = sample_random_povm(d_a, 3, rng.integers(2**63))
            plain = induced_cq_state(purify(rho), povm)
            lifted = induced_cq_state(purify_joint(rho, (d_a, 1)), povm)
            assert lifted.factor_dims == (d_a, 1)
            assert np.array_equal(plain.probs, lifted.probs)
            for a, b in zip(plain.conditional_ops, lifted.conditional_ops):
                assert np.array_equal(a, b)

    def test_trivial_povm_halves_joint_state(self):
        rng = np.random.default_rng(43)
        joint = random_density(rng, 4)
        psi = purify_joint(joint, (2, 2))
        sigma = induced_cq_state(psi, Povm((np.eye(2) / 2, np.eye(2) / 2)))
        t = psi.as_tensor()
        rho_rb = np.einsum("rab,sad->rbsd", t, t.conj()).reshape(8, 8)
        for op in sigma.conditional_ops:
            assert np.abs(op - rho_rb / 2).max() < 1e-12

    def test_cq_source_matches_classical_quantum_form(self):
        # source sum_y p(y)|y><y|_A (x) |beta_y><beta_y|_B, measured in the A basis
        p = np.array([0.7, 0.3])
        beta0 = np.array([1.0, 0.0])
        beta1 = np.array([1.0, 1.0]) / np.sqrt(2)
        joint = p[0] * tensor(np.diag([1.0, 0.0]), np.outer(beta0, beta0)) + p[1] * tensor(
            np.diag([0.0, 1.0]), np.outer(beta1, beta1)
        )
        psi = purify_joint(DensityOperator(joint), (2, 2))
        povm = Povm((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
        sigma = induced_cq_state(psi, povm)
        assert np.allclose(sigma.probs, p, atol=1e-12)
        eig = eig_hermitian(joint)
        betas = [beta0, beta1]
        for x, op in enumerate(sigma.conditional_ops):
            w = eig.eigenvectors[:, x]  # descending order matches p sorted descending
            expected = p[x] * tensor(np.outer(w, w.conj()), np.outer(betas[x], betas[x].conj()))
            assert np.abs(op - expected).max() < 1e-10


class TestPinch:
    def test_diagonal_povm_is_fixed_point(self):
        povm = Povm((np.diag([0.3, 0.6]), np.diag([0.7, 0.4])))
        pinched = pinch_povm(povm, np.eye(2))
        for a, b in zip(povm.effects, pinched.effects):
            assert np.abs(a - b).max() < 1e-12

    def test_plus_minus_projectors_pinch_to_noise(self):
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        minus = np.array([1.0, -1.0]) / np.sqrt(2)
        povm = Povm((np.outer(plus, plus), np.outer(minus, minus)))
        pinched = pinch_povm(povm, np.eye(2))
        for e in pinched.effects:
            assert np.abs(e - np.eye(2) / 2).max() < 1e-12

    def test_pinched_effects_still_sum_to_identity(self):
        rng = np.random.default_rng(53)
        for _ in range(50):
            dim = int(rng.integers(2, 5))
            povm = sample_random_povm(dim, 3, rng.integers(2**63))
            basis = eig_hermitian(random_density(rng, dim).mat).eigenvectors
            total = sum(pinch_povm(povm, basis).effects)
            assert np.abs(total - np.eye(dim)).max() < 1e-9

    def test_probabilities_preserved_on_diagonal_states(self):
        rng = np.random.default_rng(59)
        for _ in range(100):
            dim = int(rng.integers(2, 5))
            basis = eig_hermitian(random_density(rng, dim).mat).eigenvectors
            diag = rng.dirichlet(np.ones(dim))
            rho = DensityOperator((basis * diag) @ basis.conj().T)
            povm = sample_random_povm(dim, 3, rng.integers(2**63))
            before = apply_measurement_map(povm, rho)
            after = apply_measurement_map(pinch_povm(povm, basis), rho)
            assert np.abs(before - after).max() < 1e-10

    def test_pinch_is_dephase_of_each_effect(self):
        rng = np.random.default_rng(67)
        for dim in (2, 3, 4):
            povm = sample_random_povm(dim, 3, rng.integers(2**63))
            basis = eig_hermitian(random_density(rng, dim).mat).eigenvectors
            for e, pinched in zip(povm.effects, pinch_povm(povm, basis).effects):
                assert np.abs(pinched - dephase(e, basis)).max() < 1e-14

    def test_rejects_non_orthonormal_basis(self):
        povm = Povm((np.eye(2),))
        with pytest.raises(ValueError):
            pinch_povm(povm, np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_dephase_matches_projector_sum(self):
        rng = np.random.default_rng(61)
        m = random_density(rng, 3).mat
        basis = eig_hermitian(random_density(rng, 3).mat).eigenvectors
        expected = sum(
            (basis[:, z].conj() @ m @ basis[:, z]).real * np.outer(basis[:, z], basis[:, z].conj())
            for z in range(3)
        )
        assert np.abs(dephase(m, basis) - expected).max() < 1e-12


class TestSampleRandomPovm:
    def test_single_outcome_is_identity(self):
        povm = sample_random_povm(3, 1, 123)
        assert np.abs(povm.effects[0] - np.eye(3)).max() < 1e-9

    def test_deterministic_per_seed(self):
        a = sample_random_povm(2, 2, 42)
        b = sample_random_povm(2, 2, 42)
        for x, y in zip(a.effects, b.effects):
            assert np.array_equal(x, y)

    def test_completeness_and_positivity(self):
        rng = np.random.default_rng(67)
        for _ in range(100):
            dim = int(rng.integers(2, 5))
            povm = sample_random_povm(dim, int(rng.integers(1, 5)), rng.integers(2**63))
            total = sum(povm.effects)
            assert np.abs(total - np.eye(dim)).max() < 1e-9
            for e in povm.effects:
                assert np.linalg.eigvalsh(e).min() > -1e-10

    def test_outcome_count_validated(self):
        with pytest.raises(ValueError):
            sample_random_povm(2, 0, 1)


class TestQuarterTurnPhases:
    """e^{2 pi i k 2^-53} of the sweep's 53-bit phase words, reduced exactly to
    the nearest quarter turn before cos and sin."""

    #: both sides of every octant edge, and the last word, whose nearest quarter turn is q = 4
    EDGES = [0, 1, 2**50 - 1, 2**50, 2**51 - 1, 2**51 + 1, 3 * 2**50, 2**52, 3 * 2**51, 2**53 - 1]

    @staticmethod
    def _phasors(words):
        out = np.empty(len(words), dtype=complex)
        _unit_phasors(np.array(words, dtype=np.uint64), out)
        return out

    def test_match_cos_and_sin_of_the_whole_turn(self):
        words = self.EDGES + np.random.default_rng(29).integers(0, 2**53, 10**5).tolist()
        z = self._phasors(words)
        theta = [2 * math.pi * (k * 2.0**-53) for k in words]
        assert np.abs(z.real - [math.cos(t) for t in theta]).max() <= 1e-15
        assert np.abs(z.imag - [math.sin(t) for t in theta]).max() <= 1e-15
        assert np.abs(z.real**2 + z.imag**2 - 1.0).max() <= 4e-16

    def test_last_word_turns_by_one(self):
        # q = 4 rotates by i^4 = 1, leaving cos and sin of -2 pi 2^-53
        z = self._phasors([2**53 - 1])[0]
        assert z.real == 1.0 and z.imag == -2 * math.pi * 2.0**-53

    def test_words_in_place(self):
        # the sweep's layout: the phase words are the imaginary part's memory
        words = np.array([[0, w] for w in self.EDGES], dtype=np.uint64)
        z = words.view(complex)[:, 0]
        _unit_phasors(words[:, 1], z)
        assert np.array_equal(z, self._phasors(self.EDGES))


class TestStackedMatmul:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 8])
    def test_matches_matmul(self, d):
        rng = np.random.default_rng(d)
        single, tall = ginibre(rng, (d, d)), ginibre(rng, (8, d))
        stack, other = ginibre(rng, (5, 3, d, d)), ginibre(rng, (5, 3, d, d))
        for a, b in ((single, stack), (stack, single), (stack, other), (stack[:, :1], other),
                     (tall, stack), (stack, tall.T)):
            product = _stacked_matmul(a, b)
            assert product.shape == (a @ b).shape
            assert np.abs(product - a @ b).max() < 1e-13

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 8])
    def test_ginibre_map_matches_lapack_cholesky(self, d, k):
        # oracle: R^{-dag} A_x R^{-1} with R^dag = L from LAPACK's M = L L^dag.
        # Both sides lose accuracy as eps cond(M) on an ill-conditioned M,
        # which a k = 1 square draws now and then, so the 1e-12 bounds widen
        # to 8 eps cond(M) where that is larger
        g = ginibre(np.random.default_rng(10 * d + k), (64, k, d, d))
        a = g.conj().swapaxes(-1, -2) @ g
        m = a.sum(axis=1)
        r_inv = np.linalg.inv(np.linalg.cholesky(m).conj().swapaxes(-1, -2))[:, None]
        expected = r_inv.conj().swapaxes(-1, -2) @ a @ r_inv
        effects = povm_effects_from_ginibre(g)
        tol = np.maximum(1e-12, 8 * np.finfo(float).eps * np.linalg.cond(m))
        assert np.all(np.abs(effects - expected).max(axis=(1, 2, 3)) <= tol)
        assert np.all(np.abs(effects.sum(axis=1) - np.eye(d)).max(axis=(1, 2)) <= tol)
        hermitian = (effects + effects.conj().swapaxes(-1, -2)) / 2
        assert np.linalg.eigvalsh(hermitian).min() >= -1e-12

    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_ginibre_map_is_batch_invariant(self, d):
        g = ginibre(np.random.default_rng(d), (4096, 2, d, d))
        effects = povm_effects_from_ginibre(g)
        for i in range(g.shape[0]):
            assert np.array_equal(effects[i], povm_effects_from_ginibre(g[i:i + 1])[0])

    def test_conditional_blocks_are_batch_invariant(self):
        rng = np.random.default_rng(11)
        # a qutrit (d_A = 3) and a side factor (d_R d_B = 8 over d_A = 2)
        for psi in (purify(random_density(rng, 3)), purify_joint(random_density(rng, 4), (2, 2))):
            m, d = psi.measured_matrix(), psi.system_dims[0]
            effects = povm_effects_from_ginibre(ginibre(rng, (4096, 2, d, d)))
            sig = conditional_blocks(m, effects)
            assert sig.shape == (4096, 2, m.shape[0], m.shape[0])
            for i in range(effects.shape[0]):
                assert np.array_equal(sig[i], conditional_blocks(m, effects[i:i + 1])[0])
