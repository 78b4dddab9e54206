import json

import numpy as np
import pytest

from qcrd import (
    DensityOperator,
    ProblemSpecError,
    classical_cost_observable,
    eig_hermitian,
    example_observable,
    example_source,
    load_problem,
    parse_problem,
    tensor,
    trace_distance,
)
from qcrd.problem import paper_problem


def minimal_spec(**overrides):
    spec = {
        "schema": 1,
        "source": "paper-example",
        "observable": "paper-example",
    }
    spec.update(overrides)
    return spec


def assert_rejected(spec, tmp_path):
    """Both entry points reject ``spec`` before anything is solved."""
    with pytest.raises(ProblemSpecError):
        parse_problem(spec)
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    with pytest.raises(ProblemSpecError):
        load_problem(path)


class TestParsing:
    def test_paper_preset(self):
        problem = parse_problem(minimal_spec())
        psi, obs, outcomes = problem.build()
        assert outcomes == 2
        assert trace_distance(problem.source.mat, example_source().mat) < 1e-12
        assert all(
            np.abs(a - b).max() < 1e-12
            for a, b in zip(obs.blocks, example_observable().blocks)
        )
        assert psi.dims == (2, 2)

    def test_paper_problem_helper_matches_preset(self):
        a = paper_problem()
        b = parse_problem(minimal_spec())
        assert trace_distance(a.source.mat, b.source.mat) < 1e-12
        assert a.purification.vector.tobytes() == b.purification.vector.tobytes()
        assert len(a.observable.blocks) == len(b.observable.blocks)
        assert all(x.tobytes() == y.tobytes() for x, y in zip(a.observable.blocks, b.observable.blocks))
        assert a.preset == b.preset == "paper-example"

    def test_matrix_source_with_complex_pairs(self):
        mat = [[[0.5, 0.0], [0.0, -0.25]], [[0.0, 0.25], [0.5, 0.0]]]
        problem = parse_problem(minimal_spec(source={"matrix": mat}, observable={"kind": "eigenbasis"}))
        expected = np.array([[0.5, -0.25j], [0.25j, 0.5]])
        assert trace_distance(problem.source.mat, expected) < 1e-12

    def test_bare_reals_accepted(self):
        mat = [[0.5, 0.0], [0.0, 0.5]]
        problem = parse_problem(minimal_spec(source={"matrix": mat}, observable={"kind": "eigenbasis"}))
        assert trace_distance(problem.source.mat, np.eye(2) / 2) < 1e-12

    @pytest.mark.parametrize("entry", [True, [0.5, False]])
    def test_boolean_matrix_entries_rejected(self, entry):
        mat = [[entry, 0.0], [0.0, 0.5]]
        with pytest.raises(ProblemSpecError):
            parse_problem(minimal_spec(source={"matrix": mat}, observable={"kind": "eigenbasis"}))

    def test_schema_version_required(self):
        with pytest.raises(ProblemSpecError):
            parse_problem(minimal_spec(schema=2))

    def test_unknown_fields_rejected(self):
        with pytest.raises(ProblemSpecError):
            parse_problem(minimal_spec(extra=1))

    def test_invalid_source_state_rejected(self):
        with pytest.raises(ProblemSpecError):
            parse_problem(minimal_spec(source={"matrix": [[1.0, 0.0], [0.0, 1.0]]}))

    def test_unknown_observable_kind(self):
        with pytest.raises(ProblemSpecError):
            parse_problem(minimal_spec(observable={"kind": "nope"}))

    def test_classical_cost_observable(self):
        problem = parse_problem(
            minimal_spec(observable={"kind": "classical-cost", "costs": [[0.0, 1.0], [1.0, 0.0]]})
        )
        _, obs, outcomes = problem.build()
        assert outcomes == 2
        assert obs.outcome_count == 2

    @pytest.mark.parametrize("observable, preset", [
        ("paper-example", "paper-example"),
        ({"kind": "paper-example"}, "paper-example"),
        ({"kind": "classical-cost", "costs": [[0, 3], [3, 0]]}, None),
        ({"kind": "eigenbasis"}, None),
    ])
    def test_preset_needs_the_paper_observable_too(self, observable, preset):
        assert parse_problem(minimal_spec(observable=observable)).preset == preset

    def test_cost_rows_must_match_source_dimension(self):
        with pytest.raises(ProblemSpecError, match="3 rows.*dimension 2"):
            parse_problem(minimal_spec(observable={"kind": "classical-cost", "costs": [[0.0, 1.0]] * 3}))

    def test_blocks_observable(self):
        blocks = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]]
        problem = parse_problem(minimal_spec(observable={"kind": "blocks", "blocks": blocks}))
        _, obs, _ = problem.build()
        assert np.allclose(obs.blocks[0], np.diag([1.0, 0.0]))

    def test_outcomes_must_match_observable(self):
        with pytest.raises(ProblemSpecError):
            parse_problem(minimal_spec(outcomes=3)).build()

    def test_non_hermitian_block_rejected_at_parse_time(self, tmp_path):
        blocks = [[[1.0, 0.5], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]]
        assert_rejected(minimal_spec(observable={"kind": "blocks", "blocks": blocks}), tmp_path)

    def test_wrong_length_purification_rejected_at_parse_time(self, tmp_path):
        assert_rejected(minimal_spec(purification=[1.0, 0.0, 0.0]), tmp_path)

    def test_purification_checked_against_source(self):
        from qcrd import purify

        valid = purify(example_source()).vector.real.tolist()
        psi, _, _ = parse_problem(minimal_spec(purification=valid)).build()
        assert psi.dims == (2, 2)
        with pytest.raises(ProblemSpecError):
            # a Bell vector does not reduce to the example source
            parse_problem(minimal_spec(purification=[1 / np.sqrt(2), 0.0, 0.0, 1 / np.sqrt(2)])).build()

    def test_solver_options_parsed(self):
        problem = parse_problem(minimal_spec(solver={"restarts": 3, "rng_seed": 9}))
        assert problem.solver.restarts == 3
        assert problem.solver.rng_seed == 9

    def test_unknown_solver_option_rejected(self):
        with pytest.raises(ProblemSpecError):
            parse_problem(minimal_spec(solver={"bogus": 1}))

    @pytest.mark.parametrize("value", [2.7, True, False, "2", [2]])
    def test_outcomes_must_be_an_integer(self, value):
        with pytest.raises(ProblemSpecError):
            parse_problem(minimal_spec(outcomes=value))

    def test_integral_float_outcomes_accepted(self):
        assert parse_problem(minimal_spec(outcomes=2.0)).build()[2] == 2

    @pytest.mark.parametrize("key", ["restarts", "max_iterations", "rng_seed"])
    @pytest.mark.parametrize("value", [2.5, True, "3", [3], -1])
    def test_integer_solver_options_are_strict(self, key, value):
        with pytest.raises(ProblemSpecError):
            parse_problem(minimal_spec(solver={key: value}))

    @pytest.mark.parametrize("solver", [
        {"lagrange_grid": 5},
        {"lagrange_grid": [1.0, "2"]},
        {"lagrange_grid": [True]},
        {"convergence_tol": "1e-7"},
        {"convergence_tol": float("inf")},
        {"convergence_tol": float("nan")},
        {"lagrange_grid": [1.0, float("inf")]},
        {"lagrange_grid": [float("nan")]},
    ])
    def test_malformed_real_solver_options_rejected(self, solver):
        with pytest.raises(ProblemSpecError):
            parse_problem(minimal_spec(solver=solver))

    @pytest.mark.parametrize("costs", [[1.0, 2.0], [], [[0.0, 1.0], [1.0]], [[0.0, "1"], [1.0, 0.0]]])
    def test_malformed_costs_rejected(self, costs):
        with pytest.raises(ProblemSpecError):
            parse_problem(minimal_spec(observable={"kind": "classical-cost", "costs": costs}))


class TestSideInfo:
    @staticmethod
    def joint_spec(**overrides):
        p = [0.7, 0.3]
        beta0 = np.outer([1.0, 0.0], [1.0, 0.0])
        beta1 = np.outer([1.0, 1.0], [1.0, 1.0]) / 2
        joint = p[0] * tensor(np.diag([1.0, 0.0]), beta0) + p[1] * tensor(np.diag([0.0, 1.0]), beta1)
        spec = {
            "schema": 1,
            "side_info": {"matrix": joint.real.tolist(), "dims": [2, 2]},
            "observable": {"kind": "classical-cost", "costs": [[0.0, 1.0], [1.0, 0.0], [0.5, 0.5], [0.5, 0.5]]},
        }
        spec.update(overrides)
        return spec

    def test_source_inferred_from_marginal(self):
        problem = parse_problem(self.joint_spec())
        assert problem.has_side_info
        assert trace_distance(problem.source.mat, np.diag([0.7, 0.3])) < 1e-9

    @pytest.mark.parametrize("build", ["build_qsi", "build"])
    def test_build_qsi_shapes(self, build):
        psi, obs, outcomes = getattr(parse_problem(self.joint_spec()), build)()
        assert psi.dims == (4, 2, 2)
        assert obs.dim == 8
        assert outcomes == 2

    @pytest.mark.parametrize("side_dim", [1, 2, 3])
    def test_classical_cost_blocks_are_the_plain_blocks_tensor_identity(self, side_dim):
        rng = np.random.default_rng(side_dim)
        d = 2 * side_dim
        for _ in range(10):
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            joint = DensityOperator(g @ g.conj().T / np.trace(g @ g.conj().T).real)
            costs = rng.uniform(0.0, 2.0, size=(d, 3))
            spec = {"schema": 1, "observable": {"kind": "classical-cost", "costs": costs.tolist()},
                    "side_info": {"matrix": [[[v.real, v.imag] for v in row] for row in joint.mat],
                                  "dims": [2, side_dim]}}
            plain = classical_cost_observable(costs, eig_hermitian(joint.mat).eigenvectors)
            for a, b in zip(parse_problem(spec).observable.blocks, plain.blocks):
                lifted = tensor(b, np.eye(side_dim))
                assert np.array_equal(a, lifted) if side_dim == 1 else np.abs(a - lifted).max() <= 1e-15

    def test_inconsistent_source_rejected(self):
        spec = self.joint_spec(source={"matrix": [[0.5, 0.0], [0.0, 0.5]]})
        with pytest.raises(ProblemSpecError):
            parse_problem(spec)

    def test_consistent_source_accepted(self):
        spec = self.joint_spec(source={"matrix": [[0.7, 0.0], [0.0, 0.3]]})
        assert parse_problem(spec).has_side_info

    def test_build_qsi_requires_side_info(self):
        with pytest.raises(ProblemSpecError):
            parse_problem(minimal_spec()).build_qsi()

    def test_side_info_needs_dims(self):
        spec = self.joint_spec()
        del spec["side_info"]["dims"]
        with pytest.raises(ProblemSpecError):
            parse_problem(spec)

    @pytest.mark.parametrize("dims", [[True, 4], [2.5, 2], [2, "2"], [0, 4], [-2, -2]])
    def test_side_info_dims_must_be_positive_integers(self, dims):
        spec = self.joint_spec()
        spec["side_info"]["dims"] = dims
        with pytest.raises(ProblemSpecError):
            parse_problem(spec)

    def test_blocks_of_the_plain_dimension_rejected_at_parse_time(self, tmp_path):
        # 2x2 blocks act on R alone; with a 2x2 side system they must be 8x8
        blocks = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]]
        assert_rejected(self.joint_spec(observable={"kind": "blocks", "blocks": blocks}), tmp_path)

    def test_purification_rejected_with_side_info(self):
        # a 4-entry vector cannot purify the 4x4 joint state (16 amplitudes)
        spec = self.joint_spec(purification=[0.5, 0.5, 0.5, 0.5])
        with pytest.raises(ProblemSpecError):
            parse_problem(spec)

    @pytest.mark.parametrize("build", ["build_qsi", "build"])
    def test_paper_observable_not_allowed_with_side_info(self, build):
        spec = self.joint_spec(observable="paper-example")
        with pytest.raises(ProblemSpecError):
            getattr(parse_problem(spec), build)()


class TestLoadProblem:
    def test_roundtrip_through_file(self, tmp_path):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(minimal_spec()), encoding="utf-8")
        problem = load_problem(path)
        assert problem.preset == "paper-example"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ProblemSpecError):
            load_problem(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ProblemSpecError):
            load_problem(path)
