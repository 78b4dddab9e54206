import json
import math
from pathlib import Path

import numpy as np
import pytest

from qcrd import (
    conditional_mutual_information_cq,
    distortion,
    induced_cq_state,
    load_problem,
    sweep_povm,
    tensor,
)
from qcrd import checks as check_suites
import qcrd.solver as solver
from qcrd.cli import _CSV_CHUNK, _fmt, _parse_grid, _sample_rows, main
from qcrd.problem import paper_problem
from qcrd.solver import default_grid, sample_sweep


def light_solver():
    return {
        "restarts": 3,
        "max_iterations": 500,
        "convergence_tol": 1e-5,
        "lagrange_grid": [0.3, 2.0, 10.0, 60.0],
        "rng_seed": 1,
    }


def write_spec(tmp_path, data, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def read_rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    data = [ln for ln in lines if not ln.startswith("#")]
    header, rows = data[0], [ln.split(",") for ln in data[1:]]
    return header, rows


class TestSample:
    def test_basic_run(self, tmp_path):
        out = tmp_path / "samples.csv"
        code = main(["sample", "--preset", "paper-example", "--n", "500", "--seed", "7",
                     "--out-csv", str(out)])
        assert code == 0
        header, rows = read_rows(out)
        assert header == "distortion,rate_bits,seed_index"
        assert len(rows) == 500
        rates = np.array([float(r[1]) for r in rows])
        assert rates.min() >= -1e-9 and rates.max() <= 1.0
        assert [int(r[2]) for r in rows] == list(range(500))

    def test_negative_seed_is_an_error(self, tmp_path, capsys):
        out = tmp_path / "samples.csv"
        assert main(["sample", "--n", "5", "--seed", "-1", "--out-csv", str(out)]) == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["sample", "--preset", "paper-example", "--n", "300", "--seed", "3"]
        assert main(argv + ["--out-csv", str(a)]) == 0
        assert main(argv + ["--out-csv", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_chunked_rows_match_per_row_format(self):
        # signed zero, round-off below zero, a value near the bottom of the
        # normal range and fractions with no finite binary expansion
        dist = [-0.0, -1e-17, 1e-300, 0.1, 0.25, 1.0 / 3.0]
        rate = [0.1, -0.0, 1e-300, -1e-17, 0.0, 2.0 / 3.0]
        expected = "".join(f"{_fmt(d)},{_fmt(r)},{i}\n" for i, (d, r) in enumerate(zip(dist, rate), 40))
        assert _sample_rows(dist, rate, 40) == expected
        assert _sample_rows([], [], 0) == ""

    def test_rows_across_csv_chunks(self, tmp_path):
        n = _CSV_CHUNK + 8
        out = tmp_path / "samples.csv"
        assert main(["sample", "--n", str(n), "--seed", "2", "--out-csv", str(out)]) == 0
        psi, delta, k = paper_problem().build()
        dist, rate = sample_sweep(psi, delta, k, n, 2)
        rows = "".join(f"{_fmt(d)},{_fmt(r)},{i}\n" for i, (d, r) in enumerate(zip(dist, rate)))
        assert out.read_bytes() == ("distortion,rate_bits,seed_index\n" + rows).encode("utf-8")

    def test_qutrit_example_rows_are_its_sweep(self, tmp_path):
        # the qutrit spec checks the Ginibre map beyond d = 2 wherever the
        # command-line byte checks run
        example = Path(__file__).resolve().parents[1] / "examples" / "qutrit.json"
        psi, delta, k = load_problem(str(example)).build()
        assert (psi.system_dims, k) == ((3,), 3)
        out = tmp_path / "samples.csv"
        assert main(["sample", "--spec", str(example), "--n", "40", "--seed", "1", "--out-csv", str(out)]) == 0
        dist, rate = sample_sweep(psi, delta, k, 40, 1)
        rows = "".join(f"{_fmt(d)},{_fmt(r)},{i}\n" for i, (d, r) in enumerate(zip(dist, rate)))
        assert out.read_bytes() == ("distortion,rate_bits,seed_index\n" + rows).encode("utf-8")

    def test_lf_line_endings_and_utf8(self, tmp_path):
        out = tmp_path / "samples.csv"
        main(["sample", "--preset", "paper-example", "--n", "10", "--seed", "0",
              "--out-csv", str(out)])
        raw = out.read_bytes()
        assert b"\r" not in raw
        raw.decode("utf-8")

    def test_bad_spec_path_fails_with_message(self, tmp_path, capsys):
        code = main(["sample", "--spec", str(tmp_path / "missing.json"),
                     "--out-csv", str(tmp_path / "x.csv")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_preset_and_spec_conflict(self, tmp_path):
        spec = write_spec(tmp_path, {"schema": 1, "source": "paper-example",
                                     "observable": "paper-example"})
        code = main(["sample", "--preset", "paper-example", "--spec", spec,
                     "--out-csv", str(tmp_path / "x.csv")])
        assert code == 1

    def test_outcomes_flag_rejected(self, tmp_path, capsys):
        # the outcome count is the observable's block count; no flag overrides it
        for command in ("sample", "curve", "qsi-curve"):
            out = tmp_path / f"{command}.csv"
            with pytest.raises(SystemExit) as exc:
                main([command, "--preset", "paper-example", "--outcomes", "2", "--out-csv", str(out)])
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err
            assert not out.exists()

    def test_same_bytes_whatever_the_worker_count(self, tmp_path, monkeypatch):
        # 9000 samples cross the sweep's and the CSV writer's chunk boundaries
        outputs = []
        for workers in (1, 2):
            monkeypatch.setattr(solver, "_sweep_workers", lambda: workers)
            out = tmp_path / f"samples-{workers}.csv"
            assert main(["sample", "--n", "9000", "--seed", "0", "--out-csv", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_failing_worker_fails_cleanly(self, tmp_path, monkeypatch, capsys):
        real = solver.cq_information
        monkeypatch.setattr(solver, "_SWEEP_CHUNK", 4)
        monkeypatch.setattr(solver, "_sweep_workers", lambda: 2)

        def rate(sig, side_dim):
            if len(sig) < 4:  # the chunk at 8 of 10 samples
                raise ValueError("chunk at 8 failed")
            return real(sig, side_dim)

        monkeypatch.setattr(solver, "cq_information", rate)
        out = tmp_path / "samples.csv"
        assert main(["sample", "--n", "10", "--out-csv", str(out)]) == 1
        assert "error: chunk at 8 failed" in capsys.readouterr().err
        assert not out.exists()


class TestCurve:
    def test_curve_outputs(self, tmp_path):
        spec = write_spec(tmp_path, {"schema": 1, "source": "paper-example",
                                     "observable": "paper-example", "solver": light_solver()})
        csv_path, svg_path = tmp_path / "curve.csv", tmp_path / "curve.svg"
        code = main(["curve", "--spec", spec, "--n", "4000", "--seed", "5",
                     "--grid", "0:0.25:0.05", "--out-csv", str(csv_path),
                     "--out-svg", str(svg_path)])
        assert code == 0
        header, rows = read_rows(csv_path)
        assert header == "D,R_bits,method"
        sampling = [r for r in rows if r[2] == "sampling"]
        descent = [r for r in rows if r[2] == "descent"]
        assert len(descent) >= 5
        # descent row at D = 0.25 is the zero-rate anchor
        anchor = [r for r in descent if abs(float(r[0]) - 0.25) < 1e-12]
        assert anchor and abs(float(anchor[0][1])) < 1e-9
        # envelope rates are monotone non-increasing over the grid
        env_rates = [float(r[1]) for r in sampling]
        assert all(a >= b - 1e-6 for a, b in zip(env_rates, env_rates[1:]))

        svg = svg_path.read_text(encoding="utf-8")
        assert svg.count("<polyline") == 1
        assert svg.count('<g class="points"') == 1
        assert ">D</text>" in svg
        assert ">R (bits)</text>" in svg

    def test_default_grid_of_a_paper_source_spec_reaches_its_d_zero(self, tmp_path):
        # the paper's source with another observable gets its own grid, not the
        # preset's 0..0.25: here d_max is 3 and the zero-rate distortion is
        # 3 sin^2(pi/8) = 0.439, the cost of always guessing the likelier letter
        spec = write_spec(tmp_path, {"schema": 1, "source": "paper-example",
                                     "observable": {"kind": "classical-cost", "costs": [[0, 3], [3, 0]]},
                                     "solver": light_solver()})
        csv_path = tmp_path / "curve.csv"
        assert main(["curve", "--spec", spec, "--n", "0", "--out-csv", str(csv_path)]) == 0
        _, rows = read_rows(csv_path)
        d_zero = 3.0 * math.sin(math.pi / 8.0) ** 2
        assert np.allclose([float(r[0]) for r in rows], np.linspace(0.0, d_zero, 26), rtol=0.0, atol=1e-12)
        assert float(rows[-1][1]) == 0.0 and all(float(r[1]) > 0.0 for r in rows[:-1])

    def test_preset_default_grid_is_the_paper_grid(self, tmp_path):
        # the preset's zero-rate distortion is 1/4, so its default grid writes
        # the rows of the paper's grid 0, 0.01, ..., 0.25
        default, explicit = tmp_path / "default.csv", tmp_path / "explicit.csv"
        assert main(["curve", "--preset", "paper-example", "--n", "0", "--out-csv", str(default)]) == 0
        assert main(["curve", "--preset", "paper-example", "--n", "0", "--grid", "0:0.25:0.01",
                     "--out-csv", str(explicit)]) == 0
        assert default.read_bytes() == explicit.read_bytes()

    def test_default_grid_is_zero_alone_when_a_block_vanishes_on_the_support(self, tmp_path):
        # the pure source |+> never reads outcome 0's cost |-><-|: the trivial
        # measurement has distortion 0, so R is 0 everywhere and one point is the curve
        spec = write_spec(tmp_path, {"schema": 1, "source": {"matrix": [[0.5, 0.5], [0.5, 0.5]]},
                                     "observable": {"kind": "blocks", "blocks": [
                                         [[0.5, -0.5], [-0.5, 0.5]], [[1.0, 0.0], [0.0, 1.0]]]}})
        psi, delta, k = load_problem(spec).build()
        assert default_grid(psi, delta, k).tolist() == [0.0]
        csv_path, svg_path = tmp_path / "curve.csv", tmp_path / "curve.svg"
        assert main(["curve", "--spec", spec, "--n", "50", "--out-csv", str(csv_path),
                     "--out-svg", str(svg_path)]) == 0
        _, rows = read_rows(csv_path)
        # no random POVM reads exactly 0, while the trivial one does
        assert rows == [["0", "", "unsampled"], ["0", "0", "descent"]] and svg_path.exists()

    def test_infeasible_grid_points_marked(self, tmp_path):
        # blocks both the identity: distortion is 1 for every POVM, so small
        # targets are infeasible while d_max allows them on the grid
        spec = write_spec(tmp_path, {
            "schema": 1,
            "source": {"matrix": [[0.5, 0.0], [0.0, 0.5]]},
            "observable": {"kind": "blocks",
                           "blocks": [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]]},
            "solver": light_solver(),
        })
        csv_path = tmp_path / "curve.csv"
        code = main(["curve", "--spec", spec, "--n", "50", "--seed", "1",
                     "--grid", "0.2,0.5,1.0", "--out-csv", str(csv_path),
                     "--out-svg", str(tmp_path / "curve.svg")])
        assert code == 0
        _, rows = read_rows(csv_path)
        infeasible = [r for r in rows if r[2] == "infeasible"]
        assert infeasible and all(r[1] == "" for r in infeasible)
        feasible_descent = [r for r in rows if r[2] == "descent"]
        assert any(abs(float(r[0]) - 1.0) < 1e-12 for r in feasible_descent)

    def test_paper_example_multipliers_take_two_y_solves(self, tmp_path, monkeypatch):
        # the paper example converges in one mirror step by symmetry; the doubled
        # second step moves L by less than the tolerance, which ends the descent
        steps, calls = [], []
        solve, descend = solver._solve_dual, solver._LagrangianSolver._mirror_descent

        def counted_descent(self, mu):
            start = len(calls)
            out = descend(self, mu)
            steps.append(len(calls) - start)
            return out

        monkeypatch.setattr(solver, "_solve_dual", lambda *args: calls.append(1) or solve(*args))
        monkeypatch.setattr(solver._LagrangianSolver, "_mirror_descent", counted_descent)
        csv_path = tmp_path / "p.csv"
        code = main(["curve", "--preset", "paper-example", "--n", "0", "--grid", "0.02:0.24:0.02",
                     "--out-csv", str(csv_path)])
        assert code == 0
        assert steps and set(steps) == {2}
        _, rows = read_rows(csv_path)
        assert [r[2] for r in rows] == ["descent"] * 12
        # the rates of base steps only; values, as the CSV prints 12 digits
        expected = [0.4617803698886912, 0.36660008402350464, 0.289812427784811, 0.2258795633594125,
                    0.17216596508593285, 0.12713462823549337, 0.0897934839736052, 0.059465578672881936,
                    0.0356764367589687, 0.018092902392595644, 0.006487860544251656, 0.0007194732205463295]
        assert np.allclose([float(r[1]) for r in rows], expected, rtol=0.0, atol=1e-12)

    def test_grid_outside_dmax_rejected(self, tmp_path):
        code = main(["curve", "--preset", "paper-example", "--n", "10",
                     "--grid", "0:2:0.5", "--out-csv", str(tmp_path / "c.csv"),
                     "--out-svg", str(tmp_path / "c.svg")])
        assert code == 1

    @pytest.mark.parametrize("grid", ["0:0.2:1e-13", "0:inf:1", "0:0.2:x",
                                      "1:2", "0:1:-0.1", "1:0:0.1", "0.2,0.1"])
    def test_unusable_grid_range_rejected(self, tmp_path, capsys, grid):
        code = main(["curve", "--preset", "paper-example", "--n", "10",
                     "--grid", grid, "--out-csv", str(tmp_path / "c.csv"),
                     "--out-svg", str(tmp_path / "c.svg")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("text, expected", [
        # a half step past the last point is not rounded up to one more point
        ("0:0.75:0.5", [0.0, 0.5]),
        ("0:2.5:1", [0.0, 1.0, 2.0]),
        # the benchmark's curve grid and the preset's default range
        ("0.02:0.24:0.02", 0.02 + 0.02 * np.arange(12)),
        ("0:0.25:0.01", 0.01 * np.arange(26)),
    ])
    def test_grid_range_stops_at_stop(self, text, expected):
        assert np.array_equal(_parse_grid(text), expected)

    def test_grid_range_cap_counts_points(self):
        assert _parse_grid("1:10000:1").size == 10_000
        with pytest.raises(ValueError):
            _parse_grid("0:10000:1")

    def test_half_step_range_writes_no_row_past_stop(self, tmp_path):
        csv_path = tmp_path / "c.csv"
        code = main(["curve", "--preset", "paper-example", "--n", "100", "--grid", "0:0.75:0.5",
                     "--out-csv", str(csv_path), "--out-svg", str(tmp_path / "c.svg")])
        assert code == 0
        _, rows = read_rows(csv_path)
        assert sorted({float(r[0]) for r in rows}) == [0.0, 0.5]

    @pytest.mark.parametrize("fields", [
        {"observable": {"kind": "classical-cost", "costs": [1, 2]}},
        {"solver": {"lagrange_grid": 5}},
        {"solver": {"restarts": 2.5}},
        {"outcomes": True},
        {"source": {"matrix": [0.5, 0.5]}},
        {"purification": 0.5},
        {"solver": [1]},
        {"observable": {"costs": [[0, 1], [1, 0]]}},
        {"observable": {"kind": "blocks", "blocks": []}},
        {"side_info": {"matrix": [[0.5, 0.0], [0.0, 0.5]], "dims": [2]}},
        {"source": "qubit"},
    ])
    def test_malformed_spec_fields_fail_cleanly(self, tmp_path, capsys, fields):
        spec = write_spec(tmp_path, {"schema": 1, "source": "paper-example",
                                     "observable": "paper-example", **fields})
        code = main(["curve", "--spec", spec, "--n", "10", "--grid", "0.1",
                     "--out-csv", str(tmp_path / "c.csv"), "--out-svg", str(tmp_path / "c.svg")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_eigenbasis_observable_lossless_point(self, tmp_path):
        # at D = 0 the eigenbasis observable forces the eigenbasis measurement,
        # whose rate is the source entropy (about 0.6009 bits for the preset)
        solver = light_solver()
        solver["convergence_tol"] = 1e-5
        solver["max_iterations"] = 2500
        spec = write_spec(tmp_path, {"schema": 1, "source": "paper-example",
                                     "observable": {"kind": "eigenbasis"},
                                     "solver": solver})
        csv_path = tmp_path / "curve.csv"
        code = main(["curve", "--spec", spec, "--n", "200", "--seed", "3",
                     "--grid", "0,0.2", "--out-csv", str(csv_path),
                     "--out-svg", str(tmp_path / "curve.svg")])
        assert code == 0
        _, rows = read_rows(csv_path)
        at_zero = [r for r in rows if r[2] == "descent" and float(r[0]) == 0.0]
        assert at_zero
        assert abs(float(at_zero[0][1]) - 0.6008760366928562) < 1e-3

    def test_n_zero_skips_sampling(self, tmp_path):
        spec = write_spec(tmp_path, {"schema": 1, "source": "paper-example",
                                     "observable": "paper-example", "solver": light_solver()})
        csv_path, svg_path = tmp_path / "curve.csv", tmp_path / "curve.svg"
        code = main(["curve", "--spec", spec, "--n", "0", "--grid", "0.1,0.25",
                     "--out-csv", str(csv_path), "--out-svg", str(svg_path)])
        assert code == 0
        lines = csv_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "D,R_bits,method"
        assert [ln.split(",")[2] for ln in lines[1:]] == ["descent", "descent"]
        assert not svg_path.exists()
        # the sample command has no descent to fall back on
        code = main(["sample", "--spec", spec, "--n", "0", "--out-csv", str(tmp_path / "s.csv")])
        assert code == 1
        assert not (tmp_path / "s.csv").exists()


class TestQsiCurve:
    @staticmethod
    def qsi_spec(tmp_path):
        p = [0.7, 0.3]
        beta0 = np.outer([1.0, 0.0], [1.0, 0.0])
        beta1 = np.outer([1.0, 1.0], [1.0, 1.0]) / 2
        joint = p[0] * tensor(np.diag([1.0, 0.0]), beta0) + p[1] * tensor(np.diag([0.0, 1.0]), beta1)
        return write_spec(tmp_path, {
            "schema": 1,
            "side_info": {"matrix": joint.real.tolist(), "dims": [2, 2]},
            "observable": {"kind": "classical-cost",
                           "costs": [[0.0, 1.0], [1.0, 0.0], [0.5, 0.5], [0.5, 0.5]]},
            # examples/side-info.json leaves out the ignored restarts and rng_seed
            "solver": {k: v for k, v in light_solver().items() if k not in ("restarts", "rng_seed")},
        })

    def test_example_spec_is_this_instance(self, tmp_path):
        example = Path(__file__).resolve().parents[1] / "examples" / "side-info.json"
        assert json.loads(example.read_text(encoding="utf-8")) == json.loads(
            Path(self.qsi_spec(tmp_path)).read_text(encoding="utf-8"))

    def test_qsi_curve_runs(self, tmp_path):
        spec = self.qsi_spec(tmp_path)
        out = tmp_path / "qsi.csv"
        code = main(["qsi-curve", "--spec", spec, "--grid", "0.05,0.15,0.3",
                     "--out-csv", str(out)])
        assert code == 0
        text = out.read_text(encoding="utf-8")
        assert text.startswith("#")
        assert "common randomness" in text
        assert "disturbance" in text
        header, rows = read_rows(out)
        assert header == "D,R_bits,method"
        assert len(rows) == 3

    @pytest.mark.parametrize("flag", [["--seed", "3"], ["--threads", "2"]])
    def test_sample_stream_flags_rejected(self, tmp_path, capsys, flag):
        # qsi-curve draws no samples, and its descent rows draw nothing at random
        spec = self.qsi_spec(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["qsi-curve", "--spec", spec, "--out-csv", str(tmp_path / "q.csv")] + flag)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "q.csv").exists()

    def test_sample_reports_conditional_information(self, tmp_path):
        spec = self.qsi_spec(tmp_path)
        out = tmp_path / "samples.csv"
        assert main(["sample", "--spec", spec, "--n", "50", "--seed", "4", "--out-csv", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("# assumes:") and lines[1].startswith("# assumes:")
        assert lines[2] == "distortion,rate_bits,seed_index"
        psi, delta, k = load_problem(spec).build()
        for i, row in enumerate(lines[3:]):
            povm = sweep_povm(2, k, 4, i)
            rate = conditional_mutual_information_cq(induced_cq_state(psi, povm))
            assert row == f"{_fmt(distortion(psi, povm, delta))},{_fmt(rate)},{i}"
        assert i == 49

    def test_curve_descent_rows_match_qsi_curve(self, tmp_path):
        spec = self.qsi_spec(tmp_path)
        curve, qsi = tmp_path / "curve.csv", tmp_path / "qsi.csv"
        grid = ["--grid", "0.05,0.15,0.3"]
        assert main(["curve", "--spec", spec, "--n", "300", "--seed", "2", "--out-csv", str(curve),
                     "--out-svg", str(tmp_path / "curve.svg")] + grid) == 0
        assert main(["qsi-curve", "--spec", spec, "--out-csv", str(qsi)] + grid) == 0
        curve_lines = curve.read_text(encoding="utf-8").splitlines()
        qsi_lines = qsi.read_text(encoding="utf-8").splitlines()
        assert curve_lines[:2] == qsi_lines[:2] and curve_lines[0].startswith("# assumes:")
        # three envelope rows (300 samples may reach no POVM at D=0.05), then the descent rows
        assert len(curve_lines) == 9 and len(qsi_lines) == 6
        assert all(ln.endswith((",sampling", ",unsampled")) for ln in curve_lines[3:6])
        assert curve_lines[6:] == qsi_lines[3:]

    def test_sampling_miss_is_unsampled_not_infeasible(self, tmp_path):
        # 500 samples at seed 2 reach no POVM with D <= 0.05 (the first one is
        # sample 995), while the descent meets that target
        out = tmp_path / "curve.csv"
        assert main(["curve", "--spec", self.qsi_spec(tmp_path), "--n", "500", "--seed", "2",
                     "--grid", "0.05,0.15,0.3", "--out-csv", str(out), "--out-svg", str(tmp_path / "c.svg")]) == 0
        _, rows = read_rows(out)
        assert rows[0] == ["0.05", "", "unsampled"]
        assert [r[2] for r in rows[1:3]] == ["sampling", "sampling"]
        descent = rows[3:]
        assert [r[2] for r in descent] == ["descent"] * 3
        assert descent[0][0] == "0.05" and 0.0 < float(descent[0][1]) < 1.0
        assert not any(r[2] == "infeasible" for r in rows)

    @pytest.mark.parametrize("command", ["sample", "curve", "qsi-curve"])
    def test_cost_row_count_must_match_joint_dimension(self, tmp_path, capsys, command):
        # two rows index the A-marginal's eigenbasis; the side-info problem needs dA*dB = 4
        data = json.loads(Path(self.qsi_spec(tmp_path)).read_text(encoding="utf-8"))
        data["observable"]["costs"] = [[0.0, 1.0], [1.0, 0.0]]
        spec = write_spec(tmp_path, data, "two_rows.json")
        out = tmp_path / "out.csv"
        flags = {"sample": ["--n", "20"], "curve": ["--n", "20", "--grid", "0.1"],
                 "qsi-curve": ["--grid", "0.1"]}
        code = main([command, "--spec", spec, "--out-csv", str(out)] + flags[command])
        assert code == 1
        err = capsys.readouterr().err
        assert "2 rows" in err and "dimension 4" in err
        assert not out.exists()

    def test_missing_side_info_is_an_error(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {"schema": 1, "source": "paper-example",
                                     "observable": "paper-example"})
        code = main(["qsi-curve", "--spec", spec, "--out-csv", str(tmp_path / "q.csv")])
        assert code == 1
        assert "side_info" in capsys.readouterr().err


class TestCheck:
    def test_example_suite_passes(self, tmp_path, capsys):
        code = main(["check", "--suite", "example"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["suite"] == "example"
        assert report["passed"] is True
        assert all("slack" in c for c in report["checks"])

    @pytest.mark.parametrize("suite", ["oracle", "qsi"])
    def test_oracle_and_qsi_suites_pass(self, suite, capsys):
        code = main(["check", "--suite", suite])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["suite"] == suite
        assert report["passed"] is True

    def test_report_to_file(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["check", "--suite", "example", "--out-json", str(out)])
        assert code == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["passed"] is True

    def test_lemmas_suite_passes(self, capsys):
        code = main(["check", "--suite", "lemmas"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        names = {c["name"] for c in report["checks"]}
        assert "dephasing-monotonicity" in names
        assert report["passed"] is True

    def test_failing_suite_exits_nonzero_after_writing_report(self, tmp_path, monkeypatch):
        def failing(seed):
            return {"suite": "failing", "passed": False,
                    "checks": [{"name": "always", "passed": False, "slack": -1.0, "bound": 0.0}]}

        monkeypatch.setitem(check_suites.SUITES, "failing", failing)
        out = tmp_path / "report.json"
        assert main(["check", "--suite", "failing", "--out-json", str(out)]) == 1
        assert json.loads(out.read_text(encoding="utf-8"))["passed"] is False

    def test_unknown_suite_rejected(self):
        with pytest.raises(SystemExit):
            main(["check", "--suite", "bogus"])
