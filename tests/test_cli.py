import json

import numpy as np
import pytest

from qcrd import tensor
from qcrd.cli import main


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

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["sample", "--preset", "paper-example", "--n", "300", "--seed", "3"]
        assert main(argv + ["--out-csv", str(a)]) == 0
        assert main(argv + ["--out-csv", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

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

    def test_grid_outside_dmax_rejected(self, tmp_path):
        code = main(["curve", "--preset", "paper-example", "--n", "10",
                     "--grid", "0:2:0.5", "--out-csv", str(tmp_path / "c.csv"),
                     "--out-svg", str(tmp_path / "c.svg")])
        assert code == 1

    @pytest.mark.parametrize("grid", ["0:0.2:1e-13", "0:inf:1", "0:0.2:x"])
    def test_unusable_grid_range_rejected(self, tmp_path, capsys, grid):
        code = main(["curve", "--preset", "paper-example", "--n", "10",
                     "--grid", grid, "--out-csv", str(tmp_path / "c.csv"),
                     "--out-svg", str(tmp_path / "c.svg")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("fields", [
        {"observable": {"kind": "classical-cost", "costs": [1, 2]}},
        {"solver": {"lagrange_grid": 5}},
        {"solver": {"restarts": 2.5}},
        {"outcomes": True},
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
            "solver": light_solver(),
        })

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
        # the descent seed is the spec's solver.rng_seed; no flag overrides it
        spec = self.qsi_spec(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["qsi-curve", "--spec", spec, "--out-csv", str(tmp_path / "q.csv")] + flag)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "q.csv").exists()

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

    def test_unknown_suite_rejected(self):
        with pytest.raises(SystemExit):
            main(["check", "--suite", "bogus"])
