"""End-to-end command-line flows: gen, solve, check, exit codes, file formats."""

import json

import numpy as np
import pytest

from lpmerit import generate_optimal_lp, load_problem, save_problem
from lpmerit.cli import TRACE_HEADER, main


def _gen(tmp_path, m, n, seed=1, kind="optimal", name="prob.json"):
    path = tmp_path / name
    code = main(
        ["gen", "--m", str(m), "--n", str(n), "--seed", str(seed), "--kind", kind,
         "--out", str(path)]
    )
    assert code == 0
    return path


class TestGen:
    def test_optimal_file_has_certificate(self, tmp_path):
        path = _gen(tmp_path, 4, 9, seed=3)
        doc = json.loads(path.read_text())
        assert doc["kind"] == "optimal"
        assert doc["known_optimum"] is not None
        assert len(doc["A"]) == 36

    def test_unbounded_file_has_ray(self, tmp_path):
        path = _gen(tmp_path, 50, 150, kind="unbounded")
        doc = json.loads(path.read_text())
        assert doc["kind"] == "unbounded"
        assert len(doc["known_ray"]) == 150
        assert "known_optimum" not in doc

    def test_shape_violation_exits_2(self, tmp_path, capsys):
        code = main(["gen", "--m", "150", "--n", "100", "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_env_seed_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LPMERIT_SEED", "77")
        path = _gen(tmp_path, 3, 6, seed=1)
        back = load_problem(path)
        direct = generate_optimal_lp(3, 6, 77)
        assert back.seed == 77
        assert np.array_equal(back.lp.A, direct.lp.A)

    def test_unwritable_output_exits_3(self, tmp_path):
        code = main(["gen", "--m", "3", "--n", "6", "--out", str(tmp_path / "no" / "dir.json")])
        assert code == 3

    def test_roundtrip_matches_library_generation(self, tmp_path):
        path = _gen(tmp_path, 5, 11, seed=9)
        back = load_problem(path)
        direct = generate_optimal_lp(5, 11, 9)
        assert np.array_equal(back.lp.A, direct.lp.A)
        assert np.array_equal(back.lp.b, direct.lp.b)
        assert np.array_equal(back.lp.c, direct.lp.c)
        assert np.array_equal(back.known_optimum.x, direct.known_optimum.x)


class TestSolve:
    def test_optimal_solve_writes_trace_and_report(self, tmp_path):
        path = _gen(tmp_path, 20, 30, seed=1)
        trace = tmp_path / "trace.csv"
        report = tmp_path / "report.json"
        code = main(
            ["solve", "--input", str(path), "--alg", "homotopy",
             "--tol-f", "1e-30", "--tol-grad", "1e-17", "--max-iter", "400",
             "--trace", str(trace), "--report", str(report)]
        )
        assert code == 0
        lines = trace.read_text().splitlines()
        assert lines[0] == TRACE_HEADER
        doc = json.loads(report.read_text())
        assert doc["status"] == "Optimal"
        assert len(lines) - 1 == doc["iterations"] + 1
        iters = [int(line.split(",")[0]) for line in lines[1:]]
        assert iters == list(range(len(iters)))
        final_rel_err = float(lines[-1].split(",")[-1])
        assert final_rel_err <= 1e-8
        assert doc["config"]["algorithm"] == "homotopy"
        assert doc["config"]["theta"] == 0.8
        assert abs(doc["objective_primal"] - doc["objective_dual"]) <= 1e-6

    def test_large_problem_homotopy_solve(self, tmp_path):
        """The (100, 150) homotopy flow reaches at least 1e-8 relative accuracy."""
        path = _gen(tmp_path, 100, 150, seed=1)
        trace = tmp_path / "trace.csv"
        code = main(
            ["solve", "--input", str(path), "--alg", "homotopy",
             "--tol-f", "1e-30", "--tol-grad", "1e-17", "--max-iter", "400",
             "--trace", str(trace)]
        )
        assert code == 0
        final_rel_err = float(trace.read_text().splitlines()[-1].split(",")[-1])
        assert final_rel_err <= 1e-8

    def test_unbounded_solve_exits_10_with_classification(self, tmp_path):
        path = _gen(tmp_path, 3, 8, kind="unbounded")
        report = tmp_path / "report.json"
        code = main(
            ["solve", "--input", str(path), "--alg", "lm-const", "--report", str(report)]
        )
        assert code == 10
        doc = json.loads(report.read_text())
        assert doc["status"] == "NoOptimalSolution"
        assert doc["classification"] == "PrimalFeasibleDualInfeasible"

    def test_homogeneous_escalation_is_appended(self, tmp_path):
        path = _gen(tmp_path, 3, 8, kind="unbounded")
        report = tmp_path / "report.json"
        code = main(
            ["solve", "--input", str(path), "--alg", "lm-const",
             "--homogeneous-escalate", "--report", str(report)]
        )
        assert code == 10
        doc = json.loads(report.read_text())
        assert doc["homogeneous"]["status"] == "DualInfeasible"
        assert doc["homogeneous"]["kappa"] > 0

    def test_adaptive_with_nonstandard_q_warns_but_runs(self, tmp_path, capsys):
        path = _gen(tmp_path, 3, 6)
        code = main(
            ["solve", "--input", str(path), "--alg", "lm-adaptive", "--q", "2.1",
             "--max-iter", "30"]
        )
        err = capsys.readouterr().err
        assert "warning" in err
        assert code in (0, 11)

    def test_missing_input_exits_3(self, tmp_path):
        assert main(["solve", "--input", str(tmp_path / "absent.json")]) == 3

    def test_malformed_input_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"m": 2, "n": 4}')
        assert main(["solve", "--input", str(bad)]) == 2

    @pytest.mark.parametrize(
        "kind,n,keys,length",
        [
            ("optimal", 6, ["known_optimum.x", "known_optimum.s"], 7),
            ("optimal", 6, ["known_optimum.lambda"], 4),
            ("unbounded", 8, ["known_ray"], 3),
            ("unbounded", 8, ["feasible_point"], 9),
        ],
    )
    def test_certificate_of_the_wrong_length_exits_2(
        self, tmp_path, capsys, kind, n, keys, length
    ):
        """A certificate array whose length does not match the problem is
        invalid input, rejected on load before a traced solve can run."""
        path = _gen(tmp_path, 3, n, seed=0, kind=kind)
        doc = json.loads(path.read_text())
        for key in keys:
            *parents, name = key.split(".")
            owner = doc
            for parent in parents:
                owner = owner[parent]
            owner[name] = (owner[name] * 2)[:length]
        path.write_text(json.dumps(doc))
        code = main(["solve", "--input", str(path), "--trace", str(tmp_path / "trace.csv")])
        assert code == 2
        assert f"invalid problem file {path}: {keys[0].split('.')[0]}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--tol-grad", "--tol-f", "--mu", "--nu0", "--q"])
    def test_non_finite_setting_exits_2(self, tmp_path, capsys, flag):
        """An infinite tolerance would certify the starting point; it is
        rejected as an invalid flag before any iteration runs."""
        path = _gen(tmp_path, 5, 10)
        assert main(["solve", "--input", str(path), flag, "inf"]) == 2
        assert "must be finite" in capsys.readouterr().err

    def test_report_config_lists_the_solver_settings(self, tmp_path):
        path = _gen(tmp_path, 3, 6)
        report = tmp_path / "report.json"
        assert main(["solve", "--input", str(path), "--report", str(report)]) == 0
        config = json.loads(report.read_text())["config"]
        assert list(config) == [
            "algorithm", "q", "mu_const", "hessian_lipschitz", "theta", "nu0",
            "max_iter", "tol_grad", "tol_f",
        ]
        assert config["algorithm"] == "homotopy"
        assert config["max_iter"] == 500

    def test_report_roundtrips_through_json(self, tmp_path):
        path = _gen(tmp_path, 3, 6)
        report = tmp_path / "report.json"
        assert main(["solve", "--input", str(path), "--report", str(report)]) == 0
        doc = json.loads(report.read_text())
        for key in ("status", "classification", "final_f", "final_grad_norm",
                    "iterations", "objective_primal", "objective_dual", "point", "config"):
            assert key in doc
        assert set(doc["point"]) == {"x", "lambda", "s"}


class TestCheck:
    def test_known_optimum_passes(self, tmp_path, capsys):
        path = _gen(tmp_path, 4, 9, seed=2)
        doc = json.loads(path.read_text())
        sol = tmp_path / "sol.json"
        sol.write_text(json.dumps(doc["known_optimum"]))
        code = main(["check", "--input", str(path), "--solution", str(sol)])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("[ok]") == 5

    def test_zero_solution_fails(self, tmp_path, capsys):
        path = _gen(tmp_path, 4, 9, seed=2)
        sol = tmp_path / "sol.json"
        sol.write_text(json.dumps({"x": [0.0] * 9, "lambda": [0.0] * 4, "s": [0.0] * 9}))
        code = main(["check", "--input", str(path), "--solution", str(sol)])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_perturbed_optimum_fails(self, tmp_path):
        prob = generate_optimal_lp(4, 9, 2)
        path = tmp_path / "p.json"
        save_problem(path, prob)
        x = prob.known_optimum.x.copy()
        x[0] += 1e-3
        sol = tmp_path / "sol.json"
        sol.write_text(
            json.dumps(
                {"x": x.tolist(), "lambda": prob.known_optimum.lam.tolist(),
                 "s": prob.known_optimum.s.tolist()}
            )
        )
        assert main(["check", "--input", str(path), "--solution", str(sol)]) == 1

    def test_report_point_is_accepted_as_solution(self, tmp_path):
        path = _gen(tmp_path, 3, 6)
        report = tmp_path / "report.json"
        assert main(["solve", "--input", str(path), "--report", str(report)]) == 0
        assert main(["check", "--input", str(path), "--solution", str(report)]) == 0

    def test_wrong_length_solution_exits_2(self, tmp_path):
        path = _gen(tmp_path, 3, 6)
        sol = tmp_path / "sol.json"
        sol.write_text(json.dumps({"x": [0.0] * 5, "lambda": [0.0] * 3, "s": [0.0] * 5}))
        assert main(["check", "--input", str(path), "--solution", str(sol)]) == 2
