"""End-to-end command-line flows: gen, solve, check, exit codes, file formats."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from helpers import primal_infeasible_lp

from lpmerit import (
    Algorithm,
    GeneratedProblem,
    IterationRecord,
    ProblemKind,
    SolverConfig,
    StandardFormLp,
    generate_optimal_lp,
    generate_unbounded_lp,
    is_dual_ray,
    load_problem,
    save_problem,
)
import lpmerit.solver as solver_module
from lpmerit import cli
from lpmerit.cli import TRACE_HEADER, main

SRC = Path(__file__).resolve().parents[1] / "src"


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
             "--max-iter", "400", "--trace", str(trace), "--report", str(report)]
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
        assert list(doc["config"]) == ["algorithm", "nu0", "max_iter"]
        assert abs(doc["objective_primal"] - doc["objective_dual"]) <= 1e-6

    def test_large_problem_homotopy_solve(self, tmp_path):
        """The (100, 150) homotopy flow reaches at least 1e-8 relative accuracy."""
        path = _gen(tmp_path, 100, 150, seed=1)
        trace = tmp_path / "trace.csv"
        code = main(
            ["solve", "--input", str(path), "--alg", "homotopy",
             "--max-iter", "400", "--trace", str(trace)]
        )
        assert code == 0
        final_rel_err = float(trace.read_text().splitlines()[-1].split(",")[-1])
        assert final_rel_err <= 1e-8

    def test_a_run_that_ends_holding_a_verified_ray_exits_10(self, tmp_path):
        """A and b x 1e4 on an unbounded (10, 30) problem: the run verifies a
        ray, then stops on a failed step, and reports no optimum."""
        lp = generate_unbounded_lp(10, 30, 0).lp
        path = tmp_path / "scaled.json"
        save_problem(
            path,
            GeneratedProblem(
                StandardFormLp(lp.A * 1e4, lp.b * 1e4, lp.c), None, None, None, 0,
                ProblemKind.UNKNOWN,
            ),
        )
        report = tmp_path / "report.json"
        assert main(["solve", "--input", str(path), "--report", str(report)]) == 10
        doc = json.loads(report.read_text())
        assert doc["status"] == "NoOptimalSolution"
        assert doc["classification"] == "PrimalFeasibleDualInfeasible"
        assert type(doc["ray_verified_at"]) is int

    def test_unbounded_solve_exits_10_with_classification(self, tmp_path):
        path = _gen(tmp_path, 3, 8, kind="unbounded")
        report = tmp_path / "report.json"
        code = main(
            ["solve", "--input", str(path), "--nu0", "0", "--report", str(report)]
        )
        assert code == 10
        doc = json.loads(report.read_text())
        assert doc["status"] == "NoOptimalSolution"
        assert doc["classification"] == "PrimalFeasibleDualInfeasible"

    def test_lm_const_is_not_a_variant(self, tmp_path, capsys):
        """Constant mu on the base merit is ``--nu0 0``; the old name exits 2."""
        path = _gen(tmp_path, 3, 6)
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--input", str(path), "--alg", "lm-const"])
        assert exc.value.code == 2
        assert "invalid choice: 'lm-const'" in capsys.readouterr().err

    def test_nu0_zero_report_names_the_homotopy_at_nu0_zero(self, tmp_path):
        path = _gen(tmp_path, 3, 6)
        report = tmp_path / "report.json"
        assert main(["solve", "--input", str(path), "--nu0", "0", "--report", str(report)]) == 0
        config = json.loads(report.read_text())["config"]
        assert (config["algorithm"], config["nu0"]) == ("homotopy", 0.0)
        assert config == cli._config_document(SolverConfig(Algorithm.HOMOTOPY, nu0=0.0))

    def test_homogeneous_escalation_is_appended(self, tmp_path):
        path = _gen(tmp_path, 3, 8, kind="unbounded")
        report = tmp_path / "report.json"
        code = main(
            ["solve", "--input", str(path), "--nu0", "0",
             "--homogeneous-escalate", "--report", str(report)]
        )
        assert code == 10
        doc = json.loads(report.read_text())
        assert doc["homogeneous"]["status"] == "DualInfeasible"
        kappa = doc["homogeneous"]["kappa"]
        assert kappa > 0
        # the certificate the benchmark's unbounded check requires
        assert abs(doc["homogeneous"]["tau"]) <= 1e-3 * kappa

    def _escalate(self, tmp_path, monkeypatch, path):
        """Run ``solve --homogeneous-escalate`` on ``path`` and return its
        exit code, its report and the ``near`` given to solve_homogeneous."""
        nears = []
        real = cli.solve_homogeneous

        def spying(lp, config, **kwargs):
            nears.append(kwargs.get("near"))
            return real(lp, config, **kwargs)

        monkeypatch.setattr(cli, "solve_homogeneous", spying)
        report = tmp_path / "report.json"
        code = main(
            ["solve", "--input", str(path), "--homogeneous-escalate", "--report", str(report)]
        )
        assert len(nears) == 1
        return code, json.loads(report.read_text()), nears[0]

    def test_unbounded_escalation_starts_at_the_run_point(self, tmp_path, monkeypatch):
        path = _gen(tmp_path, 3, 8, kind="unbounded")
        code, doc, near = self._escalate(tmp_path, monkeypatch, path)
        assert code == 10
        assert doc["classification"] == "PrimalFeasibleDualInfeasible"
        assert doc["homogeneous"]["status"] == "DualInfeasible"
        assert near is not None
        assert near.x.tolist() == doc["point"]["x"]

    def test_unclassified_escalation_passes_no_near(self, tmp_path, monkeypatch):
        path = tmp_path / "infeasible.json"
        lp = primal_infeasible_lp(20, 30, 0)
        save_problem(path, GeneratedProblem(lp, None, None, None, 0, ProblemKind.UNKNOWN))
        code, doc, near = self._escalate(tmp_path, monkeypatch, path)
        assert code == 10
        assert doc["classification"] == "Unclassified"
        assert near is None
        assert doc["homogeneous"]["status"] == "PrimalInfeasible"

    def test_missing_input_exits_3(self, tmp_path):
        assert main(["solve", "--input", str(tmp_path / "absent.json")]) == 3

    def test_malformed_input_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"m": 2, "n": 4}')
        assert main(["solve", "--input", str(bad)]) == 2

    @pytest.mark.parametrize(
        "text,message",
        [
            ("[1, 2]", "the top level is not a JSON object"),
            ('{"m": 1}', "missing required key(s) n, A, b, c"),
            ('{"m": 1, "n": 3, "b": [1.0]}', "missing required key(s) A, c"),
            ("{", "unexpected end of data"),
            ('{"m": 2.9, "n": 4, "A": 0, "b": 0, "c": 0}', "m must be a 64-bit integer, got 2.9"),
            ('{"m": 1, "n": true, "A": 0, "b": 0, "c": 0}',
             "n must be a 64-bit integer, got True"),
            ('{"m": -1, "n": -1, "A": [1.0], "b": [1.0], "c": [1.0]}',
             "m must be at least 1, got -1"),
            ('{"m": 1, "n": 0, "A": [], "b": [1.0], "c": []}', "n must be at least 1, got 0"),
            ('{"m": 1, "n": 2, "A": [1.0, 1.0], "b": [1.0], "c": [1.0, 0.0], "seed": -5}',
             "seed must be in [0, 2**64), got -5"),
        ],
    )
    def test_malformed_problem_file_is_named_in_the_message(
        self, tmp_path, capsys, text, message
    ):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["solve", "--input", str(bad)]) == 2
        assert f"invalid problem file {bad}: {message}" in capsys.readouterr().err

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

    @pytest.mark.parametrize("flag", ["--nu0"])
    def test_non_finite_setting_exits_2(self, tmp_path, capsys, flag):
        """A non-finite setting is rejected as an invalid flag before any
        iteration runs."""
        path = _gen(tmp_path, 5, 10)
        assert main(["solve", "--input", str(path), flag, "inf"]) == 2
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("alg", ["homotopy", "lm-adaptive"])
    @pytest.mark.parametrize(
        "flag,text",
        [
            ("--q", "3"),
            ("--mu", "1e-9"),
            ("--theta", "0.8"),
            ("--tol-grad", "1e-10"),
            ("--tol-f", "1e-16"),
        ],
    )
    def test_a_removed_tuning_flag_exits_2(self, tmp_path, capsys, flag, text, alg):
        """q, mu and theta are fixed per variant, and the stopping thresholds
        for both; a flag for one of them fails loudly instead of being
        ignored, even at the fixed value."""
        path = _gen(tmp_path, 3, 6)
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--input", str(path), "--alg", alg, flag, text])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {text}" in capsys.readouterr().err

    def test_report_config_lists_the_solver_settings(self, tmp_path):
        """The homotopy reads every setting."""
        path = _gen(tmp_path, 3, 6)
        report = tmp_path / "report.json"
        assert main(["solve", "--input", str(path), "--report", str(report)]) == 0
        config = json.loads(report.read_text())["config"]
        assert list(config) == ["algorithm", "nu0", "max_iter"]
        assert config["algorithm"] == "homotopy"
        assert config["max_iter"] == 500

    def test_adaptive_report_config_lists_the_settings_it_reads(self, tmp_path):
        """The adaptive scheme does not read nu0."""
        path = _gen(tmp_path, 3, 6)
        report = tmp_path / "report.json"
        code = main(["solve", "--input", str(path), "--alg", "lm-adaptive",
                     "--report", str(report)])
        assert code == 0
        config = json.loads(report.read_text())["config"]
        assert list(config) == ["algorithm", "max_iter"]
        assert config == cli._config_document(SolverConfig(Algorithm.LM_ADAPTIVE))

    def test_adaptive_run_warns_of_nothing(self, tmp_path, capsys):
        """With q fixed at 3 per variant, no setting can leave the adaptive
        scheme's guarantee, so the run has nothing to warn about."""
        path = _gen(tmp_path, 3, 6)
        assert main(["solve", "--input", str(path), "--alg", "lm-adaptive"]) == 0
        assert "warning" not in capsys.readouterr().err

    def test_a_setting_the_adaptive_scheme_never_reads_exits_2(self, tmp_path, capsys):
        path = _gen(tmp_path, 3, 6)
        report = tmp_path / "report.json"
        code = main(["solve", "--input", str(path), "--alg", "lm-adaptive", "--nu0", "5",
                     "--report", str(report)])
        assert code == 2
        assert "lm-adaptive never reads nu0" in capsys.readouterr().err
        assert not report.exists()

    def test_report_roundtrips_through_json(self, tmp_path):
        path = _gen(tmp_path, 3, 6)
        report = tmp_path / "report.json"
        assert main(["solve", "--input", str(path), "--report", str(report)]) == 0
        doc = json.loads(report.read_text())
        for key in ("status", "classification", "final_f", "final_grad_norm",
                    "iterations", "polished", "polish_attempts", "objective_primal",
                    "objective_dual", "point", "config"):
            assert key in doc
        assert set(doc["point"]) == {"x", "lambda", "s"}

    @pytest.mark.parametrize(
        "kind,nu0,polished", [("optimal", "1", True), ("unbounded", "0", False)]
    )
    def test_report_and_summary_say_whether_the_polish_stopped_the_run(
        self, tmp_path, capsys, kind, nu0, polished
    ):
        path = _gen(tmp_path, 3, 8, kind=kind)
        report = tmp_path / "report.json"
        main(["solve", "--input", str(path), "--nu0", nu0, "--report", str(report)])
        assert json.loads(report.read_text())["polished"] is polished
        assert ("stopped-by=polished-vertex" in capsys.readouterr().out) is polished

    @pytest.mark.parametrize("kind", ["optimal", "unbounded"])
    def test_report_and_summary_give_the_verified_ray(self, tmp_path, capsys, kind):
        """An unbounded run reports its verified ray and the iteration where
        it verified, which the summary names; an optimal run reports null."""
        path = _gen(tmp_path, 3, 8, kind=kind)
        report = tmp_path / "report.json"
        main(["solve", "--input", str(path), "--report", str(report)])
        doc = json.loads(report.read_text())
        printed = capsys.readouterr().out
        if kind == "optimal":
            assert doc["ray"] is None and doc["ray_verified_at"] is None
            assert "ray-verified-at=" not in printed
            return
        at = doc["ray_verified_at"]
        assert isinstance(at, int) and 0 <= at <= doc["iterations"]
        assert f" ray-verified-at={at} " in printed
        lp = load_problem(path).lp
        assert is_dual_ray(lp, np.array(doc["ray"]))


class TestCheck:
    def test_known_optimum_passes(self, tmp_path, capsys):
        path = _gen(tmp_path, 4, 9, seed=2)
        doc = json.loads(path.read_text())
        sol = tmp_path / "sol.json"
        sol.write_text(json.dumps(doc["known_optimum"]))
        code = main(["check", "--input", str(path), "--solution", str(sol)])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("[ok]") == 4

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

    def test_dominant_entry_does_not_hide_the_dual_residual(self, tmp_path, capsys):
        """With one entry of A at 1e10, 1e-6 * scale is 1e4, so a bound
        relative to scale passed the zero point; its relative dual residual
        is ||c|| / (1 + ||c||) = 0.586."""
        lp = StandardFormLp([[1e10, 1.0]], [0.0], [1.0, 1.0])
        path = tmp_path / "p.json"
        save_problem(path, GeneratedProblem(lp, None, None, None, 0, ProblemKind.UNKNOWN))
        sol = tmp_path / "sol.json"
        sol.write_text(json.dumps({"x": [0.0, 0.0], "lambda": [0.0], "s": [0.0, 0.0]}))
        assert main(["check", "--input", str(path), "--solution", str(sol)]) == 1
        rows = capsys.readouterr().out.splitlines()
        assert rows[1] == "dual   = 5.857864e-01  [FAIL]"
        assert sum("FAIL" in row for row in rows) == 1

    def test_false_optimal_on_row_scaled_input_fails(self, tmp_path, capsys, monkeypatch):
        """Rows of A and b x logspace(-4, 4): the merit test alone ended
        Optimal with x off by 0.63 relative and min x = -2.4e-5.  With the
        polish stubbed out, solve ends at the iteration limit, with
        min x = -5.0e-6, and check must still not pass the point it wrote.
        With the polish, the crossover reaches a vertex that verifies, and
        check passes it."""
        prob = generate_optimal_lp(20, 30, 4)
        r = np.logspace(-4, 4, 20)
        lp = StandardFormLp(prob.lp.A * r[:, None], prob.lp.b * r, prob.lp.c)
        path = tmp_path / "p.json"
        save_problem(path, GeneratedProblem(lp, None, None, None, 4, ProblemKind.UNKNOWN))
        report = tmp_path / "report.json"
        with monkeypatch.context() as patch:
            patch.setattr(solver_module, "_basic_vertex", lambda lp, basis: None)
            assert main(["solve", "--input", str(path), "--report", str(report)]) == 11
        capsys.readouterr()
        assert main(["check", "--input", str(path), "--solution", str(report)]) == 1
        sign = capsys.readouterr().out.splitlines()[3]
        assert sign.startswith("sign") and sign.endswith("[FAIL]")
        assert main(["solve", "--input", str(path), "--report", str(report)]) == 0
        assert json.loads(report.read_text())["polished"] is True
        assert main(["check", "--input", str(path), "--solution", str(report)]) == 0

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

    @pytest.mark.parametrize("top", ["[1, 2]", "null", "3.5", '"x"'])
    def test_solution_that_is_not_an_object_exits_2(self, tmp_path, capsys, top):
        path = _gen(tmp_path, 3, 6)
        sol = tmp_path / "sol.json"
        sol.write_text(top)
        assert main(["check", "--input", str(path), "--solution", str(sol)]) == 2
        assert f"invalid solution file {sol}: the top level is not a JSON object" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("text", ["{", "", '{"x": [1.0,]}'])
    def test_solution_that_is_not_json_exits_2(self, tmp_path, capsys, text):
        path = _gen(tmp_path, 3, 6)
        sol = tmp_path / "sol.json"
        sol.write_text(text)
        assert main(["check", "--input", str(path), "--solution", str(sol)]) == 2
        assert f"invalid solution file {sol}: " in capsys.readouterr().err


def _capture_outcome(monkeypatch):
    """Record every outcome that the CLI's ``solve`` returns."""
    outcomes, cli_solve = [], cli.solve

    def recording_solve(*args, **kwargs):
        outcomes.append(cli_solve(*args, **kwargs))
        return outcomes[-1]

    monkeypatch.setattr(cli, "solve", recording_solve)
    return outcomes


class TestSingleSources:
    """The CLI restates no library decision: flag defaults are SolverConfig's,
    trace columns are IterationRecord's fields, and a report's point is read
    back by the same codec that wrote it."""

    @pytest.mark.parametrize(
        "flag,text,field,value",
        [
            ("--nu0", "2.5", "nu0", 2.5),
            ("--max-iter", "0", "max_iter", 0),
        ],
    )
    def test_a_given_flag_reaches_its_config_field(self, tmp_path, flag, text, field, value):
        assert getattr(SolverConfig(Algorithm.HOMOTOPY), field) != value
        path = _gen(tmp_path, 3, 6)
        report = tmp_path / "report.json"
        code = main(["solve", "--input", str(path), flag, text, "--report", str(report)])
        assert code in (0, 11)
        config = json.loads(report.read_text())["config"]
        assert config[field] == value

    def test_the_parser_is_built_once_and_keeps_no_flag(self, tmp_path):
        """main reuses one parser per process; a flag given to one call,
        or an invalid call, leaves the next call at SolverConfig's default."""
        assert cli.build_parser() is cli.build_parser()
        path = _gen(tmp_path, 3, 6)
        report = tmp_path / "report.json"
        assert main(["solve", "--input", str(path), "--nu0", "2.5"]) in (0, 11)
        with pytest.raises(SystemExit):
            main(["solve", "--input", str(path), "--nu0", "x"])
        assert main(["solve", "--input", str(path), "--report", str(report)]) == 0
        nu0 = SolverConfig(Algorithm.HOMOTOPY).nu0
        assert json.loads(report.read_text())["config"]["nu0"] == nu0

    def test_integral_float_flag_reads_back_as_a_float(self, tmp_path):
        path = _gen(tmp_path, 3, 6)
        report = tmp_path / "report.json"
        assert main(["solve", "--input", str(path), "--nu0", "2", "--report", str(report)]) == 0
        assert '"nu0":2.0,' in report.read_text()
        nu0 = json.loads(report.read_text())["config"]["nu0"]
        assert type(nu0) is float and nu0 == 2.0

    def test_flagless_solve_uses_the_config_defaults(self, tmp_path):
        path = _gen(tmp_path, 3, 6)
        report = tmp_path / "report.json"
        assert main(["solve", "--input", str(path), "--report", str(report)]) == 0
        config = json.loads(report.read_text())["config"]
        assert config == cli._config_document(SolverConfig(Algorithm.HOMOTOPY))

    def test_trace_header_is_the_record_fields(self):
        names = [f.name for f in dataclasses.fields(IterationRecord)]
        assert TRACE_HEADER.split(",") == ["iter" if name == "k" else name for name in names]

    @pytest.mark.parametrize("kind", ["optimal", "unbounded"])
    def test_trace_cells_parse_back_to_the_records(self, tmp_path, monkeypatch, kind):
        """Every cell reads back to its record's value bit for bit; a missing
        reference error (no known optimum) is an empty cell."""
        outcomes = _capture_outcome(monkeypatch)
        path = _gen(tmp_path, 3, 8, kind=kind)
        trace = tmp_path / "trace.csv"
        main(["solve", "--input", str(path), "--trace", str(trace)])
        (outcome,) = outcomes
        rows = [line.split(",") for line in trace.read_text().splitlines()[1:]]
        assert len(rows) == len(outcome.trace) > 1
        names = [f.name for f in dataclasses.fields(IterationRecord)]
        for cells, record in zip(rows, outcome.trace):
            assert int(cells[0]) == record.k
            for name, cell in zip(names[1:], cells[1:]):
                value = getattr(record, name)
                if value is None:
                    assert cell == ""
                else:
                    assert float(cell) == value
        assert (rows[0][-1] == "") == (kind == "unbounded")

    def test_check_reads_back_the_reported_point_bit_for_bit(self, tmp_path, monkeypatch):
        outcomes = _capture_outcome(monkeypatch)
        checked, cli_residuals = [], cli.residuals

        def recording_residuals(lp, point):
            checked.append(point)
            return cli_residuals(lp, point)

        monkeypatch.setattr(cli, "residuals", recording_residuals)
        path = _gen(tmp_path, 4, 9)
        report = tmp_path / "report.json"
        assert main(["solve", "--input", str(path), "--report", str(report)]) == 0
        assert main(["check", "--input", str(path), "--solution", str(report)]) == 0
        (outcome,), (point,) = outcomes, checked
        for name in ("x", "lam", "s"):
            assert getattr(point, name).tobytes() == getattr(outcome.point, name).tobytes()

    def test_report_point_of_the_wrong_length_exits_2(self, tmp_path, capsys):
        path = _gen(tmp_path, 3, 6)
        report = tmp_path / "report.json"
        assert main(["solve", "--input", str(path), "--report", str(report)]) == 0
        doc = json.loads(report.read_text())
        doc["point"]["x"] = doc["point"]["x"][:-1]
        report.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["check", "--input", str(path), "--solution", str(report)]) == 2
        assert f"invalid solution file {report}: solution has sizes (5, 3, 6)" in (
            capsys.readouterr().err
        )


class TestFailurePaths:
    """Each exit for bad input or a failed write, reached once."""

    @pytest.mark.parametrize("seed", [str(2**64), "1180591620717411303424", "-1"])
    def test_seed_outside_64_bits_exits_2(self, tmp_path, capsys, seed):
        """Problem files hold integers to 64 bits, so a seed the file could
        not hold exactly is rejected before anything is written."""
        out = tmp_path / "p.json"
        code = main(["gen", "--m", "3", "--n", "6", "--seed", seed, "--out", str(out)])
        assert code == 2
        assert f"seed must be in [0, 2**64), got {seed}" in capsys.readouterr().err
        assert not out.exists()

    def test_largest_seed_is_written_and_read_back_exactly(self, tmp_path):
        path = _gen(tmp_path, 3, 6, seed=2**64 - 1)
        assert load_problem(path).seed == 2**64 - 1
        assert main(["solve", "--input", str(path)]) == 0

    def test_seed_too_wide_for_the_codec_is_not_rounded_on_load(self, tmp_path, capsys):
        path = _gen(tmp_path, 3, 6)
        doc = json.loads(path.read_text())
        doc["seed"] = 1180591620717411303424
        path.write_text(json.dumps(doc))
        assert main(["solve", "--input", str(path)]) == 2
        assert "seed must be a 64-bit integer, got 1.1805916207174113e+21" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("flag", ["--trace", "--report"])
    def test_unwritable_solve_output_exits_3(self, tmp_path, capsys, flag):
        path = _gen(tmp_path, 3, 6)
        code = main(["solve", "--input", str(path), flag, str(tmp_path / "no" / "out")])
        assert code == 3
        assert "cannot write output" in capsys.readouterr().err

    @pytest.mark.parametrize("missing", ["--input", "--solution"])
    def test_check_with_an_unreadable_file_exits_3(self, tmp_path, capsys, missing):
        path = _gen(tmp_path, 3, 6)
        paths = {"--input": str(path), "--solution": str(path)}
        paths[missing] = str(tmp_path / "absent.json")
        code = main(["check", "--input", paths["--input"], "--solution", paths["--solution"]])
        assert code == 3
        assert f"cannot read {tmp_path / 'absent.json'}" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_gram_matrix_exits_12(self, tmp_path, capsys):
        """With A x 1e160, A A' overflows and solve has no starting point:
        a numerical failure, with nothing written."""
        lp = generate_optimal_lp(3, 6, 0).lp
        path = tmp_path / "p.json"
        problem = StandardFormLp(lp.A * 1e160, lp.b, lp.c)
        save_problem(path, GeneratedProblem(problem, None, None, None, 0, ProblemKind.UNKNOWN))
        report = tmp_path / "report.json"
        assert main(["solve", "--input", str(path), "--report", str(report)]) == 12
        assert "error: no starting point" in capsys.readouterr().err
        assert not report.exists()

    def test_matrix_with_the_wrong_entry_count_exits_2(self, tmp_path, capsys):
        path = _gen(tmp_path, 3, 6)
        doc = json.loads(path.read_text())
        doc["A"] = doc["A"][:-1]
        path.write_text(json.dumps(doc))
        assert main(["solve", "--input", str(path)]) == 2
        assert "A has 17 entries, expected m*n = 18" in capsys.readouterr().err

    def test_exit_code_leaves_the_process(self, tmp_path):
        """``python -m lpmerit.cli`` exits with the code ``main`` returns."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

        def exit_code(path):
            command = [sys.executable, "-m", "lpmerit.cli", "solve", "--input", str(path)]
            return subprocess.run(command, env=env, capture_output=True, timeout=120).returncode

        assert exit_code(_gen(tmp_path, 3, 8, kind="unbounded")) == 10
        not_an_object = tmp_path / "list.json"
        not_an_object.write_text("[1, 2]")
        assert exit_code(not_an_object) == 2
