"""Problem construction, synthetic generators, the enumeration oracle, and file I/O."""

import json
import math
import re

import numpy as np
import pytest
from helpers import filled_point

from lpmerit import (
    DimensionMismatch,
    GeneratedProblem,
    HomogeneousPoint,
    KKT_TOL,
    RAY_TOL,
    Algorithm,
    InstanceTooLarge,
    NonFiniteEntry,
    PrimalDualPoint,
    ProblemKind,
    ShapeViolation,
    SolverConfig,
    SolveStatus,
    StandardFormLp,
    brute_force_optimum,
    certificate_residuals,
    generate_optimal_lp,
    generate_unbounded_lp,
    is_dual_ray,
    kkt_residuals,
    load_problem,
    residuals,
    save_problem,
    solve,
)
from lpmerit import serialize


class TestValidation:
    def test_square_rejected_without_override(self):
        with pytest.raises(ShapeViolation):
            StandardFormLp([[1.0]], [1.0], [1.0])

    def test_square_override_permits_desk_problems(self):
        lp = StandardFormLp([[1.0]], [1.0], [1.0], allow_square=True)
        assert (lp.m, lp.n) == (1, 1)

    def test_wide_problem_accepted(self):
        lp = StandardFormLp([[1.0, 1.0]], [1.0], [1.0, 0.0])
        assert (lp.m, lp.n) == (1, 2)

    def test_more_rows_than_columns_rejected(self):
        with pytest.raises(ShapeViolation):
            StandardFormLp([[1.0], [2.0]], [1.0, 2.0], [1.0], allow_square=True)

    def test_nan_entry_rejected(self):
        with pytest.raises(NonFiniteEntry):
            StandardFormLp([[np.nan, 1.0]], [1.0], [1.0, 0.0])

    def test_inconsistent_lengths_rejected(self):
        with pytest.raises(DimensionMismatch):
            StandardFormLp([[1.0, 1.0]], [1.0, 2.0], [1.0, 0.0])
        with pytest.raises(DimensionMismatch):
            StandardFormLp([[1.0, 1.0]], [1.0], [1.0])

    def test_arrays_are_read_only(self):
        lp = StandardFormLp([[1.0, 1.0]], [1.0], [1.0, 0.0])
        with pytest.raises(ValueError):
            lp.A[0, 0] = 7.0


class TestResiduals:
    def test_desk_case(self):
        lp = StandardFormLp([[1.0, 1.0]], [1.0], [1.0, 0.0])
        p = PrimalDualPoint([1.0, 0.0], [1.0], [0.0, -1.0])
        gamma, rho, sigma = residuals(lp, p)
        assert gamma == 0.0
        np.testing.assert_array_equal(rho, [0.0])
        np.testing.assert_array_equal(sigma, [0.0, 0.0])

    def test_zero_point_returns_b_and_c(self):
        prob = generate_optimal_lp(3, 6, 5)
        gamma, rho, sigma = residuals(prob.lp, filled_point(PrimalDualPoint, 6, 3, 0.0))
        assert gamma == 0.0
        np.testing.assert_array_equal(rho, prob.lp.b)
        np.testing.assert_array_equal(sigma, prob.lp.c)

    def test_dimension_mismatch(self):
        lp = StandardFormLp([[1.0, 1.0]], [1.0], [1.0, 0.0])
        with pytest.raises(DimensionMismatch):
            residuals(lp, PrimalDualPoint([1.0], [1.0], [1.0]))

    @pytest.mark.parametrize(
        "x,s,primal,dual,sign",
        [
            ([1.0, -1.0], [1.0, -2.0], 3 / 4, 7 / 5, 2.0),  # s more negative
            ([1.0, -3.0], [1.0, -2.0], 5 / 4, 7 / 5, 3.0),  # x more negative
            ([1.0, 0.0], [1.0, 0.0], 2 / 4, math.sqrt(53) / 5, 0.0),  # none negative
        ],
    )
    def test_kkt_residuals_desk_case(self, x, s, primal, dual, sign):
        """A = [1 1], b = 3, c = (-4, 0), lam = 2, so ||b|| = 3 and ||c|| = 4.
        c.x = -4 and b.lam = 6 at every x here, so the gap is 10 / (1 + 4 + 6),
        not 10 / (1 + |-4 + 6|)."""
        lp = StandardFormLp([[1.0, 1.0]], [3.0], [-4.0, 0.0])
        p = PrimalDualPoint(x, [2.0], s)
        kkt = kkt_residuals(lp, p.x, p.lam, p.s, residuals(lp, p))
        expected = {"primal": primal, "dual": dual, "gap": 10 / 11, "sign": sign}
        assert kkt == pytest.approx(expected, rel=1e-15, abs=0.0)


class TestCertificateResiduals:
    """The kernel of a dual-infeasibility ray: min d >= 0, a null residual
    ||A_P d_P|| / (||A_P||_F ||d_P||) at most RAY_TOL and c.d < 0."""

    @pytest.mark.parametrize("m,n", [(3, 8), (150, 450)])
    @pytest.mark.parametrize("seed", range(4))
    def test_the_generators_ray_passes(self, m, n, seed):
        prob = generate_unbounded_lp(m, n, seed)
        cert = certificate_residuals(prob.lp, prob.known_ray)
        assert cert["sign"] == 0.0 and cert["null"] <= RAY_TOL and cert["objective"] < 0.0
        assert is_dual_ray(prob.lp, prob.known_ray)

    @pytest.mark.parametrize("m,n", [(3, 8), (150, 450)])
    def test_a_negative_entry_fails(self, m, n):
        """A null direction of A with one entry at -0.1, under a c that
        keeps c.d < 0: only the sign rule fails."""
        prob = generate_unbounded_lp(m, n, 0)
        A, ray = prob.lp.A, prob.known_ray
        v = np.linalg.svd(A)[2][-1]
        j = int(np.argmax(np.abs(v)))
        d = ray - (ray[j] + 0.1) / v[j] * v
        lp = StandardFormLp(A, prob.lp.b, -d)
        cert = certificate_residuals(lp, d)
        assert d[j] < 0.0 and cert["null"] <= RAY_TOL and cert["objective"] < 0.0
        assert cert["sign"] > 0.0
        assert not is_dual_ray(lp, d)

    @pytest.mark.parametrize("m,n", [(3, 8), (150, 450)])
    def test_a_ray_off_the_null_space_by_1e_8_fails(self, m, n):
        prob = generate_unbounded_lp(m, n, 0)
        A, ray = prob.lp.A, prob.known_ray
        w = A.T @ np.ones(m)
        d = ray + w * (1e-8 * np.linalg.norm(A) * np.linalg.norm(ray) / np.linalg.norm(A @ w))
        cert = certificate_residuals(prob.lp, d)
        assert cert["sign"] == 0.0 and cert["objective"] < 0.0
        assert cert["null"] == pytest.approx(1e-8, rel=1e-3)
        assert not is_dual_ray(prob.lp, d)

    @pytest.mark.parametrize("flip", [-1.0, 0.0], ids=["c.d>0", "c.d=0"])
    def test_a_ray_that_does_not_lower_the_objective_fails(self, flip):
        prob = generate_unbounded_lp(3, 8, 0)
        lp = StandardFormLp(prob.lp.A, prob.lp.b, flip * prob.lp.c)
        cert = certificate_residuals(lp, prob.known_ray)
        assert cert["sign"] == 0.0 and cert["null"] <= RAY_TOL
        assert cert["objective"] >= 0.0
        assert not is_dual_ray(lp, prob.known_ray)

    def test_the_rounding_at_a_verified_optimum_fails(self):
        """d = max(A'lam + s - c, 0) at the verified optimum of (5, 10, 0) is
        rounding with c.d < 0; it passes the norm-free rules but not A d = 0."""
        lp = generate_optimal_lp(5, 10, 0).lp
        outcome = solve(lp, SolverConfig(Algorithm.HOMOTOPY))
        assert outcome.status is SolveStatus.OPTIMAL
        d = np.maximum(lp.A.T @ outcome.point.lam + outcome.point.s - lp.c, 0.0)
        assert 0.0 < np.linalg.norm(d) <= KKT_TOL and lp.c @ d < 0.0
        cert = certificate_residuals(lp, d)
        assert cert["sign"] == 0.0 and cert["objective"] < 0.0
        assert cert["null"] > RAY_TOL
        assert not is_dual_ray(lp, d)

    @pytest.mark.parametrize(
        "d", [np.zeros(8), np.full(8, np.inf), np.full(8, np.nan)], ids=["zero", "inf", "nan"]
    )
    def test_a_zero_or_non_finite_direction_fails(self, d):
        lp = generate_unbounded_lp(3, 8, 0).lp
        assert certificate_residuals(lp, d) == {
            "sign": math.inf, "null": math.inf, "objective": math.inf
        }
        assert not is_dual_ray(lp, d)

    def test_a_free_column_of_negative_cost_is_a_ray(self):
        """A zero column of A with c_j < 0: A_P = 0, so its null residual is 0."""
        lp = StandardFormLp([[1.0, 1.0, 0.0]], [1.0], [1.0, 1.0, -1.0])
        d = np.array([0.0, 0.0, 2.0])
        cert = certificate_residuals(lp, d)
        assert cert == {"sign": 0.0, "null": 0.0, "objective": pytest.approx(-1 / math.sqrt(3))}
        assert is_dual_ray(lp, d)


@pytest.mark.parametrize("m,n", [(3, 6), (10, 30)])
def test_optimal_generator_certificate(m, n):
    """The stored optimum satisfies the optimality conditions to round-off,
    with x and s complementary on disjoint supports."""
    for seed in range(100):
        prob = generate_optimal_lp(m, n, seed)
        tol = 1e-12 * prob.lp.scale
        opt = prob.known_optimum
        gamma, rho, sigma = residuals(prob.lp, opt)
        assert abs(gamma) <= tol
        assert np.abs(rho).max() <= tol
        assert np.abs(sigma).max() <= tol
        assert opt.x.min() >= 0.0 and opt.s.min() >= 0.0
        assert np.all(opt.x * opt.s == 0.0)
        assert np.all(opt.x + opt.s > 0.0)
        assert np.count_nonzero(opt.x) == m


@pytest.mark.parametrize("m,n", [(3, 6), (10, 30)])
def test_unbounded_generator_certificate(m, n):
    """The stored ray is a nonnegative null direction with negative cost, and
    the stored point is strictly primal feasible."""
    for seed in range(100):
        prob = generate_unbounded_lp(m, n, seed)
        tol = 1e-12 * prob.lp.scale
        d = prob.known_ray
        assert d.min() >= 0.0
        assert np.abs(prob.lp.A @ d).max() <= tol
        assert prob.lp.c @ d < 0.0
        x0 = prob.feasible_point
        assert x0.min() > 0.0
        assert np.abs(prob.lp.A @ x0 - prob.lp.b).max() <= tol


def test_optimal_generator_minimal_size():
    prob = generate_optimal_lp(1, 2, 0)
    tol = 1e-12 * prob.lp.scale
    gamma, rho, sigma = residuals(prob.lp, prob.known_optimum)
    assert abs(gamma) <= tol
    assert np.abs(rho).max() <= tol and np.abs(sigma).max() <= tol


def test_optimal_generator_experiment_size():
    prob = generate_optimal_lp(100, 150, 42)
    assert (prob.lp.m, prob.lp.n) == (100, 150)
    assert np.count_nonzero(prob.known_optimum.x) == 100
    gamma, _, _ = residuals(prob.lp, prob.known_optimum)
    assert abs(gamma) <= 1e-12 * prob.lp.scale


def test_generator_determinism():
    for maker in (generate_optimal_lp, generate_unbounded_lp):
        a = maker(4, 9, 123)
        b = maker(4, 9, 123)
        assert np.array_equal(a.lp.A, b.lp.A)
        assert np.array_equal(a.lp.b, b.lp.b)
        assert np.array_equal(a.lp.c, b.lp.c)


def test_generator_shape_guards():
    with pytest.raises(ShapeViolation):
        generate_optimal_lp(6, 6, 0)
    with pytest.raises(ShapeViolation):
        generate_optimal_lp(0, 3, 0)
    with pytest.raises(ShapeViolation):
        generate_unbounded_lp(5, 6, 0)  # needs m < n - 1


class TestBruteForce:
    def test_two_bases_desk_case(self):
        """min x1 over x1 + x2 = 1: the basis {2} gives value 0, basis {1} gives 1."""
        lp = StandardFormLp([[1.0, 1.0]], [1.0], [1.0, 0.0])
        x, value = brute_force_optimum(lp)
        np.testing.assert_allclose(x, [0.0, 1.0], atol=1e-12)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_infeasible_by_sign_returns_none(self):
        lp = StandardFormLp([[1.0, 1.0]], [-1.0], [1.0, 0.0])
        assert brute_force_optimum(lp) is None

    def test_size_guard(self):
        prob = generate_optimal_lp(3, 13, 0)
        with pytest.raises(InstanceTooLarge):
            brute_force_optimum(prob.lp)

    def test_matches_generated_optimum(self):
        """On generated problems the known optimum is a vertex, so enumeration
        must reproduce its objective value."""
        for seed in range(20):
            prob = generate_optimal_lp(3, 6, seed)
            _, value = brute_force_optimum(prob.lp)
            expected = float(prob.lp.c @ prob.known_optimum.x)
            assert abs(value - expected) <= 1e-8 * (1.0 + abs(expected))


class TestProblemFiles:
    def test_roundtrip_optimal(self, tmp_path):
        prob = generate_optimal_lp(5, 9, 7)
        path = tmp_path / "p.json"
        save_problem(path, prob)
        back = load_problem(path)
        assert np.array_equal(back.lp.A, prob.lp.A)
        assert np.array_equal(back.lp.b, prob.lp.b)
        assert np.array_equal(back.lp.c, prob.lp.c)
        assert np.array_equal(back.known_optimum.x, prob.known_optimum.x)
        assert np.array_equal(back.known_optimum.lam, prob.known_optimum.lam)
        assert np.array_equal(back.known_optimum.s, prob.known_optimum.s)
        assert back.kind is ProblemKind.OPTIMAL
        assert back.seed == 7
        assert back.generator == prob.generator

    def test_roundtrip_unbounded(self, tmp_path):
        prob = generate_unbounded_lp(4, 9, 3)
        path = tmp_path / "u.json"
        save_problem(path, prob)
        back = load_problem(path)
        assert back.known_optimum is None
        assert np.array_equal(back.known_ray, prob.known_ray)
        assert np.array_equal(back.feasible_point, prob.feasible_point)
        assert back.kind is ProblemKind.UNBOUNDED

    def test_file_numbers_are_the_shortest_text_that_round_trips(self, tmp_path):
        prob = generate_optimal_lp(2, 4, 11)
        path = tmp_path / "p.json"
        save_problem(path, prob)
        entries = re.search(r'"A":\[([^\]]*)\]', path.read_text()).group(1).split(",")
        assert entries == [repr(v) for v in prob.lp.A.ravel().tolist()]

    def test_roundtrip_is_bit_for_bit_at_the_edges_of_float64(self, tmp_path):
        """Signed zeros, the smallest subnormal, the largest doubles and a
        value with no short binary form read back bit for bit from every
        array of a problem file."""
        edges = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.1]
        v = np.array(edges + [-0.0, 1.0, -5e-324])
        lp = StandardFormLp(np.stack([v, v[::-1]]), v[:2], v)
        prob = GeneratedProblem(
            lp=lp,
            known_optimum=PrimalDualPoint(v, v[:2], v[::-1]),
            known_ray=-v,
            feasible_point=v[::-1],
            seed=2**64 - 1,
            kind=ProblemKind.OPTIMAL,
        )
        path = tmp_path / "edges.json"
        save_problem(path, prob)
        back = load_problem(path)
        pairs = [
            (back.lp.A, prob.lp.A), (back.lp.b, prob.lp.b), (back.lp.c, prob.lp.c),
            (back.known_optimum.x, prob.known_optimum.x),
            (back.known_optimum.lam, prob.known_optimum.lam),
            (back.known_optimum.s, prob.known_optimum.s),
            (back.known_ray, prob.known_ray), (back.feasible_point, prob.feasible_point),
        ]
        for got, want in pairs:
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert back.seed == 2**64 - 1

    def test_scalars_read_back_with_their_type_and_non_finite_values_as_null(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(serialize.dumps(
            {"two": 2.0, "zero": -0.0, "nan": float("nan"), "inf": np.float64(-np.inf),
             "array": np.array([np.inf, 2.0])}
        ))
        back = serialize.load_document(path)
        assert type(back["two"]) is float and back["two"] == 2.0
        assert math.copysign(1.0, back["zero"]) == -1.0
        assert back["nan"] is None and back["inf"] is None
        assert back["array"] == [None, 2.0]


class TestRenderArrays:
    """orjson's rendering of float64 arrays against its rendering of the same
    numbers as a list of Python floats."""

    @pytest.mark.parametrize(
        "values",
        [
            [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e308, -1e308],
            [0.1, -1.0 / 3.0, 1e-17, 123456789.0, -2.5e-300],
            [],
        ],
    )
    def test_matches_the_per_value_path(self, values):
        arr = np.array(values, dtype=float)
        assert serialize.dumps({"v": arr}) == serialize.dumps({"v": arr.tolist()})

    def test_non_finite_entries_are_written_as_null(self):
        arr = np.array([1.5, np.nan, -np.inf, -0.0])
        assert serialize.dumps({"v": arr}) == '{"v":[1.5,null,null,-0.0]}\n'

    def test_arrays_orjson_does_not_take_are_written_as_lists(self):
        matrix = np.arange(12.0).reshape(3, 4)
        for arr in (matrix[:, 1], matrix.T, np.array([1.5, None], dtype=object)):
            assert serialize.dumps({"v": arr}) == serialize.dumps({"v": arr.tolist()})

    def test_integral_scalar_floats_keep_a_decimal_point(self):
        """A float reads back as a float, integral or not, written as the
        shortest text that round-trips; ints are written as ints."""
        doc = {"a": 2.0, "b": -0.0, "c": np.float64(3.0), "d": 1e20, "e": 0.1, "f": 2,
               "g": [2.0, -0.0], "h": np.array([2.0])}
        text = serialize.dumps(doc)
        assert '"a":2.0,' in text and '"b":-0.0,' in text and '"c":3.0,' in text
        assert '"d":1e20,' in text and '"e":0.1,' in text
        assert '"g":[2.0,-0.0],' in text and '"h":[2.0]' in text
        back = json.loads(text)
        assert all(type(back[k]) is float for k in "abcde")
        assert type(back["f"]) is int
        assert [back[k] for k in "abcde"] == [2.0, -0.0, 3.0, 1e20, 0.1]

    def test_float32_is_written_at_its_exact_value(self):
        """orjson writes float32 at float32 precision, as 0.1; widened first,
        it reads back as the float32's own value."""
        doc = {"status": "Optimal", "final_f": np.float32(0.1),
               "point": {"x": np.array([0.1], np.float32), "s": [np.float32(0.1)]}}
        back = json.loads(serialize.dumps(doc))
        exact = float(np.float32(0.1))
        assert exact == 0.10000000149011612
        assert back["final_f"] == exact
        assert back["point"] == {"x": [exact], "s": [exact]}

    def test_problem_document_renders_as_before(self):
        doc = serialize.problem_document(generate_unbounded_lp(4, 9, 3))
        per_value = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in doc.items()}
        assert serialize.dumps(doc) == serialize.dumps(per_value)


class TestInputGuards:
    """Each rejection of a malformed problem, point or document."""

    def test_one_dimensional_matrix_rejected(self):
        with pytest.raises(DimensionMismatch, match="2-d matrix"):
            StandardFormLp([1.0, 1.0], [1.0], [1.0, 0.0])

    def test_problem_without_constraints_rejected(self):
        with pytest.raises(ShapeViolation, match="m >= 1"):
            StandardFormLp(np.zeros((0, 3)), [], np.zeros(3))

    @pytest.mark.parametrize("cls", [PrimalDualPoint, HomogeneousPoint])
    @pytest.mark.parametrize(
        "x,lam,s,error",
        [
            (np.ones((2, 2)), np.ones(1), np.ones(4), DimensionMismatch),
            ([1.0, np.nan], [1.0], [1.0, 1.0], NonFiniteEntry),
            ([1.0, 1.0], [1.0], [1.0, 1.0, 1.0], DimensionMismatch),
        ],
    )
    def test_malformed_point_blocks_rejected(self, cls, x, lam, s, error):
        scaling = (1.0, 1.0) if cls is HomogeneousPoint else ()
        with pytest.raises(error):
            cls(x, lam, s, *scaling)

    @pytest.mark.parametrize("cls,extra", [(PrimalDualPoint, 0), (HomogeneousPoint, 2)])
    def test_flat_vector_of_the_wrong_length_rejected(self, cls, extra):
        with pytest.raises(DimensionMismatch, match=f"expected length {2 * 4 + 2 + extra}"):
            cls.from_vector(np.zeros(2 * 4 + 2 + extra + 1), 4, 2)

    @pytest.mark.parametrize("tau,kappa", [(np.nan, 1.0), (1.0, np.inf)])
    def test_non_finite_scaling_pair_rejected(self, tau, kappa):
        with pytest.raises(NonFiniteEntry, match="tau and kappa"):
            HomogeneousPoint(np.ones(2), np.ones(1), np.ones(2), tau, kappa)

    def test_unsupported_value_cannot_be_rendered(self):
        for value in (object(), np.array([1 + 2j])):
            with pytest.raises(TypeError, match="not JSON serializable: (object|complex)"):
                serialize.dumps({"value": value})
