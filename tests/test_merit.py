"""Merit function values, derivatives, and structural properties."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from helpers import (
    central_gradient,
    central_jacobian,
    eval_hessian,
    filled_point,
    random_homogeneous,
    random_primal_dual,
    reference_gradients,
    reference_penalty_diagonal,
    reference_residuals,
    reference_values,
)

from lpmerit import (
    DimensionMismatch,
    HomogeneousPoint,
    InvalidConfig,
    KindMismatch,
    MeritKind,
    MeritSpec,
    PrimalDualPoint,
    StandardFormLp,
    generate_optimal_lp,
    residuals,
)
from lpmerit import merit
from lpmerit.merit import gradient_at, value_at

BASE3 = MeritSpec(MeritKind.PRIMAL_DUAL, q=3.0)


@pytest.fixture
def desk_lp():
    return StandardFormLp([[1.0]], [1.0], [1.0], allow_square=True)


class TestDeskValues:
    def test_zero_at_the_optimal_point(self, desk_lp):
        assert value_at(BASE3, desk_lp, PrimalDualPoint([1.0], [1.0], [0.0]).as_vector()) == 0.0

    def test_value_at_origin(self, desk_lp):
        # gamma = 0, rho = 1, sigma = 1, no penalty
        origin = filled_point(PrimalDualPoint, 1, 1, 0.0).as_vector()
        assert value_at(BASE3, desk_lp, origin) == 1.0

    def test_value_with_negative_x(self, desk_lp):
        # gamma = -1, rho = 2, sigma = 1, penalty (1/6)*1
        p = PrimalDualPoint([-1.0], [0.0], [0.0])
        assert value_at(BASE3, desk_lp, p.as_vector()) == pytest.approx(19.0 / 6.0, rel=1e-15)

    def test_gradient_at_origin(self, desk_lp):
        g = gradient_at(BASE3, desk_lp, filled_point(PrimalDualPoint, 1, 1, 0.0).as_vector())
        np.testing.assert_array_equal(g, [-1.0, -1.0, -1.0])

    def test_gradient_vanishes_at_the_optimum(self, desk_lp):
        g = gradient_at(BASE3, desk_lp, PrimalDualPoint([1.0], [1.0], [0.0]).as_vector())
        np.testing.assert_array_equal(g, [0.0, 0.0, 0.0])

    def test_desk_hessian_base(self, desk_lp):
        parts = eval_hessian(BASE3, desk_lp, PrimalDualPoint([1.0], [1.0], [0.0]))
        np.testing.assert_array_equal(
            parts.base, [[2.0, -1.0, 0.0], [-1.0, 2.0, 1.0], [0.0, 1.0, 1.0]]
        )
        np.testing.assert_array_equal(parts.diag_add, [0.0, 0.0, 0.0])
        # this 1x1 desk case is the m + n + 1 = full-rank corner
        assert np.linalg.matrix_rank(parts.full()) == 3

    def test_homogeneous_zero_point(self, desk_lp):
        spec = MeritSpec(MeritKind.HOMOGENEOUS, q=3.0)
        z = HomogeneousPoint([0.0], [0.0], [0.0], 0.0, 0.0)
        assert value_at(spec, desk_lp, z.as_vector()) == 0.0
        np.testing.assert_array_equal(gradient_at(spec, desk_lp, z.as_vector()), np.zeros(5))


def _spec_grid():
    specs = []
    for q in (2.1, 3.0):
        for nu in (0.0, 0.1):
            specs.append(MeritSpec(MeritKind.PRIMAL_DUAL, q=q, nu=nu))
        specs.append(MeritSpec(MeritKind.HOMOGENEOUS, q=q))
    return specs


def _spec_id(spec):
    """base (nu = 0) and homotopy (nu > 0) for the primal-dual merit."""
    if spec.kind is MeritKind.HOMOGENEOUS:
        label = "homogeneous"
    else:
        label = "homotopy" if spec.nu > 0.0 else "base"
    return f"{label}-q{spec.q}-nu{spec.nu}"


@pytest.mark.parametrize("spec", _spec_grid(), ids=_spec_id)
def test_gradient_matches_finite_differences(spec):
    prob = generate_optimal_lp(3, 5, 42)
    rng = np.random.default_rng(7)
    dim = 2 * 5 + 3 + (2 if spec.kind is MeritKind.HOMOGENEOUS else 0)
    for _ in range(5):
        z = rng.standard_normal(dim)
        g = gradient_at(spec, prob.lp, z)
        g_fd = central_gradient(lambda zz: value_at(spec, prob.lp, zz), z)
        err = np.abs(g - g_fd).max() / (1.0 + np.abs(g).max())
        assert err <= 1e-5


@pytest.mark.parametrize("spec", _spec_grid(), ids=_spec_id)
def test_hessian_matches_finite_differences(spec):
    prob = generate_optimal_lp(3, 5, 43)
    rng = np.random.default_rng(8)
    dim = 2 * 5 + 3 + (2 if spec.kind is MeritKind.HOMOGENEOUS else 0)
    for _ in range(3):
        z = rng.standard_normal(dim)
        full = eval_hessian(spec, prob.lp, _point_for(spec, z)).full()
        fd = central_jacobian(lambda zz: gradient_at(spec, prob.lp, zz), z)
        tol = 1e-4 * (1.0 + np.linalg.norm(full, "fro"))
        assert np.abs(full - fd).max() <= tol


def _point_for(spec, z):
    n, m = 5, 3
    if spec.kind is MeritKind.HOMOGENEOUS:
        return HomogeneousPoint.from_vector(z, n, m)
    return PrimalDualPoint.from_vector(z, n, m)


class TestInvariants:
    def test_nonnegative_everywhere(self):
        prob = generate_optimal_lp(4, 7, 1)
        rng = np.random.default_rng(2)
        for spec in _spec_grid():
            for _ in range(20):
                if spec.kind is MeritKind.HOMOGENEOUS:
                    point = random_homogeneous(rng, 7, 4, scale=3.0)
                else:
                    point = random_primal_dual(rng, 7, 4, scale=3.0)
                assert value_at(spec, prob.lp, point.as_vector()) >= 0.0

    def test_zero_at_generated_optimum(self):
        for seed in range(10):
            prob = generate_optimal_lp(4, 9, seed)
            s2 = prob.lp.scale**2
            assert value_at(BASE3, prob.lp, prob.known_optimum.as_vector()) <= 1e-20 * s2
            g = gradient_at(BASE3, prob.lp, prob.known_optimum.as_vector())
            assert np.abs(g).max() <= 1e-12 * s2

    def test_midpoint_convexity_sampled(self):
        prob = generate_optimal_lp(3, 6, 4)
        rng = np.random.default_rng(5)
        for _ in range(100):
            u = rng.standard_normal(15) * 2.0
            v = rng.standard_normal(15) * 2.0
            fu = value_at(BASE3, prob.lp, u)
            fv = value_at(BASE3, prob.lp, v)
            fm = value_at(BASE3, prob.lp, (u + v) / 2.0)
            assert fm <= 0.5 * fu + 0.5 * fv + 1e-10 * (1.0 + abs(fu) + abs(fv))

    def test_full_hessian_positive_semidefinite(self):
        prob = generate_optimal_lp(4, 8, 6)
        rng = np.random.default_rng(9)
        for _ in range(10):
            point = random_primal_dual(rng, 8, 4, scale=2.0)
            full = eval_hessian(BASE3, prob.lp, point).full()
            lam_min = np.linalg.eigvalsh(full)[0]
            assert lam_min >= -1e-8 * np.linalg.norm(full, 2)

    def test_full_hessian_is_singular_on_the_nonnegative_orthant(self):
        """At x, s >= 0 the penalty diagonal vanishes, so the Hessian equals
        the base block whose rank m + n + 1 = 4 falls short of 2n + m = 5."""
        lp = StandardFormLp([[1.0, 1.0]], [1.0], [1.0, 0.0])
        full = eval_hessian(BASE3, lp, PrimalDualPoint([0.3, 0.7], [-0.2], [0.5, 0.0])).full()
        svals = np.linalg.svd(full, compute_uv=False)
        assert int((svals > 1e-10 * svals[0]).sum()) <= 4

    @pytest.mark.parametrize("m,n", [(3, 6), (10, 30)])
    def test_base_matrix_rank_bound(self, m, n):
        """The iterate-independent block has numerical rank at most m + n + 1."""
        for seed in range(5):
            prob = generate_optimal_lp(m, n, seed)
            H = eval_hessian(BASE3, prob.lp, filled_point(PrimalDualPoint, n, m, 0.0)).base
            svals = np.linalg.svd(H, compute_uv=False)
            rank = int((svals > 1e-10 * svals[0]).sum())
            assert rank <= m + n + 1

    def test_hessian_is_one_lipschitz_for_q3(self):
        prob = generate_optimal_lp(5, 8, 10)
        rng = np.random.default_rng(11)
        for _ in range(100):
            u = random_primal_dual(rng, 8, 5, scale=2.0)
            v = random_primal_dual(rng, 8, 5, scale=2.0)
            Hu = eval_hessian(BASE3, prob.lp, u).full()
            Hv = eval_hessian(BASE3, prob.lp, v).full()
            dist = np.linalg.norm(u.as_vector() - v.as_vector())
            assert np.linalg.norm(Hu - Hv, "fro") <= dist + 1e-12

    def test_homotopy_hessian_positive_definite_off_boundary(self):
        prob = generate_optimal_lp(3, 6, 12)
        spec = MeritSpec(MeritKind.PRIMAL_DUAL, q=2.1, nu=0.5)
        rng = np.random.default_rng(13)
        for _ in range(10):
            z = rng.standard_normal(15)
            z[np.abs(z) < 0.1] = 0.1  # keep every x and s coordinate away from zero
            full = eval_hessian(spec, prob.lp, PrimalDualPoint.from_vector(z, 6, 3)).full()
            assert np.linalg.eigvalsh(full)[0] > 0.0

    def test_homotopy_at_nu_zero_equals_base(self):
        """At nu = 0 the primal-dual merit is the base merit: its value is
        the closed form over the residuals, evaluate's two pairs coincide,
        and the Hessian diagonal holds only the hinge terms."""
        prob = generate_optimal_lp(3, 6, 14)
        spec = MeritSpec(MeritKind.PRIMAL_DUAL, q=2.1)
        rng = np.random.default_rng(15)
        for _ in range(10):
            point = random_primal_dual(rng, 6, 3, scale=2.0)
            gamma, rho, sigma = residuals(prob.lp, point)
            t = np.concatenate([point.x, point.s])
            closed = 0.5 * (gamma**2 + rho @ rho + sigma @ sigma)
            closed += (np.maximum(-t, 0.0) ** spec.q).sum() / (spec.q * (spec.q - 1.0))
            assert value_at(spec, prob.lp, point.as_vector()) == pytest.approx(closed, rel=1e-13)
            (f0, g0), (f, g), _ = merit.evaluate(spec, prob.lp, point.as_vector())
            assert f0 == f and np.array_equal(g0, g)
            diag = eval_hessian(spec, prob.lp, point).diag_add
            hinge = np.maximum(-t, 0.0) ** (spec.q - 2.0)
            assert np.array_equal(diag, np.concatenate([hinge[:6], np.zeros(3), hinge[6:]]))


def _assert_evaluate_matches(spec, lp, z):
    """Both pairs of merit.evaluate equal (value_at, gradient_at) of their
    specs bit for bit: the first that of the merit at nu = 0, the second that
    of ``spec``."""
    at_nu_zero = dataclasses.replace(spec, nu=0.0)
    for (f, g), of in zip(merit.evaluate(spec, lp, z)[:2], (at_nu_zero, spec)):
        assert np.float64(f).tobytes() == np.float64(merit.value_at(of, lp, z)).tobytes()
        assert g.tobytes() == merit.gradient_at(of, lp, z).tobytes()


def _kernel_points(lp, size):
    """Points of length ``size`` that reach every branch of the kernel:
    Gaussian entries with exact zeros, -0.0 and negative entries on the
    sign-constrained blocks and on lam, and 1e200 entries that overflow the
    squared residuals and the hinge powers to inf."""
    rng = np.random.default_rng(31)
    n, m = lp.n, lp.m
    points = []
    for trial in range(12):
        z = rng.standard_normal(size) * 10.0 ** rng.uniform(-3, 3)
        z[rng.integers(0, size, 3)] = 0.0
        z[rng.integers(0, size, 3)] = -0.0
        z[[0, n, n + m]] = -np.abs(z[[0, n, n + m]])
        if trial % 3 == 1:
            z[rng.integers(0, size, 2)] = 1e200
        if trial % 3 == 2:
            z[rng.integers(0, size, 2)] = -1e200
        points.append(z)
    points.append(np.zeros(size))
    points.append(np.full(size, -0.0))
    return points


@pytest.mark.parametrize("q", [2.1, 3.0])
@pytest.mark.parametrize(
    "kind,nu",
    [(MeritKind.PRIMAL_DUAL, 0.0), (MeritKind.PRIMAL_DUAL, 0.05), (MeritKind.HOMOGENEOUS, 0.0)],
)
def test_kernel_matches_the_reference_bit_for_bit(kind, nu, q):
    """The fused kernel computes the floating-point operations of the separate
    residual, value, gradient and diagonal functions it replaced, in the same
    order: (f0, g0), (f, g), the residuals and the Newton diagonal are equal
    byte for byte, and so are the types of the values."""
    spec = MeritSpec(kind, q=q, nu=nu)
    at_nu_zero = MeritSpec(kind, q=q)
    lp = generate_optimal_lp(3, 7, 4).lp
    size = 2 * lp.n + lp.m + (2 if kind is MeritKind.HOMOGENEOUS else 0)
    saturated = 0
    for z in _kernel_points(lp, size):
        res = reference_residuals(spec, lp, z)
        expected_values = reference_values(spec, lp, z, *res[:3])
        expected_gradients = reference_gradients(spec, lp, z, *res)
        (f0, g0), (f, g), (gamma, rho, sigma) = merit.evaluate(spec, lp, z)
        for got, expected in zip((f0, f), expected_values):
            assert type(got) is type(expected)
            assert np.float64(got).tobytes() == np.float64(expected).tobytes()
        assert g0.tobytes() == expected_gradients[0].tobytes()
        assert g.tobytes() == expected_gradients[1].tobytes()
        assert np.float64(gamma).tobytes() == np.float64(res[0]).tobytes()
        assert rho.tobytes() == res[1].tobytes() and sigma.tobytes() == res[2].tobytes()
        assert merit.penalty_diagonal_at(spec, lp, z).tobytes() == (
            reference_penalty_diagonal(spec, lp, z).tobytes()
        )
        value = merit.value_at(spec, lp, z)
        assert type(value) is type(expected_values[1])
        assert np.float64(value).tobytes() == np.float64(expected_values[1]).tobytes()
        assert merit.gradient_at(spec, lp, z).tobytes() == expected_gradients[1].tobytes()
        assert merit.value_at(at_nu_zero, lp, z) == expected_values[0] or f0 != f0
        saturated += f == math.inf
    assert saturated > 0


class TestHomotopyFromBase:
    """merit.evaluate of a spec with nu > 0 builds the nu-surrogate on the
    base value and gradient; both of its pairs equal value_at and gradient_at
    of their specs bit for bit, and so do the pairs of the base spec."""

    @staticmethod
    def _check(lp, z, q, nu):
        base = MeritSpec(MeritKind.PRIMAL_DUAL, q=q)
        spec = MeritSpec(MeritKind.PRIMAL_DUAL, q=q, nu=nu)
        _, (f, g), _ = merit.evaluate(spec, lp, z)
        assert f == merit.value_at(spec, lp, z)
        assert np.array_equal(g, merit.gradient_at(spec, lp, z))
        _assert_evaluate_matches(base, lp, z)
        _assert_evaluate_matches(spec, lp, z)
        return f, g

    def test_random_points(self):
        rng = np.random.default_rng(23)
        for trial in range(200):
            m = int(rng.integers(1, 8))
            n = m + int(rng.integers(1, 8))
            lp = generate_optimal_lp(m, n, trial).lp
            z = rng.standard_normal(2 * n + m) * 10.0 ** rng.uniform(-3, 3)
            q = (2.1, 3.0)[trial % 2]
            nu = 0.0 if trial % 10 == 0 else 10.0 ** rng.uniform(-12, 0)
            self._check(lp, z, q, nu)

    def test_overflowing_nu_terms_saturate_the_value_only(self):
        """Column 3 and the second row of A are zero, so x_3 and lam_2 enter
        only the nu terms: the base value stays finite, the nu-surrogate's
        value saturates, and the gradient is still returned."""
        lp = StandardFormLp([[1.0, 1.0, 0.0], [0.0, 0.0, 0.0]], [1.0, 0.0], [1.0, 1.0, 0.0])
        for x3, lam2 in ((1e110, 0.0), (0.0, 1e151), (0.0, 1e155)):
            z = np.array([0.5, 0.5, x3, 0.2, lam2, 0.1, 0.1, 0.3])
            assert math.isfinite(merit.value_at(BASE3, lp, z))
            f, g = self._check(lp, z, 3.0, 0.5)
            assert f == math.inf
            assert np.isfinite(g).all()

    def test_saturated_base_value_stays_saturated(self):
        lp = StandardFormLp([[1.0, 1.0]], [1.0], [1.0, 0.0])
        f, _ = self._check(lp, np.array([1e160, 0.0, 0.0, 0.0, 0.0]), 2.1, 0.1)
        assert f == math.inf

    def test_homogeneous_points(self):
        rng = np.random.default_rng(29)
        for trial in range(100):
            m = int(rng.integers(1, 8))
            n = m + int(rng.integers(1, 8))
            lp = generate_optimal_lp(m, n, trial).lp
            z = rng.standard_normal(2 * n + m + 2) * 10.0 ** rng.uniform(-3, 3)
            _assert_evaluate_matches(MeritSpec(MeritKind.HOMOGENEOUS, q=(2.1, 3.0)[trial % 2]), lp, z)

    def test_saturated_homogeneous_value(self):
        """A huge tau overflows the squared primal residual: the value
        saturates and the gradient stays finite."""
        lp = StandardFormLp([[1.0, 1.0]], [1.0], [1.0, 0.0])
        spec = MeritSpec(MeritKind.HOMOGENEOUS, q=3.0)
        z = np.array([0.5, 0.5, 0.2, 0.1, 0.1, 1e160, 1.0])
        _assert_evaluate_matches(spec, lp, z)
        _, (f, g), _ = merit.evaluate(spec, lp, z)
        assert f == math.inf
        assert np.isfinite(g).all()


class TestGuards:
    def test_overflow_saturates_to_inf(self):
        lp = StandardFormLp([[1.0, 1.0]], [1.0], [1.0, 0.0])
        p = PrimalDualPoint([1e200, 0.0], [0.0], [0.0, 0.0])
        v = value_at(BASE3, lp, p.as_vector())
        assert v == math.inf

    def test_fractional_q_handles_negative_coordinates(self):
        lp = StandardFormLp([[1.0, 1.0]], [1.0], [1.0, 0.0])
        spec = MeritSpec(MeritKind.PRIMAL_DUAL, q=2.1)
        p = PrimalDualPoint([-0.5, 0.3], [0.2], [-0.1, 0.0])
        assert math.isfinite(value_at(spec, lp, p.as_vector()))
        assert np.isfinite(gradient_at(spec, lp, p.as_vector())).all()
        assert np.isfinite(eval_hessian(spec, lp, p).diag_add).all()

    def test_q_must_exceed_two(self):
        with pytest.raises(InvalidConfig):
            MeritSpec(MeritKind.PRIMAL_DUAL, q=2.0)

    def test_negative_nu_rejected(self):
        with pytest.raises(InvalidConfig):
            MeritSpec(MeritKind.PRIMAL_DUAL, q=3.0, nu=-0.1)

    def test_homogeneous_merit_takes_no_nu(self):
        with pytest.raises(InvalidConfig, match="homogeneous merit takes no nu"):
            MeritSpec(MeritKind.HOMOGENEOUS, q=3.0, nu=0.1)
        assert MeritSpec(MeritKind.HOMOGENEOUS, q=3.0, nu=0.0).nu == 0.0

    @pytest.mark.parametrize(
        "q,nu", [(math.inf, 0.0), (3.0, math.inf), (math.nan, 0.0), (3.0, math.nan)]
    )
    def test_non_finite_numbers_rejected(self, q, nu):
        """nu = inf would give an infinite value with a non-finite gradient."""
        with pytest.raises(InvalidConfig):
            MeritSpec(MeritKind.PRIMAL_DUAL, q=q, nu=nu)

    def test_kind_mismatch(self):
        lp = StandardFormLp([[1.0, 1.0]], [1.0], [1.0, 0.0])
        hom = MeritSpec(MeritKind.HOMOGENEOUS, q=3.0)
        with pytest.raises(KindMismatch):
            eval_hessian(hom, lp, filled_point(PrimalDualPoint, 2, 1, 0.0))
        with pytest.raises(KindMismatch):
            eval_hessian(BASE3, lp, filled_point(HomogeneousPoint, 2, 1, 1.0))


_COORDINATES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310]),
    st.floats(min_value=-1e150, max_value=1e150, allow_nan=False),
)


_Q = st.floats(min_value=2.01, max_value=4.0)


@settings(max_examples=200, deadline=None)
@given(
    spec=st.one_of(
        st.builds(
            MeritSpec,
            st.just(MeritKind.PRIMAL_DUAL),
            _Q,
            st.one_of(st.just(0.0), st.floats(min_value=1e-12, max_value=1.0)),
        ),
        st.builds(MeritSpec, st.just(MeritKind.HOMOGENEOUS), _Q),
    ),
    coords=st.lists(_COORDINATES, min_size=10, max_size=10),
)
@example(spec=MeritSpec(MeritKind.HOMOGENEOUS, q=2.1), coords=[1.0] * 8 + [-0.5, -0.43])
def test_penalty_diagonal_matches_its_closed_form(spec, coords):
    """max(-t, 0)**(q-2) + nu*max(t, 0)**(q-2) on the sign-constrained
    coordinates t, tau and kappa included, and 2 nu on lam, exactly."""
    m, n = 2, 3
    lp = generate_optimal_lp(m, n, 0).lp
    z = np.array(coords[: 2 * n + m + (2 if spec.kind is MeritKind.HOMOGENEOUS else 0)])
    q, nu = spec.q, spec.nu
    t = np.concatenate([z[:n], z[n + m :]])
    expected = np.maximum(-t, 0) ** (q - 2) + nu * np.maximum(t, 0) ** (q - 2)
    d = merit.penalty_diagonal_at(spec, lp, z)
    assert np.array_equal(np.concatenate([d[:n], d[n + m :]]), expected)
    assert np.array_equal(d[n : n + m], np.full(m, 2.0 * nu))


def test_base_matrices_are_symmetric():
    prob = generate_optimal_lp(4, 7, 18)
    p = filled_point(PrimalDualPoint, 7, 4, 0.0)
    H = eval_hessian(BASE3, prob.lp, p).base
    np.testing.assert_array_equal(H, H.T)
    hp = filled_point(HomogeneousPoint, 7, 4, 1.0)
    Hh = eval_hessian(MeritSpec(MeritKind.HOMOGENEOUS, q=3.0), prob.lp, hp).base
    np.testing.assert_array_equal(Hh, Hh.T)


@pytest.mark.parametrize("m,n,seed", [(4, 7, 18), (150, 450, 0)])
def test_hessian_base_is_the_jtj_block(m, n, seed):
    """The cached block equals the (x, lam, tau, kappa) block of J'J formed
    from the explicit Jacobian, to rounding."""
    lp = generate_optimal_lp(m, n, seed).lp
    H = merit.hessian_base(lp)
    ones = filled_point(HomogeneousPoint, n, m, 1.0)
    JtJ = eval_hessian(MeritSpec(MeritKind.HOMOGENEOUS), lp, ones).base
    keep = np.r_[0 : n + m, 2 * n + m : 2 * n + m + 2]  # drop the s rows and columns
    reference = JtJ[np.ix_(keep, keep)]
    assert H.shape == (n + m + 2, n + m + 2)
    assert np.abs(H - reference).max() <= 1e-14 * np.abs(reference).max()


def test_homogeneous_base_borders_the_primal_dual_base():
    """The leading (x, lam) block of the homogeneous base is the (x, lam)
    block of the primal-dual merit's J'J: the embedding only borders it."""
    for m, n, seed in [(4, 7, 18), (150, 450, 0)]:
        lp = generate_optimal_lp(m, n, seed).lp
        k = n + m
        H = merit.hessian_base(lp)
        origin = filled_point(PrimalDualPoint, n, m, 0.0)
        primal_dual = eval_hessian(BASE3, lp, origin).base[:k, :k]
        assert np.abs(H[:k, :k] - primal_dual).max() <= 1e-14 * np.abs(primal_dual).max()


def test_hessian_base_is_cached_per_problem():
    prob = generate_optimal_lp(3, 6, 16)
    h1 = merit.hessian_base(prob.lp)
    assert merit.hessian_base(prob.lp) is h1
    assert not h1.flags.writeable
    assert merit.hessian_base(generate_optimal_lp(3, 6, 16).lp) is not h1


@pytest.mark.parametrize(
    "spec,size", [(BASE3, 15), (MeritSpec(MeritKind.HOMOGENEOUS, q=3.0), 17)]
)
@pytest.mark.parametrize("function", [merit.value_at, merit.evaluate])
def test_flat_point_of_the_wrong_length_is_rejected(spec, size, function):
    lp = generate_optimal_lp(3, 6, 0).lp
    with pytest.raises(DimensionMismatch, match=f"expected point of length {size}"):
        function(spec, lp, np.zeros(size - 1))
