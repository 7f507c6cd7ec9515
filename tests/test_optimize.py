import math

import numpy as np
import pytest

from volrisk.optimize import (
    OptResult,
    ParamSpace,
    finite_diff_gradient,
    finite_diff_hessian,
    minimize,
)

FULL_SPACE = ParamSpace(params=(
    ("mu", "free"),
    ("scale", "positive"),
    ("rho", ("interval", -1.0, 1.0)),
    ("a", ("pair_sum_lt_one", "b")),
    ("b", ("pair_sum_lt_one", "a")),
))


def _random_feasible(rng):
    a = rng.uniform(0.01, 0.5)
    b = rng.uniform(0.01, 0.98 - a)
    return np.array([
        rng.normal(scale=3.0),
        rng.uniform(0.01, 50.0),
        rng.uniform(-0.99, 0.99),
        a,
        b,
    ])


class TestParamSpace:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            x = _random_feasible(rng)
            y = FULL_SPACE.to_unconstrained(x)
            np.testing.assert_allclose(FULL_SPACE.from_unconstrained(y), x, atol=1e-12)

    def test_from_unconstrained_always_feasible(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            y = rng.uniform(-40.0, 40.0, size=5)
            x = FULL_SPACE.from_unconstrained(y)
            assert np.all(np.isfinite(x))
            assert x[1] > 0.0
            assert -1.0 < x[2] < 1.0
            assert x[3] > 0.0 and x[4] > 0.0 and x[3] + x[4] < 1.0

    def test_infeasible_rejected_with_name(self):
        with pytest.raises(ValueError, match="scale"):
            FULL_SPACE.to_unconstrained([0.0, -1.0, 0.0, 0.1, 0.2])
        with pytest.raises(ValueError, match="rho"):
            FULL_SPACE.to_unconstrained([0.0, 1.0, 1.5, 0.1, 0.2])
        with pytest.raises(ValueError, match="pair"):
            FULL_SPACE.to_unconstrained([0.0, 1.0, 0.0, 0.6, 0.5])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ParamSpace(params=(("x", "free"), ("x", "positive")))

    def test_pair_must_be_symmetric(self):
        with pytest.raises(ValueError):
            ParamSpace(params=(("a", ("pair_sum_lt_one", "b")), ("b", "positive")))

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            ParamSpace(params=(("x", ("interval", 2.0, 1.0)),))

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            ParamSpace(params=(("x", ("simplex",)),))

    def test_jacobian_matches_differences(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            y = FULL_SPACE.to_unconstrained(_random_feasible(rng))
            fd = np.column_stack([
                finite_diff_gradient(lambda yy: FULL_SPACE.from_unconstrained(yy)[i], y)
                for i in range(5)
            ]).T
            np.testing.assert_allclose(FULL_SPACE.jacobian(y), fd, rtol=1e-7, atol=1e-9)

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            FULL_SPACE.to_unconstrained([0.0, 1.0])


def _quadratic(center):
    A = np.array([[3.0, 0.4], [0.4, 1.5]])

    def f(x):
        d = np.asarray(x) - center
        return float(d @ A @ d)

    return f


class TestMinimize:
    @pytest.mark.parametrize("method", ["simplex", "quasi_newton"])
    def test_free_quadratic(self, method):
        space = ParamSpace(params=(("x", "free"), ("y", "free")))
        center = np.array([1.5, -2.0])
        res = minimize(_quadratic(center), space, [0.0, 0.0], method=method)
        assert isinstance(res, OptResult)
        assert res.converged
        np.testing.assert_allclose(res.x_opt, center, atol=1e-4)
        assert res.f_opt < 1e-7

    def test_exact_gradient_through_transforms(self):
        # the gradient is given in x; minimize maps it into y by the chain rule
        center = np.array([0.5, 2.0, -0.3, 0.2, 0.5])

        def f(x):
            return float(np.sum((np.asarray(x) - center) ** 2))

        calls = []

        def grad(x):
            calls.append(1)
            return 2.0 * (np.asarray(x) - center)

        res = minimize(f, FULL_SPACE, [0.0, 1.0, 0.0, 0.1, 0.1], method="quasi_newton",
                       gradient=grad)
        np.testing.assert_allclose(res.x_opt, center, atol=1e-5)
        assert calls

    def test_rosenbrock(self):
        space = ParamSpace(params=(("x", "free"), ("y", "free")))

        def rosen(v):
            x, y = v
            return (1.0 - x) ** 2 + 100.0 * (y - x * x) ** 2

        res = minimize(rosen, space, [-1.2, 1.0], method="quasi_newton")
        np.testing.assert_allclose(res.x_opt, [1.0, 1.0], atol=1e-4)

    def test_constrained_positive(self):
        space = ParamSpace(params=(("s", "positive"),))

        def f(v):
            return (math.log(v[0]) - 1.0) ** 2

        res = minimize(f, space, [0.1], method="simplex")
        assert res.x_opt[0] == pytest.approx(math.e, rel=1e-4)
        assert res.x_opt[0] > 0.0

    def test_pair_stays_feasible(self):
        space = ParamSpace(params=(
            ("a", ("pair_sum_lt_one", "b")), ("b", ("pair_sum_lt_one", "a")),
        ))

        # optimum pushes toward the boundary a + b = 1
        def f(v):
            return (v[0] - 0.2) ** 2 + (v[1] - 0.9) ** 2

        res = minimize(f, space, [0.1, 0.5], method="simplex")
        a, b = res.x_opt
        assert a > 0.0 and b > 0.0 and a + b < 1.0

    def test_non_finite_region_survived(self):
        space = ParamSpace(params=(("x", "free"),))

        def f(v):
            if v[0] < -1.0:
                return math.nan
            return (v[0] - 2.0) ** 2

        res = minimize(f, space, [0.0], method="simplex")
        assert res.x_opt[0] == pytest.approx(2.0, abs=1e-4)

    def test_non_finite_start_rejected(self):
        space = ParamSpace(params=(("x", "free"),))
        with pytest.raises(ValueError):
            minimize(lambda v: math.inf, space, [0.0], method="simplex")

    def test_never_worse_than_start(self):
        space = ParamSpace(params=(("x", "free"),))

        def f(v):
            return float(np.cos(v[0] * 40.0) + 0.01 * v[0] ** 2)

        for x0 in (-3.0, 0.3, 7.0):
            res = minimize(f, space, [x0], method="quasi_newton")
            assert res.f_opt <= f([x0]) + 1e-15

    def test_iteration_cap(self):
        space = ParamSpace(params=(("x", "free"), ("y", "free")))

        def rosen(v):
            x, y = v
            return (1.0 - x) ** 2 + 100.0 * (y - x * x) ** 2

        res = minimize(rosen, space, [-1.2, 1.0], method="simplex", max_iter=5)
        assert res.iterations <= 5
        assert not res.converged

    def test_unknown_method(self):
        space = ParamSpace(params=(("x", "free"),))
        with pytest.raises(ValueError, match="method"):
            minimize(lambda v: v[0] ** 2, space, [1.0], method="newton")


class TestFiniteDiff:
    def test_gradient_matches_analytic(self):
        def f(x):
            return math.sin(x[0]) + math.exp(0.5 * x[1]) + x[0] * x[1]

        x = np.array([0.7, -0.3])
        expected = np.array([
            math.cos(x[0]) + x[1],
            0.5 * math.exp(0.5 * x[1]) + x[0],
        ])
        g = finite_diff_gradient(f, x)
        np.testing.assert_allclose(g, expected, atol=1e-8)

    def test_forward_scheme_less_accurate_but_close(self):
        def f(x):
            return math.exp(x[0])

        x = np.array([1.0])
        central = finite_diff_gradient(f, x, scheme="central")
        forward = finite_diff_gradient(f, x, scheme="forward")
        assert central[0] == pytest.approx(math.e, rel=1e-9)
        assert forward[0] == pytest.approx(math.e, rel=1e-4)

    def test_relative_step_uses_floor(self):
        # near zero the step must not collapse; the derivative of x^2 at
        # 1e-12 is ~0 and a naive |x|-relative step would lose it entirely
        g = finite_diff_gradient(lambda x: x[0] ** 2 + x[0], np.array([1e-12]))
        assert g[0] == pytest.approx(1.0, rel=1e-6)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError, match="scheme"):
            finite_diff_gradient(lambda x: x[0], np.array([0.0]), scheme="backward")

    def test_non_finite_evaluation_rejected(self):
        with pytest.raises(ValueError):
            finite_diff_gradient(lambda x: math.inf, np.array([0.0]))

    def test_hessian_of_quadratic_is_exact(self):
        A = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 2.0]])

        def f(x):
            x = np.asarray(x)
            return float(x @ A @ x)

        H = finite_diff_hessian(f, np.array([0.3, -0.2, 0.9]))
        np.testing.assert_allclose(H, 2.0 * A, atol=1e-4)
        np.testing.assert_allclose(H, H.T, atol=1e-12)
