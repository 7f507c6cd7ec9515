import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

import volrisk.optimize as opt_mod
from volrisk.optimize import OptResult, ParamSpace, finite_diff_gradient, minimize

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

    def test_pair_partner_must_be_in_space(self):
        for partner in ("b", "a"):
            with pytest.raises(ValueError,
                               match=f"^pair partner '{partner}' of 'a' not in space$"):
                ParamSpace(params=(("a", ("pair_sum_lt_one", partner)),))

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


# the map and its Jacobian as two separate loops, the form they had before
# one pass computed both; the pass must reproduce them bit for bit

def _oracle_clip01(p):
    return np.minimum(np.maximum(p, 1e-15), 1.0 - 1e-15)


def _oracle_expit(y):
    e = np.exp(-np.abs(y))
    return np.where(y >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def _oracle_from_unconstrained(space, y):
    y = np.asarray(y, dtype=float)
    x = np.empty_like(y)
    for i, (name, kind) in enumerate(space.params):
        if kind == "free":
            x[i] = y[i]
        elif kind == "positive":
            x[i] = math.exp(min(max(y[i], -700.0), 700.0))
        elif kind[0] == "interval":
            lo, hi = kind[1], kind[2]
            x[i] = lo + (hi - lo) * _oracle_clip01(_oracle_expit(y[i]))
        else:
            j = space.names.index(kind[1])
            if i < j:
                s = _oracle_clip01(_oracle_expit(y[i]))
                frac = _oracle_clip01(_oracle_expit(y[j]))
                x[i] = s * frac
                x[j] = s * (1.0 - frac)
    return x


def _oracle_jacobian(space, y):
    y = np.asarray(y, dtype=float)
    J = np.zeros((y.size, y.size))
    for i, (name, kind) in enumerate(space.params):
        if kind == "free":
            J[i, i] = 1.0
        elif kind == "positive":
            J[i, i] = math.exp(min(max(y[i], -700.0), 700.0))
        elif kind[0] == "interval":
            p = _oracle_clip01(_oracle_expit(y[i]))
            J[i, i] = (kind[2] - kind[1]) * p * (1.0 - p)
        else:
            j = space.names.index(kind[1])
            if i < j:
                s = _oracle_clip01(_oracle_expit(y[i]))
                frac = _oracle_clip01(_oracle_expit(y[j]))
                ds, dfrac = s * (1.0 - s), frac * (1.0 - frac)
                J[i, i], J[i, j] = ds * frac, s * dfrac
                J[j, i], J[j, j] = ds * (1.0 - frac), -s * dfrac
    return J


@st.composite
def _space_and_point(draw):
    params = []
    for n, kind in enumerate(draw(st.lists(
            st.sampled_from(["free", "positive", "interval", "pair"]), min_size=1, max_size=6))):
        if kind == "interval":
            lo = draw(st.floats(-10.0, 10.0))
            params.append((f"p{n}", ("interval", lo, lo + draw(st.floats(1e-3, 20.0)))))
        elif kind == "pair":
            params += [(f"p{n}", ("pair_sum_lt_one", f"q{n}")),
                       (f"q{n}", ("pair_sum_lt_one", f"p{n}"))]
        else:
            params.append((f"p{n}", kind))
    space = ParamSpace(params=tuple(draw(st.permutations(params))))
    y = draw(st.lists(st.floats(-800.0, 800.0), min_size=space.dimension,
                      max_size=space.dimension))
    return space, np.array(y)


class TestOnePassOracle:
    @settings(max_examples=300, deadline=None)
    @given(case=_space_and_point())
    @example(case=(FULL_SPACE, np.array([-800.0, -800.0, -800.0, -800.0, 800.0])))
    @example(case=(FULL_SPACE, np.array([800.0, 800.0, 800.0, 800.0, -800.0])))
    @example(case=(FULL_SPACE, np.array([-0.0, 0.0, -0.0, 0.0, -0.0])))
    def test_map_and_jacobian_bitwise_equal_the_two_loops(self, case):
        space, y = case
        for got, want in ((space.from_unconstrained(y), _oracle_from_unconstrained(space, y)),
                          (space.jacobian(y), _oracle_jacobian(space, y))):
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.array_equal(got, want)
            assert got.tobytes() == want.tobytes()

    def test_both_halves_keep_the_shape_check(self):
        for method in (FULL_SPACE.from_unconstrained, FULL_SPACE.jacobian):
            with pytest.raises(ValueError, match="expected 5 parameters, got shape"):
                method([0.0, 1.0])


_A = np.array([[3.0, 0.4], [0.4, 1.5]])


def _quadratic(center):
    def f(x):
        d = np.asarray(x) - center
        return float(d @ _A @ d)

    def grad(x):
        return 2.0 * _A @ (np.asarray(x) - center)

    return f, grad


def _rosen(v):
    x, y = v
    return (1.0 - x) ** 2 + 100.0 * (y - x * x) ** 2


def _rosen_grad(v):
    x, y = v
    return np.array([-2.0 * (1.0 - x) - 400.0 * x * (y - x * x), 200.0 * (y - x * x)])


class TestMinimize:
    def test_free_quadratic(self):
        space = ParamSpace(params=(("x", "free"), ("y", "free")))
        center = np.array([1.5, -2.0])
        f, grad = _quadratic(center)
        res = minimize(f, space, [0.0, 0.0], gradient=grad)
        assert isinstance(res, OptResult)
        assert res.converged
        np.testing.assert_allclose(res.x_opt, center, atol=1e-4)
        assert res.f_opt < 1e-7
        assert res.gradient_norm < 1e-5

    def test_exact_gradient_through_transforms(self):
        # the gradient is given in x; minimize maps it into y by the chain rule
        center = np.array([0.5, 2.0, -0.3, 0.2, 0.5])

        def f(x):
            return float(np.sum((np.asarray(x) - center) ** 2))

        calls = []

        def grad(x):
            calls.append(1)
            return 2.0 * (np.asarray(x) - center)

        res = minimize(f, FULL_SPACE, [0.0, 1.0, 0.0, 0.1, 0.1], gradient=grad)
        np.testing.assert_allclose(res.x_opt, center, atol=1e-5)
        assert calls

    def test_rosenbrock(self):
        space = ParamSpace(params=(("x", "free"), ("y", "free")))
        res = minimize(_rosen, space, [-1.2, 1.0], gradient=_rosen_grad)
        np.testing.assert_allclose(res.x_opt, [1.0, 1.0], atol=1e-4)

    def test_constrained_positive(self):
        space = ParamSpace(params=(("s", "positive"),))

        def f(v):
            return (math.log(v[0]) - 1.0) ** 2

        def grad(v):
            return np.array([2.0 * (math.log(v[0]) - 1.0) / v[0]])

        res = minimize(f, space, [0.1], gradient=grad)
        assert res.x_opt[0] == pytest.approx(math.e, rel=1e-4)
        assert res.x_opt[0] > 0.0

    def test_pair_stays_feasible(self):
        space = ParamSpace(params=(
            ("a", ("pair_sum_lt_one", "b")), ("b", ("pair_sum_lt_one", "a")),
        ))
        target = np.array([0.2, 0.9])

        # optimum pushes toward the boundary a + b = 1
        def f(v):
            return float(np.sum((np.asarray(v) - target) ** 2))

        res = minimize(f, space, [0.1, 0.5], gradient=lambda v: 2.0 * (np.asarray(v) - target))
        a, b = res.x_opt
        assert a > 0.0 and b > 0.0 and a + b < 1.0

    def test_non_finite_region_survived(self):
        space = ParamSpace(params=(("x", "free"),))
        visited = []

        # a smoothed |x - 2|, whose flat slope makes BFGS overshoot
        def f(v):
            visited.append(v[0])
            if v[0] < -1.0:
                return math.nan
            return math.sqrt(1.0 + (v[0] - 2.0) ** 2)

        def grad(v):
            if v[0] < -1.0:
                return np.array([math.nan])
            return np.array([(v[0] - 2.0) / math.sqrt(1.0 + (v[0] - 2.0) ** 2)])

        res = minimize(f, space, [8.0], gradient=grad)
        assert min(visited) < -1.0  # a trial point lands in the NaN region
        assert res.x_opt[0] == pytest.approx(2.0, abs=1e-4)

    def test_non_finite_start_rejected(self):
        space = ParamSpace(params=(("x", "free"),))
        with pytest.raises(ValueError):
            minimize(lambda v: math.inf, space, [0.0], gradient=lambda v: np.zeros(1))

    def test_never_worse_than_start(self):
        space = ParamSpace(params=(("x", "free"),))

        def f(v):
            return float(np.cos(v[0] * 40.0) + 0.01 * v[0] ** 2)

        def grad(v):
            return np.array([-40.0 * math.sin(v[0] * 40.0) + 0.02 * v[0]])

        for x0 in (-3.0, 0.3, 7.0):
            res = minimize(f, space, [x0], gradient=grad)
            assert res.f_opt <= f([x0]) + 1e-15

    def test_iteration_cap(self, monkeypatch):
        monkeypatch.setattr(opt_mod, "_MAX_ITER", 5)
        space = ParamSpace(params=(("x", "free"), ("y", "free")))
        res = minimize(_rosen, space, [-1.2, 1.0], gradient=_rosen_grad)
        assert res.iterations <= 5
        assert not res.converged

    def test_inconsistent_gradient_not_converged(self):
        # a gradient of the wrong sign makes every search direction uphill:
        # the line search fails, which is reported, not raised
        space = ParamSpace(params=(("x", "free"), ("y", "free")))
        f, grad = _quadratic(np.array([1.5, -2.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = minimize(f, space, [0.0, 0.0], gradient=lambda x: -grad(x))
        assert not res.converged
        assert res.f_opt <= f([0.0, 0.0])

    def test_evals_count_every_pass_and_repeat(self):
        space = ParamSpace(params=(("x", "free"), ("y", "free")))
        passes = []

        def grad(v):
            passes.append(1)
            return _rosen_grad(v)

        first = minimize(_rosen, space, [-1.2, 1.0], gradient=grad)
        assert first.evals == len(passes) > first.iterations
        second = minimize(_rosen, space, [-1.2, 1.0], gradient=grad)
        assert second.evals == first.evals
        assert second.x_opt.tobytes() == first.x_opt.tobytes()

    def test_stops_at_the_rounding_floor(self, monkeypatch):
        # the fit-rule bowl, with a quartic so BFGS cannot finish it in a few
        # exact steps, lifted by 1e12: near its minimum no predicted decrease
        # exceeds the rounding of f, so no step can register
        space = ParamSpace((("a", "free"), ("b", "positive")))

        def f(x):
            return 1e12 + (x[0] - 0.3) ** 2 + (x[0] - 0.3) ** 4 + (math.log(x[1]) - 0.5) ** 2

        def grad(x):
            return np.array([2.0 * (x[0] - 0.3) + 4.0 * (x[0] - 0.3) ** 3,
                             2.0 * (math.log(x[1]) - 0.5) / x[1]])

        searches = []
        line_search = opt_mod._line_search

        def recorded(*args):
            searches.append(line_search(*args))
            return searches[-1]

        monkeypatch.setattr(opt_mod, "_line_search", recorded)
        res = minimize(f, space, [0.0, 1.0], gradient=grad)
        assert searches and all(step is not None for step in searches)
        assert res.f_opt <= searches[-1][1]
        assert not res.converged
        assert res.gradient_norm > opt_mod._G_TOL
        # with no floor (stop only on an uphill direction, as before) the
        # iteration runs on until a line search fails, at more evaluations
        accepted = len(searches)
        monkeypatch.setattr(opt_mod, "_FLOOR", 0.0)
        unfloored = minimize(f, space, [0.0, 1.0], gradient=grad)
        assert searches[-1] is None and len(searches) > accepted
        assert res.evals < unfloored.evals
        assert unfloored.f_opt == res.f_opt

    def test_logistic_transforms_finite_at_extremes(self):
        y = np.array([-800.0, -40.0, -1.0, 0.0, 1e-8, 2.5, 40.0, 800.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = opt_mod._expit(y)
            back = opt_mod._logit(opt_mod._clip01(p))
            for v in (-800.0, 800.0):
                assert math.isfinite(float(opt_mod._expit(v)))
                assert math.isfinite(float(opt_mod._logit(opt_mod._clip01(opt_mod._expit(v)))))
        assert np.all(np.isfinite(back))
        np.testing.assert_allclose(p, special.expit(y), rtol=1e-15, atol=0.0)
        q = np.array([1e-300, 1e-15, 0.3, 0.5, 0.7, 1.0 - 1e-15])
        np.testing.assert_allclose(opt_mod._logit(q), special.logit(q), rtol=1e-15, atol=0.0)


# |x - c| has slope -1 left of c and +1 right of it: no step along it meets
# the curvature condition |slope| <= 0.9, so every line search past the kink fails
_KINK = 0.7390851332151607


def _kink_fg(trace=None):
    def fg(y):
        if trace is not None:
            trace.append(float(y[0]))
        return abs(y[0] - _KINK), np.array([1.0 if y[0] >= _KINK else -1.0])
    return fg


class TestLineSearchFallbacks:
    @pytest.mark.parametrize("ends", [
        # the cubic's discriminant d1^2 - d_lo d_hi is negative
        (0.0, 0.0, 1.0, 1.0, 2.0 / 3.0, 1.0),
        # its denominator d_hi - d_lo + 2 d2 is zero
        (0.0, 0.0, 2.0, 1.0, 1.0, 0.0),
        # its step overflows to inf / inf
        (0.0, 0.0, -1e200, 1.0, 0.0, 2e200),
    ], ids=["negative_discriminant", "zero_denominator", "non_finite_step"])
    def test_interpolate_falls_back_to_the_midpoint(self, ends):
        assert opt_mod._interpolate(*ends) == 0.5

    def test_interpolate_cannot_split_a_too_short_interval(self):
        assert opt_mod._interpolate(1.0, 0.0, -1.0, 1.0 + 1e-16, 0.0, 1.0) is None
        assert opt_mod._interpolate(3.0, 0.0, -1.0, 3.0, 0.0, 1.0) is None

    def test_line_search_fails_once_zoom_runs_out_of_trials(self):
        y = np.array([3.0])
        f0, g0 = _kink_fg()(y)
        trials = []
        assert opt_mod._line_search(_kink_fg(trials), y, f0, g0, -g0, 1.0) is None
        # two bracketing trials, x = 2 then x = -1 past the kink, then every zoom trial
        assert trials[:2] == [2.0, -1.0]
        assert len(trials) == 2 + opt_mod._LS_TRIALS
        assert all(-1.0 < x < 2.0 for x in trials[2:])

    def test_line_search_fails_once_zoom_cannot_split(self, monkeypatch):
        # with trials enough, zoom closes in on the kink until its bracket is too short
        monkeypatch.setattr(opt_mod, "_LS_TRIALS", 400)
        splits = []
        interpolate = opt_mod._interpolate

        def recorded(*ends):
            splits.append(interpolate(*ends))
            return splits[-1]

        monkeypatch.setattr(opt_mod, "_interpolate", recorded)
        y = np.array([3.0])
        f0, g0 = _kink_fg()(y)
        assert opt_mod._line_search(_kink_fg(), y, f0, g0, -g0, 1.0) is None
        assert splits[-1] is None and len(splits) < 400
        # the last step split off reaches from x = 3 to the kink
        assert 3.0 - splits[-2] == pytest.approx(_KINK, abs=1e-14)

    def test_minimize_stops_unconverged_on_a_failed_line_search(self, monkeypatch):
        searches = []
        line_search = opt_mod._line_search

        def recorded(*args):
            searches.append(line_search(*args))
            return searches[-1]

        monkeypatch.setattr(opt_mod, "_line_search", recorded)
        fg = _kink_fg()
        res = minimize(lambda x: fg(x)[0], ParamSpace((("x", "free"),)), [3.0],
                       gradient=lambda x: fg(x)[1])
        assert searches and searches[-1] is None
        assert not res.converged
        assert res.f_opt <= abs(3.0 - _KINK)
        assert res.f_opt == abs(res.x_opt[0] - _KINK)


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

    def test_relative_step_uses_floor(self):
        # near zero the step must not collapse; the derivative of x^2 at
        # 1e-12 is ~0 and a naive |x|-relative step would lose it entirely
        g = finite_diff_gradient(lambda x: x[0] ** 2 + x[0], np.array([1e-12]))
        assert g[0] == pytest.approx(1.0, rel=1e-6)

    def test_non_finite_evaluation_rejected(self):
        with pytest.raises(ValueError):
            finite_diff_gradient(lambda x: math.inf, np.array([0.0]))
