"""The BFGS minimizer and backtracking line search of ``wntorus.direct``,
on test functions independent of the lattice."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wntorus import direct

# the Armijo constant, written out so that a changed constant in the
# module cannot relax the check
SUFFICIENT_DECREASE = 1e-4

QUADRATIC_A = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, -0.4], [0.5, -0.4, 0.7]])
QUADRATIC_B = np.array([1.0, -2.0, 0.5])


def quadratic(x):
    return 0.5 * x @ QUADRATIC_A @ x - QUADRATIC_B @ x, QUADRATIC_A @ x - QUADRATIC_B


def rosenbrock(x):
    value = 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2
    grad = np.array(
        [-400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1.0 - x[0]), 200.0 * (x[1] - x[0] ** 2)]
    )
    return value, grad


def double_well(x):
    # concave in x[0] for |x[0]| < 1/sqrt(3), with minima at x[0] = +-1
    value = x[0] ** 4 / 4.0 - x[0] ** 2 / 2.0 + x[1] ** 2
    return value, np.array([x[0] ** 3 - x[0], 2.0 * x[1]])


def start(fun, x0):
    """The start point, its value and gradient, and the identity as the
    starting inverse-Hessian estimate."""
    x0 = np.asarray(x0, dtype=float)
    return (x0, *fun(x0), np.eye(x0.size))


def accepted_steps(fun, x0, max_evals=2000, gtol=1e-8):
    """Run BFGS and return its stop reason and, for every accepted
    line-search step, the value and slope at 0 and at the step.

    The slope at the step is that of the gradient evaluated there along
    the step taken from the previous iterate."""
    steps = []
    evaluated = []
    iterate = [np.asarray(x0, dtype=float)]
    search = direct._line_search

    def logged(x):
        evaluated.append((x, *fun(x)))
        return evaluated[-1][1:]

    def spy(phi, f0, d0, stp):
        trials = {}

        def traced(a):
            count = len(evaluated)
            value = phi(a)
            if len(evaluated) > count:
                trials[a] = evaluated[-1]
            return value

        accepted = search(traced, f0, d0, stp)
        if accepted is not None:
            x, f, g = trials[accepted]
            steps.append((f0, d0, accepted, f, np.dot(g, x - iterate[0]) / accepted))
            iterate[0] = x
        return accepted

    with mock.patch.object(direct, "_line_search", spy):
        reason, *_ = direct._minimize(logged, *start(fun, x0), max_evals=max_evals, gtol=gtol)
    return reason, steps


def assert_armijo(steps):
    for f0, d0, stp, f, d in steps:
        assert d0 < 0
        assert f <= f0 + SUFFICIENT_DECREASE * stp * d0


@pytest.mark.parametrize(
    "fun, x0", [(quadratic, [3.0, -4.0, 10.0]), (rosenbrock, [-1.2, 1.0])]
)
def test_every_accepted_step_meets_armijo(fun, x0):
    reason, steps = accepted_steps(fun, x0)
    assert reason == "tol-reached"
    assert len(steps) >= 3
    assert_armijo(steps)


@given(st.integers(1, 8), st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=40)
def test_random_spd_quadratic_converges_from_the_identity(dim, seed):
    # 0.5 (x - c)' A (x - c) with the eigenvalues of A in [0.1, 10]; its
    # minimum value is 0, so rounding does not swamp the last decreases
    gen = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(gen.normal(size=(dim, dim)))
    A = (Q * gen.uniform(0.1, 10.0, dim)) @ Q.T
    c = gen.uniform(-5.0, 5.0, dim)

    def fun(x):
        grad = A @ (x - c)
        return 0.5 * (x - c) @ grad, grad

    reason, steps = accepted_steps(fun, gen.uniform(-10.0, 10.0, dim))
    assert reason == "tol-reached"
    assert_armijo(steps)


def test_update_is_skipped_without_positive_curvature():
    # From x[0] = 0.1 the first steps stay in the concave part, where the
    # slope along the step falls (s'y <= 0) and the BFGS update would
    # make the estimate indefinite and the next direction one of ascent.
    reason, steps = accepted_steps(double_well, [0.1, 0.5])
    assert reason == "tol-reached"
    assert any(d <= d0 for _, d0, _, _, d in steps)
    assert_armijo(steps)


def test_rosenbrock_from_standard_start():
    reason, x, f, g, evals = direct._minimize(
        rosenbrock, *start(rosenbrock, [-1.2, 1.0]), max_evals=1000, gtol=1e-5
    )
    assert reason == "tol-reached"
    assert np.max(np.abs(g)) <= 1e-5
    np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-4)
    assert 0 < evals < 100


@pytest.mark.parametrize("x0", [[3.0, -4.0, 10.0], [0.4, -0.5, 0.2]])
def test_first_trial_step_is_at_most_unit_length(x0):
    # from the exact inverse Hessian, the first trial is the minimizer
    # when it lies within 1 of the start, else the point 1 toward it
    trials = []

    def counted(x):
        trials.append(x)
        return quadratic(x)

    x0, f0, g0, _ = start(quadratic, x0)
    newton = np.linalg.solve(QUADRATIC_A, QUADRATIC_B) - x0
    direct._minimize(counted, x0, f0, g0, np.linalg.inv(QUADRATIC_A), max_evals=50, gtol=1e-8)
    expected = x0 + min(1.0, 1.0 / np.linalg.norm(newton)) * newton
    np.testing.assert_allclose(trials[0], expected, rtol=1e-12, atol=1e-12)


def parabola(a):
    return (a - 3.0) ** 2


def test_line_search_interpolates_past_the_minimum():
    # a first trial at 10 fails sufficient decrease on (a - 3)^2, and the
    # quadratic through the value and slope at 0 and the value at 10 is
    # the parabola itself
    assert direct._line_search(parabola, 9.0, -6.0, 10.0) == pytest.approx(3.0, rel=1e-12)


def test_line_search_refuses_an_ascent_direction():
    calls = []
    assert direct._line_search(lambda a: calls.append(a), 0.0, 1.0, 1.0) is None
    assert calls == []


def test_abandoned_line_search_returns_none():
    trials = []

    def phi(a):
        trials.append(a)
        return None

    assert direct._line_search(phi, 9.0, -6.0, 1.0) is None
    assert trials == [1.0]


def test_line_search_rejects_insufficient_decrease():
    # 9 - 6a + c a^2 falls at a = 1 by half of what sufficient decrease
    # asks; the quadratic through the value and slope at 0 and the value
    # at 1 is the function itself, whose minimizer 0.500025 is cut to 0.5
    c = 6.0 - 0.5 * SUFFICIENT_DECREASE * 6.0
    trials = []

    def phi(a):
        trials.append(a)
        return 9.0 - 6.0 * a + c * a * a

    assert direct._line_search(phi, 9.0, -6.0, 1.0) == 0.5
    assert trials == [1.0, 0.5]


def test_line_search_fails_below_its_floor():
    # no finite value anywhere: every trial backtracks by the largest
    # factor, 10, until the next would be at STEP_FLOOR times the
    # first or below
    trials = []

    def phi(a):
        trials.append(a)
        return np.inf

    assert direct._line_search(phi, 9.0, -6.0, 2.0) is None
    assert len(trials) > 1
    assert min(trials) >= 2.0 * direct.STEP_FLOOR > 0.1 * min(trials)


def test_budget_stops_with_the_best_point_seen():
    x0, f0, g0, H0 = start(rosenbrock, [-1.2, 1.0])
    seen = []

    def counted(x):
        value = rosenbrock(x)
        seen.append(value[0])
        return value

    reason, x, f, g, evals = direct._minimize(counted, x0, f0, g0, H0, max_evals=7, gtol=1e-5)
    assert reason == "max-iter"
    assert evals == len(seen) == 7
    assert f == min(seen + [f0])
    assert rosenbrock(x)[0] == f


def test_convergence_at_the_iteration_cap_is_reported():
    # every point lowers the value by 1, and the gradient vanishes at the
    # 200th, the last of a one-parameter run's 200 iterations
    calls = []

    def fun(x):
        calls.append(x)
        return -float(len(calls)), np.array([0.0 if len(calls) == 200 else -1.0])

    reason, x, f, g, evals = direct._minimize(
        fun, np.zeros(1), 0.0, np.array([-1.0]), np.eye(1), max_evals=1000, gtol=1e-5
    )
    assert (reason, evals, f) == ("tol-reached", 200, -200.0)


def test_non_finite_start_stalls_without_evaluating():
    def fail(x):
        raise AssertionError("evaluated")

    x0 = np.zeros(2)
    for f0, g0 in ((np.inf, np.zeros(2)), (1.0, np.array([np.inf, 0.0]))):
        reason, x, f, g, evals = direct._minimize(fail, x0, f0, g0, np.eye(2), max_evals=10, gtol=1e-5)
        assert (reason, evals, f) == ("stalled", 0, f0)


def test_point_without_gradient_is_never_best():
    # beyond x = 0.5 the value keeps falling but the gradient is NaN, so
    # the search must stay on the finite side
    def fun(x):
        value = (x[0] - 2.0) ** 2
        grad = np.array([np.nan if x[0] > 0.5 else 2.0 * (x[0] - 2.0)])
        return value, grad

    reason, x, f, g, evals = direct._minimize(fun, *start(fun, [0.0]), max_evals=50, gtol=1e-5)
    assert reason == "stalled"
    assert x[0] <= 0.5
    assert np.all(np.isfinite(g))
