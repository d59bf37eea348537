"""The BFGS minimizer and Moré–Thuente line search of ``wntorus._bfgs``,
on test functions independent of the lattice."""

import numpy as np
import pytest

from wntorus import _bfgs

# the strong Wolfe constants, written out so that a changed constant in
# the module cannot relax the check
SUFFICIENT_DECREASE, CURVATURE = 1e-4, 0.9

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


def start(fun, x0):
    """The start point, its value and gradient, and the identity as the
    starting inverse-Hessian estimate."""
    x0 = np.asarray(x0, dtype=float)
    return (x0, *fun(x0), np.eye(x0.size))


def accepted_steps(monkeypatch, fun, x0):
    """Run BFGS and return, for every accepted line-search step, the
    value and slope at 0 and at the step."""
    steps = []
    search = _bfgs.line_search

    def spy(phi, f0, d0, stp):
        accepted = search(phi, f0, d0, stp)
        if accepted is not None:
            steps.append((f0, d0, accepted, *phi(accepted)))
        return accepted

    monkeypatch.setattr(_bfgs, "line_search", spy)
    reason, *_ = _bfgs.minimize(fun, *start(fun, x0), max_evals=2000, gtol=1e-8)
    assert reason == "tol-reached"
    return steps


@pytest.mark.parametrize(
    "fun, x0", [(quadratic, [3.0, -4.0, 10.0]), (rosenbrock, [-1.2, 1.0])]
)
def test_every_accepted_step_meets_strong_wolfe(monkeypatch, fun, x0):
    steps = accepted_steps(monkeypatch, fun, x0)
    assert len(steps) >= 3
    for f0, d0, stp, f, d in steps:
        assert d0 < 0
        assert f <= f0 + SUFFICIENT_DECREASE * stp * d0
        assert abs(d) <= CURVATURE * abs(d0)


def test_rosenbrock_from_standard_start():
    reason, x, f, g, evals = _bfgs.minimize(
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
    _bfgs.minimize(counted, x0, f0, g0, np.linalg.inv(QUADRATIC_A), max_evals=50, gtol=1e-8)
    expected = x0 + min(1.0, 1.0 / np.linalg.norm(newton)) * newton
    np.testing.assert_allclose(trials[0], expected, rtol=1e-12, atol=1e-12)


def parabola(a):
    return (a - 3.0) ** 2, 2.0 * (a - 3.0)


def test_line_search_interpolates_past_the_minimum():
    # a first trial at 10 brackets the minimum of (a - 3)^2, and the
    # cubic through both ends of the bracket is the parabola itself
    assert _bfgs.line_search(parabola, 9.0, -6.0, 10.0) == pytest.approx(3.0, rel=1e-12)


def test_line_search_extrapolates_from_a_short_step():
    trials = []

    def phi(a):
        trials.append(a)
        return parabola(a)

    stp = _bfgs.line_search(phi, 9.0, -6.0, 0.1)
    assert trials[0] == 0.1 and stp == trials[-1] > 0.1
    f, d = parabola(stp)
    assert f <= 9.0 + SUFFICIENT_DECREASE * stp * -6.0
    assert abs(d) <= CURVATURE * 6.0


def test_line_search_refuses_an_ascent_direction():
    calls = []
    assert _bfgs.line_search(lambda a: calls.append(a), 0.0, 1.0, 1.0) is None
    assert calls == []


def test_abandoned_line_search_returns_none():
    trials = []

    def phi(a):
        trials.append(a)
        return None

    assert _bfgs.line_search(phi, 9.0, -6.0, 1.0) is None
    assert trials == [1.0]


def test_budget_stops_with_the_best_point_seen():
    x0, f0, g0, H0 = start(rosenbrock, [-1.2, 1.0])
    seen = []

    def counted(x):
        value = rosenbrock(x)
        seen.append(value[0])
        return value

    reason, x, f, g, evals = _bfgs.minimize(counted, x0, f0, g0, H0, max_evals=7, gtol=1e-5)
    assert reason == "max-iter"
    assert evals == len(seen) == 7
    assert f == min(seen + [f0])
    assert rosenbrock(x)[0] == f


def test_non_finite_start_stalls_without_evaluating():
    def fail(x):
        raise AssertionError("evaluated")

    x0 = np.zeros(2)
    for f0, g0 in ((np.inf, np.zeros(2)), (1.0, np.array([np.inf, 0.0]))):
        reason, x, f, g, evals = _bfgs.minimize(fail, x0, f0, g0, np.eye(2), max_evals=10, gtol=1e-5)
        assert (reason, evals, f) == ("stalled", 0, f0)


def test_point_without_gradient_is_never_best():
    # beyond x = 0.5 the value keeps falling but the gradient is NaN, so
    # the search must stay on the finite side
    def fun(x):
        value = (x[0] - 2.0) ** 2
        grad = np.array([np.nan if x[0] > 0.5 else 2.0 * (x[0] - 2.0)])
        return value, grad

    reason, x, f, g, evals = _bfgs.minimize(fun, *start(fun, [0.0]), max_evals=50, gtol=1e-5)
    assert reason == "stalled"
    assert x[0] <= 0.5
    assert np.all(np.isfinite(g))
