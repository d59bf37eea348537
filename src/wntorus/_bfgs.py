"""BFGS with the Moré–Thuente line search, for :func:`direct.fit_direct`.

A port of what ``scipy.optimize.minimize(method="BFGS")`` runs with an
exact gradient: the loop and inverse-Hessian update of
``_minimize_bfgs``, the first step of ``scalar_search_wolfe1``, and the
MINPACK-2 routines DCSRCH and DCSTEP of J. J. Moré and D. J. Thuente
("Line search algorithms with guaranteed sufficient decrease", ACM TOMS
20, 1994), by Brett M. Averick, Richard G. Carter and Jorge J. Moré.
The port follows scipy 1.17.1 (``optimize/_optimize.py``,
``_linesearch.py`` and ``_dcsrch.py``), Copyright (c) 2001-2002
Enthought, Inc. and 2003 SciPy Developers, under the BSD 3-clause
license, operation for operation, with two differences.  The search
starts from an inverse-Hessian estimate given by the caller instead of
the identity, and its first trial step moves the point by at most 1
(scipy's moves it by about 1.01).  scipy's second line search
(``line_search_wolfe2``), which it tries when DCSRCH fails, is not
ported: a failed search ends the run.
"""

import numpy as np

#: Sufficient decrease and curvature constants of the strong Wolfe
#: conditions, f(a) <= f(0) + C1 a f'(0) and |f'(a)| <= C2 |f'(0)|.
C1, C2 = 1e-4, 0.9
#: Relative width below which a bracketing interval stops the search.
XTOL = 1e-14
#: Bounds on the step.
STPMIN, STPMAX = 1e-100, 1e100
#: Trial steps per line search.
MAX_TRIALS = 100


def dcstep(stx, fx, dx, sty, fy, dy, stp, fp, dp, brackt, stpmin, stpmax):
    """One safeguarded step of the Moré–Thuente search (DCSTEP).

    ``stx`` is the step with the least value so far and ``sty`` the
    other end of the interval; ``stp`` is the step just evaluated.  Each
    comes with its value f and derivative d.  Returns the updated
    ``stx, fx, dx, sty, fy, dy``, the next trial step and whether a
    minimizer is bracketed.  Call under ``np.errstate(invalid="ignore",
    over="ignore")``: infinite values give NaN steps, which end the
    search.
    """
    sgnd = np.sign(dp) * np.sign(dx)
    if fp > fx:
        # A higher value: the minimum is bracketed.  Take the cubic step
        # if it is closer to stx than the quadratic step, else their mean.
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        s = max(abs(theta), abs(dx), abs(dp))
        gamma = s * np.sqrt((theta / s) ** 2 - (dx / s) * (dp / s))
        if stp < stx:
            gamma *= -1
        p = (gamma - dx) + theta
        q = ((gamma - dx) + gamma) + dp
        r = p / q
        stpc = stx + r * (stp - stx)
        stpq = stx + ((dx / ((fx - fp) / (stp - stx) + dx)) / 2.0) * (stp - stx)
        if abs(stpc - stx) <= abs(stpq - stx):
            stpf = stpc
        else:
            stpf = stpc + (stpq - stpc) / 2.0
        brackt = True
    elif sgnd < 0.0:
        # A lower value and derivatives of opposite sign: bracketed.  Take
        # the cubic step if it is farther from stp than the secant step.
        theta = 3 * (fx - fp) / (stp - stx) + dx + dp
        s = max(abs(theta), abs(dx), abs(dp))
        gamma = s * np.sqrt((theta / s) ** 2 - (dx / s) * (dp / s))
        if stp > stx:
            gamma *= -1
        p = (gamma - dp) + theta
        q = ((gamma - dp) + gamma) + dx
        r = p / q
        stpc = stp + r * (stx - stp)
        stpq = stp + (dp / (dp - dx)) * (stx - stp)
        if abs(stpc - stp) > abs(stpq - stp):
            stpf = stpc
        else:
            stpf = stpq
        brackt = True
    elif abs(dp) < abs(dx):
        # A lower value, derivatives of the same sign and shrinking.  The
        # cubic step counts only if the cubic tends to infinity in the
        # direction of the step or its minimum lies beyond stp.
        theta = 3 * (fx - fp) / (stp - stx) + dx + dp
        s = max(abs(theta), abs(dx), abs(dp))
        gamma = s * np.sqrt(max(0, (theta / s) ** 2 - (dx / s) * (dp / s)))
        if stp > stx:
            gamma = -gamma
        p = (gamma - dp) + theta
        q = (gamma + (dx - dp)) + gamma
        r = p / q
        if r < 0 and gamma != 0:
            stpc = stp + r * (stx - stp)
        elif stp > stx:
            stpc = stpmax
        else:
            stpc = stpmin
        stpq = stp + (dp / (dp - dx)) * (stx - stp)
        if brackt:
            # take the step closer to stp, at most 0.66 of the way to sty
            if abs(stpc - stp) < abs(stpq - stp):
                stpf = stpc
            else:
                stpf = stpq
            if stp > stx:
                stpf = min(stp + 0.66 * (sty - stp), stpf)
            else:
                stpf = max(stp + 0.66 * (sty - stp), stpf)
        else:
            # take the step farther from stp
            if abs(stpc - stp) > abs(stpq - stp):
                stpf = stpc
            else:
                stpf = stpq
            stpf = min(max(stpf, stpmin), stpmax)
    else:
        # A lower value, derivatives of the same sign, not shrinking: the
        # cubic step toward sty if bracketed, else a bound.
        if brackt:
            theta = 3.0 * (fp - fy) / (sty - stp) + dy + dp
            s = max(abs(theta), abs(dy), abs(dp))
            gamma = s * np.sqrt((theta / s) ** 2 - (dy / s) * (dp / s))
            if stp > sty:
                gamma = -gamma
            p = (gamma - dp) + theta
            q = ((gamma - dp) + gamma) + dy
            r = p / q
            stpf = stp + r * (sty - stp)
        elif stp > stx:
            stpf = stpmax
        else:
            stpf = stpmin

    if fp > fx:
        sty, fy, dy = stp, fp, dp
    else:
        if sgnd < 0:
            sty, fy, dy = stx, fx, dx
        stx, fx, dx = stp, fp, dp
    return stx, fx, dx, sty, fy, dy, stpf, brackt


def line_search(phi, f0, d0, stp):
    """A step along a descent direction that meets the strong Wolfe
    conditions with ``C1`` and ``C2`` (Moré–Thuente, DCSRCH).

    ``phi(a)`` returns the value and the directional derivative at step
    ``a``, or None to abandon the search; ``f0`` and ``d0`` are those at
    0, and ``stp`` is the first trial step.  Returns the accepted step
    (the last one passed to ``phi``), or None if the search fails or is
    abandoned.
    """
    if stp < STPMIN or d0 >= 0:
        return None
    brackt = False
    stage = 1
    gtest = C1 * d0
    width = STPMAX - STPMIN
    width1 = width / 0.5
    # stx is the step with the least value so far, sty the other end of
    # the interval, and stmin and stmax the bounds on the next trial
    stx, fx, gx = 0.0, f0, d0
    sty, fy, gy = 0.0, f0, d0
    stmin, stmax = 0, stp + 4.0 * stp
    for trial in range(MAX_TRIALS):
        # each pass tests the previous trial, then evaluates the next; as
        # in scipy's DCSRCH, the last trial is evaluated but not tested
        if trial:
            ftest = f0 + stp * gtest
            if stage == 1 and f <= ftest and g >= 0:
                stage = 2
            if f <= ftest and abs(g) <= C2 * -d0:
                return stp
            if (
                brackt and (stp <= stmin or stp >= stmax or stmax - stmin <= XTOL * stmax)
                or stp == STPMAX and f <= ftest and g <= gtest
                or stp == STPMIN and (f > ftest or g >= gtest)
            ):
                return None
            with np.errstate(invalid="ignore", over="ignore"):
                if stage == 1 and f <= fx and f > ftest:
                    # a lower value without sufficient decrease: step on
                    # the value less its sufficient-decrease line
                    stx, fxm, gxm, sty, fym, gym, stp, brackt = dcstep(
                        stx, fx - stx * gtest, gx - gtest,
                        sty, fy - sty * gtest, gy - gtest,
                        stp, f - stp * gtest, g - gtest,
                        brackt, stmin, stmax,
                    )
                    fx = fxm + stx * gtest
                    fy = fym + sty * gtest
                    gx = gxm + gtest
                    gy = gym + gtest
                else:
                    stx, fx, gx, sty, fy, gy, stp, brackt = dcstep(
                        stx, fx, gx, sty, fy, gy, stp, f, g, brackt, stmin, stmax
                    )
            if brackt:
                # bisect when the interval has not shrunk enough
                if abs(sty - stx) >= 0.66 * width1:
                    stp = stx + 0.5 * (sty - stx)
                width1 = width
                width = abs(sty - stx)
                stmin, stmax = min(stx, sty), max(stx, sty)
            else:
                stmin = stp + 1.1 * (stp - stx)
                stmax = stp + 4.0 * (stp - stx)
            stp = min(max(stp, STPMIN), STPMAX)
            if brackt and (stp <= stmin or stp >= stmax or stmax - stmin <= XTOL * stmax):
                stp = stx  # no further progress: go back to the best step
            if not np.isfinite(stp):
                return None
        found = phi(stp)
        if found is None:
            return None
        f, g = found
    return None


def minimize(fun, x, f, g, H, max_evals, gtol):
    """Minimize ``fun`` by BFGS from ``x``, where ``fun(x)`` is ``(f, g)``
    and ``H`` is the starting estimate of the inverse Hessian there.

    ``fun`` returns the value and gradient at a point.  The first trial
    step moves ``x`` by at most 1 in the Euclidean norm.  A point whose
    gradient is not finite counts as having value ``inf``: it fails
    sufficient decrease and is never the best point.  A point equal to
    the last or the best one is not evaluated again, and at most
    ``max_evals`` points are.  The search stops when every entry of the
    gradient is at most ``gtol``, when a line search fails or the start
    has no finite value or gradient, or after 200 iterations per
    parameter (as scipy's default ``maxiter``).

    Returns ``(reason, x, f, g, evals)``: "tol-reached", "stalled" or
    "max-iter" (the budget is spent), the best point seen with its value
    and gradient, and the number of evaluations spent.
    """
    best = last = (x, f, g)
    evals = 0

    def evaluate(point):
        # points have one shape, so equality is that of every entry
        nonlocal best, last, evals
        if not (point == last[0]).all():
            if last is not best and (point == best[0]).all():
                last = best
            elif evals == max_evals:
                return None
            else:
                evals += 1
                value, grad = fun(point)
                if not np.isfinite(grad).all():
                    value = np.inf
                last = (point, value, grad)
                if value < best[1]:
                    best = last
        return last

    if not (np.isfinite(f) and np.isfinite(g).all()):
        return "stalled", *best, evals
    identity = np.eye(x.size)
    f_prev = None
    for _ in range(200 * x.size):
        if np.abs(g).max() <= gtol:
            return "tol-reached", *best, evals
        p = -np.dot(H, g)
        d0 = np.dot(g, p)
        stp = 1.0
        if f_prev is None:
            stp = min(1.0, 1.0 / np.linalg.norm(p))
        elif d0 != 0:
            stp = min(1.0, 1.01 * 2 * (f - f_prev) / d0)
            if stp < 0:
                stp = 1.0

        def phi(a):
            found = evaluate(x + a * p)
            return None if found is None else (found[1], np.dot(found[2], p))

        stp = line_search(phi, f, d0, stp)
        if stp is None:
            return "max-iter" if evals == max_evals else "stalled", *best, evals
        s = stp * p
        x = x + s
        y = last[2] - g
        f_prev, f, g = f, last[1], last[2]
        rhok_inv = np.dot(y, s)
        rhok = 1000.0 if rhok_inv == 0.0 else 1.0 / rhok_inv
        # s_i y_j rhok: A2 = I - y s' rhok is A1's transpose, entry for entry
        A1 = identity - np.multiply.outer(s, y) * rhok
        A2 = A1.T.copy()
        H = np.dot(A1, np.dot(H, A2)) + np.multiply.outer(rhok * s, s)
    # scipy reports the iteration cap even when the last step converged
    return "stalled", *best, evals
