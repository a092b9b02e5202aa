"""Bracketed scalar root finding without scipy.

`brentq` is Brent's method (R. P. Brent, *Algorithms for Minimization
without Derivatives*, 1973, ch. 4) in the form of scipy's `brentq`: the
same steps, tolerances and iteration cap, so it returns the same root
bit for bit, while loading no scipy module.
"""

from __future__ import annotations

import math

# scipy's smallest allowed relative tolerance, 4 machine epsilons
RTOL = 4.0 * 2.220446049250313e-16
MAX_ITER = 100


def brentq(f, a: float, b: float, xtol: float, rtol: float = RTOL) -> float:
    """A root of the scalar function `f` in the sign-changing bracket
    [a, b], to within xtol + rtol |root|.

    Keeps the last iterate `xpre`, the current one `xcur` and the
    contrapoint `xblk` that brackets the root with it.  A secant or
    inverse-quadratic step is taken when it is shorter than half the
    step before last and than 3/2 of the half-bracket less the
    tolerance; otherwise the bracket is bisected.  No step is shorter
    than the tolerance.  Raises ValueError if f(a) and f(b) share a
    sign or f returns NaN, RuntimeError after MAX_ITER iterations.
    """
    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x:g} is NaN")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(MAX_ITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # inverse quadratic extrapolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"brentq did not converge in {MAX_ITER} iterations")
