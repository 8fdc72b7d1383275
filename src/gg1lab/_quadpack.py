"""QUADPACK's QAGS in pure Python: adaptive 21-point Gauss-Kronrod
bisection with Wynn's epsilon-algorithm (R. Piessens, E. de Doncker-Kapenga,
C. W. Ueberhuber and D. K. Kahaner, QUADPACK, Springer 1983).

This is what ``scipy.integrate.quad`` runs for finite limits with no
weight and no break points: ``dqagse`` with the rule ``dqk21``, the
error-list ordering ``dqpsrt`` and the extrapolation ``dqelg``, at
``quad``'s default tolerances.  Every floating-point operation is
QUADPACK's, in QUADPACK's order, so the result and error bits are
``quad``'s, and so is the number of integrand calls (42 * last - 21).
The arrays keep QUADPACK's 1-based indices; slot 0 is unused.
"""

from __future__ import annotations

import math
import sys
import warnings

from ._checks import integer, real

_EPMACH = sys.float_info.epsilon  # d1mach(4)
_UFLOW = sys.float_info.min  # d1mach(1)
_OFLOW = sys.float_info.max  # d1mach(2)
_EPSABS = _EPSREL = 1.49e-8  # quad's defaults
_LIMEXP = 50  # dqelg's table length

# 21-point Kronrod abscissae on (-1, 1), positive half: the odd 1-based
# entries are the points added to the 10-point Gauss rule, the even ones
# are the Gauss points, and the last is the centre
_XGK = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
)
_WGK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)

# quad's wording for the flags it warns about
_MESSAGES = {
    1: "the maximum number of subdivisions ({limit}) has been achieved",
    2: "the occurrence of roundoff error is detected, which prevents the requested "
       "tolerance from being achieved; the error may be underestimated",
    3: "extremely bad integrand behavior occurs at some points of the integration interval",
    4: "the algorithm does not converge; roundoff error is detected in the "
       "extrapolation table",
    5: "the integral is probably divergent, or slowly convergent",
}


def qags(f, a, b, limit: int) -> tuple[float, float]:
    """The integral of ``f`` over [a, b] and its error estimate, as
    ``scipy.integrate.quad(f, a, b, limit=limit)`` returns them, bit for
    bit.  ``f`` takes and returns a float.  Like ``quad``, reversed bounds
    integrate over [b, a] and negate the result, a == b gives (0.0, 0.0)
    with no call to ``f``, and a RuntimeWarning is issued wherever ``quad``
    warns: the subdivision limit reached, roundoff, bad integrand
    behaviour, or divergence.  Infinite bounds, for which ``quad`` runs
    another routine (QAGI), and a limit below 1 raise ValueError."""
    a = float(real("a", a))
    b = float(real("b", b))
    limit = integer("limit", limit, 1)
    if a == b:
        return 0.0, 0.0
    flip = b < a
    result, abserr, ier = _qagse(f, min(a, b), max(a, b), limit)
    if ier:
        warnings.warn(f"qags: {_MESSAGES[ier].format(limit=limit)}", RuntimeWarning, stacklevel=2)
    return (-result if flip else result), abserr


def _qk21(f, a, b):
    """dqk21: (result, abserr, resabs, resasc) of the 21-point Kronrod
    rule on [a, b], with the 10-point Gauss rule for the error."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    dhlgth = abs(hlgth)
    resg = 0.0
    fc = float(f(centr))
    resk = _WGK[10] * fc
    resabs = abs(resk)
    fv1 = [0.0] * 10
    fv2 = [0.0] * 10
    for j in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8):  # the Gauss points first
        absc = hlgth * _XGK[j]
        fval1 = fv1[j] = float(f(centr - absc))
        fval2 = fv2[j] = float(f(centr + absc))
        fsum = fval1 + fval2
        if j % 2:
            resg = resg + _WG[j // 2] * fsum
        resk = resk + _WGK[j] * fsum
        resabs = resabs + _WGK[j] * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK[10] * abs(fc - reskh)
    for j in range(10):
        resasc = resasc + _WGK[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        # min(1, r**1.5), with the power taken only where it is below 1,
        # since a float power that overflows raises in Python
        ratio = 200.0 * abserr / resasc
        abserr = resasc * (ratio ** 1.5 if ratio < 1.0 else 1.0)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def _qpsrt(limit, last, maxerr, elist, iord, nrmax):
    """dqpsrt: keep iord(1..) ordering the error estimates downward after
    interval ``maxerr`` was bisected into ``maxerr`` and ``last``; returns
    the next (maxerr, errmax, nrmax)."""
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
    else:
        errmax = elist[maxerr]
        while nrmax > 1 and not errmax <= elist[iord[nrmax - 1]]:
            iord[nrmax] = iord[nrmax - 1]
            nrmax -= 1
        jupbn = limit + 3 - last if last > limit // 2 + 2 else last
        jbnd = jupbn - 1
        i = nrmax + 1
        while i <= jbnd and not errmax >= elist[iord[i]]:  # insert errmax top-down
            iord[i - 1] = iord[i]
            i += 1
        if i > jbnd:
            iord[jbnd] = maxerr
            iord[jupbn] = last
        else:
            iord[i - 1] = maxerr
            errmin = elist[last]
            k = jbnd
            while k >= i and not errmin < elist[iord[k]]:  # insert errmin bottom-up
                iord[k + 1] = iord[k]
                k -= 1
            iord[k + 1] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _qelg(n, epstab, res3la, nres):
    """dqelg: one step of the epsilon-algorithm on the table
    epstab(1..n); returns (n, result, abserr, nres), with the table and
    the last three results res3la updated in place."""
    nres += 1
    abserr = _OFLOW
    result = epstab[n]
    if n >= 3:
        epstab[n + 2] = epstab[n]
        newelm = (n - 1) // 2
        epstab[n] = _OFLOW
        num = k1 = n
        for i in range(1, newelm + 1):
            k2 = k1 - 1
            k3 = k1 - 2
            res = epstab[k1 + 2]
            e0 = epstab[k3]
            e1 = epstab[k2]
            e2 = res
            e1abs = abs(e1)
            delta2 = e2 - e1
            err2 = abs(delta2)
            tol2 = max(abs(e2), e1abs) * _EPMACH
            delta3 = e1 - e0
            err3 = abs(delta3)
            tol3 = max(e1abs, abs(e0)) * _EPMACH
            if not (err2 > tol2 or err3 > tol3):
                # e0, e1 and e2 agree to machine accuracy: converged
                return n, res, max(err2 + err3, 5.0 * _EPMACH * abs(res)), nres
            e3 = epstab[k1]
            epstab[k1] = e1
            delta1 = e1 - e3
            err1 = abs(delta1)
            tol1 = max(e1abs, abs(e3)) * _EPMACH
            if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
                n = i + i - 1  # two close elements: drop part of the table
                break
            ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
            if not abs(ss * e1) > 1e-4:
                n = i + i - 1  # irregular behaviour: drop part of the table
                break
            res = e1 + 1.0 / ss
            epstab[k1] = res
            k1 -= 2
            error = err2 + abs(res - e2) + err3
            if error <= abserr:
                abserr = error
                result = res
        if n == _LIMEXP:
            n = 2 * (_LIMEXP // 2) - 1
        ib = 2 if num % 2 == 0 else 1  # shift the table
        for _ in range(newelm + 1):
            epstab[ib] = epstab[ib + 2]
            ib += 2
        if num != n:
            indx = num - n + 1
            for i in range(1, n + 1):
                epstab[i] = epstab[indx]
                indx += 1
        if nres < 4:
            res3la[nres] = result
            abserr = _OFLOW
        else:
            abserr = abs(result - res3la[3]) + abs(result - res3la[2]) + abs(result - res3la[1])
            res3la[1], res3la[2], res3la[3] = res3la[2], res3la[3], result
    return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres


def _quotient(x, y):
    """x / y as IEEE division gives it, also at y == 0."""
    if y != 0.0:
        return x / y
    if x != x or x == 0.0:
        return math.nan
    return math.copysign(math.inf, x) * math.copysign(1.0, y)


def _qagse(f, a, b, limit):
    """dqagse on a < b: (result, abserr, ier), with quad's flag ier
    (0 for success)."""
    alist = [0.0] * (limit + 1)
    blist = [0.0] * (limit + 1)
    rlist = [0.0] * (limit + 1)
    elist = [0.0] * (limit + 1)
    iord = [0] * (limit + 1)
    rlist2 = [0.0] * (_LIMEXP + 3)
    res3la = [0.0] * 4
    alist[1] = a
    blist[1] = b
    ier = ierro = 0

    # first approximation to the integral
    result, abserr, defabs, resabs = _qk21(f, a, b)
    dres = abs(result)
    errbnd = max(_EPSABS, _EPSREL * dres)
    last = 1
    rlist[1] = result
    elist[1] = abserr
    iord[1] = 1
    if abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr, ier

    rlist2[1] = result
    errmax = abserr
    maxerr = nrmax = 1
    area = result
    errsum = abserr
    abserr = _OFLOW
    nres = ktmin = 0
    numrl2 = 2
    extrap = noext = False
    iroff1 = iroff2 = iroff3 = 0
    ksgn = 1 if dres >= (1.0 - 50.0 * _EPMACH) * defabs else -1
    small = erlarg = ertest = correc = 0.0
    summed = False  # the loop ends by summing the list (label 115)

    for last in range(2, limit + 1):
        # bisect the subinterval with the nrmax-th largest error estimate
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area1, error1, _, defab1 = _qk21(f, a1, b1)
        area2, error2, _, defab2 = _qk21(f, a2, b2)
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12) or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = max(_EPSABS, _EPSREL * abs(area))
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
            ier = 4
        if error2 > error1:
            alist[maxerr] = a2
            alist[last] = a1
            blist[last] = b1
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist[last] = error1
        else:
            alist[last] = a2
            blist[maxerr] = b1
            blist[last] = b2
            elist[maxerr] = error1
            elist[last] = error2
        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            summed = True
            break
        if ier != 0:
            break
        if last == 2:
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # extrapolate only once the interval to bisect next is the smallest
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if ierro != 3 and erlarg > ertest:
            # the smallest interval has the largest error: before
            # extrapolating, bisect the larger intervals (erlarg) first
            jupbnd = limit + 3 - last if last > 2 + limit // 2 else last
            larger = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    larger = True
                    break
                nrmax += 1
            if larger:
                continue
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if abseps < abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(_EPSABS, _EPSREL * abs(reseps))
            if abserr <= ertest:
                break
        # prepare bisection of the smallest interval
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small = small * 0.5
        erlarg = errsum

    # set the final result and error estimate (labels 100 to 130)
    divergence_test = False
    if not summed:
        if abserr == _OFLOW:
            summed = True
        elif ier + ierro == 0:
            divergence_test = True
        else:
            if ierro == 3:
                abserr = abserr + correc
            if ier == 0:
                ier = 3
            if result != 0.0 and area != 0.0:
                if abserr / abs(result) > errsum / abs(area):
                    summed = True
                else:
                    divergence_test = True
            elif abserr > errsum:
                summed = True
            elif area != 0.0:
                divergence_test = True
    if divergence_test:
        if not (ksgn == -1 and max(abs(result), abs(area)) <= defabs * 0.01):
            ratio = _quotient(result, area)
            if 0.01 > ratio or ratio > 100.0 or errsum > abs(area):
                ier = 6
    if summed:
        result = 0.0
        for k in range(1, last + 1):
            result = result + rlist[k]
        abserr = errsum
    if ier > 2:
        ier -= 1
    return result, abserr, ier
