"""QUADPACK's QAGS in pure Python, as far as one bisection: the 21-point
Gauss-Kronrod rule on [a, b], and if that does not meet the tolerance,
the rule on both halves (R. Piessens, E. de Doncker-Kapenga,
C. W. Ueberhuber and D. K. Kahaner, QUADPACK, Springer 1983).

This is the start of what ``scipy.integrate.quad`` runs for finite limits
with no weight and no break points: ``dqagse`` with the rule ``dqk21``, at
``quad``'s default tolerances.  Every floating-point operation is
QUADPACK's, in QUADPACK's order, so where ``dqagse`` stops within one
bisection the result and error bits are ``quad``'s, and so is the number
of integrand calls (21 or 63).  An integral that needs more bisections,
or that ``dqagse`` would flag, is refused: the rest of the algorithm
(further bisection and Wynn's epsilon-algorithm) is not here.
"""

from __future__ import annotations

import sys

from ._checks import real

_EPMACH = sys.float_info.epsilon  # d1mach(4)
_UFLOW = sys.float_info.min  # d1mach(1)
_EPSABS = _EPSREL = 1.49e-8  # quad's defaults

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


def qags(f, a, b) -> tuple[float, float]:
    """The integral of ``f`` over [a, b] and its error estimate, as
    ``scipy.integrate.quad(f, a, b, limit=L)`` returns them for every
    L >= 3, bit for bit, where ``quad`` stops within one bisection with no
    flag.  ``f`` takes and returns a float, and a < b are finite.  Any
    other bounds, an integral that one bisection does not bring within
    ``quad``'s tolerance (a NaN error estimate included), and QAGS'
    roundoff and narrow-interval flags raise ValueError."""
    a = float(real("a", a))
    b = float(real("b", b, a, above=True))
    result, abserr, resabs, resasc = _qk21(f, a, b)
    errbnd = max(_EPSABS, _EPSREL * abs(result))
    if abserr <= 100.0 * _EPMACH * resabs and abserr > errbnd:
        raise ValueError("qags: roundoff error prevents the requested tolerance")
    if (abserr <= errbnd and abserr != resasc) or abserr == 0.0:
        return result, abserr
    c = 0.5 * (a + b)
    area1, error1, _, _ = _qk21(f, a, c)
    area2, error2, _, _ = _qk21(f, c, b)
    errsum = abserr + (error1 + error2) - abserr
    area = result + (area1 + area2) - result
    if max(abs(a), abs(b)) <= (1.0 + 100.0 * _EPMACH) * (abs(c) + 1000.0 * _UFLOW):
        raise ValueError(f"qags: [{a!r}, {b!r}] is too narrow to bisect")
    errbnd = max(_EPSABS, _EPSREL * abs(area))
    if not errsum <= errbnd:
        raise ValueError(f"qags: the integral needs more than one bisection "
                         f"(error estimate {errsum!r}, tolerance {errbnd!r})")
    # dqpsrt puts the half with the larger error first in the summed list,
    # but a sum of two terms from 0.0 has the same bits in either order
    return 0.0 + area1 + area2, errsum


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
