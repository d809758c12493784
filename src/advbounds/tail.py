"""Certified bounds on infinite lattice tails.

tail_sum_bound majorizes sum_{|h| >= rho} |h|^(-nu) by a closed-form expression
(shell counting against a thickened sphere surface), and delta_K turns it into
the uniform bound on the far-region remainder of the cutoff lattice sum:
every discarded summand is controlled by the wedge-power inequality

    |p ^ q|^2 |p+q|^(2n)  <=  B_n |p|^2 |q|^2 (|p|^(2n) + |q|^(2n)),
    B_n = 2^(2n+1) (n+1)^(n+1) / (n+2)^(n+2),

whose sharp constant is attained at cos(theta) = n/(n+2), |p| = |q|.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction


#: ln of the largest finite float.
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


class ParameterError(ValueError):
    """An input fails one of the documented preconditions."""


def check_finite_n(n) -> None:
    """The order n must be a finite number."""
    if not math.isfinite(float(n)):
        raise ParameterError(f"requires a finite n, got n={n}")


def check_parameters(d: int, n, rho) -> None:
    """The (d, n, rho) preconditions of every cutoff sum and of delta_K:
    integer d >= 2, a finite n > d/2 (the lattice sums converge) and
    rho > 2 sqrt(d) (the tail bound's closed form)."""
    if not (isinstance(d, int) and d >= 2):
        raise ParameterError(f"requires integer d >= 2, got d={d}")
    check_finite_n(n)
    if not float(n) > d / 2.0:
        raise ParameterError(f"requires n > d/2, got n={n}, d={d}")
    if not float(rho) > 2.0 * math.sqrt(d):
        raise ParameterError(
            f"requires rho > 2*sqrt(d) = {2.0 * math.sqrt(d):.6f}, got rho={rho}"
        )


def check_even_t(t) -> None:
    """The expansion order t must be an even integer >= 2."""
    if not (t >= 2 and t % 2 == 0):
        raise ParameterError(f"requires even t >= 2, got t={t}")


def gamma_half(d: int) -> float:
    """Gamma(d/2) for positive integer d, by the exact closed form.

    Even d: (d/2 - 1)!.  Odd d = 2m+1: (2m)! sqrt(pi) / (4^m m!).
    """
    if d < 1:
        raise ValueError(f"requires d >= 1, got {d}")
    if d % 2 == 0:
        return float(math.factorial(d // 2 - 1))
    m = (d - 1) // 2
    return math.factorial(2 * m) * math.sqrt(math.pi) / (4**m * math.factorial(m))


def tail_sum_bound(d: int, nu, rho) -> float:
    """Upper bound on sum over h in Z^d, |h| >= rho of |h|^(-nu):

        (2 pi^(d/2) / Gamma(d/2)) * sum_{i=0}^{d-1}
            C(d-1, i) d^((d-1-i)/2) / ((nu-1-i) (rho - 2 sqrt(d))^(nu-1-i))

    for d >= 2, nu > d (the sum converges) and rho > 2 sqrt(d) (the closed
    form's base is positive).
    """
    nu, rho = float(nu), float(rho)
    if not (d >= 2 and nu > d and rho > 2.0 * math.sqrt(d)):
        raise ParameterError(
            f"requires d >= 2, nu > d and rho > 2*sqrt(d), "
            f"got d={d}, nu={nu}, rho={rho}"
        )
    base = rho - 2.0 * math.sqrt(d)
    terms = []
    for i in range(d):
        p = nu - 1.0 - i  # p >= nu - d > 0
        try:
            power = base**p
        except OverflowError:
            raise ParameterError(
                f"(rho - 2 sqrt(d))^(nu-1-i) = {base!r}^{p} overflows a float; "
                f"requires a smaller rho or a smaller nu"
            ) from None
        if power == 0.0:
            raise ParameterError(
                f"(rho - 2 sqrt(d))^(nu-1-i) = {base!r}^{p} underflows to 0; "
                f"requires a larger rho or a smaller nu"
            )
        terms.append(math.comb(d - 1, i) * d ** ((d - 1 - i) / 2.0) / (p * power))
    return 2.0 * math.pi ** (d / 2.0) / gamma_half(d) * math.fsum(terms)


def wedge_power_bound(n) -> float:
    """B_n = 2^(2n+1)(n+1)^(n+1)/(n+2)^(n+2), the sup over c = cos(angle(p,q))
    and u = |p|/|q| of the wedge-power ratio (1-c^2)(1+2cu+u^2)^n / (1+u^(2n)).

    An integer n >= 0 takes the exact rational value, rounded once.  For
    n > -1, ln B_n = (2n+1) ln 2 - (n+1) ln(1 + 1/(n+1)) - ln(n+2) is checked
    first, so a B_n past the float range is refused before any power is
    built.
    """
    x = float(n)
    if x > -1.0:
        log_b = (2.0 * x + 1.0) * math.log(2.0) - (x + 1.0) * math.log1p(
            1.0 / (x + 1.0)
        ) - math.log(x + 2.0)
        if log_b > _LOG_FLOAT_MAX:
            raise ParameterError(
                f"B_n = 2^(2n+1) (n+1)^(n+1) / (n+2)^(n+2) = exp({log_b:.6g}) "
                f"overflows a float at n={n}; requires a smaller n"
            )
    if x.is_integer() and n >= 0:
        m = int(n)
        return float(
            Fraction(2 ** (2 * m + 1) * (m + 1) ** (m + 1), (m + 2) ** (m + 2))
        )
    try:
        return 2.0 ** (2.0 * x + 1.0) * (x + 1.0) ** (x + 1.0) / (x + 2.0) ** (x + 2.0)
    except OverflowError:
        raise ParameterError(
            f"evaluating B_n in floats overflows at n={n}; requires a smaller n, "
            f"or an integer n"
        ) from None


def delta_K(d: int, n, rho) -> float:
    """Uniform bound on the far-region part of the cutoff lattice sum:
    2 * B_n * tail_sum_bound(d, 2n, rho), under check_parameters.  A bound
    that overflows a float is refused."""
    check_parameters(d, n, rho)
    bound = 2.0 * wedge_power_bound(n) * tail_sum_bound(d, 2.0 * float(n), rho)
    if bound == math.inf:
        raise ParameterError(
            f"delta_K = 2 B_n T overflows a float at n={n}, rho={rho}; "
            f"requires a larger rho or a smaller n"
        )
    return bound
