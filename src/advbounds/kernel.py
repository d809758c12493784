"""Expansion kernel (1-c^2)/(1-2*c*xi+xi^2)^(n+1) and its Taylor machinery.

The kernel's Taylor coefficients in xi are polynomials in c, generated exactly by
the Gegenbauer-type three-term recurrence of the generating function
(1-2*c*xi+xi^2)^(-(n+1)).  The order-t remainder factor

    R_nt(c, xi) = xi^(-t) * (E_n(c, xi) - sum_{l<t} E_nl(c) xi^l)

is evaluated through a cancellation-safe branch switch, and its extrema over
[-1,1] x [0,1/2] are enclosed by a grid scan plus local-slope branch-and-bound
refinement.  Those enclosures feed the large-|k| sandwich of the lattice sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from numpy.polynomial import polynomial as npp


class KernelDomainError(ValueError):
    """Raised where 1 - 2*c*xi + xi^2 <= 0 and the kernel is undefined."""


class EnclosureWidthError(RuntimeError):
    """Raised when refinement cannot reach the requested enclosure width."""


@dataclass(frozen=True)
class Polynomial1D:
    """Dense univariate polynomial; coeffs[j] multiplies c**j.

    Coefficients are exact Fractions when the construction order n was an int or
    Fraction, plain floats otherwise.
    """

    coeffs: tuple

    @property
    def degree(self) -> int:
        d = len(self.coeffs) - 1
        while d > 0 and self.coeffs[d] == 0:
            d -= 1
        return d

    def coeff(self, j: int):
        return self.coeffs[j] if j < len(self.coeffs) else 0

    def __call__(self, c):
        acc = np.zeros_like(np.asarray(c, dtype=float))
        for a in reversed(self.coeffs):
            acc = acc * c + float(a)
        return float(acc) if acc.ndim == 0 else acc


def _exact_order(n):
    """Fraction form of n when n was given exactly, else None."""
    if isinstance(n, bool):
        return None
    if isinstance(n, (int, np.integer)):
        return Fraction(int(n))
    if isinstance(n, Fraction):
        return n
    return None


def taylor_coeff(n, ell: int) -> Polynomial1D:
    """Coefficient polynomial E_nl of xi**l in the kernel's Taylor expansion.

    E_nl(c) = (1 - c^2) * C_l(c) where the C_l solve
        C_0 = 1,  C_1 = 2(n+1)c,
        l*C_l = 2c(l+n)*C_{l-1} - (l+2n)*C_{l-2},
    i.e. the generating-function recurrence of (1-2*c*xi+xi^2)^(-(n+1)).
    Degree l+2; even polynomial for even l, odd for odd l.
    """
    if ell < 0:
        raise ValueError(f"requires ell >= 0, got {ell}")
    ex = _exact_order(n)
    # Cache exact and float orders separately: 2, 2.0 and Fraction(2) hash
    # alike, and a shared cache would hand exact callers float coefficients.
    if ex is not None:
        return _taylor_exact(ex.numerator, ex.denominator, ell)
    return _taylor_float_order(float(n), ell)


@lru_cache(maxsize=None)
def _taylor_exact(num: int, den: int, ell: int) -> Polynomial1D:
    return _taylor_build(Fraction(1), Fraction(num, den), ell)


@lru_cache(maxsize=None)
def _taylor_float_order(nf: float, ell: int) -> Polynomial1D:
    return _taylor_build(1.0, nf, ell)


def _taylor_build(one, nv, ell: int) -> Polynomial1D:
    zero = 0 * one

    prev2 = [one]                      # C_0
    prev1 = [zero, 2 * (nv + 1) * one]  # C_1
    if ell == 0:
        cl = prev2
    elif ell == 1:
        cl = prev1
    else:
        for l in range(2, ell + 1):
            a = [zero] + [2 * (l + nv) * x for x in prev1]
            b = [(l + 2 * nv) * x for x in prev2]
            b += [zero] * (len(a) - len(b))
            cl = [(x - y) / l for x, y in zip(a, b)]
            prev2, prev1 = prev1, cl
    # multiply by (1 - c^2)
    e = cl + [zero, zero]
    for j, x in enumerate(cl):
        e[j + 2] = e[j + 2] - x
    return Polynomial1D(tuple(e))


def substituted_coeff(n, ell: int, d: int) -> Polynomial1D:
    """E_nl with the c^2 monomial averaged out: its coefficient moves to the
    constant term scaled by 1/d.  Defined for even l only; all other monomials
    (constant, c^4, c^6, ...) are unchanged."""
    if ell % 2 != 0:
        raise ValueError(f"requires even ell, got {ell}")
    if d < 2:
        raise ValueError(f"requires d >= 2, got {d}")
    base = taylor_coeff(n, ell)
    coeffs = list(base.coeffs)
    c2 = base.coeff(2)
    if isinstance(c2, Fraction):
        coeffs[0] = coeffs[0] + c2 / Fraction(d)
    else:
        coeffs[0] = coeffs[0] + c2 / d
    if len(coeffs) > 2:
        coeffs[2] = 0 * coeffs[2]
    return Polynomial1D(tuple(coeffs))


def eval_E(n, c, xi) -> float:
    """(1-c^2) / (1-2*c*xi+xi^2)^(n+1); errors where the denominator base <= 0."""
    c = float(c)
    xi = float(xi)
    den = 1.0 - 2.0 * c * xi + xi * xi
    if den <= 0.0:
        raise KernelDomainError(
            f"kernel undefined at c={c}, xi={xi}: 1-2*c*xi+xi^2 = {den} <= 0"
        )
    return (1.0 - c * c) * den ** (-(float(n) + 1.0))


def series_switch(t: int) -> float:
    """Branch point between the direct quotient and the series form of the remainder.

    The direct quotient loses ~eps/xi^t absolute accuracy to cancellation, so the
    switch scales like 10^(-11/t) (noise ~1e-5 at worst), clamped to [1e-3, 0.1].
    """
    return min(0.1, max(1e-3, 10.0 ** (-11.0 / t)))


@lru_cache(maxsize=None)
def _float_coeffs(n, ell: int) -> tuple:
    return tuple(float(a) for a in taylor_coeff(n, ell).coeffs)


_SERIES_CAP = 400


def _remainder_series(n, t, c, xi):
    """sum_{l>=t} E_nl(c) * xi^(l-t) on paired arrays with xi <= series_switch(t)."""
    acc = npp.polyval(c, _float_coeffs(n, t))
    power = np.ones_like(xi)
    small_streak = 0
    for l in range(t + 1, t + _SERIES_CAP):
        power = power * xi
        term = npp.polyval(c, _float_coeffs(n, l)) * power
        acc = acc + term
        tmax = float(np.max(np.abs(term))) if term.size else 0.0
        scale = max(float(np.max(np.abs(acc))) if acc.size else 0.0, 1e-300)
        if tmax <= 1e-17 * scale:
            small_streak += 1
            if small_streak >= 2:
                return acc
        else:
            small_streak = 0
    raise EnclosureWidthError(
        f"remainder series did not converge within {_SERIES_CAP} terms (n={n}, t={t})"
    )


def _remainder_direct(n, t, c, xi):
    """Direct quotient (E_n - partial sum)/xi^t on paired arrays with xi > 0."""
    den = 1.0 - 2.0 * c * xi + xi * xi
    e_val = (1.0 - c * c) * den ** (-(float(n) + 1.0))
    head = np.zeros_like(c)
    for l in range(t - 1, -1, -1):
        head = head * xi + npp.polyval(c, _float_coeffs(n, l))
    return (e_val - head) / xi**t


def _grid_values(n, t: int, cgrid, xgrid) -> np.ndarray:
    """remainder_values on the tensor grid cgrid x xgrid (xgrid ascending),
    bit for bit as on the meshgrid, without building it.

    The branch switch depends on xi alone, so each branch owns a block of
    columns and runs once on the broadcast pair (cgrid[:, None], xi[None, :]):
    the same point set, so the series stops at the same term, and the same
    elementwise arithmetic, but each E_nl(c) is evaluated once per c."""
    split = int(np.searchsorted(xgrid, series_switch(t), side="right"))
    c = cgrid[:, None]
    series = _remainder_series(n, t, c, xgrid[None, :split])
    direct = _remainder_direct(n, t, c, xgrid[None, split:])
    return np.hstack([series, direct])


def remainder_values(n, t: int, c, xi) -> np.ndarray:
    """Vectorized R_nt on paired arrays c in [-1,1], xi in [0,1/2]."""
    c, xi = np.broadcast_arrays(np.asarray(c, dtype=float), np.asarray(xi, dtype=float))
    shape = c.shape
    c = c.ravel()
    xi = xi.ravel()
    out = np.empty(c.shape)
    lo = xi <= series_switch(t)
    if lo.any():
        out[lo] = _remainder_series(n, t, c[lo], xi[lo])
    hi = ~lo
    if hi.any():
        out[hi] = _remainder_direct(n, t, c[hi], xi[hi])
    return out.reshape(shape)


def eval_remainder(n, t: int, c, xi) -> float:
    """Order-t Taylor remainder factor of the kernel at a single point.

    At xi = 0 this is E_nt(c) (the removable-singularity value); elsewhere it is
    xi^(-t) (E_n(c,xi) - sum_{l<t} E_nl(c) xi^l), evaluated through whichever
    branch is numerically stable.
    """
    if t < 1:
        raise ValueError(f"requires t >= 1, got {t}")
    c = float(c)
    xi = float(xi)
    if not -1.0 <= c <= 1.0:
        raise ValueError(f"requires c in [-1, 1], got {c}")
    if not 0.0 <= xi <= 0.5:
        raise ValueError(f"requires xi in [0, 1/2], got {xi}")
    return float(remainder_values(n, t, np.float64(c), np.float64(xi)))


@dataclass(frozen=True)
class RemainderExtrema:
    """Outward enclosures of min/max of R_nt over [-1,1] x [0,1/2].

    mu <= true minimum, M >= true maximum.  widths give the gap between each
    outer bound and the best sampled (inner) value; margin is the largest
    slope-based widening still in force when refinement stopped.
    """

    mu: float
    M: float
    grid_resolution: int
    margin: float
    n: float = float("nan")
    t: int = 0
    mu_width: float = 0.0
    M_width: float = 0.0


_SAFETY = 4.0


def _cell_upper(f00, f10, f01, f11):
    """Per-cell upper bound: corner max + slope-sampled margin (x SAFETY).

    The slopes are first differences of the corner values, so the h factors of
    slope * h / 2 cancel and only the corner spreads remain.
    """
    cmax = np.maximum(np.maximum(f00, f10), np.maximum(f01, f11))
    slope_c = np.maximum(np.abs(f10 - f00), np.abs(f11 - f01))
    slope_x = np.maximum(np.abs(f01 - f00), np.abs(f11 - f10))
    margin = _SAFETY * 0.5 * (slope_c + slope_x)
    return cmax + margin, margin


def _corners(vals):
    """(f00, f10, f01, f11): each cell's corner values on a vertex grid."""
    return vals[:-1, :-1], vals[1:, :-1], vals[:-1, 1:], vals[1:, 1:]


def _branch_bound_max(evalf, base_vals, base_ub, base_margin, cgrid, xgrid,
                      target_rel, max_levels):
    """Certified upper bound for max evalf over the grid's rectangle.

    base_vals holds evalf on the full vertex grid, base_ub the cells'
    _cell_upper bounds and base_margin the largest of their margins.  Active
    cells whose upper bound exceeds the best sampled value are split
    level-synchronously; each level halves the cell size and re-estimates
    local slopes.  Returns (upper, inner_best, width, last_margin).
    """
    best = float(base_vals.max())
    hc = float(cgrid[1] - cgrid[0])
    hx = float(xgrid[1] - xgrid[0])
    keep = base_ub > best
    c0 = np.broadcast_to(cgrid[:-1, None], keep.shape)[keep]
    x0 = np.broadcast_to(xgrid[None, :-1], keep.shape)[keep]
    cells = (c0, x0, *(f[keep] for f in _corners(base_vals)))
    ub = base_ub[keep]
    last_margin = base_margin

    for _ in range(max_levels):
        if ub.size == 0:
            return best, best, 0.0, 0.0
        upper = float(ub.max())
        tol = target_rel * max(1.0, abs(best))
        if upper - best <= tol:
            return upper, best, upper - best, last_margin
        c0, x0, f00, f10, f01, f11 = cells
        hc2, hx2 = hc / 2.0, hx / 2.0
        # five fresh vertices per split cell
        pc = np.concatenate([c0 + hc2, c0, c0 + hc2, c0 + hc2, c0 + hc])
        px = np.concatenate([x0, x0 + hx2, x0 + hx2, x0 + hx, x0 + hx2])
        vals = evalf(pc, px)
        a = c0.size
        fm0, f0m, fmm, fm1, f1m = (vals[i * a:(i + 1) * a] for i in range(5))
        best = max(best, float(vals.max()))
        nc0 = np.concatenate([c0, c0 + hc2, c0, c0 + hc2])
        nx0 = np.concatenate([x0, x0, x0 + hx2, x0 + hx2])
        g00 = np.concatenate([f00, fm0, f0m, fmm])
        g10 = np.concatenate([fm0, f10, fmm, f1m])
        g01 = np.concatenate([f0m, fmm, f01, fm1])
        g11 = np.concatenate([fmm, f1m, fm1, f11])
        hc, hx = hc2, hx2
        ub, margin = _cell_upper(g00, g10, g01, g11)
        keep = ub > best
        cells = (nc0[keep], nx0[keep], g00[keep], g10[keep], g01[keep], g11[keep])
        ub = ub[keep]
        last_margin = float(margin[keep].max()) if keep.any() else 0.0

    upper = float(ub.max()) if ub.size else best
    if upper - best > target_rel * max(1.0, abs(best)):
        raise EnclosureWidthError(
            f"extrema enclosure stuck at width {upper - best:.3e} "
            f"after {max_levels} refinement levels"
        )
    return upper, best, upper - best, last_margin


def remainder_extrema(
    n,
    t: int,
    *,
    grid_resolution: int = 2001,
    target_rel: float = 1e-6,
    max_levels: int = 30,
) -> RemainderExtrema:
    """Enclose min and max of R_nt over [-1,1] x [0,1/2].

    Method: evaluate on a grid_resolution x ((grid_resolution+1)//2) vertex grid
    (separably, by _grid_values, so each E_nl(c) is evaluated once per grid c
    and no meshgrid is built), bound each cell by corner values plus a
    finite-difference slope margin (safety factor 4), then refine only the
    cells that could still beat the best sample, halving the cell size per
    level.  Raises EnclosureWidthError if the requested relative width
    target_rel is unreachable within max_levels.
    """
    if t < 1:
        raise ValueError(f"requires t >= 1, got {t}")
    nc = int(grid_resolution)
    if nc < 9:
        raise ValueError(f"grid_resolution too small: {nc}")
    nx = (nc + 1) // 2
    cgrid = np.linspace(-1.0, 1.0, nc)
    xgrid = np.linspace(0.0, 0.5, nx)
    base = _grid_values(n, t, cgrid, xgrid)
    # One base pass serves both signs: the corner spreads of -R are those of
    # R, so its margins are the same, and max(-f) = -min(f) exactly.
    corners = _corners(base)
    ub, margin = _cell_upper(*corners)
    cmin = np.minimum(np.minimum(corners[0], corners[1]),
                      np.minimum(corners[2], corners[3]))
    base_margin = float(margin.max())

    def f_pos(c, x):
        return remainder_values(n, t, c, x)

    def f_neg(c, x):
        return -remainder_values(n, t, c, x)

    m_up, m_in, m_w, m_margin = _branch_bound_max(
        f_pos, base, ub, base_margin, cgrid, xgrid, target_rel, max_levels
    )
    neg_up, neg_in, mu_w, mu_margin = _branch_bound_max(
        f_neg, -base, margin - cmin, base_margin, cgrid, xgrid, target_rel,
        max_levels,
    )
    return RemainderExtrema(
        mu=-neg_up,
        M=m_up,
        grid_resolution=nc,
        margin=max(m_margin, mu_margin),
        n=float(n),
        t=t,
        mu_width=mu_w,
        M_width=m_w,
    )
