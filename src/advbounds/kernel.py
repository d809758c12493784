"""Expansion kernel (1-c^2)/(1-2*c*xi+xi^2)^(n+1) and its Taylor machinery.

The kernel's Taylor coefficients in xi are polynomials in c, generated by the
Gegenbauer-type three-term recurrence of the generating function
(1-2*c*xi+xi^2)^(-(n+1)).  The order-t remainder factor

    R_nt(c, xi) = xi^(-t) * (E_n(c, xi) - sum_{l<t} E_nl(c) xi^l)

is evaluated through a cancellation-safe branch switch.  The certificate's
large-|k| majorant takes its even part per shell: remainder_majorant bounds
it by B_t(x) = sum_{even l >= t} M_l x^(l-t), with M_l >= max_c E_nl(c)
proven by sampling (sampled_maxima) up to SAMPLED_ORDER and C_l(1) past it,
summed by remainder_bound, the exact geometric tail of sum C_l(1) x^(l-t).

remainder_extrema encloses the extrema of R_nt over [-1,1] x [0,1/2] by a
heuristic grid scan (_SAFETY), streamed in blocks of grid rows through up to
_MAX_WORKERS threads (_Workers, which the sup K_m search shares), plus
local-slope branch-and-bound refinement.  No certificate uses it: it stays,
with _BaseGrid, _branch_bound_max and _cell_upper (about 175 lines), only
because the staged benchmark (perfbench/worker.py) builds its V model on
it; the change that moves that mode can delete them.
"""

from __future__ import annotations

import math
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial

import numpy as np
from numpy.polynomial import polynomial as npp


class EnclosureWidthError(RuntimeError):
    """Raised when refinement cannot reach the requested enclosure width."""


#: Most workers a block runner starts.  On two CPUs two workers ran the
#: d = 3, n = 2, rho = 20 and d = 4, n = 3, rho = 10 searches 1.3x to 1.8x
#: faster than one, the d = 3, rho = 10 searches (29 blocks) in 24-25 ms
#: against 33-36 ms (median of 9), and the base grid of remainder_extrema
#: about 1.4x.  `certify --d 3 --n 3,4,5,10` peaked at 45.0-45.1 MB RSS with
#: one worker, 45.7-45.8 MB with two and 47.1-47.6 MB with four, as each
#: worker holds its own block buffers (3.2 MB for the grid, 2.1 MB for the
#: search at d = 3, rho = 10).  Unmeasured on more CPUs.
_MAX_WORKERS = 2


def _cpu_workers() -> int:
    """The CPUs this process may run on, at most _MAX_WORKERS.  A CPU quota
    that does not restrict the affinity mask is not seen."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:  # platforms without CPU affinity
        cpus = os.cpu_count() or 1
    return min(cpus, _MAX_WORKERS)


class _Workers:
    """The workers of a block runner: the calling thread and count - 1 pool
    threads, count = `workers`, default _cpu_workers(), but never more than
    `blocks`, the most one run takes.  Each has its own buffer, and
    make_buffer() builds every one on the calling thread: memory a pool
    thread's malloc arena keeps would add to the peak of later stages.
    One instance serves any number of runs; leaving its `with` block stops
    the pool threads and drops the buffers."""

    def __init__(self, make_buffer, blocks: int, workers=None):
        count = min(_cpu_workers() if workers is None else workers, blocks)
        self.buffers = [make_buffer() for _ in range(count)]
        self._pool = ThreadPoolExecutor(max_workers=max(1, count - 1))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._pool.shutdown()
        self.buffers.clear()

    def run(self, starts, work) -> None:
        """Call work(start, buffer) for every start, each worker with its
        own buffer; never more workers than starts, so one block starts no
        pool thread.  An exception in a worker, or an interrupt, stops each
        after its current block and propagates."""
        buffers = self.buffers[:len(starts)]
        pending = iter(starts)
        lock = threading.Lock()
        halt = threading.Event()

        def take(buffer):
            """Take blocks until none are left; then, or on any exception, halt."""
            try:
                while not halt.is_set():
                    with lock:
                        start = next(pending, None)
                    if start is None:
                        break
                    work(start, buffer)
            finally:
                halt.set()

        helpers = [self._pool.submit(take, buffer) for buffer in buffers[1:]]
        try:
            take(buffers[0])
        finally:
            halt.set()
            for helper in helpers:
                helper.exception()  # wait, so no block outlives the run
        for helper in helpers:
            helper.result()


@lru_cache(maxsize=None)
def taylor_coeff(n, ell: int) -> tuple:
    """Coefficients of the polynomial E_nl(c) of xi**l in the kernel's Taylor
    expansion, in floats; entry j multiplies c**j.

    E_nl(c) = (1 - c^2) * C_l(c) where the C_l solve
        C_0 = 1,  C_1 = 2(n+1)c,
        l*C_l = 2c(l+n)*C_{l-1} - (l+2n)*C_{l-2},
    i.e. the generating-function recurrence of (1-2*c*xi+xi^2)^(-(n+1)).
    Degree l+2; even polynomial for even l, odd for odd l.  The recurrence
    runs on float(n), so orders that compare equal (2, 2.0) share one entry.
    """
    if ell < 0:
        raise ValueError(f"requires ell >= 0, got {ell}")
    nv = float(n)
    prev2 = [1.0]                # C_0
    prev1 = [0.0, 2 * (nv + 1)]  # C_1
    cl = prev1 if ell == 1 else prev2
    for l in range(2, ell + 1):
        a = [0.0] + [2 * (l + nv) * x for x in prev1]
        b = [(l + 2 * nv) * x for x in prev2]
        b += [0.0] * (len(a) - len(b))
        cl = [(x - y) / l for x, y in zip(a, b)]
        prev2, prev1 = prev1, cl
    # multiply by (1 - c^2)
    e = cl + [0.0, 0.0]
    for j, x in enumerate(cl):
        e[j + 2] = e[j + 2] - x
    return tuple(e)


def substituted_coeff(n, ell: int, d: int) -> tuple:
    """E_nl with the c^2 monomial averaged out: its coefficient moves to the
    constant term scaled by 1/d.  Defined for even l only; all other monomials
    (constant, c^4, c^6, ...) are unchanged."""
    if ell % 2 != 0:
        raise ValueError(f"requires even ell, got {ell}")
    if d < 2:
        raise ValueError(f"requires d >= 2, got {d}")
    coeffs = list(taylor_coeff(n, ell))
    coeffs[0] = coeffs[0] + coeffs[2] / d
    coeffs[2] = 0.0
    return tuple(coeffs)


def series_switch(t: int) -> float:
    """Branch point between the direct quotient and the series form of the remainder.

    The direct quotient loses ~eps/xi^t absolute accuracy to cancellation, so the
    switch scales like 10^(-11/t) (noise ~1e-5 at worst), clamped to [1e-3, 0.1].
    """
    return min(0.1, max(1e-3, 10.0 ** (-11.0 / t)))


_SERIES_CAP = 400


def _remainder_series(n, t, c, xi):
    """sum_{l>=t} E_nl(c) * xi^(l-t) on paired arrays with xi <= series_switch(t)."""
    acc = npp.polyval(c, taylor_coeff(n, t))
    power = np.ones_like(xi)
    small_streak = 0
    for l in range(t + 1, t + _SERIES_CAP):
        power = power * xi
        term = npp.polyval(c, taylor_coeff(n, l)) * power
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
        head = head * xi + npp.polyval(c, taylor_coeff(n, l))
    return (e_val - head) / xi**t


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


#: The largest float, as an int: at least 2^1023.
_FLOAT_MAX = int(sys.float_info.max)


@lru_cache(maxsize=None)
def remainder_bound(n, t: int, x=Fraction(1, 2), bits: int = 60) -> float:
    """G(n, t, x) = sum_{l>=t} C_l(1) x^(l-t), for a rational 0 <= x < 1,
    rounded up (inf past floats).  At x = 1/2 it is 2^t (2^(2n+2) -
    sum_{l<t} C_l(1) 2^-l), and |R_nt| <= G on [-1,1] x [0,1/2].

    Proof: R_nt = sum_{l>=t} (1 - c^2) C_l(c) xi^(l-t), C_l = C_l^(n+1) the
    Gegenbauer polynomial, |1 - c^2| <= 1, xi <= 1/2 and |C_l(c)| <= C_l(1) =
    prod_{j<=l} (j + 2n + 1)/j (Szegő, Orthogonal Polynomials, Thm 7.33.1).
    T_l = C_l(1) x^(l-t) has ratios T_{l+1}/T_l = r_l = x (l + 2n + 2)/(l + 1)
    that do not increase, so past an L with r_L < 1 the terms sum to at most
    T_L r_L/(1 - r_L), which is added at the first L where it is <= 2^-bits
    of the sum: exact, in integers over one common denominator, rounded up
    once.  remainder_majorant asks only 2^-10 for its tail: near x = 1 each
    further bit takes tens of terms.  Both tests compare bit lengths |i|
    first, which settles all but the last few terms without a product of two
    long integers: s > F den, F >= 2^1023 the largest float, needs |s| >
    |den| + 1022, and for rn >= 1 the tail test fails while a rn 2^bits >=
    2^(|a| + |rn| - 2 + bits) is at least 2^(|rd - rn| + |s|) > (rd - rn) s."""
    top, bot = (2 * Fraction(float(n))).as_integer_ratio()
    p, q = Fraction(x).as_integer_ratio()
    a = math.prod(j * bot + top + bot for j in range(1, t + 1))
    den, s, ell = math.factorial(t) * bot**t, 0, t
    while True:
        s += a
        if s.bit_length() > den.bit_length() + 1022 and s > _FLOAT_MAX * den:
            return math.inf
        rn, rd = p * ((ell + 2) * bot + top), q * (ell + 1) * bot  # r_l = rn / rd
        if (rn < rd and (rn == 0 or a.bit_length() + rn.bit_length() + bits - 2
                         < (rd - rn).bit_length() + s.bit_length())
                and a * rn << bits <= (rd - rn) * s):
            total = Fraction(s * (rd - rn) + a * rn, den * (rd - rn))
            break
        a, den, s = a * rn, den * rd, s * rd
        ell += 1
    try:
        g = float(total)
    except OverflowError:  # s <= F den, but the tail term took it past F
        return math.inf
    return g if g >= total else math.nextafter(g, math.inf)


_U = 2.0**-53  # unit roundoff


def round_up(x, roundings: int = 1):
    """For floats or arrays x >= 0, an upper bound of every y with 0 <= y <=
    x (1 + 1.5 k u), k = roundings >= 1, u = 2^-53, k u <= 1/8: so of any
    value that k roundings, each within a factor 1 +- u, took down to x, as
    both (1 + u)^k and 1/(1 - gamma_k), gamma_k = k u / (1 - k u), are at
    most 1 + 1.5 k u there.  Proof: 1 + 2 k u is a float, fl(x (1 + 2 k u))
    >= x (1 + 2 k u)(1 - u), and the next float up is at least u x higher."""
    return np.nextafter(x * (1.0 + 2.0 * roundings * _U), np.inf)


#: Highest even order l whose max of E_nl is bounded by sampling
#: (sampled_maxima); remainder_majorant bounds the higher orders by C_l(1).
#: At 100 the d = 3, n = 3 to 10, rho = 10 gates close at 0.6 x 2 rho, and
#: the table takes about 3 ms; at 60 n = 3 to 5 need 0.65.
SAMPLED_ORDER = 100
#: Absolute error allowed for each entry of the cosine table: math.cos errs
#: by under 1 ulp (glibc), and its argument pi i / (2 m) by under 20 u.
_COS_ERR = 2.0**-47


@lru_cache(maxsize=None)
def sampled_maxima(n) -> tuple:
    """(M, C): for even l = 0, 2, ..., SAMPLED_ORDER, M[l // 2] >= max over
    c in [-1, 1] of E_nl(c) = (1 - c^2) C_l(c), and C[l // 2] >= C_l(1),
    C_l = C_l^(n+1).  Orders that compare equal share one entry.

    Proof.  With w_k = (n + 1)_k / k! > 0, C_l(cos th) = sum_{k<=l} w_k
    w_(l-k) cos((l - 2k) th) (Szegő, Orthogonal Polynomials, (4.9.19)), so
    C_l(1) = sum_k w_k w_(l-k) bounds |C_l| and E_nl on [-1, 1].  Sample at
    the zeros c_j = cos th_j, th_j = (2j - 1) pi / (2m), of T_m for
    m = 4 (SAMPLED_ORDER + 2): cos((l - 2k) th_j) is the entry
    (l - 2k)(2j - 1) mod 4m of a table of cos(pi i / (2m)), and 1 - c_j^2 =
    (1 - cos 2 th_j) / 2.  E_nl is even and the zeros symmetric, so j <= m/2
    suffice.  Each float w_k takes 4k roundings, each coefficient 2 w_k
    w_(l-k) 4l + 1, the dot product with the table l/2 + 1 more (Higham,
    Accuracy and Stability of Numerical Algorithms, 3.1, in any order), and
    the table errs by _COS_ERR; so each sample is within e_l = Cbar (4
    _COS_ERR + (6l + 12) u) of E_nl(c_j), Cbar >= C_l(1) the rounded-up
    float sum.  With A <= E_nl(c_j) <= B at every zero (B = max + e_l,
    A = min - e_l), p = E_nl - (A + B)/2 has degree N = l + 2 <= m/4 and
    |p(c_j)| <= (B - A)/2, so by Ehlich and Zeller (Math. Z. 86, 1964), max
    |p| <= (B - A) / (2 cos(N pi / (2m))) on [-1, 1], and max E_nl <= B +
    (B - A)(sec - 1)/2, sec >= 1/cos(N pi/(2m)) <= 1/cos(pi/8).  Adding
    4 u (|B| + 2(B - A)) covers the roundings of B, A and that sum, and the
    step to the next float the last addition.  M takes the smaller of that
    and Cbar."""
    big = SAMPLED_ORDER
    lam = float(n) + 1.0
    w = [1.0]
    for k in range(1, big + 1):
        w.append(w[-1] * ((lam + (k - 1)) / k))
    w = np.array(w)
    m = 4 * (big + 2)
    table = np.array([math.cos(math.pi * i / (2 * m)) for i in range(4 * m)])
    odd = np.arange(1, m, 2)  # 2j - 1, j = 1 .. m/2
    # row l/2 of coef weighs cos(q th), q = l - 2k, by 2 w_k w_(l-k), k < l/2,
    # and by w_(l/2)^2 at q = 0; the zeros add nothing to its dot products
    rows, k = np.tril_indices(big // 2 + 1)
    coef = np.zeros((big // 2 + 1, big + 1))
    coef[rows, 2 * (rows - k)] = np.where(k == rows, 1.0, 2.0) * w[k] * w[2 * rows - k]
    cosines = table[np.outer(np.arange(big + 1), odd) % (4 * m)]
    samples = np.einsum("ij,jk->ik", coef, cosines) * ((1.0 - table[2 * odd]) / 2.0)
    maxima, caps = [], []
    for ell, row, values in zip(range(0, big + 1, 2), coef, samples):
        cap = float(round_up(row.sum(), 6 * (ell + 1)))
        err = cap * (4.0 * _COS_ERR + (6 * ell + 12) * _U)
        hi, lo = float(values.max()) + err, float(values.min()) - err
        sec = 1.0 / (math.cos((ell + 2) * math.pi / (2 * m)) - 2.0**-49)
        half = (sec - 1.0) / 2.0 + 2.0**-50
        spread = hi - lo
        bound = hi + spread * half + 4 * _U * (abs(hi) + 2.0 * spread)
        maxima.append(min(math.nextafter(bound, math.inf), cap))
        caps.append(cap)
    return tuple(maxima), tuple(caps)


def remainder_majorant(n, t: int, x, x_max) -> np.ndarray:
    """Upper bounds of B_t(x) = sum_{even l >= t} M_l x^(l-t), M_l >= max_c
    E_nl(c), at each float 0 <= x <= x_max < 1, x_max rational, for even
    t <= SAMPLED_ORDER.  For even t, (R_nt(c, x) + R_nt(-c, x)) / 2 =
    sum_{even l >= t} E_nl(c) x^(l-t) <= B_t(x): the odd l cancel.

    M_l is sampled_maxima's up to SAMPLED_ORDER = L and C_l(1) past it, whose
    sum over even l >= L + 2 is at most x^(L+2-t) G(n', L + 2, x_max)
    (remainder_bound to 2^-10; G grows with x and with n' >= n, n' the
    multiple of 2^-11 that keeps its integers short).  With y = fl(x * x),
    Horner's rule runs over the K + 1 coefficients M_t, ..., M_L, G,
    K = (L + 2 - t)/2, all >= 0: each term passes at most 2K + 1 roundings
    and y^j K more, each by a factor within 1 +- u, so round_up(3K + 1)
    covers them."""
    big = SAMPLED_ORDER
    maxima, _ = sampled_maxima(n)
    y = np.square(np.asarray(x, dtype=float))
    tail = remainder_bound(math.ceil(n * 2048) / 2048, big + 2, x_max, 10)
    acc = np.full_like(y, tail)
    for ell in range(big, t - 1, -2):
        acc = acc * y + maxima[ell // 2]
    return round_up(acc, 3 * (big + 2 - t) // 2 + 1)


@dataclass(frozen=True)
class RemainderExtrema:
    """Outward enclosures of min/max of R_nt over [-1,1] x [0,1/2].

    mu <= true minimum, M >= true maximum.  The widths give the gap between
    each outer bound and the best sampled (inner) value, None for (-G, G).
    """

    mu: float
    M: float
    mu_width: float | None = None
    M_width: float | None = None


#: Vertices of the base grid along c; xi gets (GRID_RESOLUTION + 1) // 2.
GRID_RESOLUTION = 2001
#: Cell rows per base-grid block.  Five calls remainder_extrema(n, 6), n = 2,
#: 3, 4, 5, 10, took 330 ms (median of 16) at 64 rows on two workers, 345 at
#: 128, 399 at 32, 510 at 16 and 787 as one block; 458 at 64 rows on one
#: worker (2-core Xeon VM, numpy 2.4).  Each worker's buffers take about
#: 50 KB a row.
_BLOCK_ROWS = 64
#: Relative width each enclosure must reach.
TARGET_REL = 1e-6
#: Most refinement levels, each halving the cell size.
MAX_LEVELS = 30
#: Most active cells one refinement level may split.  A split cell costs
#: about 660 bytes of vertex values and cell arrays, so a level stays under
#: about 175 MB; no base-grid block outlives the scan.  At t = 6 the
#: largest level splits 94,858 cells at n = 12 (61 MB traced peak) and
#: 253,639 at n = 13 (160 MB); n = 14 needs 727,004.
MAX_ACTIVE_CELLS = 2**18


_SAFETY = 4.0


def _cell_upper(f00, f10, f01, f11):
    """Per-cell upper bound: corner max + slope-sampled margin (x SAFETY).

    The slopes are first differences of the corner values, so the h factors of
    slope * h / 2 cancel and only the corner spreads remain.
    """
    cmax = np.maximum(np.maximum(f00, f10), np.maximum(f01, f11))
    slope_c = np.maximum(np.abs(f10 - f00), np.abs(f11 - f01))
    slope_x = np.maximum(np.abs(f01 - f00), np.abs(f11 - f10))
    return cmax + _SAFETY * 0.5 * (slope_c + slope_x)


class _BaseGrid:
    """remainder_values on the vertex grid cgrid x xgrid (xgrid ascending),
    bit for bit as on the meshgrid, and its cells' bounds, _BLOCK_ROWS cell
    rows at a time.  The branch switch depends on xi alone: the series
    columns are computed once over every c, and the direct ones repeat
    _remainder_direct's operations in its order, its row and column factors
    computed once."""

    def __init__(self, n, t: int, cgrid, xgrid):
        self.cgrid, self.xgrid, self.rows = cgrid, xgrid, _BLOCK_ROWS
        self.split = s = int(np.searchsorted(xgrid, series_switch(t), side="right"))
        self.series = _remainder_series(n, t, cgrid[:, None], xgrid[None, :s])
        c = cgrid[:, None]
        self.heads = [npp.polyval(c, taylor_coeff(n, l)) for l in range(t - 1, -1, -1)]
        self.c1, self.c2, self.power = 1.0 - c * c, 2.0 * c, -(float(n) + 1.0)
        self.x = x = xgrid[s:]
        self.x2, self.xt = x * x, x**t

    def buffers(self):
        """One worker's six flat planes of _BLOCK_ROWS + 1 grid rows, and a mask."""
        size = (self.rows + 1) * self.xgrid.size
        return np.empty((6, size)), np.empty(size, dtype=bool)

    def values(self, i: int, buffers) -> np.ndarray:
        """Vertex rows i .. i + _BLOCK_ROWS (fewer at the end), in buffers."""
        planes, s = buffers[0], self.split
        r = min(self.rows + 1, self.cgrid.size - i)
        at, size = slice(i, i + r), r * self.x.size
        v = planes[0, :r * self.xgrid.size].reshape(r, -1)
        e, head = planes[1, :size].reshape(r, -1), planes[2, :size].reshape(r, -1)
        v[:, :s] = self.series[at]
        np.multiply(self.c2[at], self.x, out=e)
        np.subtract(1.0, e, out=e)
        np.add(e, self.x2, out=e)
        e **= self.power
        np.multiply(self.c1[at], e, out=e)
        head.fill(0.0)
        for coeff in self.heads:
            np.multiply(head, self.x, out=head)
            np.add(head, coeff[at], out=head)
        np.subtract(e, head, out=e)
        np.divide(e, self.xt, out=v[:, s:])
        return v

    def cells(self, i: int, buffers):
        """The max and min of vertex rows i .. i + _BLOCK_ROWS and, for R and
        -R, the cells whose bound beats that max, as _branch_bound_max takes
        them.  Each bound is _cell_upper's, float for float, from differences
        shared by neighbouring cells on the flat rows; the last column, which
        pairs a row's end with the next row's start, is never kept.  -R has
        R's corner spreads, so its margins, and max(-f) = -min(f) exactly."""
        v = self.values(i, buffers).ravel()
        (_, a, cmax, cmin, slope_c, slope_x), mask = buffers
        w = self.xgrid.size
        cells = v.size - w - 1  # flat (row, col) = row * w + col, col < w - 1
        a, d, mask = a[:cells + 1], a[:v.size - 1], mask[:cells + 1]
        cmax, cmin, slope_c, slope_x = (b[:cells] for b in (cmax, cmin, slope_c, slope_x))
        np.maximum(v[:-w], v[w:], out=a)
        np.maximum(a[:-1], a[1:], out=cmax)
        np.minimum(v[:-w], v[w:], out=a)
        np.minimum(a[:-1], a[1:], out=cmin)
        np.abs(np.subtract(v[w:], v[:-w], out=a), out=a)
        np.maximum(a[:-1], a[1:], out=slope_c)
        np.abs(np.subtract(v[1:], v[:-1], out=d), out=d)
        margin = np.add(slope_c, np.maximum(d[:-w], d[w:], out=slope_x), out=slope_c)
        np.multiply(_SAFETY * 0.5, margin, out=margin)
        high, low = float(v.max()), float(v.min())
        kept = []
        for sign, bound, best in ((1.0, np.add(cmax, margin, out=cmax), high),
                                  (-1.0, np.subtract(margin, cmin, out=cmin), -low)):
            np.greater(bound, best, out=mask[:-1])
            mask[w - 1::w] = False
            at = np.flatnonzero(mask)
            fs = (v[at + k] * sign for k in (0, w, 1, w + 1))
            rows, cols = divmod(at, w)
            kept.append((self.cgrid[i + rows], self.xgrid[cols], *fs, bound[at]))
        return high, low, *kept

    def scan(self):
        """(best, cells) for R and -R: the best sample and, in row-major order,
        the cells whose bound beats it.  A block's best is at most the grid's,
        so its kept cells include those; np.max over the blocks propagates a
        NaN as over the whole grid."""
        starts = range(0, self.cgrid.size - 1, self.rows)
        blocks = [None] * len(starts)

        def bound(i, buffers):
            blocks[i // self.rows] = self.cells(i, buffers)

        with _Workers(self.buffers, len(starts)) as workers:
            workers.run(starts, bound)
        highs, lows, *kept = zip(*blocks)
        best = (float(np.max(highs)), -float(np.min(lows)))
        cells = [[np.concatenate(col) for col in zip(*parts)] for parts in kept]
        return [(b, [col[c[-1] > b] for col in c]) for b, c in zip(best, cells)]


def _branch_bound_max(evalf, best, cells, hc, hx):
    """Certified upper bound for max evalf over the grid's rectangle.

    best is the best base-grid sample and hc, hx the base cell sides; cells
    are (c0, x0, f00, f10, f01, f11, ub) of the cells whose _cell_upper
    bound ub beats best.  Active cells are split level-synchronously; each
    level halves the cell size and re-estimates local slopes.  Raises
    EnclosureWidthError when a level would split more than MAX_ACTIVE_CELLS
    cells, or when the width is still above TARGET_REL after MAX_LEVELS
    levels.  Returns (upper, width).
    """
    *cells, ub = cells
    for _ in range(MAX_LEVELS):
        if ub.size == 0:
            return best, 0.0
        upper = float(ub.max())
        if upper - best <= TARGET_REL * max(1.0, abs(best)):
            return upper, upper - best
        if ub.size > MAX_ACTIVE_CELLS:
            raise EnclosureWidthError(
                f"extrema enclosure at width {upper - best:.3e} needs "
                f"{ub.size} active cells, more than the cap of "
                f"{MAX_ACTIVE_CELLS}"
            )
        c0, x0, f00, f10, f01, f11 = cells
        hc2, hx2 = hc / 2.0, hx / 2.0
        # five fresh vertices per split cell
        pc = np.concatenate([c0 + hc2, c0, c0 + hc2, c0 + hc2, c0 + hc])
        px = np.concatenate([x0, x0 + hx2, x0 + hx2, x0 + hx, x0 + hx2])
        vals = evalf(pc, px)
        a = c0.size
        fm0, f0m, fmm, fm1, f1m = (vals[i * a:(i + 1) * a] for i in range(5))
        best = max(best, float(vals.max()))
        # the four children in turn, each filtered before they are joined;
        # c1 and x1 are built only now, past the peak of evalf
        c1, x1 = c0 + hc2, x0 + hx2
        hc, hx = hc2, hx2
        parts = []
        for child in ((c0, x0, f00, fm0, f0m, fmm), (c1, x0, fm0, f10, fmm, f1m),
                      (c0, x1, f0m, fmm, f01, fm1), (c1, x1, fmm, f1m, fm1, f11)):
            bound = _cell_upper(*child[2:])
            keep = bound > best
            parts.append([col[keep] for col in (*child, bound)])
        *cells, ub = (np.concatenate(col) for col in zip(*parts))

    upper = float(ub.max()) if ub.size else best
    if upper - best > TARGET_REL * max(1.0, abs(best)):
        raise EnclosureWidthError(
            f"extrema enclosure stuck at width {upper - best:.3e} "
            f"after {MAX_LEVELS} refinement levels"
        )
    return upper, upper - best


def remainder_extrema(n, t: int) -> RemainderExtrema:
    """Enclose min and max of R_nt over [-1,1] x [0,1/2].

    Method: evaluate on a GRID_RESOLUTION x ((GRID_RESOLUTION+1)//2) vertex
    grid, bound each cell by corner values plus a finite-difference slope
    margin (safety factor 4), then refine only the cells that could still
    beat the best sample, halving the cell size per level
    (_branch_bound_max).  No grid-sized array is built: the CPUs this process
    may run on, at most _MAX_WORKERS, take blocks of _BLOCK_ROWS cell rows,
    evaluate their vertices and bound their cells in one pass (_BaseGrid),
    with the same bits at every worker count.  The series columns (about 3%)
    run in one call before: the series stops once its terms are small over
    its whole point set, so row blocks could stop it at other terms and
    change bits.  Raises
    EnclosureWidthError if the relative width TARGET_REL is out of reach
    within MAX_LEVELS levels and MAX_ACTIVE_CELLS cells a level.
    """
    if t < 1:
        raise ValueError(f"requires t >= 1, got {t}")
    cgrid = np.linspace(-1.0, 1.0, GRID_RESOLUTION)
    xgrid = np.linspace(0.0, 0.5, (GRID_RESOLUTION + 1) // 2)
    pos, neg = _BaseGrid(n, t, cgrid, xgrid).scan()
    hc, hx = float(cgrid[1] - cgrid[0]), float(xgrid[1] - xgrid[0])

    def f_neg(c, x):
        return -remainder_values(n, t, c, x)

    m_up, m_w = _branch_bound_max(partial(remainder_values, n, t), *pos, hc, hx)
    neg_up, mu_w = _branch_bound_max(f_neg, *neg, hc, hx)
    return RemainderExtrema(mu=-neg_up, M=m_up, mu_width=mu_w, M_width=m_w)
