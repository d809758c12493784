"""Finite lattice sums over the cutoff ball and their certified companions.

K_m is the near-region part of the convolution sum

    |k|^(2n) * sum_h |h ^ k|^2 / (|h|^(2n+2) |k-h|^(2n+2)),

restricted to |h| < rho or |k-h| < rho and folded onto the ball by the h -> k-h
symmetry (weight 2 where both copies land outside each other's ball).  Z_n,
build_Q and vV_nt produce the coefficients of the large-|k| sandwich

    Z_n + sum_l q_nl |k|^(-l) + v_nt |k|^(-t)
        <= K_m(k) <=
    Z_n + sum_l Q_nl |k|^(-l) + V_nt |k|^(-t)    (|k| >= 2 rho),

where the q/Q come from extremizing sphere polynomials over the unit sphere.

All certificate-bound reductions are correctly rounded sums, hence
independent of term order, which is what makes the bitwise symmetry and
worker-count guarantees real rather than incidental.  Most go through
math.fsum.  The sup K_m search sums its rows with _exact_row_sums instead:
exponent buckets make each row's sum exact before it is rounded once to
nearest, so it returns fsum's value bit for bit, from array operations.  The
search also takes np.sum of each row of terms, but only to rank candidates:
for positive terms any summation order lies within gamma_{N-1} of the exact
sum, so the search can discard a row whose whole interval falls below another
row's, and every reported value is still the correctly rounded sum of its row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations_with_replacement
from typing import NamedTuple

import numpy as np

from .kernel import EnclosureWidthError, substituted_coeff
from .lattice import BallEnumeration, enumerate_ball, max_norm_sq_inside
from .tail import ParameterError, check_even_t, check_parameters


class Interval(NamedTuple):
    lower: float
    upper: float


@dataclass(eq=False)
class SumConfig:
    """Immutable bundle (d, n, rho, ball) shared by every cutoff sum; build it
    with create, which checks the preconditions before sizing the ball."""

    d: int
    n: float
    rho: object
    ball: BallEnumeration

    def __post_init__(self):
        if self.ball.d != self.d or self.ball.radius != self.rho:
            raise ValueError("ball does not match (d, rho)")

    @classmethod
    def create(cls, d: int, n, rho) -> "SumConfig":
        """Check the (d, n, rho) preconditions, then enumerate the ball."""
        check_parameters(d, n, rho)
        return cls(d=d, n=float(n), rho=rho, ball=enumerate_ball(d, rho))

    @cached_property
    def boundary_norm_sq(self) -> int:
        """Largest integer < rho^2; |k-h|^2 > this  <=>  |k-h| >= rho."""
        return max_norm_sq_inside(self.rho)

    @cached_property
    def _max_norm_sq(self) -> int:
        return int(self.ball.norm_sq.max()) if len(self.ball) else 0

    @cached_property
    def _h2f(self) -> np.ndarray:
        return self.ball.norm_sq.astype(float)

    @cached_property
    def _inv_pow_np1(self) -> np.ndarray:
        """|h|^(-(2n+2)) over the ball."""
        return self._h2f ** (-(self.n + 1.0))

    def h_pow(self, exponent: float) -> np.ndarray:
        """|h|^exponent over the ball (via the exact integer |h|^2)."""
        return self._h2f ** (exponent / 2.0)


def _as_k(k, d: int) -> np.ndarray:
    kt = np.asarray(k, dtype=np.int64)
    if kt.shape != (d,):
        raise ValueError(f"k must be an integer {d}-vector, got {k}")
    if not kt.any():
        raise ValueError("k must be nonzero")
    return kt


#: Most entries a fold table may hold; a larger search folds each block.
_TABLE_MAX = 2**22


def _fold(cfg: SumConfig, m: np.ndarray) -> np.ndarray:
    """[1 + (m > boundary_norm_sq)] * m^-(n+1), in place, for exact integers
    m = |k-h|^2 held as floats; 0 at m = 0 (h = k)."""
    zero = m == 0.0
    far = m > cfg.boundary_norm_sq
    m[zero] = 1.0
    np.power(m, -(cfg.n + 1.0), out=m)
    m[far] *= 2.0
    m[zero] = 0.0
    return m


def _power_table(cfg: SumConfig, k2_max: int) -> np.ndarray | None:
    """_fold of every m = |k-h|^2 that a k with |k|^2 <= k2_max meets, or None
    past _TABLE_MAX entries."""
    h2_max = cfg._max_norm_sq
    size = k2_max + h2_max + 2 * math.isqrt(k2_max * h2_max) + 3
    if size > _TABLE_MAX:
        return None
    return _fold(cfg, np.arange(size, dtype=float))


class _FoldedTerms:
    """The folded K_m terms of a block of B integer k's, as a B x N matrix:

        [1 + (|k-h| >= rho)] * |h^k|^2 / (|h|^(2n+2) |k-h|^(2n+2))

    over the N ball points h, with 0 at h = k.  Row i sums, times |k_i|^(2n),
    to K_m(k_i).  h.k is a float64 matmul, exact while |k|^2 max|h|^2 < 2^53;
    a larger k is refused.  The fold of |k-h|^2 is looked up in `table`, from
    _power_table, or else computed by _fold for the block.  Every call
    overwrites the same buffers of `rows` rows, so each worker keeps its own
    instance.
    """

    def __init__(self, cfg: SumConfig, rows: int = 1, table=None):
        self.cfg = cfg
        self.table = table
        n_pts = len(cfg.ball)
        self._points_t = np.ascontiguousarray(cfg.ball.points.T, dtype=float)
        self._a = np.empty((rows, n_pts))
        self._b = np.empty((rows, n_pts))
        self._idx = np.empty((rows, n_pts), dtype=np.intp)

    def __call__(self, ks: np.ndarray) -> np.ndarray:
        cfg = self.cfg
        b = ks.shape[0]
        kf = ks.astype(float)
        k2 = np.einsum("ij,ij->i", kf, kf)[:, None]
        if k2.max() * cfg._max_norm_sq >= 2.0**53:
            raise ParameterError(
                f"|k|^2 = {k2.max():.17g} too large: float64 h.k is exact only "
                f"while |k|^2 max|h|^2 < 2^53"
            )
        dot, acc, idx = self._a[:b], self._b[:b], self._idx[:b]
        np.matmul(kf, self._points_t, out=dot)
        np.multiply(dot, -2.0, out=acc)
        acc += cfg._h2f
        acc += k2
        np.copyto(idx, acc, casting="unsafe")  # |k-h|^2, an exact integer
        dot *= dot
        np.multiply(k2, cfg._h2f, out=acc)
        acc -= dot  # |h^k|^2, an exact integer
        acc *= cfg._inv_pow_np1
        if self.table is None:
            np.copyto(dot, idx)
            _fold(cfg, dot)
        else:
            np.take(self.table, idx, out=dot)
        acc *= dot
        return acc


def _k_scale(k2: int, n: float) -> float:
    """|k|^(2n) from the exact integer |k|^2; refuses a power that overflows
    a float or underflows to 0."""
    try:
        scale = float(k2) ** n
    except OverflowError:
        raise ParameterError(
            f"|k|^(2n) = {k2}^{n} overflows a float; requires a smaller |k| or n"
        ) from None
    if scale == 0.0:
        raise ParameterError(
            f"|k|^(2n) = {k2}^{n} underflows to 0; requires a smaller |k| or |n|"
        )
    return scale


def K_m(k, cfg: SumConfig) -> float:
    """Near-region cutoff sum at k, folded onto the ball.

    sum over h in ball, h != k of [1 + (|k-h| >= rho)] * |h^k|^2 /
    (|h|^(2n+2) |k-h|^(2n+2)), scaled by |k|^(2n).  All lattice invariants
    (|h|^2, |k-h|^2, |h^k|^2) are exact integers, so the term multiset -- and
    with fsum the total -- is bitwise invariant under signed permutations of k.
    """
    kt = _as_k(k, cfg.d)
    scale = _k_scale(int(kt @ kt), cfg.n)
    terms = _FoldedTerms(cfg)(kt[None, :])[0]
    return scale * math.fsum(terms.tolist())


#: Most entries of a row that one bucket pass takes, so that no (row, exponent)
#: bucket holds more than 2^26 entries.
_BUCKET_COLS = 2**26
#: np.frexp's exponent of the smallest subnormal, 2^-1074 = (1/2) 2^-1073.
_MIN_EXP = -1073


def _exact_row_sums(terms) -> list[float]:
    """math.fsum of each row of a finite, nonnegative float64 matrix, bit for
    bit, by exponent buckets (Demmel and Hida, Accurate and efficient floating
    point summation, SIAM J. Sci. Comput. 2003).

    np.frexp writes each entry as m 2^e with m in [1/2, 1), or m = 0.  A float
    with exponent e >= -1073 is a multiple of 2^(e-53), so M = m 2^53 is an
    integer below 2^53.  Scaling m by 2^27 is exact, and so is splitting the
    result into hi = floor(m 2^27) < 2^27 and its fraction f, a multiple of
    2^-26: M = (hi + f) 2^26.  np.bincount sums the hi's and the f's of each
    (row, e) bucket in float64.  With at most 2^26 entries to a bucket, every
    partial sum of hi's is an integer at most 2^53 and every partial sum of
    f's a multiple of 2^-26 below 2^26, so both sums are exact.  A row's exact
    sum is therefore the integer sum_e (H_e + F_e) 2^26 2^(e+1073), which
    Python ints hold exactly, times 2^-1126.  One int true division rounds it
    to nearest, ties to even; CPython rounds int division correctly and fsum
    returns the correctly rounded sum, so the two agree bit for bit, and both
    raise OverflowError past the float range.  A longer row is summed in
    chunks of _BUCKET_COLS columns.  An entry with its sign bit set, an
    infinity or a nan is refused with ValueError.  That refuses -0.0 too, so
    the result never depends on the Python version's rule for the sign of a
    zero fsum.
    """
    terms = np.asarray(terms, dtype=float)
    rows, cols = terms.shape
    if not terms.size:
        return [0.0] * rows
    if np.signbit(terms).any() or not terms.max() < math.inf:
        raise ValueError("exact row sums need finite entries without a sign bit")
    totals = [0] * rows
    for start in range(0, cols, _BUCKET_COLS):
        mant, expo = np.frexp(terms[:, start:start + _BUCKET_COLS])
        low = int(expo.min())
        width = int(expo.max()) - low + 1
        bucket = (expo + (np.arange(rows) * width - low)[:, None]).ravel()
        mant *= 2.0**27
        hi = np.floor(mant)
        mant -= hi
        hi_sums = np.bincount(bucket, hi.ravel(), rows * width)
        frac_sums = np.bincount(bucket, mant.ravel(), rows * width) * 2.0**26
        # a nonzero entry has hi >= 2^26, so empty and all-zero buckets skip
        live = np.flatnonzero(hi_sums)
        for i, h, f in zip(
            live.tolist(), hi_sums[live].tolist(), frac_sums[live].tolist()
        ):
            row, b = divmod(i, width)
            totals[row] += ((int(h) << 26) + int(f)) << (b + low - _MIN_EXP)
    return [t / (1 << 1126) for t in totals]


def Z_n(cfg: SumConfig) -> float:
    """Limit value of K_m at infinity: 2 (1 - 1/d) sum_{|h|<rho} |h|^(-2n)."""
    s = math.fsum(cfg.h_pow(-2.0 * cfg.n).tolist())
    return 2.0 * (1.0 - 1.0 / cfg.d) * s


@dataclass(eq=False)
class SpherePolynomial:
    """Even polynomial on the unit sphere, expanded over monomials in u.

    terms maps exponent tuples (all even) to float coefficients; the polynomial
    is invariant under signed permutations of u because the summation ball is.
    """

    ell: int
    d: int
    terms: dict


def _even_multi_indices(total: int, d: int):
    """All d-tuples of even nonnegative ints summing to total, descending-lex."""
    half = total // 2
    seen = []
    for combo in combinations_with_replacement(range(d), half):
        m = [0] * d
        for i in combo:
            m[i] += 2
        seen.append(tuple(m))
    return sorted(set(seen), reverse=True)


def _multinomial(total: int, m) -> int:
    out = math.factorial(total)
    for mi in m:
        out //= math.factorial(mi)
    return out


def build_Q(cfg: SumConfig, ell: int) -> SpherePolynomial:
    """Direction coefficient of |k|^(-ell) in the large-|k| sandwich:

        u -> 2 sum_{|h|<rho} Ehat_nl(u . h/|h|) / |h|^(2n-ell),

    expanded over monomials of u via the ball's symmetric tensor moments."""
    if ell < 2 or ell % 2 != 0:
        raise ValueError(f"requires even ell >= 2, got {ell}")
    ehat = substituted_coeff(cfg.n, ell, cfg.d)
    w = cfg.h_pow(ell - 2.0 * cfg.n)
    norms = cfg.h_pow(1.0)
    uhat = cfg.ball.points / norms[:, None]
    terms: dict = {}
    for j, a in enumerate(ehat):
        if a == 0:
            continue
        if j == 0:
            key = (0,) * cfg.d
            terms[key] = terms.get(key, 0.0) + a * 2.0 * math.fsum(w.tolist())
            continue
        for m in _even_multi_indices(j, cfg.d):
            mono = np.prod(uhat ** np.asarray(m), axis=1) * w
            moment = 2.0 * math.fsum(mono.tolist())
            coeff = a * _multinomial(j, m) * moment
            terms[m] = terms.get(m, 0.0) + coeff
    return SpherePolynomial(ell=ell, d=cfg.d, terms=terms)


def _s_monomials(q: SpherePolynomial):
    """Rewrite the even sphere polynomial over s_i = u_i^2 (simplex variables)."""
    monos = []
    for expo, coeff in sorted(q.terms.items()):
        if any(e % 2 for e in expo):
            raise ValueError(f"sphere polynomial has an odd monomial {expo}")
        monos.append((tuple(e // 2 for e in expo), float(coeff)))
    return monos


def _bounded_multi(total: int, slots: int):
    """All multi-indices in slots variables with sum <= total, deterministic."""
    if slots == 0:
        yield ()
        return
    for first in range(total + 1):
        for rest in _bounded_multi(total - first, slots - 1):
            yield (first,) + rest


def _reduce_to_free(monos, d):
    """Substitute s_d = 1 - sum(x) to get a polynomial in the free variables.

    The raw monomial coefficients of the sphere polynomial can exceed its
    actual range by orders of magnitude (massive cancellation); the reduced
    form is a Taylor expansion around the vertex s = e_d, so its coefficients
    live at the scale of the function itself and interval bounds on it are
    well conditioned.
    """
    nfree = d - 1
    out: dict = {}
    for a, c in monos:
        base = a[:nfree]
        ad = a[nfree]
        for beta in _bounded_multi(ad, nfree):
            rest = ad - sum(beta)
            coef = math.factorial(ad)
            for bi in beta:
                coef //= math.factorial(bi)
            coef //= math.factorial(rest)
            sign = -1.0 if sum(beta) % 2 else 1.0
            key = tuple(b + e for b, e in zip(base, beta))
            out[key] = out.get(key, 0.0) + c * sign * coef
    return sorted(out.items())


def _derivative_free(monos, i):
    out: dict = {}
    for a, c in monos:
        if a[i]:
            na = list(a)
            na[i] -= 1
            key = tuple(na)
            out[key] = out.get(key, 0.0) + c * a[i]
    return sorted(out.items())


class _ArrayPoly(NamedTuple):
    """sum_j coeffs[j] * prod_i x_i^expos[j, i] in the free coordinates."""

    expos: np.ndarray
    coeffs: np.ndarray


def _array_poly(monos, nfree: int) -> _ArrayPoly:
    return _ArrayPoly(
        np.array([a for a, _ in monos], dtype=np.intp).reshape(len(monos), nfree),
        np.array([c for _, c in monos], dtype=float),
    )


def _powers(x: np.ndarray, deg: int) -> np.ndarray:
    """x_bi ** j for j = 0..deg, as a B x nfree x (deg+1) array."""
    return x[:, :, None] ** np.arange(deg + 1)


def _row_sums(x: np.ndarray) -> np.ndarray:
    """Left-to-right sum of each row.  np.sum may pair terms differently as
    the number of rows changes; an accumulate may not."""
    return np.cumsum(x, axis=1)[:, -1] if x.shape[1] else np.zeros(len(x))


def _box_range(poly: _ArrayPoly, lo_pw: np.ndarray, hi_pw: np.ndarray):
    """Plain interval bound (lower, upper) of poly on each box [lo, hi] >= 0,
    given the powers of the box corners; at lo = hi both are the value there.

    A monomial is monotone on the nonnegative orthant, so its coefficient
    times the corner values brackets it; the bounds sum the brackets."""
    at_lo = at_hi = poly.coeffs
    for i in range(poly.expos.shape[1]):
        at_lo = at_lo * lo_pw[:, i, poly.expos[:, i]]
        at_hi = at_hi * hi_pw[:, i, poly.expos[:, i]]
    return _row_sums(np.minimum(at_lo, at_hi)), _row_sums(np.maximum(at_lo, at_hi))


#: Most boxes one array evaluation of the simplex search holds.
_BOX_CHUNK = 4096


def _bound_boxes(poly, derivs, deg, lo, hi):
    """Clip boxes to sum(x) <= 1 and bound the polynomial on each.

    Returns (ub, inner, point, hi): the smaller of the plain interval bound
    and a centered form with interval-bounded partial derivatives, the larger
    of the values at the center and at lo, the point attaining it, and the
    clipped upper corners.  The center is the midpoint when that is feasible,
    else lo (with the reach doubled to match)."""
    lo_sum = _row_sums(lo)[:, None]
    hi = np.minimum(hi, 1.0 - (lo_sum - lo))
    lo_pw, hi_pw = _powers(lo, deg), _powers(hi, deg)
    plain_ub = _box_range(poly, lo_pw, hi_pw)[1]
    mid = (lo + hi) / 2.0
    at_mid = (_row_sums(mid) <= 1.0)[:, None]
    center = np.where(at_mid, mid, lo)
    reach = np.where(at_mid, (hi - lo) / 2.0, hi - lo)
    slopes = np.empty_like(lo)
    for i, deriv in enumerate(derivs):
        dl, du = _box_range(deriv, lo_pw, hi_pw)
        slopes[:, i] = np.maximum(np.abs(dl), np.abs(du))
    spread = _row_sums(slopes * reach)
    c_pw = _powers(center, deg)
    fc = _box_range(poly, c_pw, c_pw)[1]
    f0 = _box_range(poly, lo_pw, lo_pw)[1]
    ub = np.minimum(plain_ub, fc + spread)
    inner = np.maximum(fc, f0)
    point = np.where((fc >= f0)[:, None], center, lo)
    return ub, inner, point, hi


def _bisect(lo, hi):
    """Halve each box across its widest axis (ties: lowest axis); the two
    halves of box b are rows 2b and 2b + 1."""
    rows = np.arange(len(lo))
    axis = np.argmax(hi - lo, axis=1)
    cut = (lo[rows, axis] + hi[rows, axis]) / 2.0
    lo2, hi2 = np.repeat(lo, 2, axis=0), np.repeat(hi, 2, axis=0)
    hi2[2 * rows, axis] = cut
    lo2[2 * rows + 1, axis] = cut
    return lo2, hi2


def _simplex_max(monos, d, target_rel, max_nodes):
    """Level-synchronous branch-and-bound max of the s-polynomial over the simplex.

    Works on the reduced polynomial in the free coordinates x = (s_1..s_{d-1})
    over the corner region {x >= 0, sum(x) <= 1}, with the monomials held as
    an exponent matrix and a coefficient vector.  Each level bounds all its
    boxes as arrays (_bound_boxes), in chunks of at most _BOX_CHUNK boxes so
    that memory does not grow with the level, then takes the best inner value.
    A box with ub <= best is dropped.  A box with best < ub <= best + tol is
    settled: never split again, but its ub still counts toward the returned
    upper bound.  Every other box is bisected into the next level, and
    max_nodes caps the number of boxes bisected.  The inner maximum is the
    first box's in array order on ties, so the search is deterministic and
    independent of the chunk size.  Returns (upper, best, point).
    """
    nfree = d - 1
    free = _reduce_to_free(monos, d)
    poly = _array_poly(free, nfree)
    derivs = [_array_poly(_derivative_free(free, i), nfree) for i in range(nfree)]
    deg = int(poly.expos.max())

    best = -math.inf
    best_point = None
    settled = -math.inf
    nodes = 0
    lo, hi = np.zeros((1, nfree)), np.ones((1, nfree))
    while True:
        parts = []
        for start in range(0, len(lo), _BOX_CHUNK):
            chunk = slice(start, start + _BOX_CHUNK)
            ub, inner, point, clipped = _bound_boxes(
                poly, derivs, deg, lo[chunk], hi[chunk]
            )
            i = int(np.argmax(inner))
            if inner[i] > best:
                best, best_point = float(inner[i]), point[i]
            alive = ub > best
            parts.append((lo[chunk][alive], clipped[alive], ub[alive]))
        lo, hi, ub = (np.concatenate(p) for p in zip(*parts))
        tol = target_rel * max(1.0, abs(best))
        split = ub - best > tol
        in_band = ub[(ub > best) & ~split]
        settled = max(settled, float(in_band.max(initial=-math.inf)))
        if not split.any():
            break
        nodes += int(split.sum())
        if nodes > max_nodes:
            raise EnclosureWidthError(
                f"sphere-polynomial extremum stuck at width "
                f"{float(ub[split].max()) - best:.3e} after {max_nodes} nodes"
            )
        lo, hi = _bisect(lo[split], hi[split])
        feasible = _row_sums(lo) <= 1.0
        lo, hi = lo[feasible], hi[feasible]
    upper = max(settled, best)
    full_point = tuple(best_point.tolist()) + (max(0.0, 1.0 - math.fsum(best_point)),)
    return upper, best, full_point


#: Relative width each sphere-polynomial enclosure must reach.
TARGET_REL = 1e-6
#: Most boxes the simplex search may bisect for one enclosure.
MAX_NODES = 400_000


def extremize_Q(q: SpherePolynomial):
    """Outward enclosures of min/max of the sphere polynomial, plus the argmax.

    Works on the simplex image s_i = u_i^2 (the polynomial is even), with the
    level-synchronous branch-and-bound of _simplex_max: each endpoint lies
    within TARGET_REL of a sampled value, and raises EnclosureWidthError once
    more than MAX_NODES boxes would be split.  The result is deterministic;
    the argmax is reported as the canonical (sorted descending, nonnegative)
    unit vector.
    """
    monos = _s_monomials(q)
    if not monos:
        monos = [((0,) * q.d, 0.0)]
    q_max, _, arg_s = _simplex_max(monos, q.d, TARGET_REL, MAX_NODES)
    neg = [(a, -c) for a, c in monos]
    neg_max, _, _ = _simplex_max(neg, q.d, TARGET_REL, MAX_NODES)
    q_min = -neg_max
    u = tuple(sorted((math.sqrt(max(s, 0.0)) for s in arg_s), reverse=True))
    return q_min, q_max, u


def vV_nt(cfg: SumConfig, t: int, extrema) -> tuple[float, float]:
    """Endpoint coefficients of the |k|^(-t) remainder term in the sandwich:
    (2 mu S, 2 M S) with S = sum_{|h|<rho} |h|^(t-2n)."""
    check_even_t(t)
    s = math.fsum(cfg.h_pow(t - 2.0 * cfg.n).tolist())
    return 2.0 * extrema.mu * s, 2.0 * extrema.M * s
