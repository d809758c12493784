"""Finite lattice sums over the cutoff ball and their certified companions.

K_m is the near-region part of the convolution sum

    |k|^(2n) * sum_h |h ^ k|^2 / (|h|^(2n+2) |k-h|^(2n+2)),

restricted to |h| < rho or |k-h| < rho and folded onto the ball by the h -> k-h
symmetry (weight 2 where both copies land outside each other's ball).  KK_direct
is an interval oracle for the full sum.  Z_n, build_Q and vV_nt produce the
coefficients of the large-|k| sandwich

    Z_n + sum_l q_nl |k|^(-l) + v_nt |k|^(-t)
        <= K_m(k) <=
    Z_n + sum_l Q_nl |k|^(-l) + V_nt |k|^(-t)    (|k| >= 2 rho),

where the q/Q come from extremizing sphere polynomials over the unit sphere.

All certificate-bound reductions go through math.fsum: the sum is exactly
rounded, hence independent of term order, which is what makes the bitwise
symmetry and thread-count guarantees real rather than incidental.  The sup K_m
search also takes np.sum of each row of terms, but only to rank candidates:
for positive terms any summation order lies within gamma_{N-1} of the exact
sum, so the search can discard a row whose whole interval falls below another
row's, and every reported value is still the fsum of its row.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations_with_replacement
from typing import NamedTuple

import numpy as np

from .kernel import EnclosureWidthError, substituted_coeff
from .lattice import (
    BallEnumeration,
    enumerate_ball,
    max_norm_sq_inside,
    shared_ball,
)
from .tail import TailBoundInputs, tail_sum_bound


class Interval(NamedTuple):
    lower: float
    upper: float


@dataclass(eq=False)
class SumConfig:
    """Immutable bundle (d, n, rho, ball) shared by every cutoff sum."""

    d: int
    n: float
    rho: object
    ball: BallEnumeration

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"requires d >= 2, got d={self.d}")
        if not float(self.n) > self.d / 2.0:
            raise ValueError(f"requires n > d/2, got n={self.n}, d={self.d}")
        if not float(self.rho) > 2.0 * math.sqrt(self.d):
            raise ValueError(
                f"requires rho > 2*sqrt(d) = {2.0 * math.sqrt(self.d):.6f}, "
                f"got rho={self.rho}"
            )
        if self.ball.d != self.d or self.ball.radius != self.rho:
            raise ValueError("ball does not match (d, rho)")

    @classmethod
    def create(cls, d: int, n, rho) -> "SumConfig":
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


#: Most entries a |k-h|^-(2n+2) table may hold; a larger search computes the
#: power directly, like a lone K_m call.
_TABLE_MAX = 2**22


def _power_table(cfg: SumConfig, k2_max: int) -> np.ndarray | None:
    """[1 + (m > boundary_norm_sq)] * m^-(n+1) for every m = |k-h|^2 that a k
    with |k|^2 <= k2_max meets; entry 0 (h = k) is 0.

    Returns None where the table could not reproduce the direct terms bit for
    bit -- float64 h.k may be inexact, or a doubled term may be subnormal,
    where scaling by 2 is no longer exact -- or would exceed _TABLE_MAX.
    """
    h2_max = cfg._max_norm_sq
    size = k2_max + h2_max + 2 * math.isqrt(k2_max * h2_max) + 3
    if size > _TABLE_MAX or k2_max * h2_max >= 2**53:
        return None
    table = np.arange(size, dtype=float)
    table[0] = 1.0
    table = table ** (-(cfg.n + 1.0))
    if table[-1] * cfg._inv_pow_np1.min() < 2.0**-1021:
        return None
    table[cfg.boundary_norm_sq + 1:] *= 2.0
    table[0] = 0.0
    return table


class _FoldedTerms:
    """The folded K_m terms of a block of B integer k's, as a B x N matrix:

        [1 + (|k-h| >= rho)] * |h^k|^2 / (|h|^(2n+2) |k-h|^(2n+2))

    over the N ball points h, with 0 at h = k.  Row i sums, times |k_i|^(2n),
    to K_m(k_i).  With a table from _power_table the block runs in float64
    (h.k is a matmul, exact under the table's bound) in buffers of `rows`
    rows that every call overwrites, so each thread needs its own instance.
    Without one it takes the direct power in int64 arithmetic.
    """

    def __init__(self, cfg: SumConfig, rows: int = 1, table=None):
        self.cfg = cfg
        self.table = table
        if table is not None:
            n_pts = len(cfg.ball)
            self._points_t = np.ascontiguousarray(cfg.ball.points.T, dtype=float)
            self._a = np.empty((rows, n_pts))
            self._b = np.empty((rows, n_pts))
            self._idx = np.empty((rows, n_pts), dtype=np.intp)

    def __call__(self, ks: np.ndarray) -> np.ndarray:
        if self.table is None:
            return self._direct(ks)
        cfg = self.cfg
        b = ks.shape[0]
        k2 = np.einsum("ij,ij->i", ks, ks).astype(float)[:, None]
        dot, acc, idx = self._a[:b], self._b[:b], self._idx[:b]
        np.matmul(ks.astype(float), self._points_t, out=dot)
        np.multiply(dot, -2.0, out=acc)
        acc += cfg._h2f
        acc += k2
        np.copyto(idx, acc, casting="unsafe")  # |k-h|^2, an exact integer
        dot *= dot
        np.multiply(k2, cfg._h2f, out=acc)
        acc -= dot  # |h^k|^2, an exact integer
        acc *= cfg._inv_pow_np1
        np.take(self.table, idx, out=dot)
        acc *= dot
        return acc

    def _direct(self, ks: np.ndarray) -> np.ndarray:
        cfg = self.cfg
        k2 = np.einsum("ij,ij->i", ks, ks)[:, None]
        if int(k2.max()) * cfg._max_norm_sq >= 2**62:
            raise ValueError(
                f"|k|^2 = {int(k2.max())} too large for the int64 fast path"
            )
        h2 = cfg.ball.norm_sq
        dot = ks @ cfg.ball.points.T
        km2 = k2 - 2 * dot + h2
        wedge = h2 * k2 - dot * dot
        terms = wedge * cfg._inv_pow_np1
        terms *= np.maximum(km2, 1).astype(float) ** (-(cfg.n + 1.0))
        terms *= np.where(km2 > cfg.boundary_norm_sq, 2.0, 1.0)
        return terms


def K_m(k, cfg: SumConfig) -> float:
    """Near-region cutoff sum at k, folded onto the ball.

    sum over h in ball, h != k of [1 + (|k-h| >= rho)] * |h^k|^2 /
    (|h|^(2n+2) |k-h|^(2n+2)), scaled by |k|^(2n).  All lattice invariants
    (|h|^2, |k-h|^2, |h^k|^2) are exact integers, so the term multiset -- and
    with fsum the total -- is bitwise invariant under signed permutations of k.
    """
    kt = _as_k(k, cfg.d)
    terms = _FoldedTerms(cfg)(kt[None, :])[0]
    return float(int(kt @ kt)) ** cfg.n * math.fsum(terms.tolist())


_CHUNK = 2_000_000


def KK_direct(k, cfg: SumConfig, truncation_radius) -> Interval:
    """Certified interval for the full (untruncated) convolution sum at k.

    [S, S+T]: S is the exact sum over |h| < truncation_radius, and T bounds the
    discarded tail using |h^k|^2 <= |h|^2 |k|^2 and |k-h| >= |h|/2 (valid since
    the truncation radius exceeds 2|k|).  Requires truncation_radius >
    2 (|k| + rho) so that the tail lies past both cutoff regions.
    """
    kt = _as_k(k, cfg.d)
    k2 = int(kt @ kt)
    need = 2.0 * (math.sqrt(k2) + float(cfg.rho))
    if not float(truncation_radius) > need:
        raise ValueError(
            f"requires truncation_radius > 2*(|k|+rho) = {need:.6f}, "
            f"got {truncation_radius}"
        )
    big = shared_ball(cfg.d, truncation_radius)
    partials = []
    for start in range(0, len(big), _CHUNK):
        pts = big.points[start:start + _CHUNK]
        h2 = big.norm_sq[start:start + _CHUNK]
        dot = pts @ kt
        km2 = k2 - 2 * dot + h2
        wedge = h2 * k2 - dot * dot
        live = km2 != 0
        terms = wedge[live] * (h2[live].astype(float) ** (-(cfg.n + 1.0)))
        terms = terms * (km2[live].astype(float) ** (-(cfg.n + 1.0)))
        partials.append(math.fsum(terms.tolist()))
    s_val = float(k2) ** cfg.n * math.fsum(partials)
    tail = tail_sum_bound(
        TailBoundInputs(d=cfg.d, nu=4.0 * cfg.n + 2.0, rho=float(truncation_radius))
    )
    t_val = float(k2) ** (cfg.n + 1.0) * 2.0 ** (2.0 * cfg.n + 2.0) * tail
    return Interval(s_val, s_val + t_val)


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

    def eval(self, u):
        ua = np.asarray(u, dtype=float)
        single = ua.ndim == 1
        pts = np.atleast_2d(ua)
        acc = np.zeros(pts.shape[0])
        for expo, coeff in sorted(self.terms.items()):
            acc = acc + coeff * np.prod(pts ** np.asarray(expo), axis=1)
        return float(acc[0]) if single else acc


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
    for j, a in enumerate(ehat.coeffs):
        if a == 0:
            continue
        af = float(a)
        if j == 0:
            key = (0,) * cfg.d
            terms[key] = terms.get(key, 0.0) + af * 2.0 * math.fsum(w.tolist())
            continue
        for m in _even_multi_indices(j, cfg.d):
            mono = np.prod(uhat ** np.asarray(m), axis=1) * w
            moment = 2.0 * math.fsum(mono.tolist())
            coeff = af * _multinomial(j, m) * moment
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


def _mono_eval(monos, s):
    vals = []
    for a, c in monos:
        v = c
        for ai, si in zip(a, s):
            if ai:
                v *= si**ai
        vals.append(v)
    return math.fsum(vals)


def _poly_range(monos, lo, hi):
    """Interval bound of sum c * prod x^a for x componentwise in [lo, hi] >= 0."""
    lb = 0.0
    ub = 0.0
    for a, c in monos:
        plo = 1.0
        phi = 1.0
        for ai, l, h in zip(a, lo, hi):
            if ai:
                plo *= l**ai
                phi *= h**ai
        if c >= 0.0:
            lb += c * plo
            ub += c * phi
        else:
            lb += c * phi
            ub += c * plo
    return lb, ub


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


def _simplex_max(monos, d, target_rel, max_nodes):
    """Best-first branch-and-bound max of the s-polynomial over the simplex.

    Works on the reduced polynomial in the free coordinates x = (s_1..s_{d-1})
    over the corner region {x >= 0, sum(x) <= 1}.  Each box is bounded by a
    plain interval evaluation and a centered form with interval-bounded
    partial derivatives; the heap is ordered by (bound, insertion counter),
    which makes the whole search deterministic.
    """
    nfree = d - 1
    free = _reduce_to_free(monos, d)
    derivs = [_derivative_free(free, i) for i in range(nfree)]

    def box_info(lo, hi):
        lo_sum = math.fsum(lo)
        if lo_sum > 1.0:
            return None
        hi = tuple(
            min(h, 1.0 - (lo_sum - l)) for l, h in zip(lo, hi)
        )
        _, plain_ub = _poly_range(free, lo, hi)
        mid = tuple((l + h) / 2.0 for l, h in zip(lo, hi))
        if math.fsum(mid) <= 1.0:
            center = mid
            reach = [(h - l) / 2.0 for l, h in zip(lo, hi)]
        else:
            center = lo
            reach = [h - l for l, h in zip(lo, hi)]
        spread = 0.0
        for i in range(nfree):
            dl, du = _poly_range(derivs[i], lo, hi)
            spread += max(abs(dl), abs(du)) * reach[i]
        fc = _mono_eval(free, center)
        f0 = _mono_eval(free, lo)
        ub = min(plain_ub, fc + spread)
        inner = max(fc, f0)
        point = center if fc >= f0 else lo
        return ub, inner, point, hi

    best = -math.inf
    best_point = None
    counter = 0
    heap = []
    root = ((0.0,) * nfree, (1.0,) * nfree)
    info = box_info(*root)
    if info is None:
        raise ValueError("empty feasible region")
    ub, inner, point, hi0 = info
    if inner > best:
        best, best_point = inner, point
    heapq.heappush(heap, (-ub, counter, (root[0], hi0)))
    nodes = 0
    while heap:
        negub, _, (lo, hi) = heapq.heappop(heap)
        top = -negub
        tol = target_rel * max(1.0, abs(best))
        if top - best <= tol:
            break
        nodes += 1
        if nodes > max_nodes:
            raise EnclosureWidthError(
                f"sphere-polynomial extremum stuck at width {top - best:.3e} "
                f"after {max_nodes} nodes"
            )
        widths = [h - l for l, h in zip(lo, hi)]
        axis = max(range(nfree), key=lambda i: (widths[i], -i))
        cut = (lo[axis] + hi[axis]) / 2.0
        for child_lo, child_hi in (
            (lo, tuple(cut if i == axis else h for i, h in enumerate(hi))),
            (tuple(cut if i == axis else l for i, l in enumerate(lo)), hi),
        ):
            info = box_info(child_lo, child_hi)
            if info is None:
                continue
            ub, inner, point, clipped_hi = info
            if inner > best:
                best, best_point = inner, point
            counter += 1
            if ub > best:
                heapq.heappush(heap, (-ub, counter, (child_lo, clipped_hi)))
        top = -heap[0][0] if heap else best
    upper = max(top, best)
    full_point = tuple(best_point) + (max(0.0, 1.0 - math.fsum(best_point)),)
    return upper, best, full_point


def extremize_Q(
    q: SpherePolynomial, *, target_rel: float = 1e-6, max_nodes: int = 400_000
):
    """Outward enclosures of min/max of the sphere polynomial, plus the argmax.

    Works on the simplex image s_i = u_i^2 (the polynomial is even), with a
    deterministic branch-and-bound; the argmax is reported as the canonical
    (sorted descending, nonnegative) unit vector.
    """
    monos = _s_monomials(q)
    if not monos:
        monos = [((0,) * q.d, 0.0)]
    q_max, _, arg_s = _simplex_max(monos, q.d, target_rel, max_nodes)
    neg = [(a, -c) for a, c in monos]
    neg_max, _, _ = _simplex_max(neg, q.d, target_rel, max_nodes)
    q_min = -neg_max
    u = tuple(sorted((math.sqrt(max(s, 0.0)) for s in arg_s), reverse=True))
    return q_min, q_max, u


def vV_nt(cfg: SumConfig, t: int, extrema) -> tuple[float, float]:
    """Endpoint coefficients of the |k|^(-t) remainder term in the sandwich:
    (2 mu S, 2 M S) with S = sum_{|h|<rho} |h|^(t-2n)."""
    if t < 2 or t % 2 != 0:
        raise ValueError(f"requires even t >= 2, got {t}")
    s = math.fsum(cfg.h_pow(t - 2.0 * cfg.n).tolist())
    return 2.0 * extrema.mu * s, 2.0 * extrema.M * s
