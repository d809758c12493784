"""Finite lattice sums over the cutoff ball and their certified companions.

K_m is the near-region part of the convolution sum

    |k|^(2n) * sum_h |h ^ k|^2 / (|h|^(2n+2) |k-h|^(2n+2)),

restricted to |h| < rho or |k-h| < rho and folded onto the ball by the h -> k-h
symmetry (weight 2 where both copies land outside each other's ball).  Z_n,
build_Q and vV_nt produce the coefficients of the large-|k| sandwich

    Z_n + sum_l q_nl |k|^(-l) + v_nt |k|^(-t)
        <= K_m(k) <=
    Z_n + sum_l Q_nl |k|^(-l) + V_nt |k|^(-t)    (|k| >= 2 rho),

where the q/Q bound the extrema of sphere polynomials over the unit sphere.
extremize_Q bounds them exactly, in rational arithmetic, over a finite
candidate set, the points whose squared coordinates take at most two distinct
nonzero values, which hold the extrema for t <= 10 (any t at d = 2) by the
half-degree principle for symmetric polynomials, and rounds them outward.

Every certificate-bound reduction is a correctly rounded sum, independent of
term order, which makes the bitwise symmetry and worker-count guarantees real:
SumConfig.shell_sum for Z_n, build_Q and vV_nt, and math.fsum for K_m.  The
search bounds every rep's K_m by np.sum of weighted orbit terms
(_PairedTerms): a canonical k is fixed by a subgroup S_k of the signed
permutations, and the ball splits into orbits P of <S_k, -I>, on each of
which the paired term of h and -h repeats bit for bit; so each orbit enters
once, with the integer weight |P| / 2.  A proven error bound
(certify._screen) encloses each rep's K_m, and the search then takes K_m
only at the reps whose upper bound reaches the largest lower bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce
from itertools import combinations_with_replacement, permutations
from typing import NamedTuple

import numpy as np

from .kernel import remainder_majorant, round_up, substituted_coeff
from .lattice import BallEnumeration, enumerate_ball, max_norm_sq_inside
from .tail import ParameterError, check_even_t, check_parameters


class Interval(NamedTuple):
    lower: float
    upper: float


@dataclass(eq=False)
class SumConfig:
    """Immutable bundle (d, n, rho, ball) shared by every cutoff sum; build it
    with create, which checks the preconditions before sizing the ball.  The
    sums outside the search go shell by shell, through shell_sum."""

    d: int
    n: float
    rho: object
    ball: BallEnumeration
    _moments: dict = field(default_factory=dict, init=False, repr=False)

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

    @cached_property
    def shells(self) -> tuple:
        """(order, starts, m): the stable argsort of the ball's |h|^2, the
        sorted row where each shell begins and each shell's |h|^2, ascending."""
        order = np.argsort(self.ball.norm_sq, kind="stable")
        norm_sq = self.ball.norm_sq[order]
        starts = np.flatnonzero(np.diff(norm_sq, prepend=0))
        return order, starts, norm_sq[starts]

    def shell_sum(self, values, p: float) -> float:
        """sum_h values[h] |h|^(2p), values integers on the rows in `shells` order
        (or a scalar) whose shell totals fit their dtype (shell_round)."""
        _, starts, _ = self.shells
        return self.shell_round(
            np.add.reduceat(np.broadcast_to(values, len(self.ball)), starts), p)

    def shell_round(self, totals, p: float) -> float:
        """sum_m c(m) m^p for exact integer shell totals c(m), in `shells`
        order: the exact sum_m c(m) fl(m^p), an int over a power of 2, rounded
        once by int true division."""
        _, _, m = self.shells
        ratios = [w.as_integer_ratio() for w in (m.astype(float) ** p).tolist()]
        den = max(q for _, q in ratios)
        return sum(int(c) * a * (den // q) for c, (a, q) in zip(totals, ratios)) / den

    def moment_totals(self, alpha: tuple) -> np.ndarray:
        """The shell totals sum_{|h|^2 = m} h^alpha, exact, for a multi-index
        alpha sorted descending; built once per config.  The ball is invariant
        under permutations, so every permutation of alpha has these totals.
        int64 while (largest shell) (max |h|^2)^(|alpha|/2) < 2^63, else ints."""
        totals = self._moments.get(alpha)
        if totals is None:
            order, starts, _ = self.shells
            most = int(np.diff(starts, append=len(order)).max())
            big = most * self._max_norm_sq ** (sum(alpha) // 2) >= 2**63
            coords = self.ball.points[order].T
            coords = coords.astype(object) if big else coords
            mono = reduce(np.multiply, (x**e for x, e in zip(coords, alpha) if e), 1)
            totals = np.add.reduceat(np.broadcast_to(mono, len(self.ball)), starts)
            self._moments[alpha] = totals
        return totals


def _as_k(k, d: int) -> np.ndarray:
    try:
        kt = np.asarray(k, dtype=np.int64)
    except OverflowError:
        raise ValueError(f"k needs -2^63 <= k_i < 2^63 (int64), got {k}") from None
    if kt.shape != (d,):
        raise ValueError(f"k must be an integer {d}-vector, got {k}")
    if not kt.any():
        raise ValueError("k must be nonzero")
    return kt


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


def _power_table(cfg: SumConfig, k2_max: int) -> np.ndarray:
    """_fold of every m = |k-h|^2 that a k with |k|^2 <= k2_max meets.

    It has (|k| + |h|)^2 + 3 entries at most.  The search reaches it only
    after enumerate_canonical has accepted its radius R, so
    comb(isqrt(k2_max) + d, d) <= CANONICAL_BUDGET = 2^19; that keeps
    isqrt(k2_max) <= 1022 at d = 2 and smaller for d >= 3, so |k| < 1023.
    With |h| < rho <= R / 2 < 512, the table holds under 1535^2 + 3, about
    2.36M entries (19 MB), for every admissible input."""
    h2_max = cfg._max_norm_sq
    size = k2_max + h2_max + 2 * math.isqrt(k2_max * h2_max) + 3
    return _fold(cfg, np.arange(size, dtype=float))


def _folded_terms(cfg: SumConfig, k: np.ndarray) -> np.ndarray:
    """The folded K_m terms at one integer k over the N ball points h,

        [1 + (|k-h| >= rho)] * |h^k|^2 / (|h|^(2n+2) |k-h|^(2n+2)),

    with 0 at h = k; they sum, times |k|^(2n), to K_m(k).  h.k is a float64
    matmul, exact while |k|^2 max|h|^2 < 2^53; a larger k is refused.
    """
    kf = k.astype(float)
    k2 = float(kf @ kf)
    if k2 * cfg._max_norm_sq >= 2.0**53:
        raise ParameterError(
            f"|k|^2 = {k2:.17g} too large: float64 h.k is exact only "
            f"while |k|^2 max|h|^2 < 2^53"
        )
    dot = cfg.ball.points @ kf
    m = k2 + cfg._h2f - 2.0 * dot  # |k-h|^2, an exact integer
    terms = (k2 * cfg._h2f - dot * dot) * cfg._inv_pow_np1  # |h^k|^2 is exact
    terms *= _fold(cfg, m)
    return terms


def stabilizer_classes(ks: np.ndarray) -> np.ndarray:
    """The stabilizer class of each canonical k (a row of ks) as an int:
    bit i < d - 1 is set when k_i = k_(i+1), bit d - 1 when the last
    coordinate is 0.  The class fixes S_k, the signed permutations that fix
    k: those that permute each block of equal coordinates, and flip signs
    too in the block of zeros, the last one."""
    d = ks.shape[1]
    tied = (ks[:, :-1] == ks[:, 1:]) @ (1 << np.arange(d - 1))
    return tied + ((ks[:, -1] == 0) << (d - 1))


def _orbit_rows(half: np.ndarray, kind: int) -> tuple:
    """(index, weight): one point h_P of each orbit P of <S_k, -I> on the
    ball, for k of stabilizer class `kind`, as a column of `half`, the half
    ball H as a (d, N/2) array, and the integer c_P = |P| / 2, in H's order.

    h_P is the lex larger of the S_k-canonical points of S_k h and S_k (-h)
    (each block sorted descending, the zero block nonnegative); it lies in H,
    as it leads with the largest |h_i| of the first block where h is not 0.
    As -I is in the group, P is a union of pairs h, -h, so c_P counts its
    points in H, and the weights sum to N/2.  |S_k h| is the product
    over blocks of b! / prod(m_v!), m_v the multiplicities of the block's
    values, times 2^(nonzero entries) in the zero block; |P| is twice that
    unless -h lies in S_k h."""
    d = half.shape[0]
    tied = [kind >> i & 1 for i in range(d - 1)]
    zero = kind >> (d - 1) & 1
    starts = [0] + [i + 1 for i in range(d - 1) if not tied[i]]
    blocks = list(zip(starts, starts[1:] + [d]))
    canonical = half[d - 1] >= 0 if zero else np.ones(half.shape[1], dtype=bool)
    for i in range(d - 1):
        if tied[i]:
            canonical &= half[i] >= half[i + 1]
    index = np.flatnonzero(canonical)
    h = np.take(half, index, axis=1)
    flip = h.copy()  # the S_k-canonical point of S_k (-h)
    for a, b in blocks[:len(blocks) - zero]:
        flip[a:b] = -h[a:b][::-1]
    greater = np.zeros(index.size, dtype=bool)
    same = np.ones(index.size, dtype=bool)
    for i in range(d):
        greater |= same & (h[i] > flip[i])
        same &= h[i] == flip[i]
    size = np.ones(index.size, dtype=np.int64)
    for a, b in blocks:
        run = 1
        for i in range(a + 1, b):
            run = np.where(h[i] == h[i - 1], run + 1, 1)
            size = size * (i - a + 1) // run  # the prefix's multinomial, exact
    if zero:
        size <<= np.count_nonzero(h[blocks[-1][0]:], axis=0)
    keep = greater | same
    index, weight = index[keep], np.where(same, size // 2, size)[keep]
    # the smallest unsigned types that hold them, as the search keeps every class's
    return (index.astype(np.min_scalar_type(half.shape[1])),
            weight.astype(np.min_scalar_type(weight.max())))


class _PairedTerms:
    """The search's screen, one stabilizer class at a time: for a block of B
    canonical k's of the loaded class, the sums of the B rows of

        c_P 4 |h^k|^2 |h|^-(2n+2) * (f(|k-h|^2) + f(|k+h|^2)),   f = _fold,

    over the M orbit points h_P of _orbit_rows.  h and -h share |h|^2 and
    |h^k|^2, and every point of P has h_P's or -h_P's invariants, exact
    integers, so the paired term of each of P's c_P points in the half ball
    H is h_P's bit for bit, and row i sums, times |k_i|^(2n) / 4, to
    K_m(k_i) up to what certify._screen bounds.  In the trivial class P =
    {h, -h} and c_P = 1: the row is the half ball's, in H's order.

    The search's |k| < 1023 and |h| < 512 (_power_table), so -2 h.k,
    4 |k|^2 |h|^2 and (2 h.k)^2 are exact float64 integers, and each index
    |k -+ h|^2 <= (|k| + |h|)^2 is cast straight into the index buffer and
    lies in the table by _power_table's size: np.take's mode="clip" never
    clamps, and unlike mode="raise" it writes to `out` without buffering.
    c_P 4 |h^k|^2 is an exact integer too, below 2^41: with c = isqrt(max
    |k|^2), |k| < c + 1 and |h| < rho <= (c + 1) / 2 give 4 |h|^2 |k|^2 <
    (c + 1)^4, and c_P <= min(|S_k|, N/2), |S_k| <= 2^(d-1) (d-1)!, where
    CANONICAL_BUDGET bounds c and POINT_BUDGET bounds N.

    Each class's orbits are built once per instance.  load gathers a class's
    float columns into one array the workers share; each worker passes its
    own buffer (buffer) to every call.  In the trivial class (kind 0) the
    product by c_P = 1 is skipped: it is exact, so no bit moves.
    """

    def __init__(self, cfg: SumConfig, table: np.ndarray, kinds):
        half = len(cfg.ball) // 2
        self.table = table
        points = np.ascontiguousarray(cfg.ball.points[half:].T, dtype=np.int16)
        self._points = points  # |h_i| < 4473 by POINT_BUDGET
        self._h2 = cfg._h2f[half:]
        self._w = cfg._inv_pow_np1[half:]
        self._orbits = {kind: _orbit_rows(points, kind) for kind in kinds}
        self.terms = {kind: index.size for kind, (index, _) in self._orbits.items()}
        self._flat = np.empty((cfg.d + 3) * max(self.terms.values(), default=0))

    @staticmethod
    def buffer(size: int) -> tuple:
        """One worker's buffers for blocks of at most `size` terms."""
        return (*(np.empty(size) for _ in range(3)), np.empty(size, dtype=np.intp))

    def load(self, kind: int) -> None:
        """Gather the columns -2 h_P, |h_P|^2, |h_P|^-(2n+2) and c_P of class
        `kind`, its terms[kind] orbits, for the calls that follow."""
        index, weight = self._orbits[kind]
        index = index.astype(np.intp)
        d = self._points.shape[0]
        cols = self._flat[:(d + 3) * index.size].reshape(d + 3, index.size)
        np.multiply(np.take(self._points, index, axis=1), -2.0, out=cols[:d])
        np.take(self._h2, index, out=cols[d])
        np.take(self._w, index, out=cols[d + 1])
        cols[d + 2] = weight
        self._cols = cols[:d], cols[d], cols[d + 1], None if kind == 0 else cols[d + 2]

    def __call__(self, ks: np.ndarray, buffer) -> np.ndarray:
        points_t, h2, w, weight = self._cols
        size = ks.shape[0] * h2.size
        dot, acc, f, m = (x[:size].reshape(ks.shape[0], -1) for x in buffer)
        kf = ks.astype(float)
        k2 = np.einsum("ij,ij->i", kf, kf)[:, None]
        np.matmul(kf, points_t, out=dot)  # -2 h.k
        np.add(k2, h2, out=acc)
        np.add(acc, dot, out=m, casting="unsafe")  # |k-h|^2
        np.take(self.table, m, out=f, mode="clip")
        np.subtract(acc, dot, out=m, casting="unsafe")  # |k+h|^2
        np.take(self.table, m, out=acc, mode="clip")
        f += acc
        dot *= dot
        np.multiply(4.0 * k2, h2, out=acc)
        acc -= dot  # 4 |h^k|^2
        if weight is not None:
            acc *= weight
        acc *= w
        acc *= f
        return acc.sum(axis=1)


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
    with the correctly rounded sum, math.fsum, the total -- is bitwise
    invariant under signed permutations of k.
    """
    kt = _as_k(k, cfg.d)
    # |k|^2 as a Python int: in int64 it wraps once it reaches 2^63
    scale = _k_scale(sum(c * c for c in kt.tolist()), cfg.n)
    return scale * math.fsum(_folded_terms(cfg, kt).tolist())


def Z_n(cfg: SumConfig) -> float:
    """Limit value of K_m at infinity: 2 (1 - 1/d) sum_{|h|<rho} |h|^(-2n)."""
    return 2.0 * (1.0 - 1.0 / cfg.d) * cfg.shell_sum(1, -cfg.n)


@dataclass(eq=False)
class SpherePolynomial:
    """Even polynomial on the unit sphere, expanded over monomials in u.

    terms maps exponent tuples (all even) to float coefficients; the polynomial
    is invariant under signed permutations of u because the summation ball is.
    """

    ell: int
    d: int
    terms: dict


def build_Q(cfg: SumConfig, ell: int) -> SpherePolynomial:
    """Direction coefficient of |k|^(-ell) in the large-|k| sandwich:

        u -> 2 sum_{|h|<rho} Ehat_nl(u . h/|h|) / |h|^(2n-ell),

    expanded over monomials of u: u^alpha (|alpha| = j, all even) takes
    a_j (j; alpha) 2 sum_h h^alpha |h|^(ell-2n-j), Ehat_nl = sum_j a_j c^j.
    Every permutation of alpha has the same integer shell totals
    (SumConfig.moment_totals), so the same moment bit for bit: each is
    rounded once per sorted alpha and copied to the other permutations."""
    if ell < 2 or ell % 2 != 0:
        raise ValueError(f"requires even ell >= 2, got {ell}")
    ehat = substituted_coeff(cfg.n, ell, cfg.d)
    terms: dict = {}
    for j, a in enumerate(ehat):
        if a == 0:
            continue
        p = (ell - 2.0 * cfg.n - j) / 2.0
        moments: dict = {}
        for half in combinations_with_replacement(range(cfg.d), j // 2):
            m = tuple(2 * half.count(i) for i in range(cfg.d))
            alpha = tuple(sorted(m, reverse=True))
            if alpha not in moments:
                moments[alpha] = 2.0 * cfg.shell_round(cfg.moment_totals(alpha), p)
            multinomial = math.factorial(j) // math.prod(map(math.factorial, m))
            terms[m] = terms.get(m, 0.0) + a * multinomial * moments[alpha]
    return SpherePolynomial(ell=ell, d=cfg.d, terms=terms)


def _s_poly(q: SpherePolynomial, pick) -> dict:
    """Q over s_i = u_i^2 as {s-monomial: coefficient}, each permutation orbit
    taking `pick` (max or min) of its members' coefficients, absent ones 0."""
    given = {}
    for expo, coeff in q.terms.items():
        if any(e % 2 for e in expo):
            raise ValueError(f"sphere polynomial has an odd monomial {expo}")
        given[tuple(e // 2 for e in expo)] = float(coeff)
    out = {}
    for key in {tuple(sorted(a)) for a in given}:
        orbit = set(permutations(key))
        out.update(dict.fromkeys(orbit, pick(given.get(m, 0.0) for m in orbit)))
    return out


def _family_poly(poly: dict, a: int, b: int) -> list:
    """Exact coefficients, lowest degree first, of x -> Q(s(x)), s(x) having
    a entries x/a, then b entries (1-x)/b, then zeros."""
    out = [Fraction(0)] * (1 + max(map(sum, poly), default=0))
    for m, c in poly.items():
        if c and not any(m[a + b:]):
            p, q = sum(m[:a]), sum(m[a:])
            for j in range(q + 1):  # (1-x)^q
                out[p + j] += Fraction(c) * (-1) ** j * math.comb(q, j) / (a**p * b**q)
    return out


def _peval(p, x):
    return reduce(lambda acc, c: acc * x + c, reversed(p), 0)  # Horner


def _scaled_at(p, a: int, k: int) -> int:
    """2^(k deg p) p(a / 2^k), for integer coefficients p; same sign as p."""
    return _peval([c << k * (len(p) - 1 - i) for i, c in enumerate(p)], a)


def _root_brackets(p) -> list:
    """Disjoint brackets (lo, hi), at most 2^-64 wide, in order, holding every
    root of p in [0, 1]: those of p', and between them, where p is monotone,
    one where p changes sign or vanishes at an end, halved by bisection with
    signs taken in integers at the dyadic ends a / 2^k."""
    if len(p) < 2:
        return []
    inner = _root_brackets([i * c for i, c in enumerate(p)][1:])
    scale = math.lcm(*(Fraction(c).denominator for c in p))
    ip = [int(c * scale) for c in p]
    out, edges = list(inner), [0, *(x for lh in inner for x in lh), 1]
    for lo, hi in zip(edges[::2], edges[1::2]):
        k = max(Fraction(lo).denominator, Fraction(hi).denominator).bit_length() - 1
        a, b = int(lo * 2**k), int(hi * 2**k)
        fa = _scaled_at(ip, a, k)
        if fa * _scaled_at(ip, b, k) <= 0:
            while (b - a) << 64 > 1 << k:
                a, b, mid, k = 2 * a, 2 * b, a + b, k + 1
                fmid = _scaled_at(ip, mid, k)
                a, b, fa = (a, mid, fa) if fa * fmid <= 0 else (mid, b, fmid)
            out.append((Fraction(a, 2**k), Fraction(b, 2**k)))
    return sorted(out)


def _candidates(poly: dict, d: int) -> list:
    """(lower, upper, s) of Q at the face centres (b = 0) and at the ends and
    critical-point brackets of the two-value families: p(lo) -/+ (hi - lo)
    sum |p'_k| encloses p on [lo, hi], as |p'| <= sum |p'_k| on [0, 1]."""
    out = []
    for a in range(1, d + 1):
        for b in range(min(a, d - a) + 1):
            p = _family_poly(poly, a, b)
            dp = [i * c for i, c in enumerate(p)][1:]
            for lo, hi in [(1, 1)] + ([(0, 0)] + _root_brackets(dp) if b else []):
                value, spread = _peval(p, lo), (hi - lo) * sum(map(abs, dp))
                s = [Fraction(lo, a)] * a + [Fraction(1 - lo, b or 1)] * b
                out.append((value - spread, value + spread, s + [0] * (d - a - b)))
    return out


def check_two_value_degree(d: int, ell: int, degree: int) -> None:
    """At d >= 3, extremize_Q needs degree <= 5 in s = u^2; Q_l has (l + 2) / 2."""
    if d >= 3 and degree >= 6:
        raise ParameterError(
            f"requires t <= 10 when d >= 3: the sphere polynomial at l = {ell} has "
            f"degree {2 * degree} > 10, so its extrema need not be two-value points"
        )


def extremize_Q(q: SpherePolynomial):
    """Outward enclosures (q_min, q_max) of the min and max of the sphere
    polynomial, and the canonical (sorted descending, nonnegative) unit
    vector at the candidate that gives q_max.

    With s_i = u_i^2 on the simplex S = {s >= 0, p_1 = 1}, p_k = sum_i s_i^k,
    the polynomial is Q(s) of degree D.  Q+ (Q-) gives each permutation orbit
    of s-monomials its largest (smallest) coefficient: Q- <= Q <= Q+ on S, as
    every s^m >= 0 there, and both are symmetric (build_Q's Q is already).
    A symmetric P of degree D has its extrema over S at points with at most
    two distinct nonzero coordinates if d = 2 (every point is one), or if
      * D <= 3: P = alpha + beta p_2 + gamma p_3 on S.  An extremum is one on
        the relative interior of its support's face, so by Lagrange each
        nonzero s_i solves 2 beta s_i + 3 gamma s_i^2 = lambda.
      * D = 4, 5, by the half-degree principle on the orthant (Timofte,
        J. Math. Anal. Appl. 284, 2003; Riener, J. Pure Appl. Algebra 216,
        2012): a symmetric polynomial F of degree D in d variables is >= 0 on
        R^d_+ if and only if it is >= 0 at every point of R^d_+ with at most
        max(floor(D/2), 1) distinct nonzero coordinates.  With lambda the max
        of P = sum_m c_m s^m over two-value points of S, the form F = lambda
        p_1^D - sum_m c_m s^m p_1^(D-|m|) is p_1(s)^D (lambda - P(s/p_1(s)))
        >= 0 at each two-value s != 0, so F >= 0 on R^d_+ and P <= lambda on
        S.  The min is the max of -P.
    At d >= 3 and D >= 6 (t >= 12) three values may be needed: ParameterError.
    Up to permutation the two-value points are the face centres and the
    families of _family_poly, where Q+ and Q- are polynomials in x with exact
    rational coefficients (floats are rationals), extreme at the ends or in
    brackets of the roots of the derivative (_root_brackets).  _candidates
    bounds them exactly; the extreme bounds are then rounded one ulp outward.
    """
    plus, minus = _s_poly(q, max), _s_poly(q, min)
    check_two_value_degree(q.d, q.ell, max(
        (sum(e) // 2 for e, c in q.terms.items() if c), default=0))
    top = _candidates(plus, q.d)
    lower = min(c[0] for c in (top if minus == plus else _candidates(minus, q.d)))
    _, upper, point = max(top, key=lambda c: c[1])
    u = sorted((math.sqrt(s) for s in point), reverse=True)
    return (math.nextafter(float(lower), -math.inf),
            math.nextafter(float(upper), math.inf), tuple(u))


def remainder_term(cfg: SumConfig, t: int, radius: float) -> float:
    """An upper bound, for every |k| >= R = radius > rho, on the order-t
    remainder of K_m's upper model (certify.far_bound):

        R^(-t) 2 sum_m r(m) m^((t-2n)/2) B_t(sqrt(m) / R),

    r(m) the ball's points with |h|^2 = m and B_t kernel.remainder_majorant,
    taken at sqrt(m) / R rounded up twice (two roundings) and with x_max
    = rho / R rounded up to a multiple of 2^-16.  m^((t-2n)/2) is the float
    power shell_sum uses.  The terms are >= 0, so past those inputs the
    products (2 roundings), the sum over the S shells (S - 1, in any order),
    R^t by t - 1 products and the division (1) are covered by round_up."""
    check_even_t(t)
    if not radius > cfg.rho:
        raise ValueError(f"requires radius > rho = {cfg.rho}, got {radius}")
    _, starts, m = cfg.shells
    counts = np.diff(starts, append=len(cfg.ball))
    m = m.astype(float)
    x = round_up(np.sqrt(m) / radius, 2)
    x_max = Fraction(math.ceil(Fraction(cfg.rho) / Fraction(radius) * 2**16), 2**16)
    terms = counts * m ** (t / 2.0 - cfg.n) * remainder_majorant(cfg.n, t, x, x_max)
    power = math.prod([float(radius)] * t)
    return float(round_up(2.0 * float(terms.sum()) / power, len(m) + t + 1))


def vV_nt(cfg: SumConfig, t: int, extrema) -> tuple[float, float]:
    """Endpoint coefficients of the |k|^(-t) remainder term in the sandwich:
    (2 mu S, 2 M S) with S = sum_{|h|<rho} |h|^(t-2n)."""
    check_even_t(t)
    s = cfg.shell_sum(1, t / 2.0 - cfg.n)
    return 2.0 * extrema.mu * s, 2.0 * extrema.M * s
