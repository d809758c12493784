"""Test-only oracles, written from the definitions and kept independent of the
implementation: nothing here imports ``advbounds``.
"""

import functools
import math
from collections import Counter
from fractions import Fraction
from itertools import permutations, product

import mpmath
import numpy as np


def km_exact(k, d, n, rho):
    """Exact-rational recomputation of the cutoff sum from its definition.

    Same conventions as the library: h runs over the open ball |h| < rho,
    the term at h is doubled when |k - h| >= rho.
    """
    m = math.ceil(Fraction(rho) ** 2) - 1  # largest integer |h|^2 < rho^2
    k2 = sum(c * c for c in k)
    c = math.isqrt(m)
    total = Fraction(0)
    for h in product(range(-c, c + 1), repeat=d):
        h2 = sum(x * x for x in h)
        if h2 == 0 or h2 > m:
            continue
        km2 = sum((a - b) ** 2 for a, b in zip(k, h))
        if km2 == 0:
            continue
        dot = sum(a * b for a, b in zip(h, k))
        weight = 2 if km2 > m else 1
        total += Fraction(
            weight * (h2 * k2 - dot * dot), h2 ** (n + 1) * km2 ** (n + 1)
        )
    return Fraction(k2) ** n * total


@functools.lru_cache(maxsize=1)
def ball(d, radius):
    """Every nonzero h in Z^d with |h| < radius, as read-only int16 rows in lex
    order, and their |h|^2 as int32.  The rows are counted first and filled in
    place, so the ball is built once, at 2 bytes an entry.  The last ball is
    kept, since callers probe many k against one truncation radius."""
    m = math.ceil(Fraction(radius) ** 2) - 1  # largest integer |h|^2 < radius^2
    c = math.isqrt(m)
    if c > np.iinfo(np.int16).max:
        raise ValueError(f"radius {radius} too large for int16 rows")
    axis = np.arange(-c, c + 1, dtype=np.int64)
    rest = np.stack(np.meshgrid(*[axis] * (d - 1), indexing="ij"), axis=-1)
    rest = rest.reshape(-1, d - 1)
    rest2 = np.einsum("ij,ij->i", rest, rest)
    size = sum(int(np.count_nonzero(rest2 <= m - x * x)) for x in axis.tolist())
    pts = np.empty((size - 1, d), dtype=np.int16)  # all but h = 0
    norms = np.empty(len(pts), dtype=np.int32)
    row = 0
    for x in axis.tolist():
        keep = rest2 <= m - x * x
        if x == 0:
            keep &= rest2 != 0
        end = row + int(np.count_nonzero(keep))
        pts[row:end, 0] = x
        pts[row:end, 1:] = rest[keep]
        norms[row:end] = rest2[keep] + x * x
        row = end
    pts.setflags(write=False)
    norms.setflags(write=False)
    return pts, norms


def tail_sum(d, nu, rho):
    """The closed-form bound on sum_{|h| >= rho} |h|^(-nu) (nu > d,
    rho > 2 sqrt(d)), from shell counting:

        (2 pi^(d/2) / Gamma(d/2)) * sum_{i=0}^{d-1}
            C(d-1, i) d^((d-1-i)/2) / ((nu-1-i) (rho - 2 sqrt(d))^(nu-1-i)),

    with Gamma(d/2) = (d/2 - 1)! for even d and (2m)! sqrt(pi) / (4^m m!)
    for odd d = 2m + 1.
    """
    if d % 2 == 0:
        gamma = float(math.factorial(d // 2 - 1))
    else:
        m = (d - 1) // 2
        gamma = math.factorial(2 * m) * math.sqrt(math.pi) / (4**m * math.factorial(m))
    base = rho - 2.0 * math.sqrt(d)
    terms = [
        math.comb(d - 1, i) * d ** ((d - 1 - i) / 2.0)
        / ((nu - 1.0 - i) * base ** (nu - 1.0 - i))
        for i in range(d)
    ]
    return 2.0 * math.pi ** (d / 2.0) / gamma * math.fsum(terms)


# The shell sums outside the search: Z_n, the S of vV_nt and build_Q's moments.


def power_fsum(d, rho, p):
    """math.fsum over |h| < rho of the per-point powers |h|^(2p), each one
    numpy's float64 power of the exact |h|^2."""
    _, norms = ball(d, rho)
    return math.fsum((norms.astype(float) ** p).tolist())


def sphere_coeffs_exact(d, n, rho, ell, ehat):
    """Exact coefficients, {alpha: Fraction}, of the sphere polynomial

        u -> 2 sum_{|h|<rho} Ehat(u . h/|h|) |h|^(ell-2n),

    for an integer n, with Ehat(c) = sum_j ehat[j] c^j at the exact values of
    the given floats.  (u . h)^j = sum_alpha (j; alpha) u^alpha h^alpha, and
    the ball's sign flips cancel every odd alpha, so each even alpha with
    |alpha| = j takes 2 ehat[j] (j; alpha) sum_h h^alpha |h|^(ell-2n-j), a
    rational since p = (ell - 2n - j) / 2 is an integer.  Each h^alpha is a
    Python int, and each shell's |h|^(2p) is an int over lcm(|h|^2)^(-p) when
    p < 0."""
    pts, norms = ball(d, rho)
    cols = pts.T.astype(object)
    ms = norms.tolist()
    lcm = math.lcm(*set(ms))
    out = {}
    for j, a in enumerate(ehat):
        if a == 0:
            continue
        p = (ell - 2 * n - j) // 2
        den = lcm ** max(-p, 0)
        weight = {m: m**p * den if p >= 0 else den // m**-p for m in set(ms)}
        for alpha in product(range(0, j + 1, 2), repeat=d):
            if sum(alpha) != j:
                continue
            shell = dict.fromkeys(weight, 0)
            mono = np.ones(len(ms), dtype=object)
            for col, e in zip(cols, alpha):
                mono = mono * col**e
            for m, v in zip(ms, mono.tolist()):
                shell[m] += v
            total = sum(weight[m] * v for m, v in shell.items())
            multinomial = math.factorial(j)
            for e in alpha:
                multinomial //= math.factorial(e)
            out[alpha] = 2 * Fraction(a) * multinomial * Fraction(total, den)
    return out


def kk_direct(k, d, n, rho, truncation_radius):
    """Interval (S, S + T) for the full, untruncated convolution sum at k,

        |k|^(2n) sum_{h != 0, k} |h^k|^2 / (|h|^(2n+2) |k-h|^(2n+2)).

    S is the exact sum over |h| < truncation_radius, rounded once, and T
    bounds the discarded tail using |h^k|^2 <= |h|^2 |k|^2 and |k-h| >=
    |h|/2, which holds since the truncation radius exceeds 2 |k|.  A term
    depends on h only through (|h|^2, h.k), so the points are grouped by that
    pair (one np.bincount) and each distinct term is computed once, with the
    float operations a per-point sum would use.  Each term is split
    Veltkamp-style into two halves of at most 26 significant bits, so each
    count (< 2^27) times a half is exact, and one math.fsum rounds the exact
    sum.  Requires truncation_radius > 2 (|k| + rho), so that the tail lies
    past both cutoff regions, and truncation_radius^2 |k|^2 < 2^31, so that
    the lattice invariants, of which |h|^2 |k|^2 is the largest, are exact in
    int32.
    """
    n = float(n)
    k = np.asarray(k, dtype=np.int64)
    k2 = int(k @ k)
    need = 2.0 * (math.sqrt(k2) + float(rho))
    if not float(truncation_radius) > need:
        raise ValueError(
            f"requires truncation_radius > 2*(|k|+rho) = {need:.6f}, "
            f"got {truncation_radius}"
        )
    if float(truncation_radius) ** 2 * k2 >= 2.0**31:
        raise ValueError("requires truncation_radius^2 |k|^2 < 2^31")
    pts, norms = ball(d, truncation_radius)
    span = math.isqrt(int(norms.max()) * k2) + 1  # |h.k| < span
    width = 2 * span + 1
    key = norms.astype(np.int64)
    key *= width
    key += span
    part = np.empty_like(key)
    for col, kc in zip(pts.T, k.tolist()):  # key += h.k, one int64 column at a time
        key += np.multiply(col, kc, out=part, dtype=np.int64)
    counts = np.bincount(key)
    at = np.flatnonzero(counts)
    h2, dot = np.divmod(at, width)
    dot -= span
    km2 = k2 - 2 * dot + h2
    wedge = h2 * k2 - dot * dot
    live = km2 != 0
    terms = wedge[live] * (h2[live].astype(float) ** (-(n + 1.0)))
    terms = terms * (km2[live].astype(float) ** (-(n + 1.0)))
    count = counts[at][live].astype(float)
    assert count.max() < 2.0**27
    split = terms * (2.0**27 + 1.0)
    hi = split - (split - terms)
    lo = terms - hi
    assert np.array_equal(hi + lo, terms)
    s_val = float(k2) ** n * math.fsum((count * hi).tolist() + (count * lo).tolist())
    tail = tail_sum(d, 4.0 * n + 2.0, float(truncation_radius))
    t_val = float(k2) ** (n + 1.0) * 2.0 ** (2.0 * n + 2.0) * tail
    return s_val, s_val + t_val


# The kernel (1-c^2)/(1-2*c*xi+xi^2)^(n+1) and its wedge-power bound.


class KernelDomainError(ValueError):
    """Raised where 1 - 2*c*xi + xi^2 <= 0 and the kernel is undefined."""


def eval_E(n, c, xi):
    """(1-c^2) / (1-2*c*xi+xi^2)^(n+1); errors where the denominator base <= 0."""
    c = float(c)
    xi = float(xi)
    den = 1.0 - 2.0 * c * xi + xi * xi
    if den <= 0.0:
        raise KernelDomainError(
            f"kernel undefined at c={c}, xi={xi}: 1-2*c*xi+xi^2 = {den} <= 0"
        )
    return (1.0 - c * c) * den ** (-(float(n) + 1.0))


@functools.lru_cache(maxsize=None)
def taylor_exact(n, ell):
    """Exact coefficients of E_nl(c), the xi**l coefficient of the kernel, for
    a rational n; entry j multiplies c**j.  E_nl = (1 - c^2) C_l with

        C_0 = 1,  C_1 = 2(n+1)c,  l C_l = 2c(l+n) C_{l-1} - (l+2n) C_{l-2},

    the recurrence of the generating function (1-2*c*xi+xi^2)^(-(n+1)), run
    in Fractions."""
    n = Fraction(n)
    prev2, prev1 = [Fraction(1)], [Fraction(0), 2 * (n + 1)]
    cl = prev1 if ell == 1 else prev2
    for l in range(2, ell + 1):
        a = [Fraction(0)] + [2 * (l + n) * x for x in prev1]
        b = [(l + 2 * n) * x for x in prev2] + [Fraction(0)] * 2
        cl = [(x - y) / l for x, y in zip(a, b)]
        prev2, prev1 = prev1, cl
    e = cl + [Fraction(0)] * 2
    for j, x in enumerate(cl):
        e[j + 2] -= x
    return tuple(e)


def gegenbauer_coefficients_mp(n, ell_max, c):
    """[E_nl(c) for l = 0 .. ell_max] at one c, in mpmath at the working
    precision, from C_l^(n+1)'s three-term recurrence (taylor_exact's)."""
    n, c = mpmath.mpf(n), mpmath.mpf(c)
    prev2, prev1 = mpmath.mpf(1), 2 * (n + 1) * c
    out = [prev2, prev1]
    for l in range(2, ell_max + 1):
        prev2, prev1 = prev1, (2 * c * (l + n) * prev1 - (l + 2 * n) * prev2) / l
        out.append(prev1)
    return [(1 - c * c) * x for x in out[:ell_max + 1]]


def gegenbauer_maxima_mp(n, ell_max, samples=400, dps=40):
    """max over c = cos(pi j / samples), j = 0 .. samples, of E_nl(c), for
    l = 0 .. ell_max, at dps digits: a dense lower estimate of max_c E_nl
    (uniform in the angle, so dense near c = +-1, where E_nl peaks for large
    n)."""
    with mpmath.workdps(dps):
        best = [-mpmath.inf] * (ell_max + 1)
        for j in range(samples + 1):
            c = mpmath.cos(mpmath.pi * j / samples)
            for ell, e in enumerate(gegenbauer_coefficients_mp(n, ell_max, c)):
                best[ell] = max(best[ell], e)
        return [float(x) for x in best]


def even_remainder_mp(n, t, c, xi, dps=60):
    """(R_nt(c, xi) + R_nt(-c, xi)) / 2 from the closed-form kernel
    (1 - c^2)(1 - 2 c xi + xi^2)^(-(n+1)) minus its Taylor head, at dps
    digits: R_nt = xi^(-t) (E_n(c, xi) - sum_{l<t} E_nl(c) xi^l)."""
    with mpmath.workdps(dps):
        n, xi = mpmath.mpf(n), mpmath.mpf(xi)
        total = mpmath.mpf(0)
        for cc in (mpmath.mpf(c), -mpmath.mpf(c)):
            e = (1 - cc * cc) * (1 - 2 * cc * xi + xi * xi) ** (-(n + 1))
            head = sum(x * xi**ell for ell, x in
                       enumerate(gegenbauer_coefficients_mp(n, t - 1, cc)))
            total += (e - head) / xi**t
        return float(total / 2)


def wedge_power_ratio(n, c, u):
    """(1-c^2)(1+2*c*u+u^2)^n / (1+u^(2n)): the wedge-power inequality's ratio
    written in terms of c = cos(angle(p,q)) and u = |p|/|q|."""
    c = float(c)
    u = float(u)
    n = float(n)
    return (1.0 - c * c) * (1.0 + 2.0 * c * u + u * u) ** n / (1.0 + u ** (2.0 * n))


# Lattice geometry: wedge norms, signed-permutation orbits, shells.


def wedge_norm_sq(p, q):
    """|p|^2 |q|^2 - (p.q)^2, clamped at 0 against rounding: the squared area
    of the parallelogram spanned by p and q."""
    pa = np.asarray(p, dtype=float)
    qa = np.asarray(q, dtype=float)
    val = pa.dot(pa) * qa.dot(qa) - pa.dot(qa) ** 2
    return float(max(val, 0.0))


def canonical_representative(k):
    """Sorted-descending absolute values of k: the orbit representative under
    coordinate sign flips and permutations.  Rejects the zero vector."""
    kt = tuple(int(x) for x in k)
    if not any(kt):
        raise ValueError("zero vector has no canonical representative")
    return tuple(sorted((abs(x) for x in kt), reverse=True))


def is_canonical(k):
    kt = tuple(int(x) for x in k)
    return all(a >= b for a, b in zip(kt, kt[1:])) and (not kt or kt[-1] >= 0)


def orbit_size(k_canonical):
    """Number of distinct signed-permutation images of a canonical vector:
    d!/(prod of multiplicities!) * 2^(number of nonzero coordinates)."""
    kt = tuple(int(x) for x in k_canonical)
    if not is_canonical(kt) or not any(kt):
        raise ValueError(f"{kt} is not a nonzero canonical representative")
    perms = math.factorial(len(kt))
    for mult in Counter(kt).values():
        perms //= math.factorial(mult)
    return perms * 2 ** sum(1 for x in kt if x != 0)


def signed_permutations(k):
    """The full orbit of k under coordinate sign flips and permutations."""
    kt = tuple(int(x) for x in k)
    orbit = set()
    for perm in permutations(kt):
        nz = [i for i, x in enumerate(perm) if x != 0]
        for signs in product((1, -1), repeat=len(nz)):
            img = list(perm)
            for i, s in zip(nz, signs):
                img[i] = s * img[i]
            orbit.add(tuple(img))
    return orbit


def stabilizer_orbits(k, points):
    """An orbit label for each row of `points`, an integer array the group
    <S_k, -I> maps to itself, S_k the signed permutations fixing k.  The
    group is generated by -I, the swaps of equal coordinates of k and the
    sign flips where k is 0; each point takes the least index its
    generators reach, until no label moves."""
    k = tuple(int(x) for x in k)
    d = len(k)
    pts = np.asarray(points, dtype=np.int64)
    top = int(np.abs(pts).max())
    place = (2 * top + 1) ** np.arange(d - 1, -1, -1)
    codes = (pts + top) @ place
    order = np.argsort(codes)
    moves = [-pts]
    for i in range(d):
        if k[i] == 0:
            moves.append(pts * np.where(np.arange(d) == i, -1, 1))
        for j in range(i + 1, d):
            if k[i] == k[j]:
                swap = list(range(d))
                swap[i], swap[j] = j, i
                moves.append(pts[:, swap])
    maps = [order[np.searchsorted(codes[order], (g + top) @ place)] for g in moves]
    label = np.arange(len(pts))
    while True:
        new = label.copy()
        for m in maps:
            np.minimum(new, new[m], out=new)
        if np.array_equal(new, label):
            return label
        label = new


def shells(norm_sq):
    """Map from each attained |h|^2 to the sorted row indices attaining it."""
    norm_sq = np.asarray(norm_sq)
    return {
        int(v): np.flatnonzero(norm_sq == v) for v in np.unique(norm_sq).tolist()
    }


def sphere_eval(terms, u):
    """A sphere polynomial sum_expo coeff * prod_i u_i^expo_i, given as its
    terms dict, at one point u (a float) or at each row of a 2-D u (an
    array); terms are added in sorted order."""
    ua = np.asarray(u, dtype=float)
    pts = np.atleast_2d(ua)
    acc = np.zeros(pts.shape[0])
    for expo, coeff in sorted(terms.items()):
        acc = acc + coeff * np.prod(pts ** np.asarray(expo), axis=1)
    return float(acc[0]) if ua.ndim == 1 else acc


# Reference loops for the fields layer.  A field is a plain dict mapping an
# integer tuple k to a complex d-vector; each loop works one mode, or one
# (h, g) pair of modes, at a time, with its dot products added left to right.


def _dot(a, b):
    total = 0.0
    for x, y in zip(a, b):
        total = total + x * y
    return total


def advect_loop(d, v, w):
    """(v . grad) w by the per-pair loop, without its zero mode and without
    modes that sum to zero:

        out_k = (i / (2 pi)^(d/2)) sum_{h + g = k} (v_h . g) w_g,

    each component reduced with math.fsum.
    """
    prefactor = 1j * (2.0 * math.pi) ** (-d / 2.0)
    buckets = {}
    for h in sorted(v):
        for g in sorted(w):
            k = tuple(a + b for a, b in zip(h, g))
            factor = prefactor * complex(_dot(v[h], [float(c) for c in g]))
            buckets.setdefault(k, []).append(factor * w[g])
    out = {}
    for k, terms in buckets.items():
        vec = np.array(
            [
                complex(
                    math.fsum(t[j].real for t in terms),
                    math.fsum(t[j].imag for t in terms),
                )
                for j in range(d)
            ]
        )
        if any(k) and np.abs(vec).max() != 0.0:
            out[k] = vec
    return out


def leray_loop(field):
    """c -> c - (k.c / |k|^2) k, one mode at a time."""
    out = {}
    for k, c in field.items():
        kv = np.asarray(k, dtype=float)
        out[k] = c - (_dot(kv, c) / _dot(kv, kv)) * kv
    return out


def is_divergence_free(coeffs, rel_tol=1e-9):
    """|k.c_k| <= rel_tol * max(1, largest |c_j|) at every mode of a
    coefficient dict {k: c_k}."""
    scale = max([1.0] + [abs(x) for c in coeffs.values() for x in c])
    return all(
        abs(_dot(np.asarray(k, dtype=float), c)) <= rel_tol * scale
        for k, c in coeffs.items()
    )


def sobolev_loop(field, n):
    """sqrt(sum_k |k|^(2n) |c_k|^2) over one flat list of terms."""
    terms = []
    for k in sorted(field):
        weight = float(sum(c * c for c in k)) ** float(n)
        for x in field[k]:
            terms.append(weight * (x.real ** 2 + x.imag ** 2))
    return math.sqrt(math.fsum(terms))


def root_brackets_fraction(p):
    """Brackets (lo, hi), at most 2^-64 wide, in order, of every root of the
    polynomial p (exact coefficients, lowest degree first) in [0, 1]: those
    of p', and between them, where p is monotone, one where p changes sign or
    vanishes at an end, halved by bisection in Fractions."""

    def peval(x):
        acc = 0
        for c in reversed(p):
            acc = acc * x + c
        return acc

    if len(p) < 2:
        return []
    inner = root_brackets_fraction([i * c for i, c in enumerate(p)][1:])
    out, edges = list(inner), [0, *(x for lh in inner for x in lh), 1]
    for lo, hi in zip(edges[::2], edges[1::2]):
        flo = peval(lo)
        if flo * peval(hi) <= 0:
            while (hi - lo) * 2**64 > 1:
                mid = Fraction(lo + hi) / 2
                fmid = peval(mid)
                lo, hi, flo = (lo, mid, flo) if flo * fmid <= 0 else (mid, hi, fmid)
            out.append((lo, hi))
    return sorted(out)
