import heapq
import math
from fractions import Fraction
from itertools import permutations, product
from types import SimpleNamespace

import numpy as np
import pytest

from numpy.polynomial import polynomial as npp

from advbounds.kernel import EnclosureWidthError, remainder_extrema, substituted_coeff
from advbounds.lattice import max_norm_sq_inside
from advbounds.sums import (
    K_m,
    _folded_terms,
    _orbit_rows,
    _PairedTerms,
    _power_table,
    _root_brackets,
    ParameterError,
    SpherePolynomial,
    SumConfig,
    Z_n,
    build_Q,
    extremize_Q,
    stabilizer_classes,
    vV_nt,
)
from advbounds.tail import delta_K
from conftest import rel_err
from oracles import (
    kk_direct,
    km_exact,
    power_fsum,
    root_brackets_fraction,
    signed_permutations,
    sphere_coeffs_exact,
    sphere_eval,
    stabilizer_orbits,
)


def km_union_oracle(k, d, n, rho):
    """Float recomputation over the unfolded domain {|h|<rho or |k-h|<rho}."""
    m = max_norm_sq_inside(rho)
    k2 = sum(c * c for c in k)
    c = math.isqrt(m) + max(abs(x) for x in k)
    terms = []
    for h in product(range(-c, c + 1), repeat=d):
        h2 = sum(x * x for x in h)
        km2 = sum((a - b) ** 2 for a, b in zip(k, h))
        if h2 == 0 or km2 == 0:
            continue
        if h2 > m and km2 > m:
            continue
        dot = sum(a * b for a, b in zip(h, k))
        terms.append((h2 * k2 - dot * dot) / (h2 ** (n + 1) * km2 ** (n + 1)))
    return float(k2) ** n * math.fsum(terms)


def test_config_validation():
    with pytest.raises(ValueError, match="d >= 2"):
        SumConfig.create(1, 2, 10.0)
    with pytest.raises(ValueError, match="n > d/2"):
        SumConfig.create(3, 1.5, 10.0)
    with pytest.raises(ValueError, match=r"rho > 2\*sqrt\(d\)"):
        SumConfig.create(3, 2, 3.4)
    # preconditions are checked before the ball is sized: rho = 1e4 would
    # exceed the point budget
    with pytest.raises(ParameterError, match="n > d/2"):
        SumConfig.create(3, 1, 1e4)
    with pytest.raises(ParameterError, match="integer d >= 2"):
        SumConfig.create(3.0, 2, 10)
    good = SumConfig.create(3, 2, 4.0)
    with pytest.raises(ValueError, match="ball does not match"):
        SumConfig(d=3, n=2.0, rho=5.0, ball=good.ball)


def test_K_m_input_validation():
    cfg = SumConfig.create(3, 2, 4.0)
    with pytest.raises(ValueError, match="nonzero"):
        K_m((0, 0, 0), cfg)
    with pytest.raises(ValueError, match="3-vector"):
        K_m((1, 0), cfg)
    with pytest.raises(ValueError, match="too large"):
        K_m((600_000_000, 0, 0), cfg)


@pytest.mark.parametrize(
    "k,n,error,message",
    [
        pytest.param((7, 0, 0), 200, ParameterError,
                     "|k|^(2n) = 49^200.0 overflows a float", id="overflowing_scale"),
        pytest.param((2**63, 0, 0), 2, ValueError,
                     "k needs -2^63 <= k_i < 2^63 (int64), got", id="k_past_int64"),
        # |k|^2 = 2^64 wraps to 0 in int64; the refusal names the exactness bound
        pytest.param((4294967296, 0, 0), 2, ParameterError,
                     "|k|^2 = 1.8446744073709552e+19 too large: "
                     "float64 h.k is exact only while |k|^2 max|h|^2 < 2^53",
                     id="k_past_exactness_bound"),
    ],
)
def test_K_m_refuses_out_of_range_k(k, n, error, message):
    """A k whose scale or dot products leave the float or int64 range is a
    one-line named precondition, not a numpy traceback or a wrong sum."""
    with pytest.raises(error) as exc:
        K_m(k, SumConfig.create(3, n, 4.0))
    assert str(exc.value).startswith(message)
    assert "\n" not in str(exc.value)


@pytest.mark.parametrize(
    "k", [(1, 0, 0), (2, 1, 0), (3, 3, 3), (5, 1, 0), (8, 0, 0), (4, 4, 2)]
)
def test_K_m_matches_exact_rational(k):
    cfg = SumConfig.create(3, 2, 4.0)
    assert rel_err(K_m(k, cfg), float(km_exact(k, 3, 2, 4.0))) < 1e-13


def test_K_m_matches_exact_rational_2d():
    cfg = SumConfig.create(2, 2, 3.0)
    for k in [(1, 0), (2, 2), (5, 3), (7, 0)]:
        assert rel_err(K_m(k, cfg), float(km_exact(k, 2, 2, 3.0))) < 1e-13


def test_K_m_equals_unfolded_union_sum():
    """The weight-2 folding reproduces the sum over the unfolded union domain."""
    cfg = SumConfig.create(3, 2, 4.0)
    for k in [(3, 2, 1), (1, 0, 0), (6, 1, 1)]:
        assert rel_err(K_m(k, cfg), km_union_oracle(k, 3, 2, 4.0)) < 1e-12
    cfg2 = SumConfig.create(2, 3, 3.0)
    assert rel_err(K_m((4, 1), cfg2), km_union_oracle((4, 1), 2, 3, 3.0)) < 1e-12


def test_K_m_reference_values():
    """Spot values of the d = 3 sums at the production cutoffs."""
    assert rel_err(K_m((9, 9, 9), SumConfig.create(3, 2, 20.0)), 22.022324749201744) < 1e-12
    cfg10 = lambda n: SumConfig.create(3, n, 10.0)
    assert rel_err(K_m((2, 1, 1), cfg10(3)), 25.30131459931683) < 1e-12
    assert rel_err(K_m((2, 1, 0), cfg10(4)), 48.0382098116695) < 1e-12
    assert rel_err(K_m((1, 1, 0), cfg10(5)), 64.45546784966525) < 1e-12
    assert rel_err(K_m((1, 1, 0), cfg10(10)), 2048.0492595995097) < 1e-12
    # (2,1,0) dominates (1,1,0) from n = 4 on; exact-rational cross-check below
    assert rel_err(K_m((2, 1, 0), cfg10(5)), 106.99081809714596) < 1e-12
    assert rel_err(K_m((2, 1, 0), cfg10(10)), 9556.568572305623) < 1e-12
    assert K_m((3, 2, 1), SumConfig.create(3, 2, 5.0)) == 20.963980443100873


@pytest.mark.parametrize("n", [5, 10])
def test_high_order_maximum_sits_at_210(n):
    """At rho = 10 the (2,1,0) value beats (1,1,0) for n >= 4, confirmed in
    exact arithmetic: the mirror modes h = (1,0,0), (1,1,0) contribute
    5^n / 2^(n+1) each, which outgrows the (1,1,0) value 2 * 2^n."""
    a = km_exact((2, 1, 0), 3, n, 10.0)
    b = km_exact((1, 1, 0), 3, n, 10.0)
    assert a > b
    cfg = SumConfig.create(3, n, 10.0)
    assert rel_err(K_m((2, 1, 0), cfg), float(a)) < 1e-13
    assert rel_err(K_m((1, 1, 0), cfg), float(b)) < 1e-13


def test_K_m_bitwise_symmetric():
    cfg = SumConfig.create(3, 2, 5.0)
    base = K_m((3, 2, 1), cfg)
    for img in signed_permutations((3, 2, 1)):
        assert K_m(img, cfg) == base


def class_representative(kind, d):
    """A canonical k of stabilizer class `kind`: bit i < d - 1 ties k_i to
    k_(i+1), bit d - 1 makes the last block 0; other blocks descend by 1."""
    k, value = [0] * d, 0 if kind >> (d - 1) & 1 else 1
    for i in range(d - 1, -1, -1):
        k[i] = value
        if i and not kind >> (i - 1) & 1:
            value += 1
    return tuple(k)


@pytest.mark.parametrize("d, rho", [(2, 3.0), (3, 3.5), (4, 4.01), (5, 4.48)])
def test_orbit_rows_weigh_every_class(d, rho):
    """At a k of each stabilizer class, _orbit_rows takes one point h_P of
    each orbit P of <S_k, -I> on the ball, from the half ball H, with the
    weight c_P = |P| / 2, so the weights sum to N/2.  The points of P have
    h_P's or -h_P's full-row term, and h_P's paired term, bit for bit; so
    the weighted orbit row sums to the half ball's row."""
    cfg = SumConfig.create(d, d / 2 + 1, rho)
    half = len(cfg.ball) // 2
    where = {h: i for i, h in enumerate(map(tuple, cfg.ball.points.tolist()))}
    minus = np.array([where[tuple(-x for x in h)] for h in where])
    points = np.ascontiguousarray(cfg.ball.points[half:].T, dtype=np.int16)
    for kind in range(2**d - 1):
        k = class_representative(kind, d)
        assert stabilizer_classes(np.array([k])).tolist() == [kind]
        index, weight = _orbit_rows(points, kind)
        assert int(weight.sum()) == half
        reps = half + index.astype(int)
        owner = stabilizer_orbits(k, cfg.ball.points)
        assert sorted(owner[reps].tolist()) == np.unique(owner).tolist()
        assert (2 * weight.astype(int) == np.bincount(owner)[owner[reps]]).all()
        rep = np.empty_like(owner)
        rep[owner[reps]] = reps
        rep = rep[owner]  # each point's orbit point h_P
        full = _folded_terms(cfg, np.array(k)).view(np.int64)
        assert ((full == full[rep]) | (full == full[minus[rep]])).all()
        table = _power_table(cfg, sum(x * x for x in k))
        kernel = _PairedTerms(cfg, table, [0, kind])
        buffer = kernel.buffer(half)
        kernel.load(0)  # the trivial class: the half ball, each pair weighted 1
        assert kernel.terms[0] == half
        whole = kernel(np.array([k]), buffer)[0]
        paired = buffer[1][:half].view(np.int64)
        assert (paired == paired[rep[half:] - half]).all()
        kernel.load(kind)
        weighed = kernel(np.array([k]), buffer)[0]
        assert abs(weighed - whole) <= 1e-14 * whole


def test_K_m_all_far_weights_beyond_2rho():
    # for |k| >= 2 rho every ball point has |k - h| >= rho, so all weights are 2
    cfg = SumConfig.create(3, 2, 4.0)
    kt = np.asarray((8, 4, 1))
    h2 = cfg.ball.norm_sq
    km2 = int(kt @ kt) - 2 * (cfg.ball.points @ kt) + h2
    assert np.all(km2 > cfg.boundary_norm_sq)


def test_KK_direct_interval():
    cfg = SumConfig.create(3, 2, 5.0)
    lower, upper = kk_direct((3, 2, 1), 3, cfg.n, cfg.rho, 41.0)
    assert rel_err(lower, 20.985676356283257) < 1e-12
    assert rel_err(upper, 20.98567960670058) < 1e-12
    assert 0.0 < upper - lower < 1e-4 * lower


def test_KK_direct_sandwiches_K_m():
    cfg = SumConfig.create(3, 2, 5.0)
    dk = delta_K(3, 2.0, 5.0)
    for k in [(1, 1, 0), (3, 2, 1), (5, 0, 0)]:
        lower, upper = kk_direct(k, 3, cfg.n, cfg.rho, 41.0)
        km = K_m(k, cfg)
        assert km <= upper
        assert lower <= km + dk


def test_KK_direct_nested_in_radius():
    cfg = SumConfig.create(3, 2, 5.0)
    wide = kk_direct((2, 1, 0), 3, cfg.n, cfg.rho, 31.0)
    tight = kk_direct((2, 1, 0), 3, cfg.n, cfg.rho, 61.0)
    assert wide[0] <= tight[0]
    assert tight[1] <= wide[1]
    assert tight[1] - tight[0] < wide[1] - wide[0]


def test_KK_direct_radius_validation():
    cfg = SumConfig.create(3, 2, 5.0)
    with pytest.raises(ValueError, match="truncation_radius"):
        kk_direct((3, 2, 1), 3, cfg.n, cfg.rho, 16.0)


def test_Z_n_exact_and_limit():
    cfg = SumConfig.create(3, 2, 4.0)
    m = max_norm_sq_inside(4.0)
    exact = Fraction(0)
    c = math.isqrt(m)
    for h in product(range(-c, c + 1), repeat=3):
        h2 = sum(x * x for x in h)
        if 0 < h2 <= m:
            exact += Fraction(1, h2**2)
    want = 2.0 * (2.0 / 3.0) * float(exact)
    assert rel_err(Z_n(cfg), want) < 1e-13
    # frozen production values
    assert rel_err(Z_n(SumConfig.create(3, 2, 20.0)), 21.20416907325552) < 1e-12
    assert rel_err(Z_n(SumConfig.create(3, 3, 10.0)), 11.196911602958002) < 1e-12
    assert rel_err(Z_n(SumConfig.create(3, 10, 10.0)), 8.015817107853263) < 1e-12
    # n -> inf: only the 2d unit vectors survive, Z -> 4(d-1)
    assert abs(Z_n(SumConfig.create(3, 50, 10.0)) - 8.0) < 1e-12


def test_build_Q_structure():
    cfg = SumConfig.create(3, 2, 20.0)
    q = build_Q(cfg, 2)
    assert q.ell == 2 and q.d == 3
    terms = dict(q.terms)
    assert rel_err(terms.pop((0, 0, 0)), 2904.785733012797) < 1e-12
    for key in [(4, 0, 0), (0, 4, 0), (0, 0, 4)]:
        assert rel_err(terms.pop(key), -2349.8021461729204) < 1e-12
    for key in [(2, 2, 0), (2, 0, 2), (0, 2, 2)]:
        assert rel_err(terms.pop(key), -4569.736493532428) < 1e-12
    assert all(abs(v) < 1e-9 for v in terms.values())


def test_build_Q_validation():
    cfg = SumConfig.create(3, 2, 4.0)
    for bad in (0, 3, -2):
        with pytest.raises(ValueError, match="even ell >= 2"):
            build_Q(cfg, bad)


def test_build_Q_matches_direct_sum(rng):
    """Q(u) must equal 2 sum_h Ehat(u . h/|h|) / |h|^(2n - ell)."""
    cfg = SumConfig.create(3, 2, 4.0)
    pts = cfg.ball.points.astype(float)
    norms = np.sqrt(cfg.ball.norm_sq.astype(float))
    for ell in (2, 4):
        q = build_Q(cfg, ell)
        ehat = substituted_coeff(2, ell, 3)
        w = norms ** (ell - 4.0)
        for _ in range(12):
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            cosines = pts @ u / norms
            direct = 2.0 * math.fsum((npp.polyval(cosines, ehat) * w).tolist())
            assert rel_err(sphere_eval(q.terms, u), direct) < 1e-10


def test_sphere_polynomial_eval_invariance(rng):
    cfg = SumConfig.create(3, 2, 4.0)
    q = build_Q(cfg, 2)
    u = rng.normal(size=3)
    u /= np.linalg.norm(u)
    for perm in ([1, 0, 2], [2, 1, 0]):
        for signs in ([1, -1, 1], [-1, -1, -1]):
            v = u[perm] * np.asarray(signs)
            assert rel_err(sphere_eval(q.terms, v), sphere_eval(q.terms, u)) < 1e-12
    # batch evaluation agrees with scalar path
    batch = sphere_eval(q.terms, np.stack([u, -u]))
    assert batch.shape == (2,)
    assert batch[0] == sphere_eval(q.terms, u)


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


def heap_simplex_max(monos, d, target_rel, max_nodes):
    """Reference: best-first (heap) branch-and-bound over the free
    coordinates x = (s_1, ..., s_{d-1}), one scalar box at a time.  Each box
    is bounded by the smaller of a plain interval bound and a centered form
    with interval-bounded partial derivatives; the search stops once the
    largest bound is within target_rel of the best sample.  Returns (upper,
    best, point), the point a full simplex point whose free coordinates are
    where `best` was sampled."""
    nfree = d - 1
    free = _reduce_to_free(monos, d)
    derivs = [_derivative_free(free, i) for i in range(nfree)]

    def box_info(lo, hi):
        lo_sum = math.fsum(lo)
        if lo_sum > 1.0:
            return None
        hi = tuple(min(h, 1.0 - (lo_sum - l)) for l, h in zip(lo, hi))
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
    ub, inner, point, hi0 = box_info(*root)
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
            raise EnclosureWidthError(f"stuck after {max_nodes} nodes")
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


def signed_monos(q, sign):
    """sign * q over s_i = u_i^2, as (s-exponents, coefficient) pairs."""
    return [(tuple(e // 2 for e in a), sign * c) for a, c in sorted(q.terms.items())]


def exact_at(monos, point):
    """The s-polynomial at the simplex point whose free coordinates are
    point[:-1], in exact rational arithmetic."""
    free = [Fraction(x) for x in point[:-1]]
    s = free + [1 - sum(free)]
    total = Fraction(0)
    for a, c in monos:
        term = Fraction(c)
        for si, ai in zip(s, a):
            term *= si**ai
        total += term
    return total


def assert_matches_heap(q, sign, got):
    """`got`, extremize_Q's endpoint for sign = 1 (max) or -1 (min), encloses
    the heap search's best sample, evaluated exactly at its point, and is no
    looser than the heap's upper bound beyond 1e-9 relative."""
    monos = signed_monos(q, sign)
    upper, _, point = heap_simplex_max(monos, q.d, 1e-6, 400_000)
    assert exact_at(monos, point) <= sign * got
    assert sign * got <= upper + 1e-9 * abs(upper)


def test_extremize_Q_reference():
    """Pins at d=3 n=2 rho=20.  The branch-and-bound enclosures that
    extremize_Q used to return (OLD) were 1e-6 wide; each new endpoint lies
    inside its old enclosure."""
    old = {
        (2, 1): 598.2733381963864,
        (2, -1): 554.9832152851241,
        (4, 1): 115062.6006169254,
        (4, -1): 114131.32519252067,
    }
    cfg = SumConfig.create(3, 2, 20.0)
    qmin, qmax, arg = extremize_Q(build_Q(cfg, 2))
    assert (qmin, qmax) == (554.9835868398767, 598.2728531110147)
    assert max(abs(a - 1.0 / math.sqrt(3.0)) for a in arg) < 1e-9
    qmin4, qmax4, _ = extremize_Q(build_Q(cfg, 4))
    assert (qmin4, qmax4) == (114131.4390179595, 115062.49482974072)
    got = {(2, 1): qmax, (2, -1): qmin, (4, 1): qmax4, (4, -1): qmin4}
    for (ell, sign), value in got.items():
        assert sign * value <= sign * old[ell, sign]
        assert sign * value >= sign * old[ell, sign] - 1e-6 * abs(old[ell, sign])


BENCH_CASES = [
    (3, 2, 20.0), (3, 3, 10.0), (3, 4, 10.0), (3, 5, 10.0), (3, 10, 10.0),
    (4, 3, 10.0), (2, 2, 10.0),
]


@pytest.mark.parametrize("d,n,rho", BENCH_CASES)
def test_simplex_max_against_heap_reference(d, n, rho):
    """Every (l, sign) of a benchmark case against the heap search."""
    cfg = SumConfig.create(d, n, rho)
    for ell in (2, 4):
        q = build_Q(cfg, ell)
        qmin, qmax, arg = extremize_Q(q)
        assert_matches_heap(q, 1, qmax)
        assert_matches_heap(q, -1, qmin)
        assert len(arg) == d and abs(math.fsum(a * a for a in arg) - 1.0) < 1e-12


#: heap_simplex_max(signed_monos(q, sign), 3, 1e-6, 400_000)[:2] for
#: q = build_Q(SumConfig.create(3, n, 10.0), 8), keyed by (n, sign): the heap
#: search takes 2-9 s per sign there, too long to rerun in every test run.
HEAP_L8 = {
    (1.6, 1): (213620765.97827697, 213620552.3773568),
    (1.6, -1): (-149135202.87330723, -149135351.7532519),
    (2, 1): (103097043.43311721, 103096940.35487683),
    (2, -1): (-87553268.45604837, -87553356.00698656),
}


@pytest.mark.parametrize("n,ell", [(1.6, 6), (1.6, 8), (2, 6), (2, 8)])
def test_extremize_Q_high_degree_against_heap_reference(n, ell):
    """l = 6 and 8 (degree 4 and 5 in s), where the two-value candidates rest
    on the half-degree principle."""
    q = build_Q(SumConfig.create(3, n, 10.0), ell)
    qmin, qmax, _ = extremize_Q(q)
    for sign, got in ((1, qmax), (-1, qmin)):
        if ell == 6:
            assert_matches_heap(q, sign, got)
        else:
            upper, best = HEAP_L8[n, sign]
            assert best - 1e-12 * abs(best) <= sign * got <= upper + 1e-9 * abs(upper)


@pytest.mark.parametrize("ell", [6, 8])
def test_extremize_Q_encloses_three_value_points(ell, rng):
    """d = 4: random sphere points and a grid of points with three distinct
    nonzero values s = (x/a, ..., y/b, ..., z/c, ...), a + b + c <= 4, none
    of which the two-value candidates cover."""
    q = build_Q(SumConfig.create(4, 2.2, 6.0), ell)
    qmin, qmax, arg = extremize_Q(q)
    u = rng.normal(size=(4000, 4))
    grid = []
    for a, b, c in ((1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2)):
        for i, j in product(range(41), repeat=2):
            if i + j <= 40:
                x, y, z = i / 40, j / 40, (40 - i - j) / 40
                s = [x / a] * a + [y / b] * b + [z / c] * c + [0.0] * (4 - a - b - c)
                grid.append(np.sqrt(s))
    for points in (u / np.linalg.norm(u, axis=1)[:, None], np.array(grid)):
        vals = sphere_eval(q.terms, points)
        pad = 1e-12 * max(abs(qmin), abs(qmax))
        assert qmin - pad <= float(vals.min())
        assert float(vals.max()) <= qmax + pad
    top = sphere_eval(q.terms, np.array(arg))
    assert qmax - 1e-12 * abs(qmax) <= top <= qmax + 1e-12 * abs(qmax)


def test_extremize_Q_encloses_samples(rng):
    cfg = SumConfig.create(3, 2, 20.0)
    q = build_Q(cfg, 2)
    qmin, qmax, _ = extremize_Q(q)
    u = rng.normal(size=(500, 3))
    u /= np.linalg.norm(u, axis=1)[:, None]
    vals = sphere_eval(q.terms, u)
    pad = 1e-9 * max(abs(qmin), abs(qmax))
    assert qmin - pad <= float(vals.min())
    assert float(vals.max()) <= qmax + pad


def test_extremize_known_polynomials():
    # sum u_i^4 on the sphere: max 1 on the axes, min 1/d on the diagonal
    quartic = SpherePolynomial(
        ell=2, d=3, terms={(4, 0, 0): 1.0, (0, 4, 0): 1.0, (0, 0, 4): 1.0}
    )
    qmin, qmax, arg = extremize_Q(quartic)
    assert qmax == math.nextafter(1.0, 2.0)  # one ulp outward
    assert qmin == math.nextafter(1.0 / 3.0, 0.0)
    assert arg == (1.0, 0.0, 0.0)
    const = SpherePolynomial(ell=2, d=3, terms={(0, 0, 0): 5.0})
    cmin, cmax, _ = extremize_Q(const)
    assert (cmin, cmax) == (math.nextafter(5.0, 0.0), math.nextafter(5.0, 6.0))
    empty = SpherePolynomial(ell=2, d=2, terms={})
    emin, emax, _ = extremize_Q(empty)
    assert -1e-300 < emin < 0.0 < emax < 1e-300
    odd = SpherePolynomial(ell=2, d=2, terms={(1, 0): 1.0})
    with pytest.raises(ValueError, match="odd monomial"):
        extremize_Q(odd)


def test_extremize_Q_symmetrizes_outward():
    """u_1^4 alone is not symmetric: its orbit's largest coefficient is 1 and
    its smallest is 0 (the absent u_2^4, u_3^4), so the enclosure is that of
    sum u_i^4 above and of 0 below, and it holds the true range [0, 1]."""
    lone = SpherePolynomial(ell=2, d=3, terms={(4, 0, 0): 1.0})
    qmin, qmax, _ = extremize_Q(lone)
    assert -1e-300 < qmin < 0.0 and qmax == math.nextafter(1.0, 2.0)


def test_extremize_Q_multiple_critical_point():
    """(u_1^2 - u_2^2)^4 on the circle is (2x - 1)^4 in x = u_1^2, whose
    derivative has a triple root at x = 1/2.  Its bracket, 2^-64 wide, still
    bounds the minimum 0 from below, by its slope bound (about 1e-17)."""
    terms = {(8 - 2 * j, 2 * j): float((-1) ** j * math.comb(4, j)) for j in range(5)}
    qmin, qmax, arg = extremize_Q(SpherePolynomial(ell=6, d=2, terms=terms))
    assert -1e-15 <= qmin < 0.0
    assert qmax == math.nextafter(1.0, 2.0) and arg == (1.0, 0.0)


def test_extremize_Q_degree_limit():
    """Past degree 10 in u (l = 10, t = 12) at d >= 3 two-value points need
    not hold the extrema, so extremize_Q refuses; d = 2 has no such limit."""
    cfg = SumConfig.create(3, 3, 10.0)
    with pytest.raises(ParameterError, match=r"t <= 10 when d >= 3: .* at l = 10 has"):
        extremize_Q(build_Q(cfg, 10))
    q = build_Q(SumConfig.create(2, 2, 10.0), 10)
    qmin, qmax, _ = extremize_Q(q)
    u = np.stack([np.cos(np.linspace(0, np.pi / 2, 2001)),
                  np.sin(np.linspace(0, np.pi / 2, 2001))], axis=1)
    vals = sphere_eval(q.terms, u)
    pad = 1e-12 * max(abs(qmin), abs(qmax))
    assert qmin - pad <= float(vals.min()) and float(vals.max()) <= qmax + pad


def test_vV_nt():
    cfg = SumConfig.create(3, 2, 20.0)
    ex = remainder_extrema(2, 6)
    v, V = vV_nt(cfg, 6, ex)
    assert rel_err(v, -362929328.97545767) < 1e-10
    assert rel_err(V, 1179416498.758738) < 1e-10
    # factorization: both share the lattice factor S = sum |h|^(t-2n)
    s = power_fsum(3, 20.0, 1.0)
    assert v == 2.0 * ex.mu * s
    assert V == 2.0 * ex.M * s
    assert v < 0.0 < V
    with pytest.raises(ValueError, match="even t >= 2"):
        vV_nt(cfg, 5, ex)


#: (d, n, rho): the seven bench cases, then non-integer n and d = 5.
SHELL_CASES = [(3, 2, 20.0), (3, 3, 10.0), (3, 4, 10.0), (3, 5, 10.0),
               (3, 10, 10.0), (4, 3, 10.0), (2, 2, 10.0), (3, 1.6, 10.0),
               (4, 2.2, 6.0), (5, 3, 5.0)]


@pytest.mark.parametrize("d, n, rho", SHELL_CASES)
def test_shell_sums_are_the_per_point_fsum(d, n, rho):
    """Z_n and vV_nt's S = sum |h|^(t-2n), summed shell by shell, are the
    fsum of the per-point powers bit for bit."""
    cfg = SumConfig.create(d, n, rho)
    z = 2.0 * (1.0 - 1.0 / d) * power_fsum(d, rho, -float(n))
    assert Z_n(cfg).hex() == z.hex()
    for t in (6, 10):
        v, V = vV_nt(cfg, t, SimpleNamespace(mu=0.5, M=1.0))  # v = S, V = 2 S
        s = power_fsum(d, rho, t / 2.0 - n)
        assert (v.hex(), V.hex()) == (s.hex(), (2.0 * s).hex())


def assert_Q_near_exact(cfg, ell):
    """Every coefficient of build_Q within 3 ulps, 3 2^-53 relative, of the
    exact rational with the same float Ehat, and permuted monomials equal."""
    q = build_Q(cfg, ell)
    ehat = substituted_coeff(cfg.n, ell, cfg.d)
    exact = sphere_coeffs_exact(cfg.d, int(cfg.n), cfg.rho, ell, ehat)
    assert q.terms.keys() == exact.keys()
    ulp = Fraction(1, 2**53)
    for alpha, want in exact.items():
        assert abs(Fraction(q.terms[alpha]) - want) <= 3 * ulp * abs(want)
        orbit = {q.terms[a].hex() for a in permutations(alpha)}
        assert orbit == {q.terms[alpha].hex()}


@pytest.mark.parametrize("d, n, rho", [(3, 3, 10.0), (2, 2, 10.0)])
@pytest.mark.parametrize("ell", [2, 4, 6, 8])
def test_build_Q_within_3_ulps_of_exact(d, n, rho, ell):
    assert_Q_near_exact(SumConfig.create(d, n, rho), ell)


def test_build_Q_python_int_moments():
    """At d = 2, rho = 100, the moments h^alpha of degree j >= 10 can pass
    2^63 on one shell, so build_Q sums them as Python ints."""
    cfg = SumConfig.create(2, 2, 100.0)
    norm_sq = cfg.ball.norm_sq
    assert int(np.bincount(norm_sq).max()) * int(norm_sq.max()) ** 5 >= 2**63
    assert_Q_near_exact(cfg, 14)


def test_asymptotic_sandwich_on_shell():
    """The two-sided expansion brackets K_m for |k| >= 2 rho."""
    cfg = SumConfig.create(3, 2, 5.0)
    t = 6
    ex = remainder_extrema(2, t)
    z = Z_n(cfg)
    q_bounds = {}
    for ell in (2, 4):
        qmin, qmax, _ = extremize_Q(build_Q(cfg, ell))
        q_bounds[ell] = (qmin, qmax)
    v, V = vV_nt(cfg, t, ex)
    for k in [(10, 0, 0), (10, 5, 1), (12, 9, 4), (17, 6, 2), (20, 0, 0)]:
        k2 = sum(x * x for x in k)
        km = K_m(k, cfg)
        lo = z + sum(q_bounds[l][0] * k2 ** (-l / 2.0) for l in (2, 4))
        lo += v * k2 ** (-t / 2.0)
        hi = z + sum(q_bounds[l][1] * k2 ** (-l / 2.0) for l in (2, 4))
        hi += V * k2 ** (-t / 2.0)
        assert lo <= km <= hi


def test_root_brackets_match_the_fraction_bisection(rng):
    """The integer sign evaluation brackets the same roots as bisection in
    Fractions: random polynomials on [0, 1] with double roots, roots at
    dyadic points (where the bisection lands on a root) and rational
    coefficients whose denominators are not powers of 2."""
    dyadic = [Fraction(j, 16) for j in range(17)]
    for trial in range(40):
        roots = [dyadic[i] for i in rng.integers(0, 17, size=rng.integers(1, 4))]
        roots += [Fraction(int(rng.integers(1, 99)), 99)] * int(rng.integers(0, 3))
        if trial % 3 == 0:
            roots += roots[:1]  # a double root
        p = [Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 7)))
             * (-1) ** int(rng.integers(0, 2))]
        for r in roots:  # p *= (x - r)
            p = [a - r * b for a, b in zip([0, *p], [*p, 0])]
        assert _root_brackets(p) == root_brackets_fraction(p), roots
