import json
import math
import os
import sys
import threading
from fractions import Fraction
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

import advbounds
import advbounds.certify as certify_mod
import advbounds.kernel as kernel_mod
import advbounds.sums as sums_mod
from advbounds.certify import (
    ParameterError,
    K_minus,
    asymptotic_upper,
    build_asymptotic_model,
    certify_bounds,
    far_bound,
    search_sup_Km,
)
from advbounds.kernel import EnclosureWidthError, remainder_extrema
from advbounds.lattice import (
    CANONICAL_BUDGET,
    POINT_BUDGET,
    PointBudgetExceeded,
    enumerate_ball,
    enumerate_canonical,
    max_norm_sq_inside,
)
from advbounds.sums import (
    K_m,
    SumConfig,
    _fold,
    _folded_terms,
    _PairedTerms,
    _power_table,
    build_Q,
    stabilizer_classes,
)
from conftest import rel_err
from oracles import is_canonical, sphere_eval

DIAG_KEYS = {
    "delta_k",
    "z_n",
    "points_in_ball",
    "canonical_candidates",
    "q_upper",
    "q_lower",
    "runtime_ms",
}


def test_search_reference_values():
    cfg = SumConfig.create(3, 3, 10.0)
    best, k, reps = search_sup_Km(cfg, 20.0)
    assert rel_err(best, 25.30131459931683) < 1e-12
    assert k == (2, 1, 1)
    assert best == K_m(k, cfg)
    assert reps == len(enumerate_canonical(3, 20.0))
    best4, k4, _ = search_sup_Km(SumConfig.create(3, 4, 10.0), 20.0)
    assert rel_err(best4, 48.0382098116695) < 1e-12
    assert k4 == (2, 1, 0)


@pytest.mark.parametrize(
    "n,want,argmax",
    [(5, 106.99081809714596, (2, 1, 0)), (10, 9556.568572305623, (2, 1, 0))],
)
def test_search_high_orders(n, want, argmax):
    # cross-checked against exact rational arithmetic in test_sums
    best, k, _ = search_sup_Km(SumConfig.create(3, n, 10.0), 20.0)
    assert rel_err(best, want) < 1e-12
    assert k == argmax


def test_search_stable_under_wider_radius():
    cfg = SumConfig.create(3, 2, 6.0)
    a = search_sup_Km(cfg, 12.0)
    b = search_sup_Km(cfg, 18.0)
    assert a[0] == b[0] == 21.85160097705368
    assert a[1] == b[1] == (3, 3, 3)


def test_search_threads_bitwise_identical():
    cfg = SumConfig.create(3, 2, 6.0)
    single = search_sup_Km(cfg, 12.0, threads=1)
    multi = search_sup_Km(cfg, 12.0, threads=4)
    assert single[0] == multi[0]
    assert single[1] == multi[1]
    assert single[2] == multi[2]


def reference_search(cfg, radius):
    """The plain per-rep loop: K_m at every canonical rep in lex order, the
    first strict maximum kept, and the number of reps."""
    reps = enumerate_canonical(cfg.d, radius)
    best, best_k = -math.inf, None
    for k in reps:
        val = K_m(k, cfg)
        if val > best:
            best, best_k = val, k
    return best, best_k, len(reps)


EQUIVALENCE_CASES = [
    (d, n, rho)
    for d, rho in ((2, 4.0), (3, 4.0), (4, 4.5))
    for n in (2, 2.5, 3, 5)
    if n > d / 2
] + [(3, 150, 4.0)]  # some terms reach the subnormal range of the screen's bound


@pytest.mark.parametrize("d,n,rho", EQUIVALENCE_CASES)
def test_search_matches_per_rep_loop(d, n, rho, monkeypatch):
    cfg = SumConfig.create(d, n, rho)
    want = reference_search(cfg, 2 * rho)
    assert search_sup_Km(cfg, 2 * rho) == want
    assert search_sup_Km(cfg, 2 * rho, threads=2) == want
    # stopped where the t = 6 far bound closes: below some sqrt(m) in most
    # cases, at 2 rho where no radius closes (d4 n2.5 rho 4.5)
    far = partial(far_bound, build_asymptotic_model(cfg, 6), cfg)
    for threads in (1, 2):
        best, k, _, _ = certify_mod._search(cfg, 2 * rho, far, threads=threads)
        assert (best.hex(), k) == (want[0].hex(), want[1])
    monkeypatch.setattr(certify_mod, "_BLOCK_TERMS", 1)  # one row per block
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # more workers than cores, switching often
    try:
        assert search_sup_Km(cfg, 2 * rho, threads=3) == want
    finally:
        sys.setswitchinterval(interval)
    monkeypatch.setattr(certify_mod, "_BLOCK_TERMS", 10**9)  # one block
    assert search_sup_Km(cfg, 2 * rho) == want


def test_below_root_lies_between_the_roots():
    """_below_root(m) lies below sqrt(m) and above sqrt(m - 1), so |k| <
    R_m holds exactly for |k|^2 < m; at perfect squares and next to powers
    of 4 too, where fl(sqrt(m)) is exact or a power of 2."""
    edges = [4**j + e for j in range(2, 26) for e in (-1, 0, 1)]
    for m in [*range(2, 4096), *edges, *(x * x for x in range(2, 3000, 7))]:
        r = Fraction(certify_mod._below_root(m))
        assert m - 1 < r * r < m, m


#: (d, n, rho): the |k|^2 = m whose R_m closes the search, and the reps
#: below it; the ladder 2 rho (0.55, 0.60, ..., 1) searched 5,488, 964,
#: 223, 64 and 91.
CLOSING = {
    (3, 2, 20.0): (1333, 4909),
    (4, 3, 10.0): (188, 903),
    (3, 3, 10.0): (139, 217),
    (2, 2, 10.0): (136, 62),
    (3, 2.5, 6.0): (68, 86),
}


@pytest.mark.parametrize("d,n,rho", list(CLOSING))
def test_closing_radius_is_sound_and_minimal(monkeypatch, d, n, rho):
    """Past the screen of |k| < 0.55 x 2 rho, the candidates are the
    distinct |k|^2 = m of the reps left, and the search stops at R = the
    float below sqrt(m) for the first m it finds closing.  Soundness, all
    the proof needs: far(R) < floor at that R, the floor the first screen's
    max(lo), at most the searched max.  Minimality: the previous
    candidate's far bound, or the first radius's, is at least the floor."""
    seen = []
    closing = certify_mod._closing_norm

    def recorded(far, floor, norms):
        at = closing(far, floor, norms)
        seen.append((floor, list(norms), at))
        return at

    monkeypatch.setattr(certify_mod, "_closing_norm", recorded)
    cfg = SumConfig.create(d, n, rho)
    far = partial(far_bound, build_asymptotic_model(cfg, 6), cfg)
    best, _, reps, radius = certify_mod._search(cfg, 2 * rho, far)
    ((floor, norms, at),) = seen
    first = 2 * rho * 11 / 20
    k2 = [sum(c * c for c in k) for k in enumerate_canonical(d, 2 * rho)]
    assert norms == sorted({m for m in k2 if m > max_norm_sq_inside(first)})
    m = norms[at]
    assert (m, reps) == CLOSING[(d, n, rho)]
    assert reps == sum(x < m for x in k2)
    assert radius == certify_mod._below_root(m)
    assert far(radius) < floor <= best
    previous = first if at == 0 else certify_mod._below_root(norms[at - 1])
    assert not far(previous) < floor


def _stub_screen(monkeypatch, row_sums):
    """Replace the screen's kernel: every class has N/2 terms per row, a
    block's row sums are row_sums(ks), and each block is recorded as (the
    class loaded, its ks)."""
    blocks = []

    class Stub:
        buffer = staticmethod(lambda size: None)

        def __init__(self, cfg, table, kinds):
            self.terms = dict.fromkeys(kinds, len(cfg.ball) // 2)

        def load(self, kind):
            self.kind = kind

        def __call__(self, ks, buffer):
            blocks.append((self.kind, ks.copy()))
            return row_sums(ks)

    monkeypatch.setattr(certify_mod, "_PairedTerms", Stub)
    return blocks


def test_search_ties_keep_lex_smallest(monkeypatch):
    # every row sums to 3, so K_m = 3 |k|^(2n) ties across each whole shell;
    # the screen's row sums hold 4 times that
    _stub_screen(monkeypatch, lambda ks: np.full(len(ks), 12.0))
    monkeypatch.setattr(
        certify_mod, "K_m", lambda k, cfg: float(sum(c * c for c in k)) ** cfg.n * 3.0
    )
    cfg = SumConfig.create(3, 2, 4.0)
    reps = enumerate_canonical(3, 8.0)
    top = max(sum(c * c for c in k) for k in reps)
    best, k, count = search_sup_Km(cfg, 8.0, threads=2)
    assert k == min(r for r in reps if sum(c * c for c in r) == top)
    assert best == float(top) ** 2 * 3.0
    assert count == len(reps)


def test_power_table_size_at_the_canonical_budget():
    """The largest search enumerate_canonical accepts keeps the fold table
    under 2^22 entries: comb(c + d, d) <= CANONICAL_BUDGET allows c =
    isqrt(max |k|^2) up to 1022 at d = 2 (less for d >= 3), and rho <= R/2."""
    for d in (2, 3, 4):
        c = 0
        while math.comb(c + 1 + d, d) <= CANONICAL_BUDGET:
            c += 1
        assert c == {2: 1022, 3: 144, 4: 57}[d]
        with pytest.raises(PointBudgetExceeded):
            enumerate_canonical(d, c + 1.5)  # refused before any tuple is built
        radius = c + 1.0  # the largest radius with isqrt(max |k|^2) = c
        k2_max = max_norm_sq_inside(radius)
        h2_max = max_norm_sq_inside(radius / 2)
        assert math.isqrt(k2_max) == c
        size = k2_max + h2_max + 2 * math.isqrt(k2_max * h2_max) + 3
        assert size < 2.4e6 < 2**22


@pytest.mark.parametrize("d,n,rho", [(3, 150, 4.0), (3, 3, 5.0)])
def test_power_table_is_the_fold(d, n, rho):
    """The table holds, bit for bit, what _fold gives each |k-h|^2 alone."""
    cfg = SumConfig.create(d, n, rho)
    k2_max = max_norm_sq_inside(2 * rho)
    table = _power_table(cfg, k2_max)
    h2_max = int(cfg.ball.norm_sq.max())
    assert len(table) > k2_max + h2_max + 2 * math.isqrt(k2_max * h2_max)
    single = [_fold(cfg, np.array([float(m)]))[0] for m in range(len(table))]
    assert table.view(np.int64).tolist() == np.array(single).view(np.int64).tolist()
    assert table[0] == 0.0 and table[cfg.boundary_norm_sq + 1] > 0.0


@pytest.mark.parametrize(
    "d,n,rho",
    [(2, 3, 4.0), (3, 2, 6.0), (3, 5, 5.0), (4, 3, 4.5), (3, 150, 4.0), (2, 2, 10.0)],
)
def test_screened_interval_holds_exact_value(d, n, rho):
    """The screen's bounds from the weighted orbit rows hold the exact sum
    of the full-row terms at every rep, in every stabilizer class, those
    with tied and zero coordinates among them; at n = 150 some terms are
    subnormal."""
    cfg = SumConfig.create(d, n, rho)
    reps = enumerate_canonical(d, 2 * rho)
    k2 = [sum(c * c for c in k) for k in reps]
    table = _power_table(cfg, max(k2))
    ks = np.array(reps, dtype=np.int64)
    kind = stabilizer_classes(ks)
    kinds = np.unique(kind).tolist()
    assert len(kinds) == {2: 3, 3: 7, 4: 15}[d]  # every class occurs
    paired = _PairedTerms(cfg, table, kinds)
    buffer = paired.buffer(len(reps) * len(cfg.ball) // 2)
    sums = np.empty(len(reps))
    for c in kinds:
        paired.load(c)
        sums[kind == c] = paired(ks[kind == c], buffer)
    scales = [float(s) ** cfg.n for s in k2]
    lo, hi = certify_mod._screen(sums, np.array(scales), len(cfg.ball))
    for i, k in enumerate(reps):
        exact = K_m(k, cfg)
        assert scales[i] * math.fsum(_folded_terms(cfg, ks[i]).tolist()) == exact
        assert lo[i] <= exact <= hi[i]
        assert hi[i] - lo[i] < 1e-9 * exact


def test_screen_covers_subnormal_rounding():
    """Rows of subnormal terms, rounded as the two kernels round them: the
    full-row terms (|h^k|^2 w) f-+, once for each of the c_P pairs of an
    orbit, and the orbit terms (c_P 4 |h^k|^2 w) (f- + f+), c_P = 1 for
    the half ball.  A product there errs by up to half a subnormal ulp, far
    past the relative slack, and the absolute slack holds the exact sum."""
    rng = np.random.default_rng(1)
    c = rng.integers(1, 50, (40, 25)).astype(float)
    w = rng.integers(1, 2**10, (40, 25)) * 2.0**-1074
    f_minus, f_plus = rng.uniform(0.0, 1.0, (2, 40, 25))
    for weight in (np.ones(25, dtype=int), rng.integers(1, 9, 25)):
        full = np.hstack([np.repeat(c * w * f, weight, axis=1)
                          for f in (f_minus, f_plus)])
        terms = weight * 4.0 * c * w * (f_minus + f_plus)
        exact = np.array([math.fsum(row) for row in full.tolist()])
        lo, hi = certify_mod._screen(terms.sum(axis=1), np.ones(40), full.shape[1])
        assert (lo <= exact).all() and (exact <= hi).all()
        assert (abs(exact - 0.25 * terms.sum(axis=1)) > 1e-6 * exact).any()


@pytest.mark.parametrize("d,rho", [(2, 4.0), (3, 4.0), (4, 4.5)])
def test_paired_indices_lie_in_the_table(d, rho):
    """np.take's mode="clip" would clamp an index past the table silently:
    both |k -+ h|^2 the screen forms over every rep of the search are exact
    and inside the table, and the half ball H, the last N/2 points, holds
    one of each pair h, -h.  With the table t[m] = m, the kernel's index
    buffer holds |k + h|^2 after a call and its fold buffer t[|k - h|^2] +
    t[|k + h|^2], both exactly, over the orbit points of each class."""
    cfg = SumConfig.create(d, 3, rho)
    ks = np.array(enumerate_canonical(d, 2 * rho), dtype=np.int64)
    size = len(_power_table(cfg, int((ks * ks).sum(axis=1).max())))
    kind = stabilizer_classes(ks)
    kernel = _PairedTerms(cfg, np.arange(float(size)), np.unique(kind).tolist())
    buffer = kernel.buffer(len(ks) * len(cfg.ball) // 2)
    half = cfg.ball.points[len(cfg.ball) // 2:]
    assert 2 * len(half) == len(cfg.ball)
    assert sorted(np.vstack([half, -half]).tolist()) == cfg.ball.points.tolist()
    first = half[np.arange(len(half)), (half != 0).argmax(axis=1)]
    assert (first > 0).all()
    for c in kernel.terms:
        kernel.load(c)
        at, orbit = kind == c, half[kernel._orbits[c][0]]
        kernel(ks[at], buffer)
        plus, minus = (((ks[at][:, None] + sign * orbit[None]) ** 2).sum(axis=2)
                       for sign in (1, -1))
        cells = plus.size
        assert np.array_equal(buffer[3][:cells], plus.ravel())
        assert np.array_equal(buffer[2][:cells], (minus + plus).ravel())
        assert 0 <= minus.min() and max(minus.max(), plus.max()) < size


STUB_REPS = enumerate_canonical(3, 8.0)


def _stub_search(monkeypatch, rows, values, threads):
    """search_sup_Km(SumConfig.create(3, 2, 4.0), 8.0) with `rows` reps to a
    block, a stub K_m(k) = values.get(k, 1) and a stub screen kernel whose
    row sum for k is 4 values.get(k, 1), unscaled.  Also returns the reps
    summed exactly, in the order summed."""
    cfg = SumConfig.create(3, 2, 4.0)
    summed = []
    caller = threading.get_ident()

    def exact(k, cfg):
        assert threading.get_ident() == caller
        summed.append(k)
        return values.get(k, 1.0)

    blocks = _stub_screen(monkeypatch, lambda ks: 4.0 * np.array(
        [values.get(tuple(k), 1.0) for k in ks.tolist()]))
    monkeypatch.setattr(certify_mod, "K_m", exact)
    monkeypatch.setattr(certify_mod, "_k_scale", lambda k2, n: 1.0)
    monkeypatch.setattr(certify_mod, "_BLOCK_TERMS", rows * (len(cfg.ball) // 2))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # a lost write of a block's bounds would show
    try:
        found = search_sup_Km(cfg, 8.0, threads=threads)
    finally:
        sys.setswitchinterval(interval)
    # each block holds reps of the class loaded, in every class each block
    # but the last holds `rows` reps, and each rep is screened once
    kind = stabilizer_classes(np.array(STUB_REPS))
    for c in np.unique(kind).tolist():
        given = [len(ks) for loaded, ks in blocks if loaded == c]
        assert max(given) == min(rows, np.count_nonzero(kind == c))
        assert given.count(max(given)) >= len(given) - 1
        assert sum(given) == np.count_nonzero(kind == c)
    assert all((stabilizer_classes(ks) == c).all() for c, ks in blocks)
    assert sorted(k for _, ks in blocks for k in map(tuple, ks.tolist())) == STUB_REPS
    # The calling thread sums, in rep order, exactly the reps whose value
    # reaches the largest one (the stub's values are far apart against the
    # screening slack), whatever the thread count.
    top = max(values.get(k, 1.0) for k in STUB_REPS)
    assert summed == [k for k in STUB_REPS if values.get(k, 1.0) >= top]
    return found, [values.get(k, 1.0) for k in summed]


@pytest.mark.parametrize("threads", [1, 3])
def test_search_skips_reps_below_an_earlier_floor(monkeypatch, threads):
    """Five reps to a block, the largest in the first: every other rep's
    upper bound lies below the largest rep's lower bound, so only the
    largest is summed."""
    (best, k, reps), summed = _stub_search(
        monkeypatch, 5, {STUB_REPS[3]: 2.0}, threads
    )
    assert (best, k, reps) == (2.0, STUB_REPS[3], len(STUB_REPS))
    assert summed == [2.0]


@pytest.mark.parametrize("threads", [1, 3])
def test_search_max_in_its_last_block(monkeypatch, threads):
    """One rep to a block: a large value in the first block is not summed,
    as the last block's is larger; the last rep is the max."""
    (best, k, _), summed = _stub_search(
        monkeypatch, 1, {STUB_REPS[0]: 2.0, STUB_REPS[-1]: 3.0}, threads
    )
    assert (best, k) == (3.0, STUB_REPS[-1])
    assert summed == [3.0]


@pytest.mark.parametrize("threads", [1, 3])
def test_search_tie_across_pieces_keeps_lex_first(monkeypatch, threads):
    """Two reps to a block: equal maxima in the first and second block both
    get summed, and the lex-first one is the argmax."""
    (best, k, _), summed = _stub_search(
        monkeypatch, 2, {STUB_REPS[1]: 1e9, STUB_REPS[2]: 1e9}, threads
    )
    assert (best, k) == (1e9, STUB_REPS[1])
    assert summed == [1e9, 1e9]


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_search_sums_few_rows_exactly(monkeypatch, threads):
    """At d = 3, n = 3, rho = 10 only the argmax, one of the 898 rows, is
    summed exactly, at every thread count."""
    rows = []

    def counted(k, cfg):
        rows.append(k)
        return K_m(k, cfg)

    monkeypatch.setattr(certify_mod, "K_m", counted)
    search_sup_Km(SumConfig.create(3, 3, 10.0), 20.0, threads=threads)
    assert rows == [(2, 1, 1)]


def test_search_radius_validation():
    cfg = SumConfig.create(3, 2, 6.0)
    with pytest.raises(ParameterError, match=r"search_radius >= 2\*rho"):
        search_sup_Km(cfg, 11.0)
    for radius in (math.inf, math.nan):
        with pytest.raises(ParameterError, match="finite search_radius"):
            search_sup_Km(cfg, radius)


def test_asymptotic_upper_reference():
    """The pins moved with the Q extrema, now the exact extrema over the
    candidate set rounded outward instead of the upper ends of 1e-6 wide
    branch-and-bound enclosures: d=3 n=2 from 21.91097971913652 and d=3 n=4
    from 9.615042235928517, each lower by 1.6e-8 or 3.4e-8 relative."""
    cfg = SumConfig.create(3, 2, 20.0)
    model = build_asymptotic_model(cfg, 6, remainder_extrema(2, 6))
    got = asymptotic_upper(model, 40.0)
    assert rel_err(got, 21.910979374635044) < 1e-12
    assert got <= 21.912
    cfg4 = SumConfig.create(3, 4, 10.0)
    model4 = build_asymptotic_model(cfg4, 6, remainder_extrema(4, 6))
    got4 = asymptotic_upper(model4, 20.0)
    assert rel_err(got4, 9.615041907888003) < 1e-12
    assert got4 <= 9.6152


def test_asymptotic_upper_decreasing_to_Z():
    cfg = SumConfig.create(3, 2, 5.0)
    model = build_asymptotic_model(cfg, 6, remainder_extrema(2, 6))
    vals = [asymptotic_upper(model, x) for x in (10.0, 20.0, 80.0, 400.0)]
    assert vals == sorted(vals, reverse=True)
    assert rel_err(asymptotic_upper(model, 1e6), model.z) < 1e-6
    with pytest.raises(ParameterError, match=r"k_norm >= 2\*rho"):
        asymptotic_upper(model, 9.0)


def test_build_asymptotic_model_structure():
    cfg = SumConfig.create(3, 2, 5.0)
    model = build_asymptotic_model(cfg, 6, remainder_extrema(2, 6))
    assert set(model.q_upper) == set(model.q_lower) == {2, 4}
    for ell in (2, 4):
        assert model.q_lower[ell] <= model.q_upper[ell]
        # the argmax is a canonical unit vector where Q attains its upper
        # endpoint, up to the rounding of the point and of sphere_eval
        arg = model.q_argmax[ell]
        assert len(arg) == 3
        assert list(arg) == sorted(arg, reverse=True) and arg[-1] >= 0.0
        assert abs(math.fsum(a * a for a in arg) - 1.0) < 1e-12
        value = sphere_eval(build_Q(cfg, ell).terms, arg)
        top = model.q_upper[ell]
        assert top - 1e-12 * abs(top) <= value <= top + 1e-12 * abs(top)
    assert model.v <= model.V
    with pytest.raises(ParameterError, match="even t"):
        build_asymptotic_model(cfg, 5, remainder_extrema(2, 6))


def test_K_minus_values():
    assert K_minus(3, 2) == 2.0 * (2.0 * math.pi) ** -1.5
    assert rel_err(K_minus(3, 10), 2.031796349895711) < 1e-14
    # d = 2 carries the extra factor sqrt(2 - sqrt(2))
    assert rel_err(
        K_minus(2, 0), math.sqrt(2.0 - math.sqrt(2.0)) / (2.0 * math.pi)
    ) < 1e-14
    with pytest.raises(ParameterError, match="d >= 2"):
        K_minus(1, 2)


def test_certificate_structure():
    cert = certify_bounds(3, 3, 5.0)
    assert cert.d == 3 and cert.n == 3 and cert.rho == 5.0 and cert.t == 6
    assert cert.sup_KK_interval.lower == cert.sup_Km
    assert cert.sup_KK_interval.upper == cert.sup_Km + cert.diagnostics["delta_k"]
    scale = (2.0 * math.pi) ** -1.5
    assert rel_err(cert.K_plus, scale * math.sqrt(cert.sup_KK_interval.upper)) < 1e-15
    assert cert.K_minus == K_minus(3, 3)
    assert cert.K_minus < cert.K_plus
    assert cert.asymptotic_bound <= cert.sup_Km
    # the float below sqrt(m), m the smallest |k|^2 of a rep left out
    m = min(sum(c * c for c in k) for k in enumerate_canonical(3, 10.0)
            if sum(c * c for c in k) > cert.search_radius**2)
    assert m == 41 and cert.search_radius == math.nextafter(math.sqrt(41), 0.0)
    assert is_canonical(cert.argmax)
    assert set(cert.diagnostics) == DIAG_KEYS
    assert cert.diagnostics["points_in_ball"] == len(enumerate_ball(3, 5.0))
    assert cert.diagnostics["canonical_candidates"] == len(
        enumerate_canonical(3, cert.search_radius)
    )
    assert cert.diagnostics["runtime_ms"] > 0.0


def test_certificate_full_pipeline_reference():
    cert = certify_bounds(3, 3, 10.0)
    assert rel_err(cert.sup_Km, 25.30131459931683) < 1e-12
    assert cert.argmax == (2, 1, 1)
    assert rel_err(cert.K_plus, 0.32222174404798404) < 1e-12
    assert rel_err(cert.K_minus, 0.17958712212516656) < 1e-12


def _strip_runtime(cert):
    diag = dict(cert.diagnostics)
    diag.pop("runtime_ms")
    return (
        cert.d,
        cert.n,
        cert.rho,
        cert.t,
        cert.sup_Km,
        cert.argmax,
        cert.sup_KK_interval,
        cert.K_plus,
        cert.K_minus,
        cert.search_radius,
        cert.asymptotic_bound,
        diag,
    )


#: The seven bench cases and five more: d3 n1.6 and d4 n2.2 close at t = 8,
#: d5 n2.501 rho 5 at t = 10, d3 n2.5 rho 6 at 0.7 x 2 rho and d2 n2 rho 100
#: at 0.55 x 2 rho.  The remainder grid closed d4 n2.2 at t = 10 and left
#: d5 n2.501 rho 5 open (the fallback).
GRID_PATH_CASES = [
    (3, 2, 20.0), (3, 3, 10.0), (3, 4, 10.0), (3, 5, 10.0), (3, 10, 10.0),
    (4, 3, 10.0), (2, 2, 10.0), (3, 1.6, 10.0), (4, 2.2, 10.0), (5, 2.501, 5.0),
    (3, 2.5, 6.0), (2, 2, 100.0),
]


@pytest.mark.parametrize("d,n,rho", GRID_PATH_CASES)
def test_grid_path_gives_the_same_report(d, n, rho):
    """The grid path, the V model on remainder_extrema at 2 rho that the
    staged benchmark builds, against certify_bounds' per-shell bound and
    closing radius.  Its search finds the full 2 rho search's max and
    argmax, bit for bit; the per-shell bound closes at the grid's t or
    before, and wherever the grid closes, sup_kk_upper and K_plus are the
    grid's.  No K_plus grows."""
    cert = certify_bounds(d, n, rho)
    cfg = SumConfig.create(d, n, rho)
    sup, argmax, _ = search_sup_Km(cfg, 2.0 * rho)
    assert (cert.sup_Km.hex(), cert.argmax) == (sup.hex(), argmax)
    model = None
    for t in (6, 8, 10):
        model = build_asymptotic_model(cfg, t, remainder_extrema(n, t), model)
        far = asymptotic_upper(model, 2.0 * rho)
        if far <= sup:
            break
    assert cert.t <= t
    grid_upper = max(sup, far) + cert.diagnostics["delta_k"]
    assert cert.sup_KK_interval.upper <= grid_upper
    assert cert.K_plus <= (2.0 * math.pi) ** (-d / 2.0) * math.sqrt(grid_upper)
    if far <= sup:
        assert cert.sup_KK_interval.upper == grid_upper
        assert cert.K_plus == (2.0 * math.pi) ** (-d / 2.0) * math.sqrt(grid_upper)


def test_grid_failure_below_t10_moves_on_to_the_next_t(monkeypatch):
    """certify_bounds runs no remainder grid, so one that fails changes
    nothing.  At d3 n1.6 rho 10 no radius closes at t = 6, so the search
    covers |k| < 2 rho, and the far bound there moves on to t = 8, which
    closes the gate."""
    def fails(n, t):
        raise EnclosureWidthError("extrema enclosure did not converge")

    monkeypatch.setattr(kernel_mod, "remainder_extrema", fails)
    monkeypatch.setattr(certify_mod, "remainder_extrema", fails)
    cert = certify_bounds(3, 1.6, 10.0)
    assert (cert.t, cert.search_radius) == (8, 20.0)
    assert cert.diagnostics["canonical_candidates"] == len(enumerate_canonical(3, 20.0))
    cfg = SumConfig.create(3, 1.6, 10.0)
    model6 = build_asymptotic_model(cfg, 6)
    model8 = build_asymptotic_model(cfg, 8, prior=model6)
    assert far_bound(model6, cfg, 20.0) > cert.sup_Km
    assert far_bound(model8, cfg, 20.0) == cert.asymptotic_bound <= cert.sup_Km


@pytest.mark.parametrize("d,n,rho", [(5, 3, 5.0), (3, 2.5, 6.0)])
def test_ladder_matches_the_full_search(monkeypatch, d, n, rho):
    """The search screens |k| < 0.55 x 2 rho, then extends once to the
    reps below the radius that closes (the float below sqrt(68) at d3 n2.5
    rho 6; none at d5 n3 rho 5, which searches all of |k| < 2 rho): the max
    and argmax are the full search's, bit for bit, and the reps searched are
    those below the radius.  Each rep is screened at most once."""
    screened = []
    paired = sums_mod._PairedTerms

    class Counted(paired):
        def __call__(self, ks, buffer):
            screened.extend(map(tuple, ks.tolist()))
            return super().__call__(ks, buffer)

    monkeypatch.setattr(certify_mod, "_PairedTerms", Counted)
    cert = certify_bounds(d, n, rho)
    during = list(screened)
    cfg = SumConfig.create(d, n, rho)
    sup, argmax, reps = search_sup_Km(cfg, 2.0 * rho)
    assert (cert.sup_Km.hex(), cert.argmax) == (sup.hex(), argmax)
    below = enumerate_canonical(d, cert.search_radius)
    assert cert.diagnostics["canonical_candidates"] == len(below)
    assert sorted(during) == below
    assert cert.search_radius == (math.nextafter(math.sqrt(68), 0.0) if d == 3 else 10.0)
    assert (len(below) < reps) == (d == 3)


def test_certify_deterministic_and_thread_independent(monkeypatch):
    monkeypatch.setattr(kernel_mod, "_cpu_workers", lambda: 1)
    a = certify_bounds(3, 3, 5.0)
    b = certify_bounds(3, 3, 5.0)
    monkeypatch.setattr(kernel_mod, "_cpu_workers", lambda: 4)
    c = certify_bounds(3, 3, 5.0)
    assert _strip_runtime(a) == _strip_runtime(b)
    assert _strip_runtime(a) == _strip_runtime(c)


def test_worker_count_from_the_machine(monkeypatch):
    """kernel._Workers alone picks how many workers run: the CPUs this
    process may run on, at most _MAX_WORKERS, and never more than the
    blocks.  It builds every worker's buffer on the calling thread, and a
    one-block run starts no pool thread."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    assert kernel_mod._cpu_workers() == min(cpus, kernel_mod._MAX_WORKERS)
    monkeypatch.setattr(kernel_mod, "_cpu_workers", lambda: 3)
    caller = threading.get_ident()

    def run(blocks):
        built, ran = [], []

        def make_buffer():
            built.append(threading.get_ident())
            return len(built)

        def work(start, buffer):
            ran.append((start, threading.get_ident(), threading.active_count()))

        with kernel_mod._Workers(make_buffer, blocks) as workers:
            workers.run(range(blocks), work)
        assert sorted(start for start, _, _ in ran) == list(range(blocks))
        return built, ran

    threads = threading.active_count()
    assert run(1) == ([caller], [(0, caller, threads)])
    assert run(3)[0] == [caller] * 3


def test_certify_enumerates_canonical_reps_once(monkeypatch):
    calls = []

    def counted(d, radius):
        calls.append((d, radius))
        return enumerate_canonical(d, radius)

    monkeypatch.setattr(certify_mod, "enumerate_canonical", counted)
    cert = certify_bounds(3, 3, 5.0)
    assert calls == [(3, 10.0)]
    assert cert.search_radius < 10.0
    assert cert.diagnostics["canonical_candidates"] == len(
        enumerate_canonical(3, cert.search_radius))


def test_certify_refuses_an_over_budget_search_before_any_stage(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a stage ran before the canonical budget check")

    monkeypatch.setattr(certify_mod, "SumConfig", SimpleNamespace(create=never))
    monkeypatch.setattr(certify_mod, "build_asymptotic_model", never)
    monkeypatch.setattr(certify_mod, "far_bound", never)
    assert issubclass(PointBudgetExceeded, ParameterError)
    with pytest.raises(PointBudgetExceeded, match="canonical reps d=2, radius=5000.0"):
        certify_bounds(2, 2, 2500.0)


def test_t_escalation_builds_each_direction_coefficient_once(monkeypatch):
    """z and the Q_l extrema do not depend on t, so raising t from 6 to 8
    builds only Q_6; the model equals one built at t = 8 from scratch."""
    calls = []

    def counted(fn):
        def wrapped(*args):
            calls.append((fn.__name__, args[1:]))
            return fn(*args)
        return wrapped

    monkeypatch.setattr(certify_mod, "build_Q", counted(build_Q))
    monkeypatch.setattr(certify_mod, "Z_n", counted(certify_mod.Z_n))
    cert = certify_bounds(3, 1.6, 10.0)
    assert cert.t == 8
    assert calls == [("Z_n", ()), ("build_Q", (2,)), ("build_Q", (4,)),
                     ("build_Q", (6,))]
    cfg = SumConfig.create(3, 1.6, 10.0)
    fresh = build_asymptotic_model(cfg, 8)
    assert cert.diagnostics["z_n"] == fresh.z
    assert list(cert.diagnostics["q_upper"].items()) == list(fresh.q_upper.items())
    assert list(cert.diagnostics["q_lower"].items()) == list(fresh.q_lower.items())
    assert cert.asymptotic_bound == far_bound(fresh, cfg, cert.search_radius)


#: (d, n, rho): the certificate's q_upper and q_lower hex by l, and the
#: integer shell-total vectors and moments build_Q makes for them.  One
#: moment per multi-index took 42 at d4n3 (l = 2, 4), and 435 at d5 and
#: 760 at d6 (l = 2 to 8).
Q_PINS = {
    (4, 3, 10.0): (
        ["0x1.d8bbf465b2e25p+7", "0x1.d24de93281b71p+12"],
        ["0x1.ff21fd33724e7p+6", "0x1.c5736cc4a4516p+12"], 6, 9),
    (5, 2.501, 5.0): (
        ["0x1.07d17580baa2cp+9", "0x1.966e1bddd7d9dp+12",
         "0x1.f0fc72eb5d9cfp+16", "0x1.4c550ae55b701p+21"],
        ["0x1.b79a0b501fb9fp+8", "0x1.7cbe6fa57023fp+12",
         "0x1.576ba745dcf7fp+16", "0x1.20d9feac5b726p+19"], 18, 38),
    (6, 3.1, 5.0): (
        ["0x1.28b2b5c3d5549p+9", "0x1.f9586c000e021p+12",
         "0x1.0ae4427caaa39p+17", "0x1.9433c6636f601p+21"],
        ["0x1.b9151dfb18c9bp+8", "0x1.ba10a84dc1f4fp+12",
         "0x1.ad57bedefa57fp+16", "0x1.363905181dfdep+20"], 18, 38),
}


@pytest.mark.parametrize("d,n,rho", list(Q_PINS))
def test_direction_coefficients_take_one_moment_per_orbit(monkeypatch, d, n, rho):
    """build_Q rounds one moment per sorted multi-index and degree, from
    integer shell totals built once per sorted multi-index and config, and
    the certificate's q_upper and q_lower keep their bits."""
    upper, lower, totals, moments = Q_PINS[d, n, rho]
    made, rounded = [], []

    class Counted(SumConfig):
        def __post_init__(self):
            super().__post_init__()
            made.append(self)

        def shell_round(self, totals, p):
            rounded.append(p)
            return super().shell_round(totals, p)

    monkeypatch.setattr(certify_mod, "SumConfig", Counted)
    cert = certify_bounds(d, n, rho)
    assert [v.hex() for v in cert.diagnostics["q_upper"].values()] == upper
    assert [v.hex() for v in cert.diagnostics["q_lower"].values()] == lower
    assert len(made[0]._moments) == totals
    assert len(rounded) == 1 + moments  # Z_n's, then build_Q's


def test_screen_forms_one_term_per_orbit(monkeypatch):
    """The screen at d = 4, n = 3, rho = 4.5 forms 101,180 weighted orbit
    terms over its 223 reps, against 223 N/2 = 227,460 over the half ball;
    each class's orbits are built once."""
    formed, built = [], []

    class Counted(sums_mod._PairedTerms):
        def load(self, kind):
            self.kind = kind
            super().load(kind)

        def __call__(self, ks, buffer):
            formed.append(len(ks) * self.terms[self.kind])
            return super().__call__(ks, buffer)

    orbit_rows = sums_mod._orbit_rows
    monkeypatch.setattr(sums_mod, "_orbit_rows",
                        lambda half, kind: built.append(kind) or orbit_rows(half, kind))
    monkeypatch.setattr(certify_mod, "_PairedTerms", Counted)
    cfg = SumConfig.create(4, 3, 4.5)
    assert search_sup_Km(cfg, 9.0)[2] == 223
    assert len(cfg.ball) == 2040 and sum(formed) == 101_180
    assert sorted(built) == list(range(15))


def test_orbit_terms_stay_exact_at_the_canonical_budget():
    """c_P 4 |h^k|^2 < c_P (c + 1)^4 stays below 2^53, so exact, for every
    search enumerate_canonical accepts: c = isqrt(max |k|^2) has
    comb(c + d, d) <= CANONICAL_BUDGET, |k| < c + 1 >= 2 rho > 2 |h|, and
    c_P <= min(|S_k|, N/2), |S_k| <= 2^(d-1) (d-1)!, N <= POINT_BUDGET."""
    for d in range(2, 21):
        c = 0
        while math.comb(c + 1 + d, d) <= CANONICAL_BUDGET:
            c += 1
        weight = min(2 ** (d - 1) * math.factorial(d - 1), POINT_BUDGET // 2)
        assert weight * (c + 1) ** 4 < 2**53


def test_search_interrupt_stops_within_one_block_per_worker(monkeypatch):
    """An interrupt in one worker propagates, and once the search halts each
    other worker starts at most one more block, here of one rep."""
    workers, fail_at = 3, 40
    calls, halted_at = [], []

    class Halt(threading.Event):
        def set(self):
            super().set()
            if not halted_at:
                halted_at.append(len(calls))

    def kernel(ks):
        calls.append(tuple(ks[0].tolist()))
        if len(calls) >= fail_at:
            raise KeyboardInterrupt
        return np.full(len(ks), 7.0)

    monkeypatch.setattr(
        kernel_mod, "threading", SimpleNamespace(Event=Halt, Lock=threading.Lock)
    )
    _stub_screen(monkeypatch, kernel)
    monkeypatch.setattr(certify_mod, "K_m", lambda k, cfg: 1.0)
    monkeypatch.setattr(certify_mod, "_BLOCK_TERMS", 1)
    cfg = SumConfig.create(3, 2, 5.0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with pytest.raises(KeyboardInterrupt):
            search_sup_Km(cfg, 30.0, threads=workers)
    finally:
        sys.setswitchinterval(interval)
    halt = halted_at[0]
    assert fail_at <= halt
    assert len(calls) - halt <= workers - 1
    assert len(set(calls)) == len(calls) < len(enumerate_canonical(3, 30.0))


def test_search_worker_error_propagates_before_any_exact_sum(monkeypatch):
    """An exception in a pool worker reaches the caller, and the exact sums
    of the second phase never run on a partly screened search."""
    caller, started = threading.get_ident(), threading.Event()

    def kernel(ks):
        if threading.get_ident() == caller:
            assert started.wait(timeout=10)  # the pool worker takes a block
            return np.full(len(ks), 7.0)
        started.set()
        raise ValueError("screen failed")

    def never(k, cfg):
        raise AssertionError("a row was summed exactly")

    _stub_screen(monkeypatch, kernel)
    monkeypatch.setattr(certify_mod, "K_m", never)
    monkeypatch.setattr(certify_mod, "_BLOCK_TERMS", 1)
    with pytest.raises(ValueError, match="screen failed"):
        search_sup_Km(SumConfig.create(3, 2, 5.0), 30.0, threads=2)


def test_certify_parameter_errors():
    assert ParameterError is advbounds.ParameterError is sums_mod.ParameterError
    with pytest.raises(ParameterError, match="integer d >= 2"):
        certify_bounds(3.0, 2, 10.0)
    with pytest.raises(ParameterError, match="n > d/2"):
        certify_bounds(3, 1, 10.0)
    with pytest.raises(ParameterError, match=r"rho > 2\*sqrt\(d\) = 3.46"):
        certify_bounds(3, 2, 3.0)


def test_inconclusive_search_radius(monkeypatch):
    """If no radius and no t brings the far bound below the searched
    maximum, the search covers |k| < 2 rho and the certificate takes the
    larger of the two as its bound on sup K_m rather than silently
    under-reporting; the searched maximum stays the attained lower end."""
    radii_seen = []

    def tiny_search(cfg, radius, far=None, threads=None):
        radii_seen.append(radius)
        assert far(radius * 11 / 20) > far(radius) > 0.001
        return 0.001, (1, 0, 0), 1, radius

    monkeypatch.setattr(certify_mod, "_search", tiny_search)
    cert = certify_bounds(3, 2, 5.0)
    delta_k = cert.diagnostics["delta_k"]
    assert radii_seen == [10.0]
    assert (cert.t, cert.search_radius) == (10, 10.0)
    assert cert.asymptotic_bound > cert.sup_Km == 0.001
    assert cert.sup_KK_interval.lower == 0.001
    assert cert.sup_KK_interval.upper == cert.asymptotic_bound + delta_k
    scale = (2.0 * math.pi) ** -1.5
    assert cert.K_plus == scale * math.sqrt(cert.sup_KK_interval.upper)
    assert set(cert.diagnostics["q_upper"]) == {2, 4, 6, 8}
