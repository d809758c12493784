import itertools
import math
import sys
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from numpy.polynomial import polynomial as npp

import advbounds.kernel as kernel_mod
from advbounds.kernel import (
    SAMPLED_ORDER,
    EnclosureWidthError,
    _BaseGrid,
    _cell_upper,
    remainder_bound,
    remainder_majorant,
    remainder_extrema,
    remainder_values,
    sampled_maxima,
    series_switch,
    substituted_coeff,
    taylor_coeff,
)
from conftest import rel_err
from oracles import (
    KernelDomainError,
    eval_E,
    even_remainder_mp,
    gegenbauer_maxima_mp,
    taylor_exact,
)


def eval_remainder(n, t, c, xi):
    """remainder_values at one point, as a float."""
    return float(remainder_values(n, t, c, xi))


def test_eval_E_examples():
    # xi = 0: kernel reduces to 1 - c^2 regardless of n
    assert eval_E(2, 0.5, 0.0) == 0.75
    assert eval_E(7, 0.5, 0.0) == 0.75
    got = eval_E(2, 0.5, 0.25)  # denominator base 0.8125
    assert rel_err(got, 0.75 / 0.8125**3) < 1e-15
    assert eval_E(3, -1.0, 0.3) == 0.0


def test_eval_E_domain_error():
    with pytest.raises(KernelDomainError):
        eval_E(2, 2.0, 0.5)
    with pytest.raises(KernelDomainError):
        eval_E(2, 1.0, 1.0)  # base exactly zero


def test_taylor_coeff_low_orders_exact():
    """First three coefficient polynomials against the closed forms, as floats
    and in the exact oracle."""
    for n in (2, 3, 10):
        for coeffs in (taylor_coeff(n, 0), taylor_exact(n, 0)):
            assert coeffs == (1, 0, -1)
        for coeffs in (taylor_coeff(n, 1), taylor_exact(n, 1)):
            assert coeffs == (0, 2 * (n + 1), 0, -2 * (n + 1))
        for coeffs in (taylor_coeff(n, 2), taylor_exact(n, 2)):
            assert coeffs == (
                -(n + 1),
                0,
                2 * n * n + 7 * n + 5,
                0,
                -(2 * n * n + 6 * n + 4),
            )
        assert all(type(c) is float for c in taylor_coeff(n, 2))


def test_taylor_coeff_fractional_order():
    e2 = taylor_exact(Fraction(5, 2), 2)
    assert e2 == (Fraction(-7, 2), 0, 35, 0, Fraction(-63, 2))
    # the float path gives the same values, in floats, for every spelling of n
    for n in (2.5, Fraction(5, 2), np.float64(2.5)):
        f2 = taylor_coeff(n, 2)
        assert all(type(c) is float for c in f2)
        assert f2 == (-3.5, 0.0, 35.0, 0.0, -31.5)


@pytest.mark.parametrize("n", [2, 2.5, 3, 4, 5, 10, 12])
def test_taylor_coeff_matches_exact_recurrence(n):
    """The float recurrence returns the exact coefficients rounded to nearest,
    bit for bit, at every order the pipeline asks for (l <= 19)."""
    for ell in range(20):
        want = tuple(float(x) for x in taylor_exact(Fraction(n), ell))
        got = taylor_coeff(n, ell)
        assert [x.hex() for x in got] == [x.hex() for x in want], ell


def test_taylor_coeff_degree_and_parity():
    for ell in range(13):
        e = taylor_coeff(2, ell)
        assert len(e) == ell + 3 and e[-1] != 0
        for j, c in enumerate(e):
            if j % 2 != ell % 2:
                assert c == 0
    with pytest.raises(ValueError):
        taylor_coeff(2, -1)


def test_taylor_partial_sums_converge_to_kernel():
    """The recurrence really expands the kernel: partial sums at small xi."""
    for n in (2, 4):
        for c in (-0.7, 0.0, 0.31, 0.95):
            xi = 0.05
            total = math.fsum(
                npp.polyval(c, taylor_coeff(n, l)) * xi**l for l in range(31)
            )
            assert rel_err(total, eval_E(n, c, xi)) < 1e-10


def test_substituted_coeff():
    base = taylor_exact(2, 2)
    sub = substituted_coeff(2, 2, 3)
    assert sub[2] == 0
    assert rel_err(sub[0], float(base[0] + base[2] / 3)) < 1e-15
    assert sub[4] == base[4]
    with pytest.raises(ValueError, match="even ell"):
        substituted_coeff(2, 3, 3)
    with pytest.raises(ValueError, match="d >= 2"):
        substituted_coeff(2, 2, 1)


def test_eval_remainder_at_zero_equals_coefficient():
    for n, t, c in ((2, 6, 0.37), (3, 4, -0.9), (5, 6, 0.0)):
        want = float(npp.polyval(c, taylor_coeff(n, t)))
        assert rel_err(eval_remainder(n, t, c, 0.0), want) < 1e-13


def test_eval_remainder_vanishes_at_endpoint_c():
    # every E_nl carries the (1 - c^2) factor, so the remainder is 0 at c = +/-1
    for xi in (0.0, 0.01, 0.3, 0.5):
        assert eval_remainder(2, 4, 1.0, xi) == 0.0
        assert eval_remainder(2, 4, -1.0, xi) == 0.0


def _mp_remainder(n_exact, t, cv, xv):
    """High-precision reference via the defining quotient."""
    with mp.workdps(60):
        cm, xm = mp.mpf(repr(cv)), mp.mpf(repr(xv))
        den = 1 - 2 * cm * xm + xm * xm
        npow = mp.mpf(n_exact.numerator) / n_exact.denominator + 1
        e = (1 - cm * cm) * den ** (-npow)
        head = mp.mpf(0)
        for l in range(t):
            pl = mp.mpf(0)
            for a in reversed(taylor_exact(n_exact, l)):
                pl = pl * cm + mp.mpf(a.numerator) / a.denominator
            head += pl * xm**l
        return float((e - head) / xm**t)


@pytest.mark.parametrize("n,t", [(2, 6), (3, 6), (5, 4), (Fraction(5, 2), 6)])
def test_eval_remainder_against_mpmath(n, t):
    switch = series_switch(t)
    for c in (-0.9, -0.3, 0.2, 0.8):
        for xi in (0.001, switch * 0.9, switch * 1.01, 0.049, 0.2, 0.5):
            got = eval_remainder(float(n), t, c, xi)
            want = _mp_remainder(Fraction(n), t, c, xi)
            if xi <= switch:
                tol = 1e-12 * (1.0 + abs(want))
            else:
                # direct branch loses ~eps/xi^t to cancellation
                tol = 1e-12 + 1e-15 / xi**t
            assert abs(got - want) <= tol


def test_frozen_remainder_samples():
    assert rel_err(eval_remainder(2, 6, -0.3, 0.005), 9.20139166584911) < 1e-12
    assert rel_err(eval_remainder(5, 4, 0.37, 0.5), -19.239132066688235) < 1e-12


def test_series_switch_and_branch_continuity():
    assert series_switch(6) == pytest.approx(10.0 ** (-11.0 / 6.0))
    assert series_switch(100) == 0.1
    assert series_switch(1) == 1e-3
    for n in (2, 5):
        s = series_switch(6)
        lo = eval_remainder(n, 6, 0.4, s * (1 - 1e-9))
        hi = eval_remainder(n, 6, 0.4, s * (1 + 1e-9))
        assert rel_err(lo, hi) < 1e-5


def test_remainder_values_vectorized_matches_scalar(rng):
    c = rng.uniform(-1.0, 1.0, size=40)
    xi = rng.uniform(0.0, 0.5, size=40)
    vec = remainder_values(2, 6, c, xi)
    for i in range(40):
        assert vec[i] == eval_remainder(2, 6, c[i], xi[i])


@pytest.mark.parametrize("n", [3, 2.5, Fraction(7, 2)])
@pytest.mark.parametrize("t", [2, 6, 14])
def test_grid_values_bitwise_match_meshgrid(monkeypatch, n, t):
    """Each block of the base grid of remainder_extrema holds remainder_values
    on the meshgrid, bit for bit, with both branches present.  A block size
    that does not divide the 40 cell rows of 41 vertex rows crosses several
    row blocks and a ragged last one, in buffers reused from block to block."""
    monkeypatch.setattr(kernel_mod, "_BLOCK_ROWS", 7)
    cgrid = np.linspace(-1.0, 1.0, 41)
    xgrid = np.linspace(0.0, 0.5, 21)
    assert 0 < np.searchsorted(xgrid, series_switch(t), side="right") < 21
    mc, mx = np.meshgrid(cgrid, xgrid, indexing="ij")
    want = remainder_values(n, t, mc.ravel(), mx.ravel()).reshape(41, 21)
    grid = _BaseGrid(n, t, cgrid, xgrid)
    buffers = grid.buffers()
    for i in range(0, 40, 7):
        got = grid.values(i, buffers)
        assert got.shape == (min(8, 41 - i), 21)
        assert np.array_equal(got.view(np.int64), want[i:i + 8].view(np.int64))


def reference_base_cells(n, t, cgrid, xgrid):
    """The base-grid cells kept before the grid ran in blocks: the whole
    meshgrid of remainder_values, _cell_upper on every cell of R and of -R,
    and the cells whose bound beats the grid's best sample, in row-major
    order, as (best, [c0, x0, f00, f10, f01, f11, ub])."""
    mc, mx = np.meshgrid(cgrid, xgrid, indexing="ij")
    base = remainder_values(n, t, mc, mx)
    corners = [base[:-1, :-1], base[1:, :-1], base[:-1, 1:], base[1:, 1:]]
    found = []
    for best, fs in ((float(base.max()), corners),
                     (-float(base.min()), [-f for f in corners])):
        ub = _cell_upper(*fs)
        keep = ub > best
        rows, cols = np.nonzero(keep)
        found.append((best, [cgrid[rows], xgrid[cols], *(f[keep] for f in fs), ub[keep]]))
    return found


@pytest.mark.parametrize("n,t", [(2, 6), (10, 6), (3, 14)])
def test_base_grid_keeps_the_reference_cells(monkeypatch, n, t):
    """Each block keeps the cells that beat its own best; after the last,
    the grid's best filters them.  The kept cells, their corners and bounds
    are the whole-grid reference's, bit for bit and in the same order, at
    one to three workers and a block size that leaves a ragged last block."""
    monkeypatch.setattr(kernel_mod, "_BLOCK_ROWS", 7)
    cgrid = np.linspace(-1.0, 1.0, 201)
    xgrid = np.linspace(0.0, 0.5, 101)
    want = reference_base_cells(n, t, cgrid, xgrid)
    for workers in (1, 2, 3):
        monkeypatch.setattr(kernel_mod, "_cpu_workers", lambda: workers)
        got = _BaseGrid(n, t, cgrid, xgrid).scan()
        for (got_best, got_cells), (best, cells) in zip(got, want):
            assert got_best == best and cells[0].size > 0
            assert len(got_cells) == len(cells) == 7
            for g, w in zip(got_cells, cells):
                assert np.array_equal(g.view(np.int64), w.view(np.int64))


def test_remainder_extrema_known_values():
    ex = remainder_extrema(2, 6)
    assert rel_err(ex.mu, -22.72069717513955) < 1e-5
    assert rel_err(ex.M, 73.83576628350347) < 1e-5
    assert ex.mu_width >= 0.0 and ex.M_width >= 0.0
    ex5 = remainder_extrema(5, 6)
    assert rel_err(ex5.mu, -264.4475230) < 1e-5
    assert rel_err(ex5.M, 7252.9785274) < 1e-5


#: float.hex of (mu, M, mu_width, M_width), recorded before the base grid was
#: built in row blocks; any changed bit of the enclosure shows here.
REMAINDER_EXTREMA_PINS = {
    (2, 6): ("-0x1.6b87f9c2d8b40p+4", "0x1.2757d31ddafcdp+6",
             "0x1.6645f8b800000p-16", "0x1.d126150800000p-15"),
    (2.5, 6): ("-0x1.337b1603d7240p+5", "0x1.6933d261d6766p+7",
               "0x1.4895cef800000p-16", "0x1.5757105200000p-13"),
    (3, 6): ("-0x1.e9eb42d23aac0p+5", "0x1.9abfb89bb2bb7p+8",
             "0x1.192228fa00000p-15", "0x1.d400cea800000p-13"),
    (5, 6): ("-0x1.087290de28763p+8", "0x1.c54fa80c5df83p+12",
             "0x1.798f508c00000p-13", "0x1.f4c1d2fa00000p-9"),
    (10, 6): ("-0x1.42d07685a665ap+11", "0x1.1b07f18ba4635p+22",
              "0x1.3c76a4ec00000p-9", "0x1.d97a904e00000p+1"),
    (13, 6): ("-0x1.97aa177039b32p+12", "0x1.ba435bbcbb04dp+27",
              "0x1.c23d77b000000p-11", "0x1.0d54f88500000p+7"),
    (2, 4): ("-0x1.311af5c8739e6p+3", "0x1.270fc071e708ep+5",
             "0x1.36e4fb7a00000p-17", "0x1.fdb3ccce00000p-16"),
    (2, 8): ("-0x1.6276ba06c0e1ep+5", "0x1.02b9f5912ccf6p+7",
             "0x1.d216923000000p-16", "0x1.80f64c3c00000p-14"),
}


@pytest.mark.parametrize("n,t", list(REMAINDER_EXTREMA_PINS))
def test_remainder_extrema_pinned_bits(n, t):
    ex = remainder_extrema(n, t)
    got = (ex.mu.hex(), ex.M.hex(), ex.mu_width.hex(), ex.M_width.hex())
    assert got == REMAINDER_EXTREMA_PINS[n, t]


def test_remainder_extrema_independent_of_block_size(monkeypatch):
    """Row blocks of 7 leave a ragged last block of the 2000 cell rows, and
    32 was the default before the blocks ran on workers; one to three workers
    take the blocks in any order.  The enclosure keeps every bit of the
    pinned one at each pair.  (13, 6), whose refinement alone takes over a
    second, is left to the test above."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # a lost or misplaced block would show
    try:
        for block_rows, workers in itertools.product((7, 32), (1, 2, 3)):
            monkeypatch.setattr(kernel_mod, "_BLOCK_ROWS", block_rows)
            monkeypatch.setattr(kernel_mod, "_cpu_workers", lambda: workers)
            for n, t in REMAINDER_EXTREMA_PINS:
                if (n, t) == (13, 6):
                    continue
                ex = remainder_extrema(n, t)
                got = (ex.mu.hex(), ex.M.hex(), ex.mu_width.hex(), ex.M_width.hex())
                assert got == REMAINDER_EXTREMA_PINS[n, t], (n, t, block_rows, workers)
    finally:
        sys.setswitchinterval(interval)


def test_remainder_extrema_peak_memory():
    """No grid-sized array is held: each worker evaluates and bounds its row
    blocks in buffers of _BLOCK_ROWS + 1 rows, and only the series columns
    (about 3% of the grid) and the cells that may beat a block's best sample
    outlive a block."""
    import tracemalloc

    tracemalloc.start()
    try:
        remainder_extrema(2, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


def test_remainder_extrema_enclose_grid_samples(monkeypatch):
    """Outwardness: every sampled value lies inside [mu, M]."""
    monkeypatch.setattr(kernel_mod, "GRID_RESOLUTION", 301)
    ex = remainder_extrema(2, 6)
    c = np.linspace(-1.0, 1.0, 217)
    xi = np.linspace(0.0, 0.5, 131)
    vals = remainder_values(2, 6, c[:, None], xi[None, :])
    assert ex.mu <= float(vals.min())
    assert float(vals.max()) <= ex.M


def test_remainder_extrema_validation_and_failure(monkeypatch):
    with pytest.raises(ValueError, match="t >= 1"):
        remainder_extrema(2, 0)
    monkeypatch.setattr(kernel_mod, "GRID_RESOLUTION", 101)
    monkeypatch.setattr(kernel_mod, "TARGET_REL", 1e-18)
    monkeypatch.setattr(kernel_mod, "MAX_LEVELS", 2)
    with pytest.raises(EnclosureWidthError, match="after 2 refinement levels"):
        remainder_extrema(2, 6)


def test_remainder_extrema_active_cell_cap(monkeypatch):
    """A refinement level that would split more than MAX_ACTIVE_CELLS cells is
    refused, naming the count."""
    monkeypatch.setattr(kernel_mod, "GRID_RESOLUTION", 101)
    monkeypatch.setattr(kernel_mod, "MAX_ACTIVE_CELLS", 3)
    with pytest.raises(EnclosureWidthError, match=r"needs \d+ active cells, more "
                       r"than the cap of 3"):
        remainder_extrema(2, 6)


def test_remainder_extrema_int_and_float_order_agree():
    """An integer order runs the same float recurrence as its float spelling,
    in either call order, so both give the same enclosure bit for bit."""
    first = remainder_extrema(3, 6)
    second = remainder_extrema(3.0, 6)
    assert first == second
    assert taylor_coeff(3, 8) is taylor_coeff(3.0, 8)


#: Orders at which the closed-form bound is checked against the grid: the
#: certified rows, the orders near d/2 whose gates need t = 8 or 10, and
#: n = 13, the largest the grid's cell cap took before the closed form.
REMAINDER_BOUND_ORDERS = (1.6, 2, 2.2, 2.5, 2.501, 3, 3.1, 4, 5, 10, 13)


@pytest.mark.parametrize("t", [6, 8, 10])
@pytest.mark.parametrize("n", REMAINDER_BOUND_ORDERS)
def test_remainder_bound_encloses_the_grid(n, t):
    """-G <= mu and M <= G: a model on (-G, G) majorizes the grid's model,
    so a gate that G closes also closes under the grid at the same t, and
    certify_bounds' report does not depend on which of the two closed it."""
    g = remainder_bound(n, t)
    ex = remainder_extrema(n, t)
    assert -g <= ex.mu and ex.M <= g


@pytest.mark.parametrize("t", [6, 8, 10])
@pytest.mark.parametrize("n", REMAINDER_BOUND_ORDERS)
def test_remainder_bound_closed_form(n, t):
    """G sums the majorant series C_l(1) (1/2)^(l-t), C_l(1) = binom(l + 2n +
    1, l), whose full sum is (1 - 1/2)^-(2n+2) times 2^t: so G = 2^t (2^(2n+2)
    - sum_{l<t} C_l(1) 2^-l), which G rounds up, by at most two ulps."""
    with mp.workdps(50):
        nn = mp.mpf(float(n))
        head = mp.fsum(mp.binomial(ell + 2 * nn + 1, ell) / mp.mpf(2) ** ell
                       for ell in range(t))
        exact = mp.mpf(2) ** t * (mp.mpf(2) ** (2 * nn + 2) - head)
        g = remainder_bound(n, t)
        assert exact <= g <= exact + 2 * math.ulp(g), (n, t, g)


#: G(n, t) at t = 6, 8, 10 in hex, as the exact-Fraction summation gave them.
REMAINDER_BOUND_HEX = {
    1.6: ("0x1.d8cd9d2c3e2d6p+9", "0x1.f30e9cfbb4ae8p+10", "0x1.d9805fb84d7b2p+11"),
    2: ("0x1.0000000000001p+11", "0x1.2980000000001p+12", "0x1.3500000000001p+13"),
    2.2: ("0x1.7164b36489814p+11", "0x1.c07dbb79ef58bp+12", "0x1.e5e257d8af63ap+13"),
    2.5: ("0x1.39c0000000001p+12", "0x1.94c0000000001p+13", "0x1.d168000000001p+14"),
    2.501: ("0x1.3a4b13d41c904p+12", "0x1.95876342b1ad2p+13", "0x1.d2641d26a0cb5p+14"),
    3: ("0x1.6b40000000001p+13", "0x1.0000000000001p+15", "0x1.4214000000001p+16"),
    3.1: ("0x1.ab5ce48219a64p+13", "0x1.3206b1891dfc6p+15", "0x1.877c7a365b41ep+16"),
    4: ("0x1.b2c0000000001p+15", "0x1.5ef6000000001p+17", "0x1.0000000000001p+19"),
    5: ("0x1.db46000000001p+17", "0x1.a406000000001p+19", "0x1.561cc00000001p+21"),
    10: ("0x1.ff9ccc0000001p+27", "0x1.fdeb304000001p+29", "0x1.f876018000001p+31"),
    13: ("0x1.fffba98e00001p+33", "0x1.ffdeb0ce00001p+35", "0x1.ff58048180001p+37"),
}


@pytest.mark.parametrize("n", REMAINDER_BOUND_ORDERS)
def test_remainder_bound_bits(n):
    """The integer summation over one common denominator rounds the same
    exact rational as the Fraction one did, so G keeps its bits."""
    got = tuple(remainder_bound(n, t).hex() for t in (6, 8, 10))
    assert got == REMAINDER_BOUND_HEX[n]


def test_remainder_bound_past_the_largest_float_is_inf():
    """G, just under 2^(2n+2+t), passes the largest float at n = 508 for
    t = 6; the sum then stops with inf rather than run out its terms.  A
    grid that gives up leaves G standing, so G is finite at every n a search
    accepts: the search refuses |k|^(2n) past the float range first, and at
    d = 2, rho just above 2 sqrt 2 (|k|^2 up to 32) it accepts n = 204 and
    refuses 205; every other (d, rho) refuses sooner."""
    assert math.isfinite(remainder_bound(507, 6))
    assert math.isfinite(remainder_bound(211, 10))
    assert remainder_bound(508, 6) == math.inf
    assert remainder_bound(1e300, 10) == math.inf


MAJORANT_ORDERS = (1.6, 2, 2.2, 2.501, 3, 4, 5, 10, 13, 41)


@pytest.mark.parametrize("n", MAJORANT_ORDERS)
def test_sampled_maxima_bound_the_dense_maximum(n):
    """Each M_l of sampled_maxima lies above a dense 25-digit maximum of
    E_nl over [-1, 1]; up to l = 30, where 200 samples resolve each peak,
    it is within 9% of it (Ehlich and Zeller's factor 1/cos(pi/8) is
    1.083).  C_l(1) caps it."""
    maxima, caps = sampled_maxima(n)
    assert len(maxima) == SAMPLED_ORDER // 2 + 1
    dense = gegenbauer_maxima_mp(n, SAMPLED_ORDER, samples=200, dps=25)
    for ell in range(0, SAMPLED_ORDER + 1, 2):
        m, want = maxima[ell // 2], dense[ell]
        assert want <= m <= caps[ell // 2], (ell, m, want)
        assert ell > 30 or m <= 1.09 * want, (ell, m, want)


@pytest.mark.parametrize("t", (6, 8, 10))
@pytest.mark.parametrize("n", MAJORANT_ORDERS)
def test_remainder_majorant_bounds_the_even_remainder(n, t):
    """B_t(x) lies above (R_nt(c, xi) + R_nt(-c, xi)) / 2 at every sampled
    c and xi <= x, evaluated in mpmath from the closed-form kernel, up to x
    = 0.85, past the largest 1/1.1 the ladder's lowest rung needs."""
    xs = (0.05, 0.3, 0.5, 0.7, 0.85)
    bound = remainder_majorant(n, t, np.array(xs), Fraction(17, 20))
    assert (np.diff(bound) > 0).all()
    for x, b in zip(xs, bound.tolist()):
        for j in range(0, 11):
            c = math.cos(math.pi * j / 20)
            assert even_remainder_mp(n, t, c, x) <= b, (x, c)


def test_remainder_bound_at_other_x():
    """G(n, t, x) = sum_{l>=t} C_l(1) x^(l-t) at x = 1/2 is remainder_bound's
    default, and at x = 2/3, n = 2, the closed form 1.5^t (3^6 -
    sum_{l<t} C_l(1) (2/3)^l), C_l(1) = binom(l + 5, 5), rounded up."""
    assert remainder_bound(2, 6, Fraction(1, 2)) == remainder_bound(2, 6)
    x = Fraction(2, 3)
    exact = (1 / x) ** 6 * (3**6 - sum(math.comb(l + 5, 5) * x**l for l in range(6)))
    got = remainder_bound(2, 6, x)
    assert exact <= got <= math.nextafter(float(exact), math.inf)
