import math

import numpy as np
import pytest

from advbounds.fields import (
    FourierField,
    advect,
    field_from_text,
    field_to_text,
    leray_project,
    lower_bound_witness,
    sobolev_norm,
    trial_pair,
    witness_prediction,
)
from advbounds.sums import SumConfig
from conftest import rel_err
from oracles import (
    advect_loop,
    is_divergence_free,
    kk_direct,
    leray_loop,
    sobolev_loop,
)


def random_field(rng, d, n_modes=4, span=2):
    """Sparse random real field supported on small wavenumbers."""
    partial = {}
    while len(partial) < n_modes:
        k = tuple(int(x) for x in rng.integers(-span, span + 1, size=d))
        if any(k) and tuple(-x for x in k) not in partial:
            partial[k] = rng.normal(size=d) + 1j * rng.normal(size=d)
    return FourierField.build(d, partial)


def scale_field(field, s):
    return FourierField(
        d=field.d, coeffs={k: s * c for k, c in field.coeffs.items()}
    )


def add_fields(a, b):
    out = {k: np.array(c) for k, c in a.coeffs.items()}
    for k, c in b.coeffs.items():
        out[k] = out.get(k, 0.0) + c
    return FourierField(d=a.d, coeffs=out)


def test_field_construction_and_reality():
    f = FourierField.build(3, {(1, 0, 0): (0.0, 1.0, 2.0 + 1.0j)})
    assert sorted(f.coeffs) == [(-1, 0, 0), (1, 0, 0)]
    assert np.array_equal(f.coeffs[(-1, 0, 0)], np.conj(f.coeffs[(1, 0, 0)]))
    with pytest.raises(ValueError, match="zero-mean"):
        FourierField.build(3, {(0, 0, 0): (1.0, 0.0, 0.0)})
    with pytest.raises(ValueError, match="expected"):
        FourierField.build(3, {(1, 0, 0): (1.0, 0.0)})
    with pytest.raises(ValueError, match=r"component of 2\^62 or more"):
        FourierField.build(2, {(2**62, 1): (1.0, 0.0)})
    with pytest.raises(ValueError, match="reality violated"):
        FourierField(
            d=2,
            coeffs={
                (1, 0): np.array([1.0 + 0j, 0j]),
                (-1, 0): np.array([5.0 + 0j, 0j]),
            },
        )
    with pytest.raises(ValueError, match="missing"):
        FourierField(d=2, coeffs={(1, 0): np.array([1.0 + 0j, 0j])})


def test_field_reality_error_names_first_key_in_insertion_order():
    mismatched = {
        (1, 0): np.array([1.0 + 0j, 0j]),
        (-1, 0): np.array([5.0 + 0j, 0j]),
    }
    lonely = {(0, 2): np.array([1.0 + 0j, 0j])}
    with pytest.raises(ValueError, match=r"at \(1, 0\): conjugate mismatch"):
        FourierField(d=2, coeffs={**mismatched, **lonely})
    with pytest.raises(ValueError, match=r"\(0, -2\) missing for \(0, 2\)"):
        FourierField(d=2, coeffs={**lonely, **mismatched})


def test_field_coeffs_frozen():
    f = FourierField.build(2, {(1, 1): (1.0, 0.0)})
    with pytest.raises(ValueError):
        f.coeffs[(1, 1)][0] = 3.0


def test_leray_example():
    f = FourierField.build(3, {(1, 1, 0): (1.0, 0.0, 0.0)})
    p = leray_project(f)
    assert np.allclose(p.coeffs[(1, 1, 0)], [0.5, -0.5, 0.0], atol=1e-15)
    # orthogonal coefficient passes through, parallel one is annihilated
    g = leray_project(FourierField.build(3, {(1, 0, 0): (0.0, 2.0, 1.0j)}))
    assert np.array_equal(g.coeffs[(1, 0, 0)], np.array([0.0, 2.0, 1.0j]))
    h = leray_project(FourierField.build(3, {(2, 0, 0): (3.0, 0.0, 0.0)}))
    assert np.all(h.coeffs[(2, 0, 0)] == 0.0)  # annihilated, mode retained


def test_leray_is_projection(rng):
    for _ in range(100):
        f = random_field(rng, int(rng.integers(2, 5)))
        p = leray_project(f)
        assert is_divergence_free(p.coeffs)
        pp = leray_project(p)
        for k in sorted(p.coeffs):
            assert np.allclose(pp.coeffs[k], p.coeffs[k], atol=1e-13)
        assert sobolev_norm(p, 2) <= sobolev_norm(f, 2) * (1.0 + 1e-12)


def test_advect_single_mode_pair():
    """One input mode each: the output coefficients in closed form."""
    a = (0.0, 1.0, 0.0)  # on e1, divergence-free
    b = (1.0, 0.0, 2.0)  # on e2
    v = FourierField.build(3, {(1, 0, 0): a})
    w = FourierField.build(3, {(0, 1, 0): b})
    out = advect(v, w)
    assert set(out.coeffs) == {
        (1, 1, 0), (-1, -1, 0), (1, -1, 0), (-1, 1, 0)
    }
    pref = 1j * (2.0 * math.pi) ** -1.5
    # at k = e1 + e2 the only contribution is (v_{e1} . e2) w_{e2} = 1 * b
    assert np.allclose(out.coeffs[(1, 1, 0)], pref * np.asarray(b), atol=1e-16)
    # at k = e1 - e2: (v_{e1} . (-e2)) w_{-e2} = -conj(b)
    assert np.allclose(
        out.coeffs[(1, -1, 0)], -pref * np.conj(b), atol=1e-16
    )


def test_advect_dimension_mismatch():
    v = FourierField.build(2, {(1, 0): (0.0, 1.0)})
    w = FourierField.build(3, {(1, 0, 0): (0.0, 1.0, 0.0)})
    with pytest.raises(ValueError, match="dimension mismatch"):
        advect(v, w)


def test_advect_rejects_compressible_transport():
    v = FourierField.build(3, {(1, 0, 0): (1.0j, 0.0, 0.0)})  # v_k parallel to k
    w = FourierField.build(3, {(1, 0, 0): (0.0, 1.0, 0.0)})
    with pytest.raises(ValueError, match="nonzero mean"):
        advect(v, w)


def test_advect_mean_preserved_for_divergence_free(rng):
    for _ in range(20):
        v = leray_project(random_field(rng, 3))
        w = random_field(rng, 3)
        out = advect(v, w)
        assert all(any(k) for k in out.coeffs)


def test_advect_bilinear(rng):
    v1 = leray_project(random_field(rng, 3))
    v2 = leray_project(random_field(rng, 3))
    w = random_field(rng, 3)
    lhs = advect(add_fields(v1, v2), w)
    rhs = add_fields(advect(v1, w), advect(v2, w))
    for k in set(lhs.coeffs) | set(rhs.coeffs):
        a = lhs.coeffs.get(k, np.zeros(3, complex))
        b = rhs.coeffs.get(k, np.zeros(3, complex))
        assert np.allclose(a, b, atol=1e-12)
    doubled = advect(scale_field(v1, 2.0), scale_field(w, 3.0))
    base = advect(v1, w)
    for k in sorted(base.coeffs):
        assert np.allclose(doubled.coeffs[k], 6.0 * base.coeffs[k], atol=1e-12)


def _grid(field, n_grid, extra=None):
    """Real-space samples of sum_k c_k e^(ikx) on the 2 pi lattice, per component.

    extra multiplies each coefficient by a function of k (used for gradients).
    """
    d = field.d
    shape = (n_grid,) * d
    out = []
    for j in range(d):
        u = np.zeros(shape, dtype=complex)
        for k, c in field.coeffs.items():
            val = c[j] if extra is None else c[j] * extra(k)
            u[tuple(ki % n_grid for ki in k)] += val
        out.append(np.fft.ifftn(u) * n_grid**d)
    return out


@pytest.mark.parametrize("d,n_grid", [(2, 32), (3, 16)])
def test_advect_matches_pseudospectral_fft(rng, d, n_grid):
    """Convolution against a pointwise pseudospectral product on a grid."""
    v = leray_project(random_field(rng, d))
    w = random_field(rng, d)
    out = advect(v, w)
    v_grid = _grid(v, n_grid)
    scale = (2.0 * math.pi) ** (-d / 2.0)
    for m in range(d):
        prod = np.zeros((n_grid,) * d, dtype=complex)
        for j in range(d):
            dw = _grid(w, n_grid, extra=lambda k, j=j: 1j * k[j])[m]
            prod += v_grid[j] * dw
        coeffs = np.fft.fftn(prod) / n_grid**d * scale
        for k in sorted(out.coeffs):
            got = coeffs[tuple(ki % n_grid for ki in k)]
            assert abs(got - out.coeffs[k][m]) < 1e-10 * (1 + abs(got))
            coeffs[tuple(ki % n_grid for ki in k)] = 0.0
        assert float(np.abs(coeffs).max()) < 1e-10  # nothing outside the support


def test_sobolev_norm_examples():
    f = FourierField.build(3, {(1, 0, 0): (0.0, 1.0, 0.0)})
    for n in (0, 2, 5):
        assert rel_err(sobolev_norm(f, n), math.sqrt(2.0)) < 1e-15
    g = FourierField.build(3, {(1, 1, 0): (2.0, 0.0, 1.0j)})
    # |k|^2 = 2, |c|^2 = 5, both conjugate modes counted
    assert rel_err(sobolev_norm(g, 2), math.sqrt(2.0**2 * 5.0 * 2.0)) < 1e-14
    assert rel_err(sobolev_norm(scale_field(g, 0.25), 2),
                   0.25 * sobolev_norm(g, 2)) < 1e-14
    assert sobolev_norm(FourierField(d=3, coeffs={}), 2) == 0.0


def test_trial_pair_validation():
    with pytest.raises(ValueError, match="d >= 2"):
        trial_pair(1, 1.0, (), 1.0, ())
    with pytest.raises(ValueError, match="length d-2"):
        trial_pair(3, 1.0, (), 1.0, (1.0, 2.0))
    with pytest.raises(ValueError, match=r"zero trial amplitude: \(alpha"):
        trial_pair(3, 0.0, (0.0,), 1.0, (1.0,))
    with pytest.raises(ValueError, match=r"zero trial amplitude: \(beta"):
        lower_bound_witness(3, 2, 1.0, (0.0,), 0.0, (0.0,))


def test_trial_pair_structure():
    v, w = trial_pair(3, 1.0, (0.5j,), 0.25, (1.0,))
    assert sorted(v.coeffs) == [(-1, 0, 0), (1, 0, 0)]
    assert sorted(w.coeffs) == [(0, -1, 0), (0, 1, 0)]
    assert np.array_equal(v.coeffs[(1, 0, 0)], np.array([0.0, 1.0, 0.5j]))
    assert np.array_equal(w.coeffs[(0, 1, 0)], np.array([0.25, 0.0, 1.0]))
    assert is_divergence_free(v.coeffs) and is_divergence_free(w.coeffs)


@pytest.mark.parametrize("d", [3, 4, 5])
@pytest.mark.parametrize("n", [2, 3, 5])
def test_witness_canonical_value_high_d(d, n):
    """The extremal amplitudes give exactly 2^(n/2) (2 pi)^(-d/2) for d >= 3."""
    beta_vec = tuple([1.0] + [0.0] * (d - 3))
    got = lower_bound_witness(d, n, 1.0, (0.0,) * (d - 2), 0.0, beta_vec)
    want = 2.0 ** (n / 2.0) * (2.0 * math.pi) ** (-d / 2.0)
    assert rel_err(got, want) < 1e-10


def test_witness_d2_value():
    # d = 2 has no transverse beta component; the projection of (beta, 0)
    # orthogonal to (1, 1) keeps only |beta|^2/2, giving 2^((n-1)/2)/(2 pi)
    for n in (2, 3, 4):
        got = lower_bound_witness(2, n, 1.0, (), 1.0, ())
        want = 2.0 ** ((n - 1) / 2.0) / (2.0 * math.pi)
        assert rel_err(got, want) < 1e-10
    assert rel_err(lower_bound_witness(2, 3, 1.0, (), 1.0, ()), 1.0 / math.pi) < 1e-10


def test_witness_matches_prediction_random_amplitudes(rng):
    for d in (2, 3, 4, 5):
        for n in (2, 3):
            for _ in range(3):
                alpha = complex(rng.normal(), rng.normal())
                beta = complex(rng.normal(), rng.normal())
                av = tuple(
                    complex(rng.normal(), rng.normal()) for _ in range(d - 2)
                )
                bv = tuple(
                    complex(rng.normal(), rng.normal()) for _ in range(d - 2)
                )
                got = lower_bound_witness(d, n, alpha, av, beta, bv)
                want = witness_prediction(d, n, alpha, av, beta, bv)
                assert rel_err(got, want) < 1e-10


def test_witness_canonical_amplitudes_are_optimal():
    base = witness_prediction(3, 2, 1.0, (0.0,), 0.0, (1.0,))
    for alpha_tail, beta in [(0.3, 0.0), (0.0, 0.2), (0.5, 0.4), (1.0, 1.0)]:
        if alpha_tail == 0.0 and beta == 0.0:
            continue
        other = witness_prediction(3, 2, 1.0, (alpha_tail,), beta, (1.0,))
        assert other < base


def test_advection_inequality_against_certified_constant(rng):
    """A certified K_plus really dominates the Rayleigh quotient: frozen value
    from certify_bounds(3, 2, 5.0)."""
    k_plus = 0.8098684092986107
    for _ in range(20):
        v = leray_project(random_field(rng, 3))
        w = random_field(rng, 3)
        if not v.coeffs:
            continue
        lhs = sobolev_norm(leray_project(advect(v, w)), 2)
        rhs = k_plus * sobolev_norm(v, 2) * sobolev_norm(w, 3)
        assert lhs <= rhs * (1.0 + 1e-9)


def test_per_mode_cauchy_schwarz_chain(rng):
    """The mode-wise bound |k|^(2n) |P_k a_k|^2 <= (2 pi)^(-d) KK(k) D_n(k),
    with KK taken from the certified interval oracle."""
    n = 2
    cfg = SumConfig.create(3, n, 4.0)
    v = leray_project(random_field(rng, 3))
    w = random_field(rng, 3)
    proj = leray_project(advect(v, w))
    keys = sorted(proj.coeffs)[:10]
    assert keys
    for k in keys:
        k2 = float(sum(x * x for x in k))
        lhs = k2**n * float((np.abs(proj.coeffs[k]) ** 2).sum())
        kk_up = kk_direct(k, 3, cfg.n, cfg.rho, 25.0)[1]
        d_n = 0.0
        for h, vh in v.coeffs.items():
            g = tuple(a - b for a, b in zip(k, h))
            wg = w.coeffs.get(g)
            if wg is None:
                continue
            h2 = float(sum(x * x for x in h))
            g2 = float(sum(x * x for x in g))
            d_n += (
                h2**n
                * float((np.abs(vh) ** 2).sum())
                * g2 ** (n + 1)
                * float((np.abs(wg) ** 2).sum())
            )
        rhs = (2.0 * math.pi) ** -3.0 * kk_up * d_n
        assert lhs <= rhs * (1.0 + 1e-9)


def test_field_text_round_trip(rng):
    f = random_field(rng, 3)
    text = field_to_text(f)
    g = field_from_text(text)
    assert g.d == f.d
    assert sorted(g.coeffs) == sorted(f.coeffs)
    for k in sorted(f.coeffs):
        assert np.array_equal(g.coeffs[k], f.coeffs[k])


def test_field_text_errors():
    with pytest.raises(ValueError, match="empty field text"):
        field_from_text("   \n  ")
    with pytest.raises(ValueError, match="malformed"):
        field_from_text("1 0 0 1.0")
    with pytest.raises(ValueError, match="inconsistent dimensions"):
        field_from_text(
            "1 0 1.0 0.0 0.0 0.0\n"
            "-1 0 1.0 -0.0 0.0 -0.0\n"
            "1 0 0 1.0 0.0 0.0 0.0 0.0 0.0"
        )


def _neg(k):
    return tuple(-x for x in k)


def _same_bits(got, want):
    """Equal key sets and bit-identical coefficients."""
    assert set(got) == set(want)
    for k, c in want.items():
        assert np.array_equal(got[k].view(np.int64), c.view(np.int64)), k


def _conjugate_symmetric(coeffs):
    for k, c in coeffs.items():
        assert np.array_equal(coeffs[_neg(k)], np.conj(c)), k


def _shipped_pair(d):
    """The witness CLI's trial pair at d: exact zero components, so the
    mirrored rows of advect carry zeros whose signs the loops pin."""
    if d == 2:
        return trial_pair(2, 1.0, (), 1.0, ())
    return trial_pair(d, 1.0, (0j,) * (d - 2), 0j, (1.0,) + (0j,) * (d - 3))


def _loop_cases():
    """(v, w) pairs for d = 2, 3, 4: sparse random supports up to
    |k|_inf <= 4, where k . c and v_h . g have inexact products, one dense
    d = 3 pair, pairs with an empty field, and the shipped trial pairs for
    d = 2 to 5."""
    rng = np.random.default_rng(20261018)
    cases = []
    for d in (2, 3, 4):
        for span in (1, 2, 4):
            for n_modes in (1, 5, 20):
                n_modes = min(n_modes, ((2 * span + 1) ** d - 1) // 2)
                v = leray_project(random_field(rng, d, n_modes, span))
                cases.append((v, random_field(rng, d, n_modes, span)))
    dense = leray_project(random_field(rng, 3, 62, 2))
    cases.append((dense, random_field(rng, 3, 62, 2)))
    empty = FourierField(d=3, coeffs={})
    cases += [(empty, random_field(rng, 3)), (dense, empty)]
    return cases + [_shipped_pair(d) for d in (2, 3, 4, 5)]


@pytest.mark.parametrize("v,w", _loop_cases())
def test_fields_layer_matches_reference_loops(v, w):
    """advect, leray_project and sobolev_norm equal the per-mode reference
    loops bit for bit, and both outputs keep v_{-k} = conj(v_k) exactly."""
    out = advect(v, w)
    _same_bits(out.coeffs, advect_loop(v.d, v.coeffs, w.coeffs))
    _conjugate_symmetric(out.coeffs)
    for field in (v, w, out):
        projected = leray_project(field)
        _same_bits(projected.coeffs, leray_loop(field.coeffs))
        _conjugate_symmetric(projected.coeffs)
        for n in (0, 1, 2.5, 3, -1.5):
            got = sobolev_norm(projected, n)
            assert got.hex() == sobolev_loop(projected.coeffs, n).hex()


def test_advect_drops_all_zero_modes():
    """v_h . g vanishes for g = +-e1, so the modes 2 e1 and 0 sum to zero
    and are dropped; the g = +-e2 modes survive."""
    v = FourierField.build(3, {(1, 0, 0): (0.0, 1.0, 0.0)})
    w = FourierField.build(3, {(1, 0, 0): (0.0, 0.0, 1.0), (0, 1, 0): (1.0, 0.0, 0.5)})
    out = advect(v, w)
    assert sorted(out.coeffs) == [(-1, -1, 0), (-1, 1, 0), (1, -1, 0), (1, 1, 0)]
    _same_bits(out.coeffs, advect_loop(3, v.coeffs, w.coeffs))


def test_sobolev_norm_squares_like_the_reference_loop():
    """x ** 2 on a float is libm pow, which can differ from x * x in the last
    bit; the norm squares as the reference loop does."""
    rng = np.random.default_rng(7)
    xs = [x for x in rng.normal(size=20000).tolist() if x**2 != x * x]
    for x in xs[:20] + [1.1]:
        field = FourierField.build(2, {(1, 0): (x, 0.0)})
        assert sobolev_norm(field, 0).hex() == sobolev_loop(field.coeffs, 0).hex()


def test_near_conjugate_row_is_stored_exactly_real():
    """A -k row within the tolerance of conj(v_k) but not equal to it
    constructs, is stored as conj(v_k), and advects bit for bit like the
    exact field; rows that already agree in value keep their bits."""
    rng = np.random.default_rng(3)
    v = leray_project(random_field(rng, 3, 20, 2))
    w = random_field(rng, 3, 20, 2)
    k = max(w.coeffs)  # lexicographically largest, so first coordinate > 0
    near = dict(w.coeffs)
    off = np.array(near[_neg(k)])
    off[1] = complex(np.nextafter(off[1].real, math.inf), off[1].imag)
    near[_neg(k)] = off
    stored = FourierField(d=3, coeffs=near)
    assert not np.array_equal(off, np.conj(w.coeffs[k]))
    _same_bits(stored.coeffs, w.coeffs)
    _same_bits(advect(v, stored).coeffs, advect(v, w).coeffs)
    assert list(advect(v, stored).coeffs) == list(advect(v, w).coeffs)


def test_advect_refuses_output_keys_past_the_int64_bound():
    """Input keys stay below 2^62, so h + g cannot wrap int64; an output key
    at 2^62 or more is refused as the constructor refuses an input key, the
    first in key order named."""
    v = FourierField.build(2, {(2**62 - 1, 0): (0.0, 1.0)})
    w = FourierField.build(2, {(1, 1): (1.0, 0.0)})
    with pytest.raises(ValueError, match=r"\(-4611686018427387904, -1\) has a "
                                         r"component of 2\^62 or more"):
        advect(v, w)


def test_advect_sums_one_member_of_each_output_pair(monkeypatch):
    """Work-count guard: on the dense d = 3 pair (728 output keys and the
    zero mode), advect calls math.fsum 2d x (364 + 1) = 2,190 times, one
    member of each +-k pair and the zero mode, not 2d x 729 = 4,374."""
    v, w = next((v, w) for v, w in _loop_cases() if len(v.coeffs) == 124)
    calls = []
    fsum = math.fsum
    monkeypatch.setattr(math, "fsum", lambda xs: calls.append(1) or fsum(xs))
    advect(v, w)
    assert len(calls) == 2 * 3 * (364 + 1)


def test_fsum_returns_positive_zero_for_a_zero_sum():
    """advect mirrors a row as conj(row) + 0.0, which equals summing the -k
    terms only if math.fsum returns +0.0 for every exact zero sum, as it does
    on CPython 3.11; an fsum that keeps the sign of zero fails here."""
    assert math.copysign(1.0, math.fsum([-0.0, -0.0])) == 1.0
    assert math.copysign(1.0, math.fsum([0.5, -0.5])) == 1.0
