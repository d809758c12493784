"""Independent check of one trial-pair ratio: an FFT pseudospectral product.

The oracle shares no code with ``advbounds.fields``.  Fields are sampled on
an N^d grid with N > 2 * (largest output |k|_inf), so the quadratic product
is computed without aliasing; projection and norms are plain numpy.
Coefficients follow the package convention

    f(x) = (2 pi)^(-d/2) sum_k f_k exp(i k.x).
"""

import math

import numpy as np

#: Largest accepted |advect - oracle| relative to the largest coefficient.
COEFF_TOL = 1e-10
#: Largest accepted relative distance of a ratio from its reference.
RATIO_TOL = 1e-10


def _grid(field, n_grid):
    d = field.d
    out = np.zeros((d,) + (n_grid,) * d, dtype=complex)
    for k, c in field.coeffs.items():
        out[(slice(None),) + tuple(ki % n_grid for ki in k)] = c
    return out


def _wavenumbers(d, n_grid):
    axis = np.fft.fftfreq(n_grid, 1.0 / n_grid)
    return np.stack(np.meshgrid(*([axis] * d), indexing="ij"))


def fft_advect(v, w):
    """Coefficients of (v.grad) w on the grid, indexed like np.fft.fftn."""
    d = v.d
    reach = max(max(abs(c) for k in f.coeffs for c in k) for f in (v, w))
    n_grid = 4 * reach + 1
    scale = (2.0 * math.pi) ** (-d / 2.0) * n_grid**d
    axes = tuple(range(1, d + 1))
    kvec = _wavenumbers(d, n_grid)
    v_x = np.fft.ifftn(_grid(v, n_grid), axes=axes) * scale
    w_hat = _grid(w, n_grid)
    product = np.zeros_like(v_x)
    for j in range(d):
        dw_x = np.fft.ifftn(1j * kvec[j] * w_hat, axes=axes) * scale
        product += v_x[j] * dw_x
    return np.fft.fftn(product, axes=axes) / scale, kvec


def _ratio(coeffs, kvec, v, w, n):
    k2 = np.sum(kvec * kvec, axis=0)
    live = k2 > 0
    kdotc = np.sum(kvec * coeffs, axis=0)
    proj = coeffs - np.where(live, kdotc / np.where(live, k2, 1.0), 0.0) * kvec
    num = math.sqrt(float(np.sum(k2[live] ** n * np.sum(abs(proj) ** 2, axis=0)[live])))

    def norm(field, order):
        return math.sqrt(sum(float(sum(c * c for c in k)) ** order
                             * float(np.sum(abs(vec) ** 2))
                             for k, vec in field.coeffs.items()))

    return num / (norm(v, n) * norm(w, n + 1.0))


def check_pair(v, w, adv, ratio, n, shipped):
    """Compare advect's output and the ratio with the oracle.

    Returns (reference ratio, problem or None).  For the shipped witness
    pairs the ratio must also match its closed form: 2^(n/2) (2 pi)^(-d/2)
    for d >= 3, and in d = 2 the corrected 2^((n-1)/2) / (2 pi) of README
    "Known deviations" (not the published reference).
    """
    d = v.d
    expect, kvec = fft_advect(v, w)
    n_grid = expect.shape[1]
    got = _grid(adv, n_grid)
    scale = max(1.0, float(np.abs(expect).max()))
    err = float(np.abs(got - expect).max()) / scale
    ratio_ref = _ratio(expect, kvec, v, w, n)
    if err > COEFF_TOL:
        return ratio_ref, f"advect differs from the FFT product by {err:.3e}"
    if abs(ratio - ratio_ref) > RATIO_TOL * ratio_ref:
        return ratio_ref, f"ratio {ratio!r} differs from the FFT ratio {ratio_ref!r}"
    if shipped:
        closed = (2.0 ** ((n - 1.0) / 2.0) / (2.0 * math.pi) if d == 2
                  else 2.0 ** (n / 2.0) * (2.0 * math.pi) ** (-d / 2.0))
        if abs(ratio - closed) > RATIO_TOL * closed:
            return ratio_ref, f"witness ratio {ratio!r} differs from {closed!r}"
    return ratio_ref, None
