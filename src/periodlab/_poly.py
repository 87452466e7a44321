"""Small polynomial helpers: derivatives, real-root isolation, Newton polish, deflation.

Coefficient arrays are stored low-to-high: ``coeffs[k]`` multiplies ``x**k``.
The helpers also take one polynomial per row of a 2-D array, so a family of
polynomials of one degree (``E - U`` over an energy grid) is solved in one go;
each row gets exactly the arithmetic it would get on its own.
"""

from __future__ import annotations

import numpy as np
import numpy.polynomial.polynomial as npoly


def as_coeffs(c) -> np.ndarray:
    """Coerce to a trimmed, read-only float coefficient array."""
    arr = np.atleast_1d(np.asarray(c, dtype=float)).copy()
    arr = npoly.polytrim(arr, tol=0.0)
    arr.flags.writeable = False
    return arr


def derivative(coeffs) -> np.ndarray:
    """Coefficients of the derivative along the last axis: ``k * c[k]``, as ``npoly.polyder``."""
    c = np.asarray(coeffs, dtype=float)
    return c[..., 1:] * np.arange(1, c.shape[-1])


def _polyval_rows(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Row ``i`` of ``coeffs`` evaluated at ``x[i]``, by the Horner steps of ``npoly.polyval``.

    ``x[i]`` is one point or a row of points.  Zeros padded above a row's
    leading coefficient leave its values unchanged.
    """
    if x.ndim > 1:
        coeffs = coeffs[:, :, None]
    acc = coeffs[:, -1] + x * 0
    for k in range(coeffs.shape[1] - 2, -1, -1):
        acc = coeffs[:, k] + acc * x
    return acc


def newton_polish(coeffs, dcoeffs, x0, rtol: float = 1e-15, max_iter: int = 50) -> np.ndarray:
    """Refine simple real root estimates to ~1e-15 relative accuracy.

    ``x0[i]`` estimates a root of the polynomial in row ``i`` of ``coeffs``,
    whose derivative is row ``i`` of ``dcoeffs``.  Each element stops on its
    own: at an exact zero of the polynomial or of its derivative (keeping the
    current point), or once the Newton step is within ``rtol`` of
    ``max(1, |x|)`` (taking that step).
    """
    x = np.array(x0, dtype=float)
    live = np.ones(x.shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(max_iter):
            if not live.any():
                break
            f = _polyval_rows(coeffs, x)
            df = _polyval_rows(dcoeffs, x)
            step = f / df
            x_new = x - step
            moved = live & (f != 0.0) & (df != 0.0)
            x = np.where(moved, x_new, x)
            live = moved & ~(np.abs(step) <= rtol * np.maximum(1.0, np.abs(x_new)))
    return x


def real_roots_rows(coeffs: np.ndarray, imag_tol: float = 1e-8) -> list[np.ndarray]:
    """:func:`real_roots` of every row of a 2-D array, all rows of one degree.

    Every leading coefficient must be nonzero.  The companion matrices are
    built as ``npoly.polyroots`` builds them and go to one stacked
    ``np.linalg.eigvals`` call; one :func:`newton_polish` refines all the
    real roots together.
    """
    k, n = coeffs.shape[0], coeffs.shape[1] - 1
    if n < 1:
        return [np.empty(0) for _ in range(k)]
    if n == 1:
        rts = -coeffs[:, :1] / coeffs[:, 1:]
    else:
        mat = np.zeros((k, n, n))
        mat.reshape(k, -1)[:, n::n + 1] = 1.0
        mat[:, :, -1] -= coeffs[:, :-1] / coeffs[:, -1:]
        rts = np.linalg.eigvals(mat)
    keep = np.abs(rts.imag) <= imag_tol * np.maximum(1.0, np.abs(rts))
    rows = np.nonzero(keep)[0]
    polished = newton_polish(coeffs[rows], derivative(coeffs)[rows], rts.real[keep])
    # Sort by row, then by value, and cut the rows apart.
    polished = polished[np.lexsort((polished, rows))]
    ends = np.cumsum(keep.sum(axis=1)).tolist()
    return [polished[a:b] for a, b in zip([0] + ends, ends)]


def real_roots(coeffs, imag_tol: float = 1e-8) -> np.ndarray:
    """All real roots of a polynomial, isolated by the companion matrix and polished.

    Roots whose companion-matrix imaginary part exceeds ``imag_tol`` (relative
    to their magnitude) are treated as genuinely complex and dropped.
    """
    c = npoly.polytrim(np.atleast_1d(np.asarray(coeffs, dtype=float)), tol=0.0)
    return real_roots_rows(c[None, :], imag_tol)[0]


def deflate(coeffs, root):
    """Synthetic division of ``p(x)`` by ``(x - root)`` along the last axis.

    Returns ``(quotient, remainder)`` with the quotient low-to-high; the
    remainder equals ``p(root)``.  With one polynomial per row, ``root`` holds
    one root per row.
    """
    c = np.asarray(coeffs, dtype=float)
    out = np.empty(c.shape)
    acc = 0.0
    for i in range(c.shape[-1] - 1, -1, -1):
        acc = acc * root + c[..., i]
        out[..., i] = acc
    return out[..., 1:], out[..., 0]
