"""The polynomial kernel: evaluation, derivatives, real roots, Newton polish,
deflation, the error-free transforms TwoSum and TwoProduct (Ogita, Rump &
Oishi, SIAM J. Sci. Comput. 26, 2005), which act element by element, and the
compensated Horner scheme built from them.

Coefficient arrays are stored low-to-high: ``coeffs[k]`` multiplies ``x**k``.
The helpers also take one polynomial per row of a 2-D array, so a family of
polynomials of one degree (``E - U`` over an energy grid) is solved in one go;
each row gets exactly the arithmetic it would get on its own.  Every
polynomial of a well is evaluated here, by :func:`polyval` or, in the
oracle, by the compiled Horner expression of :func:`_horner_text`.

Roots are polished in plain double arithmetic, so a root ends as accurate as
rounding in the polynomial allows: about 1e-15 relative for a well separated
root, about ``eps / d`` for two roots ``d`` apart (relative), as the turning
point and its partner beyond a barrier are.  :func:`comp_horner` evaluates
as if in twice the working precision, so a Newton step on its values lands
next to such a root too.
"""

from __future__ import annotations

import functools

import numpy as np

# Companion-matrix roots with a larger imaginary part (relative to their
# magnitude) are treated as genuinely complex and dropped.
_IMAG_TOL = 1e-8
# Newton stops once its step is within this of max(1, |x|), or once a step
# within _POLISH_STALL of max(1, |x|) fails to shrink, or after
# _POLISH_MAX_ITER steps.
_POLISH_RTOL = 1e-15
_POLISH_STALL = float(np.sqrt(np.finfo(float).eps))
_POLISH_MAX_ITER = 50


def as_coeffs(c) -> np.ndarray:
    """Coerce to a read-only float coefficient array, cut after its last nonzero
    coefficient (one zero is kept when all are zero); NaN counts as nonzero."""
    arr = np.atleast_1d(np.asarray(c, dtype=float))
    nonzero = arr.ravel().nonzero()[0]
    arr = arr[:nonzero[-1] + 1 if nonzero.size else 1].copy()
    arr.flags.writeable = False
    return arr


def derivative(coeffs) -> np.ndarray:
    """Coefficients of the derivative along the last axis: ``k * c[k]``, as ``npoly.polyder``."""
    c = np.asarray(coeffs, dtype=float)
    return c[..., 1:] * np.arange(1, c.shape[-1])


def polyval(coeffs, x):
    """``coeffs`` at ``x`` by the Horner steps ``c[k] + acc * x`` of
    ``npoly.polyval``, bit for bit; an overflow gives inf or NaN without a
    warning, as Python floats do.  ``x`` is one point, giving a float (``coeffs``
    may then be a list), or an array.  A 2-D ``coeffs`` holds one polynomial per
    row, row ``i`` taken at ``x[i]``, one point or a row of points; zeros padded
    above a row's leading coefficient leave its values unchanged."""
    if not isinstance(x, (np.ndarray, list, tuple)):
        c, x = coeffs if isinstance(coeffs, list) else coeffs.tolist(), float(x)
        acc = c[-1] + x * 0.0
        for ck in c[-2::-1]:
            acc = ck + acc * x
        return acc
    with np.errstate(over="ignore", invalid="ignore"):
        return _horner(coeffs, np.asarray(x))


def _horner(coeffs, x: np.ndarray) -> np.ndarray:
    """:func:`polyval` at the array ``x``, for a caller that holds an ``np.errstate``."""
    c = coeffs.T if coeffs.ndim < 2 or x.ndim < 2 else coeffs.T[..., None]
    acc = c[-1] + x * 0
    for k in range(len(c) - 2, -1, -1):
        acc = c[k] + acc * x
    return acc


def two_sum(a, b):
    """``(s, e)``: ``s = a + b`` rounded and ``s + e = a + b`` exactly (Knuth)."""
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _split(a):
    """``(a_hi, a_lo)``, ``a_hi + a_lo = a``: Veltkamp's split by 2^27 + 1."""
    c = 134217729.0 * a
    a_hi = c - (c - a)
    return a_hi, a - a_hi


def _split_product(a, a_hi, a_lo, b, b_hi, b_lo):
    """:func:`two_product` of ``a`` and ``b``, given their :func:`_split` halves."""
    p = a * b
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def two_product(a, b):
    """``(p, e)``: ``p = a * b`` rounded and ``p + e = a * b`` exactly (Dekker, with
    no FMA in numpy), for operands below about 2^996 and ``p`` in the normal range."""
    return _split_product(a, *_split(a), b, *_split(b))


def comp_horner(coeffs, x: np.ndarray) -> np.ndarray:
    """:func:`_horner`, compensated (Graillat, Langlois & Louvet, Japan J.
    Indust. Appl. Math. 26, 2009): :func:`two_product` and :func:`two_sum` keep
    the rounding error of each Horner step, and a second Horner pass sums those
    errors into the value.  With ``u = 2^-53``, ``gamma_k = k u/(1 - k u)`` and
    ``n`` the degree, ``|result - p(x)| <= u |p(x)| + gamma_2n^2 sum |c_k| |x|^k``.
    Rows and points pair as in :func:`_horner`; every operand must stay within
    the range of :func:`two_product`.  ``x`` is split once, not at every step."""
    c = coeffs.T if coeffs.ndim < 2 or x.ndim < 2 else coeffs.T[..., None]
    x_hi, x_lo = _split(x)
    acc = c[-1] + x * 0
    err = x * 0
    for k in range(len(c) - 2, -1, -1):
        p, p_err = _split_product(acc, *_split(acc), x, x_hi, x_lo)
        acc, s_err = two_sum(p, c[k])
        err = err * x + (p_err + s_err)
    return acc + err


def _horner_text(degree: int, x: str) -> str:
    """The unrolled Horner expression ``((c_d) * x + c_{d-1}) * x ... + c0`` of
    the coefficients ``c0, ..., c_degree`` at the variable named ``x``."""
    expr = f"c{degree}"
    for i in range(degree - 1, -1, -1):
        expr = f"({expr}) * {x} + c{i}"
    return expr


@functools.cache
def _horner_maker(degree: int):
    """A function of ``c0, ..., c_degree`` that returns their polynomial as
    one :func:`_horner_text` expression ``lambda x: ...``, compiled once per
    degree."""
    args = ", ".join(f"c{i}" for i in range(degree + 1))
    namespace: dict = {}
    exec(f"def make({args}):\n    return lambda x: {_horner_text(degree, 'x')}\n", namespace)
    return namespace["make"]


def _polynomial(coeffs):
    """The polynomial of ``coeffs`` (lowest first) as a Python float function."""
    return _horner_maker(len(coeffs) - 1)(*coeffs.tolist())


def newton_polish(coeffs, dcoeffs, x0) -> np.ndarray:
    """Refine simple real root estimates until rounding stops the Newton steps.

    ``x0[i]`` estimates a root of the polynomial in row ``i`` of ``coeffs``,
    whose derivative is row ``i`` of ``dcoeffs``.  Each element stops on its
    own: at an exact zero of the polynomial or of its derivative (keeping the
    current point); once the Newton step is within ``_POLISH_RTOL`` of
    ``max(1, |x|)`` (taking that step); or once a step within
    ``_POLISH_STALL`` of it is no smaller than the step before (keeping the
    current point).  A well separated root ends at about 1e-15 relative.  At
    a near-double root, next to a barrier, rounding in the polynomial divided
    by a small derivative leaves steps of about ``eps / d`` relative, ``d``
    the distance to the other root, that never shrink; the stall stop ends
    those after a few steps, at that accuracy, which more steps would not
    improve.
    """
    x = np.array(x0, dtype=float)
    live = np.ones(x.shape, dtype=bool)
    last = None  # the previous step sizes: no step stalls before there is one
    # A badly scaled row may overflow; its roots then fail the caller's checks.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for _ in range(_POLISH_MAX_ITER):
            if not np.count_nonzero(live):
                break
            f = _horner(coeffs, x)
            df = _horner(dcoeffs, x)
            step = f / df
            x_new = x - step
            size = np.abs(step)
            scale = np.maximum(1.0, np.abs(x_new))
            done = size <= _POLISH_RTOL * scale
            moved = live & (f != 0.0) & (df != 0.0)
            if last is not None:
                moved &= ~((size >= last) & (size <= _POLISH_STALL * scale) & ~done)
            x = np.where(moved, x_new, x)
            live = moved & ~done
            last = size
    return x


def real_roots_rows(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The real roots of every row of a 2-D array, all rows of one degree ``n``.

    Returns ``(roots, counts)``: row ``i``'s :func:`real_roots` are
    ``roots[i, :counts[i]]``, ascending, and NaN pads each row of the
    ``(rows, n)`` array after them; a root out of the float range, as found
    or as polished, is not one of them.  Every leading coefficient must be
    nonzero.  The companion matrices are built as ``npoly.polyroots`` builds
    them and go to one stacked ``np.linalg.eigvals`` call; one
    :func:`newton_polish` refines all the real roots together.
    """
    k, n = coeffs.shape[0], coeffs.shape[1] - 1
    if n < 1:
        return np.empty((k, 0)), np.zeros(k, dtype=int)
    if n == 1:
        # A root out of the float range is dropped below, as a complex one is.
        with np.errstate(over="ignore"):
            rts = -coeffs[:, :1] / coeffs[:, 1:]
    else:
        mat = np.zeros((k, n, n))
        mat.reshape(k, -1)[:, n::n + 1] = 1.0
        # An overflowing matrix makes eigvals raise LinAlgError; the overflow
        # itself needs no warning on top.
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            mat[:, :, -1] -= coeffs[:, :-1] / coeffs[:, -1:]
        rts = np.linalg.eigvals(mat)
    keep = np.isfinite(rts) & (np.abs(rts.imag) <= _IMAG_TOL * np.maximum(1.0, np.abs(rts)))
    rows = keep.nonzero()[0]
    roots = np.full((k, n), np.nan)
    roots[keep] = newton_polish(coeffs[rows], derivative(coeffs)[rows], rts.real[keep])
    # A root that the polish sends to +-inf or NaN is dropped, as a complex one is.
    keep &= np.isfinite(roots)
    roots[~keep] = np.nan
    # A stable sort keeps equal roots, such as 0.0 and -0.0, in eigenvalue
    # order; NaN sorts last.
    roots.sort(axis=1, kind="stable")
    return roots, keep.sum(axis=1)


def real_roots(coeffs) -> np.ndarray:
    """All real roots of a polynomial, isolated by the companion matrix and polished.

    Roots whose companion-matrix imaginary part exceeds ``_IMAG_TOL`` (relative
    to their magnitude) are treated as genuinely complex and dropped.
    """
    roots, counts = real_roots_rows(as_coeffs(coeffs)[None, :])
    return roots[0, :counts[0]]


def deflate(coeffs, *roots):
    """Synthetic division of ``p(x)`` by ``(x - r1)(x - r2)...`` along the last axis.

    Returns ``(quotient, rem1, rem2, ...)``, the quotient low-to-high, with
    the bits of one division per root: ``rem1 = p(r1)``, ``rem2`` the first
    quotient at ``r2``, and so on.  One loop over the coefficients runs each
    root's recurrence from ``0.0 * root`` and feeds its values straight to
    the next root's, storing no intermediate quotient.  With one polynomial
    per row, each root holds one root per row.
    """
    c = np.asarray(coeffs, dtype=float)
    out, acc = np.empty(c.shape), [0.0] * len(roots)
    for i in range(c.shape[-1] - 1, -1, -1):
        value = c[..., i]
        for j, root in enumerate(roots[:i + 1]):
            value = acc[j] = acc[j] * root + value
        out[..., i] = value
    return (out[..., len(roots):], *acc)
