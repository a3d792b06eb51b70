"""Least-squares fits that turn a law into a generative model.

Two routes produce a reconstruction from the same law:

  * amplitude fit: solve for mode amplitudes c_a so that
    sum_a c_a q_a^{-k} tracks the segment;
  * initial-condition fit: solve for the n seed values whose recursion
    output tracks the segment.  Its basis is the recursion's impulse
    responses, stepped for all n seeds at once (``impulse_basis``).

Both minimize the residual 2-norm over the whole segment.  The Cholesky
factor of the normal equations on norm-scaled columns gates them, and one
solve solves them; a pivot below 1e-12 of the diagonal scale triggers
one retry with a diagonal ridge of 1e-10 * trace, after which failure is
final.  Column scaling is plain diagonal preconditioning, so the
returned coefficients solve the raw normal equations.

A stack of blocks is fitted at once (``_least_squares``), the ridge
retry only for the blocks whose first solve fails; the fits below call
it with one row.  Bases of several degrees come split by shape, one
stack per degree: each stack's columns are scaled and multiplied on
their own, where they stay in cache, and the Cholesky factors and
solves run per degree, as LAPACK takes one shape; the gate, the Gram
scaling, the pivot check and the coefficients run once, on stacks
padded past each degree.  Stacked bases are column-major, (blocks,
columns, samples), so each pass reads a column's samples in a row; the
public bases are (samples, columns).  One pass reads the column peaks,
which give the basis gate and the first scaling (squares of peak-scaled
columns cannot overflow); one Gram product of the peak-scaled columns
follows, and its diagonal gives the column norms.  Scaling a Gram
matrix to unit diagonal is the near-optimal diagonal scaling (van der
Sluis, 1969), and it takes no second pass over the basis.  One layout
(``_columns``) places modes in basis columns and reads amplitudes back
out of them.

Every mode basis is built from the exponents of its roots, u = ln q
(``_exponent_bases``): those of computed roots (``mode_basis``), or
those a DLAW v2 file stores (``exponent_basis``), which its writer
takes from the same rule (``_mode_exponents``): a v2 block's columns
are ``mode_basis``'s columns of its per-sample roots, with the pairs
moved first.  A basis over N samples takes about 2 sqrt(N) exp, cos
and sin evaluations per real root or conjugate pair, not N per column:
sample k = a L + b (L = ceil(sqrt(N))) is the complex product of the
powers z^(aL) and z^b of the root, which also yields a pair's sine
column.  Each power takes the exact products k ln rho and k theta (a
two-product carries the rounding error of each), so every column is
within a few units in the last place of its peak of
e^(-k ln rho) cos(theta k), e^(-k ln rho) sin(theta k) or q^-k in exact
arithmetic, whatever N is, for the float64 exponents ln rho and theta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._stack import drop, kept_shapes, lapack_rows, one_row, padded, runs, survivors
from .errors import SingularNormalMatrix, UnstableBasis, ZeroSignal
from .lawforms import (
    ContinuousModel,
    _pairs,
    evaluate_model,
    impulse_basis,
    roots_to_model,
    run_recursion,
)
from .spectral import LinearLaw

__all__ = [
    "AmplitudeFit",
    "InitialConditionFit",
    "least_squares",
    "mode_basis",
    "exponent_basis",
    "fit_amplitudes",
    "fit_initial_conditions",
    "reconstruct",
    "accuracy",
]


@dataclass(frozen=True)
class AmplitudeFit:
    """Continuous model with complex amplitudes, plus the real basis
    coefficients it was solved in (pairs contribute a cosine and a sine
    coefficient, real roots a single one) and the rms residual."""

    model: ContinuousModel
    coefficients: np.ndarray
    rms_error: float


@dataclass(frozen=True)
class InitialConditionFit:
    """Fitted seed values (oldest first) for a law's recursion."""

    law: LinearLaw
    initial: np.ndarray
    rms_error: float


# below this norm a vector's sum of squares is subnormal or zero in float64
_SMALLEST_NORM = float(np.sqrt(np.finfo(np.float64).tiny))


def _samples_of(segment) -> np.ndarray:
    return np.asarray(getattr(segment, "samples", segment), dtype=np.float64)


def _solve_spd(gram: np.ndarray, rhs: np.ndarray, shapes: list):
    """Each system of a stack, (g, n, n) by (g, n), split by shape into
    runs of ``shapes`` (``_stack.runs``), a system of a run of degree d
    in the leading d rows and columns: Cholesky gates, one solve solves,
    each one LAPACK call per run.

    Returns the solutions, zero past each degree and for the systems
    that fail, and the mask of those that pass: a system fails when
    Cholesky fails or a pivot falls below 1e-12 of the largest diagonal
    entry."""
    ok, pivots = np.ones(len(gram), dtype=bool), []
    for rows, _, d in runs(shapes):
        (lower,), failed = lapack_rows(lambda a: (np.linalg.cholesky(a),), gram[rows, :d, :d])
        pivot = np.diagonal(lower, axis1=-2, axis2=-1) ** 2
        if failed:  # a system that fails has no pivots
            ok[rows] = passed = survivors(rows.stop - rows.start, failed)
            pivot, pivots_of_passed = np.full((passed.size, d), np.inf), pivot
            pivot[passed] = pivots_of_passed
        pivots.append(pivot)
    # 1e-300 floors the largest diagonal entry; a max is exact in any order
    ceiling = np.maximum.reduce(np.diagonal(gram, axis1=-2, axis2=-1), axis=-1, initial=1e-300)
    ok &= np.all(padded(pivots, shapes, np.inf) > 1e-12 * ceiling[:, None], axis=-1)
    solutions = []
    for rows, _, d in runs(shapes):
        at = ok[rows]
        if at.all():
            x = np.linalg.solve(gram[rows, :d, :d], rhs[rows, :d, None])[..., 0]
        else:
            x = np.zeros((at.size, d))
            if at.any():
                x[at] = np.linalg.solve(gram[rows, :d, :d][at], rhs[rows, :d, None][at])[..., 0]
        solutions.append(x)
    return padded(solutions, shapes), ok


def least_squares(basis: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coefficients minimizing ||y - basis @ coef||_2 by the scaled
    solve of the module docstring; raises SingularNormalMatrix
    when even the ridge retry fails."""
    return one_row(_least_squares(np.asarray(basis).T[None], np.asarray(y)[None]))[0]


def _least_squares(bases, y: np.ndarray, modes: bool | None = None):
    """``least_squares`` of each basis of a stack split by shape against
    its samples (g, N), scaled as the module docstring says: ``bases`` is
    one stack (g, d, N) or a list of them, one column per row, whose rows
    stack in order.  Returns the coefficients of the fits that solve, in
    order, zero past each basis's columns up to the widest, plus
    ``{position: error}`` for the others.  Given ``modes``, the column
    peaks first gate each basis: a mode basis (``modes``) must be finite,
    else SingularNormalMatrix; an impulse-response basis must stay within
    1e100, else UnstableBasis.  A NaN entry fails both."""
    bases = [bases] if isinstance(bases, np.ndarray) else bases
    shapes = [basis.shape[:2] for basis in bases]
    peak, gram, rhs = [], [], []
    # a basis the gate below fails may overflow here, and its products are
    # dropped; with no gate, such a warning is the caller's
    quiet = None if modes is None else "ignore"
    with np.errstate(over=quiet, invalid=quiet):
        for (rows, _, d), basis in zip(runs(shapes), bases):
            # rows of samples, so each pass below reads contiguous memory, and
            # every product sums in the same order whatever layout came in
            basis = np.ascontiguousarray(basis)
            peak.append(np.max(np.abs(basis), axis=-1))
            peak[-1][peak[-1] == 0.0] = 1.0
            scaled = basis / peak[-1][..., None]
            gram.append(scaled @ np.swapaxes(scaled, -1, -2))
            rhs.append((scaled @ y[rows, :, None])[..., 0])
    peak, gram, rhs = padded(peak, shapes, 1.0), padded(gram, shapes), padded(rhs, shapes)
    pos, errors = np.arange(len(peak)), {}
    if modes is not None:
        if modes:
            bad = ~np.all(np.isfinite(peak), axis=-1)
            kind = SingularNormalMatrix
            text = "mode basis overflowed; roots too far from the unit circle"
        else:
            bad = ~np.all(peak <= 1e100, axis=-1)
            kind, text = UnstableBasis, "impulse-response basis overflowed"
        if bad.any():
            errors = {int(i): kind(text) for i in pos[bad]}
            pos, peak, gram, rhs = pos[~bad], peak[~bad], gram[~bad], rhs[~bad]
            shapes = kept_shapes(shapes, ~bad)
    norm = np.sqrt(np.diagonal(gram, axis1=-2, axis2=-1))
    norm[norm == 0.0] = 1.0
    gram = gram / (norm[:, :, None] * norm[:, None, :])
    gram = (gram + np.swapaxes(gram, -1, -2)) / 2.0
    rhs = rhs / norm
    x, ok = _solve_spd(gram, rhs, shapes)
    retry = np.flatnonzero(~ok)
    kept = np.ones(len(x), dtype=bool)
    if retry.size:
        ridged, shapes = gram[retry], kept_shapes(shapes, ~ok)
        for rows, _, d in runs(shapes):
            part = np.ascontiguousarray(ridged[rows, :d, :d])
            ridge = 1e-10 * np.trace(part, axis1=-2, axis2=-1)
            ridged[rows, :d, :d] = part + ridge[:, None, None] * np.eye(d)
        x[retry], ok = _solve_spd(ridged, rhs[retry], shapes)
        kept[retry[~ok]] = False
        text = "normal equations singular even after ridge retry"
        errors.update({int(i): SingularNormalMatrix(text) for i in pos[retry[~ok]]})
    return x[kept] / (peak * norm)[kept], errors


def mode_basis(roots, count: int) -> np.ndarray:
    """Real design matrix of the law's modes over k = 0 .. count-1.

    Conjugate pairs rho*exp(+-i*theta) contribute the column pair
    rho^{-k} cos(theta k), rho^{-k} sin(theta k); real roots contribute
    q^{-k}.  Column order follows the (real, imag)-sorted root order,
    which makes the layout reproducible from the roots alone.

    Each sample is the product of two powers of the root, z^(aL) z^b
    with k = a L + b and L = ceil(sqrt(count)), each from exp, cos and
    sin of the exact products k ln rho and k theta.  Against the same
    formulas in long double, taking rho and theta as the float64 modulus
    and angle of the root, each column is within 1e-13 of its peak for
    0.8 <= |q| <= 1.25 up to count 4096 (up to 3e-14 measured, the
    rounding of ln rho times k); rounding theta k first, as one cos per
    sample would, is off by up to 9e-13 at k = 4096.  Roots so far
    inside the unit circle that a column leaves float range give inf or
    nan entries.
    """
    q = np.asarray(getattr(roots, "roots", roots), dtype=np.complex128)
    return one_row(_mode_bases(q[None], count))[0].T


def _columns(partner: np.ndarray, lead: np.ndarray):
    """Columns of the real mode basis of paired roots (``_pairs`` output):
    per column, the root whose value it takes, and whether it is a real
    root's or a pair's cosine column (else the pair's sine column).  A
    real root takes one column at its place, a pair its cosine and sine
    columns at the place of its earlier root, both from its lead root."""
    index = np.arange(partner.shape[-1])
    later = index > partner  # the later root of a pair
    # a row-indexed gather costs a fraction of np.take_along_axis
    rows = np.arange(len(partner))[:, None]
    order = rows, np.argsort(np.where(later, 2 * partner + 1, 2 * index), axis=-1)
    real = (partner == index)[order]
    return np.where(lead, index, partner)[order], real, ~real & ~later[order]


def exponent_basis(pair_exponents, real_exponents, count: int) -> np.ndarray:
    """Real design matrix over k = 0 .. count-1 of modes given by their
    per-sample exponents u = ln q, the paper's differential-equation form
    of a law (alpha = u / dt).

    A pair u = ln rho + i theta, 0 < theta < pi, contributes the column
    pair e^(-k ln rho) cos(theta k), e^(-k ln rho) sin(theta k), which are
    ``mode_basis``'s columns of the pair rho e^(+-i theta); a real root
    u = ln|q|, plus i pi when q < 0, contributes q^-k.  Columns run over
    the pairs in order, then the real roots.  This is the basis a DLAW
    v2 block's payload multiplies.
    """
    pairs = np.asarray(pair_exponents, dtype=np.complex128).ravel()
    reals = np.asarray(real_exponents, dtype=np.complex128).ravel()
    u = np.concatenate([np.repeat(pairs, 2), reals])
    real = np.arange(u.size) >= 2 * pairs.size
    cosine = ~real & (np.arange(u.size) % 2 == 0)
    return _exponent_bases(u.real[None], u.imag[None], real[None], cosine[None], count)[0].T


def _mode_bases(q: np.ndarray, count: int):
    """``mode_basis`` (d, count) of each root set of a stack (g, d) that
    pairs up, one column per row, plus ``{position: error}``."""
    columns, _, errors = _mode_exponents(q)
    return _exponent_bases(*columns, count), errors


def _mode_exponents(q: np.ndarray):
    """The rule from roots to exponents u = ln q: the column layout
    (log_radius, angle, real, cosine) of ``_exponent_bases`` and the
    ``source`` root of each column (``_columns``), each (g, d), of the
    root sets of a stack that pair up (``_pairs``), plus ``{position:
    error}``.  A pair's lead root rho e^(i theta), 0 < theta < pi, gives
    ln rho and theta; a real root q gives ln|q| and pi when q < 0, else 0."""
    partner, lead, errors = _pairs(q)
    (q,) = drop(errors, q)
    source, real, cosine = _columns(partner, lead)
    z = q[np.arange(len(q))[:, None], source]
    # a root at the origin has log -inf; the basis is then not finite,
    # which callers test for and reject
    with np.errstate(divide="ignore"):
        # hypot rounds as abs() of one complex value; np.abs of a complex
        # array can differ in the last bit
        log_radius = np.log(np.where(real, np.abs(z.real), np.hypot(z.real, z.imag)))
    angle = np.where(real, np.where(z.real < 0.0, np.pi, 0.0), np.angle(z))
    return (log_radius, angle, real, cosine), source, errors


def _exponent_bases(log_radius: np.ndarray, angle: np.ndarray, real: np.ndarray,
                    cosine: np.ndarray, count: int) -> np.ndarray:
    """Bases (g, d, count) of a stack of column layouts (g, d), one
    basis column per row.  Column c of a layout is Re z^k,
    z = e^(i angle - log_radius) from its own log_radius and angle, when
    it is a real root's (angle 0 or pi) or a pair's cosine column
    (``real``, ``cosine``); any other column is a sine column, Im z^k of
    the cosine column right before it.

    Sample k = a L + b of a column, with L = ceil(sqrt(count)), is the
    product z^(aL) z^b of two powers (``_powers``) of that z: one
    complex product whose real part is a real root's or a pair's cosine
    column and whose imaginary part the pair's sine column.  The
    products of a column are one (A, 2) @ (2, L) matrix product,
    A = ceil(count / L), whose rows laid end to end are the column."""
    g, d = log_radius.shape
    if count == 0:
        return np.zeros((g, d, 0))
    step = math.isqrt(count - 1) + 1  # L
    k = np.concatenate([np.arange(step), np.arange(0, count, step)])
    own = (real | cosine).ravel()  # the columns that take a power of their own
    # each column's power among those: its own, or a sine column's that of
    # the cosine column right before it
    source = np.cumsum(own) - 1
    # overflow to inf or nan is expected for roots deep inside the unit
    # circle or at the origin; callers test finiteness and reject such bases
    with np.errstate(over="ignore", invalid="ignore"):
        re, im = _powers(log_radius.ravel()[own], angle.ravel()[own], k)
        im[real.ravel()[own]] = 0.0  # (-1)^k is real; the phase k pi leaves sin(k pi) ~ 1e-16 k
        # [Re z^aL, -Im z^aL] @ [Re z^b; Im z^b] is Re z^k; a sine
        # column takes [Im z^b; -Re z^b] instead, for Im z^k.  Each
        # column gathers both factors from those of its power.
        tail = np.stack([re[:, step:], -im[:, step:]], axis=-1)[source]
        low_re, low_im = re[:, None, :step], im[:, None, :step]
        head = np.concatenate([np.concatenate([low_re, low_im], axis=1),  # own columns
                               np.concatenate([low_im, -low_re], axis=1)])  # sine columns
        out = tail @ head[np.where(own, source, source + len(re))]
    return out.reshape(g, d, (len(k) - step) * step)[..., :count]


def _powers(log_radius: np.ndarray, angle: np.ndarray, k: np.ndarray):
    """Real and imaginary parts (r, len(k)) of the powers
    e^(-k log_radius) e^(i angle k) of r roots, from one exp and one cos
    and sin per power.  The exponent log_radius * k and the phase
    angle * k are each carried as the rounded product plus its exact
    rounding error (Dekker's two-product), so the magnitude and the
    cosine and sine are those of the exact products: a rounded phase
    alone is off by up to half a unit in its last place, 9e-13 at
    k = 4096.

    A whole k below 2^26 splits into (k, 0), so the terms a * e and
    b * e of the two-product are zeros, taken only when some k has a low
    half.  For finite x, a * c - products is never -0, and adding a zero
    to a sum that is not -0 changes no bit: the error is the same either
    way."""
    x, k = np.concatenate((log_radius, angle)).reshape(2, -1, 1), k.astype(np.float64)
    products = x * k
    (a, b), (c, e) = _halves(x), _halves(k)
    if e.any():  # a block longer than 2^26 samples
        error = ((a * c - products) + a * e + b * c) + b * e
    else:
        error = (a * c - products) + b * c
    size = np.exp(-products[0]) * (1.0 - error[0])
    cos, sin = np.cos(products[1]), np.sin(products[1])
    return size * (cos - error[1] * sin), size * (sin + error[1] * cos)


def _halves(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of x into two halves of 26 significant bits,
    whose pairwise products are exact."""
    scaled = 134217729.0 * x  # 2^27 + 1
    high = scaled - (scaled - x)
    return high, x - high


def _fit(basis: np.ndarray, y: np.ndarray, modes: bool) -> tuple[np.ndarray, float]:
    """Coefficients and rms residual of the least-squares fit of a
    segment in one basis (d, N), gated as ``_least_squares`` gates it."""
    coef = one_row(_least_squares(basis[None], y[None], modes))[0]
    resid = y - coef @ basis
    return coef, float(np.sqrt(np.mean(resid**2))) if y.size else 0.0


def fit_amplitudes(roots, segment, dt: float = 1.0) -> AmplitudeFit:
    """Fit mode amplitudes by least squares against a segment.

    Parameters
    ----------
    roots : RootSet or complex sequence
        Law roots; conjugate closure is required for a real basis.
    segment : TimeSeries or array
        Samples y_k, k = 0 .. N-1, with N >= number of roots.
    dt : float
        Physical step between samples; only the returned model's
        exponents depend on it.

    Returns
    -------
    AmplitudeFit
        Model with amplitudes satisfying the conjugate pairing, the raw
        real coefficients, and rms_error = sqrt(chi^2 / N).
    """
    q = np.asarray(getattr(roots, "roots", roots), dtype=np.complex128)
    y = _samples_of(segment)
    if y.size < q.size:
        raise ValueError(f"segment of {y.size} samples cannot pin {q.size} modes")
    coef, rms = _fit(mode_basis(q, y.size).T, y, modes=True)
    model = roots_to_model(q, _amplitudes_from_coefficients(q, coef), dt)
    return AmplitudeFit(model=model, coefficients=coef, rms_error=rms)


def _amplitudes_from_coefficients(q: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """Invert the real-basis packing of ``_columns``: a pair's cosine and
    sine coefficients (a, b) give c = (a + i b)/2 on its positive-frequency
    root and the conjugate on the partner; a real root keeps its own."""
    partner, lead = one_row(_pairs(q[None]))
    source, real, cosine = (x[0] for x in _columns(partner[None], lead[None]))
    amplitudes = np.empty(q.size, dtype=np.complex128)
    amplitudes[source[real]] = coef[real]
    pair = np.flatnonzero(cosine)
    amplitudes[source[pair]] = (coef[pair] + 1j * coef[pair + 1]) / 2.0
    amplitudes[partner[source[pair]]] = np.conj(amplitudes[source[pair]])
    return amplitudes


def fit_initial_conditions(law: LinearLaw, segment) -> InitialConditionFit:
    """Fit recursion seed values by least squares against a segment.

    The basis series are impulse responses: unit value at seed position
    l, zero at the other seeds, carried through the recursion by
    ``impulse_basis``, one recursion run for all n of them.  The fitted
    seeds are therefore directly the first n samples of the
    reconstruction.

    Raises
    ------
    UnstableBasis
        If some basis entry is beyond 1e100 in magnitude or not finite.
    SingularNormalMatrix
        If the normal equations cannot be solved even with the ridge.
    """
    y = _samples_of(segment)
    if y.size < law.order:
        raise ValueError(f"segment of {y.size} samples cannot pin {law.order} seed values")
    coef, rms = _fit(impulse_basis(law, y.size).T, y, modes=False)
    return InitialConditionFit(law=law, initial=coef, rms_error=rms)


def reconstruct(fit, count: int) -> np.ndarray:
    """Regenerate ``count`` samples from either fit kind.

    An AmplitudeFit is evaluated at t = k * dt by ``evaluate_model``;
    an InitialConditionFit runs its recursion from the fitted seeds.
    """
    if isinstance(fit, AmplitudeFit):
        return evaluate_model(fit.model, np.arange(count, dtype=np.float64) * fit.model.dt)
    if isinstance(fit, InitialConditionFit):
        return run_recursion(fit.law, fit.initial, count)
    raise TypeError(f"cannot reconstruct from {type(fit).__name__}")


def accuracy(original, simulated) -> float:
    """Accuracy A = 1 - ||X - X_sim||_2 / ||X||_2.

    A = 1 is exact reproduction; 0 means the error norm matches the
    signal norm; negative values mean the surrogate is worse than
    silence.  A reference so small that its sum of squares leaves
    float64's normal range (a peak below about 1e-154) is first scaled
    by its peak, so its accuracy does not round away or read as that of
    an all-zero reference.
    """
    x = _samples_of(original)
    x_sim = _samples_of(simulated)
    if x.shape != x_sim.shape:
        raise ValueError("accuracy needs equal-length signals")
    error, norm = x - x_sim, np.linalg.norm(x)
    if norm < _SMALLEST_NORM:
        peak = np.max(np.abs(x), initial=0.0)
        if peak == 0.0:
            raise ZeroSignal("accuracy is undefined for an all-zero reference")
        with np.errstate(over="ignore"):  # an error beyond float range reads as A = -inf
            error, norm = error / peak, np.linalg.norm(x / peak)
    return float(1.0 - np.linalg.norm(error) / norm)
