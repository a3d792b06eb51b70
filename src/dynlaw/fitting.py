"""Least-squares fits that turn a law into a generative model.

Two routes produce a reconstruction from the same law:

  * amplitude fit: solve for mode amplitudes c_a so that
    sum_a c_a q_a^{-k} tracks the segment;
  * initial-condition fit: solve for the n seed values whose recursion
    output tracks the segment.  Its basis is the recursion's impulse
    responses, solved for all n seeds at once (``impulse_basis``).

Both minimize the residual 2-norm over the whole segment.  Normal
equations are solved by Cholesky factorization on norm-scaled columns;
a pivot below 1e-12 of the diagonal scale triggers one retry with a
diagonal ridge of 1e-10 * trace, after which failure is final.  Column
scaling is plain diagonal preconditioning, so the returned coefficients
solve the raw normal equations.

Mode bases and the least-squares solve also run on a stack of blocks
(``_mode_bases``, ``_least_squares``), with the ridge retry only for
the blocks whose first solve fails; ``mode_basis`` and
``least_squares`` call them with one row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._stack import lapack_rows, survivors
from .errors import SingularNormalMatrix, UnstableBasis, ZeroSignal
from .lawforms import (
    ContinuousModel,
    _pairs,
    conjugate_pairs,
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


def _samples_of(segment) -> np.ndarray:
    return np.asarray(getattr(segment, "samples", segment), dtype=np.float64)


def _solve_spd(gram: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cholesky solve of each system of a stack, (g, d, d) by (g, d).

    Returns the solutions of the systems that pass, in order, and the
    mask of those: a system fails when Cholesky fails or a pivot falls
    below 1e-12 of the largest diagonal entry."""
    (lower,), failed = lapack_rows(lambda a: (np.linalg.cholesky(a),), gram)
    ok = survivors(len(gram), failed)
    ceiling = np.maximum(np.max(np.diagonal(gram[ok], axis1=-2, axis2=-1), axis=-1), 1e-300)
    pivots = np.diagonal(lower, axis1=-2, axis2=-1) ** 2
    kept = np.all(pivots > 1e-12 * ceiling[:, None], axis=-1)
    ok[ok] = kept
    lower = lower[kept]
    x = np.linalg.solve(np.swapaxes(lower, -1, -2), np.linalg.solve(lower, rhs[ok][..., None]))
    return x[..., 0], ok


def least_squares(basis: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coefficients minimizing ||y - basis @ coef||_2 by the scaled
    Cholesky solve of the module docstring; raises SingularNormalMatrix
    when even the ridge retry fails."""
    coef, errors = _least_squares(basis[None], np.asarray(y)[None])
    if errors:
        raise errors[0]
    return coef[0]


def _least_squares(basis: np.ndarray, y: np.ndarray):
    """``least_squares`` of each basis (g, N, d) against its samples
    (g, N): the coefficients of the fits that solve, in order, plus
    ``{position: SingularNormalMatrix}`` for the others.  Only the
    systems that fail the first solve get the ridge retry."""
    if basis.shape[-1] == 0:
        return np.zeros(basis.shape[:1] + (0,)), {}
    # two-stage column scaling: peak first so squaring cannot overflow
    peak = np.max(np.abs(basis), axis=-2)
    peak[peak == 0.0] = 1.0
    scaled = basis / peak[:, None, :]
    norm = np.sqrt(np.sum(scaled * scaled, axis=-2))
    norm[norm == 0.0] = 1.0
    scale = peak * norm
    scaled = scaled / norm[:, None, :]
    gram = np.swapaxes(scaled, -1, -2) @ scaled
    gram = (gram + np.swapaxes(gram, -1, -2)) / 2.0
    rhs = (np.swapaxes(scaled, -1, -2) @ y[..., None])[..., 0]
    x = np.empty(rhs.shape)
    solved, ok = _solve_spd(gram, rhs)
    x[ok] = solved
    retry = np.flatnonzero(~ok)
    errors = {}
    if retry.size:
        ridge = 1e-10 * np.trace(gram[retry], axis1=-2, axis2=-1)
        ridged = gram[retry] + ridge[:, None, None] * np.eye(gram.shape[-1])
        solved, ok = _solve_spd(ridged, rhs[retry])
        x[retry[ok]] = solved
        errors = {int(i): SingularNormalMatrix("normal equations singular even after ridge retry")
                  for i in retry[~ok]}
    kept = survivors(len(x), errors)
    return x[kept] / scale[kept], errors


def mode_basis(roots, count: int) -> np.ndarray:
    """Real design matrix of the law's modes over k = 0 .. count-1.

    Conjugate pairs rho*exp(+-i*theta) contribute the column pair
    rho^{-k} cos(theta k), rho^{-k} sin(theta k); real roots contribute
    q^{-k}.  Column order follows the (real, imag)-sorted root order,
    which makes the layout reproducible from the roots alone.
    """
    q = np.asarray(getattr(roots, "roots", roots), dtype=np.complex128)
    basis, errors = _mode_bases(q[None], count)
    if errors:
        raise errors[0]
    return basis[0]


def _mode_bases(q: np.ndarray, count: int):
    """``mode_basis`` of each root set of a stack (g, d): the (count, d)
    bases of the sets that pair up, plus ``{position: error}`` for the
    others.  A pair takes its cosine and sine columns at the place of
    its earlier root, from the root ``conjugate_pairs`` lists first."""
    partner, lead, errors = _pairs(q)
    q = q[survivors(len(q), errors)]
    index = np.arange(q.shape[1])
    real = partner == index
    cosine = ~real & (index < partner)
    width = np.where(real, 1, np.where(cosine, 2, 0))
    start = np.cumsum(width, axis=-1) - width
    column = np.where(real | cosine, start, np.take_along_axis(start, partner, axis=-1) + 1)
    # per column: the root it comes from and what it takes from that root
    order = np.argsort(column, axis=-1)
    source = np.take_along_axis(np.take_along_axis(q, np.where(lead, index, partner), -1), order, -1)
    real, cosine = np.take_along_axis(real, order, -1), np.take_along_axis(cosine, order, -1)
    k = np.arange(count, dtype=np.float64)
    # overflow to inf is expected for roots deep inside the unit circle
    # or at the origin; callers test finiteness and reject such bases
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # hypot rounds as abs() of one complex value; np.abs of a complex
        # array can differ in the last bit
        base = np.where(real, source.real, np.hypot(source.real, source.imag))
        cols = base[..., None] ** -k
        wave = np.angle(source)[..., None] * k
        np.cos(wave, out=wave, where=cosine[..., None])
        np.sin(wave, out=wave, where=(~real & ~cosine)[..., None])
        np.multiply(cols, wave, out=cols, where=~real[..., None])
    return np.ascontiguousarray(np.swapaxes(cols, -1, -2)), errors


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
    basis = mode_basis(q, y.size)
    if not np.all(np.isfinite(basis)):
        raise SingularNormalMatrix("mode basis overflowed; roots too far from the unit circle")
    coef = least_squares(basis, y)
    amplitudes = _amplitudes_from_coefficients(q, coef)
    model = roots_to_model(q, amplitudes, dt)
    resid = y - basis @ coef
    rms = float(np.sqrt(np.mean(resid**2))) if y.size else 0.0
    return AmplitudeFit(model=model, coefficients=coef, rms_error=rms)


def _amplitudes_from_coefficients(q: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """Invert the real-basis packing: pair (a, b) -> c = (a + i b)/2 on
    the positive-frequency root, conjugate on the partner."""
    pairs, reals = conjugate_pairs(q)
    entries = sorted(
        [(min(i, j), ("pair", i, j)) for i, j in pairs] + [(i, ("real", i, i)) for i in reals]
    )
    amplitudes = np.zeros(q.size, dtype=np.complex128)
    pos = 0
    for _, (kind, i, j) in entries:
        if kind == "pair":
            a, b = coef[pos], coef[pos + 1]
            amplitudes[i] = (a + 1j * b) / 2.0
            amplitudes[j] = np.conj(amplitudes[i])
            pos += 2
        else:
            amplitudes[i] = coef[pos]
            pos += 1
    return amplitudes


def fit_initial_conditions(law: LinearLaw, segment) -> InitialConditionFit:
    """Fit recursion seed values by least squares against a segment.

    The basis series are impulse responses: unit value at seed position
    l, zero at the other seeds, carried through the recursion by
    ``impulse_basis``, one block solve for all n of them.  The fitted
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
    n = law.order
    if y.size < n:
        raise ValueError(f"segment of {y.size} samples cannot pin {n} seed values")
    basis = impulse_basis(law, y.size)
    if not np.all(np.abs(basis) <= 1e100):
        raise UnstableBasis("impulse-response basis overflowed")
    coef = least_squares(basis, y)
    resid = y - basis @ coef
    rms = float(np.sqrt(np.mean(resid**2))) if y.size else 0.0
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
    silence.
    """
    x = _samples_of(original)
    x_sim = _samples_of(simulated)
    if x.shape != x_sim.shape:
        raise ValueError("accuracy needs equal-length signals")
    norm = np.linalg.norm(x)
    if norm == 0.0:
        raise ZeroSignal("accuracy is undefined for an all-zero reference")
    return float(1.0 - np.linalg.norm(x - x_sim) / norm)
