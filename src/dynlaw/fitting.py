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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularNormalMatrix, UnstableBasis, ZeroSignal
from .lawforms import (
    ContinuousModel,
    conjugate_pairs,
    impulse_basis,
    roots_to_model,
    run_recursion,
)
from .spectral import LinearLaw

__all__ = [
    "AmplitudeFit",
    "InitialConditionFit",
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


def _solve_spd(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    """Cholesky solve; None when a pivot falls below 1e-12 of scale."""
    try:
        lower = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return None
    ceiling = max(float(np.max(np.diag(gram))), 1e-300)
    if not np.all(np.diag(lower) ** 2 > 1e-12 * ceiling):
        return None
    return np.linalg.solve(lower.T, np.linalg.solve(lower, rhs))


def _least_squares(basis: np.ndarray, y: np.ndarray) -> np.ndarray:
    if basis.shape[1] == 0:
        return np.zeros(0)
    # two-stage column scaling: peak first so squaring cannot overflow
    peak = np.max(np.abs(basis), axis=0)
    peak[peak == 0.0] = 1.0
    scaled = basis / peak
    norm = np.sqrt(np.sum(scaled * scaled, axis=0))
    norm[norm == 0.0] = 1.0
    scale = peak * norm
    scaled = scaled / norm
    gram = scaled.T @ scaled
    gram = (gram + gram.T) / 2.0
    rhs = scaled.T @ y
    x = _solve_spd(gram, rhs)
    if x is None:
        ridge = 1e-10 * float(np.trace(gram))
        x = _solve_spd(gram + ridge * np.eye(gram.shape[0]), rhs)
    if x is None:
        raise SingularNormalMatrix("normal equations singular even after ridge retry")
    return x / scale


def mode_basis(roots, count: int) -> np.ndarray:
    """Real design matrix of the law's modes over k = 0 .. count-1.

    Conjugate pairs rho*exp(+-i*theta) contribute the column pair
    rho^{-k} cos(theta k), rho^{-k} sin(theta k); real roots contribute
    q^{-k}.  Column order follows the (real, imag)-sorted root order,
    which makes the layout reproducible from the roots alone.
    """
    q = np.asarray(getattr(roots, "roots", roots), dtype=np.complex128)
    k = np.arange(count, dtype=np.float64)
    pairs, reals = conjugate_pairs(q)
    entries: list[tuple[int, np.ndarray]] = []
    # overflow to inf is expected for roots deep inside the unit circle;
    # callers test finiteness and reject such bases
    with np.errstate(over="ignore", invalid="ignore"):
        for i, j in pairs:
            rho = abs(q[i])
            theta = np.angle(q[i])
            damp = rho ** (-k)
            entries.append((min(i, j), np.column_stack([damp * np.cos(theta * k),
                                                        damp * np.sin(theta * k)])))
        for i in reals:
            entries.append((i, (q[i].real ** (-np.arange(count)))[:, None]))
    entries.sort(key=lambda item: item[0])
    basis = np.hstack([cols for _, cols in entries]) if entries else np.zeros((count, 0))
    return basis


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
    coef = _least_squares(basis, y)
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
    coef = _least_squares(basis, y)
    resid = y - basis @ coef
    rms = float(np.sqrt(np.mean(resid**2))) if y.size else 0.0
    return InitialConditionFit(law=law, initial=coef, rms_error=rms)


def reconstruct(fit, count: int) -> np.ndarray:
    """Regenerate ``count`` samples from either fit kind.

    An AmplitudeFit is evaluated at t = k * dt; an InitialConditionFit
    runs its recursion from the fitted seeds.
    """
    if isinstance(fit, AmplitudeFit):
        t = np.arange(count, dtype=np.float64) * fit.model.dt
        y = np.exp(-np.outer(t, fit.model.exponents)) @ fit.model.amplitudes
        return y.real
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
