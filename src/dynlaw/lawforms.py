"""Equivalent forms of a linear law.

A weight vector w defines, all at once:

  * the polynomial  P(x) = sum_i w_i x^i  with root set {q_a},
  * the recursion   y_k = -(1/w_0) sum_{i=1..n} w_i y_{k-i},
  * the continuous model  y(t) = sum_a c_a exp(-alpha_a t)  with
    alpha_a = ln(q_a) / dt  (principal branch),
  * the companion matrix whose application is one recursion step.

Sequences q^{-k} solve the recursion exactly when P(q) = 0, which ties
the four forms together.  The principal logarithm means an angular
frequency is only recovered modulo 2*pi/dt; content above the Nyquist
frequency of the law's sampling grid aliases, as it must.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    NonRealCoefficients,
    RootFindingDiverged,
    UnstableOverflow,
    ZeroRoot,
)

__all__ = [
    "RootSet",
    "ContinuousModel",
    "weights_to_roots",
    "roots_to_weights",
    "roots_to_model",
    "evaluate_model",
    "run_recursion",
    "companion_matrix",
    "conjugate_pairs",
]


@dataclass(frozen=True)
class RootSet:
    """Roots of the law polynomial, sorted by (real, imag), plus the
    largest |P(q_a)| observed when the finder accepted them."""

    roots: np.ndarray
    residual_bound: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "roots", np.asarray(self.roots, dtype=np.complex128))

    @property
    def degree(self) -> int:
        return int(self.roots.size)


@dataclass(frozen=True)
class ContinuousModel:
    """Exponential-mode model y(t) = sum_a c_a exp(-alpha_a t)."""

    exponents: np.ndarray
    amplitudes: np.ndarray
    dt: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "exponents", np.asarray(self.exponents, dtype=np.complex128))
        object.__setattr__(self, "amplitudes", np.asarray(self.amplitudes, dtype=np.complex128))
        if self.exponents.shape != self.amplitudes.shape:
            raise ValueError("one amplitude per exponent")
        if not self.dt > 0:
            raise ValueError("dt must be positive")


def _weights_of(law) -> np.ndarray:
    w = getattr(law, "weights", law)
    return np.asarray(w, dtype=np.float64)


def weights_to_roots(law) -> RootSet:
    """All complex roots of P(x) = sum_i w_i x^i.

    The roots are the eigenvalues of the companion matrix of the monic
    polynomial (``np.roots``), so conjugate pairs come out exactly
    conjugate.  Trailing zero weights only lower the degree.  Accepts a
    LinearLaw or a bare coefficient vector.

    Raises
    ------
    RootFindingDiverged
        If the eigenvalue solver fails or returns non-finite roots, or
        some |P(q)| exceeds 1e-8 of the larger of max |w| and the
        coefficient-magnitude bound sum_i |w_i| |q|^i at that root.
    """
    w = _weights_of(law)
    scale = np.max(np.abs(w))
    if scale == 0.0:
        raise ValueError("weight vector is identically zero")
    degree = w.size - 1
    while degree > 0 and abs(w[degree]) <= 1e-14 * scale:
        degree -= 1
    if degree < 1:
        raise ValueError("effective polynomial degree is zero; no roots exist")
    monic = w[: degree + 1] / w[degree]

    try:
        z = np.roots(monic[::-1]).astype(np.complex128)
    except np.linalg.LinAlgError as exc:
        raise RootFindingDiverged(f"companion eigenvalues failed: {exc}") from exc
    if not np.all(np.isfinite(z)):
        raise RootFindingDiverged("companion eigenvalues are not finite")

    residual = np.abs(np.polyval(w[: degree + 1][::-1], z))
    # Horner at q cannot beat eps * sum_i |w_i| |q|^i, so roots far from
    # the unit circle are gated against that floor instead of max |w|.
    floor = np.polyval(np.abs(w[: degree + 1])[::-1], np.abs(z))
    worst = float(residual.max())
    if np.any(residual >= 1e-8 * np.maximum(scale, floor)):
        raise RootFindingDiverged(
            f"accepted roots leave residual {worst:.3e} against scale {scale:.3e}"
        )
    z = z[np.lexsort((z.imag, z.real))]
    return RootSet(roots=z, residual_bound=worst)


def roots_to_weights(roots, scale: float = 1.0) -> np.ndarray:
    """Expand w_n * prod_a (x - q_a) back into real coefficients.

    The leading weight becomes ``scale``.  Imaginary residue left by a
    conjugation-closed multiset is discarded; residue above 1e-6
    (relative to the coefficient scale) raises NonRealCoefficients.
    """
    q = np.asarray(getattr(roots, "roots", roots), dtype=np.complex128)
    coeffs = np.array([1.0 + 0.0j])
    for root in q:
        nxt = np.zeros(coeffs.size + 1, dtype=np.complex128)
        nxt[1:] = coeffs
        nxt[:-1] -= root * coeffs
        coeffs = nxt
    coeffs = coeffs * scale
    bound = max(1.0, float(np.max(np.abs(coeffs))))
    residue = float(np.max(np.abs(coeffs.imag)))
    if residue > 1e-6 * bound:
        raise NonRealCoefficients(
            f"imaginary residue {residue:.3e} after expansion; roots are not conjugate-closed"
        )
    return coeffs.real.copy()


def conjugate_pairs(roots, tol: float = 1e-8) -> tuple[list[tuple[int, int]], list[int]]:
    """Match a conjugation-closed multiset into (pairs, reals).

    Pairs are index tuples (i, j) with Im(roots[i]) > 0 and
    roots[j] ~ conj(roots[i]); reals are indices of near-real roots.
    Raises NonRealCoefficients when some complex root has no partner
    within tolerance.
    """
    q = np.asarray(getattr(roots, "roots", roots), dtype=np.complex128)
    unused = list(range(q.size))
    pairs: list[tuple[int, int]] = []
    reals: list[int] = []
    while unused:
        i = unused.pop(0)
        qi = q[i]
        if abs(qi.imag) <= tol * (1.0 + abs(qi)):
            reals.append(i)
            continue
        target = np.conj(qi)
        best, best_err = -1, np.inf
        for j in unused:
            err = abs(q[j] - target)
            if err < best_err:
                best, best_err = j, err
        if best < 0 or best_err > tol * (1.0 + abs(qi)):
            raise NonRealCoefficients(
                f"root {qi} has no conjugate partner within {tol:g}"
            )
        unused.remove(best)
        pairs.append((i, best) if qi.imag > 0 else (best, i))
    return pairs, reals


def roots_to_model(roots, amplitudes, dt: float) -> ContinuousModel:
    """Continuous exponential model from roots and complex amplitudes.

    Exponents are alpha_a = ln(q_a)/dt on the principal branch.
    Conjugate pairing is enforced on the amplitudes (each pair is
    averaged against the partner's conjugate, real roots keep only the
    real part), so the model evaluates to real values.
    """
    q = np.asarray(getattr(roots, "roots", roots), dtype=np.complex128)
    c = np.asarray(amplitudes, dtype=np.complex128)
    if q.shape != c.shape:
        raise ValueError("need exactly one amplitude per root")
    if np.any(np.abs(q) < 1e-300):
        raise ZeroRoot("a root at the origin has no logarithm")
    alpha = np.log(q) / dt
    fixed = c.copy()
    pairs, reals = conjugate_pairs(q)
    for i, j in pairs:
        avg = (c[i] + np.conj(c[j])) / 2.0
        fixed[i] = avg
        fixed[j] = np.conj(avg)
    for i in reals:
        fixed[i] = fixed[i].real
    return ContinuousModel(exponents=alpha, amplitudes=fixed, dt=dt)


def evaluate_model(model: ContinuousModel, t):
    """Evaluate y(t) = sum_a c_a exp(-alpha_a t); scalar in, scalar out.

    The conjugate structure guarantees a real value; the imaginary part
    is checked below 1e-9 * (1 + |y|) and dropped.

    Raises
    ------
    NonRealCoefficients
        If the imaginary part exceeds that bound, as it does for a
        model whose modes are not conjugate-paired.
    """
    tarr = np.atleast_1d(np.asarray(t, dtype=np.float64))
    y = np.exp(-np.outer(tarr, model.exponents)) @ model.amplitudes
    if not np.all(np.abs(y.imag) <= 1e-9 * (1.0 + np.abs(y.real))):
        raise NonRealCoefficients("model evaluation drifted off the real axis")
    out = y.real
    return float(out[0]) if np.isscalar(t) or np.asarray(t).ndim == 0 else out


def run_recursion(law, initial, count: int) -> np.ndarray:
    """Drive the recursion y_k = -(1/w_0) sum_{i=1..n} w_i y_{k-i}.

    ``initial`` supplies the first n values, oldest first; the output
    has length ``count`` and reproduces them verbatim before the
    generated part starts.  Accepts a LinearLaw or bare weights.

    Raises
    ------
    UnstableOverflow
        As soon as any generated value exceeds 1e100 in magnitude.
    """
    w = _weights_of(law)
    n = w.size - 1
    if abs(w[0]) <= 1e-12:
        raise ValueError("recursion needs |w_0| > 1e-12")
    init = np.asarray(initial, dtype=np.float64)
    if init.size != n:
        raise ValueError(f"need {n} initial values, got {init.size}")
    if count < 0:
        raise ValueError("count must be >= 0")
    out = np.empty(count, dtype=np.float64)
    head = min(n, count)
    out[:head] = init[:head]
    w_rev = w[1:][::-1]
    w0 = w[0]
    for k in range(n, count):
        val = -(out[k - n : k] @ w_rev) / w0
        if abs(val) > 1e100:
            raise UnstableOverflow(f"recursion exceeded 1e100 at step {k}")
        out[k] = val
    return out


def companion_matrix(law) -> np.ndarray:
    """Single-step matrix of the recursion.

    First row holds (-w_1/w_0, ..., -w_n/w_0), the subdiagonal holds
    ones; applied to the state (y_{k-1}, ..., y_{k-n}) it yields
    (y_k, ..., y_{k-n+1}).  Its eigenvalues are the growth factors of
    the law's solutions, so for an inversion-closed root set (palindromic
    laws) they coincide with the roots themselves.
    """
    w = _weights_of(law)
    n = w.size - 1
    if abs(w[0]) <= 1e-12:
        raise ValueError("companion form needs |w_0| > 1e-12")
    m = np.zeros((n, n))
    m[0, :] = -w[1:] / w[0]
    if n > 1:
        m[np.arange(1, n), np.arange(0, n - 1)] = 1.0
    return m
