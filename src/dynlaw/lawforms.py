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

The recursion is never stepped one sample at a time in Python.  Over
``count`` samples it is a banded lower-triangular Toeplitz system,
solved 32 rows per LAPACK call for all n unit seeds at once: the
impulse-response basis of ``impulse_basis``.  Running the recursion from
given seeds is that basis times the seeds.
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
    "impulse_basis",
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


_CHUNK = 32
_CHUNK_BITS = 512


def _lower_toeplitz(column: np.ndarray, size: int) -> np.ndarray:
    """(size, size) lower-triangular Toeplitz view with the given first
    column, zero-padded or cut to ``size``."""
    padded = np.zeros(2 * size - 1)
    m = min(size, column.size)
    padded[size - 1 : size - 1 + m] = column[:m]
    # entry (i, j) reads padded[size - 1 + i - j]; the zeros pad i < j
    step = padded.strides[0]
    return np.lib.stride_tricks.as_strided(
        padded[size - 1 :], shape=(size, size), strides=(step, -step), writeable=False
    )


def impulse_basis(law, count: int) -> np.ndarray:
    """Impulse responses of the recursion as a (count, n) basis B.

    Column j is the output driven from the unit seed at position j
    (oldest first), so row k expresses y_k in the seeds and ``B @ s`` is
    the recursion run from seeds s.  Rows 0..n-1 are exactly the
    identity.  Memory is O(count * n) floats.

    Over ``count`` samples the recursion is the banded lower-triangular
    Toeplitz system  sum_i (w_i / w_0) y_{k-i} = 0.  It is solved for
    all n columns at once, 32 rows per LAPACK call, each chunk seeded by
    the n rows before it.  Row j of a chunk is scaled by 2^(-p j), with
    p the smallest integer making every scaled coefficient
    |w_i / w_0| 2^(-p i) <= 1: the pivot search then always keeps the
    unit diagonal, so each solve is forward substitution, the sequential
    recursion itself up to summation order, and power-of-two scaling
    changes no rounding.  (Doubling by products of earlier rows would
    need no solves, but it compounds rounding errors by the condition of
    the law's roots at every level.)  Values beyond float range come out
    as inf or nan; callers test for them.
    """
    w = _weights_of(law)
    n = w.size - 1
    if abs(w[0]) <= 1e-12:
        raise ValueError("recursion needs |w_0| > 1e-12")
    if count < 0:
        raise ValueError("count must be >= 0")
    basis = np.eye(count, n)
    if count <= n or n == 0:
        return basis
    v = w / w[0]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        p = int(np.ceil(np.max(np.log2(np.abs(v[1:])) / np.arange(1, n + 1), initial=0.0)))
        # a chunk's scaled rows span 2^(p * chunk): keep that inside float range
        chunk = min(_CHUNK, count - n, max(1, _CHUNK_BITS // max(p, 1)))
        scale = np.ldexp(1.0, -p * np.arange(max(chunk, n + 1)))[:, None]
        system = _lower_toeplitz(v * scale[: n + 1, 0], chunk)
        # row r < n of a chunk also sees the n rows before it: -sum_{i>r} v_i y_{k+r-i}
        coupling = _lower_toeplitz(-v[:0:-1], n).T * scale[:n]
        for k in range(n, count, chunk):
            rows = min(chunk, count - k)
            rhs = np.zeros((rows, n))
            rhs[: min(n, rows)] = coupling[:rows] @ basis[k - n : k]
            basis[k : k + rows] = np.linalg.solve(system[:rows, :rows], rhs) / scale[:rows]
    return basis


def run_recursion(law, initial, count: int) -> np.ndarray:
    """Drive the recursion y_k = -(1/w_0) sum_{i=1..n} w_i y_{k-i}.

    ``initial`` supplies the first n values, oldest first; the output
    has length ``count`` and reproduces them verbatim before the
    generated part starts.  The output is ``impulse_basis(law, count) @
    initial``, so a decoder regenerates exactly the model an
    initial-condition fit solved for, not a re-rounded copy of it.
    Accepts a LinearLaw or bare weights.

    Raises
    ------
    UnstableOverflow
        At the first generated value beyond 1e100 in magnitude or not
        finite.
    """
    w = _weights_of(law)
    n = w.size - 1
    init = np.asarray(initial, dtype=np.float64)
    if init.size != n:
        raise ValueError(f"need {n} initial values, got {init.size}")
    basis = impulse_basis(w, count)
    with np.errstate(over="ignore", invalid="ignore"):
        out = basis @ init
    out[: min(n, count)] = init[:count]
    bad = ~(np.abs(out[n:]) <= 1e100)
    if bad.any():
        raise UnstableOverflow(f"recursion exceeded 1e100 at step {n + int(bad.argmax())}")
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
