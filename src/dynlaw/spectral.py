"""Correlation spectra and law extraction.

The uncentered correlation matrix of the window rows,

    C = Y^T Y / K,

is symmetric positive semidefinite.  Its eigenvector of smallest
eigenvalue is the weight vector ``w`` of the best linear law: the mean
square of the window residuals ``xi = Y w`` equals that eigenvalue, so
a near-null direction is a near-exact linear relation among lags.

Eigenproblems are solved by numpy's LAPACK-backed ``eigh``; each law,
and each eigenvector ``eigendecompose`` returns, is sign-normalized.
Repeated runs on identical input agree bit for bit with one
numpy/LAPACK build; another build may differ in the last bits.  When
the smallest eigenvalue is degenerate (an over-ordered law has a null
space of several dimensions), the law is the minimum-norm vector of
that eigenspace with w_0 fixed, so it does not depend on the basis the
solver happens to return.  The codec rounds each law to what its file
stores (weights or root exponents) and fits payloads to that law, so a
decode of a file stays bit-identical to a decode in memory.

One stacked kernel (``_laws``) extracts plain and palindromic laws.  A
linear constraint such as time-reversal symmetry (palindromic weights)
restricts each correlation to an orthonormal basis of the allowed
weights, and the law found there is re-embedded.  The codec runs it on
all blocks of a file with one stacked ``eigh``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._stack import lapack_rows, norms, one_row, with_cause
from .embedding import EmbeddedDataset, EmbeddingConfig
from .errors import DimensionMismatch, NoConvergence

__all__ = [
    "CorrelationMatrix",
    "Spectrum",
    "LinearLaw",
    "correlation",
    "eigendecompose",
    "extract_law",
    "extract_symmetric_law",
    "law_residuals",
]

@dataclass(frozen=True)
class CorrelationMatrix:
    """Symmetric correlation matrix plus the window count it averages."""

    entries: np.ndarray
    sample_count: int

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=np.float64)
        object.__setattr__(self, "entries", a)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("correlation matrix must be square")

    @property
    def trace(self) -> float:
        return float(np.trace(self.entries))


@dataclass(frozen=True)
class Spectrum:
    """Eigenpairs in ascending eigenvalue order: ``eigenvectors[:, j]``
    belongs to ``eigenvalues[j]``."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", np.asarray(self.eigenvalues, dtype=np.float64))
        object.__setattr__(self, "eigenvectors", np.asarray(self.eigenvectors, dtype=np.float64))


@dataclass(frozen=True)
class LinearLaw:
    """Unit-norm weight vector ``w`` with its residual eigenvalue.

    The law states sum_i w_i * y(t - i*stride) ~ 0.  ``symmetric_flag``
    marks weights that are palindromic by construction (w[i] == w[n-i]
    as exact floats).
    """

    weights: np.ndarray
    eigenvalue: float
    stride: int = 1
    symmetric_flag: bool = False

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        object.__setattr__(self, "weights", w)
        if w.ndim != 1 or w.size < 2:
            raise ValueError("weights must be a vector of length n + 1 >= 2")
        if not abs(np.linalg.norm(w) - 1.0) <= 1e-12:  # NaN fails too
            raise ValueError("weights must have unit norm")
        if self.symmetric_flag and not np.array_equal(w, w[::-1]):
            raise ValueError("symmetric law must be exactly palindromic")

    @property
    def order(self) -> int:
        return int(self.weights.size - 1)


def correlation(dataset: EmbeddedDataset) -> CorrelationMatrix:
    """Uncentered second-moment matrix C = Y^T Y / K, symmetrized."""
    rows = dataset.rows
    return CorrelationMatrix(entries=_correlations(rows), sample_count=rows.shape[0])


def _correlations(rows: np.ndarray) -> np.ndarray:
    """C = Y^T Y / K, symmetrized, of each window matrix of a stack."""
    c = np.swapaxes(rows, -1, -2) @ rows / rows.shape[-2]
    return (c + np.swapaxes(c, -1, -2)) / 2.0


def _eigh(matrices: np.ndarray):
    """Ascending eigenvalues and eigenvector columns, signed as LAPACK
    returns them, of each matrix of a stack, for the matrices LAPACK
    solves, plus NoConvergence for the others (see ``_stack``).  Laws
    need no sign rule here: the min-norm projection cancels the sign of
    every column, and ``_unit_laws`` signs the law itself."""
    (vals, vecs), failed = lapack_rows(lambda a: tuple(np.linalg.eigh(a)), matrices)
    errors = {
        pos: with_cause(NoConvergence(f"symmetric eigensolver failed: {exc}"), exc)
        for pos, exc in failed.items()
    }
    return vals, vecs, errors


def _normalize_sign(vecs: np.ndarray) -> np.ndarray:
    """Flip the sign of each column of a matrix, or of a stack of
    matrices, so that its first component above 1e-12 of its largest
    magnitude is positive.  An all-zero column is left as it is."""
    stack = vecs.reshape((-1,) + vecs.shape[-2:])
    mags = np.abs(stack)
    big = mags > 1e-12 * mags.max(axis=-2, keepdims=True)
    # a row-indexed gather costs a fraction of np.take_along_axis
    lead = stack[np.arange(len(stack))[:, None], big.argmax(axis=-2), np.arange(stack.shape[-1])]
    flip = (big.any(axis=-2) & (lead < 0.0))[:, None, :]
    return np.where(flip, -stack, stack).reshape(vecs.shape)


def _canonical_null_vector(vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Minimum-norm law of the smallest-eigenvalue eigenspace of each
    spectrum of a stack: ``vals`` (g, k) ascending, ``vecs`` (g, m, k).

    Eigenvalues within 1e-9 * max|lambda| of the smallest one count as
    one degenerate eigenspace, whose basis is arbitrary.  The law taken
    from it is the unit-norm projection of the lag-0 axis onto that
    span: the minimum-norm vector with w_0 fixed (Kumaresan & Tufts,
    1983), which does not depend on the basis the solver returned.  If
    the lag-0 axis is (nearly) orthogonal to the span, the first
    eigenvector is kept.
    """
    tie = 1e-9 * np.max(np.abs(vals), axis=-1, keepdims=True)
    # ascending eigenvalues: the tied ones are the leading columns
    size = np.sum(vals - vals[:, :1] <= tie, axis=-1)
    w = vecs[:, :, 0].copy()
    for d in sorted({d for d in size.tolist() if d > 1}):
        at = np.flatnonzero(size == d)
        # each span column-major, as selecting columns of one matrix lays
        # it out: the layout sets the order gemv sums in, and stored laws
        # must not move in the last bit
        span = np.swapaxes(np.swapaxes(vecs[at, :, :d], -1, -2).copy(), -1, -2)
        projection = (span @ span[:, 0, :, None])[..., 0]
        norm = norms(projection)
        kept = norm > 1e-8
        w[at[kept]] = projection[kept] / norm[kept, None]
    return w


def _palindromic_basis(n: int) -> np.ndarray:
    """Orthonormal basis of the palindromic lag vectors of order ``n``,
    one column each: (e_j + e_{n-j})/sqrt(2) for j < n/2, then the
    middle axis e_{n/2} for even ``n``.  The first column holds lag 0."""
    j = np.arange(n // 2 + 1)
    basis = np.zeros((n + 1, j.size))
    basis[j, j] = basis[n - j, j] = 1.0 / np.sqrt(2.0 - (2 * j == n))
    return basis


def _laws(c: np.ndarray, basis: np.ndarray | None = None):
    """The law of each correlation matrix of a stack: the min-norm
    smallest-eigenvalue vector (``_canonical_null_vector``) of ``c``, or,
    given orthonormal ``basis`` columns, of ``c`` restricted to their
    span and re-embedded; sign-normalized at unit norm.  Returns the
    laws and eigenvalues of the matrices LAPACK solves, in order, plus
    ``{position: NoConvergence}`` for the others."""
    if basis is not None:
        c = basis.T @ c @ basis
        c = (c + np.swapaxes(c, -1, -2)) / 2.0
    vals, vecs, errors = _eigh(c)
    w = _canonical_null_vector(vals, vecs)
    if basis is not None:
        # each row of a palindromic basis holds one nonzero, so mirrored
        # lags get the same float
        w = (basis @ w[..., None])[..., 0]
    return _unit_laws(w), vals[:, 0], errors


def _unit_laws(w: np.ndarray) -> np.ndarray:
    """Each row of a stack of laws, sign-normalized at unit norm."""
    return _normalize_sign((w / norms(w)[:, None])[..., None])[..., 0]


def eigendecompose(c: CorrelationMatrix) -> Spectrum:
    """Full spectrum of a symmetric, finite correlation matrix (a
    CorrelationMatrix or a bare square array).  Symmetric is what
    ``np.allclose(a, a.T, atol=1e-9 * (1 + max|a|))`` accepts."""
    a = c.entries if isinstance(c, CorrelationMatrix) else np.asarray(c, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        if not np.allclose(a, a.T, atol=1e-9 * (1.0 + np.max(np.abs(a), initial=0.0))):
            raise ValueError("correlation matrix must be symmetric")
    if not np.all(np.isfinite(a)):  # an inf entry makes atol inf
        raise ValueError("correlation matrix must be finite")
    vals, vecs = one_row(_eigh(a[None]))
    return Spectrum(eigenvalues=vals, eigenvectors=_normalize_sign(vecs))


def _check_order(config: EmbeddingConfig, size: int) -> None:
    """DimensionMismatch unless the config's n + 1 lags are ``size``."""
    if config.n + 1 != size:
        raise DimensionMismatch(f"order n={config.n} needs {config.n + 1} lags, got {size}")


def extract_law(spectrum: Spectrum, config: EmbeddingConfig) -> LinearLaw:
    """The best law of a spectrum: the eigenvector of its smallest
    eigenvalue, sign-normalized (first non-negligible component
    positive); of a degenerate smallest eigenvalue, the minimum-norm
    vector of its eigenspace (``_canonical_null_vector``), whatever basis
    the spectrum holds.  DimensionMismatch unless the spectrum has
    ``config.n + 1`` lags."""
    vals, vecs = spectrum.eigenvalues, spectrum.eigenvectors
    _check_order(config, vecs.shape[0])
    w = _unit_laws(_canonical_null_vector(vals[None], vecs[None]))[0]
    return LinearLaw(weights=w, eigenvalue=float(vals[0]), stride=config.stride)


def extract_symmetric_law(c: CorrelationMatrix, config: EmbeddingConfig) -> LinearLaw:
    """Best law constrained to the palindromic subspace w[i] = w[n-i].

    The constraint realizes time-reversal symmetry exactly: the
    eigenproblem is restricted to an orthonormal palindromic basis
    (paired unit vectors scaled by 1/sqrt(2), plus the middle axis for
    even ``n``) and the smallest reduced eigenpair is re-embedded, with
    the same minimum-norm rule as ``extract_law`` on a degenerate
    reduced eigenspace (the first basis vector holds lag 0).  The
    reported eigenvalue is the Rayleigh quotient of the returned
    weights, hence >= the unconstrained minimum.  DimensionMismatch
    unless ``c`` has ``config.n + 1`` lags.
    """
    _check_order(config, c.entries.shape[0])
    w, lam = one_row(_laws(c.entries[None], _palindromic_basis(config.n)))
    return LinearLaw(weights=w, eigenvalue=float(lam), stride=config.stride, symmetric_flag=True)


def law_residuals(dataset: EmbeddedDataset, law: LinearLaw) -> np.ndarray:
    """Per-window residuals xi = Y w; their mean square equals the
    law's eigenvalue when the law came from this dataset's spectrum."""
    rows = dataset.rows
    if rows.shape[1] != law.weights.size:
        raise DimensionMismatch(
            f"dataset windows have {rows.shape[1]} lags, law has {law.weights.size}"
        )
    return rows @ law.weights
