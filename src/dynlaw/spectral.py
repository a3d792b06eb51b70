"""Correlation spectra and law extraction.

The uncentered correlation matrix of the window rows,

    C = Y^T Y / K,

is symmetric positive semidefinite.  Its eigenvector of smallest
eigenvalue is the weight vector ``w`` of the best linear law: the mean
square of the window residuals ``xi = Y w`` equals that eigenvalue, so
a near-null direction is a near-exact linear relation among lags.

Eigenproblems are solved by numpy's LAPACK-backed ``eigh``, with each
eigenvector sign-normalized.  Repeated runs on identical input agree
bit for bit with one numpy/LAPACK build; another build may differ in
the last bits.  When the smallest eigenvalue is degenerate (an
over-ordered law has a null space of several dimensions), the law is
the minimum-norm vector of that eigenspace with w_0 fixed, so it does
not depend on the basis the solver happens to return.  The codec
stores laws as float32 and fits payloads to the stored law, so a
decode of a file stays bit-identical to a decode of the in-memory
artifact.

Correlations, eigensolves and law extraction also run on a stack of
blocks (``_block_laws``), one stacked ``eigh`` for all of them; the
single-matrix functions call the same kernels with one row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._stack import Failures, lapack_rows, norms, with_cause
from .embedding import EmbeddedDataset, EmbeddingConfig
from .errors import DimensionMismatch, InvalidMask, NoConvergence

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
    """Eigenpairs in ascending eigenvalue order.

    ``eigenvectors[:, j]`` belongs to ``eigenvalues[j]``.  When a lag
    mask was active, only the active subspace is reported and every
    vector carries exact zeros at masked positions.
    """

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
    mask: tuple[int, ...] = ()
    symmetric_flag: bool = False

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        object.__setattr__(self, "weights", w)
        if w.ndim != 1 or w.size < 2:
            raise ValueError("weights must be a vector of length n + 1 >= 2")
        if abs(np.linalg.norm(w) - 1.0) > 1e-12:
            raise ValueError("weights must have unit norm")
        if not self.mask:
            object.__setattr__(self, "mask", (1,) * w.size)
        elif len(self.mask) != w.size:
            raise ValueError("mask length must match weights")
        if any(b == 0 and w[i] != 0.0 for i, b in enumerate(self.mask)):
            raise ValueError("masked positions must carry weight exactly 0")
        if self.symmetric_flag and any(w[i] != w[w.size - 1 - i] for i in range(w.size)):
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


def _symmetric(a: np.ndarray) -> np.ndarray:
    """Whether each matrix of a stack equals its transpose within
    ``atol = 1e-9 * (1 + max|a|)`` and ``rtol = 1e-5``: exactly what
    ``np.allclose(a, a.T, atol=atol)`` accepts, NaN rejected."""
    at = np.swapaxes(a, -1, -2)
    mag = np.abs(at)
    atol = 1e-9 * (1.0 + mag.max(axis=(-2, -1), keepdims=True, initial=0.0))
    with np.errstate(invalid="ignore"):
        close = (np.abs(a - at) <= atol + 1e-5 * mag) & np.isfinite(at) | (a == at)
    return close.all(axis=(-2, -1))


def _eigh(matrices: np.ndarray):
    """Ascending eigenvalues and sign-normalized eigenvector columns of
    each matrix of a stack, for the matrices LAPACK solves, plus
    NoConvergence for the others (see ``_stack``)."""
    (vals, vecs), failed = lapack_rows(lambda a: tuple(np.linalg.eigh(a)), matrices)
    errors = {
        pos: with_cause(NoConvergence(f"symmetric eigensolver failed: {exc}"), exc)
        for pos, exc in failed.items()
    }
    return vals, _normalize_sign(vecs), errors


def _eigh_one(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    vals, vecs, errors = _eigh(matrix[None])
    if errors:
        raise errors[0]
    return vals[0], vecs[0]


def _normalize_sign(vecs: np.ndarray) -> np.ndarray:
    """Flip the sign of a vector, or of each column of a matrix or of a
    stack of matrices, so that its first component above 1e-12 of its
    largest magnitude is positive.  An all-zero column is left as it is."""
    if vecs.ndim == 1:
        return _normalize_sign(vecs[:, None])[:, 0]
    mags = np.abs(vecs)
    big = mags > 1e-12 * mags.max(axis=-2, keepdims=True)
    lead = np.take_along_axis(vecs, big.argmax(axis=-2)[..., None, :], axis=-2)
    return np.where(big.any(axis=-2, keepdims=True) & (lead < 0.0), -vecs, vecs)


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
    for d in np.unique(size[size > 1]):
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


def _pick_laws(vals: np.ndarray, vecs: np.ndarray, index: int):
    """Unit law and eigenvalue of pair ``index`` of each spectrum of a
    stack, by the rule of ``extract_law``."""
    w = _canonical_null_vector(vals, vecs) if index == 0 else vecs[:, :, index]
    w = _normalize_sign(w[..., None])[..., 0]
    return w / norms(w)[:, None], vals[:, index]


def _palindromic_basis(mask: tuple[int, ...]) -> np.ndarray:
    """Orthonormal basis of the palindromic lag vectors allowed by a
    palindromic mask, one column each; the first one holds lag 0."""
    m = len(mask)
    n = m - 1
    half = 1.0 / np.sqrt(2.0)
    basis = []
    for j in range((n + 1) // 2):
        if mask[j]:
            u = np.zeros(m)
            u[j] = half
            u[n - j] = half
            basis.append(u)
    if n % 2 == 0 and mask[n // 2]:
        u = np.zeros(m)
        u[n // 2] = 1.0
        basis.append(u)
    return np.column_stack(basis)


def _symmetric_laws(c: np.ndarray, basis: np.ndarray):
    """Palindromic law and reduced eigenvalue of each correlation matrix
    of a stack, by the rule of ``extract_symmetric_law``; returns them
    for the matrices that give one, plus the errors of the others."""
    reduced = basis.T @ c @ basis
    reduced = (reduced + np.swapaxes(reduced, -1, -2)) / 2.0
    fail = Failures()
    pos = np.arange(len(c))
    vals, vecs, errors = _eigh(reduced)
    pos = pos[fail.record(pos, errors)]
    # each row of the basis holds one nonzero, so mirrored lags get the same float
    w = (basis @ _canonical_null_vector(vals, vecs)[..., None])[..., 0]
    w = _normalize_sign((w / norms(w)[:, None])[..., None])[..., 0]
    ok = fail.record(pos, {int(i): ValueError("symmetric law must be exactly palindromic")
                           for i in np.flatnonzero(~np.all(w == w[:, ::-1], axis=-1))})
    return w[ok], vals[ok, 0], fail.first


def _block_laws(c: np.ndarray, symmetric: bool):
    """The law of each correlation matrix of a stack, as the codec takes
    it: ``extract_symmetric_law``, or ``extract_law`` of
    ``eigendecompose`` (the smallest-eigenvalue law, min-norm on a tie).
    Returns the unit weights and eigenvalues of the matrices that give a
    law, in order, plus ``{position: error}`` for the others."""
    if symmetric:
        return _symmetric_laws(c, _palindromic_basis((1,) * c.shape[-1]))
    fail = Failures()
    pos = np.arange(len(c))
    ok = fail.record(pos, {int(p): ValueError("correlation matrix must be symmetric")
                           for p in np.flatnonzero(~_symmetric(c))})
    vals, vecs, errors = _eigh(c[ok])
    fail.record(pos[ok], errors)
    w, lam = _pick_laws(vals, vecs, 0)
    return w, lam, fail.first


def eigendecompose(c: CorrelationMatrix, mask: tuple[int, ...] | None = None) -> Spectrum:
    """Full spectrum of a correlation matrix.

    With a lag mask, masked rows and columns are excluded and the
    reduced problem is solved; the returned eigenvectors are re-embedded
    with exact zeros at masked positions, so the spectrum holds one pair
    per active lag and no spurious null modes along masked axes.
    """
    a = c.entries if isinstance(c, CorrelationMatrix) else np.asarray(c, dtype=np.float64)
    m = a.shape[0]
    if not _symmetric(a):
        raise ValueError("correlation matrix must be symmetric")
    if mask is not None and any(b == 0 for b in mask):
        if len(mask) != m:
            raise DimensionMismatch(f"mask of length {len(mask)} against a {m}x{m} matrix")
        active = [i for i, b in enumerate(mask) if b]
        sub = a[np.ix_(active, active)]
        vals, vecs = _eigh_one(sub)
        full = np.zeros((m, len(active)))
        full[active, :] = vecs
        return Spectrum(eigenvalues=vals, eigenvectors=full)
    vals, vecs = _eigh_one(a)
    return Spectrum(eigenvalues=vals, eigenvectors=vecs)


def extract_law(spectrum: Spectrum, config: EmbeddingConfig, index: int = 0) -> LinearLaw:
    """Pick the eigenvector of ``index``-th smallest eigenvalue as a law.

    ``index = 0`` is the best law; when the smallest eigenvalue is
    degenerate it is the minimum-norm vector of that eigenspace (see
    ``_canonical_null_vector``), so it does not depend on which basis of
    the null space the spectrum holds.  The top index is the dominant
    principal direction instead.  The vector is sign-normalized (first
    non-negligible component positive).
    """
    vals, vecs = spectrum.eigenvalues, spectrum.eigenvectors
    count = vals.size
    if not 0 <= index < count:
        raise IndexError(f"eigenpair index {index} out of range ({count} pairs)")
    w, lam = _pick_laws(vals[None], vecs[None], index)
    return LinearLaw(
        weights=w[0],
        eigenvalue=float(lam[0]),
        stride=config.stride,
        mask=config.mask,
        symmetric_flag=False,
    )


def extract_symmetric_law(c: CorrelationMatrix, config: EmbeddingConfig) -> LinearLaw:
    """Best law constrained to the palindromic subspace w[i] = w[n-i].

    The constraint realizes time-reversal symmetry exactly: the
    eigenproblem is restricted to an orthonormal palindromic basis
    (paired unit vectors scaled by 1/sqrt(2), plus the middle axis for
    even ``n``) and the smallest reduced eigenpair is re-embedded, with
    the same minimum-norm rule as ``extract_law`` on a degenerate
    reduced eigenspace (the first basis vector holds lag 0).  The
    reported eigenvalue is the Rayleigh quotient of the returned
    weights, hence >= the unconstrained minimum.

    A lag mask must itself be palindromic to be compatible with the
    constraint; anything else raises InvalidMask.
    """
    a = c.entries
    m = a.shape[0]
    n = m - 1
    if len(config.mask) != m:
        raise DimensionMismatch(f"config mask length {len(config.mask)} against {m} lags")
    mask = config.mask
    if any(mask[i] != mask[n - i] for i in range(m)):
        raise InvalidMask("symmetric extraction needs a palindromic mask")
    w, lam, errors = _symmetric_laws(a[None], _palindromic_basis(mask))
    if errors:
        raise errors[0]
    return LinearLaw(
        weights=w[0],
        eigenvalue=float(lam[0]),
        stride=config.stride,
        mask=config.mask,
        symmetric_flag=True,
    )


def law_residuals(dataset: EmbeddedDataset, law: LinearLaw) -> np.ndarray:
    """Per-window residuals xi = Y w; their mean square equals the
    law's eigenvalue when the law came from this dataset's spectrum."""
    rows = dataset.rows
    if rows.shape[1] != law.weights.size:
        raise DimensionMismatch(
            f"dataset windows have {rows.shape[1]} lags, law has {law.weights.size}"
        )
    return rows @ law.weights
