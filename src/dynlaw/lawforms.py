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

The recursion is stepped once per sample for all n unit seeds at once,
and for every law of a stack at once: the impulse-response basis of
``impulse_basis``.  The stack is stepped sample-major, (samples, laws,
seeds), so each step reads the n rows before it through window views
made once, with no slicing per step; each sample is still one
vector-matrix product per law.  Running the recursion from given seeds
is that basis times the seeds, ``_generate``, which the codec's decoder
shares.

Roots, conjugate pairing, expansion and impulse bases are computed for
a stack of laws at once (``_roots``, ``_pairs``, ``_expand``,
``_impulse_bases``), which is how the codec runs all blocks of a file;
the single-law functions call the same kernels with one row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._stack import Failures, drop, lapack_rows, one_row, with_cause
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

_PAIR_TOL = 1e-8  # relative tolerance of conjugate pairing (see ``_pairs``)


@dataclass(frozen=True)
class RootSet:
    """Roots of the law polynomial, sorted by (real, imag), plus the
    largest residual read when they were accepted: |P(q_a)|, or
    |q_a^-d P(q_a)| (degree d) for a root outside the unit circle."""

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
    polynomial (the one ``np.roots`` builds), so conjugate pairs come
    out exactly conjugate.  Trailing zero weights only lower the
    degree.  Accepts a LinearLaw or a bare coefficient vector.

    Each root q must leave |P(q)| below 1e-8 max(max |w|, sum_i |w_i|
    |q|^i).  Outside the unit circle, where the sum exceeds max |w|,
    the rule is read divided by |q|^d (degree d), on the reversed
    polynomial at 1/q, so no power overflows: |q^-d P(q)| below 1e-8
    sum_i |w_i| |q|^(i-d).  ``residual_bound`` is the largest residual.

    Raises
    ------
    RootFindingDiverged
        If the eigenvalue solver fails, returns non-finite roots, or
        leaves a residual at or above its gate.
    """
    w = _weights_of(law)
    if np.max(np.abs(w)) == 0.0:
        raise ValueError("weight vector is identically zero")
    degree = int(_degrees(w))
    if degree < 1:
        raise ValueError("effective polynomial degree is zero; no roots exist")
    roots, worst = one_row(_roots(w[None, : degree + 1]))
    return RootSet(roots=roots, residual_bound=float(worst))


def _degrees(w: np.ndarray) -> np.ndarray:
    """Degree of each law of a stack once the trailing weights at or
    below 1e-14 of its largest magnitude are trimmed (0 if none is left)."""
    scale = np.max(np.abs(w), axis=-1, keepdims=True)
    kept = ~(np.abs(w[..., 1:]) <= 1e-14 * scale)
    return np.where(kept.any(axis=-1), w.shape[-1] - 1 - kept[..., ::-1].argmax(axis=-1), 0)


def _roots(w: np.ndarray):
    """Roots of each law of a stack (g, d + 1) whose weight d survives
    the trim of ``_degrees``, by the rule of ``weights_to_roots``.

    Returns the sorted roots and the largest residual of the laws that
    pass, plus ``{position: error}`` for the others.  As in
    ``np.roots``, zero low-order weights give roots at 0 and shrink the
    companion matrix, so the eigensolves are grouped by its size.
    """
    g, d = w.shape[0], w.shape[1] - 1
    fail = Failures()
    monic = w / w[:, -1:]
    p = monic[:, ::-1]  # highest power first, as np.roots takes it
    size = d - np.argmax(monic != 0, axis=-1)
    z = np.zeros((g, d), dtype=np.complex128)
    for k in sorted(set(size.tolist()) - {0}):
        at = np.flatnonzero(size == k)
        companion = np.zeros((at.size, k, k))
        companion[:, np.arange(1, k), np.arange(k - 1)] = 1.0
        companion[:, 0, :] = -p[at, 1 : k + 1] / p[at, :1]
        (eig,), failed = lapack_rows(lambda a: (np.linalg.eigvals(a),), companion)
        kept = fail.record(at, {
            pos: with_cause(RootFindingDiverged(f"companion eigenvalues failed: {exc}"), exc)
            for pos, exc in failed.items()
        })
        z[at[kept], :k] = eig
    pos, w, z = drop(fail.first, np.arange(g), w, z)
    errors = {int(i): RootFindingDiverged("companion eigenvalues are not finite")
              for i in np.flatnonzero(~np.all(np.isfinite(z), axis=-1))}
    fail.record(pos, errors)
    pos, w, z = drop(errors, pos, w, z)

    # P(q) cannot be evaluated better than eps * sum_i |w_i| |q|^i, so
    # roots far from the unit circle are gated against that floor instead
    # of max |w|.  Outside the circle value and floor are read divided by
    # q^d, on the reversed polynomial at 1/q.  Either way x = q or 1/q has
    # |x| <= 1, so its powers, taken for all roots at once by one cumprod,
    # cannot overflow; value and floor are sums over them.
    outer = np.abs(z) > 1.0
    x = np.divide(1.0, z, out=z.copy(), where=outer)
    powers = np.empty(z.shape + (w.shape[1],), dtype=np.complex128)
    powers[..., 0] = 1.0
    powers[..., 1:] = x[..., None]
    np.cumprod(powers, axis=-1, out=powers)
    # the weight of x^j: w_j inside the circle, w_(d-j) outside
    weight = np.where(outer[..., None], w[:, None, ::-1], w[:, None, :])
    residual = np.abs(np.einsum("grj,grj->gr", powers, weight))
    floor = np.einsum("grj,grj->gr", np.abs(powers), np.abs(weight))
    scale = np.max(np.abs(w), axis=-1)
    worst = residual.max(axis=-1)
    bad = np.any(residual >= 1e-8 * np.where(outer, floor, np.maximum(scale[:, None], floor)),
                 axis=-1)
    errors = {
        int(i): RootFindingDiverged(
            f"accepted roots leave residual {float(worst[i]):.3e} against scale {scale[i]:.3e}"
        )
        for i in np.flatnonzero(bad)
    }
    fail.record(pos, errors)
    z, worst = drop(errors, z, worst)
    # a row-indexed gather costs a fraction of np.take_along_axis
    return z[np.arange(len(z))[:, None], np.lexsort((z.imag, z.real), axis=-1)], worst, fail.first


def roots_to_weights(roots, scale: float = 1.0) -> np.ndarray:
    """Expand w_n * prod_a (x - q_a) back into real coefficients.

    The leading weight becomes ``scale``.  Imaginary residue left by a
    conjugation-closed multiset is discarded; residue above 1e-6
    (relative to the coefficient scale) raises NonRealCoefficients.
    """
    q = np.asarray(getattr(roots, "roots", roots), dtype=np.complex128)
    return one_row(_expand(q[None], scale))[0]


def _expand(q: np.ndarray, scale: float = 1.0):
    """Real coefficients of each root set of a stack (g, d), by the rule
    of ``roots_to_weights``; those of the sets that pass, plus
    ``{position: error}`` for the others."""
    coeffs = np.ones((q.shape[0], 1), dtype=np.complex128)
    for j in range(q.shape[1]):
        nxt = np.zeros((q.shape[0], j + 2), dtype=np.complex128)
        nxt[:, 1:] = coeffs
        nxt[:, :-1] -= q[:, j : j + 1] * coeffs
        coeffs = nxt
    coeffs = coeffs * scale
    largest = np.max(np.abs(coeffs), axis=-1)
    bound = np.where(largest > 1.0, largest, 1.0)
    residue = np.max(np.abs(coeffs.imag), axis=-1)
    bad = residue > 1e-6 * bound
    errors = {
        int(i): NonRealCoefficients(
            f"imaginary residue {residue[i]:.3e} after expansion; roots are not conjugate-closed"
        )
        for i in np.flatnonzero(bad)
    }
    return coeffs.real[~bad], errors


def conjugate_pairs(roots) -> tuple[list[tuple[int, int]], list[int]]:
    """Match a conjugation-closed multiset into (pairs, reals) by the
    rule of ``_pairs``: pairs are index tuples (i, j) that lead with the
    root above the axis, reals the indices of near-real roots.  Raises
    NonRealCoefficients when some complex root has no partner.
    """
    q = np.asarray(getattr(roots, "roots", roots), dtype=np.complex128)
    partner, lead = one_row(_pairs(q[None]))
    pairs = [(i, j) if lead[i] else (j, i) for i, j in enumerate(partner.tolist()) if i < j]
    reals = [i for i, j in enumerate(partner.tolist()) if i == j]
    return pairs, reals


def _pairs(q: np.ndarray):
    """Conjugate pairing of each root set of a stack (g, d).

    Root i is near-real when |Im q_i| <= _PAIR_TOL * (1 + |q_i|) =
    limit_i (``_pair_limit``, which the codec's stride map shares).  In
    index order, each root not yet taken as a partner that is not
    near-real takes the nearest later such root (near-real or not) to
    its conjugate, the first one on ties, which must lie within limit_i.
    Returns ``partner`` (g, d), the index each root is paired with (its
    own for a near-real root), and ``lead`` (g, d), true for near-real
    roots and for the root of each pair above the real axis, which
    ``conjugate_pairs`` lists first.  Exactly one root of a pair lies
    above the axis: |Im q_j + Im q_i| <= |q_j - conj q_i| <= limit_i <
    |Im q_i|.  Sets that fail are left out, with ``{position: error}``.

    A set in which each root that is not near-real lies below the axis
    with its exact conjugate right after it, or is that conjugate, as
    the (real, imag) sort of exactly conjugate roots leaves them, is
    paired in one vectorized step: that conjugate is at distance 0 and
    the first candidate, so the rule picks it.  Only the other sets take
    the loop over root index (``_greedy_pairs``).
    """
    g, d = q.shape
    limit = _pair_limit(q)
    real = np.abs(q.imag) <= limit
    index = np.arange(d)
    # pair[:, i + 1]: root i lies below the axis and root i + 1 is its exact conjugate
    pair = np.zeros((g, d + 1), dtype=bool)
    pair[:, 1:-1] = ~real[:, :-1] & (q.imag[:, :-1] < 0) & (q[:, 1:] == np.conj(q[:, :-1]))
    opens, closes = pair[:, 1:], pair[:, :-1]
    partner = index + opens - closes
    slow = np.flatnonzero(np.any(~(real | opens | closes), axis=-1))
    errors = {}
    if slow.size:
        partner[slow], errors = _greedy_pairs(q[slow], limit[slow], real[slow])
        errors = {int(slow[pos]): exc for pos, exc in errors.items()}
    return (*drop(errors, partner, (partner == index) | (q.imag > 0)), errors)


def _pair_limit(q: np.ndarray) -> np.ndarray:
    """The pairing tolerance _PAIR_TOL * (1 + |q|) of each root: a root
    whose imaginary part lies within it is near-real (``_pairs``)."""
    # hypot rounds as abs() of one complex value; np.abs of a complex
    # array can differ in the last bit
    return _PAIR_TOL * (1.0 + np.hypot(q.real, q.imag))


def _greedy_pairs(q: np.ndarray, limit: np.ndarray, real: np.ndarray):
    """The pairing rule of ``_pairs`` stepped over root index, for each
    set of a stack (g, d) at once, given each root's tolerance and
    near-real flag.  Returns ``partner`` of every set (unspecified for
    the sets that fail) and ``{position: error}``."""
    g, d = q.shape
    fail = Failures()
    partner = np.tile(np.arange(d), (g, 1))
    taken = np.zeros((g, d), dtype=bool)
    for i in range(d):
        at = np.flatnonzero(~taken[:, i])
        taken[at, i] = True
        at = at[~real[at, i]]
        if at.size == 0:
            continue
        with np.errstate(over="ignore", invalid="ignore"):
            diff = q[at] - np.conj(q[at, i])[:, None]
            err = np.hypot(diff.real, diff.imag)
        err[taken[at] | np.isnan(err)] = np.inf
        best = np.argmin(err, axis=-1)
        nearest = err[np.arange(at.size), best]
        # a partner lies at a finite distance, also within the infinite
        # tolerance of a root of infinite modulus
        bad = ~(nearest <= limit[at, i]) | np.isinf(nearest)
        fail.record(at, {
            int(r): NonRealCoefficients(
                f"root {q[at[r], i]} has no conjugate partner within {_PAIR_TOL:g}")
            for r in np.flatnonzero(bad)
        })
        taken[at[bad]] = True
        at, best = at[~bad], best[~bad]
        partner[at, i] = best
        partner[at, best] = i
        taken[at, best] = True
    return partner, fail.first


def roots_to_model(roots, amplitudes, dt: float) -> ContinuousModel:
    """Continuous exponential model from roots and complex amplitudes.

    Exponents are alpha_a = ln(q_a)/dt on the principal branch.
    Conjugate pairing is enforced on roots and amplitudes (a pair takes
    its positive-frequency root, its amplitude averaged against the
    partner's conjugate, and their conjugates; a near-real root and its
    amplitude keep the real part), so the model evaluates to real values
    and spans exactly the modes of ``mode_basis``.
    """
    q = np.asarray(getattr(roots, "roots", roots), dtype=np.complex128)
    c = np.asarray(amplitudes, dtype=np.complex128)
    if q.shape != c.shape:
        raise ValueError("need exactly one amplitude per root")
    if np.any(np.abs(q) < 1e-300):
        raise ZeroRoot("a root at the origin has no logarithm")
    partner, lead = one_row(_pairs(q[None]))
    real = partner == np.arange(q.size)
    q = np.where(lead, q, np.conj(q[partner]))
    q.imag[real] *= 0.0  # keeps the sign of zero, so a negative root keeps its branch of log
    avg = (c + np.conj(c[partner])) / 2.0  # on the lead root of each pair
    fixed = np.where(real, c.real, np.where(lead, avg, np.conj(avg[partner])))
    return ContinuousModel(exponents=np.log(q) / dt, amplitudes=fixed, dt=dt)


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


def impulse_basis(law, count: int) -> np.ndarray:
    """Impulse responses of the recursion as a (count, n) basis B.

    Column j is the output driven from the unit seed at position j
    (oldest first), so row k expresses y_k in the seeds and ``B @ s`` is
    the recursion run from seeds s.  Rows 0..n-1 are exactly the
    identity.  Memory is O(count * n) floats.

    Row k >= n is the recursion step itself, -(1/w_0) sum_i w_i B[k-i],
    taken for all n columns at once: 2n flops per sample and column, one
    vector-matrix product per sample, stepped sample-major as
    ``_impulse_bases`` says.  (Doubling by products of earlier rows would
    take fewer steps, but it compounds rounding errors by the condition
    of the law's roots at every level.)  Values beyond float range come
    out as inf or nan; callers test for them.  The weights pass the checks of
    ``_impulse_bases`` (|w_0| > 1e-12, all finite), else ValueError.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    return one_row(_impulse_bases(_weights_of(law)[None], count))[0].T


def _impulse_bases(w: np.ndarray, count: int):
    """``impulse_basis`` of each law of a stack (g, n + 1): the bases
    (n, count), one column per row, of the laws that have one, plus
    ``{position: ValueError}`` for laws with |w_0| <= 1e-12 or a
    non-finite weight.

    The recursion steps a sample-major (count, g, n) array: step k reads
    rows k - n .. k - 1 of every law as one (g, n, n) window and writes
    row k.  The windows and the rows they write are views made once, so
    a step builds no slice, and a window ends in memory before the row
    it writes, so numpy's overlap check between them is a bounds test.
    (In a block-major array the laws' rows interleave; slicing and the
    overlap check took about 40% of a step at two laws, n = 32.)  Each
    step is still one vector-matrix product per law on the same numbers,
    so a row comes out the same whatever else the stack holds, bit for
    bit the law stepped alone.  ``out`` goes to ``np.matmul`` by
    position: parsing it as a keyword took about a tenth of a step.  The
    bases are a transposed view."""
    n = w.shape[1] - 1
    small = np.abs(w[:, 0]) <= 1e-12  # NaN is not small; it fails as not finite
    errors = {int(i): ValueError("recursion needs |w_0| > 1e-12" if small[i]
                                 else "recursion needs finite weights")
              for i in np.flatnonzero(small | ~np.all(np.isfinite(w), axis=-1))}
    (w,) = drop(errors, w)
    basis = np.zeros((count, w.shape[0], n))
    head = np.arange(min(count, n))
    basis[head, :, head] = 1.0
    if count > n:
        # window k - n holds rows k - n .. k - 1 of every law, (laws, n, n)
        windows = sliding_window_view(basis[:-1], n, axis=0).swapaxes(-1, -2)
        with np.errstate(over="ignore", invalid="ignore"):
            step = (-w[:, :0:-1] / w[:, :1])[:, None, :]  # weights of y_{k-n} .. y_{k-1}
            for window, row in zip(windows, basis[n:, :, None, :]):
                np.matmul(step, window, row)
    return basis.transpose(1, 2, 0), errors


def _generate(bases, coef: np.ndarray):
    """Samples ``coef @ basis`` of each block of a stack split by shape:
    ``bases`` is a list of stacks (g, d, N) whose rows stack in order, one
    matrix product per stack, and ``coef`` (rows, >= d) holds each
    block's coefficients, those past its basis's d unused.  Returns the
    samples of the blocks whose samples all stay within 1e100 and
    finite, plus ``{position: UnstableOverflow}`` for the others."""
    parts, start = [], 0
    with np.errstate(over="ignore", invalid="ignore"):
        for basis in bases:
            parts.append((coef[start : start + len(basis), None, : basis.shape[1]] @ basis)[:, 0])
            start += len(basis)
    y = parts[0] if len(parts) == 1 else np.concatenate(parts)
    bad = ~(np.abs(y) <= 1e100)
    failed = np.flatnonzero(bad.any(axis=-1))
    errors = {
        int(i): UnstableOverflow(f"generated sample beyond 1e100 at step {int(bad[i].argmax())}")
        for i in failed
    }
    return (np.delete(y, failed, axis=0) if failed.size else y), errors


def run_recursion(law, initial, count: int) -> np.ndarray:
    """Drive the recursion y_k = -(1/w_0) sum_{i=1..n} w_i y_{k-i}.

    ``initial`` supplies the first n values, oldest first; the output
    has length ``count`` and reproduces them verbatim before the
    generated part starts.  The output is ``impulse_basis(law, count) @
    initial`` through the decoder's ``_generate``, so a decoder
    regenerates exactly the model an initial-condition fit solved for.
    Accepts a LinearLaw or bare weights.

    Raises
    ------
    UnstableOverflow
        At the first value, seed or generated, beyond 1e100 in
        magnitude or not finite.
    """
    w = _weights_of(law)
    n = w.size - 1
    init = np.asarray(initial, dtype=np.float64)
    if init.size != n:
        raise ValueError(f"need {n} initial values, got {init.size}")
    out = one_row(_generate([impulse_basis(w, count).T[None]], init[None]))[0]
    out[: min(n, count)] = init[:count]
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
