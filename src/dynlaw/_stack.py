"""Bookkeeping for stacked, whole-file computations.

The codec runs all blocks of a file through each stage as one stack of
arrays.  A block that fails a stage drops out of the later ones, and its
first failure is kept; the file then raises the failure of its
lowest-index failed block, which is what a pass over the blocks one by
one raises.  Stacked kernels report failures as ``{position: exception}``
and return outputs for the other rows only, in order.  A single-law
function is such a kernel called with one row and unwrapped by
``one_row``.  A stage whose rows need different shapes at a BLAS or
LAPACK call takes them split by shape, in runs of rows of one degree
(``runs``), and pads what it computes per run back into one stack
(``padded``).
"""

from __future__ import annotations

import numpy as np


class Failures:
    """Per-block failure status of a whole-file pass: the first
    exception of each failed block, by block index."""

    def __init__(self):
        self.first: dict[int, Exception] = {}

    def record(self, rows: np.ndarray, errors: dict) -> np.ndarray:
        """Record ``errors`` keyed by position in ``rows`` (block
        indices); return the mask of the positions that did not fail."""
        for pos, exc in errors.items():
            self.first.setdefault(int(rows[pos]), exc)
        return survivors(len(rows), errors)

    def raise_first(self) -> None:
        if self.first:
            raise self.first[min(self.first)]


def one_row(result: tuple) -> tuple:
    """The outputs of a stacked kernel, ``(*outputs, errors)``, called
    with one row: that row of each output, or the row's error raised."""
    *outputs, errors = result
    if errors:
        raise errors[0]
    return tuple(x[0] for x in outputs)


def drop(errors: dict, *arrays) -> tuple:
    """The rows of each of ``arrays`` whose positions are not keys of
    ``errors``: the arrays themselves, not copies, when there are none."""
    if not errors:
        return arrays
    ok = survivors(len(arrays[0]), errors)
    return tuple(a[ok] for a in arrays)


def survivors(count: int, errors: dict) -> np.ndarray:
    """Mask of the positions 0 .. count-1 that are not keys of ``errors``."""
    ok = np.ones(count, dtype=bool)
    if errors:  # an empty fancy index costs more than the test
        ok[list(errors)] = False
    return ok


def runs(shapes):
    """The runs of a stack split by shape, given as ``(rows, d)`` per run,
    whose rows are laid end to end and hold d columns each: per run, the
    slice of its rows, the slice of its columns and d."""
    start = col = 0
    for count, d in shapes:
        yield slice(start, start + count), slice(col, col + count * d), d
        start, col = start + count, col + count * d


def padded(parts: list, shapes, fill: float = 0.0) -> np.ndarray:
    """The arrays of each run of a stack split by shape, (rows, d) or
    (rows, d, d), as one stack padded with ``fill`` past each d to the
    widest: the one array itself when there is one run."""
    if len(parts) == 1:
        return parts[0]
    width = max(d for _, d in shapes)
    out = np.full((sum(count for count, _ in shapes),) + (width,) * (parts[0].ndim - 1), fill)
    for (rows, _, d), part in zip(runs(shapes), parts):
        out[(rows,) + (slice(d),) * (part.ndim - 1)] = part
    return out


def kept_shapes(shapes, keep: np.ndarray) -> list:
    """The ``(rows, d)`` runs of the rows of a stack split by shape that
    ``keep`` masks."""
    return [(int(np.count_nonzero(keep[rows])), d) for rows, _, d in runs(shapes)]


def lapack_rows(call, stack: np.ndarray):
    """``call``, a stacked numpy.linalg routine returning a tuple, on a
    stack of matrices.

    numpy raises LinAlgError for a whole stack when one matrix fails, so
    the failing matrices are found by halving the stack: each one gets
    the error it raises on its own.  Returns the outputs of the other
    matrices, in order, and ``{position: LinAlgError}``.
    """
    try:
        return call(stack), {}
    except np.linalg.LinAlgError as exc:
        if len(stack) == 1:
            return call(stack[:0]), {0: exc}
    half = len(stack) // 2
    head, errors = lapack_rows(call, stack[:half])
    tail, tail_errors = lapack_rows(call, stack[half:])
    errors.update({half + pos: exc for pos, exc in tail_errors.items()})
    return tuple(np.concatenate(parts) for parts in zip(head, tail)), errors


def norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, rounded as ``np.linalg.norm`` rounds a
    contiguous vector (a BLAS dot product, then the square root); BLAS
    sums strided rows in another order."""
    rows = np.ascontiguousarray(rows)
    return np.sqrt((rows[..., None, :] @ rows[..., :, None])[..., 0, 0])


def with_cause(error: Exception, cause: Exception) -> Exception:
    error.__cause__ = cause
    return error
