"""Exception hierarchy shared across the library.

Two intermediate bases exist so callers (notably the CLI) can
distinguish malformed input from numerical failure without matching
on every concrete class.
"""


class DynlawError(Exception):
    """Base class for all library errors."""


class DataError(DynlawError):
    """Input is malformed, inconsistent, or too small for the request."""


class NumericalError(DynlawError):
    """A numerical procedure failed to produce a usable result."""


# -- embedding ---------------------------------------------------------------

class SeriesTooShort(DataError):
    """The series cannot host a single window at the requested geometry."""


class InvalidMask(DataError):
    """Lag mask rejected: column 0 must stay active, at least two bits set."""


# -- spectral ----------------------------------------------------------------

class NoConvergence(NumericalError):
    """The symmetric eigensolver (LAPACK, via numpy) did not converge."""


class DimensionMismatch(DataError):
    """Operands disagree about the window length n + 1."""


# -- law representations -----------------------------------------------------

class RootFindingDiverged(NumericalError):
    """Companion eigenvalues failed, were not finite, or missed the residual bound."""


class NonRealCoefficients(NumericalError):
    """A root multiset is not closed under conjugation within tolerance."""


class ZeroRoot(NumericalError):
    """A root sits at the origin; its logarithm does not exist."""


class UnstableOverflow(NumericalError):
    """Recursion output exceeded the overflow guard of 1e100."""


# -- fitting -----------------------------------------------------------------

class SingularNormalMatrix(NumericalError):
    """Normal equations stayed singular even after the ridge retry."""


class UnstableBasis(NumericalError):
    """An impulse-response basis series overflowed while being built."""


class ZeroSignal(DataError):
    """Accuracy is undefined against an identically zero reference."""


# -- codec artifacts ---------------------------------------------------------

class CorruptArtifact(DataError):
    """Base for every defect found while decoding a stored artifact."""


class BadMagic(CorruptArtifact):
    """Leading bytes are not the DLAW signature."""


class UnsupportedVersion(CorruptArtifact):
    """Artifact version is not one this reader understands."""


class TruncatedPayload(CorruptArtifact):
    """Byte stream ends before the declared blocks and tail."""


class InvariantViolation(CorruptArtifact):
    """Decoded fields violate a structural invariant."""


# -- signal io ---------------------------------------------------------------

class UnsupportedFormat(DataError):
    """WAV data is valid RIFF but not 16-bit integer PCM mono/stereo."""


class MalformedHeader(DataError):
    """Byte stream is not a well-formed RIFF/WAVE container."""


class AliasedFrequency(DataError):
    """Requested tone at or above the Nyquist frequency."""
