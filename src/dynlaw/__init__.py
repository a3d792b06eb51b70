"""Linear dynamic law discovery in time series.

A law is a unit weight vector w with sum_i w_i y(t - i*stride) ~ 0; it
is found as the smallest-eigenvalue eigenvector of the delay-window
correlation matrix, converts losslessly between weight / root /
recursion / continuous-exponential form, and doubles as a block codec
whose accuracy-versus-rate behavior can be swept and compared against
a seeded-noise baseline.
"""

from .embedding import EmbeddedDataset, EmbeddingConfig, TimeSeries, embed
from .spectral import (
    CorrelationMatrix,
    LinearLaw,
    Spectrum,
    correlation,
    eigendecompose,
    extract_law,
    extract_symmetric_law,
    law_residuals,
)
from .lawforms import (
    ContinuousModel,
    RootSet,
    companion_matrix,
    conjugate_pairs,
    evaluate_model,
    roots_to_model,
    roots_to_weights,
    run_recursion,
    weights_to_roots,
)
from .fitting import (
    AmplitudeFit,
    InitialConditionFit,
    accuracy,
    fit_amplitudes,
    fit_initial_conditions,
    mode_basis,
    reconstruct,
)
from .codec import (
    AMPLITUDES,
    INITIAL_CONDITIONS,
    CodecParams,
    CompressionArtifact,
    SweepReport,
    SweepRow,
    compress,
    decompress,
    deserialize,
    random_baseline,
    rate_accuracy_slope,
    serialize,
    sweep,
)
from .signal_io import SynthSpec, lcg_uniform, read_wav, synthesize, write_wav
from . import errors

__version__ = "0.1.0"

__all__ = [
    "TimeSeries", "EmbeddingConfig", "EmbeddedDataset", "embed",
    "CorrelationMatrix", "Spectrum", "LinearLaw",
    "correlation", "eigendecompose", "extract_law", "extract_symmetric_law",
    "law_residuals",
    "RootSet", "ContinuousModel", "weights_to_roots", "roots_to_weights",
    "roots_to_model", "evaluate_model", "run_recursion", "companion_matrix",
    "conjugate_pairs",
    "AmplitudeFit", "InitialConditionFit", "fit_amplitudes",
    "fit_initial_conditions", "mode_basis", "reconstruct", "accuracy",
    "CodecParams", "CompressionArtifact",
    "SweepRow", "SweepReport", "compress", "decompress",
    "serialize", "deserialize", "sweep", "random_baseline", "rate_accuracy_slope",
    "AMPLITUDES", "INITIAL_CONDITIONS",
    "SynthSpec", "read_wav", "write_wav", "synthesize", "lcg_uniform",
    "errors",
    "__version__",
]
