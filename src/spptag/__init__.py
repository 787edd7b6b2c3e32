"""Heralded single-photon plasmon experiment simulator and tag analytics."""

from .model import (
    BiphotonAmplitude,
    RngSpec,
    Shape,
    TimeTagStream,
    evaluate_density,
    sample_delay,
)
from .errors import (
    AnalysisError,
    ConfigError,
    DomainError,
    FitError,
    SpptagError,
    TagFileError,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisError",
    "BiphotonAmplitude",
    "ConfigError",
    "DomainError",
    "FitError",
    "RngSpec",
    "Shape",
    "SpptagError",
    "TagFileError",
    "TimeTagStream",
    "evaluate_density",
    "sample_delay",
    "__version__",
]
