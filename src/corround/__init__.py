"""Correlated rounding toolkit and LP-driven fulfillment simulator."""

from .rounding import (
    MarginalMatrix,
    MCReport,
    RoundingOutcome,
    RoundingTrace,
    dilate_round,
    force_open_round,
    guarantee_dilate,
    guarantee_force_open,
    guarantee_js,
    hiding_probability,
    independent_round,
    mc_estimate,
    sample,
    select_scheme,
    validate,
)
from .streams import RandomStream, derive_seed

__version__ = "0.1.0"

__all__ = [
    "MarginalMatrix",
    "MCReport",
    "RandomStream",
    "RoundingOutcome",
    "RoundingTrace",
    "derive_seed",
    "dilate_round",
    "force_open_round",
    "guarantee_dilate",
    "guarantee_force_open",
    "guarantee_js",
    "hiding_probability",
    "independent_round",
    "mc_estimate",
    "sample",
    "select_scheme",
    "validate",
]
