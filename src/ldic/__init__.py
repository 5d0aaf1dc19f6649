"""Capacity regions, feedback metrics, and bit-level simulation for the
two-user linear deterministic interference channel with noisy output feedback."""

from .bounds import build_bounds, capacity_region
from .metrics import (
    MetricSurface,
    compute_metrics,
    delta,
    feedback_threshold,
    feedback_useless,
    sigma,
    sweep,
)
from .params import ChannelParams, GaussianParams, derive_variant, gaussian_to_ld
from .polytope import RatePoint, RatePolytope
from .sim import SCHEMES, derive_config, draw_messages, run_scheme, run_session

__all__ = [
    "ChannelParams",
    "GaussianParams",
    "MetricSurface",
    "RatePoint",
    "RatePolytope",
    "SCHEMES",
    "build_bounds",
    "capacity_region",
    "compute_metrics",
    "delta",
    "derive_config",
    "derive_variant",
    "draw_messages",
    "feedback_threshold",
    "feedback_useless",
    "gaussian_to_ld",
    "run_scheme",
    "run_session",
    "sigma",
    "sweep",
]
