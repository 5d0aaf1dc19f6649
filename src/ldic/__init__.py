"""Capacity regions, feedback metrics, and bit-level simulation for the
two-user linear deterministic interference channel with noisy output feedback."""

from .bounds import build_bounds, capacity_region
from .metrics import MetricSurface, compute_metrics, feedback_threshold, feedback_useless, sweep
from .params import ChannelParams, derive_variant
from .polytope import RatePoint, RatePolytope
from .sim import SCHEMES, derive_config, draw_messages, run_scheme, run_session

__all__ = [
    "ChannelParams",
    "MetricSurface",
    "RatePoint",
    "RatePolytope",
    "SCHEMES",
    "build_bounds",
    "capacity_region",
    "compute_metrics",
    "derive_config",
    "derive_variant",
    "draw_messages",
    "feedback_threshold",
    "feedback_useless",
    "run_scheme",
    "run_session",
    "sweep",
]
