import ldic

SURFACE = [
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


def test_package_exports_exactly_the_documented_names():
    assert ldic.__all__ == SURFACE
    for name in SURFACE:
        assert getattr(ldic, name) is not None
