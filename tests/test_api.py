import importlib
import importlib.util
import re
from pathlib import Path

import ldic

ROOT = Path(__file__).parents[1]

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


def test_the_names_the_benchmark_tracer_wraps_resolve():
    # the tracer looks each name up at install time, and a missing one ends a traced run
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "benchmarks" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for layer, names in tracing.LAYER_API.items():
        module = importlib.import_module(f"ldic.{layer}")
        for qualname in names:
            if "." in qualname:  # a method, patched in its class's own namespace
                cls_name, attr = qualname.split(".")
                assert attr in vars(getattr(module, cls_name)), qualname
            else:
                assert callable(getattr(module, qualname)), qualname
    assert importlib.import_module("ldic.cli").json is not None


def test_the_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], "<README python block>", "exec"), {})
