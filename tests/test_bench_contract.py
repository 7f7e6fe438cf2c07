"""Every layer function the benchmark tracer wraps must exist under its name.

bench/tracing.py looks up each TARGETS entry with getattr when it installs its
spans; a renamed or deleted function would otherwise surface only as a crash
of `bench/run.py --trace 1`.
"""

import importlib.util
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


TARGETS = _load_tracing().TARGETS


@pytest.mark.parametrize("name,owner,attr", [t[:3] for t in TARGETS], ids=[t[0] for t in TARGETS])
def test_trace_target_resolves(name, owner, attr):
    assert callable(getattr(owner, attr, None)), f"{name}: {owner.__name__}.{attr} is gone"
