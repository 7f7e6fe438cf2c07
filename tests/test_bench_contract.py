"""The benchmark's contract with the package: its names resolve and its set-ups build.

bench/tracing.py looks up each TARGETS entry with getattr when it installs its
spans; a renamed or deleted function would otherwise surface only as a crash
of `bench/run.py --trace 1`.  Each workload in bench/workloads.py builds its
state through the scenario config, so a key its overrides set that the config
no longer knows would otherwise surface only as a failed benchmark run.
"""

import importlib.util
import pathlib

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


TARGETS = _load("tracing").TARGETS
WORKLOADS = _load("workloads").WORKLOADS


@pytest.mark.parametrize("name,owner,attr", [t[:3] for t in TARGETS], ids=[t[0] for t in TARGETS])
def test_trace_target_resolves(name, owner, attr):
    assert callable(getattr(owner, attr, None)), f"{name}: {owner.__name__}.{attr} is gone"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_setup_builds(name):
    WORKLOADS[name]().setup(0)
