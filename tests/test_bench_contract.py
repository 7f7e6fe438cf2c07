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


TRACING = _load("tracing")
TARGETS = TRACING.TARGETS
WORKLOADS = _load("workloads").WORKLOADS


@pytest.mark.parametrize("name,owner,attr", [t[:3] for t in TARGETS], ids=[t[0] for t in TARGETS])
def test_trace_target_resolves(name, owner, attr):
    assert callable(getattr(owner, attr, None)), f"{name}: {owner.__name__}.{attr} is gone"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_setup_builds(name):
    WORKLOADS[name]().setup(0)


def test_stability_verdict_runs_as_the_benchmark_calls_it():
    # the scan reads grid.n and passes it to assemble_second_variation as
    # grid_n, which the package accepts and does not read
    work = WORKLOADS["stability_scan"]()
    work.setup(0)
    assert work.verdict(1, 10.0) == "strictly_stable"


def test_green_raw_span_covers_each_assembly_block():
    # the traced bie.green_raw span measures the assembly's series only if the
    # assembly calls bie._green_raw once per block: two diagonal blocks and
    # one cross block on the two-loop strip
    from torusflow import bie, shapes

    calls = []
    original = bie._green_raw

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    undo = TRACING.rebind(bie, "_green_raw", counted, True)
    try:
        bie.assemble_single_layer(shapes.perturbed_strip(0.5, 1e-3, 1, n=96, which="both"))
    finally:
        TRACING.restore(undo)
    assert len(calls) == 3


@pytest.mark.parametrize(
    "name,repeats",
    [("sd_circle", 1), ("ms_strip", 1), ("ms_nonlocal", 1), ("stability_scan", 5)],
)
def test_workload_outputs_pass_their_gates(name, repeats):
    # the benchmark's own correctness gates; five scan repeats cover every
    # gamma of the scan, on both sides of gamma*
    work = WORKLOADS[name]()
    work.setup(0)
    for _ in range(repeats):
        _, outputs = work.repeat()
        assert all(work.check(outputs))
    assert work.gates and all(work.gates.values()), work.gates
