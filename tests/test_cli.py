"""CLI workflows: config resolution, commands, outputs, exit codes."""

import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from torusflow.cli import main
from torusflow.config import build_geometry, config_hash, load_config
from torusflow.errors import ConfigError


def write_ini(tmp_path, body, name="scenario.ini"):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


SD_RUN = """
[geometry]
type = perturbed_strip
h = 0.5
amplitude = 1e-3
mode = 1
n_markers = 96

[flow]
kind = sd
scheme = ssd
dt = 6.4e-5
t_end = 6.4e-4

[output]
dir = {out}
"""


def test_config_precedence(tmp_path, monkeypatch):
    path = write_ini(tmp_path, SD_RUN.format(out=tmp_path))
    cp = load_config(path)
    assert cp.get("flow", "kind") == "sd"
    assert cp.getfloat("flow", "t_end") == pytest.approx(6.4e-4)
    monkeypatch.setenv("TORUSFLOW_FLOW_T_END", "1e-4")
    cp2 = load_config(path)
    assert cp2.getfloat("flow", "t_end") == pytest.approx(1e-4)
    cp3 = load_config(path, overrides=["flow.t_end=2e-4"])
    assert cp3.getfloat("flow", "t_end") == pytest.approx(2e-4)


def test_config_hash_stable(tmp_path):
    path = write_ini(tmp_path, SD_RUN.format(out=tmp_path))
    h1 = config_hash(load_config(path))
    h2 = config_hash(load_config(path))
    assert h1 == h2
    h3 = config_hash(load_config(path, overrides=["flow.t_end=9e-4"]))
    assert h3 != h1


def test_geometry_builders(tmp_path):
    for body, nloops in [
        ("[geometry]\ntype = circle\nr = 0.15\n", 1),
        ("[geometry]\ntype = strip\nh = 0.25\nangle = 45\nn_markers = 64\n", 2),
        ("[geometry]\ntype = lamella\nk = 2\nn_markers = 32\n", 4),
        ("[geometry]\ntype = ellipse\na = 0.2\nb = 0.1\n", 1),
    ]:
        cp = load_config(write_ini(tmp_path, body, name=f"g{nloops}.ini"))
        curve, _ = build_geometry(cp)
        assert len(curve.components) == nloops


def test_bad_config_raises(tmp_path):
    with pytest.raises(ConfigError):
        load_config("/does/not/exist.ini")
    cp = load_config(write_ini(tmp_path, "[geometry]\ntype = blorp\n"))
    with pytest.raises(ConfigError):
        build_geometry(cp)
    with pytest.raises(ConfigError):
        load_config(None, overrides=["notdotted=3"])
    # a key or section DEFAULTS does not list fails from the file and the env too
    for name, body in [("key.ini", "[flow]\ntend = 1\n"), ("sec.ini", "[flows]\nkind = sd\n")]:
        with pytest.raises(ConfigError, match="unknown config"):
            load_config(write_ini(tmp_path, body, name=name), env={})
    with pytest.raises(ConfigError, match="unknown config key 'flow.c_cfl'"):
        load_config(None, env={"TORUSFLOW_FLOW_C_CFL": "0.5"})


def test_simulate_end_to_end(tmp_path):
    path = write_ini(tmp_path, SD_RUN.format(out=tmp_path))
    assert main(["simulate", path]) == 0
    cp = load_config(path)
    h = config_hash(cp)
    summary = json.loads((tmp_path / f"summary_{h}.json").read_text())
    assert summary["event"] == "completed"
    assert summary["reason"] == ""
    assert summary["area_drift"] < 1e-10
    # dissipation decay rate doubles the mode rate (2 pi)^4
    assert summary["decay_fit"]["c0"] == pytest.approx(2 * (2 * np.pi) ** 4, rel=0.05)
    assert (tmp_path / f"trace_{h}.csv").exists()
    assert (tmp_path / f"final_{h}.csv").exists()
    assert (tmp_path / f"dissipation_{h}.svg").exists()


@pytest.mark.parametrize("formats", ["nosvg", "png"])
def test_output_formats_outside_the_list_is_config_error(tmp_path, capsys, formats):
    # output.formats is a comma list over csv, json and svg, not a substring
    # test: 'nosvg' wrote SVGs and 'png' was accepted in silence
    path = write_ini(tmp_path, SD_RUN.format(out=tmp_path))
    assert main(["simulate", path, "-o", f"output.formats={formats}"]) == 2
    assert "output.formats" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.svg")) and not list(tmp_path.glob("summary_*.json"))


def test_svg_written_exactly_when_listed(tmp_path):
    for formats, svg in [("csv,json", False), (" csv , svg", True)]:
        out = tmp_path / formats.replace(",", "_").replace(" ", "")
        path = write_ini(tmp_path, SD_RUN.format(out=out))
        assert main(["simulate", path, "-o", f"output.formats={formats}"]) == 0
        h = config_hash(load_config(path, overrides=[f"output.formats={formats}"]))
        assert (out / f"summary_{h}.json").exists()
        assert (out / f"dissipation_{h}.svg").exists() == svg


def test_default_scenario_completes(tmp_path, capsys):
    # the package defaults alone (SSD, circle, SD, t_end=1e-3) must finish
    assert main(["simulate", "-o", f"output.dir={tmp_path}"]) == 0
    assert json.loads(capsys.readouterr().out)["event"] == "completed"


def test_simulate_reports_stopping_event(tmp_path):
    body = SD_RUN.format(out=tmp_path) + "\n[monitor]\neps0 = 1e-9\ndelta0 = 1e9\n"
    path = write_ini(tmp_path, body)
    assert main(["simulate", path]) == 1


def test_stability_command(tmp_path, capsys):
    body = f"""
[geometry]
type = circle
r = 0.2
n_markers = 96

[stability]
gammas = 0.0
n_modes = 6

[output]
dir = {tmp_path}
"""
    path = write_ini(tmp_path, body)
    assert main(["stability", path]) == 0
    out = json.loads(capsys.readouterr().out)
    rep = out["spectra"][0]
    assert rep["classification"] == "strictly_stable"
    assert rep["gap_on_T_perp"] == pytest.approx(75.0, rel=1e-2)


def test_stability_withholds_for_noncritical(tmp_path, capsys):
    body = f"""
[geometry]
type = ellipse
a = 0.2
b = 0.1
n_markers = 96

[stability]
gammas = 0.0
n_modes = 4

[output]
dir = {tmp_path}
"""
    assert main(["stability", write_ini(tmp_path, body)]) == 0
    rep = json.loads(capsys.readouterr().out)["spectra"][0]
    assert rep["classification"] is None
    assert "not critical" in rep["warning"]


def test_stability_threshold_table(tmp_path, capsys):
    body = f"""
[geometry]
type = lamella
k = 1
n_markers = 48

[stability]
gammas = 0.0,120.0
n_modes = 4
k_max = 3
n_per_loop = 48

[output]
dir = {tmp_path}
"""
    assert main(["stability", write_ini(tmp_path, body)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["threshold"]["0"] == 1
    assert out["threshold"]["120"] >= 2
    h = out["config_hash"]
    assert (tmp_path / f"threshold_{h}.json").exists()


def test_verify_command(tmp_path, capsys):
    body = f"""
[geometry]
type = perturbed_strip
h = 0.5
amplitude = 1e-3
mode = 1
n_markers = 96

[flow]
kind = sd
scheme = ssd
dt = 6.4e-5

[verify]
steps = 30
dt = 6.4e-5

[output]
dir = {tmp_path}
"""
    assert main(["verify", write_ini(tmp_path, body)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["first_identity"]["median_relative_residual"] < 0.02
    assert rep["second_identity_sd"]["relative_residual"] < 0.05


def test_plot_deterministic_and_empty(tmp_path, capsys):
    path = write_ini(tmp_path, SD_RUN.format(out=tmp_path))
    main(["simulate", path])
    capsys.readouterr()
    h = config_hash(load_config(path))
    trace = str(tmp_path / f"trace_{h}.csv")
    out1, out2 = str(tmp_path / "p1.svg"), str(tmp_path / "p2.svg")
    assert main(["plot", "--trace", trace, "--out", out1, "--hash", h]) == 0
    assert main(["plot", "--trace", trace, "--out", out2, "--hash", h]) == 0
    b1, b2 = Path(out1).read_bytes(), Path(out2).read_bytes()
    assert b1 == b2
    assert f"config-hash: {h}".encode() in b1
    assert main(["plot", "--out", str(tmp_path / "x.svg")]) == 2
    # snapshot overlay
    snap = str(tmp_path / f"final_{h}.csv")
    assert main(["plot", "--snapshot", snap, "--out", str(tmp_path / "c.svg")]) == 0


def test_sweep_command(tmp_path, capsys):
    body = SD_RUN.format(out=tmp_path) + "\n[sweep]\nkey = geometry.mode\nvalues = 1,2\nworkers = 1\n"
    path = write_ini(tmp_path, body)
    assert main(["sweep", path]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out[out.rfind("{", 0, out.rindex('"sweep"')) :])
    assert [r["exit"] for r in payload["sweep"]] == [0, 0]
    # two distinct config hashes on disk
    traces = [f for f in os.listdir(tmp_path) if f.startswith("trace_")]
    assert len(traces) == 2


def test_exit_codes(tmp_path):
    assert main(["simulate", "/missing.ini"]) == 2
    bad = write_ini(tmp_path, "[geometry]\ntype = circle\nr = -1\n")
    assert main(["simulate", bad]) == 2
    bad2 = write_ini(tmp_path, "[flow]\nkind = sideways\n", name="b2.ini")
    assert main(["simulate", bad2]) == 2
    for n in ("abc", "-5"):
        assert main(["simulate", "-o", f"output.dir={tmp_path}", "-o", f"grid.n={n}"]) == 2


@pytest.mark.parametrize(
    "command, overrides",
    [
        ("simulate", ["flow.max_steps="]),
        ("verify", ["verify.steps="]),
        ("stability", ["stability.n_modes="]),
        ("stability", ["stability.gammas=abc"]),
        ("stability", ["stability.lamella_h=", "stability.k_max=1"]),
        ("simulate", ["geometry.center=0.5"]),
        ("simulate", ["flow.tend=1"]),
        ("simulate", ["flow.c_cfl=0.5"]),
        ("simulate", ["flow.scheme=rk4"]),
        ("stability", ["stability.k_max=17"]),
        ("simulate", ["flow.dt=0"]),
        ("simulate", ["flow.dt=-1"]),
        ("simulate", ["flow.dt=nan"]),
        ("simulate", ["flow.kind=ms", "flow.gamma=nan"]),
        ("simulate", ["flow.t_end=nan"]),
        ("simulate", ["flow.t_end=inf"]),
        ("verify", ["verify.dt=0"]),
        ("verify", ["verify.dt=nan"]),
        ("stability", ["stability.gammas=0,nan"]),
        ("simulate", ["geometry.type=perturbed_strip", "geometry.amplitude=1e-2",
                      "geometry.which=tpo"]),
        ("simulate", ["geometry.phase=outsde"]),
    ],
    ids=["max_steps", "verify_steps", "n_modes", "gammas", "lamella_h", "center", "tend",
         "c_cfl", "scheme", "k_max", "dt_zero", "dt_negative", "dt_nan", "gamma_nan",
         "t_end_nan", "t_end_inf", "verify_dt_zero", "verify_dt_nan", "gammas_nan",
         "which", "phase"],
)
def test_malformed_value_is_config_error(tmp_path, capsys, command, overrides):
    # an empty, non-numeric, short or out-of-range value, an unknown key and a
    # removed scheme are config errors (2), not internal errors (3) or
    # silently ignored
    args = [command, "-o", f"output.dir={tmp_path}"]
    for ov in overrides:
        args += ["-o", ov]
    assert main(args) == 2
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, message",
    [("TORUSFLOW_FLWO_GAMMA", "unknown config section 'flwo'"),
     ("TORUSFLOW_GAMMA", "TORUSFLOW_GAMMA is not TORUSFLOW_<SECTION>_<KEY>")],
    ids=["unknown_section", "no_key"],
)
def test_env_var_of_unknown_section_is_config_error(tmp_path, monkeypatch, capsys, name, message):
    # a misspelt section, or a name with no key, in the environment exits 2
    # like one in a file or a flag
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(None, env={name: "5"})
    monkeypatch.setenv(name, "5")
    assert main(["simulate", "-o", f"output.dir={tmp_path}"]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, overrides",
    [
        ("simulate", ["geometry.type=strip", "geometry.h="]),
        ("simulate", ["geometry.type=strip", "geometry.offset="]),
        ("simulate", ["geometry.type=lamella", "geometry.k="]),
        ("simulate", ["geometry.type=perturbed_circle", "geometry.mode="]),
        ("simulate", ["geometry.type=perturbed_strip", "geometry.amplitude="]),
        ("simulate", ["geometry.type=perturbed_lamella", "geometry.amplitude="]),
        ("simulate", ["output.snapshot_every=-2"]),
        ("sweep", ["sweep.key=geometry.mode", "sweep.values=1,2", "sweep.workers=-3"]),
    ],
    ids=["h", "offset", "k", "mode", "amplitude", "lamella_amplitude", "snapshot_every",
         "workers"],
)
def test_empty_or_negative_count_is_config_error(tmp_path, capsys, command, overrides):
    # an empty shape parameter and a negative snapshot interval or worker
    # count are config errors (2), not internal errors (3) or quietly run
    args = [command, "-o", f"output.dir={tmp_path}"]
    for ov in overrides:
        args += ["-o", ov]
    assert main(args) == 2
    assert "config error:" in capsys.readouterr().err


def test_sweep_pool_has_at_most_one_process_per_job(tmp_path, capsys, monkeypatch):
    import torusflow.cli as cli

    sizes = []

    class Pool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return [(extra, 0) for _, _, extra in jobs]

    class Context:
        def __init__(self, method):
            assert method == "spawn"
            self.Pool = Pool

    monkeypatch.setattr(cli, "get_context", Context)
    body = SD_RUN.format(out=tmp_path) + "\n[sweep]\nkey = geometry.mode\nvalues = 1,2,3\n"
    path = write_ini(tmp_path, body)
    assert main(["sweep", path, "-o", "sweep.workers=64"]) == 0
    assert main(["sweep", path, "-o", "sweep.workers=2"]) == 0
    assert sizes == [3, 2]


def test_dotted_flag_overrides(tmp_path, capsys):
    path = write_ini(tmp_path, SD_RUN.format(out=tmp_path))
    assert main(["simulate", path, "--flow.t_end=1.28e-4"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["final_time"] == pytest.approx(1.28e-4)
    assert main(["simulate", path, "--notakey"]) == 2
