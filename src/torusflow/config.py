"""Scenario configuration: defaults, INI files, env and flag overrides, hashing.

Precedence (lowest to highest): package defaults, scenario file, environment
variables TORUSFLOW_<SECTION>_<KEY>, command-line --section.key=value flags.
Every output carries the sha256 hash of the fully resolved configuration.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import os

import numpy as np

from . import shapes
from .errors import ConfigError
from .geometry import read_snapshot, resample_equal_arclength

# The documented defaults section: every key a scenario may override.
DEFAULTS = """\
[geometry]
type = circle
r = 0.2
center = 0.5,0.5
h = 0.5
offset = 0.0
angle = 0
k = 1
mode = 1
amplitude = 0.0
which = top
phase = inside
a = 0.2
b = 0.1
file =
n_markers = 256

[flow]
kind = sd
gamma = 0.0
t_end = 1e-3
scheme = ssd
dt =
max_steps = 1000000

[grid]
n = 256

[monitor]
eps0 = 0.5
delta0 = 1000.0
reference = auto

[stability]
gammas = 0.0
n_modes = 8
k_max = 0
lamella_h = 0.5
n_per_loop = 64

[verify]
steps = 60
dt =

[output]
dir = out
snapshot_every = 0
formats = csv,json,svg

[sweep]
key =
values =
workers = 2
"""


def _base_parser():
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.read_string(DEFAULTS)
    return cp


def load_config(path=None, overrides=(), env=None):
    """Resolve the scenario configuration with full precedence handling; a
    section or key that DEFAULTS does not list is a config error."""
    cp = _base_parser()
    known = {section: set(cp.options(section)) for section in cp.sections()}
    if path is not None:
        if not os.path.exists(path):
            raise ConfigError(f"scenario file not found: {path}")
        try:
            read = cp.read(path)
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from exc
        if not read:
            raise ConfigError(f"cannot read scenario file: {path}")
    env = os.environ if env is None else env
    for key, val in env.items():
        if not key.startswith("TORUSFLOW_"):
            continue
        parts = key[len("TORUSFLOW_") :].lower().split("_", 1)
        if len(parts) != 2:
            raise ConfigError(f"environment variable {key} is not TORUSFLOW_<SECTION>_<KEY>")
        section, opt = parts
        if not cp.has_section(section):
            raise ConfigError(f"unknown config section '{section}' in {key}")
        cp.set(section, opt, val)
    for ov in overrides:
        if "=" not in ov or "." not in ov.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value: '{ov}'")
        dotted, val = ov.split("=", 1)
        section, opt = dotted.split(".", 1)
        if not cp.has_section(section):
            raise ConfigError(f"unknown config section '{section}'")
        cp.set(section, opt, val)
    for section in cp.sections():
        if section not in known:
            raise ConfigError(f"unknown config section '{section}'")
        unknown = sorted(set(cp.options(section)) - known[section])
        if unknown:
            raise ConfigError(f"unknown config key '{section}.{unknown[0]}'")
    # no command reads [grid] n, but a malformed value is still a config error
    _getint_at_least(cp, "grid", "n", 1)
    output_formats(cp)
    return cp


def output_formats(cp):
    """The items of output.formats, a comma list over csv, json and svg."""
    items = {item.strip() for item in cp.get("output", "formats").split(",")}
    if not items <= {"csv", "json", "svg"}:
        raise ConfigError(f"output.formats may list only csv, json and svg, not {sorted(items)}")
    return items


def config_hash(cp):
    buf = io.StringIO()
    for section in sorted(cp.sections()):
        for key in sorted(cp.options(section)):
            buf.write(f"{section}.{key}={cp.get(section, key)}\n")
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()[:16]


def _getfloat(cp, section, key):
    raw = cp.get(section, key).strip()
    if raw == "":
        return None
    try:
        v = float(raw)
    except ValueError:
        v = np.nan
    if np.isnan(v):
        raise ConfigError(f"{section}.{key}: not a number: '{raw}'")
    return v


def _getint(cp, section, key):
    v = _getfloat(cp, section, key)
    if v is None:
        return None
    if not v.is_integer():
        raise ConfigError(f"{section}.{key}: expected an integer, got '{v}'")
    return int(v)


def _getint_at_least(cp, section, key, low):
    """section.key as an integer >= low; an empty or smaller value is a config error."""
    v = _getint(cp, section, key)
    if v is None or v < low:
        raise ConfigError(f"{section}.{key} must be an integer >= {low}")
    return v


def _getfloats(cp, section, key):
    """The comma-separated numbers of section.key; empty items are skipped."""
    raw = cp.get(section, key).strip()
    try:
        vals = [float(t) for t in raw.split(",") if t.strip()]
    except ValueError:
        vals = [np.nan]
    if np.any(np.isnan(vals)):
        raise ConfigError(f"{section}.{key}: not a list of numbers: '{raw}'")
    return vals


def build_geometry(cp):
    """Construct the scenario curve (and the unperturbed base when one exists)."""
    g = cp["geometry"]
    n = _getint_at_least(cp, "geometry", "n_markers", 16)
    center = _getfloats(cp, "geometry", "center")
    if len(center) != 2:
        raise ConfigError("geometry.center must be two numbers x,y")
    typ = g.get("type").strip()
    base = None

    def _radius(key):
        r = _getfloat(cp, "geometry", key)
        if r is None or not 0.0 < r < 0.5:
            raise ConfigError(f"geometry.{key} must lie in (0, 0.5)")
        return r

    def _need(key, get=_getfloat):
        v = get(cp, "geometry", key)
        if v is None:
            raise ConfigError(f"geometry.{key} must be set")
        return v

    if typ == "circle":
        curve = shapes.circle(_radius("r"), center, n, phase=g.get("phase"))
    elif typ == "ellipse":
        curve = shapes.ellipse(_radius("a"), _radius("b"), center, n)
    elif typ == "strip":
        curve = shapes.strip(
            _need("h"),
            offset=_need("offset"),
            angle=_getint(cp, "geometry", "angle"),
            n=n,
        )
    elif typ == "lamella":
        curve = shapes.lamella(_need("k", _getint), h=_need("h"), n_per_loop=n)
    elif typ == "perturbed_circle":
        r = _radius("r")
        eps = _getfloat(cp, "geometry", "amplitude")
        if eps is None or not 0.0 <= eps < 0.5 * r:
            raise ConfigError("geometry.amplitude must lie in [0, r/2)")
        curve = shapes.perturbed_circle(r, eps, _need("mode", _getint), center, n)
        base = shapes.circle(r, center, n)
    elif typ == "perturbed_strip":
        h, offset = _need("h"), _need("offset")
        curve = shapes.perturbed_strip(
            h, _need("amplitude"), _need("mode", _getint), offset=offset, n=n,
            which=g.get("which"),
        )
        base = shapes.strip(h, offset=offset, n=n)
    elif typ == "perturbed_lamella":
        k = _need("k", _getint)
        h = _need("h")
        curve = shapes.perturbed_lamella(
            k, _need("amplitude"), _need("mode", _getint),
            h=h, n_per_loop=n,
        )
        base = shapes.lamella(k, h=h, n_per_loop=n)
    elif typ == "snapshot":
        path = g.get("file").strip()
        if not path or not os.path.exists(path):
            raise ConfigError(f"geometry.file not found: '{path}'")
        curve = read_snapshot(path)
        curve = resample_equal_arclength(curve, n)
    else:
        raise ConfigError(f"unknown geometry.type '{typ}'")
    return curve, base


def build_monitor(cp, curve, base):
    from .flow import StoppingMonitor

    m = cp["monitor"]
    ref_spec = m.get("reference").strip()
    if ref_spec == "none":
        reference = None
    elif ref_spec == "auto":
        reference = base if base is not None else curve
    elif ref_spec == "initial":
        reference = curve
    elif ref_spec == "base":
        if base is None:
            raise ConfigError("monitor.reference=base requires a perturbed geometry")
        reference = base
    else:
        if not os.path.exists(ref_spec):
            raise ConfigError(f"monitor.reference snapshot not found: '{ref_spec}'")
        reference = read_snapshot(ref_spec)
    eps0 = _getfloat(cp, "monitor", "eps0")
    delta0 = _getfloat(cp, "monitor", "delta0")
    if eps0 is None or delta0 is None or eps0 <= 0 or delta0 <= 0:
        raise ConfigError("monitor thresholds eps0, delta0 must be positive")
    return StoppingMonitor(eps0=eps0, delta0=delta0, reference=reference)


def build_flow_state(cp, curve):
    from .flow import FlowParams, make_state

    f = cp["flow"]
    kind = f.get("kind").strip()
    if kind not in ("ms", "sd"):
        raise ConfigError("flow.kind must be 'ms' or 'sd'")
    if f.get("scheme").strip() != "ssd":
        raise ConfigError("flow.scheme must be 'ssd'; the rk4 integrator was removed")
    gamma = _getfloat(cp, "flow", "gamma")
    if gamma is None or gamma < 0:
        raise ConfigError("flow.gamma must be >= 0")
    dt = _getfloat(cp, "flow", "dt")
    if dt is not None and dt <= 0:
        raise ConfigError("flow.dt must be positive when set")
    params = FlowParams(dt=dt)
    return make_state(curve, kind, gamma=gamma, params=params)
