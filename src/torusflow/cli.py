"""Command-line orchestration: simulate | stability | verify | sweep | plot.

Exit codes: 0 success, 1 numerical stopping event (reported, with reason),
2 usage/config error, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from multiprocessing import get_context

import numpy as np

from . import diagnostics as diag
from . import flow, svgplot, variation
from .config import (
    build_flow_state,
    build_geometry,
    build_monitor,
    config_hash,
    load_config,
    _getfloat,
    _getfloats,
    _getint,
    _getint_at_least,
)
from .errors import ConfigError, TorusflowError
from .geometry import height_function, read_snapshot, write_snapshot


def _outdir(cp):
    d = cp.get("output", "dir")
    os.makedirs(d, exist_ok=True)
    return d


def _summary_norms(state, reference):
    if reference is None:
        return {}
    try:
        psi = height_function(state.curve, reference)
    except TorusflowError:
        return {"psi_norms": None}
    return {
        "psi_sup": float(np.abs(psi).max()),
        "psi_w52": diag.discrete_sobolev_norm(psi, reference, 2.5),
        "psi_w3": diag.discrete_sobolev_norm(psi, reference, 3.0),
    }


def cmd_simulate(cp):
    curve, base = build_geometry(cp)
    monitor = build_monitor(cp, curve, base)
    state = build_flow_state(cp, curve)
    t_end = _getfloat(cp, "flow", "t_end")
    if t_end is None or not 0 < t_end < np.inf:
        raise ConfigError("flow.t_end must be positive and finite")
    result = flow.run(
        state,
        monitor=monitor,
        t_end=t_end,
        snapshot_every=_getint_at_least(cp, "output", "snapshot_every", 0),
        max_steps=_getint_at_least(cp, "flow", "max_steps", 1),
    )
    h = config_hash(cp)
    out = _outdir(cp)
    trace_path = os.path.join(out, f"trace_{h}.csv")
    result.trace.to_csv(trace_path)
    for i, (t, snap) in enumerate(result.snapshots):
        write_snapshot(snap, os.path.join(out, f"snapshot_{h}_{i:05d}.csv"))
    write_snapshot(result.state.curve, os.path.join(out, f"final_{h}.csv"))
    tarr = result.trace.column("t")
    darr = result.trace.column("dissipation")
    fit = {}
    sel = (tarr >= 0.5 * tarr[-1]) & (darr > 0)
    if np.count_nonzero(sel) >= 3:
        try:
            c0, r2 = diag.fit_exponential(tarr[sel], darr[sel])
            fit = {"c0": c0, "r2": r2, "window": [float(tarr[sel][0]), float(tarr[-1])]}
        except ValueError:
            fit = {}
    summary = {
        "config_hash": h,
        "event": result.event,
        "reason": result.reason,
        "final_time": float(result.state.time),
        "steps": len(result.trace) - 1,
        "J_final": float(result.trace.column("J")[-1]),
        "area_drift": float(
            np.abs(result.trace.column("area") - result.trace.column("area")[0]).max()
        ),
        "decay_fit": fit,
        **_summary_norms(result.state, monitor.reference),
    }
    with open(os.path.join(out, f"summary_{h}.json"), "w") as fh:
        json.dump(summary, fh, indent=2)
    if "svg" in cp.get("output", "formats"):
        pos = darr > 0
        if np.count_nonzero(pos) >= 2:
            svgplot.line_plot(
                os.path.join(out, f"dissipation_{h}.svg"),
                [tarr[pos]],
                [darr[pos]],
                ["dissipation"],
                "dissipation vs t",
                "t",
                "log10 dissipation",
                logy=True,
                hash_comment=h,
            )
    print(json.dumps(summary, indent=2))
    return 0 if result.event == "completed" else 1


def cmd_stability(cp):
    curve, _ = build_geometry(cp)
    gammas = _getfloats(cp, "stability", "gammas")
    n_modes = _getint_at_least(cp, "stability", "n_modes", 1)
    k_max = _getint(cp, "stability", "k_max")
    if k_max is not None and not 0 <= k_max <= variation.LAMELLA_K_MAX:
        raise ConfigError(f"stability.k_max must lie in 0..{variation.LAMELLA_K_MAX}")
    if k_max:
        lamella_h = _getfloat(cp, "stability", "lamella_h")
        if lamella_h is None or not 0.0 < lamella_h < 1.0:
            raise ConfigError("stability.lamella_h must lie in (0, 1)")
        n_per_loop = _getint_at_least(cp, "stability", "n_per_loop", 16)
    h = config_hash(cp)
    out = _outdir(cp)
    reports = []
    for g in gammas:
        with warnings.catch_warnings(record=True) as wlist:
            warnings.simplefilter("always")
            mat = variation.assemble_second_variation(curve, g, n_modes=n_modes)
            rep = variation.spectrum(mat)
        d = rep.to_dict()
        if mat.warning:
            # non-critical input: the classification is withheld, only reported
            d["classification"] = None
            d["warning"] = mat.warning
        d["criticality_sup"] = mat.criticality_sup
        reports.append(d)
        path = os.path.join(out, f"spectrum_{h}_gamma{g:g}.json")
        with open(path, "w") as fh:
            json.dump(d, fh, indent=2)
        if "svg" in cp.get("output", "formats"):
            svgplot.stem_plot(
                os.path.join(out, f"spectrum_{h}_gamma{g:g}.svg"),
                rep.eigenvalues,
                f"second-variation spectrum, gamma={g:g}",
                hash_comment=h,
            )
    table = None
    if k_max:
        cache = {}
        table = {}
        for g in gammas:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                table[f"{g:g}"] = variation.lamella_threshold(
                    g,
                    k_max=k_max,
                    h=lamella_h,
                    n_per_loop=n_per_loop,
                    n_modes=n_modes,
                    cache=cache,
                )
        with open(os.path.join(out, f"threshold_{h}.json"), "w") as fh:
            json.dump(table, fh, indent=2)
    print(json.dumps({"config_hash": h, "spectra": reports, "threshold": table}, indent=2))
    return 0


def cmd_verify(cp):
    curve, base = build_geometry(cp)
    state = build_flow_state(cp, curve)
    kind = state.flow_kind
    # the first identity's centered difference needs three records
    steps = _getint_at_least(cp, "verify", "steps", 2)
    dt = _getfloat(cp, "verify", "dt")
    if dt is not None and dt <= 0:
        raise ConfigError("verify.dt must be positive when set")
    h = config_hash(cp)
    out = _outdir(cp)
    # short trajectory for the first identity
    trace = flow.EnergyTrace()
    st = state
    flow._record(st, trace, None)
    use_dt = dt if dt is not None else flow.adaptive_dt(st)
    for _ in range(steps):
        st = flow.step(st, use_dt)
        flow._record(st, trace, None)
    first = diag.verify_first_identity(trace)
    second_ms = diag.verify_second_identity_ms(curve, gamma=state.gamma)
    second_sd = diag.verify_second_identity_sd(curve)
    report = {
        "config_hash": h,
        "flow_kind": kind,
        "first_identity": {
            "median_relative_residual": first["median"],
            "max_relative_residual": first["max"],
        },
        "second_identity_ms": second_ms.to_dict(),
        "second_identity_sd": second_sd.to_dict(),
    }
    with open(os.path.join(out, f"identities_{h}.json"), "w") as fh:
        json.dump(report, fh, indent=2)
    trace.to_csv(os.path.join(out, f"verify_trace_{h}.csv"))
    print(json.dumps(report, indent=2))
    return 0


def _sweep_worker(args):
    path, overrides, extra = args
    cp = load_config(path, overrides=list(overrides) + [extra])
    return extra, cmd_simulate(cp)


def cmd_sweep(cp, path, overrides):
    key = cp.get("sweep", "key").strip()
    values = [v.strip() for v in cp.get("sweep", "values").split(",") if v.strip()]
    if not key or "." not in key or not values:
        raise ConfigError("sweep needs sweep.key=section.key and sweep.values=v1,v2,...")
    workers = min(_getint_at_least(cp, "sweep", "workers", 1), len(values))
    jobs = [(path, tuple(overrides), f"{key}={v}") for v in values]
    if workers > 1:
        with get_context("spawn").Pool(workers) as pool:
            results = pool.map(_sweep_worker, jobs)
    else:
        results = [_sweep_worker(j) for j in jobs]
    print(json.dumps({"sweep": [{"override": o, "exit": c} for o, c in results]}, indent=2))
    return max((c for _, c in results), default=0)


def cmd_plot(args):
    h = args.hash or ""
    made = []
    if args.trace:
        traces = [flow.EnergyTrace.from_csv(p) for p in args.trace]
        if any(len(t) == 0 for t in traces):
            raise ConfigError("empty trace")
        xs, ys, labels = [], [], []
        for p, t in zip(args.trace, traces):
            tt = t.column("t")
            dd = t.column("dissipation")
            keep = dd > 0
            if not np.any(keep):
                raise ConfigError(f"no positive dissipation values in {p}")
            xs.append(tt[keep])
            ys.append(dd[keep])
            labels.append(os.path.basename(p))
        out = args.out or "dissipation.svg"
        svgplot.line_plot(out, xs, ys, labels, "dissipation vs t", "t",
                          "log10 dissipation", logy=True, hash_comment=h)
        made.append(out)
    if args.spectrum:
        with open(args.spectrum) as fh:
            rep = json.load(fh)
        out = args.out or "spectrum.svg"
        svgplot.stem_plot(out, np.array(rep["eigenvalues"]), "second-variation spectrum",
                          hash_comment=h)
        made.append(out)
    if args.snapshot:
        curves = [read_snapshot(p) for p in args.snapshot]
        out = args.out or "curves.svg"
        svgplot.curve_overlay(out, curves, [os.path.basename(p) for p in args.snapshot],
                              "curve snapshots", hash_comment=h)
        made.append(out)
    if not made:
        raise ConfigError("plot needs --trace, --spectrum, or --snapshot")
    print("\n".join(made))
    return 0


def _parser():
    p = argparse.ArgumentParser(
        prog="torusflow",
        description="Mullins-Sekerka / surface diffusion laboratory on the flat 2-torus",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("simulate", "stability", "verify", "sweep"):
        sp = sub.add_parser(name)
        sp.add_argument("scenario", nargs="?", default=None, help="scenario INI file")
        sp.add_argument(
            "-o", "--override", action="append", default=[],
            metavar="section.key=value", help="override a config key",
        )
    pp = sub.add_parser("plot")
    pp.add_argument("--trace", action="append", default=[], help="trace CSV (repeatable)")
    pp.add_argument("--spectrum", default=None, help="spectrum JSON")
    pp.add_argument("--snapshot", action="append", default=[], help="curve CSV (repeatable)")
    pp.add_argument("--out", default=None)
    pp.add_argument("--hash", default=None, help="config hash for the metadata comment")
    return p


def main(argv=None):
    args, extra = _parser().parse_known_args(argv)
    try:
        if args.command == "plot":
            if extra:
                raise ConfigError(f"unrecognized arguments {extra}")
            return cmd_plot(args)
        # bare dotted flags (--section.key=value) are overrides too
        for item in extra:
            if item.startswith("--") and "." in item and "=" in item:
                args.override.append(item[2:])
            else:
                raise ConfigError(f"unrecognized argument '{item}'")
        cp = load_config(args.scenario, overrides=args.override)
        if args.command == "simulate":
            return cmd_simulate(cp)
        if args.command == "stability":
            return cmd_stability(cp)
        if args.command == "verify":
            return cmd_verify(cp)
        if args.command == "sweep":
            return cmd_sweep(cp, args.scenario, args.override)
        raise ConfigError(f"unknown command {args.command}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TorusflowError as exc:
        print(f"numerical stopping condition: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - exit-code contract
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
