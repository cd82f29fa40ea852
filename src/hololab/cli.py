"""Command-line front end.

Subcommands:

    hololab run-example <name>      replay an entry's golden data
    hololab holonomy <config.json>  integrate configured loops
    hololab algebra <config.json>   closure experiment over sampled loops
    hololab verify [config.json]    run the verification suite
    hololab catalog list            list stable entry names

Exit codes: 0 success, 1 numerical/tolerance failure, 2 usage or config
error.  HOLOLAB_SEED overrides the config seed.  Reports are JSON with
"schema": 1 and are deterministic for a fixed config and seed (up to the
timestamp field).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time

import numpy as np

from . import catalog as cat
from . import liealg, verify
from .errors import (ConfigError, ExprSyntaxError, HololabError, NotClosed,
                     UnboundVariable, UnknownExample, UnknownIdentifier)
from .experiments import run_closure_experiment
from .manifold import (ConnectionKind, CoordinateChart, DensityField, MetricField,
                       WeightedManifold, metric_at, ricci_at)
from .transport import (Loop, family_derivative, holonomy, holonomy_many,
                        polyline_segments, random_rectangle_loops, rectangle_loop,
                        shrinking_rectangle_family)

SCHEMA_VERSION = 1
PLOT_SAMPLES = 50  # CSV frames per loop segment with --plot

_KINDS = {
    "levi_civita": ConnectionKind.LEVI_CIVITA,
    "weighted": ConnectionKind.WEIGHTED,
    "dual_weighted": ConnectionKind.DUAL_WEIGHTED,
}


def _fail_usage(msg):
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _load_config(path):
    try:
        with open(path) as fh:
            return _object(json.load(fh), "config")
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")


def _object(value, what):
    """``value`` if it is a JSON object, else ConfigError naming ``what``."""
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be a JSON object, got {value!r}")
    return value


def _integer(value, what, least):
    """``value`` as an int: a whole number (200.0 reads as 200) of at least
    ``least``, 0 or 1, else ConfigError naming ``what``."""
    whole = isinstance(value, int) or isinstance(value, float) and value.is_integer()
    if isinstance(value, bool) or not whole or value < least:
        raise ConfigError(f"{what} must be a {'positive' if least else 'nonnegative'} "
                          f"integer, got {value!r}")
    return int(value)


def _steps_from_config(config):
    """An explicit ``steps``, a positive integer, pins a fixed grid; without
    it transports are step-controlled."""
    steps = config.get("steps")
    return None if steps is None else _integer(steps, "steps", 1)


def _resolve_seed(config):
    """The run's seed, a nonnegative integer: HOLOLAB_SEED if it is set,
    else the config's ``seed`` (default 0)."""
    env = os.environ.get("HOLOLAB_SEED")
    if env is None:
        return _integer(config.get("seed", 0), "seed", 0)
    try:
        value = int(env)
    except ValueError:
        value = env
    return _integer(value, "HOLOLAB_SEED", 0)


def _build_custom_manifold(spec):
    _object(spec, "manifold.custom")
    try:
        dim = int(spec["dim"])
        coords = tuple(spec["coords"])
        phi_src = spec["phi"]
        metric_spec = spec["metric"]
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"custom manifold missing field: {exc}")
    if len(coords) != dim:
        raise ConfigError("coords length must equal dim")
    domain = []
    for pair in spec.get("domain", [[None, None]] * dim):
        lo = -math.inf if pair[0] is None else float(pair[0])
        hi = math.inf if pair[1] is None else float(pair[1])
        domain.append((lo, hi))
    periodicity = tuple(None if p is None else float(p)
                        for p in spec.get("periodicity", [None] * dim))
    signature = tuple(spec.get("signature", (dim, 0)))
    chart = CoordinateChart(dim=dim, coord_names=coords, periodicity=periodicity,
                            domain=tuple(domain))
    try:
        if "diag" in metric_spec:
            metric = MetricField.from_expressions(chart, list(metric_spec["diag"]),
                                                  signature=signature)
        elif "full" in metric_spec:
            metric = MetricField.from_expressions(chart, metric_spec["full"],
                                                  signature=signature)
        else:
            raise ConfigError("metric needs a 'diag' or 'full' key")
        density = DensityField.from_expression(chart, phi_src)
    except ExprSyntaxError as exc:
        raise ConfigError(f"expression error at offset {exc.offset}: {exc}")
    except (UnknownIdentifier, UnboundVariable) as exc:
        raise ConfigError(str(exc))
    return WeightedManifold(chart=chart, metric=metric, density=density,
                            name=spec.get("name", "custom"))


def _entry_from_config(config):
    """Returns (CatalogEntry | None, WeightedManifold)."""
    mspec = config.get("manifold")
    if mspec is None:
        raise ConfigError("config needs a 'manifold' section")
    if "catalog" in _object(mspec, "manifold"):
        entry = cat.get_entry(mspec["catalog"])
        return entry, entry.manifold
    if "custom" in mspec:
        M = _build_custom_manifold(mspec["custom"])
        return None, M
    raise ConfigError("manifold must have a 'catalog' or 'custom' key")


def _rect_from_config(i, corners, label):
    """(corner, axis a, axis b, extent a, extent b) of a rectangle given by
    opposite corners that differ in exactly 2 coordinates."""
    c0, c1 = (np.asarray(p, dtype=float) for p in corners)
    moved = np.nonzero(np.abs(c1 - c0) > 0)[0]
    if len(moved) != 2:
        raise ConfigError(f"loop {i}: {label} corners must differ in exactly 2 coordinates")
    a, b = (int(moved[0]), int(moved[1]))
    return c0, a, b, c1[a] - c0[a], c1[b] - c0[b]


def _loops_from_config(config):
    loops = []
    families = []
    specs = config.get("loops", [])
    if not isinstance(specs, list):
        raise ConfigError(f"loops must be a list, got {specs!r}")
    for i, spec in enumerate(specs):
        if "polyline" in _object(spec, f"loop {i}"):
            pts = [np.asarray(p, dtype=float) for p in spec["polyline"]]
            if len(pts) < 2:
                raise ConfigError(f"loop {i}: polyline needs at least 2 points")
            loops.append(Loop(segments=polyline_segments(pts), basepoint=pts[0]))
        elif "rect" in spec:
            loops.append(rectangle_loop(*_rect_from_config(i, spec["rect"], "rect")))
        elif "family" in spec:
            fs = _object(spec["family"], f"loop {i} family")
            rect = _rect_from_config(i, fs["rect"], "family rect")
            family = shrinking_rectangle_family(*rect, s_max=float(fs.get("s_max", 1.0)))
            families.append((family, float(fs.get("s_step", 1e-2))))
        else:
            raise ConfigError(f"loop {i}: need 'polyline', 'rect' or 'family'")
    return loops, families


def _transport_from_config(config):
    """(catalog entry or None, manifold, connection kind, steps, loops,
    loop families) of a holonomy or algebra config."""
    entry, M = _entry_from_config(config)
    kind = _KINDS.get(config.get("connection", "weighted"))
    if kind is None:
        raise ConfigError(f"unknown connection kind {config.get('connection')!r}")
    return (entry, M, kind, _steps_from_config(config)) + _loops_from_config(config)


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _report_path(config, args):
    return getattr(args, "output", None) or config.get("output")


def _check_writable(path, what):
    """ConfigError naming ``path``, if given, unless its directory exists
    and is writable, so that a bad output path stops a command before its
    work."""
    if not path:
        return
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise ConfigError(f"{what} directory does not exist: {path}")
    if not os.access(folder, os.W_OK):
        raise ConfigError(f"{what} directory is not writable: {path}")


def _check_report_path(config, args):
    path = _report_path(config, args)
    if path and os.path.isdir(path):
        raise ConfigError(f"report path is a directory: {path}")
    _check_writable(path, "report")


def _write_report(report, config, args):
    path = _report_path(config, args)
    if path:
        text = json.dumps(report, indent=2, default=_json_default)
        with open(path, "w") as fh:
            fh.write(text + "\n")
        print(f"report written to {path}")


def _base_report(command, config, seed):
    return {
        "schema": SCHEMA_VERSION,
        "command": command,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "seed": seed,
        "config": config,
    }


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_run_example(args):
    try:
        entry = cat.get_entry(args.name)
    except UnknownExample as exc:
        return _fail_usage(str(exc))
    _check_report_path({}, args)
    results = []
    all_pass = True
    print(f"== {entry.name}: {len(entry.goldens)} golden checks")
    for check in entry.goldens:
        r = check.evaluate(entry)
        results.append(r)
        all_pass &= r["passed"]
        kind = "rel" if r["relative"] else "abs"
        print(f"  {r['name']:32s} |delta|={r['max_error']:.3e} ({kind}) "
              f"tol={r['tol']:.0e}  {'ok' if r['passed'] else 'FAIL'}")
        if not r["passed"] or args.verbose:
            print(f"    expected: {np.asarray(r['expected']).ravel()[:6]}")
            print(f"    computed: {np.asarray(r['computed']).ravel()[:6]}")
    report = _base_report("run-example", {"name": entry.name}, seed=0)
    report["results"] = results
    report["passed"] = all_pass
    _write_report(report, {}, args)
    return 0 if all_pass else 1


def _tasks_from_config(config, default):
    tasks = config.get("tasks", default)
    if not tasks:
        raise ConfigError("tasks must be a nonempty list")
    separate = set(tasks) & {"algebra", "verify"}
    if separate:
        raise ConfigError(f"tasks {sorted(separate)} are separate commands "
                          f"(hololab algebra, hololab verify)")
    unknown = set(tasks) - {"holonomy", "curvature"}
    if unknown:
        raise ConfigError(f"unknown tasks: {sorted(unknown)}")
    return tasks


def _loop_elements(M, kind, loops, steps, frames_per_segment):
    """One HolonomyElement or error string per loop.  The loops that close
    integrate as one batch; if the batch fails, each of them integrates
    alone, so a failing loop gets its own error and the others keep their
    results."""
    out = [None] * len(loops)
    closed = []
    for i, loop in enumerate(loops):
        try:
            loop.validate(M.chart)
            closed.append(i)
        except NotClosed as exc:
            out[i] = f"not closed: {exc}"
    try:
        elements = holonomy_many(M, kind, [loops[i] for i in closed], steps=steps,
                                 frames_per_segment=frames_per_segment)
        for i, h in zip(closed, elements):
            out[i] = h
    except HololabError:
        for i in closed:
            try:
                out[i] = holonomy(M, kind, loops[i], steps=steps,
                                  frames_per_segment=frames_per_segment)
            except HololabError as exc:
                out[i] = str(exc)
    return out


def cmd_holonomy(args):
    config = _load_config(args.config)
    seed = _resolve_seed(config)
    _check_report_path(config, args)
    _check_writable(args.plot, "--plot")
    entry, M, kind, steps, loops, families = _transport_from_config(config)
    include_log = bool(config.get("include_log", False))
    tasks = _tasks_from_config(config, ["holonomy"])
    report = _base_report("holonomy", config, seed)
    results = []
    exit_code = 0
    if "curvature" in tasks:
        at = (entry.basepoint if entry is not None
              else np.array([(lo + hi) / 2 for lo, hi in M.chart.sample_box()]))
        ric = ricci_at(M, kind, at)
        report["curvature"] = {"point": at.tolist(), "ricci": ric.tolist()}
        print(f"ricci at {np.round(at, 4).tolist()}: {np.round(ric, 8).tolist()}")
    elements = _loop_elements(M, kind, loops, steps, PLOT_SAMPLES if args.plot else 0)
    for i, h in enumerate(elements):
        item = {"loop": i}
        if isinstance(h, str):
            item["error"] = h
        else:
            try:
                item.update(matrix=h.matrix.tolist(),
                            det=float(np.linalg.det(h.matrix)),
                            est_error=h.est_error, steps_used=h.steps_used)
                if include_log:
                    item["log"] = liealg.mat_log(h.matrix).tolist()
                if args.plot:
                    item["plot_csv"] = _write_plot_csv(args.plot, i, M, h)
            except HololabError as exc:
                item["error"] = str(exc)
        if "error" in item:
            exit_code = 1
        results.append(item)
    for j, (fam, s_step) in enumerate(families):
        try:
            D = family_derivative(M, kind, fam, s_step=s_step, steps=steps)
            results.append({"family": j, "derivative": D.tolist()})
        except HololabError as exc:
            results.append({"family": j, "error": str(exc)})
            exit_code = 1
    report["results"] = results
    for item in results:
        label = f"loop {item['loop']}" if "loop" in item else f"family {item['family']}"
        if "matrix" in item:
            print(f"{label}: det={item['det']:.12f} est_error={item['est_error']:.2e}")
        elif "derivative" in item:
            print(f"{label}: derivative computed")
        else:
            print(f"{label}: ERROR {item['error']}")
    _write_report(report, config, args)
    return exit_code


def _write_plot_csv(prefix, index, M, h):
    """Write the frame trajectory carried by the holonomy element ``h``."""
    path = f"{prefix}_loop{index}.csv"
    n = M.dim
    # the bytes csv.writer gives: floats as repr (no cell needs quoting), CRLF
    rows = np.hstack([h.positions, h.frames.reshape(len(h.frames), -1)]).tolist()
    text = io.StringIO()
    frame_cols = [f"P{i}{j}" for i in range(n) for j in range(n)]
    csv.writer(text).writerow(["sample", *M.chart.coord_names, *frame_cols])
    text.writelines(f"{k}," + ",".join(map(repr, row)) + "\r\n" for k, row in enumerate(rows))
    with open(path, "w", newline="") as fh:
        fh.write(text.getvalue())
    return path


def cmd_algebra(args):
    config = _load_config(args.config)
    seed = _resolve_seed(config)
    _check_report_path(config, args)
    aspec = _object(config.get("algebra", {}), "algebra")
    entry, M, kind, steps, loops, families = _transport_from_config(config)
    n_random = _integer(aspec.get("random_loops", 40 if not loops else 0),
                        "algebra.random_loops", 0)
    if n_random:
        region = aspec.get("region")
        if region is None:
            if entry is None:
                raise ConfigError("custom manifolds need algebra.region for sampling")
            region = entry.sample_region
        basepoint = (np.asarray(aspec["basepoint"], dtype=float)
                     if "basepoint" in aspec
                     else (entry.basepoint if entry is not None else None))
        loops += random_rectangle_loops(M, region, n_random, seed,
                                        basepoint=basepoint)
    extra = [family_derivative(M, kind, fam, s_step=s_step, steps=steps)
             for fam, s_step in families]
    if entry is not None and aspec.get("include_catalog_families", False):
        extra += [family_derivative(M, kind, fam, steps=steps)
                  for fam in entry.families.values()]
    form = None
    if entry is not None and entry.companion is not None:
        form = metric_at(entry.companion, entry.basepoint)
    exp = run_closure_experiment(M, kind, loops, extra_generators=extra,
                                 form=form, steps=steps)
    report = _base_report("algebra", config, seed)
    report["results"] = {
        "dimension": exp.dim,
        "tag": str(exp.tag),
        "loop_count": exp.loop_count,
        "generators_used": exp.used_count,
        "max_det_error": max((abs(d) for d in exp.det_errors), default=0.0),
        "svd_cut": dict(zip(("last_kept", "first_dropped"), exp.svd_cut)),
        "dimension_margin_digits": exp.dimension_margin_digits,
        "basis": [b.tolist() for b in exp.basis.basis],
    }
    print(f"algebra dimension: {exp.dim}   tag: {exp.tag}")
    print(f"generators: {exp.used_count} usable of {exp.loop_count} loops; "
          f"max |det-1| = {report['results']['max_det_error']:.2e}")
    # without a loop or a family generator the dimension rests on nothing
    evidence = exp.loop_count > 0 or bool(extra)
    if not evidence:
        print("algebra: NO LOOPS (no loop integrated and no family given)")
    if args.conjecture:
        n = M.dim
        full = n * (n - 1) // 2
        strictly_upper = all(np.abs(np.tril(b)).max() <= 1e-6
                             for b in exp.basis.basis)
        report["results"]["conjecture_experiment"] = {
            "note": "EXPERIMENT: no pass/fail semantics",
            "ambient_dim": n,
            "strictly_upper_triangular_dim": full,
            "observed_dim": exp.dim,
            "observed_dim_equals_full": bool(exp.dim == full),
            "all_elements_strictly_upper": bool(strictly_upper),
        }
        print(f"EXPERIMENT: observed dim {exp.dim} <= {full} "
              f"(full strictly-upper dimension); "
              f"equality: {exp.dim == full}; "
              f"strictly upper: {strictly_upper}")
    _write_report(report, config, args)
    return 0 if evidence else 1


def cmd_verify(args):
    config = _load_config(args.config) if args.config else {}
    seed = _resolve_seed(config)
    _check_report_path(config, args)
    samples = _object(config.get("samples", {}), "samples")
    n_paths, n_loops, n_points = (
        _integer(samples.get(key, default), f"samples.{key}", 0)
        for key, default in (("paths", 20), ("loops", 20), ("points", 50)))
    steps = _steps_from_config(config)
    wanted = config.get("checks")
    if wanted is not None:
        if not isinstance(wanted, list):
            raise ConfigError("checks must be a list of check names")
        unknown = set(wanted) - set(verify.CHECK_NAMES)
        if unknown:
            raise ConfigError(f"unknown checks: {sorted(unknown)}; "
                              f"known: {list(verify.CHECK_NAMES)}")
    mspec = _object(config.get("manifold", {}), "manifold")
    if "custom" in mspec:
        M = _build_custom_manifold(mspec["custom"])
        region = config.get("region")
        if region is None:
            region = M.chart.sample_box()
        basepoint = np.array([(lo + hi) / 2 for lo, hi in region])
        entries = [cat.CatalogEntry(name=M.name, manifold=M, basepoint=basepoint,
                                    sample_region=tuple(tuple(r) for r in region))]
    elif "entries" in config:
        entries = [cat.get_entry(name) for name in config["entries"]]
    else:
        entries = cat.default_entries()
    reports = verify.default_suite(entries, seed=seed, n_paths=n_paths,
                                   n_loops=n_loops, n_points=n_points, steps=steps,
                                   checks=wanted)
    report = _base_report("verify", config, seed)
    report["results"] = [r.to_dict() for r in reports]
    # a suite that ran no check has verified nothing
    ok = bool(reports) and all(r.passed for r in reports)
    report["passed"] = ok
    for r in reports:
        print(f"{r.check_name:26s} {r.entry_name:14s} "
              f"max={r.max_violation:.3e} tol={r.tol:.0e} "
              f"{'ok' if r.passed else 'FAIL'}")
    status = ("all passed" if ok else
              "FAILURES PRESENT" if reports else "NO CHECKS RAN")
    print(f"verification suite: {status}")
    _write_report(report, config, args)
    return 0 if ok else 1


def cmd_catalog(args):
    if args.action != "list":
        return _fail_usage(f"unknown catalog action {args.action!r}")
    print("stable catalog names:")
    for name in cat.list_names():
        print(f"  {name}")
    print("default verification entries:")
    for entry in cat.default_entries():
        p, q = entry.manifold.metric.signature
        print(f"  {entry.name:14s} dim={entry.dim} signature=({p},{q})"
              f"{' +companion' if entry.companion is not None else ''}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hololab",
        description="numerical holonomy of weighted connections on manifolds "
                    "with density")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run-example", help="replay golden data for an entry")
    p.add_argument("name")
    p.add_argument("--output", help="write a JSON report")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(fn=cmd_run_example)

    p = sub.add_parser("holonomy", help="integrate configured loops")
    p.add_argument("config")
    p.add_argument("--output", help="override the config's output path")
    p.add_argument("--plot", help="CSV prefix for transported-frame trajectories")
    p.set_defaults(fn=cmd_holonomy)

    p = sub.add_parser("algebra", help="holonomy-algebra closure experiment")
    p.add_argument("config")
    p.add_argument("--output")
    p.add_argument("--conjecture", action="store_true",
                   help="report the strictly-upper-triangular experiment")
    p.set_defaults(fn=cmd_algebra)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("config", nargs="?")
    p.add_argument("--output")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("catalog", help="catalog utilities")
    p.add_argument("action", choices=["list"])
    p.set_defaults(fn=cmd_catalog)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        return _fail_usage(str(exc))
    except UnknownExample as exc:
        return _fail_usage(str(exc))
    except HololabError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
