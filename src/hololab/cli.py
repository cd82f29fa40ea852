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
from .errors import (ConfigError, ExprSyntaxError, HololabError, NotClosed,
                     UnboundVariable, UnknownExample, UnknownIdentifier)
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


# the keys that each command's config may hold, a section's keys dotted
# after its name; any other is a config error
_CUSTOM_KEYS = (" manifold.custom manifold.custom.dim manifold.custom.coords"
                " manifold.custom.metric manifold.custom.phi manifold.custom.name"
                " manifold.custom.domain manifold.custom.periodicity manifold.custom.signature")
_TRANSPORT_KEYS = "manifold manifold.catalog connection steps loops seed output" + _CUSTOM_KEYS
_CONFIG_KEYS = {
    "holonomy": _TRANSPORT_KEYS + " tasks include_log",
    "algebra": _TRANSPORT_KEYS + (" algebra algebra.random_loops algebra.region"
                                  " algebra.basepoint algebra.include_catalog_families"),
    "verify": ("manifold samples samples.paths samples.loops samples.points steps checks"
               " entries region seed output" + _CUSTOM_KEYS),
}


def _check_keys(obj, known, prefix=""):
    """ConfigError at the first key of ``obj`` not in ``known`` (dotted after
    ``prefix``), naming the nearest known key; an object it holds, in turn."""
    for key, value in obj.items():
        name = prefix + key
        if name not in known:
            import difflib  # only here, so that a valid config does not import it
            near = difflib.get_close_matches(name, known, n=1)
            raise ConfigError(f"unknown config key {name!r}"
                              + (f"; did you mean {near[0]!r}?" if near else ""))
        if isinstance(value, dict) and any(k.startswith(name + ".") for k in known):
            _check_keys(value, known, name + ".")


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


def _of_type(value, what, kind, name):
    """``value`` if it is a ``kind``, else ConfigError naming ``what``: it
    must be ``name``."""
    if not isinstance(value, kind):
        raise ConfigError(f"{what} must be {name}, got {value!r}")
    return value


def _object(value, what):
    return _of_type(value, what, dict, "a JSON object")


def _list_of(value, what, count, ok, items):
    """``value`` if it is a list of ``count`` entries (any number if None)
    that each pass ``ok``, else ConfigError naming ``what``: it must be a
    list of ``items``."""
    if (not isinstance(value, list) or count is not None and len(value) != count
            or not all(map(ok, value))):
        some = "" if count is None else f"{count} "
        raise ConfigError(f"{what} must be a list of {some}{items}, got {value!r}")
    return value


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_string(value):
    return isinstance(value, str)


def _strings(value, what, count=None):
    return _list_of(value, what, count, _is_string, "strings")


def _number(value, what):
    """``value`` as a float if it is a number, else ConfigError naming ``what``."""
    if not _is_number(value):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    return float(value)


def _point(value, what, dim):
    """``value``, a list of ``dim`` numbers, as a float array."""
    return np.array(_list_of(value, what, dim, _is_number, "numbers"), dtype=float)


def _points(value, what, dim, count=None):
    """``value``, a list of points of ``dim`` numbers (``count`` of them,
    if given), as a list of float arrays, else ConfigError naming ``what``
    or the point."""
    return [_point(p, f"{what} point {k}", dim)
            for k, p in enumerate(_list_of(value, what, count, lambda p: True, "points"))]


def _intervals(value, what, dim, open_ends=False):
    """``value``, a list of ``dim`` [lo, hi] pairs of numbers (or null for
    an unbounded end, if ``open_ends``), as (lo, hi) floats with null read
    as -inf or inf."""
    def end(x):
        return _is_number(x) or open_ends and x is None
    _list_of(value, what, dim, lambda p: isinstance(p, list) and len(p) == 2 and all(map(end, p)),
             f"[lo, hi] pairs of numbers{' or null' if open_ends else ''}")
    return [(-math.inf if lo is None else float(lo), math.inf if hi is None else float(hi))
            for lo, hi in value]


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
        dim = _integer(spec["dim"], "manifold.custom.dim", 1)
        coords = tuple(_strings(spec["coords"], "manifold.custom.coords", dim))
        phi_src = _of_type(spec["phi"], "manifold.custom.phi", str, "a string")
        metric_spec = _object(spec["metric"], "manifold.custom.metric")
    except KeyError as exc:
        raise ConfigError(f"custom manifold missing field: {exc}")
    name = _of_type(spec.get("name", "custom"), "manifold.custom.name", str, "a string")
    domain = _intervals(spec.get("domain", [[None, None]] * dim), "manifold.custom.domain",
                        dim, open_ends=True)
    periodicity = tuple(None if p is None else float(p) for p in _list_of(
        spec.get("periodicity", [None] * dim), "manifold.custom.periodicity", dim,
        lambda p: p is None or _is_number(p), "numbers or null"))
    signature = tuple(_list_of(spec.get("signature", [dim, 0]), "manifold.custom.signature", 2,
                               lambda x: isinstance(x, int) and not isinstance(x, bool),
                               "integers"))
    try:
        chart = CoordinateChart(dim=dim, coord_names=coords, periodicity=periodicity,
                                domain=tuple(domain))
    except ValueError as exc:
        raise ConfigError(f"manifold.custom: {exc}")
    try:
        if "diag" in metric_spec:
            diag = _strings(metric_spec["diag"], "manifold.custom.metric.diag", dim)
            metric = MetricField.from_expressions(chart, diag, signature=signature)
        elif "full" in metric_spec:
            full = _list_of(metric_spec["full"], "manifold.custom.metric.full", dim,
                            lambda row: isinstance(row, list) and len(row) == dim
                            and all(map(_is_string, row)), f"lists of {dim} strings")
            metric = MetricField.from_expressions(chart, full, signature=signature)
        else:
            raise ConfigError("metric needs a 'diag' or 'full' key")
        density = DensityField.from_expression(chart, phi_src)
    except ExprSyntaxError as exc:
        raise ConfigError(f"expression error at offset {exc.offset}: {exc}")
    except (UnknownIdentifier, UnboundVariable) as exc:
        raise ConfigError(str(exc))
    return WeightedManifold(chart=chart, metric=metric, density=density, name=name)


def _entry_from_config(config):
    """Returns (CatalogEntry | None, WeightedManifold)."""
    mspec = config.get("manifold")
    if mspec is None:
        raise ConfigError("config needs a 'manifold' section")
    if "catalog" in _object(mspec, "manifold"):
        entry = cat.get_entry(_of_type(mspec["catalog"], "manifold.catalog", str, "a string"))
        return entry, entry.manifold
    if "custom" in mspec:
        M = _build_custom_manifold(mspec["custom"])
        return None, M
    raise ConfigError("manifold must have a 'catalog' or 'custom' key")


def _rect_from_config(i, corners, label, dim):
    """(corner, axis a, axis b, extent a, extent b) of a rectangle given by
    opposite corners of ``dim`` coordinates that differ in exactly 2."""
    c0, c1 = _points(corners, f"loop {i} {label}", dim, count=2)
    moved = np.nonzero(np.abs(c1 - c0) > 0)[0]
    if len(moved) != 2:
        raise ConfigError(f"loop {i}: {label} corners must differ in exactly 2 coordinates")
    a, b = (int(moved[0]), int(moved[1]))
    return c0, a, b, c1[a] - c0[a], c1[b] - c0[b]


def _loops_from_config(config, dim):
    """Loops and (loop family, s_step) pairs of a config whose points have
    ``dim`` coordinates."""
    loops = []
    families = []
    for i, spec in enumerate(_of_type(config.get("loops", []), "loops", list, "a list")):
        if "polyline" in _object(spec, f"loop {i}"):
            pts = _points(spec["polyline"], f"loop {i} polyline", dim)
            if len(pts) < 2:
                raise ConfigError(f"loop {i}: polyline needs at least 2 points")
            loops.append(Loop(segments=polyline_segments(pts), basepoint=pts[0]))
        elif "rect" in spec:
            loops.append(rectangle_loop(*_rect_from_config(i, spec["rect"], "rect", dim)))
        elif "family" in spec:
            fs = _object(spec["family"], f"loop {i} family")
            rect = _rect_from_config(i, fs.get("rect"), "family rect", dim)
            family = shrinking_rectangle_family(
                *rect, s_max=_number(fs.get("s_max", 1.0), f"loop {i} family s_max"))
            families.append((family, _number(fs.get("s_step", 1e-2),
                                             f"loop {i} family s_step")))
        else:
            raise ConfigError(f"loop {i}: need 'polyline', 'rect' or 'family'")
    return loops, families


def _transport_from_config(config):
    """(catalog entry or None, manifold, connection kind, steps, loops,
    loop families) of a holonomy or algebra config."""
    entry, M = _entry_from_config(config)
    kind = _KINDS.get(_of_type(config.get("connection", "weighted"), "connection", str,
                               "a string"))
    if kind is None:
        raise ConfigError(f"unknown connection kind {config.get('connection')!r}")
    return (entry, M, kind, _steps_from_config(config)) + _loops_from_config(config, M.dim)


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _report_path(config, args):
    path = getattr(args, "output", None) or config.get("output")
    return path if path is None else _of_type(path, "output", str, "a string")


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
    tasks = _strings(config.get("tasks", default), "tasks")
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
    include_log = _of_type(config.get("include_log", False), "include_log", bool,
                           "a JSON boolean")
    tasks = _tasks_from_config(config, ["holonomy"])
    _check_keys(config, _CONFIG_KEYS["holonomy"].split())
    report = _base_report("holonomy", config, seed)
    results = []
    exit_code = 0
    if "curvature" in tasks:
        at = (entry.basepoint if entry is not None
              else np.array([(lo + hi) / 2 for lo, hi in M.chart.sample_box()]))
        try:
            ric = ricci_at(M, kind, at)
        except HololabError as exc:
            report["curvature"] = {"point": at.tolist(), "error": str(exc)}
            print(f"ricci at {np.round(at, 4).tolist()}: ERROR {exc}")
            exit_code = 1
        else:
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
                    from .liealg import mat_log  # only the commands that take logs compile liealg
                    item["log"] = mat_log(h.matrix).tolist()
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
    from .experiments import run_closure_experiment  # the other commands do not compile it
    config = _load_config(args.config)
    seed = _resolve_seed(config)
    _check_report_path(config, args)
    aspec = _object(config.get("algebra", {}), "algebra")
    include_families = _of_type(aspec.get("include_catalog_families", False),
                                "algebra.include_catalog_families", bool, "a JSON boolean")
    entry, M, kind, steps, loops, families = _transport_from_config(config)
    if include_families and entry is None:
        raise ConfigError("algebra.include_catalog_families must be false "
                          "for a custom manifold, got true")
    n_random = _integer(aspec.get("random_loops", 40 if not loops else 0),
                        "algebra.random_loops", 0)
    _check_keys(config, _CONFIG_KEYS["algebra"].split())
    if n_random:
        region = aspec.get("region")
        if region is None:
            if entry is None:
                raise ConfigError("custom manifolds need algebra.region for sampling")
            region = entry.sample_region
        else:
            region = _intervals(region, "algebra.region", M.dim)
        basepoint = (_point(aspec["basepoint"], "algebra.basepoint", M.dim)
                     if "basepoint" in aspec
                     else (entry.basepoint if entry is not None else None))
        loops += random_rectangle_loops(M, region, n_random, seed,
                                        basepoint=basepoint)
    extra = [family_derivative(M, kind, fam, s_step=s_step, steps=steps)
             for fam, s_step in families]
    if include_families:
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
        "closure_cut": dict(zip(("last_kept", "first_dropped"), exp.basis.cut)),
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
    from . import verify  # the other commands do not compile it

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
        unknown = set(_strings(wanted, "checks")) - set(verify.CHECK_NAMES)
        if unknown:
            raise ConfigError(f"unknown checks: {sorted(unknown)}; "
                              f"known: {list(verify.CHECK_NAMES)}")
    mspec = _object(config.get("manifold", {}), "manifold")
    if "custom" in mspec:
        M = _build_custom_manifold(mspec["custom"])
        region = config.get("region")
        region = (M.chart.sample_box() if region is None
                  else _intervals(region, "region", M.dim))
        basepoint = np.array([(lo + hi) / 2 for lo, hi in region])
        entries = [cat.CatalogEntry(name=M.name, manifold=M, basepoint=basepoint,
                                    sample_region=tuple(tuple(r) for r in region))]
    elif "entries" in config:
        entries = [cat.get_entry(name) for name in _strings(config["entries"], "entries")]
    else:
        entries = cat.default_entries()
    _check_keys(config, _CONFIG_KEYS["verify"].split())
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
