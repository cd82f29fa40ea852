"""In-memory span tracer over hololab's public functions, and the per-layer
metrics derived from its spans.

``Tracer.install`` wraps every public function and every public method of a
class defined in one of the layer modules.  A function is replaced at every
binding site: in its own module and in every hololab module that imported
it with ``from ... import``, so calls through those names are traced too.
Each call becomes a span ``[parent, label, start, end, work]`` in a list
kept in memory; ``uninstall`` restores the originals.  A span's self time
is its duration minus the durations of its direct child spans.
"""

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("expr", "manifold", "transport", "liealg", "experiments", "verify",
          "catalog", "cli")

EVALS = ("expr.eval_expr", "expr.eval_dual", "expr.eval_dual2")
POINTWISE = ("manifold.ricci_at", "manifold.curvature_at",
             "manifold.covariant_derivative_of_tensor", "manifold.amari_chentsov")
CATALOG_BUILDERS = ("catalog.default_entries", "catalog.get_entry",
                    "catalog.sphere_with_density", "catalog.borel_2d",
                    "catalog.triangular_family", "catalog.so_pq_example",
                    "catalog.so_plus_11_2d", "catalog.levi_civita_pair")
CHRISTOFFEL = "manifold.christoffel_many"
# a Christoffel call made directly by one of these functions samples one
# holonomy/path segment, or one of the small pieces of a --plot frame trajectory
SEGMENT_PARENT = "transport.path_transport_matrix"
FRAME_PARENT = "transport.transport_frame_trajectory"

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    ("expr.eval_s", "s", "lower"),
    ("expr.eval_calls", "count", "lower"),
    ("expr.points", "count", "lower"),
    ("expr.const_zero_share", "ratio", "lower"),
    ("expr.parse_s", "s", "lower"),
    ("manifold.christoffel_s", "s", "lower"),
    ("manifold.christoffel_calls", "count", "lower"),
    ("manifold.christoffel_points", "count", "lower"),
    ("manifold.points_per_call", "count", "higher"),
    ("manifold.us_per_point", "us", "lower"),
    ("manifold.metric_points_per_point", "ratio", "lower"),
    ("manifold.pointwise_s", "s", "lower"),
    ("manifold.christoffel_share", "ratio", "lower"),
    ("transport.self_s", "s", "lower"),
    ("transport.segments", "count", "lower"),
    ("transport.samples_per_segment", "count", "lower"),
    ("transport.us_per_segment", "us", "lower"),
    ("transport.frame_pieces", "count", "lower"),
    ("transport.us_per_frame_piece", "us", "lower"),
    ("transport.golden_err_max", "abs", "lower"),
    ("transport.est_error_ratio", "ratio", "higher"),
    ("liealg.mat_log_s", "s", "lower"),
    ("liealg.mat_log_calls", "count", "lower"),
    ("liealg.closure_s", "s", "lower"),
    ("liealg.span_insert_calls", "count", "lower"),
    ("liealg.span_accept_share", "ratio", "higher"),
    ("liealg.classify_s", "s", "lower"),
    ("experiments.self_s", "s", "lower"),
    ("experiments.loops_used_share", "ratio", "higher"),
    ("verify.self_s", "s", "lower"),
    ("verify.reports", "count", "higher"),
    ("verify.samples", "count", "higher"),
    ("verify.headroom_digits", "digits", "higher"),
    ("catalog.build_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.report_bytes", "B", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
)


def _points(a):
    shape = getattr(a, "shape", None)
    if shape is None:
        return 1
    return shape[0] if len(shape) else 1


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _env_points(args, kwargs):
    env = _arg(args, kwargs, 1, "env")
    return _points(next(iter(env.values()), 0.0))


class Tracer:
    def __init__(self):
        self.modules = {layer: importlib.import_module(f"hololab.{layer}")
                        for layer in LAYERS}
        self.labels = []
        self.spans = []
        self.zero_ast_evals = 0
        self.holonomies = []   # (est_error, flattened matrix) per holonomy call
        self._stack = []
        self._patches = []
        self._functions = {}   # original function -> wrapper
        self._methods = []     # (class, attribute, original, wrapper)
        num = self.modules["expr"].Num
        recorders = {
            "manifold.christoffel_many": lambda a, k, out: _points(_arg(a, k, 2, "pts")),
            "manifold.MetricField.matrices": lambda a, k, out: _points(_arg(a, k, 1, "pts")),
            "liealg.span_insert": lambda a, k, out: int(bool(out[1])),
            "transport.holonomy": self._record_holonomy,
            "expr.eval_expr": lambda a, k, out: _env_points(a, k),
            "expr.eval_dual2": lambda a, k, out: _env_points(a, k),
        }

        def record_dual(a, k, out):
            e = _arg(a, k, 0, "e")
            if isinstance(e, num) and e.value == 0:
                self.zero_ast_evals += 1
            return _env_points(a, k)

        recorders["expr.eval_dual"] = record_dual
        for layer, mod in self.modules.items():
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    label = f"{layer}.{name}"
                    self._functions[obj] = self._wrap(obj, label, recorders.get(label))
                elif inspect.isclass(obj):
                    for attr, fn in vars(obj).items():
                        if not attr.startswith("_") and inspect.isfunction(fn):
                            label = f"{layer}.{name}.{attr}"
                            self._methods.append(
                                (obj, attr, fn, self._wrap(fn, label, recorders.get(label))))

    def _record_holonomy(self, args, kwargs, out):
        self.holonomies.append((out.est_error, tuple(out.matrix.ravel().tolist())))
        return 0

    def _wrap(self, fn, label, record):
        lid = len(self.labels)
        self.labels.append(label)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        # spans are tuples of numbers, which the garbage collector stops
        # tracking, so a long span list does not slow down collections
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[index] = (parent, lid, t0, t1, 0)
            if record is not None:
                spans[index] = (parent, lid, t0, t1, record(args, kwargs, out))
            return out

        return wrapper

    def install(self):
        """Replace the functions at every binding site in loaded hololab modules."""
        for modname, mod in list(sys.modules.items()):
            if modname != "hololab" and not modname.startswith("hololab."):
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in self._functions:
                    self._patches.append((mod, name, obj))
                    setattr(mod, name, self._functions[obj])
        for cls, attr, fn, wrapper in self._methods:
            self._patches.append((cls, attr, fn))
            setattr(cls, attr, wrapper)

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def reset(self):
        self.spans.clear()
        self._stack.clear()
        self.holonomies.clear()
        self.zero_ast_evals = 0

    def span_table(self):
        """Per-label call count, inclusive and self seconds, and work."""
        table = {}
        dur, selft = self._durations()
        for i, s in enumerate(self.spans):
            row = table.setdefault(self.labels[s[1]], [0, 0.0, 0.0, 0])
            row[0] += 1
            row[1] += dur[i]
            row[2] += selft[i]
            row[3] += s[4]
        return {k: {"calls": v[0], "inclusive_s": v[1], "self_s": v[2], "work": v[3]}
                for k, v in sorted(table.items())}

    def _durations(self):
        dur = [s[3] - s[2] for s in self.spans]
        child = [0.0] * len(dur)
        for s, d in zip(self.spans, dur):
            if s[0] >= 0:
                child[s[0]] += d
        return dur, [d - c for d, c in zip(dur, child)]

    def _inside(self, labels):
        """inside[i]: span i has an ancestor whose label is in ``labels``."""
        ids = {i for i, lab in enumerate(self.labels) if lab in labels}
        inside = []
        for s in self.spans:
            p = s[0]
            inside.append(p >= 0 and (inside[p] or self.spans[p][1] in ids))
        return ids, inside

    def _subtree_self_s(self, root, prefix, selft):
        """Self time of the ``prefix`` spans that are ``root`` spans or lie inside one."""
        ids, inside = self._inside((root,))
        return sum(st for s, st, up in zip(self.spans, selft, inside)
                   if (up or s[1] in ids) and self.labels[s[1]].startswith(prefix))

    def _outermost_s(self, labels, dur):
        ids, inside = self._inside(labels)
        return sum(d for s, d, up in zip(self.spans, dur, inside)
                   if s[1] in ids and not up)

    def metrics(self, wall_s):
        """Per-layer metrics of the spans recorded since the last reset."""
        spans, labels = self.spans, self.labels
        dur, selft = self._durations()
        layer_self = dict.fromkeys(LAYERS, 0.0)
        calls, work = {}, {}
        for s, st in zip(spans, selft):
            label = labels[s[1]]
            layer_self[label.split(".", 1)[0]] += st
            calls[label] = calls.get(label, 0) + 1
            work[label] = work.get(label, 0) + s[4]

        def total(names, table):
            return sum(table.get(n, 0) for n in names)

        ch_ids, under_ch = self._inside((CHRISTOFFEL,))
        christoffel_incl = sum(d for s, d in zip(spans, dur) if s[1] in ch_ids)
        expr_under_ch = sum(st for s, st, up in zip(spans, selft, under_ch)
                            if up and labels[s[1]].startswith("expr."))
        ch_calls = calls.get(CHRISTOFFEL, 0)
        ch_points = work.get(CHRISTOFFEL, 0)
        segments = seg_points = pieces = 0
        for s in spans:
            if labels[s[1]] == CHRISTOFFEL and s[0] >= 0:
                parent = labels[spans[s[0]][1]]
                if parent == SEGMENT_PARENT:
                    segments += 1
                    seg_points += s[4]
                elif parent == FRAME_PARENT:
                    pieces += 1
        segment_s = self._subtree_self_s(SEGMENT_PARENT, "transport.", selft)
        piece_s = self._subtree_self_s(FRAME_PARENT, "transport.", selft)
        duals = calls.get("expr.eval_dual", 0)
        inserts = calls.get("liealg.span_insert", 0)
        return {
            # inclusive, so time in the Dual methods that evaluation calls is kept
            "expr.eval_s": self._outermost_s(EVALS, dur),
            "expr.eval_calls": total(EVALS, calls),
            "expr.points": total(EVALS, work),
            "expr.const_zero_share": self.zero_ast_evals / duals if duals else 0.0,
            "expr.parse_s": self._outermost_s(("expr.parse",), dur),
            "manifold.christoffel_s": christoffel_incl - expr_under_ch,
            "manifold.christoffel_calls": ch_calls,
            "manifold.christoffel_points": ch_points,
            "manifold.points_per_call": ch_points / ch_calls if ch_calls else 0.0,
            "manifold.us_per_point": 1e6 * christoffel_incl / ch_points if ch_points else 0.0,
            "manifold.metric_points_per_point":
                work.get("manifold.MetricField.matrices", 0) / ch_points if ch_points else 0.0,
            "manifold.pointwise_s": self._outermost_s(POINTWISE, dur),
            "manifold.christoffel_share": christoffel_incl / wall_s,
            "transport.self_s": layer_self["transport"],
            "transport.segments": segments,
            "transport.samples_per_segment": seg_points / segments if segments else 0.0,
            "transport.us_per_segment": 1e6 * segment_s / segments if segments else 0.0,
            "transport.frame_pieces": pieces,
            "transport.us_per_frame_piece": 1e6 * piece_s / pieces if pieces else 0.0,
            "liealg.mat_log_s": self._outermost_s(("liealg.mat_log",), dur),
            "liealg.mat_log_calls": calls.get("liealg.mat_log", 0),
            "liealg.closure_s": self._outermost_s(("liealg.closure",), dur),
            "liealg.span_insert_calls": inserts,
            "liealg.span_accept_share":
                work.get("liealg.span_insert", 0) / inserts if inserts else 0.0,
            "liealg.classify_s": self._outermost_s(("liealg.classify",), dur),
            "experiments.self_s": layer_self["experiments"],
            "verify.self_s": layer_self["verify"],
            "catalog.build_s": self._outermost_s(CATALOG_BUILDERS, dur),
            "cli.self_s": layer_self["cli"],
            "trace.wall_s": wall_s,
            "trace.spans": len(spans),
        }


def golden_transport_errors(goldens, holonomies):
    """(max true error, min est_error / true error) over the golden checks
    whose computed value is the matrix of a traced holonomy call."""
    est_by_matrix = {m: est for est, m in holonomies}
    errors, ratios = [], []
    for g in goldens:
        rows = g["computed"]
        if not (isinstance(rows, list) and rows
                and all(isinstance(r, list) and all(isinstance(v, float) for v in r)
                        for r in rows)):
            continue  # not a matrix
        flat = tuple(v for row in rows for v in row)
        if flat in est_by_matrix and g["max_error"] > 0:
            errors.append(g["max_error"])
            ratios.append(est_by_matrix[flat] / g["max_error"])
    if not errors:
        return 0.0, 0.0
    return max(errors), min(ratios)
