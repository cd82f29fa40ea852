"""Child process of the benchmark; ``run.py`` starts it, one per role.

    python3 perfbench/worker.py setup   '<plan json>'
    python3 perfbench/worker.py measure '<plan json>'

``setup`` times ``import hololab.cli`` plus building the workload's
manifolds (expression parsing and metric validation) in a fresh process,
then times the reference kernel (``reference.py``) and scales the set-up
time by it.  ``measure`` runs the workload's CLI commands through
``hololab.cli.main``: one warm-up iteration, then timed iterations until
``seconds`` of them have run.  While an iteration runs, an interval timer
interrupts it every ``SAMPLE_PERIOD_S`` to time the reference kernel; the
iteration's time between two such samples is scaled by the mean of the two
kernel times, and the samples' own time is left out.  With ``trace`` it
alternates traced and untraced iterations instead, timed unscaled.  Every
iteration is checked, and its output files must be byte-identical (up to
report timestamps) to the warm-up's.  The last stdout line is a JSON
summary.  Only the standard library is imported before the setup timer.
"""

import contextlib
import glob
import gzip
import io
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time

import inputs

SAMPLE_PERIOD_S = 0.3     # between reference-kernel samples in a scaled iteration


def _import_source(root):
    sys.path.insert(0, os.path.join(root, "src"))
    import hololab
    expected = os.path.join(root, "src", "hololab")
    if os.path.dirname(os.path.abspath(hololab.__file__)) != expected:
        raise SystemExit(f"imported hololab from {hololab.__file__}, not {expected}")
    return hololab


def _src_lines(root):
    total = 0
    for path in glob.glob(os.path.join(root, "src", "**", "*.py"), recursive=True):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def setup(plan):
    t0 = time.perf_counter()
    _import_source(plan["root"])
    import hololab.cli  # the import users pay for
    from hololab import catalog
    workload = plan["workload"]
    if workload == "verify":
        catalog.default_entries()
        for name in inputs.EXAMPLE_ENTRIES:
            catalog.get_entry(name)
    elif workload == "holonomy":
        # the construction the CLI does for a "custom" manifold config
        hololab.cli._build_custom_manifold(inputs.HOLONOMY_MANIFOLD)
    else:
        catalog.get_entry(inputs.ALGEBRA_ENTRY)
    setup_s = time.perf_counter() - t0
    import reference
    reference.reference_s()  # warm-up: first calls into numpy's routines
    ref_s = statistics.median(reference.reference_s() for _ in range(3))
    print(json.dumps({"setup_s": setup_s, "ref_s": ref_s,
                      "scaled_s": setup_s * reference.REF_S / ref_s}))


class Runner:
    """Runs and checks iterations of one workload."""

    def __init__(self, plan):
        import hololab.cli
        import checks
        import reference
        self.cli = hololab.cli
        self.checks = checks
        self.ref = reference
        self.workload = plan["workload"]
        self.work_dir = plan["work_dir"]
        self.commands = plan["commands"]
        self.attempted = self.failed = self.results = 0
        self.problems = []
        self.first_files = None
        self.marks = []        # (start, end, kernel seconds) of each sample
        self.ref_samples = []  # kernel seconds of every sample of the run

    def _clear_outputs(self):
        for name in os.listdir(self.work_dir):
            if not name.endswith("_config.json"):
                os.remove(os.path.join(self.work_dir, name))

    def _sample(self, signum=None, frame=None):
        if self.marks and self.marks[-1] is None:
            return  # a sample is running: the host is too slow for the period
        self.marks.append(None)
        t0 = time.perf_counter()
        ref_s = self.ref.reference_s()
        self.marks[-1] = (t0, time.perf_counter(), ref_s)

    def _run_commands(self):
        codes = {}
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for tag, argv in self.commands:
                try:
                    codes[tag] = self.cli.main(argv)
                except SystemExit as exc:
                    codes[tag] = exc.code
                except Exception as exc:  # counted as failed operations below
                    codes[tag] = f"raised {exc!r}"
        return codes

    def _scaled_run(self):
        """Run the commands between reference samples; returns (exit codes,
        seconds outside the samples, those seconds scaled)."""
        self.marks = []
        self._sample()
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            codes = self._run_commands()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self._sample()
        self.ref_samples += [ref_s for _, _, ref_s in self.marks]
        elapsed = scaled_s = 0.0
        for (_, end, ref_a), (start, _, ref_b) in zip(self.marks, self.marks[1:]):
            elapsed += start - end
            scaled_s += (start - end) * self.ref.REF_S / ((ref_a + ref_b) / 2)
        return codes, elapsed, scaled_s

    def iteration(self, scaled=False):
        """Run, time and check one iteration; returns (seconds, scaled seconds,
        outcome, files).  Scaled seconds are None unless ``scaled``."""
        self._clear_outputs()
        if scaled:
            codes, elapsed, scaled_s = self._scaled_run()
        else:
            t0 = time.perf_counter()
            codes = self._run_commands()
            elapsed, scaled_s = time.perf_counter() - t0, None
        files = self.checks.snapshot(self.work_dir)
        outcome = self.checks.check(self.workload, self.work_dir, codes)
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.results += outcome.results
        self.problems += outcome.problems
        if self.first_files is None:
            self.first_files = files
        elif files != self.first_files:
            changed = sorted(k for k in set(files) | set(self.first_files)
                             if files.get(k) != self.first_files.get(k))
            self.problems.append(f"outputs differ from the first iteration: {changed}")
        return elapsed, scaled_s, outcome, files


def _per_layer(tracer_mod, tr, wall, outcome, files):
    info = outcome.info
    m = tr.metrics(wall)
    err, ratio = tracer_mod.golden_transport_errors(info.get("goldens", ()), tr.holonomies)
    m.update({
        "transport.golden_err_max": err,
        "transport.est_error_ratio": ratio,
        "experiments.loops_used_share": info.get("loops_used_share", 0.0),
        "verify.reports": info.get("reports", 0),
        "verify.samples": info.get("samples", 0),
        "verify.headroom_digits": info.get("headroom_digits", 0.0),
        "cli.report_bytes": sum(len(b) for b in files.values()),
    })
    return m


def measure(plan):
    hololab = _import_source(plan["root"])
    import numpy
    runner = Runner(plan)
    seconds = plan["seconds"]
    runner.iteration()  # warm-up; later iterations must write the same outputs
    # the peak of a process that has run only the workload, before any
    # reference sample or trace adds its own memory
    warm_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out = {"provenance": {
        "hololab": hololab.__version__, "numpy": numpy.__version__,
        "python": platform.python_version(), "seed": plan["seed"],
        "config_seed": inputs.config_seed(plan["seed"]),
        "nproc": len(os.sched_getaffinity(0)), "src_lines": _src_lines(plan["root"])}}
    if not plan["trace"]:
        runner.ref.reference_s()  # warm-up: first calls into numpy's routines
        raw, samples = [], []
        while not raw or sum(raw) < seconds:
            elapsed, scaled_s = runner.iteration(scaled=True)[:2]
            raw.append(elapsed)
            samples.append(scaled_s)
        out.update(samples=samples, raw_samples=raw, ref_samples=runner.ref_samples)
    else:
        import tracer as tracer_mod
        tr = tracer_mod.Tracer()
        traced, untraced, layers = [], [], []
        while not traced or not untraced or sum(traced) + sum(untraced) < seconds:
            if len(traced) <= len(untraced):
                tr.reset()
                tr.install()
                try:
                    wall, _, outcome, files = runner.iteration()
                finally:
                    tr.uninstall()
                traced.append(wall)
                layers.append(_per_layer(tracer_mod, tr, wall, outcome, files))
            else:
                untraced.append(runner.iteration()[0])
        per_layer = {}
        for name, unit, _ in tracer_mod.PER_LAYER:
            if name == "trace.overhead_share":
                continue
            values = [m[name] for m in layers]
            if unit != "count":
                per_layer[name] = statistics.median(values)
                continue
            if len(set(values)) > 1:
                runner.problems.append(f"{name} differs between traced iterations: {values}")
            per_layer[name] = values[0]
        per_layer["trace.overhead_share"] = (statistics.median(traced)
                                             / statistics.median(untraced) - 1.0)
        out.update(samples=untraced, traced_samples=traced, per_layer=per_layer)
        with gzip.open(plan["trace_file"], "wt") as fh:
            json.dump({"plan": plan, "provenance": out["provenance"], "per_layer": per_layer,
                       "functions": tr.span_table(),
                       "labels": tr.labels,
                       "spans": tr.spans}, fh)
    out.update(attempted=runner.attempted, failed=runner.failed,
               results=runner.results, iterations=1 + len(out["samples"])
               + len(out.get("traced_samples", ())),
               problems=list(dict.fromkeys(runner.problems))[:20],
               maxrss_kb=warm_rss_kb,
               end_maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    print(json.dumps(out))


if __name__ == "__main__":
    role, plan_json = sys.argv[1], sys.argv[2]
    {"setup": setup, "measure": measure}[role](json.loads(plan_json))
