"""hololab's benchmark: three CLI workloads, checked, timed end to end.

    python3 perfbench/run.py --workload {verify,holonomy,algebra} \
        --seed N --seconds S --trace {0,1}

Run it from anywhere; it works on the checkout that contains it and reads
and writes only inside that checkout (``.perfbench/``).  It needs the
source tree in ``src/`` and the numpy the package needs; it exits 2 and
prints no result when the source is missing.

Workloads (inputs from ``--seed``, see ``inputs.py``; a closed loop, one
client, one process with single-threaded BLAS):

* ``verify``   -- ``hololab verify`` over the nine default entries (all 51
  check reports, one random path or loop per transport check, 20 points),
  plus ``run-example`` for six golden-bearing entries.  The headline path;
  Christoffel assembly dominates, step control acts here.
* ``holonomy`` -- ``hololab holonomy --plot`` on a non-diagonal custom
  3-d metric: four loops, each followed by its reversal, one loop family,
  curvature, logs and CSV frame trajectories.  Bypasses catalog-only
  (diagonal-metric) shortcuts; per-segment overhead of the frame
  trajectories is large.
* ``algebra``  -- ``hololab algebra`` on sphereN(4) with 60 loops at an
  explicit 200 steps.  Bypasses default step control; per-call overhead
  and the liealg/experiments layers are largest here.

With ``--trace 0`` the result line carries the end-to-end metrics:

* ``wall_s``        median seconds of one iteration after one warm-up
* ``setup_s``       median over fresh processes of importing hololab.cli
                    and building the workload's manifolds
* ``peak_rss_mb``   peak RSS of the process that ran the workload, read
                    after its warm-up iteration
* ``results_per_s`` checked results per iteration / ``wall_s``

``wall_s`` and ``setup_s`` are scaled to a reference host speed: the
iteration's wall time, sampled every few tenths of a second, and each
set-up are multiplied by ``reference.REF_S`` over the time of a fixed
reference kernel run at that moment (see ``reference.py`` and
``worker.py``), which takes out the host's changes of speed.  The unscaled
medians are printed on the lines above the result.

With ``--trace 1`` it carries the per-layer metrics of ``tracer.PER_LAYER``
from traced iterations (see ``tracer.py``), and the full span table goes to
``.perfbench/trace-<workload>-seed<N>.json.gz``.  Every operation is
checked (``checks.py``); ``failed`` counts the ones that missed, and any
failure makes ``correct`` false and the exit code 1.  The last stdout line
is the JSON result.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import inputs
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_PROBES = 8          # measured fresh processes before and again after the
                          # measurement, so they sample the run's whole span
DEADLINE_S = 170.0        # the whole run, set-up probes included

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("results_per_s", "1/s"))


def _child_env():
    env = dict(os.environ)
    env.pop("HOLOLAB_SEED", None)  # it would override the generated config seeds
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(role, plan, timeout):
    proc = subprocess.run([sys.executable, WORKER, role, json.dumps(plan)],
                          cwd=ROOT, env=_child_env(), capture_output=True, text=True,
                          timeout=max(1.0, timeout))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {role} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _percentile_line(samples):
    """Median and the highest percentile with at least ten samples beyond it."""
    s = sorted(samples)
    n = len(s)
    line = f"n={n}, median {statistics.median(s):.6g} s"
    if n < 20:
        return line + " (also the highest percentile with >=10 samples beyond it)"
    k = n - 11  # exactly ten samples lie beyond s[k]
    return line + (f", p{100 * (k + 1) / n:.0f} {s[k]:.6g} s "
                   "(the highest percentile with >=10 samples beyond it)")


def run(args):
    start = time.monotonic()
    os.makedirs(OUT_DIR, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        commands = inputs.write_inputs(args.workload, args.seed, work_dir)
        plan = {"root": ROOT, "workload": args.workload, "seed": args.seed,
                "seconds": args.seconds, "trace": args.trace, "work_dir": work_dir,
                "commands": commands,
                "trace_file": os.path.join(
                    OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json.gz")}
        setups = []

        def probe_setup(count):
            for _ in range(count):
                left = DEADLINE_S - (time.monotonic() - start)
                setups.append(_worker("setup", plan, left))

        if not args.trace:
            probe_setup(1 + SETUP_PROBES)
            del setups[0]  # warm-up: fills the file cache
        m = _worker("measure", plan, DEADLINE_S - 30.0 - (time.monotonic() - start))
        if not args.trace:
            probe_setup(SETUP_PROBES)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print("provenance: " + json.dumps(dict(m["provenance"], workload=args.workload,
                                           seconds=args.seconds, trace=args.trace)))
    samples = m["samples"]
    wall = statistics.median(samples)
    per_iteration = m["results"] / m["iterations"]
    fail_share = m["failed"] / m["attempted"] if m["attempted"] else 1.0
    print(f"peak RSS: {m['maxrss_kb'] / 1024.0:.6g} MB after the warm-up iteration, "
          f"{m['end_maxrss_kb'] / 1024.0:.6g} MB at the end of the run")
    print(f"operations: attempted={m['attempted']} failed={m['failed']} "
          f"fail_share={fail_share:.6g} over {m['iterations']} iterations "
          f"({per_iteration:g} checked results each)")
    for problem in m["problems"]:
        print(f"problem: {problem}")
    if args.trace:
        units = {name: unit for name, unit, _ in tracer.PER_LAYER}
        metrics = {name: {"value": m["per_layer"][name], "unit": units[name]}
                   for name, _, _ in tracer.PER_LAYER}
        print(f"untraced {_percentile_line(samples)}; traced n={len(m['traced_samples'])}")
    else:
        values = {"wall_s": wall, "setup_s": statistics.median(s["scaled_s"] for s in setups),
                  "peak_rss_mb": m["maxrss_kb"] / 1024.0,
                  "results_per_s": per_iteration / wall}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        print(f"wall_s: {_percentile_line(samples)}; unscaled: "
              f"{_percentile_line(m['raw_samples'])}")
        refs = sorted(m["ref_samples"])
        print(f"reference kernel: {len(refs)} samples during the iterations, median "
              f"{statistics.median(refs):.6g} s, min {refs[0]:.6g} s, max {refs[-1]:.6g} s; "
              f"after set-up: median {statistics.median(s['ref_s'] for s in setups):.6g} s")
        print(f"setup_s: {len(setups)} fresh processes, scaled: "
              + ", ".join(f"{s['scaled_s']:.4f}" for s in setups)
              + "; unscaled median "
              + f"{statistics.median(s['setup_s'] for s in setups):.6g} s")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    correct = m["failed"] == 0 and not m["problems"]
    print(json.dumps({"correct": correct, "attempted": m["attempted"],
                      "failed": m["failed"], "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("verify", "holonomy", "algebra"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "hololab", "cli.py")):
        print(f"error: no hololab source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        return run(args)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
