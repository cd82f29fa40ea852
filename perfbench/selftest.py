"""The benchmark's own test: is it steady, and do its counts repeat?

    python3 perfbench/selftest.py

Runs ``run.py`` on every workload ten times per set, each run with its own
seed, for two sets with disjoint seeds.  Per set, workload and
end-to-end metric it reports the median and the quartile spread
(``statistics.quantiles(values, n=4)``, Q3 - Q1, as a share of the median).
It fails when a run is not correct, when a spread exceeds the metric's
bound in BENCHMARK.json, or when a later set's median differs from the first
set's, in either direction, by more than the bound.  ``setup_s``'s spread is
printed but not gated, as the benchmark contract exempts it: set-up is a
fraction of a second, mostly imports that read files, and its run-to-run
changes follow the host's state more than the code, even after scaling by
the reference kernel; its median drift is gated.
Then it runs each workload traced twice on one seed and fails unless every count
(``transport.segments``, ``manifold.christoffel_points``,
``expr.eval_calls``, ...) repeats exactly.  A summary is written to
``.perfbench/selftest.json``.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
SETS = 2


def bench(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}\n"
                         f"{proc.stdout[-3000:]}\n{proc.stderr[-3000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{' '.join(cmd)}: incorrect result\n{proc.stdout[-3000:]}")
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first, later, better):
    """Share by which ``later`` is worse than ``first`` (negative: better)."""
    return (later - first) / first if better == "lower" else (first - later) / first


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    failures = []
    summary = {"sets": [], "counts": {}}
    for s in range(SETS):
        values = {w: {name: [] for name in e2e} for w in workloads}
        for i in range(RUNS):
            seed = 1 + s * RUNS + i
            for w in workloads:
                metrics = bench(w, seed, seconds, 0)["metrics"]
                if set(metrics) != set(e2e):
                    failures.append(f"{w}: metrics {sorted(metrics)} != {sorted(e2e)}")
                for name in e2e:
                    values[w][name].append(metrics[name]["value"])
                print(f"set {s} seed {seed} {w}: "
                      + " ".join(f"{k}={v['value']:.5g}" for k, v in metrics.items()),
                      flush=True)
        summary["sets"].append(values)
    print(f"\n{'workload':9s} {'metric':14s} {'bound':>6s} " + " ".join(
        f"{'median' + str(s):>11s} {'spread' + str(s):>8s}" for s in range(SETS))
        + "  worse")
    for w in workloads:
        for name, m in e2e.items():
            meds = [statistics.median(v[w][name]) for v in summary["sets"]]
            spreads = [spread(v[w][name]) for v in summary["sets"]]
            drifts = [worse_by(meds[0], med, m["better"]) for med in meds[1:]]
            worst = max(drifts, key=abs) if drifts else 0.0
            flag = ""
            if max(spreads) > m["bound"]:
                flag = "SPREAD>BOUND"
                if name != "setup_s":
                    failures.append(
                        f"{w} {name}: spread {max(spreads):.3f} > bound {m['bound']}")
            elif max(spreads) > m["bound"] / 3:
                flag = "spread>bound/3"
            if abs(worst) > m["bound"]:
                flag += " MEDIAN-DRIFT"
                failures.append(f"{w} {name}: later median differs by {worst:+.3f}")
            print(f"{w:9s} {name:14s} {m['bound']:6.2f} " + " ".join(
                f"{med:11.5g} {sp:8.4f}" for med, sp in zip(meds, spreads))
                + f"  {worst:+.4f} {flag}")
    names = [m["name"] for m in spec["per_layer"]]
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for w in workloads:
        runs = [bench(w, 1, seconds, 1)["metrics"] for _ in range(2)]
        for metrics in runs:
            if set(metrics) != set(names):
                failures.append(f"{w} traced: metrics differ from BENCHMARK.json")
        counts = {n: [r[n]["value"] for r in runs] for n in names if units[n] == "count"}
        summary["counts"][w] = counts
        for n, (a, b) in counts.items():
            if a != b:
                failures.append(f"{w} {n}: {a} != {b} between traced runs")
        print(f"{w} traced counts: " + ", ".join(f"{n}={v[0]}" for n, v in counts.items()))
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    with open(os.path.join(ROOT, ".perfbench", "selftest.json"), "w") as fh:
        json.dump({"failures": failures, **summary}, fh, indent=1)
    for f in failures:
        print(f"FAIL: {f}")
    print("selftest: " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
