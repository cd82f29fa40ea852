"""Correctness checks and operation accounting for one workload iteration.

An operation is one checked result.  It fails when the command raised or
exited non-zero, when the result is missing, or when it misses its
tolerance or invariant.  Failed operations are counted, never dropped.
"""

import csv
import json
import math
import os
import re

import numpy as np

import inputs

DET_TOL = 1e-6            # |det P - 1| for weighted loop transports
REVERSAL_TOL = 1e-8       # max |P_rev P - I|
FRAME_TOL = 1e-8          # last CSV frame against the loop's holonomy matrix
FAMILY_TOL = 1e-5         # shrinking-rectangle families have P'(0) = 0
SYMMETRY_TOL = 1e-8       # weighted Ricci is symmetric (projective change by an exact form)
ALGEBRA_DET_TOL = 1e-6

_TIMESTAMP = re.compile(rb'\n\s*"timestamp": "[^"]*",')


class Outcome:
    """Operations attempted and failed, checked results, problems found, and
    facts about the reports (``info``) that the traced run records."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.results = 0
        self.problems = []
        self.info = {}

    def op(self, ok, what=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if what:
                self.problems.append(what)


def snapshot(work_dir):
    """Bytes of every file the commands wrote, with report timestamps removed."""
    out = {}
    for name in sorted(os.listdir(work_dir)):
        if name.endswith("_config.json"):
            continue
        with open(os.path.join(work_dir, name), "rb") as fh:
            out[name] = _TIMESTAMP.sub(b"", fh.read())
    return out


def _load(work_dir, tag):
    try:
        with open(os.path.join(work_dir, f"{tag}.json")) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _finite(a):
    return a.size > 0 and bool(np.isfinite(a).all())


def check(workload, work_dir, exit_codes):
    """Check the reports of one iteration; ``exit_codes`` maps tag -> code."""
    fn = {"verify": _check_verify, "holonomy": _check_holonomy,
          "algebra": _check_algebra}[workload]
    return fn(work_dir, exit_codes)


def _check_verify(work_dir, exit_codes):
    o = Outcome()
    report = _load(work_dir, "verify")
    results = report["results"] if report else []
    if len(results) != inputs.VERIFY_REPORTS:
        o.problems.append(f"verify wrote {len(results)} check reports, "
                          f"expected {inputs.VERIFY_REPORTS}")
    headroom = math.inf
    for i in range(max(len(results), inputs.VERIFY_REPORTS)):
        r = results[i] if i < len(results) else None
        ok = (r is not None and r["passed"] is True and r["samples"] > 0
              and math.isfinite(r["max_violation"]) and r["max_violation"] <= r["tol"])
        name = f"{r['check_name']}/{r['entry_name']}" if r else f"report {i}"
        o.op(ok, f"verify {name} failed")
        if r is not None:
            o.results += r["samples"]
            if r["max_violation"] > 0:
                headroom = min(headroom, math.log10(r["tol"] / r["max_violation"]))
    if exit_codes.get("verify") != 0 or not (report and report.get("passed") is True):
        o.problems.append(f"verify exited {exit_codes.get('verify')}")
    o.info["headroom_digits"] = headroom if math.isfinite(headroom) else 0.0
    o.info["reports"] = len(results)
    o.info["samples"] = sum(r["samples"] for r in results)
    goldens = []
    for i, name in enumerate(inputs.EXAMPLE_ENTRIES):
        tag = f"example{i}"
        report = _load(work_dir, tag)
        gold = report["results"] if report else []
        o.op(exit_codes.get(tag) == 0 and bool(gold) and report.get("passed") is True,
             f"run-example {name} exited {exit_codes.get(tag)} with {len(gold)} checks")
        for g in gold:
            ok = (g["passed"] is True and math.isfinite(g["max_error"])
                  and g["max_error"] <= g["tol"])
            o.op(ok, f"golden {name}/{g['name']} failed")
            o.results += 1
            goldens.append(g)
    o.info["goldens"] = goldens
    return o


def _read_frames(path, n):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    first = np.array([float(v) for v in rows[1][1 + n:]]).reshape(n, n)
    last = np.array([float(v) for v in rows[-1][1 + n:]]).reshape(n, n)
    return len(rows) - 1, first, last


def _check_holonomy(work_dir, exit_codes):
    o = Outcome()
    report = _load(work_dir, "holonomy")
    n = inputs.HOLONOMY_MANIFOLD["dim"]
    eye = np.eye(n)
    cfg_loops = len(inputs.HOLONOMY_LOOP_KINDS) * 2
    items = report["results"] if report else []
    loops = {it["loop"]: it for it in items if "loop" in it}
    families = [it for it in items if "family" in it]
    matrices = {}
    for k in range(cfg_loops):
        it = loops.get(k)
        ok = it is not None and "matrix" in it and "log" in it
        if ok:
            P = np.array(it["matrix"], dtype=float)
            L = np.array(it["log"], dtype=float)
            ok = (_finite(P) and _finite(L) and P.shape == (n, n)
                  and abs(np.linalg.det(P) - 1.0) <= DET_TOL and "plot_csv" in it)
            if ok:
                matrices[k] = P
                rows, first, last = _read_frames(it["plot_csv"], n)
                ok = (rows > 1 and np.abs(first - eye).max() == 0.0
                      and np.abs(last - P).max() <= FRAME_TOL)
        if ok and k % 2 == 1:
            prod = matrices[k] @ matrices.get(k - 1, np.full((n, n), np.nan))
            ok = bool(np.abs(prod - eye).max() <= REVERSAL_TOL)
        o.op(ok, f"holonomy loop {k} failed: {it.get('error') if it else 'missing'}")
        o.results += 1
    fam = families[0] if families else None
    ok = fam is not None and "derivative" in fam
    if ok:
        D = np.array(fam["derivative"], dtype=float)
        ok = _finite(D) and np.abs(D).max() <= FAMILY_TOL
    o.op(ok, "holonomy family 0 failed")
    o.results += 1
    curv = report.get("curvature") if report else None
    ok = curv is not None
    if ok:
        R = np.array(curv["ricci"], dtype=float)
        ok = (_finite(R) and R.shape == (n, n)
              and np.abs(R - R.T).max() <= SYMMETRY_TOL * max(1.0, np.abs(R).max()))
    o.op(ok, "holonomy curvature failed")
    if exit_codes.get("holonomy") != 0:
        o.problems.append(f"holonomy exited {exit_codes.get('holonomy')}")
    return o


def _check_algebra(work_dir, exit_codes):
    o = Outcome()
    report = _load(work_dir, "algebra")
    r = report["results"] if report else None
    ok = (exit_codes.get("algebra") == 0 and r is not None
          and r["dimension"] == inputs.ALGEBRA_DIMENSION
          and r["tag"] == inputs.ALGEBRA_TAG
          and r["loop_count"] == inputs.ALGEBRA_LOOPS
          and r["max_det_error"] <= ALGEBRA_DET_TOL)
    summary = ({k: r[k] for k in ("dimension", "tag", "loop_count", "max_det_error")}
               if r else None)
    o.op(ok, f"algebra failed: exit {exit_codes.get('algebra')}, {summary}")
    if r is not None:
        o.results += r["loop_count"]
        o.info["loops_used_share"] = r["generators_used"] / max(1, r["loop_count"])
    return o
