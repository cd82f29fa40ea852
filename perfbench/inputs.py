"""Seeded inputs for the three benchmark workloads.

Everything a workload feeds to the program is derived here from the
``--seed`` argument, written as JSON configs into a scratch directory, and
described by the argv lists that the worker passes to ``hololab.cli.main``.
The same seed always gives byte-identical configs.

The structure of the inputs (number of loops, segments per loop, sample
counts, entry lists) does not depend on the seed, so the work counts that
the traced run reports repeat exactly from seed to seed; only the shapes
and positions of the loops and the verification samples change.
"""

import json
import os
import random

# Entries whose golden data ``run-example`` replays on the verify workload:
# one per stable catalog name, with the instances the default suite uses.
# borel2d and triangular(3) carry the closed-form loop transports that the
# traced run uses for the true transport error.
EXAMPLE_ENTRIES = ("sphere2", "sphereN(3)", "borel2d", "triangular(3)",
                   "so_pq(1,2)", "so11_2d")

# A reduced default suite: every entry and every check kind (all 51 reports),
# one random path or loop per transport check, so that an iteration takes a
# few seconds and a run holds enough iterations for a steady median.
VERIFY_SAMPLES = {"paths": 1, "loops": 1, "points": 20}
VERIFY_REPORTS = 51

# Non-diagonal 3-d metric, positive definite on [-0.9, 0.9]^3 by diagonal
# dominance (smallest diagonal entry exp(-0.405) > 0.2 + 0), with a density
# whose gradient has no symmetry that would make the weighted correction
# vanish.  The two literal "0" entries keep one structural zero.
HOLONOMY_MANIFOLD = {
    "dim": 3,
    "coords": ["x", "y", "z"],
    "metric": {"full": [["2+sin(y)", "0.3*cos(z)", "0"],
                        ["0.3*cos(z)", "2+cos(x)", "0.2*sin(x*y)"],
                        ["0", "0.2*sin(x*y)", "exp(x*z/2)"]]},
    "phi": "x*y+0.5*sin(z)",
    "domain": [[-0.9, 0.9]] * 3,
    "signature": [3, 0],
    "name": "bench_full3",
}
# loop vertices stay well inside the domain so every sample point is in the chart
VERTEX_BOX = (-0.6, 0.6)
# loop kinds in order; each loop is followed by its exact reversal
HOLONOMY_LOOP_KINDS = ("polyline", "rect", "polyline", "rect")

ALGEBRA_ENTRY = "sphereN(4)"
ALGEBRA_LOOPS = 60
ALGEBRA_STEPS = 200
ALGEBRA_DIMENSION = 15
ALGEBRA_TAG = "SL"


def config_seed(seed):
    """The seed written into the configs (hololab's generators need >= 0)."""
    return seed % 2 ** 32


def _point(rng, lo, hi):
    return [round(rng.uniform(lo, hi), 6) for _ in range(3)]


def _polyline_ring(rng):
    ring = [_point(rng, *VERTEX_BOX) for _ in range(4)]
    return ring + [ring[0]]


def _rect_corners(rng):
    """Opposite corners that differ in exactly two coordinates, a < b."""
    c0 = _point(rng, VERTEX_BOX[0], 0.1)
    a, b = sorted(rng.sample(range(3), 2))
    c1 = list(c0)
    c1[a] = round(c0[a] + rng.uniform(0.25, 0.5), 6)
    c1[b] = round(c0[b] + rng.uniform(0.25, 0.5), 6)
    return c0, c1, a, b


def _rect_ring(c0, c1, a, b):
    """The corner sequence ``hololab`` traverses for ``{"rect": [c0, c1]}``."""
    e1 = [c1[i] - c0[i] if i == a else 0.0 for i in range(3)]
    e2 = [c1[i] - c0[i] if i == b else 0.0 for i in range(3)]
    return [c0, [c0[i] + e1[i] for i in range(3)],
            [c0[i] + e1[i] + e2[i] for i in range(3)],
            [c0[i] + e2[i] for i in range(3)], c0]


def holonomy_config(seed):
    rng = random.Random(f"holonomy-{seed}")
    loops = []
    for kind in HOLONOMY_LOOP_KINDS:
        if kind == "polyline":
            ring = _polyline_ring(rng)
            loops.append({"polyline": ring})
        else:
            c0, c1, a, b = _rect_corners(rng)
            ring = _rect_ring(c0, c1, a, b)
            loops.append({"rect": [c0, c1]})
        loops.append({"polyline": ring[::-1]})
    c0, c1, _, _ = _rect_corners(rng)
    loops.append({"family": {"rect": [c0, c1], "s_max": 1.0}})
    return {"manifold": {"custom": HOLONOMY_MANIFOLD}, "connection": "weighted",
            "loops": loops, "tasks": ["holonomy", "curvature"],
            "include_log": True, "seed": config_seed(seed)}


def verify_config(seed):
    return {"samples": dict(VERIFY_SAMPLES), "seed": config_seed(seed)}


def algebra_config(seed):
    return {"manifold": {"catalog": ALGEBRA_ENTRY},
            "algebra": {"random_loops": ALGEBRA_LOOPS},
            "steps": ALGEBRA_STEPS, "seed": config_seed(seed)}


def _write(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")
    return path


def write_inputs(workload, seed, work_dir):
    """Write the configs for one workload into ``work_dir`` and return its
    commands, a list of ``(tag, argv)``: ``tag`` names the report file
    ``<tag>.json`` in ``work_dir`` that the command writes.
    """
    out = lambda tag: os.path.join(work_dir, f"{tag}.json")  # noqa: E731
    if workload == "verify":
        path = _write(os.path.join(work_dir, "verify_config.json"), verify_config(seed))
        commands = [("verify", ["verify", path, "--output", out("verify")])]
        for i, name in enumerate(EXAMPLE_ENTRIES):
            tag = f"example{i}"
            commands.append((tag, ["run-example", name, "--output", out(tag)]))
        return commands
    if workload == "holonomy":
        path = _write(os.path.join(work_dir, "holonomy_config.json"), holonomy_config(seed))
        plot = os.path.join(work_dir, "plot")
        return [("holonomy", ["holonomy", path, "--output", out("holonomy"),
                              "--plot", plot])]
    if workload == "algebra":
        path = _write(os.path.join(work_dir, "algebra_config.json"), algebra_config(seed))
        return [("algebra", ["algebra", path, "--output", out("algebra")])]
    raise ValueError(f"unknown workload {workload!r}")
