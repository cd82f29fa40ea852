"""Closure experiments: the dimension margin and the held-sample bound."""

import json
import math
import sys

import numpy as np
import pytest

from hololab import catalog, transport
from hololab.cli import main
from hololab.experiments import (SVD_FLOOR, condition_generators,
                                 generators_from_loops, run_closure_experiment)
from hololab.manifold import ConnectionKind, metric_at
from hololab.transport import random_rectangle_loops

W = ConnectionKind.WEIGHTED


@pytest.mark.parametrize("name,count", [("sphereN(3)", 40), ("triangular(3)", 30),
                                        ("so_pq(1,2)", 30)])
def test_dimension_margin_is_wide(name, count):
    """The loop logs' singular values on either side of the SVD_FLOOR cut
    are at least 8 decimal digits apart (9-11 at seed 0)."""
    entry = catalog.get_entry(name)
    loops = random_rectangle_loops(entry.manifold, entry.sample_region, count,
                                   seed=0, basepoint=entry.basepoint)
    form = metric_at(entry.companion, entry.basepoint) if entry.companion else None
    exp = run_closure_experiment(entry.manifold, W, loops, form=form)
    last_kept, first_dropped = exp.svd_cut
    assert last_kept >= SVD_FLOOR > first_dropped
    assert exp.dimension_margin_digits == math.log10(last_kept / first_dropped)
    assert exp.dimension_margin_digits >= 8


def test_svd_cut_without_a_dropped_value():
    gens = [np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [0.0, 0.0]])]
    kept, (last_kept, first_dropped) = condition_generators(gens, 2)
    assert len(kept) == 2 and first_dropped is None
    assert 0 < last_kept <= 1
    assert condition_generators([], 2) == ([], (None, None))


def test_held_samples_stay_within_the_cap(monkeypatch, kernel_calls):
    """A step-controlled batch of 12 loops on sphereN(4) under a 2^10 point
    cap: at the start of every round the samples the batch holds, read from
    the engine's own store, are within the cap apart from those of the first
    live segment (which always advances); the cap binds, and the generators
    are bit-identical to an uncapped run."""
    entry = catalog.sphere_with_density(4)
    loops = random_rectangle_loops(entry.manifold, entry.sample_region, 12,
                                   seed=3, basepoint=entry.basepoint)
    monkeypatch.setattr(transport, "MAX_HELD_POINTS", math.inf)
    uncapped, _ = generators_from_loops(entry.manifold, W, loops)

    cap = 2 ** 10
    rounds = []
    advancing = transport._advancing

    def observed(live, level, start, held_cap):
        held = sys._getframe(1).f_locals["held"]  # _lockstep's sample store
        rows = {i: h[0].shape[0] for i, h in held.items()}
        chosen = advancing(live, level, start, held_cap)
        rounds.append((sum(rows.values()) - rows.get(live[0], 0), len(chosen) < len(live)))
        return chosen

    monkeypatch.setattr(transport, "MAX_HELD_POINTS", cap)
    monkeypatch.setattr(transport, "_advancing", observed)
    kernel_calls.clear()
    capped, _ = generators_from_loops(entry.manifold, W, loops)
    assert len(rounds) > 1
    assert all(held <= cap for held, _ in rounds)
    assert any(waited for _, waited in rounds)
    assert max(kernel_calls) <= transport.MAX_BATCH_POINTS
    assert len(capped) == len(uncapped) > 0
    assert all(np.array_equal(a, b) for a, b in zip(capped, uncapped))


def test_benchmark_algebra_config_skips_the_coarse_pass(tmp_path, capsys, rk4_passes,
                                                        coarse_batches):
    """The algebra benchmark's config (sphereN(4), 60 loops on a fixed grid
    of 200 steps, seed 7) reads no estimate: its batch forms half the RK4
    passes of one that forms the coarse products too, and the same report."""
    config = tmp_path / "algebra.json"
    config.write_text(json.dumps({"manifold": {"catalog": "sphereN(4)"},
                                  "algebra": {"random_loops": 60}, "steps": 200,
                                  "seed": 7}))
    out = tmp_path / "report.json"
    reports, passes = [], []
    for force in (False, True):
        if force:
            coarse_batches.force()
        rk4_passes.clear()
        assert main(["algebra", str(config), "--output", str(out)]) == 0
        passes.append(dict(rk4_passes))
        reports.append(json.dumps(json.loads(out.read_text())["results"])
                       + capsys.readouterr().out)
    assert coarse_batches == [False, True]
    assert passes == [{"_rk4_steps": 360, "_ordered_product": 282, "_uniform_product": 78},
                      {"_rk4_steps": 720, "_ordered_product": 564, "_uniform_product": 156}]
    assert reports[0] == reports[1]
