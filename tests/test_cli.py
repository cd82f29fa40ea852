"""CLI contract: exit codes, config handling, determinism, report schema."""

import csv
import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from hololab import catalog, cli, transport
from hololab.catalog import BOREL_LOOP1_MATRIX
from hololab.cli import main
from hololab.manifold import ConnectionKind
from hololab.transport import Loop, polyline_segments

E = math.e


def run(args):
    return main(args)


def write_config(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_run_example_success_and_unknown(capsys):
    assert run(["run-example", "borel2d"]) == 0
    assert "rectangle_loop_1" in capsys.readouterr().out
    assert run(["run-example", "not_a_thing"]) == 2


def test_catalog_list(capsys):
    assert run(["catalog", "list"]) == 0
    out = capsys.readouterr().out
    assert "borel2d" in out and "so_pq(p,q)" in out


def test_holonomy_reproduces_golden(tmp_path, capsys):
    out = tmp_path / "rep.json"
    cfg = write_config(tmp_path, "c.json", {
        "manifold": {"catalog": "borel2d"},
        "connection": "weighted",
        "loops": [{"polyline": [[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]}],
        "include_log": True,
        "steps": 500,
        "output": str(out),
    })
    assert run(["holonomy", cfg]) == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == 1
    got = np.array(doc["results"][0]["matrix"])
    assert np.abs(got - BOREL_LOOP1_MATRIX).max() < 1e-6
    assert abs(doc["results"][0]["det"] - 1) < 1e-9
    assert np.array(doc["results"][0]["log"]).shape == (2, 2)


def test_holonomy_custom_manifold_and_quadrature_oracle(tmp_path):
    # triangular(2) expressed as a custom manifold; the transport's upper
    # entry must match quadrature of its line-integral closed form
    from scipy.integrate import quad
    out = tmp_path / "rep.json"
    pts = [[0.0, 0.0], [0.8, 0.1], [0.5, 0.7], [-0.2, 0.4], [0.0, 0.0]]
    cfg = write_config(tmp_path, "c.json", {
        "manifold": {"custom": {
            "dim": 2, "coords": ["x", "y"],
            "metric": {"diag": ["exp(x)", "exp(2*x+y)"]},
            "phi": "x+y",
            "signature": [2, 0],
        }},
        "connection": "weighted",
        "loops": [{"polyline": pts}],
        "output": str(out),
    })
    assert run(["holonomy", cfg]) == 0
    doc = json.loads(out.read_text())
    P = np.array(doc["results"][0]["matrix"])

    total = 0.0
    for (xa, ya), (xb, yb) in zip(pts[:-1], pts[1:]):
        def integrand(t):
            a = xa + t * (xb - xa)
            b = ya + t * (yb - ya)
            da, db = xb - xa, yb - ya
            return (da * math.exp((-3 * a + b) / 2)
                    + db * math.exp((-a + 3 * b) / 2))
        val, err = quad(integrand, 0.0, 1.0, epsabs=1e-12, epsrel=1e-12)
        total += val
    assert abs(P[0, 1] - total) < 1e-6
    assert np.abs(P - np.array([[1.0, total], [0.0, 1.0]])).max() < 1e-6


def test_holonomy_not_closed_loop_exits_1(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "manifold": {"catalog": "borel2d"},
        "loops": [{"polyline": [[0, 0], [1, 0], [1, 1]]}],
        "steps": 100,
    })
    assert run(["holonomy", cfg]) == 1


def test_config_errors_exit_2(tmp_path):
    assert run(["holonomy", str(tmp_path / "missing.json")]) == 2
    bad_expr = write_config(tmp_path, "bad.json", {
        "manifold": {"custom": {
            "dim": 2, "coords": ["x", "y"],
            "metric": {"diag": ["1", "exp(2*x"]}, "phi": "0",
        }},
        "loops": [],
    })
    assert run(["holonomy", bad_expr]) == 2
    bad_rect = write_config(tmp_path, "badrect.json", {
        "manifold": {"catalog": "borel2d"},
        "loops": [{"rect": [[0, 0], [1e-300, 0]]}],
    })
    assert run(["holonomy", bad_rect]) == 2
    bad_kind = write_config(tmp_path, "badkind.json", {
        "manifold": {"catalog": "borel2d"}, "connection": "qqq", "loops": [],
    })
    assert run(["holonomy", bad_kind]) == 2


@pytest.mark.parametrize("command", ["holonomy", "algebra", "verify"])
@pytest.mark.parametrize("steps", [0, -3, "abc", 2.7, True, "200"])
def test_steps_that_are_not_a_positive_integer_exit_2(tmp_path, capsys, kernel_calls,
                                                      command, steps):
    cfg = write_config(tmp_path, "c.json", {
        "manifold": {"catalog": "borel2d"}, "loops": [{"rect": [[0, 0], [1, 1]]}],
        "algebra": {"random_loops": 4}, "steps": steps})
    assert run([command, cfg]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: steps must be a positive integer, got {steps!r}"]
    assert kernel_calls == []


BOREL = {"catalog": "borel2d"}


@pytest.mark.parametrize("command,doc,message", [
    ("holonomy", [1, 2], "config must be a JSON object, got [1, 2]"),
    ("holonomy", {"manifold": 5}, "manifold must be a JSON object, got 5"),
    ("verify", {"manifold": 5}, "manifold must be a JSON object, got 5"),
    ("holonomy", {"manifold": {"custom": 3}}, "manifold.custom must be a JSON object, got 3"),
    ("verify", {"manifold": {"custom": 3}}, "manifold.custom must be a JSON object, got 3"),
    ("holonomy", {"manifold": BOREL, "loops": 5}, "loops must be a list, got 5"),
    ("holonomy", {"manifold": BOREL, "loops": [5]}, "loop 0 must be a JSON object, got 5"),
    ("holonomy", {"manifold": BOREL, "loops": [{"rect": [[0, 0], [1, 1]]}, {"family": 3}]},
     "loop 1 family must be a JSON object, got 3"),
    ("verify", {"samples": 5}, "samples must be a JSON object, got 5"),
    ("algebra", {"manifold": BOREL, "algebra": [1]}, "algebra must be a JSON object, got [1]"),
])
def test_config_sections_that_are_not_objects_exit_2(tmp_path, capsys, kernel_calls,
                                                     command, doc, message):
    assert run([command, write_config(tmp_path, "c.json", doc)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert kernel_calls == []


PLANE = {"dim": 2, "coords": ["x", "y"], "metric": {"diag": ["1", "exp(2*x*y)"]}, "phi": "x*y"}
SQUARE = [[0, 0], [1, 1]]


@pytest.mark.parametrize("command,doc,message", [
    # values of the wrong JSON type
    ("holonomy", {"manifold": {"catalog": 5}}, "manifold.catalog must be a string, got 5"),
    ("holonomy", {"manifold": BOREL, "loops": [{"rect": 5}]},
     "loop 0 rect must be a list of 2 points, got 5"),
    ("holonomy", {"manifold": BOREL, "loops": [{"polyline": 5}]},
     "loop 0 polyline must be a list of points, got 5"),
    ("holonomy", {"manifold": BOREL, "loops": [{"family": {"rect": 5}}]},
     "loop 0 family rect must be a list of 2 points, got 5"),
    ("holonomy", {"manifold": BOREL, "loops": [{"family": {"rect": SQUARE, "s_step": "x"}}]},
     "loop 0 family s_step must be a number, got 'x'"),
    ("holonomy", {"manifold": {"custom": dict(PLANE, domain=5)}},
     "manifold.custom.domain must be a list of 2 [lo, hi] pairs of numbers or null, got 5"),
    ("verify", {"manifold": {"custom": PLANE}, "region": 5},
     "region must be a list of 2 [lo, hi] pairs of numbers, got 5"),
    ("algebra", {"manifold": BOREL, "algebra": {"region": 5}},
     "algebra.region must be a list of 2 [lo, hi] pairs of numbers, got 5"),
    ("holonomy", {"manifold": BOREL, "tasks": "holonomy"},
     "tasks must be a list of strings, got 'holonomy'"),
    ("verify", {"entries": "borel2d"}, "entries must be a list of strings, got 'borel2d'"),
    ("verify", {"checks": "codazzi"}, "checks must be a list of strings, got 'codazzi'"),
    ("holonomy", {"manifold": BOREL, "connection": ["weighted"]},
     "connection must be a string, got ['weighted']"),
    ("algebra", {"manifold": BOREL, "output": 5}, "output must be a string, got 5"),
    # points of the wrong dimension
    ("holonomy", {"manifold": BOREL, "loops": [{"polyline": [[0, 0], [1], [0, 0]]}]},
     "loop 0 polyline point 1 must be a list of 2 numbers, got [1]"),
    ("holonomy", {"manifold": BOREL, "loops": [{"polyline": [[0, 0], [1]]}]},
     "loop 0 polyline point 1 must be a list of 2 numbers, got [1]"),
    ("holonomy", {"manifold": BOREL, "loops": [{"rect": [[0, 0, 0], [1, 1, 0]]}]},
     "loop 0 rect point 0 must be a list of 2 numbers, got [0, 0, 0]"),
    ("holonomy", {"manifold": BOREL, "loops": [{"rect": [[0, 0]]}]},
     "loop 0 rect must be a list of 2 points, got [[0, 0]]"),
    ("holonomy", {"manifold": BOREL, "loops": [{"family": {"rect": [[0, 0], [1]]}}]},
     "loop 0 family rect point 1 must be a list of 2 numbers, got [1]"),
    ("holonomy", {"manifold": {"custom": dict(PLANE, domain=[[-1, 1]])}},
     "manifold.custom.domain must be a list of 2 [lo, hi] pairs of numbers or null, "
     "got [[-1, 1]]"),
    ("verify", {"manifold": {"custom": PLANE}, "region": [[-1, 1], [-1, 1], [0, 1]]},
     "region must be a list of 2 [lo, hi] pairs of numbers, got [[-1, 1], [-1, 1], [0, 1]]"),
    ("algebra", {"manifold": BOREL, "algebra": {"region": [[-1, 1]]}},
     "algebra.region must be a list of 2 [lo, hi] pairs of numbers, got [[-1, 1]]"),
    ("algebra", {"manifold": BOREL, "algebra": {"basepoint": [0]}},
     "algebra.basepoint must be a list of 2 numbers, got [0]"),
    ("holonomy", {"manifold": {"custom": dict(PLANE, domain=[[1, 1], [None, None]])}},
     "manifold.custom: domain intervals must be nonempty"),
    # the other fields of a custom manifold
    ("holonomy", {"manifold": {"custom": dict(PLANE, dim="abc")}},
     "manifold.custom.dim must be a positive integer, got 'abc'"),
    ("verify", {"manifold": {"custom": dict(PLANE, coords="xy")}},
     "manifold.custom.coords must be a list of 2 strings, got 'xy'"),
    ("holonomy", {"manifold": {"custom": dict(PLANE, metric=5)}},
     "manifold.custom.metric must be a JSON object, got 5"),
    ("holonomy", {"manifold": {"custom": dict(PLANE, metric={"diag": [1, 1]})}},
     "manifold.custom.metric.diag must be a list of 2 strings, got [1, 1]"),
    ("holonomy", {"manifold": {"custom": dict(PLANE, metric={"full": [["1"], ["1"]]})}},
     "manifold.custom.metric.full must be a list of 2 lists of 2 strings, got [['1'], ['1']]"),
    ("holonomy", {"manifold": {"custom": dict(PLANE, periodicity=["a", None])}},
     "manifold.custom.periodicity must be a list of 2 numbers or null, got ['a', None]"),
    ("holonomy", {"manifold": {"custom": dict(PLANE, signature=5)}},
     "manifold.custom.signature must be a list of 2 integers, got 5"),
    # boolean keys, read before any integration: a configured family would
    # integrate before the algebra key was read
    ("holonomy", {"manifold": BOREL, "loops": [{"rect": SQUARE}], "include_log": "false"},
     "include_log must be a JSON boolean, got 'false'"),
    ("algebra", {"manifold": BOREL, "loops": [{"family": {"rect": SQUARE}}],
                 "algebra": {"include_catalog_families": 1}},
     "algebra.include_catalog_families must be a JSON boolean, got 1"),
    ("algebra", {"manifold": {"custom": PLANE}, "loops": [{"family": {"rect": SQUARE}}],
                 "algebra": {"include_catalog_families": True}},
     "algebra.include_catalog_families must be false for a custom manifold, got true"),
    # a custom manifold's density and name, read before any evaluation
    ("holonomy", {"manifold": {"custom": dict(PLANE, phi=0)}},
     "manifold.custom.phi must be a string, got 0"),
    ("algebra", {"manifold": {"custom": dict(PLANE, phi=["x"])}},
     "manifold.custom.phi must be a string, got ['x']"),
    ("verify", {"manifold": {"custom": dict(PLANE, name=5)}},
     "manifold.custom.name must be a string, got 5"),
])
def test_config_values_of_the_wrong_type_or_dimension_exit_2(tmp_path, capsys, kernel_calls,
                                                             command, doc, message):
    assert run([command, write_config(tmp_path, "c.json", doc)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert kernel_calls == []


@pytest.mark.parametrize("command,doc,message", [
    ("holonomy", {"manifold": BOREL, "loops": [{"rect": [[0, 0], [1, 1]]}], "step": 50},
     "unknown config key 'step'; did you mean 'steps'?"),
    ("algebra", {"manifold": BOREL, "algebra": {"random_loop": 5}},
     "unknown config key 'algebra.random_loop'; did you mean 'algebra.random_loops'?"),
    ("verify", {"entries": ["borel2d"], "samples": {"path": 1}},
     "unknown config key 'samples.path'; did you mean 'samples.paths'?"),
    ("holonomy", {"manifold": {"custom": dict(PLANE, signatur=[2, 0])},
                  "loops": [{"rect": [[0, 0], [1, 1]]}]},
     "unknown config key 'manifold.custom.signatur'; did you mean 'manifold.custom.signature'?"),
    ("verify", {"entries": ["borel2d"], "colour": "red"}, "unknown config key 'colour'"),
    ("algebra", {"manifold": BOREL, "tasks": ["holonomy"]}, "unknown config key 'tasks'"),
])
def test_unknown_config_keys_exit_2_before_any_integration(tmp_path, capsys, kernel_calls,
                                                           command, doc, message):
    """A key that the command does not read, at the top, in a section or in
    a custom manifold, is named with its nearest known key, if any."""
    assert run([command, write_config(tmp_path, "c.json", doc)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert kernel_calls == []


@pytest.mark.parametrize("command,doc,message", [
    ("verify", {"entries": ["borel2d"], "region": [[-1, 1], [-1, 1]]},
     "region applies only to manifold.custom; a catalog entry samples its own region"),
    ("verify", {"manifold": {"custom": PLANE}, "entries": ["borel2d"]},
     "entries does not apply beside manifold.custom, the one manifold verified"),
    ("algebra", {"manifold": BOREL, "loops": [{"rect": SQUARE}],
                 "algebra": {"region": [[-1, 1], [-1, 1]]}},
     "algebra.region applies only to random loops, and none are drawn "
     "(algebra.random_loops is 0)"),
    ("algebra", {"manifold": BOREL, "algebra": {"random_loops": 0, "basepoint": [0, 0]}},
     "algebra.basepoint applies only to random loops, and none are drawn "
     "(algebra.random_loops is 0)"),
])
def test_config_keys_that_cannot_apply_exit_2(tmp_path, capsys, kernel_calls,
                                              command, doc, message):
    """A known key that the rest of the config leaves unread is an error,
    not silently dropped."""
    assert run([command, write_config(tmp_path, "c.json", doc)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert kernel_calls == []


def test_integral_float_steps_read_as_an_integer(tmp_path):
    results = []
    for steps in (20, 20.0):
        out = tmp_path / f"r{steps!r}.json"
        cfg = write_config(tmp_path, "c.json", {
            "manifold": {"catalog": "borel2d"}, "loops": [{"rect": [[0, 0], [1, 1]]}],
            "steps": steps, "output": str(out)})
        assert run(["holonomy", cfg]) == 0
        results.append(json.loads(out.read_text())["results"])
    assert results[0] == results[1]
    assert results[0][0]["steps_used"] == 4 * 2 * 20


def test_expression_error_reports_offset(tmp_path, capsys):
    cfg = write_config(tmp_path, "bad.json", {
        "manifold": {"custom": {
            "dim": 2, "coords": ["x", "y"],
            "metric": {"diag": ["1", "sin(x"]}, "phi": "0",
        }},
        "loops": [],
    })
    assert run(["holonomy", cfg]) == 2
    assert "offset" in capsys.readouterr().err


def test_algebra_command(tmp_path, capsys):
    out = tmp_path / "alg.json"
    cfg = write_config(tmp_path, "a.json", {
        "manifold": {"catalog": "so_pq(1,1)"},
        "algebra": {"random_loops": 10},
        "steps": 300,
        "seed": 4,
        "output": str(out),
    })
    assert run(["algebra", cfg]) == 0
    doc = json.loads(out.read_text())
    assert doc["results"]["dimension"] == 1
    assert doc["results"]["tag"] == "SOplus11"
    assert doc["results"]["max_det_error"] < 1e-6
    cut = doc["results"]["svd_cut"]
    assert cut["last_kept"] >= 1e-6 > cut["first_dropped"]
    assert doc["results"]["dimension_margin_digits"] == math.log10(
        cut["last_kept"] / cut["first_dropped"])
    # one generator has no brackets to reduce: its span's cut is the closure's
    assert doc["results"]["closure_cut"] == {"last_kept": 1.0, "first_dropped": None}


def test_algebra_conjecture_mode(tmp_path):
    out = tmp_path / "conj.json"
    cfg = write_config(tmp_path, "a.json", {
        "manifold": {"catalog": "triangular(3)"},
        "algebra": {"random_loops": 15},
        "steps": 300,
        "seed": 2,
        "output": str(out),
    })
    assert run(["algebra", cfg, "--conjecture"]) == 0
    doc = json.loads(out.read_text())
    conj = doc["results"]["conjecture_experiment"]
    assert conj["strictly_upper_triangular_dim"] == 3
    assert "EXPERIMENT" in conj["note"]
    assert conj["observed_dim"] <= 3


def test_verify_custom_flat_manifold(tmp_path):
    out = tmp_path / "v.json"
    cfg = write_config(tmp_path, "v.json", {
        "manifold": {"custom": {
            "dim": 2, "coords": ["x", "y"],
            "metric": {"diag": ["1", "1"]}, "phi": "0",
        }},
        "region": [[-1, 1], [-1, 1]],
        "checks": ["duality_pairing"],
        "samples": {"paths": 3, "loops": 3, "points": 5},
        "steps": 200,
        "output": str(out),
    })
    assert run(["verify", cfg]) == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    assert [r["check_name"] for r in doc["results"]] == ["duality_pairing"]


def test_verify_rejects_unknown_check_names(tmp_path, capsys):
    for checks in (["duality_paring"], ["codazzi", "dual_holonomy", "typo"], "codazzi"):
        cfg = write_config(tmp_path, "v.json", {"entries": ["borel2d"],
                                                "checks": checks})
        assert run(["verify", cfg]) == 2
        assert "checks" in capsys.readouterr().err


def test_verify_with_no_reports_does_not_pass(tmp_path, capsys):
    # borel2d has no companion metric, so this selection leaves no report
    out = tmp_path / "v.json"
    cfg = write_config(tmp_path, "c.json", {
        "entries": ["borel2d"],
        "checks": ["projective_equivalence"],
        "samples": {"paths": 1, "loops": 1, "points": 2},
        "steps": 20,
        "output": str(out),
    })
    assert run(["verify", cfg]) == 1
    doc = json.loads(out.read_text())
    assert doc["results"] == [] and doc["passed"] is False
    assert "all passed" not in capsys.readouterr().out


def test_verify_selected_entries(tmp_path):
    cfg = write_config(tmp_path, "v.json", {
        "entries": ["borel2d"],
        "samples": {"paths": 3, "loops": 3, "points": 5},
        "steps": 200,
    })
    assert run(["verify", cfg]) == 0


def test_verify_reports_the_first_failure_of_the_batches(tmp_path, capsys):
    """The sample region leaves the chart.  The loop checks cannot draw
    their loops, but that is raised only when they are judged: the entry's
    weighted batch, integrated first, meets the first open path's exit."""
    out = tmp_path / "v.json"
    cfg = write_config(tmp_path, "c.json", {
        "manifold": {"custom": {
            "dim": 2, "coords": ["x", "y"],
            "metric": {"diag": ["exp(x)", "exp(2*x+y)"]}, "phi": "x+y",
            "domain": [[-1, 1], [-1, 1]],
        }},
        "region": [[-1.5, 1.5], [-1, 1]],
        "samples": {"paths": 2, "loops": 2, "points": 5},
        "seed": 3,
        "output": str(out),
    })
    assert run(["verify", cfg]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "numerical failure: point (-1.243052498569127, -0.5263789868078006) "
        "outside chart domain: path exits the chart"]
    assert not out.exists()


def test_reports_deterministic_excluding_timestamp(tmp_path, monkeypatch):
    o1, o2 = tmp_path / "r1.json", tmp_path / "r2.json"
    base = {
        "manifold": {"catalog": "borel2d"},
        "loops": [{"rect": [[0, 0], [0.7, 0.4]]}],
        "steps": 200,
        "seed": 9,
    }
    c1 = write_config(tmp_path, "c1.json", {**base, "output": str(o1)})
    c2 = write_config(tmp_path, "c2.json", {**base, "output": str(o2)})
    assert run(["holonomy", c1]) == 0
    assert run(["holonomy", c2]) == 0
    d1, d2 = json.loads(o1.read_text()), json.loads(o2.read_text())
    d1.pop("timestamp"), d2.pop("timestamp")
    d1["config"].pop("output"), d2["config"].pop("output")
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)


def test_env_seed_override(tmp_path, monkeypatch):
    out = tmp_path / "r.json"
    cfg = write_config(tmp_path, "c.json", {
        "manifold": {"catalog": "borel2d"},
        "loops": [],
        "seed": 1,
        "output": str(out),
    })
    monkeypatch.setenv("HOLOLAB_SEED", "777")
    assert run(["holonomy", cfg]) == 0
    assert json.loads(out.read_text())["seed"] == 777
    monkeypatch.setenv("HOLOLAB_SEED", "xx")
    assert run(["holonomy", cfg]) == 2


def test_curvature_task(tmp_path):
    out = tmp_path / "r.json"
    cfg = write_config(tmp_path, "c.json", {
        "manifold": {"catalog": "so11_2d"},
        "loops": [],
        "tasks": ["holonomy", "curvature"],
        "output": str(out),
    })
    assert run(["holonomy", cfg]) == 0
    doc = json.loads(out.read_text())
    ric = np.array(doc["curvature"]["ricci"])
    assert np.abs(ric - np.diag([1 / 8, -1 / 24])).max() < 1e-6
    empty_tasks = write_config(tmp_path, "c2.json", {
        "manifold": {"catalog": "so11_2d"}, "loops": [], "tasks": [],
    })
    assert run(["holonomy", empty_tasks]) == 2
    bad_tasks = write_config(tmp_path, "c3.json", {
        "manifold": {"catalog": "so11_2d"}, "loops": [], "tasks": ["geodesics"],
    })
    assert run(["holonomy", bad_tasks]) == 2


def test_failing_curvature_keeps_loop_results(tmp_path, capsys):
    """The Ricci tensor at the domain center (0, 0) takes log 0: the
    curvature object carries the error, the loop still integrates, the
    report is written and the command exits 1."""
    out = tmp_path / "r.json"
    cfg = write_config(tmp_path, "c.json", {
        "manifold": {"custom": dict(PLANE, phi="log(x^2+y^2)", domain=[[-1, 1], [-1, 1]])},
        "loops": [{"polyline": [[0.5, 0.5], [0.7, 0.5], [0.7, 0.7], [0.5, 0.7], [0.5, 0.5]]}],
        "tasks": ["holonomy", "curvature"], "output": str(out)})
    assert run(["holonomy", cfg]) == 1
    doc = json.loads(out.read_text())
    assert doc["curvature"] == {"point": [0.0, 0.0], "error": "log of a nonpositive value"}
    [item] = doc["results"]
    assert item["loop"] == 0 and abs(item["det"] - 1) < 1e-8
    assert "ricci at [0.0, 0.0]: ERROR log of a nonpositive value" in capsys.readouterr().out


def test_plot_csv_output(tmp_path):
    prefix = str(tmp_path / "frames")
    cfg = write_config(tmp_path, "c.json", {
        "manifold": {"catalog": "borel2d"},
        "loops": [{"polyline": [[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]}],
        "steps": 100,
    })
    assert run(["holonomy", cfg, "--plot", prefix]) == 0
    lines = (tmp_path / "frames_loop0.csv").read_text().strip().splitlines()
    assert lines[0] == "sample,x,y,P00,P01,P10,P11"
    assert len(lines) > 100
    # float cells round-trip
    assert float(lines[1].split(",")[1]) == 0.0


def test_float_roundtrip_in_reports(tmp_path):
    out = tmp_path / "r.json"
    cfg = write_config(tmp_path, "c.json", {
        "manifold": {"catalog": "borel2d"},
        "loops": [{"rect": [[0, 0], [1, 1]]}],
        "steps": 300,
        "output": str(out),
    })
    assert run(["holonomy", cfg]) == 0
    doc = json.loads(out.read_text())
    m = doc["results"][0]["matrix"]
    # serialize-parse-serialize is the identity on the payload floats
    again = json.loads(json.dumps(m))
    assert again == m


def test_plot_integrates_once_and_matches_report(tmp_path):
    # step-controlled loops: the matrix is the same with and without --plot,
    # and the last CSV frame is that matrix
    loops = [{"polyline": [[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]},
             {"rect": [[-0.5, -0.3], [0.4, 0.6]]}]
    docs = {}
    for tag, extra in (("plain", []), ("plot", ["--plot", str(tmp_path / "fr")])):
        out = tmp_path / f"{tag}.json"
        cfg = write_config(tmp_path, f"{tag}_c.json", {
            "manifold": {"catalog": "borel2d"}, "loops": loops, "output": str(out)})
        assert run(["holonomy", cfg] + extra) == 0
        docs[tag] = json.loads(out.read_text())["results"]
    for plain, plotted in zip(docs["plain"], docs["plot"]):
        assert plain["matrix"] == plotted["matrix"]
        assert plain["est_error"] == plotted["est_error"]
        assert plain["steps_used"] == plotted["steps_used"]
        rows = (tmp_path / f"fr_loop{plain['loop']}.csv").read_text().splitlines()
        last = np.array([float(v) for v in rows[-1].split(",")[3:]]).reshape(2, 2)
        assert np.abs(last - np.array(plotted["matrix"])).max() <= 1e-12


def test_verify_zero_sample_reports_do_not_pass(tmp_path, capsys):
    out = tmp_path / "v.json"
    cfg = write_config(tmp_path, "c.json", {
        "entries": ["borel2d"],
        "checks": ["duality_pairing", "unimodularity"],
        "samples": {"paths": 0, "loops": 0, "points": 2},
        "output": str(out),
    })
    assert run(["verify", cfg]) == 1
    doc = json.loads(out.read_text())
    assert [r["check_name"] for r in doc["results"]] == ["duality_pairing",
                                                         "unimodularity"]
    assert all(r["samples"] == 0 and r["passed"] is False for r in doc["results"])
    assert doc["passed"] is False
    assert "all passed" not in capsys.readouterr().out


def test_holonomy_rejects_other_commands_as_tasks(tmp_path, capsys):
    for task in ("algebra", "verify"):
        cfg = write_config(tmp_path, "c.json", {
            "manifold": {"catalog": "so11_2d"}, "loops": [],
            "tasks": ["holonomy", task]})
        assert run(["holonomy", cfg]) == 2
        assert task in capsys.readouterr().err


def test_verify_runs_only_the_selected_checks(tmp_path, monkeypatch):
    from hololab import catalog, verify
    samples = {"paths": 1, "loops": 1, "points": 5}
    full = verify.default_suite([catalog.get_entry("so_pq(1,2)")], seed=3,
                                n_paths=1, n_loops=1, n_points=5, steps=50)

    def never(*args, **kwargs):
        raise AssertionError("a check that was not asked for ran")

    for check in ("duality_pairing", "dual_holonomy", "dual_vector_fields"):
        monkeypatch.setattr(verify, f"check_{check}", never)
    for check in ("duality_pairing", "dual_holonomy", "dual_vector_fields",
                  "unimodularity", "totally_geodesic_blocks"):
        monkeypatch.setattr(verify, f"_plan_{check}", never)
    out = tmp_path / "v.json"
    cfg = write_config(tmp_path, "c.json", {
        "entries": ["so_pq(1,2)"], "checks": ["projective_equivalence", "codazzi"],
        "samples": samples, "steps": 50, "seed": 3, "output": str(out)})
    assert run(["verify", cfg]) == 0
    got = json.loads(out.read_text())["results"]
    want = [r.to_dict() for r in full
            if r.check_name in ("projective_equivalence", "codazzi")]
    assert [r["check_name"] for r in got] == ["codazzi", "projective_equivalence"]
    assert json.dumps(got) == json.dumps(want)


def test_verify_with_an_empty_check_list_runs_nothing(tmp_path, monkeypatch, capsys):
    from hololab import verify

    def never(*args, **kwargs):
        raise AssertionError("no check was asked for")

    for name in ("check_codazzi", "check_duality_pairing", "_plan_unimodularity",
                 "_plan_duality_pairing"):
        monkeypatch.setattr(verify, name, never)
    out = tmp_path / "v.json"
    cfg = write_config(tmp_path, "c.json", {"entries": ["borel2d"], "checks": [],
                                            "output": str(out)})
    assert run(["verify", cfg]) == 1
    doc = json.loads(out.read_text())
    assert doc["results"] == [] and doc["passed"] is False
    assert "NO CHECKS RAN" in capsys.readouterr().out


def test_importing_the_cli_does_not_import_verify():
    """Only the verify command imports, and so compiles, hololab.verify."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = "import sys, hololab.cli\nprint('hololab.verify' in sys.modules)\n"
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_holonomy_failing_family_keeps_loop_results(tmp_path, capsys):
    out = tmp_path / "h.json"
    cfg = write_config(tmp_path, "c.json", {
        "manifold": {"catalog": "sphere2"},
        "loops": [{"rect": [[1.5, 0.5], [1.7, 0.7]]},
                  {"family": {"rect": [[3.2, 0.5], [3.3, 0.7]], "s_max": 1.0}}],
        "output": str(out)})
    assert run(["holonomy", cfg]) == 1
    results = json.loads(out.read_text())["results"]
    assert results[0]["loop"] == 0 and "matrix" in results[0]
    assert results[1]["family"] == 0
    assert "outside chart domain" in results[1]["error"]
    assert "family 0: ERROR" in capsys.readouterr().out


def test_algebra_without_loops_does_not_pass(tmp_path, capsys):
    out = tmp_path / "a.json"
    cfg = write_config(tmp_path, "c.json", {
        "manifold": {"catalog": "borel2d"}, "algebra": {"random_loops": 0},
        "output": str(out)})
    assert run(["algebra", cfg]) == 1
    doc = json.loads(out.read_text())["results"]
    assert doc["loop_count"] == 0
    assert doc["svd_cut"] == {"last_kept": None, "first_dropped": None}
    assert doc["dimension_margin_digits"] is None
    assert "NO LOOPS" in capsys.readouterr().out
    # a flat plane's loops are evidence of a trivial algebra
    cfg = write_config(tmp_path, "flat.json", {
        "manifold": {"custom": {"dim": 2, "coords": ["x", "y"],
                                "metric": {"diag": ["1", "1"]}, "phi": "0"}},
        "loops": [{"rect": [[0, 0], [0.5, 0.5]]}], "steps": 20,
        "output": str(out)})
    assert run(["algebra", cfg]) == 0
    doc = json.loads(out.read_text())["results"]
    assert doc["loop_count"] == 1 and doc["dimension"] == 0
    assert "NO LOOPS" not in capsys.readouterr().out


def test_algebra_drops_a_noise_family_derivative(tmp_path):
    """borel2d's family through the basepoint has P'(0) = 0; its computed
    derivative (norm about 8e-9) is noise below MIN_LOG_NORM, not a
    generator."""
    out = tmp_path / "a.json"
    cfg = write_config(tmp_path, "c.json", {
        "manifold": {"catalog": "borel2d"},
        "loops": [{"family": {"rect": [[0, 0], [0.5, 0.5]], "s_max": 1.0}}],
        "algebra": {"random_loops": 0}, "output": str(out)})
    assert run(["algebra", cfg]) == 0
    doc = json.loads(out.read_text())["results"]
    assert doc["dimension"] == 0 and doc["tag"] == "Trivial"
    assert doc["closure_cut"] == {"last_kept": None, "first_dropped": None}


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_holonomy_through_an_overflowing_density_exits_1(tmp_path):
    out = tmp_path / "h.json"
    cfg = write_config(tmp_path, "c.json", {
        "manifold": {"custom": {"dim": 2, "coords": ["x", "y"],
                                "metric": {"diag": ["1", "1"]},
                                "phi": "exp(exp(exp(x)))"}},
        "loops": [{"rect": [[0, 0], [0.5, 0.5]]}, {"rect": [[1.8, 0], [1.95, 0.1]]}],
        "steps": 20, "output": str(out)})
    assert run(["holonomy", cfg]) == 1
    first, second = json.loads(out.read_text())["results"]
    assert "matrix" in first
    assert second["error"].startswith("density not finite at (")


def _holonomy_run(tmp_path, tag, doc, plot=True):
    """Exit code, result items and CSV bytes (by loop index) of one
    ``holonomy`` run of ``doc``."""
    out = tmp_path / f"{tag}.json"
    cfg = write_config(tmp_path, f"{tag}_c.json", dict(doc, output=str(out)))
    argv = ["holonomy", cfg] + (["--plot", str(tmp_path / tag)] if plot else [])
    code = run(argv)
    csvs = {int(p.stem.rsplit("loop", 1)[1]): p.read_bytes()
            for p in tmp_path.glob(f"{tag}_loop*.csv")}
    return code, json.loads(out.read_text())["results"], csvs


def test_holonomy_batch_keeps_each_loop_and_each_failure(tmp_path):
    good = [{"rect": [[1.5, 0.5], [1.7, 0.7]]},
            {"polyline": [[1.4, 0.4], [1.8, 0.6], [1.5, 0.9], [1.4, 0.4]]},
            {"rect": [[1.2, 1.0], [1.5, 1.6]]},
            {"polyline": [[1.6, 1.2], [1.3, 1.2], [1.45, 1.5], [1.6, 1.2]]}]
    outside = {"rect": [[3.2, 0.5], [3.3, 0.7]]}
    open_loop = {"polyline": [[1.5, 0.5], [1.7, 0.5], [1.7, 0.7]]}
    loops = [good[0], outside, good[1], good[2], open_loop, good[3]]
    doc = {"manifold": {"catalog": "sphere2"}, "loops": loops}
    code, items, csvs = _holonomy_run(tmp_path, "all", doc)
    assert code == 1
    assert sorted(csvs) == [0, 2, 3, 5]
    for i, loop in enumerate(loops):
        alone_code, [alone], alone_csvs = _holonomy_run(tmp_path, f"one{i}",
                                                        dict(doc, loops=[loop]))
        item = items[i]
        if loop in good:
            assert alone_code == 0
            for key in ("matrix", "est_error", "steps_used", "log"):
                assert item.get(key) == alone.get(key)
            assert csvs[i] == alone_csvs[0]
        else:
            assert alone_code == 1 and "matrix" not in item
            assert item["error"] == alone["error"]
    assert "outside chart domain" in items[1]["error"]
    assert items[4]["error"].startswith("not closed: ")


def test_holonomy_config_is_one_kernel_batch(tmp_path, kernel_calls):
    # four triangles at steps 20: 12 segments of 81 points fit one call
    triangles = [[[0, 0], [1, 0], [0, 1], [0, 0]], [[0, 0], [0.5, 0.2], [0.3, 0.9], [0, 0]],
                 [[0.2, 0.1], [1, 0.5], [0.4, 1], [0.2, 0.1]],
                 [[0, 0], [-0.7, 0.3], [-0.2, -0.6], [0, 0]]]
    loops = [{"polyline": t} for t in triangles]
    doc = {"manifold": {"catalog": "borel2d"}, "loops": loops, "steps": 20}
    code, items, _ = _holonomy_run(tmp_path, "all", doc)
    assert code == 0 and len(kernel_calls) == 1
    assert kernel_calls == [4 * 3 * 81]
    for i, loop in enumerate(loops):
        assert _holonomy_run(tmp_path, f"one{i}", dict(doc, loops=[loop]))[0] == 0
    assert len(kernel_calls) == 1 + 4


def _csv_reference(path, M, h):
    """The frame CSV as csv.writer writes it, cell by cell."""
    n = M.dim
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample"] + list(M.chart.coord_names)
                        + [f"P{i}{j}" for i in range(n) for j in range(n)])
        for k, (pos, P) in enumerate(zip(h.positions, h.frames)):
            writer.writerow([k] + [repr(float(v)) for v in pos]
                            + [repr(float(v)) for v in P.ravel()])


@pytest.mark.parametrize("steps", [None, 20, 40])
def test_plot_csv_bytes(tmp_path, steps):
    ring = [[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]
    doc = {"manifold": {"catalog": "borel2d"}, "loops": [{"polyline": ring}]}
    if steps is not None:
        doc["steps"] = steps
    _, [item], csvs = _holonomy_run(tmp_path, "fr", doc)
    data = csvs[0]
    M = catalog.borel_2d().manifold
    pts = [np.asarray(p, dtype=float) for p in ring]
    loop = Loop(segments=polyline_segments(pts), basepoint=pts[0])
    h = cli.holonomy(M, ConnectionKind.WEIGHTED, loop, steps=steps,
                     frames_per_segment=cli.PLOT_SAMPLES)
    assert item["steps_used"] == h.steps_used
    lines = data.split(b"\r\n")
    assert lines[0] == b"sample,x,y,P00,P01,P10,P11"
    assert lines[-1] == b"" and b"\n" not in data.replace(b"\r\n", b"")
    rows = [line.decode().split(",") for line in lines[1:-1]]
    # one row per frame: the basepoint, then at most 50 pieces per segment
    [(_, _, trail)] = transport._transport_many(transport._kernel(M, ConnectionKind.WEIGHTED),
                                                2, [loop.segments], steps=steps)
    assert len(rows) == len(h.frames) == 1 + sum(min(50, n) for n, _, _ in trail)
    assert [int(r[0]) for r in rows] == list(range(len(rows)))
    cells = np.array([[float(v) for v in r[1:]] for r in rows])
    assert cells[:, :2].tobytes() == h.positions.tobytes()
    assert cells[:, 2:].tobytes() == h.frames.reshape(len(rows), 4).tobytes()
    # byte for byte what csv.writer writes, a -0.0 entry included
    frames = h.frames.copy()
    frames[1, 1, 0] = -0.0
    signed = dataclasses.replace(h, frames=frames)
    path = cli._write_plot_csv(str(tmp_path / "signed"), 0, M, signed)
    _csv_reference(tmp_path / "reference.csv", M, signed)
    text = (tmp_path / "signed_loop0.csv").read_bytes()
    assert path == str(tmp_path / "signed_loop0.csv")
    assert text == (tmp_path / "reference.csv").read_bytes()
    assert text.split(b"\r\n")[2].endswith(b",-0.0,1.0")


def test_reports_and_plot_csvs_are_written_in_one_write(tmp_path, monkeypatch):
    """Each report and each --plot CSV takes one write; a report's bytes are
    json.dump's, numpy values, signed zeros and NaN included."""
    writes = {}

    def counting_open(path, mode="r", **options):
        fh = open(path, mode, **options)
        if "w" in mode:
            write, name = fh.write, os.path.basename(path)
            writes[name] = 0

            def counted(text):
                writes[name] += 1
                return write(text)
            fh.write = counted
        return fh

    monkeypatch.setattr(cli, "open", counting_open, raising=False)
    cfg = write_config(tmp_path, "c.json", {
        "manifold": BOREL, "loops": [{"rect": [[0, 0], [1, 1]]}, {"rect": [[0, 0], [1, 2]]}],
        "include_log": True, "steps": 50, "output": str(tmp_path / "r.json")})
    assert run(["holonomy", cfg, "--plot", str(tmp_path / "fr")]) == 0
    assert writes == {"r.json": 1, "fr_loop0.csv": 1, "fr_loop1.csv": 1}
    report = {"results": [{"matrix": np.array([[1.0, -0.0], [np.nan, 2.5e-300]]),
                           "det": np.float64(1 / 3), "steps_used": np.int64(7)}],
              "passed": True, "none": None, "empty": {}}
    cli._write_report(report, {"output": str(tmp_path / "s.json")}, None)
    with open(tmp_path / "reference.json", "w") as fh:
        json.dump(report, fh, indent=2, default=cli._json_default)
        fh.write("\n")
    assert writes["s.json"] == 1
    assert (tmp_path / "s.json").read_bytes() == (tmp_path / "reference.json").read_bytes()


def test_holonomy_plot_does_not_import_numpy_ma(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "manifold": {"custom": {
            "dim": 3, "coords": ["x", "y", "z"],
            "metric": {"full": [["2+sin(y)", "0.3*cos(z)", "0"],
                                ["0.3*cos(z)", "2+cos(x)", "0.2*sin(x*y)"],
                                ["0", "0.2*sin(x*y)", "exp(x*z/2)"]]},
            "phi": "x*y+0.5*sin(z)", "domain": [[-0.9, 0.9]] * 3}},
        "loops": [{"polyline": [[-0.4, 0.1, 0.3], [0.5, -0.2, 0.1], [0.2, 0.5, -0.5],
                                [-0.4, 0.1, 0.3]]},
                  {"rect": [[-0.3, -0.2, 0.1], [0.1, 0.2, 0.1]]},
                  {"family": {"rect": [[-0.2, 0.0, 0.0], [0.1, 0.0, 0.3]]}}],
        "tasks": ["holonomy", "curvature"], "include_log": True,
        "output": str(tmp_path / "r.json")})
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("import sys\n"
            "from hololab.cli import main\n"
            f"assert main(['holonomy', {cfg!r}, '--plot', {str(tmp_path / 'fr')!r}]) == 0\n"
            "print('numpy.ma' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"
    assert (tmp_path / "fr_loop1.csv").exists()


@pytest.mark.parametrize("command", ["run-example", "holonomy", "holonomy-config",
                                     "algebra", "verify"])
def test_missing_output_directory_exits_2_before_any_work(tmp_path, capsys,
                                                          kernel_calls, command):
    missing = str(tmp_path / "missing" / "r.json")
    cfg = write_config(tmp_path, "c.json", {
        "manifold": {"catalog": "borel2d"}, "loops": [{"rect": [[0, 0], [1, 1]]}],
        "algebra": {"random_loops": 4}})
    argv = {"run-example": ["run-example", "borel2d", "--output", missing],
            "holonomy": ["holonomy", cfg, "--output", missing],
            "holonomy-config": ["holonomy", write_config(tmp_path, "o.json", {
                "manifold": {"catalog": "borel2d"}, "loops": [{"rect": [[0, 0], [1, 1]]}],
                "output": missing})],
            "algebra": ["algebra", cfg, "--output", missing],
            "verify": ["verify", "--output", missing]}[command]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [f"error: report directory does not exist: {missing}"]
    assert kernel_calls == []


def test_holonomy_plot_under_a_missing_directory_exits_2(tmp_path, capsys, kernel_calls):
    prefix = str(tmp_path / "missing" / "fr")
    cfg = write_config(tmp_path, "c.json", {
        "manifold": {"catalog": "borel2d"}, "loops": [{"rect": [[0, 0], [1, 1]]}]})
    assert run(["holonomy", cfg, "--plot", prefix]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: --plot directory does not exist: {prefix}"]
    assert kernel_calls == []
    assert not (tmp_path / "missing").exists()


def test_report_path_that_is_a_directory_exits_2(tmp_path, capsys, kernel_calls):
    cfg = write_config(tmp_path, "c.json", {
        "manifold": {"catalog": "borel2d"}, "loops": [{"rect": [[0, 0], [1, 1]]}]})
    assert run(["holonomy", cfg, "--output", str(tmp_path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: report path is a directory: {tmp_path}"]
    assert kernel_calls == []


def test_unwritable_output_directory_exits_2(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, "c.json", {
        "manifold": {"catalog": "borel2d"}, "loops": [{"rect": [[0, 0], [1, 1]]}]})
    out = str(tmp_path / "r.json")
    monkeypatch.setattr(os, "access", lambda path, mode: False)
    assert run(["holonomy", cfg, "--output", out]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: report directory is not writable: {out}"]


def test_verify_with_no_points_writes_zero_sample_reports(tmp_path, capsys):
    """The point checks on every default entry with no points: each report
    has checked nothing and fails, and the run exits 1."""
    out = tmp_path / "v.json"
    cfg = write_config(tmp_path, "c.json", {
        "checks": ["codazzi", "projective_equivalence"], "samples": {"points": 0},
        "output": str(out)})
    assert run(["verify", cfg]) == 1
    doc = json.loads(out.read_text())
    names = [r["check_name"] for r in doc["results"]]
    assert names.count("codazzi") == len(catalog.default_entries())
    assert names.count("projective_equivalence") == sum(
        e.companion is not None for e in catalog.default_entries())
    assert all(r["samples"] == 0 and r["passed"] is False for r in doc["results"])
    assert doc["passed"] is False
    assert "FAILURES PRESENT" in capsys.readouterr().out


@pytest.mark.parametrize("command,key,value", (
    [("algebra", "algebra.random_loops", v) for v in ("abc", -3, 2.7, True)]
    + [(c, "seed", v) for c in ("holonomy", "algebra", "verify") for v in ("abc", -1, 2.5)]
    + [("verify", f"samples.{k}", v) for k in ("paths", "loops", "points")
       for v in ("x", -1, 2.5)]))
def test_counts_and_seeds_that_are_not_whole_exit_2(tmp_path, capsys, kernel_calls,
                                                    command, key, value):
    doc = {"manifold": {"catalog": "borel2d"}, "loops": [{"rect": [[0, 0], [1, 1]]}],
           "algebra": {"random_loops": 4}, "samples": {"paths": 1}}
    section, _, name = key.rpartition(".")
    (doc[section] if section else doc)[name] = value
    assert run([command, write_config(tmp_path, "c.json", doc)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {key} must be a nonnegative integer, got {value!r}"]
    assert kernel_calls == []


@pytest.mark.parametrize("env,shown", [("abc", "'abc'"), ("-1", "-1"), ("2.5", "'2.5'")])
def test_env_seed_that_is_not_whole_exits_2(tmp_path, capsys, monkeypatch, kernel_calls,
                                            env, shown):
    monkeypatch.setenv("HOLOLAB_SEED", env)
    cfg = write_config(tmp_path, "c.json", {"manifold": {"catalog": "borel2d"},
                                            "algebra": {"random_loops": 4}})
    assert run(["algebra", cfg]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: HOLOLAB_SEED must be a nonnegative integer, got {shown}"]
    assert kernel_calls == []


def test_integral_float_counts_and_seeds_read_as_integers(tmp_path):
    """3.0 loops at seed 7.0 are 3 loops at seed 7; zero counts are counts."""
    results = []
    for count, seed in ((3, 7), (3.0, 7.0)):
        out = tmp_path / "r.json"
        cfg = write_config(tmp_path, "c.json", {
            "manifold": {"catalog": "borel2d"}, "algebra": {"random_loops": count},
            "seed": seed, "steps": 20, "output": str(out)})
        assert run(["algebra", cfg]) == 0
        doc = json.loads(out.read_text())
        results.append((doc["seed"], doc["results"]))
    assert results[0] == results[1] and results[0][0] == 7
    assert results[0][1]["loop_count"] == 3
    out = tmp_path / "r.json"
    cfg = write_config(tmp_path, "c.json", {
        "manifold": {"catalog": "borel2d"}, "loops": [{"rect": [[0, 0], [1, 1]]}],
        "algebra": {"random_loops": 0}, "seed": 0, "steps": 20, "output": str(out)})
    assert run(["algebra", cfg]) == 0
    assert json.loads(out.read_text())["results"]["loop_count"] == 1


def test_holonomy_with_steps_forms_the_estimate_it_reports(tmp_path, capsys,
                                                           coarse_batches):
    """On a fixed grid the holonomy command reports est_error: its loop
    batch and its family's P(0) check form coarse products, the family's
    own batch does not, and report, frames and stdout have the bytes of a
    run in which every batch forms them."""
    out = tmp_path / "r.json"
    cfg = write_config(tmp_path, "c.json", {
        "manifold": {"catalog": "borel2d"}, "steps": 50, "include_log": True,
        "loops": [{"rect": [[0, 0], [1, 1]]}, {"polyline": [[0, 0], [1, 0], [0, 1], [0, 0]]},
                  {"family": {"rect": [[0, 0], [0.5, 0.5]], "s_max": 1.0}}],
        "output": str(out)})
    runs = []
    for force in (False, True):
        if force:
            coarse_batches.force()
        assert run(["holonomy", cfg, "--plot", str(tmp_path / "fr")]) == 0
        doc = json.loads(out.read_text())
        doc.pop("timestamp")
        frames = [(tmp_path / f"fr_loop{i}.csv").read_bytes() for i in range(2)]
        runs.append((json.dumps(doc), frames, capsys.readouterr().out))
    assert coarse_batches == [True, False, True] + [True] * 3
    assert runs[0] == runs[1]
    assert all(item["est_error"] > 0 for item in json.loads(runs[0][0])["results"][:2])
