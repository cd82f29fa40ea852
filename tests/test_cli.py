"""CLI contract: exit codes, config handling, determinism, report schema."""

import json
import math

import numpy as np
import pytest

from hololab.catalog import BOREL_LOOP1_MATRIX
from hololab.cli import main

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

    for name in ("check_duality_pairing", "check_dual_holonomy",
                 "check_dual_vector_fields", "check_unimodularity",
                 "check_totally_geodesic_blocks"):
        monkeypatch.setattr(verify, name, never)
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

    for name in ("check_codazzi", "check_unimodularity", "check_duality_pairing"):
        monkeypatch.setattr(verify, name, never)
    out = tmp_path / "v.json"
    cfg = write_config(tmp_path, "c.json", {"entries": ["borel2d"], "checks": [],
                                            "output": str(out)})
    assert run(["verify", cfg]) == 1
    doc = json.loads(out.read_text())
    assert doc["results"] == [] and doc["passed"] is False
    assert "NO CHECKS RAN" in capsys.readouterr().out


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
    assert json.loads(out.read_text())["results"]["loop_count"] == 0
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
