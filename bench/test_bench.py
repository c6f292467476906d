"""Tests of the benchmark's own logic: self times, percentiles, plans.

Run with ``python -m pytest bench`` from the repository root.
"""

import json
import os
import sys

import pytest

import run
import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def span(name, parent, start, end):
    return [name, parent, 0, start, end, True, None]


# ---------------------------------------------------------------------------
# self-time arithmetic


def test_union_length_merges_and_clips():
    assert spans.union_length([], 0.0, 10.0) == 0.0
    assert spans.union_length([(1, 3), (5, 6)], 0, 10) == 3
    assert spans.union_length([(1, 4), (2, 6)], 0, 10) == 5      # overlap
    assert spans.union_length([(1, 4), (4, 6)], 0, 10) == 5      # touching
    assert spans.union_length([(-2, 3), (8, 12)], 0, 10) == 5    # clipped
    assert spans.union_length([(11, 12)], 0, 10) == 0            # outside


def test_self_time_is_duration_minus_children_union():
    trace = [span("cli.run", None, 0.0, 10.0),
             span("solver.solve_profile", 0, 1.0, 6.0),
             span("solver.shoot_u_given_phi", 1, 2.0, 5.0),
             span("fields.save", 0, 7.0, 8.0)]
    assert spans.self_times(trace) == [10 - 5 - 1, 5 - 3, 3, 1]


def test_layer_self_times_partition_the_root():
    trace = [span("bench.pass", None, 0.0, 10.0),
             span("cli.main", 0, 0.5, 9.5),
             span("hylomorphy.q_threshold", 1, 1.0, 8.0),
             span("hylomorphy.calibrate_constants", 2, 1.2, 1.4),
             span("hylomorphy.ratio_sweep", 3, 1.25, 1.35),
             span("hylomorphy.estimate_lambda_star", 2, 1.5, 3.0),
             span("hylomorphy.ratio_sweep", 5, 1.6, 2.9),
             span("fields.functionals", 6, 2.0, 2.5),
             span("hylomorphy.estimate_lambda_star", 2, 4.0, 6.0),
             span("hylomorphy.estimate_lambda_star", 1, 8.5, 9.0)]
    m = spans.layer_metrics(trace)
    total = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert total == pytest.approx(10.0)
    assert m["fields.self_s"] == pytest.approx(0.5)
    assert m["hylomorphy.ratio_sweep.calls"] == 2
    assert m["hylomorphy.ratio_sweep.s"] == pytest.approx(0.1 + 1.3)
    # only the two lambda* estimates under q_threshold count as its
    # probes, not the calibration sweep nor the estimate outside it
    assert m["hylomorphy.probes_per_threshold"] == 2
    assert m["solver.ok_ratio"] == 1.0


def test_layer_metrics_of_a_slice_reindex_parents():
    trace = [span("bench.pass", None, 0.0, 2.0),
             span("cli.main", 0, 0.0, 2.0),
             span("bench.pass", None, 3.0, 5.0),
             span("cli.main", 2, 3.5, 4.5)]
    m = spans.layer_metrics(trace[2:], base=2)
    assert m["bench.self_s"] == pytest.approx(1.0)
    assert m["cli.self_s"] == pytest.approx(1.0)
    assert m["cli.main.calls"] == 1


def test_traced_metrics_come_from_the_median_pass():
    tracer = spans.Tracer()
    for start, wall in ((0.0, 3.0), (10.0, 1.0), (20.0, 2.0)):
        tracer.spans += [span("bench.pass", None, start, start + wall),
                         span("cli.main", len(tracer.spans), start,
                              start + wall / 2)]
    m = run.traced_metrics(tracer, [1.5, 1.9], [3.0, 1.0, 2.0])
    assert m["trace.wall_s"] == 2.0
    assert m["trace.overhead_s"] == pytest.approx(2.0 - 1.7)
    assert m["cli.main.s"] == pytest.approx(1.0)
    total = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert total == pytest.approx(m["trace.wall_s"])


def test_tracer_wraps_every_binding_and_restores():
    import qball
    import qball.cli
    import numpy as np
    originals = {mod: vars(getattr(qball, mod))["solve_poisson"]
                 for mod in ("fields", "hylomorphy", "solver", "dynamics")}
    laplacian = qball.fields.RadialGrid.laplacian
    tracer = spans.Tracer()
    tracer.install(qball)
    try:
        wrapped = {getattr(qball, mod).solve_poisson for mod in originals}
        assert len(wrapped) == 1
        assert wrapped.pop() is not originals["fields"]
        grid = qball.fields.RadialGrid(1.0, 16)
        root = tracer.open("bench.pass")
        qball.hylomorphy.solve_poisson(np.zeros(16), grid)
        grid.laplacian(np.zeros(16))
        tracer.close(root)
    finally:
        tracer.restore()
    names = [s[spans.NAME] for s in tracer.spans]
    assert names == ["bench.pass", "fields.solve_poisson", "fields.laplacian"]
    assert [s[spans.PARENT] for s in tracer.spans] == [None, 0, 0]
    for mod, fn in originals.items():
        assert getattr(qball, mod).solve_poisson is fn
    assert qball.fields.RadialGrid.laplacian is laplacian


# ---------------------------------------------------------------------------
# percentile rule


@pytest.mark.parametrize("n, expected", [(19, None), (20, 50.0), (109, 90.0),
                                         (999, 90.0), (1000, 99.0)])
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    values = [float(i) for i in range(n, 0, -1)]
    got = run.tail_percentile(values)
    if expected is None:
        assert got is None
        return
    p, value = got
    assert p == expected
    assert sum(v > value for v in values) >= 10


def test_tail_percentile_value_is_nearest_rank():
    values = list(range(1, 101))
    assert run.tail_percentile(values) == (90.0, 90)


# ---------------------------------------------------------------------------
# seed -> config generator


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_plans_are_deterministic_in_the_seed(workload):
    plan = workloads.PLANS[workload]
    assert plan(7) == plan(7)
    assert plan(7) != plan(8)


def test_solve_omegas_are_stratified():
    lo, hi, bins = workloads.OMEGA_LO, workloads.OMEGA_HI, workloads.SOLVE_BINS
    width = (hi - lo) / bins
    for seed in range(20):
        (inv,) = workloads.solve_plan(seed)
        cfg = workloads.parse_config_values(inv.config)
        omegas = [float(w) for w in cfg["omega_list"].split(",")]
        assert len(omegas) == bins
        for k, w in enumerate(omegas):
            assert lo + k * width < w < lo + (k + 1) * width


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generated_configs_parse(workload, tmp_path):
    from qball.cli import parse_config
    for inv in workloads.PLANS[workload](3):
        path = tmp_path / f"{inv.name}.cfg"
        path.write_text(inv.config)
        cfg = parse_config(str(path))
        assert cfg.workers == 1 and cfg.seed == 3
        values = workloads.parse_config_values(inv.config)
        if "omega_list" in values:      # floats survive the round trip
            assert cfg.omega_list == tuple(
                float(w) for w in values["omega_list"].split(","))


def test_survey_alternates_presets():
    plan = workloads.survey_plan(0)
    assert len(plan) == workloads.SURVEY_POTENTIALS * 3
    presets = [workloads.parse_config_values(inv.config)["preset"]
               for inv in plan[::3]]
    assert presets[:4] == ["double_well", "poly46"] * 2


# ---------------------------------------------------------------------------
# output checks


def _solve_artifacts(out, points, profiles):
    """A sweep.csv of (mode, value, res) rows and the listed profile files."""
    out.mkdir()
    lines = ["q,mode,omega_or_delta,E,C,Lambda,res1,res2,u0"]
    for mode, value, res in points:
        lines.append(f"0.02,{mode},{value!r},1.0,1.0,1.0,{res!r},{res!r},1.0")
    (out / "sweep.csv").write_text("\n".join(lines) + "\n")
    for mode, value in profiles:
        (out / f"profile_{mode}{value:g}_q0.02.txt").write_text("x\n")


def test_check_solve_counts_failed_points_once(tmp_path):
    (inv,) = workloads.solve_plan(0)
    cfg = workloads.parse_config_values(inv.config)
    omegas = [float(w) for w in cfg["omega_list"].split(",")]
    delta = float(cfg["delta_list"])
    points = [("omega", w, 1e-9) for w in omegas] + [("delta", delta, 1e-6)]
    n_points = len(points)

    good = tmp_path / "good"
    _solve_artifacts(good, points, [p[:2] for p in points])
    assert workloads.CHECKS["solve-family"](inv, str(good), 0) == (
        1 + n_points, 0, [])

    # one point absent from sweep.csv: one failure, not two
    one_missing = tmp_path / "missing"
    _solve_artifacts(one_missing, points[1:], [p[:2] for p in points[1:]])
    attempted, failed, problems = workloads.CHECKS["solve-family"](
        inv, str(one_missing), 0)
    assert (attempted, failed) == (1 + n_points, 1)
    assert problems == ["1 sweep points did not converge"]

    # a row with a residual above tol and no profile file is one failure
    worse = [("omega", omegas[0], 1e-3)] + points[1:]
    both = tmp_path / "both"
    _solve_artifacts(both, worse, [p[:2] for p in points[1:]])
    attempted, failed, problems = workloads.CHECKS["solve-family"](
        inv, str(both), 0)
    assert (attempted, failed) == (1 + n_points, 1)
    assert len(problems) == 2


# ---------------------------------------------------------------------------
# BENCHMARK.json agrees with what the benchmark prints


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    reported = set(spans.layer_metrics([])) | {
        "trace.wall_s", "trace.overhead_s", "cli.artifact_bytes"}
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert set(listed) == reported
    assert all(run.layer_unit(k) == u for k, u in listed.items())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "wall_s", "peak_rss_mb"}
