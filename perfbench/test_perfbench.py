"""Self-tests of the benchmark, on shrunken copies of its workloads.

    python3 -m pytest perfbench -q        # from the repository root
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run as bench  # noqa: E402  (pins BLAS threads before numpy loads)

rr = bench.load_package(ROOT)

import numpy as np  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

MINI_STUDY = {
    "n": "20, 40", "d": "4, 10", "rho": "0.1, 0.5", "schemes": "rer, ridge, pca",
    "replications": "4", "groups": "2", "pa": "0.05", "gamma": "0.95",
    "lambda": "auto", "tau": "1.0",
}


def mini(name):
    return {
        "study": wl.Study("study", MINI_STUDY, trace_ops=2),
        "allocate": wl.Allocate(n=60, d=8, n_csv=2, trace_ops=8),
        "fisher": wl.Fisher(n=60, d=8, p_a=0.01, trace_ops=20),
    }[name]


def with_benchmark_json(key):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [m["name"] for m in json.load(fh)[key]]


def input_bytes(w, inputs, work) -> bytes:
    if isinstance(w, wl.Fisher):
        return inputs.x.values.tobytes() + repr(inputs.root).encode()
    names = sorted(f for f in os.listdir(work) if f.endswith((".csv", ".cfg")))
    data = b"".join(open(os.path.join(work, f), "rb").read() for f in names)
    return data + repr(getattr(inputs, "seed", None)).encode()


@pytest.mark.parametrize("name", ["study", "allocate", "fisher"])
def test_inputs_are_deterministic_in_the_seed(tmp_path, name):
    w = mini(name)
    got = []
    for seed in (7, 7, 8):
        work = tmp_path / f"{seed}-{len(got)}"
        work.mkdir()
        got.append(input_bytes(w, w.setup(rr, str(work), seed), str(work)))
    assert got[0] == got[1]
    assert got[0] != got[2]


@pytest.mark.parametrize("name", ["study", "allocate", "fisher"])
def test_traced_run_is_sound_and_repeats_its_counts(tmp_path, name):
    results = []
    for _ in range(2):
        run = bench.Run(rr, mini(name), ROOT, 3, out=str(tmp_path))
        try:
            results.append(bench.traced(run))
        finally:
            run.close()
    for attempted, failed, ok, metrics, details in results:
        assert failed == 0 and ok, details
        assert sorted(metrics) == sorted(with_benchmark_json("per_layer"))
        # traced and untraced operations produced identical outputs (ok),
        # and the second run found the first run's counts (ok again)
        assert metrics["engine.draws_attempted"][0] <= metrics["core.draw_rows_reject"][0]
    counts = [{k: v for k, (v, u) in m.items() if u == "count"} for _, _, _, m, _ in results]
    assert counts[0] == counts[1]


def test_calibration_rows_are_n_cal_per_ridge_calibration(tmp_path):
    run = bench.Run(rr, mini("study"), ROOT, 5, out=str(tmp_path))
    try:
        _, _, ok, m, _ = bench.traced(run)
    finally:
        run.close()
    assert ok
    assert m["balance.calibrate_calls.ridge"][0] > 0
    assert m["core.draw_rows_calib"][0] == 10000 * m["balance.calibrate_calls.ridge"][0]


def test_child_spans_never_exceed_their_parent():
    tracer = spans.Tracer()
    w = mini("fisher")
    inputs = w.setup(rr, None, 1)
    tracer.install(rr)
    try:
        for i in range(5):
            tracer.op = i
            w.op(rr, inputs, i, None)
    finally:
        tracer.uninstall()
    assert rr.engine.rerandomize.__module__ == "rerand.engine"
    assert rr.engine.half_split_matrix is rr.core.half_split_matrix
    children = [0.0] * len(tracer.spans)
    for s in tracer.spans:
        if s[3] >= 0:
            children[s[3]] += s[2] - s[1]
    assert all(c <= s[2] - s[1] for c, s in zip(children, tracer.spans))
    assert {s[0] for s in tracer.spans} >= {"engine.rerandomize", "core.half_split_matrix",
                                            "balance.batch_distances"}


def test_untraced_run_reports_every_end_to_end_metric(tmp_path):
    run = bench.Run(rr, mini("allocate"), ROOT, 2, out=str(tmp_path))
    try:
        attempted, failed, repeat_ok, metrics, details = bench.untraced(run, 0.5)
    finally:
        run.close()
    assert attempted >= 1 and failed == 0 and repeat_ok
    assert sorted(metrics) == sorted(with_benchmark_json("end_to_end"))
    assert all(value > 0 for value, _ in metrics.values())


def test_check_flags_broken_allocations(tmp_path):
    w = mini("fisher")
    inputs = w.setup(rr, str(tmp_path), 1)
    res = w.op(rr, inputs, 0, None)
    assert w.check(rr, inputs, 0, res) == []
    unbalanced = res.w.copy()
    unbalanced[np.flatnonzero(unbalanced)[0]] = 0
    assert w.check(rr, inputs, 0, type(res)(w=unbalanced, value=res.value, accepted=True))
    assert w.check(rr, inputs, 0, type(res)(w=res.w, value=res.value * 1.001, accepted=True))
    assert w.check(rr, inputs, 0, type(res)(w=res.w, value=res.value, accepted=False))


def test_check_flags_nan_study_output(tmp_path):
    # One replication per group writes NaN metrics without an error.
    w = wl.Study("one-per-group", dict(MINI_STUDY, replications="2", groups="2"), trace_ops=1)
    inputs = w.setup(rr, str(tmp_path), 1)
    out = tmp_path / "out"
    out.mkdir()
    res = w.op(rr, inputs, 0, str(out))
    assert any("NaN" in p for p in w.check(rr, inputs, 0, res))


def test_tail_latency_has_ten_samples_beyond():
    lat = bench.latency_summary([float(i) for i in range(1, 101)])
    assert lat["tail_ms"] == 90e3 and lat["tail_beyond"] == 10 and lat["tail_percentile"] == 90.0
    few = bench.latency_summary([3.0, 1.0, 2.0])
    assert few["tail_ms"] == 3e3 and few["tail_beyond"] == 0 and few["p50_ms"] == 2e3


@pytest.mark.parametrize("preset, cfg", [(wl.DESK, "desk_study.cfg"), (wl.FACTORIAL, "full_factorial.cfg")])
def test_presets_mirror_the_shipped_configs(preset, cfg):
    path = os.path.join(ROOT, "configs", cfg)
    if not os.path.exists(path):
        pytest.skip(f"{cfg} is not shipped")
    shipped = {}
    with open(path) as fh:
        for line in fh:
            key, sep, value = line.split("#", 1)[0].partition("=")
            if sep:
                shipped[key.strip()] = ",".join(v.strip() for v in value.split(","))
    for key, value in preset.items():
        if key not in ("replications", "groups"):
            assert shipped[key] == ",".join(v.strip() for v in value.split(",")), key


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
