"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest bench/test_smoke.py

Runs every workload through ``bench/run.py --scale tiny`` and checks that
every metric BENCHMARK.json names is emitted with its unit, that a seed
fixes the inputs, accuracy figures and failure counts, and that the
benchmark refuses to run without the package source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

from layers import _SplaProxy  # noqa: E402
from tracer import Tracer  # noqa: E402
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def parsed(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().split("\n")
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request):
    w = request.param
    return w, {
        "seed0": parsed(bench(w, 0, 0)),
        "seed0_again": parsed(bench(w, 0, 0)),
        "seed1": parsed(bench(w, 1, 0)),
        "traced": parsed(bench(w, 0, 1)),
    }


def test_every_metric_is_emitted_with_its_unit(runs):
    _, r = runs
    for key, trace in (("seed0", "end_to_end"), ("traced", "per_layer")):
        info, result = r[key]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[trace]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want
        for m in result["metrics"].values():
            assert isinstance(m["value"], (int, float))
    for m in SPEC["end_to_end"]:
        assert r["seed0"][1]["metrics"][m["name"]]["value"] > 0, m["name"]


def test_same_seed_same_inputs_accuracy_and_failures(runs):
    _, r = runs
    (info_a, res_a), (info_b, res_b) = r["seed0"], r["seed0_again"]
    assert info_a["inputs"] == info_b["inputs"]
    assert info_a["report"] == info_b["report"]
    assert info_a["operations"] == info_b["operations"]
    assert res_a["metrics"]["accuracy_err"] == res_b["metrics"]["accuracy_err"]
    assert (res_a["attempted"], res_a["failed"]) == (res_b["attempted"], res_b["failed"])
    # the traced run measures the same first pass
    assert r["traced"][0]["report"] == info_a["report"]


def test_other_seed_other_inputs(runs):
    _, r = runs
    assert r["seed0"][0]["inputs"] != r["seed1"][0]["inputs"]
    assert r["seed0"][0]["report"] != r["seed1"][0]["report"]


def test_traced_run_follows_the_eigensolver_path(runs):
    w, r = runs
    m = {name: v["value"] for name, v in r["traced"][1]["metrics"].items()}
    # at tiny sizes every workload stays on the dense path
    assert m["basis.dense_calls"] == 1 and m["basis.arpack_calls"] == 0
    assert m["pipeline.fit_self_s"] >= 0
    assert m["forecast.moments_calls"] > 0
    if w == "lorenz-skill":
        assert m["baselines.affine_fits"] > 0 and m["baselines.ensemble_s"] == 0
    else:
        assert m["baselines.ensemble_s"] > 0 and m["baselines.affine_fits"] == 0


def test_arpack_stand_in_counts_matvecs_and_keeps_the_answer():
    # the tiny workloads never reach ARPACK, so the stand-in is checked here
    a = sp.random(300, 300, density=0.05, random_state=0)
    a = (a + a.T).tocsc()
    v0 = np.full(300, 1.0)
    tracer = Tracer()
    got, _ = _SplaProxy(spla, tracer).eigsh(a, k=6, which="LA", v0=v0)
    want, _ = spla.eigsh(a, k=6, which="LA", v0=v0)
    np.testing.assert_allclose(np.sort(got), np.sort(want), rtol=1e-10)
    c = tracer.counts
    assert tracer.calls["basis.eigsh"] == 1 and c["arpack_calls"] == 1
    assert c["arpack_matvecs"] > 0
    assert c["arpack_matvec_flops"] == 2.0 * a.nnz * c["arpack_matvecs"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench(WORKLOADS[0], 0, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
