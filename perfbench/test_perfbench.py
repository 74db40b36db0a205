"""Self-tests of the benchmark: every output check rejects a wrong answer,
every workload runs end to end at tiny size, and BENCHMARK.json names
exactly the metrics the runs print.

    python3 -m pytest -q perfbench
"""

import copy
import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from perfbench import reference, run, tracing
from perfbench.reference import CheckFailed
from perfbench.workloads import WORKLOADS, Context

ROOT = run.ROOT
csskit = run.import_csskit()


def tiny(name: str, seed: int = 3, tmp_path=None):
    """(workload, context, inputs, outputs of one round) at tiny size."""
    wl = WORKLOADS[name]
    ctx = Context(csskit=csskit, seed=seed, cfg=wl.sizes["tiny"], workdir=str(tmp_path))
    inp = wl.setup(ctx)
    out = run.Round(wl, ctx, inp)()
    assert all(v is not None for v in out.values())
    return wl, ctx, inp, out


def exchanged(subset, p):
    """``subset`` with its first index replaced by the lowest one outside it."""
    outside = next(i for i in range(p) if i not in subset)
    return (outside,) + tuple(subset[1:])


# ---------------------------------------------------------------------------
# each check accepts the program's answer and rejects a wrong one
# ---------------------------------------------------------------------------


def test_css_checks(tmp_path):
    wl, ctx, inp, out = tiny("select-css-774", tmp_path=tmp_path)
    sigma = inp["sigma"]
    p = sigma.shape[0]
    wl.check(ctx, inp, out)
    g, s = out["greedy"], out["swap"]

    with pytest.raises(CheckFailed, match="greedy objective"):
        reference.check_css_greedy(sigma, exchanged(g.subset, p), g.objective)
    with pytest.raises(CheckFailed, match="first pick"):
        # a correct objective for a subset whose first pick is not the argmax
        later = tuple(g.subset[1:]) + (g.subset[0],)
        reference.check_css_greedy(sigma, later, reference.css_objective(sigma, later))

    rng = np.random.default_rng(0)
    with pytest.raises(CheckFailed, match="swap objective"):
        reference.check_css_swap(sigma, exchanged(s.subset, p), s.objective, s.trajectory, rng, 10)
    with pytest.raises(CheckFailed, match="trajectory increases"):
        reference.check_css_swap(sigma, s.subset, s.objective, [s.objective, s.objective + 1.0], rng, 10)
    with pytest.raises(CheckFailed, match="exchange at position"):
        # a consistent but not locally optimal answer: the worst variables
        worst = tuple(np.argsort(np.sum(sigma * sigma, axis=0))[: len(s.subset)].tolist())
        reference.check_css_swap(sigma, worst, reference.css_objective(sigma, worst), [], rng, 200)


def test_cc_checks(tmp_path):
    wl, ctx, inp, out = tiny("select-cc-120", tmp_path=tmp_path)
    sigma = inp["sigma"]
    wl.check(ctx, inp, out)
    s = out["swap"]
    with pytest.raises(CheckFailed, match="cc_sum"):
        reference.check_cc(sigma, exchanged(s.subset, sigma.shape[0]), s.objective)
    with pytest.raises(CheckFailed, match="cc_sum"):
        reference.check_cc(sigma, s.subset, s.objective * (1 + 1e-5))
    bad = copy.copy(out)
    bad["swap"] = dataclasses.replace(s, trajectory=[s.objective, s.objective + 0.5])
    with pytest.raises(CheckFailed, match="trajectory increases"):
        wl.check(ctx, inp, bad)


def _report(out):
    return out["trial0"]["report"], out["trial0"]["rows"]


def test_choose_k_checks(tmp_path):
    wl, ctx, inp, out = tiny("choosek-a2", tmp_path=tmp_path)
    wl.check(ctx, inp, out)
    report, rows = _report(out)
    xc = rows - rows.mean(axis=0)
    sigma = xc.T @ xc / rows.shape[0]
    n = rows.shape[0]

    def rejects(rep, match):
        with pytest.raises(CheckFailed, match=match):
            reference.check_choose_k(sigma, n, rep)

    perturbed = copy.deepcopy(report)
    perturbed.records[3].statistic *= 1 + 1e-4
    rejects(perturbed, "statistic at k=3")

    flipped = copy.deepcopy(report)
    flipped.records[2].reject = not flipped.records[2].reject
    rejects(flipped, "reject flag")

    swapped = copy.deepcopy(report)
    swapped.chosen_subset = exchanged(report.chosen_subset, sigma.shape[0])
    swapped.records[-1].subset = swapped.chosen_subset
    rejects(swapped, f"statistic at k={report.chosen_k}")

    early = copy.deepcopy(report)
    early.records = early.records[:-1]
    early.chosen_k, early.chosen_subset = early.records[-1].k, early.records[-1].subset
    rejects(early, "first non-rejection")

    flat = copy.deepcopy(report)
    flat.records[2].critical_value = flat.records[1].critical_value
    flat.records[2].reject = flat.records[2].statistic > flat.records[2].critical_value
    rejects(flat, "critical values")


def test_select_rows_checks(tmp_path):
    wl, ctx, inp, out = tiny("select-data-mar", tmp_path=tmp_path)
    wl.check(ctx, inp, out)
    rows = out["select"]["rows"]

    def with_row(i, row):
        bad = copy.deepcopy(out)
        bad["select"]["rows"][i] = row
        return bad

    k, obj, r2, sub = rows[-1]
    with pytest.raises(CheckFailed, match="objective at k"):
        wl.check(ctx, inp, with_row(-1, (k, obj * (1 + 1e-4), r2, sub)))
    with pytest.raises(CheckFailed, match="avg_r2 at k"):
        wl.check(ctx, inp, with_row(-1, (k, obj, r2 + 1e-3, sub)))
    with pytest.raises(CheckFailed, match="objective at k|extend"):
        wl.check(ctx, inp, with_row(-1, (k, obj, r2, exchanged(sub, ctx.cfg["p"]))))
    with pytest.raises(CheckFailed, match="manifest digest"):
        bad = copy.deepcopy(out)
        bad["select"]["manifest"]["input_digests"][inp["path"]] = "0" * 64
        wl.check(ctx, inp, bad)
    # the property checks on their own
    sigma_hat = reference.pairwise_psd(np.loadtxt(inp["path"], delimiter=",", ndmin=2))
    tr = float(np.trace(sigma_hat))
    a = next(i for i in range(ctx.cfg["p"]) if i not in rows[1][3])
    obj_a = reference.css_objective(sigma_hat, (a,))
    with pytest.raises(CheckFailed, match="does not extend"):
        reference.check_select_rows(sigma_hat, [(1, obj_a, 1 - obj_a / tr, (a,)), rows[1]])
    (k0, obj0, r0, s0), (k1, obj1, r1, s1) = rows[:2]
    with pytest.raises(CheckFailed, match="objective increases"):
        reference.check_select_rows(sigma_hat, [(k0, obj1, r0, s0), (k1, obj0, r1, s1)])


def test_pairwise_reference_matches_complete_data():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((40, 6))
    xc = x - x.mean(axis=0)
    assert np.allclose(reference.pairwise_psd(x), xc.T @ xc / 40)


# ---------------------------------------------------------------------------
# end to end at tiny size, and the contract with BENCHMARK.json
# ---------------------------------------------------------------------------


def _bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_names_what_runs_print():
    spec = _bench_json()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert set(tracing.FUNCTIONS) == {n.rsplit(".", 1)[0] for n in run.PER_LAYER if n.endswith(".self_s")}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_end_to_end(name, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "5",
           "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300, check=True)
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
    if not trace:
        assert all(v["value"] > 0 for v in res["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "select-css-774", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
