"""The four workloads: inputs, the operations of one round, and their checks.

A round is a fixed list of operations; every run attempts whole rounds, so
the share of failed operations cannot depend on how long a run lasts.
Each workload has a ``full`` size (what the benchmark measures) and a
``tiny`` size (what the self-tests run end to end in seconds).
"""

import csv
import json
import os
from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

from . import inputs, reference


@dataclass
class Context:
    """What a workload's functions get: the imported package, the run seed,
    the size settings and a scratch directory inside the checkout."""

    csskit: object
    seed: int
    cfg: Dict[str, object]
    workdir: str


@dataclass
class Workload:
    name: str
    why: str
    sizes: Dict[str, Dict[str, object]]
    setup: Callable  # (ctx) -> inputs dict
    ops: Callable  # (ctx, inputs) -> list of (label, zero-argument callable)
    check: Callable  # (ctx, inputs, outputs) -> quality dict
    before_round: Callable = None  # (ctx) -> None, runs first in every round
    layer_extras: Callable = None  # (ctx, inputs, rounds of outputs, tracer) -> dict
    memory_ops: int = None  # leading operations of the memory pass; None: all


def _quality(sigma, subset, planted) -> Dict[str, float]:
    return {
        "avg_r2": reference.avg_r2(sigma, subset),
        "cc_sum": reference.cc_sum(sigma, subset),
        "planted_overlap": float(len(set(subset) & set(planted))),
    }


# ---------------------------------------------------------------------------
# select-css-774: CssTrace greedy + swap on a correlation matrix in memory
# ---------------------------------------------------------------------------


def _population_setup(ctx: Context) -> dict:
    rng = np.random.default_rng([ctx.seed, 1])
    pop = inputs.planted_population(ctx.cfg["p"], ctx.cfg["k"], rng)
    return {"sigma": pop.sigma, "planted": pop.planted}


def _greedy_swap_ops(kind_name: str):
    def ops(ctx: Context, inp: dict):
        cs = ctx.csskit
        kind = getattr(cs.CriterionKind, kind_name)
        p, k = inp["sigma"].shape[0], ctx.cfg["k"]
        crit = cs.Criterion(kind, p=p, k=k)
        sigma = inp["sigma"]
        greedy_cfg = cs.SearchConfig(k=k, criterion=crit)
        swap_cfg = cs.SearchConfig(k=k, criterion=crit, restarts=ctx.cfg["restarts"], seed=ctx.seed)
        return [
            ("greedy", lambda: cs.search.greedy(sigma, greedy_cfg)),
            ("swap", lambda: cs.search.swap(sigma, swap_cfg)),
        ]

    return ops


def _check_css(ctx: Context, inp: dict, out: dict) -> Dict[str, float]:
    sigma = inp["sigma"]
    g, s = out["greedy"], out["swap"]
    reference.check_css_greedy(sigma, g.subset, g.objective)
    rng = np.random.default_rng([ctx.seed, 2])
    reference.check_css_swap(sigma, s.subset, s.objective, s.trajectory, rng, ctx.cfg["exchanges"])
    return _quality(sigma, s.subset, inp["planted"])


SELECT_CSS = Workload(
    name="select-css-774",
    why="CssTrace greedy and swap at p=774, k=30 on an in-memory correlation: dense p x p rank-one updates, no covest or sizesel",
    sizes={
        "full": {"p": 774, "k": 30, "restarts": 4, "exchanges": 300},
        "tiny": {"p": 60, "k": 5, "restarts": 2, "exchanges": 50},
    },
    setup=_population_setup,
    ops=_greedy_swap_ops("CSS_TRACE"),
    check=_check_css,
)


# ---------------------------------------------------------------------------
# select-cc-120: CanonCorr greedy + swap, full-rank correlation
# ---------------------------------------------------------------------------


def _check_cc(ctx: Context, inp: dict, out: dict) -> Dict[str, float]:
    sigma = inp["sigma"]
    for res in out.values():
        reference.check_cc(sigma, res.subset, res.objective)
    s = out["swap"]
    steps = np.diff(np.asarray(s.trajectory, dtype=float))
    if steps.size and float(steps.max()) > reference.RTOL * len(s.subset):
        raise reference.CheckFailed("CanonCorr swap trajectory increases")
    return _quality(sigma, s.subset, inp["planted"])


SELECT_CC = Workload(
    name="select-cc-120",
    why="CanonCorr greedy and swap at p=120, k=6: the per-candidate pinv_remove on (p-k) blocks with its Penrose check dominates",
    sizes={
        "full": {"p": 120, "k": 6, "restarts": 1},
        "tiny": {"p": 24, "k": 3, "restarts": 1},
    },
    setup=_population_setup,
    ops=_greedy_swap_ops("CANON_CORR"),
    check=_check_cc,
)


# ---------------------------------------------------------------------------
# choosek-a2: choose_k trials on sizesel-a2 samples, cold calibration cache
# ---------------------------------------------------------------------------


def _choosek_setup(ctx: Context) -> dict:
    spec = ctx.csskit.simlab.sizesel_a2_spec()
    return {"spec": spec, "planted": list(spec.subset)}


def _choosek_before_round(ctx: Context):
    # every round starts cold, as every `csskit choose-k` process does
    ctx.csskit.sizesel.mc_quantile_subset_factor.cache_clear()


def _choosek_ops(ctx: Context, inp: dict):
    cs = ctx.csskit
    cfg = ctx.cfg

    def trial(t: int):
        def run():
            data = cs.simlab.sample(inp["spec"], cfg["n"], seed=[ctx.seed, t, 0])
            sigma_hat = cs.covest.sample_cov(data)
            report = cs.sizesel.choose_k(
                sigma_hat,
                n=cfg["n"],
                alpha=0.05,
                model=cs.Model.SUBSET_FACTOR,
                restarts=cfg["restarts"],
                mc_samples=cfg["mc_samples"],
                seed=ctx.seed,
            )
            info = cs.sizesel.mc_quantile_subset_factor.cache_info()
            return {"rows": data.values, "report": report, "cache": (info.hits, info.misses)}

        return run

    return [(f"trial{t}", trial(t)) for t in range(cfg["trials"])]


def _check_choosek(ctx: Context, inp: dict, out: dict) -> Dict[str, float]:
    quality = []
    for res in out.values():
        rows = res["rows"]
        xc = rows - rows.mean(axis=0)
        sigma_hat = xc.T @ xc / rows.shape[0]
        reference.check_choose_k(sigma_hat, rows.shape[0], res["report"])
        quality.append(_quality(sigma_hat, res["report"].chosen_subset, inp["planted"]))
    return {key: float(np.mean([q[key] for q in quality])) for key in quality[0]}


def _choosek_extras(ctx, inp, rounds: List[dict], tracer) -> Dict[str, float]:
    # cache_info() is cumulative within a round; its last trial holds the totals
    hits = misses = steps = 0
    for out in rounds:
        last = out[f"trial{ctx.cfg['trials'] - 1}"]
        hits += last["cache"][0]
        misses += last["cache"][1]
        steps += sum(len(res["report"].records) for res in out.values())
    return {
        "sizesel.mc_quantile_subset_factor.hit_ratio": hits / max(hits + misses, 1),
        "sizesel.choose_k.k_steps": steps / max(len(rounds), 1),
    }


CHOOSEK = Workload(
    name="choosek-a2",
    why="choose_k on sizesel-a2 samples (p=50, n=200, 10 restarts) from a cold calibration cache: null draws and small-p swap",
    sizes={
        "full": {"n": 200, "trials": 2, "restarts": 10, "mc_samples": 100_000},
        "tiny": {"n": 200, "trials": 2, "restarts": 2, "mc_samples": 2_000},
    },
    setup=_choosek_setup,
    ops=_choosek_ops,
    check=_check_choosek,
    before_round=_choosek_before_round,
    layer_extras=_choosek_extras,
    # the later trials repeat the first against a warm cache, without null
    # draws, so they allocate less; tracemalloc would quadruple their time
    memory_ops=1,
)


# ---------------------------------------------------------------------------
# select-data-mar: `csskit select --data` on a CSV with missing cells
# ---------------------------------------------------------------------------


def _data_setup(ctx: Context) -> dict:
    cfg = ctx.cfg
    rng = np.random.default_rng([ctx.seed, 3])
    pop = inputs.planted_population(cfg["p"], cfg["k_star"], rng)
    rows = inputs.mask_at_random(inputs.sample_rows(pop, cfg["n"], rng), cfg["missing"], rng)
    path = os.path.join(ctx.workdir, "select-data-mar.csv")
    inputs.write_csv(path, rows)
    out = os.path.join(ctx.workdir, "select-data-mar.out.csv")
    return {"path": path, "out": out, "planted": pop.planted, "population": pop.sigma}


def _data_ops(ctx: Context, inp: dict):
    cli = ctx.csskit.cli
    argv = [
        "select", "--data", inp["path"], "--method", "greedy",
        "--k-range", f"1..{ctx.cfg['k_max']}", "--out", inp["out"],
    ]

    def run():
        code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"csskit select exited with {code}")
        with open(inp["out"], newline="") as fh:
            rows = [
                (int(r["k"]), float(r["objective"]), float(r["avg_r2"]), tuple(int(i) for i in r["subset"].split(";")))
                for r in csv.DictReader(fh)
            ]
        with open(inp["out"] + ".manifest.json") as fh:
            manifest = json.load(fh)
        return {"rows": rows, "manifest": manifest}

    return [("select", run)]


def _check_data(ctx: Context, inp: dict, out: dict) -> Dict[str, float]:
    res = out["select"]
    x = np.loadtxt(inp["path"], delimiter=",", ndmin=2)
    sigma_hat = reference.pairwise_psd(x)
    reference.check_select_rows(sigma_hat, res["rows"])
    if [r[0] for r in res["rows"]] != list(range(1, ctx.cfg["k_max"] + 1)):
        raise reference.CheckFailed("select rows do not cover the requested k range")
    digest = res["manifest"]["input_digests"].get(inp["path"])
    if digest != reference.sha256_file(inp["path"]):
        raise reference.CheckFailed(f"manifest digest {digest!r} is not the CSV's sha256")
    # the pairwise estimate is singular after projection, so cc_sum is
    # taken under the population the rows were drawn from
    _, _, r2, subset = res["rows"][-1]
    quality = _quality(inp["population"], subset, inp["planted"])
    quality["avg_r2"] = r2
    return quality


def _data_extras(ctx, inp, rounds, tracer) -> Dict[str, float]:
    calls = tracer.calls("covest.read_data_csv")
    seconds = tracer.inclusive_s("covest.read_data_csv")
    size_mb = os.path.getsize(inp["path"]) / 1e6
    return {"covest.read_data_csv.mb_per_s": size_mb * calls / seconds if seconds else 0.0}


SELECT_DATA = Workload(
    name="select-data-mar",
    why="csskit select --data --method greedy in-process on a p=774 CSV with 10% cells missing at random: parsing, pairwise covariance, PSD projection",
    sizes={
        "full": {"p": 774, "k_star": 20, "k_max": 25, "n": 1500, "missing": 0.1},
        "tiny": {"p": 40, "k_star": 4, "k_max": 6, "n": 150, "missing": 0.1},
    },
    setup=_data_setup,
    ops=_data_ops,
    check=_check_data,
    layer_extras=_data_extras,
)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (SELECT_CSS, SELECT_CC, CHOOSEK, SELECT_DATA)}
