"""Synthetic scenarios: population covariances, samplers, and desk studies.

A :class:`ScenarioSpec` describes a zero-mean distribution in which a known
subset ``S`` of ``k*`` variables drives the rest: ``X_S`` is Gaussian with
covariance ``sigma_s``, and the remaining variables are ``W X_S + eps``,
where ``eps`` has independent zero-mean components.  Two noise shapes are
supported: a single shared variance (``model = "pcss"``) and per-variable
variances with per-variable laws (``model = "subset-factor"``).  Optional
MAR masking deletes each cell independently with probability ``mar_prob``.

Two presets ship as checked-in data files under ``presets/`` (guarded by a
checksum test):

``missing-a1``
    p = 20, k* = 4, equicorrelated principal block (0.75 I + 0.25),
    16 +/- rows in W, isotropic noise 0.15, unit variances throughout.
    Designed for the missing-data recovery study; the population
    reconstruction error of the true subset is 16 * 0.15 = 2.4.
``sizesel-a2``
    p = 50, k* = 20, five equicorrelated 4x4 principal blocks
    (0.5 I + 0.5), a sparse 30x20 +/-1 loading matrix in four overlapping
    bands, and noise variances cycling 1..6 scaled by ``signal`` (smaller
    scale = higher signal; 0.254 gives average R^2 near 0.95, 30.0 near
    0.1).  ``factors="mixed"`` swaps in centered-exponential, Rademacher,
    and scaled-t(3) noise laws on fixed thirds of the variables.
"""

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from importlib import resources
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import covest, criteria, search, sizesel, symmat
from .covest import DataMatrix
from .criteria import Criterion, CriterionKind
from .errors import DimMismatch
from .search import SearchConfig
from .sizesel import Model
from .symmat import IndexSet, SymMatrix

NOISE_LAWS = ("gaussian", "rademacher", "student_t3", "centered_exponential")


@dataclass
class ScenarioSpec:
    """A synthetic population with a known driving subset.

    ``noise_sigma2`` is used when ``model == "pcss"``; ``d_diag`` (strictly
    positive) and ``noise_laws`` (one of ``NOISE_LAWS`` per non-selected
    variable) when ``model == "subset-factor"``.  Every variable has mean
    zero.
    """

    model: Model
    p: int
    subset: IndexSet
    sigma_s: np.ndarray
    w: np.ndarray
    noise_sigma2: Optional[float] = None
    d_diag: Optional[np.ndarray] = None
    noise_laws: Optional[Tuple[str, ...]] = None
    mar_prob: float = 0.0

    def __post_init__(self):
        self.model = Model(self.model)
        self.subset = symmat.check_subset(self.p, self.subset)
        k = len(self.subset)
        m = self.p - k
        self.sigma_s = np.asarray(self.sigma_s, dtype=float)
        self.w = np.asarray(self.w, dtype=float)
        if self.sigma_s.shape != (k, k):
            raise DimMismatch(f"sigma_s shape {self.sigma_s.shape}, expected ({k},{k})")
        if self.w.shape != (m, k):
            raise DimMismatch(f"w shape {self.w.shape}, expected ({m},{k})")
        if self.model == Model.PCSS:
            if self.noise_sigma2 is None or self.noise_sigma2 < 0:
                raise DimMismatch("pcss scenario needs noise_sigma2 >= 0")
        else:
            if self.d_diag is None:
                raise DimMismatch("subset-factor scenario needs d_diag")
            self.d_diag = np.asarray(self.d_diag, dtype=float)
            if self.d_diag.shape != (m,):
                raise DimMismatch(f"d_diag shape {self.d_diag.shape}, expected ({m},)")
            if np.any(self.d_diag <= 0):
                raise DimMismatch("d_diag entries must be strictly positive")
            if self.noise_laws is None:
                self.noise_laws = tuple("gaussian" for _ in range(m))
            self.noise_laws = tuple(self.noise_laws)
            if len(self.noise_laws) != m:
                raise DimMismatch("need one noise law per non-selected variable")
            for law in self.noise_laws:
                if law not in NOISE_LAWS:
                    raise DimMismatch(f"unknown noise law {law!r}")
        if not 0.0 <= self.mar_prob < 1.0:
            raise DimMismatch(f"mar_prob must be in [0, 1), got {self.mar_prob}")

    @property
    def complement(self) -> np.ndarray:
        return symmat.complement(self.p, self.subset)

    def noise_variances(self) -> np.ndarray:
        if self.model == Model.PCSS:
            return np.full(self.p - len(self.subset), float(self.noise_sigma2))
        return self.d_diag.copy()


def population_cov(spec: ScenarioSpec) -> SymMatrix:
    """Exact population covariance of the scenario, in natural variable order."""
    k = len(spec.subset)
    cov_ss = spec.sigma_s
    cov_cs = spec.w @ cov_ss
    cov_cc = cov_cs @ spec.w.T + np.diag(spec.noise_variances())
    sigma = np.zeros((spec.p, spec.p))
    s_idx = list(spec.subset)
    c_idx = spec.complement
    sigma[np.ix_(s_idx, s_idx)] = cov_ss
    sigma[np.ix_(c_idx, s_idx)] = cov_cs
    sigma[np.ix_(s_idx, c_idx)] = cov_cs.T
    sigma[np.ix_(c_idx, c_idx)] = cov_cc
    return (sigma + sigma.T) / 2.0


def _draw_noise(rng: np.random.Generator, law: str, var: float, n: int) -> np.ndarray:
    if law == "gaussian":
        return math.sqrt(var) * rng.standard_normal(n)
    if law == "rademacher":
        return math.sqrt(var) * (2.0 * rng.integers(0, 2, n) - 1.0)
    if law == "student_t3":
        # t(3) has variance 3; rescale to the requested variance
        return math.sqrt(var / 3.0) * rng.standard_t(3, n)
    if law == "centered_exponential":
        return math.sqrt(var) * (rng.exponential(1.0, n) - 1.0)
    raise DimMismatch(f"unknown noise law {law!r}")


def sample(spec: ScenarioSpec, n: int, seed) -> DataMatrix:
    """Draw ``n`` rows from the scenario (fixed draw order for a given seed:
    principal block, then noise column by column, then the MAR mask)."""
    if n < 1:
        raise DimMismatch(f"n must be positive, got {n}")
    rng = np.random.default_rng(seed)
    k = len(spec.subset)
    m = spec.p - k
    w_eig, v_eig = symmat.eigh_desc(spec.sigma_s)
    root = np.sqrt(np.maximum(w_eig, 0.0))[:, None] * v_eig.T
    # root.T @ root == sigma_s; draw X_S = Z @ root with Z standard normal
    xs = rng.standard_normal((n, k)) @ root
    noise_vars = spec.noise_variances()
    if spec.model == Model.PCSS:
        laws = tuple("gaussian" for _ in range(m))
    else:
        laws = spec.noise_laws
    eps = np.empty((n, m))
    for j in range(m):
        eps[:, j] = _draw_noise(rng, laws[j], float(noise_vars[j]), n)
    xc = xs @ spec.w.T + eps
    out = np.empty((n, spec.p))
    out[:, list(spec.subset)] = xs
    out[:, spec.complement] = xc
    if spec.mar_prob > 0.0:
        drop = rng.random((n, spec.p)) < spec.mar_prob
        out = np.where(drop, np.nan, out)
    return DataMatrix(out)


# ---------------------------------------------------------------------------
# Preset scenarios (checked-in data files)
# ---------------------------------------------------------------------------


def _load_preset(name: str) -> dict:
    with resources.files("csskit.presets").joinpath(name).open("rb") as fh:
        return json.loads(fh.read().decode())


def preset_checksums() -> Dict[str, str]:
    """SHA-256 of the shipped preset files (guarded by a test)."""
    out = {}
    for name in ("missing_a1.json", "sizesel_a2.json"):
        with resources.files("csskit.presets").joinpath(name).open("rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def missing_a1_spec(mar_prob: float = 0.05) -> ScenarioSpec:
    """The ``missing-a1`` scenario: p=20, k*=4, isotropic noise, optional MAR."""
    raw = _load_preset("missing_a1.json")
    return ScenarioSpec(
        model=raw["model"],
        p=raw["p"],
        subset=tuple(raw["subset"]),
        sigma_s=np.array(raw["sigma_s"]),
        w=np.array(raw["w"]),
        noise_sigma2=raw["noise_sigma2"],
        mar_prob=mar_prob,
    )


def sizesel_a2_spec(signal: float = 0.254, factors: str = "gaussian") -> ScenarioSpec:
    """The ``sizesel-a2`` scenario: p=50, k*=20, block factors.

    ``signal`` scales the noise variances (smaller = higher signal);
    ``factors`` is ``"gaussian"`` or ``"mixed"``.
    """
    if signal <= 0:
        raise DimMismatch(f"signal must be positive, got {signal}")
    raw = _load_preset("sizesel_a2.json")
    m = len(raw["d_tilde"])
    laws = ["gaussian"] * m
    if factors == "mixed":
        table = raw["factor_laws_mixed"]
        for law, idx in table.items():
            for j in idx:
                laws[j] = law
    elif factors != "gaussian":
        raise DimMismatch(f"factors must be 'gaussian' or 'mixed', got {factors!r}")
    return ScenarioSpec(
        model=raw["model"],
        p=raw["p"],
        subset=tuple(raw["subset"]),
        sigma_s=np.array(raw["sigma_s"]),
        w=np.array(raw["w"]),
        d_diag=signal * np.array(raw["d_tilde"], dtype=float),
        noise_laws=tuple(laws),
    )


# ---------------------------------------------------------------------------
# Desk studies
# ---------------------------------------------------------------------------


def _trial_metrics(
    spec: ScenarioSpec, pop: np.ndarray, selected: Sequence[int], prefix: str = ""
) -> dict:
    """The row fields of one selection, scored against the scenario's true
    subset under the population covariance, keys led by ``prefix``."""
    true_set = set(spec.subset)
    sel = tuple(sorted(selected))
    overlap = len(true_set.intersection(sel))
    crit = Criterion(CriterionKind.CSS_TRACE, p=spec.p, k=len(sel))
    return {
        prefix + "selected": ";".join(str(i) for i in sel),
        prefix + "exact_recovery": int(overlap == len(true_set) and len(sel) == len(true_set)),
        prefix + "overlap": overlap,
        prefix + "pop_css_objective": float(criteria.evaluate(crit, pop, sel)),
        prefix + "cc_sum": float(criteria.cc_sum(pop, sel, spec.subset)),
    }


def run_missing_study(
    trials: int = 100,
    n: int = 200,
    seed: int = 0,
    mar_prob: float = 0.05,
    restarts: int = 10,
) -> Tuple[List[dict], dict]:
    """Recovery of the ``missing-a1`` subset from MAR data.

    Each trial draws ``n`` rows, estimates the covariance with the
    pairwise-complete PSD estimator, runs the swapping search (CssTrace,
    ``restarts`` restarts) at the true size, and scores the selection
    against the population.  A uniform random subset is scored alongside as
    a baseline.  Returns (per-trial rows, summary).  Raises
    :class:`DimMismatch` when ``trials < 1``.
    """
    if trials < 1:
        raise DimMismatch(f"trials must be >= 1, got {trials}")
    spec = missing_a1_spec(mar_prob=mar_prob)
    pop = population_cov(spec)
    k = len(spec.subset)
    crit = Criterion(CriterionKind.CSS_TRACE, p=spec.p, k=k)
    rows: List[dict] = []
    for t in range(trials):
        data = sample(spec, n, seed=[seed, t, 0])
        sigma_hat = covest.pairwise_cov_psd(data)
        cfg = SearchConfig(k=k, criterion=crit, restarts=restarts, seed=seed + t)
        result = search.swap(sigma_hat, cfg)
        rng_base = np.random.default_rng([seed, t, 1])
        baseline = rng_base.choice(spec.p, size=k, replace=False).tolist()
        rows.append(
            {
                "trial": t,
                **_trial_metrics(spec, pop, result.subset),
                **_trial_metrics(spec, pop, baseline, "baseline_"),
            }
        )
    summary = {
        "scenario": "missing-a1",
        "trials": trials,
        "n": n,
        "mar_prob": mar_prob,
        "restarts": restarts,
        "seed": seed,
        "recovery_rate": _mean(rows, "exact_recovery"),
        "mean_overlap": _mean(rows, "overlap"),
        "se_overlap": _se(rows, "overlap"),
        "mean_pop_css_objective": _mean(rows, "pop_css_objective"),
        "se_pop_css_objective": _se(rows, "pop_css_objective"),
        "mean_cc_sum": _mean(rows, "cc_sum"),
        "baseline_recovery_rate": _mean(rows, "baseline_exact_recovery"),
        "baseline_mean_overlap": _mean(rows, "baseline_overlap"),
        "baseline_se_overlap": _se(rows, "baseline_overlap"),
        "baseline_mean_pop_css_objective": _mean(rows, "baseline_pop_css_objective"),
        "baseline_se_pop_css_objective": _se(rows, "baseline_pop_css_objective"),
        "true_subset": list(spec.subset),
        "true_pop_css_objective": float(
            criteria.evaluate(crit, pop, spec.subset)
        ),
    }
    return rows, summary


def run_sizesel_study(
    trials: int = 100,
    n: int = 200,
    alpha: float = 0.05,
    signal: float = 0.254,
    factors: str = "gaussian",
    seed: int = 0,
    restarts: int = 10,
    mc_samples: int = 100_000,
    timings: Optional[Dict[str, float]] = None,
) -> Tuple[List[dict], dict]:
    """Size selection on the ``sizesel-a2`` scenario.

    Each trial draws ``n`` complete rows, forms the sample covariance, and
    runs :func:`csskit.sizesel.choose_k` under the subset-factor model.
    Critical values are exact, so they depend on (n, p, alpha) only;
    ``mc_samples`` is checked and recorded, not used.  When ``timings`` is
    given, the walks' ``search_s`` and ``calibrate_s``, summed over trials,
    are added to it.
    Raises :class:`DimMismatch` when ``trials < 1``.
    """
    if trials < 1:
        raise DimMismatch(f"trials must be >= 1, got {trials}")
    spec = sizesel_a2_spec(signal=signal, factors=factors)
    pop = population_cov(spec)
    rows: List[dict] = []
    for t in range(trials):
        data = sample(spec, n, seed=[seed, t, 0])
        sigma_hat = covest.sample_cov(data)
        report = sizesel.choose_k(
            sigma_hat,
            n=n,
            alpha=alpha,
            model=Model.SUBSET_FACTOR,
            restarts=restarts,
            mc_samples=mc_samples,
            seed=seed,
        )
        if timings is not None:
            for key in ("search_s", "calibrate_s"):
                timings[key] = timings.get(key, 0.0) + getattr(report, key)
        sel = report.chosen_subset
        overlap = len(set(spec.subset).intersection(sel))
        rows.append(
            {
                "trial": t,
                "chosen_k": report.chosen_k,
                "selected": ";".join(str(i) for i in sorted(sel)),
                "overlap": overlap,
                "cc_sum": criteria.cc_sum(pop, sel, spec.subset),
            }
        )
    ks = [r["chosen_k"] for r in rows]
    summary = {
        "scenario": "sizesel-a2",
        "trials": trials,
        "n": n,
        "alpha": alpha,
        "signal": signal,
        "factors": factors,
        "restarts": restarts,
        "mc_samples": mc_samples,
        "seed": seed,
        "k_star": len(spec.subset),
        "k_distribution": {str(k): ks.count(k) for k in sorted(set(ks))},
        "mean_chosen_k": float(np.mean(ks)),
        "median_overlap": float(np.median([r["overlap"] for r in rows])),
        "mean_overlap": _mean(rows, "overlap"),
        "mean_cc_sum": _mean(rows, "cc_sum"),
    }
    return rows, summary


def _mean(rows: List[dict], key: str) -> float:
    return float(np.mean([r[key] for r in rows]))


def _se(rows: List[dict], key: str) -> float:
    vals = np.array([r[key] for r in rows], dtype=float)
    if len(vals) < 2:
        return 0.0
    return float(vals.std(ddof=1) / math.sqrt(len(vals)))


def write_rows_csv(path: str, rows: List[dict]):
    """One CSV row per trial, keys as the header."""
    if not rows:
        raise DimMismatch("no rows to write")
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
