"""Choosing the subset size by calibrated goodness-of-fit tests.

For a sample covariance ``S`` (divisor n) and a candidate subset ``U`` of
size k, let ``R`` be the residual block of the non-selected variables given
``U``.  Two statistics measure how far the residual is from the structure
each model implies for a *correct* subset:

``stat_T``
    ``n * log(det(Diag R) / det R)`` -- zero iff the residual is diagonal.
    Used for the subset-factor model (arbitrary diagonal residual).
``stat_Ttilde``
    ``n * log((trace(R)/(p-k))^(p-k) / det R)`` -- zero iff the residual is
    isotropic.  Used for the stricter model with one shared residual
    variance.

Both are nonnegative (Hadamard / AM-GM).  When some (resp. every)
non-selected variable does not add rank to ``U`` (the unit-free rule
:func:`csskit.symmat.adds_rank`), both determinants vanish and the statistic
is taken to be 0 -- the subset explains everything it could.  When only
``det R`` vanishes the statistic is ``+inf`` (honest rejection: the
residual is singular but not diagonal).

Null critical values are Monte Carlo quantiles of the exact finite-sample
laws, which are sums of independent chi-square ratios and therefore cheap
to draw in bulk; see :func:`mc_quantile_subset_factor` and
:func:`mc_quantile_pcss`.  The null law requires ``n > p``.

:func:`choose_k` walks k = 0, 1, 2, ... and returns the smallest k whose
test fails to reject, searching each size with the swapping algorithm
under the criterion matched to the model (DiagDet for subset-factor,
IsoLrt for the isotropic model) -- minimizing that criterion is exactly
minimizing the statistic over subsets.
"""

import json
import math
import warnings
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import List, Optional, Sequence

import numpy as np

from . import search, symmat
from .criteria import Criterion, CriterionKind
from .errors import DegreesOfFreedom, DimMismatch, NoFeasibleK
from .search import SearchConfig
from .symmat import RANK_TOL, IndexSet, SymMatrix


class Model(str, Enum):
    SUBSET_FACTOR = "subset-factor"
    PCSS = "pcss"


@dataclass
class SizeTestRecord:
    """One row of the size-selection walk."""

    k: int
    subset: IndexSet
    statistic: float
    critical_value: float
    reject: bool
    perfect_fit: bool = False


@dataclass
class SizeSelectionReport:
    """Full record of a choose_k run, JSON-serializable."""

    records: List[SizeTestRecord]
    chosen_k: int
    chosen_subset: IndexSet
    alpha: float
    model: Model
    mc_samples: int
    seed: int

    def to_json_dict(self) -> dict:
        return {
            "schema": "csskit/size-selection-report/v1",
            "alpha": self.alpha,
            "model": self.model.value,
            "mc_samples": self.mc_samples,
            "seed": self.seed,
            "rank_tol": RANK_TOL,
            "chosen_k": self.chosen_k,
            "chosen_subset": list(self.chosen_subset),
            "records": [
                {
                    "k": r.k,
                    "subset": list(r.subset),
                    # +inf (singular, non-diagonal residual) has no JSON number
                    "statistic": None if r.statistic == math.inf else r.statistic,
                    "critical_value": r.critical_value,
                    "reject": r.reject,
                    "perfect_fit": r.perfect_fit,
                }
                for r in self.records
            ],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)


def _stat_core(sigma_hat, n, subset, isotropic: bool) -> float:
    sigma_hat = np.asarray(sigma_hat, dtype=float)
    p = sigma_hat.shape[0]
    if sigma_hat.ndim != 2 or sigma_hat.shape != (p, p):
        raise DimMismatch(f"sigma_hat must be square, got {sigma_hat.shape}")
    u = symmat.check_subset(p, subset)
    m = p - len(u)
    if m < 1:
        raise DimMismatch("subset must leave at least one variable out")
    if n < 1:
        raise DimMismatch(f"n must be positive, got {n}")
    comp = [j for j in range(p) if j not in set(u)]
    r = symmat.residual_covariance(sigma_hat, u)[np.ix_(comp, comp)]
    diag = r.diagonal()
    fits = ~symmat.adds_rank(diag, sigma_hat.diagonal()[comp])
    if np.any(fits):
        # det R vanishes, and so does the fitted determinant unless the
        # isotropic fit still has residual variance to spread
        return 0.0 if np.all(fits) or not isotropic else float("inf")
    fitted = m * math.log(float(diag.sum()) / m) if isotropic else float(np.sum(np.log(diag)))
    return float(n * (fitted - symmat.log_det(r)))  # +inf when det R is 0


def stat_T(sigma_hat: SymMatrix, n: int, subset: Sequence[int]) -> float:
    """Diagonality statistic ``n log(det(Diag R)/det R)`` for the residual
    of the non-selected block.  ``subset`` may be empty (tests k = 0)."""
    return _stat_core(sigma_hat, n, subset, isotropic=False)


def stat_Ttilde(sigma_hat: SymMatrix, n: int, subset: Sequence[int]) -> float:
    """Isotropy statistic ``n log((trace(R)/m)^m / det R)``, m = p - k."""
    return _stat_core(sigma_hat, n, subset, isotropic=True)


# ---------------------------------------------------------------------------
# Monte Carlo critical values
# ---------------------------------------------------------------------------


def _check_mc_args(n: int, p: int, k: int, alpha: float, mc_samples: int):
    if not 0 < alpha < 1:
        raise DimMismatch(f"alpha must be in (0, 1), got {alpha}")
    if mc_samples < 1000:
        raise DimMismatch(f"mc_samples must be >= 1000, got {mc_samples}")
    if not 0 <= k <= p - 1:
        raise DimMismatch(f"k={k} out of range for p={p}")
    if n <= p:
        raise DegreesOfFreedom(f"null law needs n > p (got n={n}, p={p})")


def null_draws_subset_factor(n: int, p: int, k: int, mc_samples: int, seed: int) -> np.ndarray:
    """Draws from the null law of ``stat_T`` at a correct size-k subset:
    ``n * sum_{j=2}^{p-k} log(1 + chi2_{j-1} / chi2_{n-k-j})``, all draws
    independent.  Degenerate at 0 when k = p - 1."""
    m = p - k
    if m == 1:
        return np.zeros(mc_samples)
    rng = np.random.default_rng(seed)
    total = np.zeros(mc_samples)
    for j in range(2, m + 1):
        num = rng.chisquare(j - 1, mc_samples)
        den = rng.chisquare(n - k - j, mc_samples)
        total += np.log1p(num / den)
    return n * total


def null_draws_pcss(n: int, p: int, k: int, mc_samples: int, seed: int) -> np.ndarray:
    """Draws from the null law of ``stat_Ttilde`` at a correct size-k subset:

        n * log( ((chi2_{m(m-1)/2} + sum_j chi2_{n-k-j}) / m)^m
                 / prod_{j=1}^m chi2_{n-k-j} ),   m = p - k.

    Degenerate at 0 when k = p - 1."""
    m = p - k
    if m == 1:
        return np.zeros(mc_samples)
    rng = np.random.default_rng(seed)
    denom_sum = np.zeros(mc_samples)
    denom_logs = np.zeros(mc_samples)
    for j in range(1, m + 1):
        c = rng.chisquare(n - k - j, mc_samples)
        denom_sum += c
        denom_logs += np.log(c)
    extra = rng.chisquare(m * (m - 1) // 2, mc_samples)
    return n * (m * np.log((extra + denom_sum) / m) - denom_logs)


@lru_cache(maxsize=None)
def mc_quantile_subset_factor(
    n: int, p: int, k: int, alpha: float, mc_samples: int, seed: int
) -> float:
    """(1 - alpha)-quantile of :func:`null_draws_subset_factor`, cached on
    its full argument tuple."""
    _check_mc_args(n, p, k, alpha, mc_samples)
    draws = null_draws_subset_factor(n, p, k, mc_samples, seed)
    return float(np.quantile(draws, 1.0 - alpha))


@lru_cache(maxsize=None)
def mc_quantile_pcss(
    n: int, p: int, k: int, alpha: float, mc_samples: int, seed: int
) -> float:
    """(1 - alpha)-quantile of :func:`null_draws_pcss`, cached on its full
    argument tuple."""
    _check_mc_args(n, p, k, alpha, mc_samples)
    draws = null_draws_pcss(n, p, k, mc_samples, seed)
    return float(np.quantile(draws, 1.0 - alpha))


# ---------------------------------------------------------------------------
# Size selection
# ---------------------------------------------------------------------------


def cc_sum(sigma: SymMatrix, a: Sequence[int], b: Sequence[int]) -> float:
    """Sum of squared canonical correlations between column sets ``a`` and
    ``b`` under covariance ``sigma``:
    ``trace(G_a sigma_ab G_b sigma_ba)`` with the generalised inverses
    ``G = ginv(.)`` of :func:`csskit.symmat.ginv`."""
    sigma = np.asarray(sigma, dtype=float)
    p = sigma.shape[0]
    aa = list(symmat.check_subset(p, a))
    bb = list(symmat.check_subset(p, b))
    if not aa or not bb:
        return 0.0
    cross = sigma[np.ix_(aa, bb)]
    left = symmat.ginv(sigma[np.ix_(aa, aa)]) @ cross
    return float(np.sum(left * (cross @ symmat.ginv(sigma[np.ix_(bb, bb)]))))


def choose_k(
    sigma_hat: SymMatrix,
    n: int,
    alpha: float = 0.05,
    model: Model = Model.SUBSET_FACTOR,
    restarts: int = 1,
    max_sweeps: int = 100,
    mc_samples: int = 100_000,
    seed: int = 0,
    k_max: Optional[int] = None,
) -> SizeSelectionReport:
    """Smallest subset size whose goodness-of-fit test fails to reject.

    For each k = 0, 1, ... the subset is found by the swapping search
    minimizing the model-matched criterion (DiagDet / IsoLrt), the
    statistic is compared to the cached Monte Carlo critical value at
    level ``alpha``, and the walk stops at the first non-rejection.  Search
    seeds are derived per size (``seed + 1000003 * k`` plus the restart
    offset) so runs are reproducible end to end.

    A ``-inf`` search objective means some subset fits the residual
    structure perfectly; the statistic is then 0 by the
    both-determinants-vanish convention and the record is flagged
    ``perfect_fit``.

    Raises :class:`DegreesOfFreedom` unless ``n > p``, and
    :class:`NoFeasibleK` only when a user-imposed ``k_max`` cuts the walk
    short of ``p - 1`` (at k = p - 1 the statistic is identically 0).
    """
    model = Model(model)
    sigma_hat = np.asarray(sigma_hat, dtype=float)
    p = sigma_hat.shape[0]
    if sigma_hat.ndim != 2 or sigma_hat.shape != (p, p):
        raise DimMismatch(f"sigma_hat must be square, got {sigma_hat.shape}")
    if n <= p:
        raise DegreesOfFreedom(f"size selection needs n > p (got n={n}, p={p})")
    if model == Model.SUBSET_FACTOR:
        stat_fn, quant_fn, kind = stat_T, mc_quantile_subset_factor, CriterionKind.DIAG_DET
    else:
        stat_fn, quant_fn, kind = stat_Ttilde, mc_quantile_pcss, CriterionKind.ISO_LRT

    k_hi = p - 1 if k_max is None else min(int(k_max), p - 1)
    records: List[SizeTestRecord] = []
    for k in range(0, k_hi + 1):
        perfect = False
        if k == 0:
            subset: IndexSet = ()
        else:
            crit = Criterion(kind=kind, p=p, k=k)
            cfg = SearchConfig(
                k=k,
                criterion=crit,
                restarts=restarts,
                max_sweeps=max_sweeps,
                seed=seed + 1000003 * k,
            )
            result = search.swap(sigma_hat, cfg)
            subset = tuple(sorted(result.subset))
            perfect = result.objective == float("-inf")
        if perfect:
            statistic = 0.0
            warnings.warn(
                f"perfect fit at k={k}: subset {subset} leaves a singular "
                "residual; statistic taken as 0",
                RuntimeWarning,
                stacklevel=2,
            )
        else:
            statistic = stat_fn(sigma_hat, n, subset)
        critical = quant_fn(n, p, k, alpha, mc_samples, seed)
        rej = bool(statistic > critical)
        records.append(SizeTestRecord(k, subset, statistic, critical, rej, perfect))
        if not rej:
            return SizeSelectionReport(
                records=records,
                chosen_k=k,
                chosen_subset=subset,
                alpha=alpha,
                model=model,
                mc_samples=mc_samples,
                seed=seed,
            )
    raise NoFeasibleK(
        f"all sizes k <= {k_hi} rejected at level {alpha}; "
        "raise k_max or inspect the input for numerical trouble"
    )
