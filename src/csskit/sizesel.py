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
laws, which are built from independent chi-square columns and therefore
cheap to draw in bulk; see :func:`mc_quantile_subset_factor` and
:func:`mc_quantile_pcss`.  Each column is drawn once per block of sizes and
shared by every k of the block, so the draws are independent within each k
and common random numbers across k -- each test of the walk uses only its
own k's law.  The null law requires ``n > p``.

:func:`choose_k` walks k = 0, 1, 2, ... and returns the smallest k whose
test fails to reject, searching each size with the swapping algorithm
under the criterion matched to the model (DiagDet for subset-factor,
IsoLrt for the isotropic model) -- minimizing that criterion is exactly
minimizing the statistic over subsets.
"""

import functools
import json
import math
import time
import warnings
from dataclasses import dataclass, field
from enum import Enum
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
    """Full record of a choose_k run, JSON-serializable.

    ``search_s`` and ``calibrate_s`` are the wall seconds the walk spent in
    subset search and in critical values; they stay out of the JSON report,
    which is byte-reproducible."""

    records: List[SizeTestRecord]
    chosen_k: int
    chosen_subset: IndexSet
    alpha: float
    model: Model
    mc_samples: int
    seed: int
    search_s: float = field(default=0.0, compare=False)
    calibrate_s: float = field(default=0.0, compare=False)

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

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


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
    comp = symmat.complement(p, u)
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
#
# Both null laws are built from chi-square columns of mc_samples draws.  A
# column is a stream of its own, keyed by its family and degrees of freedom
# (generator ``default_rng([seed, family, df])``), so every size k of one
# ``(n, p, mc_samples, seed)`` assembles its law from the same columns:
# independent within each k, common random numbers across k.  Sizes are
# calibrated in blocks on a fixed grid of _BLOCK; one pass over the samples
# in chunks of _CHUNK draws the columns a block needs once and keeps, per k,
# only the upper tail that the quantile interpolates in.  A chi-square
# stream drawn in chunks yields the same values as one call, so no value
# depends on the blocking, the chunking or the order of the calls.

_NUMERATOR, _DENOMINATOR, _PCSS_EXTRA = 0, 1, 2  # column families
_BLOCK = 16
_CHUNK = 1024


def _check_law_args(n: int, p: int, k: int, seed: int):
    if seed < 0:
        raise DimMismatch(f"seed must be non-negative, got {seed}")
    if not 0 <= k <= p - 1:
        raise DimMismatch(f"k={k} out of range for p={p}")
    if n <= p:
        raise DegreesOfFreedom(f"null law needs n > p (got n={n}, p={p})")


def _chunks(mc_samples: int, seed: int, family: int, dfs: Sequence[int]):
    """Draws of the chi-square columns ``dfs`` of one family, one array of
    shape (len(dfs), chunk) per chunk of samples.  The array is reused: each
    chunk overwrites the one before."""
    gens = [np.random.default_rng([seed, family, df]) for df in dfs]
    buf = np.empty((len(dfs), min(_CHUNK, mc_samples)))
    for start in range(0, mc_samples, _CHUNK):
        out = buf[:, : min(_CHUNK, mc_samples - start)]
        for row, gen, df in zip(out, gens, dfs):
            gen.standard_gamma(df / 2, out=row)  # chi2_df = 2 Gamma(df/2)
        out *= 2
        yield out


def _subset_factor_rows(n: int, p: int, k_lo: int, k_hi: int, mc_samples: int, seed: int):
    """Null draws of ``stat_T`` for sizes k_lo <= k < k_hi, one array of
    shape (k_hi - k_lo, chunk) per chunk of samples.

    At size k (m = p - k) numerator column d pairs with denominator column
    n - k - 1 - d, d = 1 ... m - 1: row i of ``num`` holds df i + 1, row i
    of ``den`` df n - p + i, so size k reads ``num[:m-1] / den[m-2::-1]``."""
    top = p - k_lo - 1
    nums = _chunks(mc_samples, seed, _NUMERATOR, range(1, top + 1))
    dens = _chunks(mc_samples, seed, _DENOMINATOR, range(n - p, n - p + top))
    ratio = np.empty((top, min(_CHUNK, mc_samples)))
    for num, den in zip(nums, dens):
        out = np.zeros((k_hi - k_lo, num.shape[1]))
        for row, k in zip(out, range(k_lo, k_hi)):
            terms = p - k - 1
            if terms > 0:
                r = np.divide(num[:terms], den[terms - 1 :: -1], out=ratio[:terms, : num.shape[1]])
                np.log1p(r, out=r)
                np.sum(r, axis=0, out=row)
        out *= n
        yield out


def _pcss_rows(n: int, p: int, k_lo: int, k_hi: int, mc_samples: int, seed: int):
    """Null draws of ``stat_Ttilde`` for sizes k_lo <= k < k_hi, chunked as
    :func:`_subset_factor_rows`.

    Size k (m = p - k) reads the denominator columns n - p ... n - k - 1
    (rows 0 ... m - 1 of ``den``) through cumulative sums of the draws and
    their logs, and one column of df m(m - 1)/2 of its own."""
    live = [p - k for k in range(k_lo, k_hi) if p - k > 1]
    dens = _chunks(mc_samples, seed, _DENOMINATOR, range(n - p, n - k_lo))
    extras = _chunks(mc_samples, seed, _PCSS_EXTRA, [m * (m - 1) // 2 for m in live])
    for den, extra in zip(dens, extras):
        sums = np.cumsum(den, axis=0)
        log_sums = np.cumsum(np.log(den), axis=0)
        out = np.zeros((k_hi - k_lo, den.shape[1]))
        # the sizes with m > 1 lead the block
        for row, m, e in zip(out, live, extra):
            row[:] = m * np.log((e + sums[m - 1]) / m) - log_sums[m - 1]
        out *= n
        yield out


def _upper_tail(chunks, size: int) -> np.ndarray:
    """The ``size`` largest values of every row of the chunks laid side by
    side, sorted ascending.

    Each row keeps its candidates and, once it has seen ``size`` values, a
    floor: the smallest of its ``size`` largest so far.  A value at or below
    the floor cannot change the tail, so only the values above it are kept."""
    kept = floors = None
    for chunk in chunks:
        if kept is None:
            kept = [[] for _ in chunk]
            floors = np.full(len(chunk), -np.inf)
        for i, row in enumerate(chunk):
            kept[i].append(row[row > floors[i]])
            if sum(part.size for part in kept[i]) >= size + _CHUNK:
                top = _top(np.concatenate(kept[i]), size)
                kept[i] = [top]
                floors[i] = top.min()
    return np.array([np.sort(_top(np.concatenate(parts), size)) for parts in kept])


def _top(values: np.ndarray, size: int) -> np.ndarray:
    return np.partition(values, values.size - size)[-size:]


def _critical_values(rows, n, p, k_lo, alpha, mc_samples, seed) -> np.ndarray:
    """Critical values of the sizes k_lo <= k < k_lo + _BLOCK (capped at p)
    from the null draws ``rows`` (:func:`_subset_factor_rows` or
    :func:`_pcss_rows`)."""
    # np.quantile's default (linear) rule: interpolate between order
    # statistics floor(h) and floor(h) + 1, h = (mc_samples - 1)(1 - alpha)
    h = (mc_samples - 1) * (1.0 - alpha)
    lo = math.floor(h)
    gamma = h - lo
    k_hi = min(k_lo + _BLOCK, p)
    tail = _upper_tail(rows(n, p, k_lo, k_hi, mc_samples, seed), mc_samples - lo)
    a = tail[:, 0]
    b = tail[:, min(1, tail.shape[1] - 1)]
    diff = b - a
    return b - diff * (1 - gamma) if gamma >= 0.5 else a + diff * gamma


# One block table per (n, p, block, alpha, mc_samples, seed) and model.
@functools.lru_cache(maxsize=None)
def _subset_factor_table(n, p, k_lo, alpha, mc_samples, seed) -> np.ndarray:
    return _critical_values(_subset_factor_rows, n, p, k_lo, alpha, mc_samples, seed)


@functools.lru_cache(maxsize=None)
def _pcss_table(n, p, k_lo, alpha, mc_samples, seed) -> np.ndarray:
    return _critical_values(_pcss_rows, n, p, k_lo, alpha, mc_samples, seed)


def _lookup(table, n: int, p: int, k: int, alpha: float, mc_samples: int, seed: int) -> float:
    """Size k's critical value from its block of ``table``."""
    if not 0 < alpha < 1:
        raise DimMismatch(f"alpha must be in (0, 1), got {alpha}")
    if mc_samples < 1000:
        raise DimMismatch(f"mc_samples must be >= 1000, got {mc_samples}")
    _check_law_args(n, p, k, seed)
    k_lo = k - k % _BLOCK
    return float(table(int(n), int(p), k_lo, float(alpha), int(mc_samples), int(seed))[k - k_lo])


def null_draws_subset_factor(n: int, p: int, k: int, mc_samples: int, seed: int) -> np.ndarray:
    """Draws from the null law of ``stat_T`` at a correct size-k subset:
    ``n * sum_{j=2}^{p-k} log(1 + chi2_{j-1} / chi2_{n-k-j})``, the
    chi-square columns independent within each k and shared across k
    (common random numbers): these are row k of the draws
    :func:`mc_quantile_subset_factor` calibrates on.  Degenerate at 0 when
    k = p - 1."""
    _check_law_args(n, p, k, seed)
    return np.concatenate(list(_subset_factor_rows(n, p, k, k + 1, mc_samples, seed)), axis=1)[0]


def null_draws_pcss(n: int, p: int, k: int, mc_samples: int, seed: int) -> np.ndarray:
    """Draws from the null law of ``stat_Ttilde`` at a correct size-k subset:

        n * log( ((chi2_{m(m-1)/2} + sum_j chi2_{n-k-j}) / m)^m
                 / prod_{j=1}^m chi2_{n-k-j} ),   m = p - k,

    the chi-square columns independent within each k and the
    ``chi2_{n-k-j}`` shared across k (common random numbers): these are row
    k of the draws :func:`mc_quantile_pcss` calibrates on.  Degenerate at 0
    when k = p - 1."""
    _check_law_args(n, p, k, seed)
    return np.concatenate(list(_pcss_rows(n, p, k, k + 1, mc_samples, seed)), axis=1)[0]


def mc_quantile_subset_factor(
    n: int, p: int, k: int, alpha: float, mc_samples: int, seed: int
) -> float:
    """(1 - alpha)-quantile, as ``np.quantile`` takes it, of
    :func:`null_draws_subset_factor`.  Sizes are calibrated and cached in
    blocks; ``cache_clear()`` drops every table and ``cache_info()`` counts
    hits and misses, one lookup per call, as ``functools.lru_cache`` does."""
    return _lookup(_subset_factor_table, n, p, k, alpha, mc_samples, seed)


def mc_quantile_pcss(
    n: int, p: int, k: int, alpha: float, mc_samples: int, seed: int
) -> float:
    """(1 - alpha)-quantile of :func:`null_draws_pcss`, calibrated and cached
    as :func:`mc_quantile_subset_factor`."""
    return _lookup(_pcss_table, n, p, k, alpha, mc_samples, seed)


mc_quantile_subset_factor.cache_clear = _subset_factor_table.cache_clear
mc_quantile_subset_factor.cache_info = _subset_factor_table.cache_info
mc_quantile_pcss.cache_clear = _pcss_table.cache_clear
mc_quantile_pcss.cache_info = _pcss_table.cache_info


# ---------------------------------------------------------------------------
# Size selection
# ---------------------------------------------------------------------------


def choose_k(
    sigma_hat: SymMatrix,
    n: int,
    alpha: float = 0.05,
    model: Model = Model.SUBSET_FACTOR,
    restarts: int = 1,
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

    Raises :class:`DegreesOfFreedom` unless ``n > p``,
    :class:`DimMismatch` on a negative ``seed`` or ``k_max``, and
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
    if seed < 0:
        raise DimMismatch(f"seed must be non-negative, got {seed}")
    if k_max is not None and k_max < 0:
        raise DimMismatch(f"k_max must be non-negative, got {k_max}")
    if model == Model.SUBSET_FACTOR:
        stat_fn, quant_fn, kind = stat_T, mc_quantile_subset_factor, CriterionKind.DIAG_DET
    else:
        stat_fn, quant_fn, kind = stat_Ttilde, mc_quantile_pcss, CriterionKind.ISO_LRT

    k_hi = p - 1 if k_max is None else min(int(k_max), p - 1)
    records: List[SizeTestRecord] = []
    search_s = calibrate_s = 0.0
    for k in range(0, k_hi + 1):
        perfect = False
        t0 = time.perf_counter()
        if k == 0:
            subset: IndexSet = ()
        else:
            crit = Criterion(kind=kind, p=p, k=k)
            cfg = SearchConfig(k=k, criterion=crit, restarts=restarts, seed=seed + 1000003 * k)
            result = search.swap(sigma_hat, cfg)
            subset = tuple(sorted(result.subset))
            perfect = result.objective == float("-inf")
        search_s += time.perf_counter() - t0
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
        t0 = time.perf_counter()
        critical = quant_fn(n, p, k, alpha, mc_samples, seed)
        calibrate_s += time.perf_counter() - t0
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
                search_s=search_s,
                calibrate_s=calibrate_s,
            )
    raise NoFeasibleK(
        f"all sizes k <= {k_hi} rejected at level {alpha}; "
        "raise k_max or inspect the input for numerical trouble"
    )
