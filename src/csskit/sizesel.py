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

Both are nonnegative (Hadamard / AM-GM).  By the Schur identity ``det S =
det S_U * det R`` each is the search's own objective shifted by a
constant: ``stat_T = n * (DiagDet(U) - log det S)`` and ``stat_Ttilde = n *
(IsoLrt(U) - log det S)`` (:func:`csskit.criteria.evaluate`, IsoLrt with
exponent p - k).  So the subset the search picks is the one whose statistic
is least, and :func:`choose_k` reads each size's statistic from the
objective its search returns, with ``log det S`` taken once per walk
(:func:`csskit.symmat.log_det`).  The conventions live in one place: the
statistic is 0 when one variable is left out (m = 1) and when the objective
is ``-inf`` (a perfect fit by the unit-free rule
:func:`csskit.symmat.adds_rank`: some, for IsoLrt every, non-selected
variable adds no rank to ``U``, or ``S_U`` is singular), and ``+inf`` when
only ``S`` is singular (honest rejection: the residual is singular but not
of the model's form).

Null critical values are exact: both null laws are laws of logarithms of
products of independent Beta (Dirichlet) variables, so their
characteristic functions are products of gamma-function ratios, and one
Gil-Pelaez inversion gives each quantile (:func:`null_quantile_subset_factor`,
:func:`null_quantile_pcss`).  They depend on (n, p, k, alpha) only: not on
a seed, not on a sample count.  The Monte Carlo draws of the same laws
(:func:`null_draws_subset_factor`, :func:`null_draws_pcss`) and their
quantiles (:func:`mc_quantile_subset_factor`, :func:`mc_quantile_pcss`)
stay as the oracle the exact values are tested against.  The null law
requires ``n > p`` complete rows, and so a nonsingular ``S``.

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

from . import criteria, search, symmat
from .criteria import Criterion, CriterionKind
from .errors import DegreesOfFreedom, DimMismatch, NoFeasibleK
from .search import SearchConfig
from .symmat import RANK_TOL, IndexSet, SymMatrix


class Model(str, Enum):
    SUBSET_FACTOR = "subset-factor"
    PCSS = "pcss"


@dataclass
class SizeTestRecord:
    """One row of the size-selection walk.  ``search_s`` and ``calibrate_s``
    are the wall seconds this size spent in subset search and in its
    critical value; like the report's, they stay out of the JSON."""

    k: int
    subset: IndexSet
    statistic: float
    critical_value: float
    reject: bool
    perfect_fit: bool = False
    search_s: float = field(default=0.0, compare=False)
    calibrate_s: float = field(default=0.0, compare=False)


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


def _statistic(n: int, m: int, objective: float, log_det_sigma: float) -> float:
    """The statistic of a size-k subset, m = p - k, from its objective
    under the model's criterion and ``log det(sigma_hat)``: the one place
    of its conventions.  0 when m = 1, where no structure is left to test
    (the shift would read roundoff), and on a perfect fit (objective
    ``-inf``); otherwise ``n * (objective - log det sigma_hat)``, which is
    ``+inf`` when only ``sigma_hat`` is singular."""
    if m == 1 or objective == float("-inf"):
        return 0.0
    return float(n * (objective - log_det_sigma))


def _objective(sigma_hat: np.ndarray, subset: IndexSet, kind: CriterionKind) -> float:
    """DiagDet or IsoLrt of ``subset`` with IsoLrt's exponent p - k:
    :func:`csskit.criteria.evaluate`, or for the empty subset, which no
    :class:`Criterion` describes, its readout of ``R = sigma_hat``."""
    p, k = len(sigma_hat), len(subset)
    if k:
        return criteria.evaluate(Criterion(kind, p=p, k=k), sigma_hat, subset)
    var = sigma_hat.diagonal()[None]
    return float(criteria._readout_rows(kind, p, var, var, np.zeros(1))[0])


def _stat_core(sigma_hat, n, subset, kind: CriterionKind) -> float:
    sigma_hat = np.asarray(sigma_hat, dtype=float)
    p = symmat.check_square(sigma_hat)
    u = symmat.check_subset(p, subset)
    if len(u) >= p:
        raise DimMismatch("subset must leave at least one variable out")
    if symmat.as_index(n, "n") < 1:
        raise DimMismatch(f"n must be positive, got {n}")
    return _statistic(n, p - len(u), _objective(sigma_hat, u, kind), symmat.log_det(sigma_hat))


def stat_T(sigma_hat: SymMatrix, n: int, subset: Sequence[int]) -> float:
    """Diagonality statistic ``n log(det(Diag R)/det R)`` for the residual
    of the non-selected block, read as ``n * (DiagDet(S) - log det
    sigma_hat)``.  ``subset`` may be empty (tests k = 0)."""
    return _stat_core(sigma_hat, n, subset, CriterionKind.DIAG_DET)


def stat_Ttilde(sigma_hat: SymMatrix, n: int, subset: Sequence[int]) -> float:
    """Isotropy statistic ``n log((trace(R)/m)^m / det R)``, m = p - k,
    read as ``n * (IsoLrt(S) - log det sigma_hat)``."""
    return _stat_core(sigma_hat, n, subset, CriterionKind.ISO_LRT)


# ---------------------------------------------------------------------------
# Exact critical values
# ---------------------------------------------------------------------------
#
# Both null laws are laws of X = shift - n log P, P a product of powers of
# Beta or Dirichlet variables, so the cumulant generating function of X is a
# sum of log-gamma ratios,
#
#     K(z) = log E exp(z X) = shift z + sum_i w_i [lgamma(a_i - g_i z) - lgamma(a_i)],
#
# finite for real z < min a_i / g_i; K(it) is the log characteristic
# function.  With m = p - k:
#
# * subset factor: X = -n sum_{j=2..m} log B_j, B_j ~ Beta(c - (j-1)/2,
#   (j-1)/2), c = (n - k - 1)/2: terms a = c - (j-1)/2 (g = n, w = 1) and
#   a = c (g = n, w = 1 - m);
# * PCSS: X = -n m log m - n sum_{j=1..m} log D_j, D ~ Dirichlet(a_1, ...,
#   a_m, m(m-1)/4), a_j = (n - k - j)/2: terms a_j (g = n, w = 1) and
#   A = sum_j a_j + m(m-1)/4 (g = n m, w = -1).  (Stick-breaking writes the
#   same law as a sum of independent log B_j + (m - j) log(1 - B_j).)
#
# The CDF comes from the Gil-Pelaez formula by the midpoint rule at nodes
# t = (j + 1/2) h (Davies 1973): F(x) is exact up to the mass of X outside
# (x - 2 pi/h, x + 2 pi/h).  X >= 0, so a window 2 pi/h beyond the Chernoff
# bound P(X > y) <= exp(K(s) - s y) leaves an error below exp(-_TAIL) at
# every x in the window.  With few terms the density is singular at 0 and
# the characteristic function decays only like t^(-m(m-1)/4), so every law
# is smoothed by Gaussians of variances v, 2v, ..., _RICHARDSON v and
# extrapolated to variance 0 (Richardson): the characteristic function is
# multiplied by 1 - (1 - exp(-v t^2 / 2))^_RICHARDSON, and the sum stops
# where that product falls below _TOL.  sqrt(v) is _DAMP times the law's
# standard deviation or, when the quantile lies within 2.5 standard
# deviations of the singular point 0, _DAMP times a third of the quantile.
# Newton steps on the CDF, kept inside a shrinking bracket, find the
# quantile.  Nothing here calls BLAS or keeps a cache: every value costs
# the same in every process, and no thread count changes it.

_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156, -3617 / 122400)
_HALF_LOG_2PI = 0.5 * math.log(2 * math.pi)
_RICHARDSON = 6
_DAMP = 0.1
_TAIL = 30.0
_TOL = 1e-15


def _log_gamma(z) -> np.ndarray:
    """Principal branch of log Gamma(z) for Re z > 0: the recurrence
    lgamma(z) = lgamma(z + 8) - sum_{i<8} log(z + i) moves |z| < 8 out to
    where the Stirling series, to its eighth term, is exact in double
    precision."""
    z = np.asarray(z, dtype=complex)
    w = z.copy()
    shift = np.zeros_like(z)
    near = np.abs(z) < 8
    if near.any():
        zn = z[near]
        shift[near] = sum(np.log(zn + i) for i in range(8))
        w[near] = zn + 8
    r2 = 1 / (w * w)
    series = np.full_like(w, _STIRLING[-1])
    for c in _STIRLING[-2::-1]:
        series = series * r2 + c
    return (w - 0.5) * np.log(w) - w + _HALF_LOG_2PI + series / w - shift


def _exact_quantile(a, g, w, shift: float, prob: float) -> float:
    """The ``prob``-quantile of the law whose cumulant generating function
    is ``shift z + sum w (lgamma(a - g z) - lgamma(a))`` (see above)."""
    base = _log_gamma(a).real

    def cgf(z):
        z = np.asarray(z, dtype=complex)
        return shift * z + ((_log_gamma(a - np.multiply.outer(z, g)) - base) * w).sum(axis=-1)

    s_max = float(np.min(a / g))
    s = s_max / (1 + np.exp(-np.linspace(-10.0, 14.0, 49)))
    y_hi = float(np.min((cgf(s).real + _TAIL) / s))
    d = s_max / 10
    up, down = cgf([d, -d]).real
    scale = math.sqrt(up + down) / d  # the standard deviation
    x = min((up - down) / (2 * d) + 2 * scale, y_hi)
    # smooth on a scale finer than both the spread and the distance to 0,
    # where the density of a law with few terms is singular
    while True:
        x = _invert(cgf, y_hi, (_DAMP * scale) ** 2, prob, x)
        if scale <= 0.4 * x:
            return x
        scale = x / 3


def _invert(cgf, y_hi: float, v: float, prob: float, x: float) -> float:
    """Newton from ``x`` on the CDF smoothed at variances v, ..., _RICHARDSON v
    and extrapolated to 0, on the window [0, y_hi]."""

    def damped_cf(t):
        return np.exp(cgf(1j * t)) * (1 - (-np.expm1(-0.5 * v * t * t)) ** _RICHARDSON)

    h = 2 * math.pi / (y_hi + 10 * math.sqrt(_RICHARDSON * v))
    coarse = math.sqrt(2 * math.log(_RICHARDSON / _TOL) / v) * np.geomspace(1e-6, 1.0, 61)
    live = np.nonzero(np.abs(damped_cf(coarse)) >= _TOL)[0]
    t_cut = coarse[min(live[-1] + 1, coarse.size - 1)]
    j = np.arange(math.ceil(t_cut / h)) + 0.5
    t = j * h
    cf = damped_cf(t)
    cdf_w = cf / (math.pi * j)
    pdf_w = cf * (h / math.pi)
    lo, hi = 0.0, y_hi
    for _ in range(100):
        e = np.exp(-1j * x * t)
        miss = 0.5 - float(np.sum(e * cdf_w).imag) - prob
        density = float(np.sum(e * pdf_w).real)
        if miss > 0:
            hi = x
        else:
            lo = x
        step = miss / density if density > 0 else math.inf
        if abs(step) <= 1e-13 * x:
            return x - step
        x = x - step if lo < x - step < hi else 0.5 * (lo + hi)
    return x


def _check_size(n: int, p: int, k: int):
    symmat.as_index(n, "n")
    if not 0 <= k <= p - 1:
        raise DimMismatch(f"k={k} out of range for p={p}")
    if n <= p:
        raise DegreesOfFreedom(f"null law needs n > p (got n={n}, p={p})")


def _check_level(alpha: float):
    # above 1/2 the quantile of a law with few terms nears the singular
    # point 0, where the smoothing would have to shrink without bound
    if not 0 < alpha <= 0.5:
        raise DimMismatch(f"alpha must be in (0, 0.5], got {alpha}")


def null_quantile_subset_factor(n: int, p: int, k: int, alpha: float) -> float:
    """Exact (1 - alpha)-quantile of the null law of ``stat_T`` at a correct
    size-k subset, ``-n sum_{j=2}^{p-k} log B_j`` with independent
    ``B_j ~ Beta((n-k-j)/2, (j-1)/2)``.  0 when k = p - 1.  Levels above
    1/2 raise :class:`DimMismatch`."""
    _check_level(alpha)
    _check_size(n, p, k)
    m = p - k
    if m == 1:
        return 0.0
    c = (n - k - 1) / 2
    a = np.append(c - np.arange(1, m) / 2, c)
    w = np.append(np.ones(m - 1), 1.0 - m)
    return _exact_quantile(a, np.full(m, float(n)), w, 0.0, 1.0 - alpha)


def null_quantile_pcss(n: int, p: int, k: int, alpha: float) -> float:
    """Exact (1 - alpha)-quantile of the null law of ``stat_Ttilde`` at a
    correct size-k subset, ``-n (m log m + sum_j log D_j)`` with m = p - k
    and ``D ~ Dirichlet((n-k-1)/2, ..., (n-k-m)/2, m(m-1)/4)``.  0 when
    k = p - 1.  Levels above 1/2 raise :class:`DimMismatch`."""
    _check_level(alpha)
    _check_size(n, p, k)
    m = p - k
    if m == 1:
        return 0.0
    a = (n - k - np.arange(1, m + 1)) / 2
    a = np.append(a, a.sum() + m * (m - 1) / 4)
    g = np.append(np.full(m, float(n)), float(n * m))
    w = np.append(np.ones(m), -1.0)
    return _exact_quantile(a, g, w, -n * m * math.log(m), 1.0 - alpha)


# ---------------------------------------------------------------------------
# Monte Carlo null draws, the oracle for the exact laws
# ---------------------------------------------------------------------------
#
# Both null laws are built from chi-square columns of mc_samples draws.  A
# column is a stream of its own, keyed by its family and degrees of freedom
# (generator ``default_rng([seed, family, df])``), so every size k of one
# ``(n, p, mc_samples, seed)`` reads the same columns: independent within
# each k, common random numbers across k.

_NUMERATOR, _DENOMINATOR, _PCSS_EXTRA = 0, 1, 2  # column families


def _column(mc_samples: int, seed: int, family: int, df: int) -> np.ndarray:
    """The chi-square column ``df`` of one family (chi2_df = 2 Gamma(df/2))."""
    return 2 * np.random.default_rng([seed, family, df]).standard_gamma(df / 2, mc_samples)


def _check_draw_args(n: int, p: int, k: int, seed: int):
    if seed < 0:
        raise DimMismatch(f"seed must be non-negative, got {seed}")
    _check_size(n, p, k)


def null_draws_subset_factor(n: int, p: int, k: int, mc_samples: int, seed: int) -> np.ndarray:
    """Draws from the null law of ``stat_T`` at a correct size-k subset:
    ``n * sum_{j=2}^{p-k} log(1 + chi2_{j-1} / chi2_{n-k-j})``, the
    chi-square columns independent within each k and shared across k
    (common random numbers).  Degenerate at 0 when k = p - 1."""
    _check_draw_args(n, p, k, seed)
    total = np.zeros(mc_samples)
    for d in range(1, p - k):
        num = _column(mc_samples, seed, _NUMERATOR, d)
        total += np.log1p(num / _column(mc_samples, seed, _DENOMINATOR, n - k - 1 - d))
    return n * total


def null_draws_pcss(n: int, p: int, k: int, mc_samples: int, seed: int) -> np.ndarray:
    """Draws from the null law of ``stat_Ttilde`` at a correct size-k subset:

        n * log( ((chi2_{m(m-1)/2} + sum_j chi2_{n-k-j}) / m)^m
                 / prod_{j=1}^m chi2_{n-k-j} ),   m = p - k,

    the chi-square columns independent within each k and the
    ``chi2_{n-k-j}`` shared across k (common random numbers).  Degenerate
    at 0 when k = p - 1."""
    _check_draw_args(n, p, k, seed)
    m = p - k
    if m == 1:
        return np.zeros(mc_samples)
    total = log_total = 0.0
    for df in range(n - p, n - k):
        col = _column(mc_samples, seed, _DENOMINATOR, df)
        total = total + col
        log_total = log_total + np.log(col)
    extra = _column(mc_samples, seed, _PCSS_EXTRA, m * (m - 1) // 2)
    return n * (m * np.log((extra + total) / m) - log_total)


def _check_mc_args(alpha: float, mc_samples: int):
    if not 0 < alpha < 1:
        raise DimMismatch(f"alpha must be in (0, 1), got {alpha}")
    if mc_samples < 1000:
        raise DimMismatch(f"mc_samples must be >= 1000, got {mc_samples}")


@functools.lru_cache(maxsize=None)
def mc_quantile_subset_factor(
    n: int, p: int, k: int, alpha: float, mc_samples: int, seed: int
) -> float:
    """(1 - alpha)-quantile, as ``np.quantile`` takes it, of
    :func:`null_draws_subset_factor`: the Monte Carlo counterpart of
    :func:`null_quantile_subset_factor`, cached per size."""
    _check_mc_args(alpha, mc_samples)
    return float(np.quantile(null_draws_subset_factor(n, p, k, mc_samples, seed), 1.0 - alpha))


@functools.lru_cache(maxsize=None)
def mc_quantile_pcss(
    n: int, p: int, k: int, alpha: float, mc_samples: int, seed: int
) -> float:
    """(1 - alpha)-quantile of :func:`null_draws_pcss`, cached per size: the
    Monte Carlo counterpart of :func:`null_quantile_pcss`."""
    _check_mc_args(alpha, mc_samples)
    return float(np.quantile(null_draws_pcss(n, p, k, mc_samples, seed), 1.0 - alpha))


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
    statistic is compared to the exact critical value at level ``alpha``
    (:func:`null_quantile_subset_factor` / :func:`null_quantile_pcss`), and
    the walk stops at the first non-rejection.  Search seeds are derived per
    size (:func:`csskit.search.size_seed` plus the restart offset) so runs
    are reproducible end to end.  ``mc_samples`` no longer enters the result:
    it is checked and recorded in the report, whose schema keeps the field.

    Each size's statistic is ``n * (objective - log det sigma_hat)``, the
    objective the search returned (at k = 0, the empty subset's), with
    ``log det sigma_hat`` taken once (:func:`csskit.symmat.log_det`).  A
    ``-inf`` objective means the subset fits the residual structure
    perfectly; the statistic is then 0 by the both-determinants-vanish
    convention and the record is flagged ``perfect_fit``.  A singular
    ``sigma_hat`` draws a ``RuntimeWarning`` before the walk: every size
    without a perfect fit then reads ``+inf`` and is rejected, and the null
    law assumes a nonsingular ``sigma_hat`` from n complete rows.

    Raises :class:`DegreesOfFreedom` unless ``n > p``, :class:`NotPSD`
    when ``sigma_hat`` is indefinite (:func:`csskit.symmat.log_det`),
    :class:`DimMismatch` on an ``n``, ``restarts``, ``seed`` or ``k_max``
    that is not an integer (:func:`csskit.symmat.as_index`), on a negative
    ``seed`` or ``k_max``, on ``restarts < 1``, on ``mc_samples < 1000``
    or on ``alpha`` outside (0, 1/2], and :class:`NoFeasibleK` only when a user-imposed
    ``k_max`` cuts the walk short of ``p - 1`` (at k = p - 1 the statistic
    is identically 0).
    """
    model = Model(model)
    sigma_hat = np.asarray(sigma_hat, dtype=float)
    p = symmat.check_square(sigma_hat)
    if symmat.as_index(n, "n") <= p:
        raise DegreesOfFreedom(f"size selection needs n > p (got n={n}, p={p})")
    restarts, seed = symmat.as_index(restarts, "restarts"), symmat.as_index(seed, "seed")
    if seed < 0:
        raise DimMismatch(f"seed must be non-negative, got {seed}")
    if restarts < 1:
        raise DimMismatch(f"restarts must be >= 1, got {restarts}")
    if k_max is not None and symmat.as_index(k_max, "k_max") < 0:
        raise DimMismatch(f"k_max must be non-negative, got {k_max}")
    _check_level(alpha)
    _check_mc_args(alpha, mc_samples)
    if model == Model.SUBSET_FACTOR:
        quant_fn, kind = null_quantile_subset_factor, CriterionKind.DIAG_DET
    else:
        quant_fn, kind = null_quantile_pcss, CriterionKind.ISO_LRT
    log_det_sigma = symmat.log_det(sigma_hat)
    if log_det_sigma == float("-inf"):
        warnings.warn("sigma_hat is singular: every size without a perfect fit reads statistic +inf and is "
                      "rejected; the null law assumes a nonsingular sigma_hat from n complete rows",
                      RuntimeWarning, stacklevel=2)

    k_hi = p - 1 if k_max is None else min(k_max, p - 1)
    records: List[SizeTestRecord] = []
    for k in range(0, k_hi + 1):
        t0 = time.perf_counter()
        if k == 0:
            subset, objective = (), _objective(sigma_hat, (), kind)
        else:
            crit = Criterion(kind=kind, p=p, k=k)
            cfg = SearchConfig(k=k, criterion=crit, restarts=restarts, seed=search.size_seed(seed, k))
            result = search.swap(sigma_hat, cfg)
            subset, objective = tuple(sorted(result.subset)), result.objective
        searched = time.perf_counter() - t0
        perfect = objective == float("-inf")
        if perfect:
            warnings.warn(f"perfect fit at k={k}: subset {subset} leaves a singular residual; "
                          "statistic taken as 0", RuntimeWarning, stacklevel=2)
        statistic = _statistic(n, p - k, objective, log_det_sigma)
        t0 = time.perf_counter()
        critical = quant_fn(n, p, k, alpha)
        calibrated = time.perf_counter() - t0
        rej = bool(statistic > critical)
        records.append(
            SizeTestRecord(k, subset, statistic, critical, rej, perfect, searched, calibrated)
        )
        if not rej:
            return SizeSelectionReport(
                records=records,
                chosen_k=k,
                chosen_subset=subset,
                alpha=alpha,
                model=model,
                mc_samples=mc_samples,
                seed=seed,
                search_s=sum(r.search_s for r in records),
                calibrate_s=sum(r.calibrate_s for r in records),
            )
    raise NoFeasibleK(
        f"all sizes k <= {k_hi} rejected at level {alpha}; "
        "raise k_max or inspect the input for numerical trouble"
    )
