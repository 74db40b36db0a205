"""Output checks computed apart from the program, with numpy alone.

Every check raises :class:`CheckFailed` with a message naming what was
wrong.  None of them calls into ``csskit``: objectives are recomputed from
blocks of the input with ``np.linalg.solve``/``slogdet``/``eigvals``, or
follow from a property the method must have (monotone trajectories, nested
greedy prefixes, local optimality of a converged swap).
"""

import hashlib
from typing import Sequence

import numpy as np

# Relative agreement required between a reported and a recomputed value.
RTOL = 1e-7


class CheckFailed(AssertionError):
    """An output of the program disagrees with its independent check."""


def _close(got: float, want: float, scale: float, what: str, rtol: float = RTOL):
    if not abs(got - want) <= rtol * max(abs(scale), abs(want), 1e-300):
        raise CheckFailed(f"{what}: reported {got!r}, recomputed {want!r}")


def _others(p: int, subset: Sequence[int]) -> np.ndarray:
    mask = np.ones(p, dtype=bool)
    mask[list(subset)] = False
    return np.flatnonzero(mask)


def css_objective(sigma: np.ndarray, subset: Sequence[int]) -> float:
    """``trace(sigma) - trace(sigma_{:,S} sigma_S^{-1} sigma_{S,:})``."""
    s = list(subset)
    if not s:
        return float(np.trace(sigma))
    rows = sigma[s, :]
    return float(np.trace(sigma) - np.sum(rows * np.linalg.solve(sigma[np.ix_(s, s)], rows)))


def avg_r2(sigma: np.ndarray, subset: Sequence[int]) -> float:
    """Average explained variance ``1 - CssTrace(S) / trace(sigma)``."""
    return 1.0 - css_objective(sigma, subset) / float(np.trace(sigma))


def cc_sum(sigma: np.ndarray, subset: Sequence[int]) -> float:
    """Sum of squared canonical correlations between ``S`` and the rest,
    from the eigenvalues of ``Σ_S⁻¹ Σ_{S,−S} Σ_{−S}⁻¹ Σ_{−S,S}``."""
    s = list(subset)
    rest = _others(sigma.shape[0], s)
    cross = sigma[np.ix_(s, rest)]
    m = np.linalg.solve(sigma[np.ix_(s, s)], cross @ np.linalg.solve(sigma[np.ix_(rest, rest)], cross.T))
    return float(np.sum(np.linalg.eigvals(m).real))


def stat_t(sigma: np.ndarray, n: int, subset: Sequence[int]) -> float:
    """``n (sum log diag R - log det R)`` for the residual block ``R`` of the
    non-selected variables given ``subset``."""
    s = list(subset)
    rest = _others(sigma.shape[0], s)
    r = sigma[np.ix_(rest, rest)]
    if s:
        cross = sigma[np.ix_(s, rest)]
        r = r - cross.T @ np.linalg.solve(sigma[np.ix_(s, s)], cross)
    sign, logdet = np.linalg.slogdet(r)
    if sign <= 0:
        raise CheckFailed(f"residual block for subset {s} is not positive definite")
    return float(n * (np.sum(np.log(np.diag(r))) - logdet))


def pairwise_psd(x: np.ndarray) -> np.ndarray:
    """Pairwise-complete covariance (divisor: pair overlap count, means over
    each column's observed rows) projected to the PSD cone by clamping
    negative eigenvalues."""
    seen = ~np.isnan(x)
    means = np.array([x[seen[:, j], j].mean() for j in range(x.shape[1])])
    xc = np.where(seen, x - means, 0.0)
    counts = seen.T.astype(float) @ seen.astype(float)
    psi = (xc.T @ xc) / counts
    psi = (psi + psi.T) / 2.0
    w, v = np.linalg.eigh(psi)
    out = (v * np.maximum(w, 0.0)) @ v.T
    return (out + out.T) / 2.0


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ---------------------------------------------------------------------------
# Per-workload checks
# ---------------------------------------------------------------------------


def check_css_greedy(sigma: np.ndarray, subset: Sequence[int], objective: float):
    """Greedy CssTrace: objective from blocks, first pick is the direct
    argmax of ``||Σ_{:,j}||² / Σ_jj``."""
    _close(objective, css_objective(sigma, subset), np.trace(sigma), "greedy objective")
    gain = np.sum(sigma * sigma, axis=0) / np.diag(sigma)
    best = float(gain.max())
    if gain[subset[0]] < best - 1e-12 * best:
        raise CheckFailed(
            f"greedy first pick {subset[0]} has gain {gain[subset[0]]!r}, "
            f"argmax {int(gain.argmax())} has {best!r}"
        )


def check_css_swap(
    sigma: np.ndarray,
    subset: Sequence[int],
    objective: float,
    trajectory: Sequence[float],
    rng: np.random.Generator,
    exchanges: int,
):
    """Swap CssTrace: objective from blocks, a non-increasing trajectory,
    and no improving single exchange among ``exchanges`` sampled ones."""
    tr = float(np.trace(sigma))
    _close(objective, css_objective(sigma, subset), tr, "swap objective")
    steps = np.diff(np.asarray(trajectory, dtype=float))
    if steps.size and float(steps.max()) > RTOL * tr:
        raise CheckFailed(f"swap trajectory increases by {float(steps.max())!r}")
    s = list(subset)
    rest = _others(sigma.shape[0], s)
    for _ in range(exchanges):
        pos = int(rng.integers(len(s)))
        moved = s[:pos] + [int(rest[rng.integers(rest.size)])] + s[pos + 1 :]
        value = css_objective(sigma, moved)
        if value < objective - RTOL * tr:
            raise CheckFailed(
                f"exchange at position {pos} gives {moved} with objective "
                f"{value!r} < reported {objective!r}"
            )


def check_cc(sigma: np.ndarray, subset: Sequence[int], objective: float):
    """CanonCorr: ``cc_sum`` from eigenvalues matches ``-objective`` and lies
    in ``[0, k]``."""
    value = cc_sum(sigma, subset)
    _close(-objective, value, len(subset), "cc_sum")
    if not -RTOL <= value <= len(subset) * (1 + RTOL):
        raise CheckFailed(f"cc_sum {value!r} outside [0, {len(subset)}]")


def check_choose_k(sigma: np.ndarray, n: int, report):
    """Size selection: statistics from ``slogdet``, the reject flag and the
    stopping rule, strictly decreasing critical values.

    Whether the chosen subset holds the planted one, and whether the chosen
    k lies near the planted size, holds only across trials (the swap search
    can stop in a local optimum), so those are reported as metrics, not
    checked per trial.
    """
    recs = report.records
    if [r.k for r in recs] != list(range(len(recs))):
        raise CheckFailed(f"walk is not k = 0, 1, ...: {[r.k for r in recs]}")
    if recs[-1].k != report.chosen_k or tuple(recs[-1].subset) != tuple(report.chosen_subset):
        raise CheckFailed("chosen k/subset is not the last record's")
    for r in recs:
        if len(r.subset) != r.k:
            raise CheckFailed(f"record k={r.k} has a subset of size {len(r.subset)}")
        _close(r.statistic, stat_t(sigma, n, r.subset), 1.0, f"statistic at k={r.k}", rtol=1e-6)
        if r.reject != (r.statistic > r.critical_value):
            raise CheckFailed(f"reject flag wrong at k={r.k}")
    if not all(r.reject for r in recs[:-1]) or recs[-1].reject:
        raise CheckFailed("walk does not stop at the first non-rejection")
    crit = [r.critical_value for r in recs]
    if any(b >= a for a, b in zip(crit, crit[1:])):
        raise CheckFailed(f"critical values do not strictly decrease: {crit}")


def check_select_rows(sigma_hat: np.ndarray, rows: Sequence[tuple]):
    """``csskit select --data --method greedy --k-range``: nested subsets and
    non-increasing objectives, then every row's objective and avg_r2
    against an independent estimate."""
    for (k0, obj0, _, sub0), (k1, obj1, _, sub1) in zip(rows, rows[1:]):
        if tuple(sub1[: len(sub0)]) != tuple(sub0):
            raise CheckFailed(f"subset at k={k1} does not extend the one at k={k0}")
        if obj1 > obj0 + RTOL * abs(obj0):
            raise CheckFailed(f"objective increases from k={k0} to k={k1}")
    tr = float(np.trace(sigma_hat))
    for k, objective, r2, subset in rows:
        if len(subset) != k:
            raise CheckFailed(f"row k={k} has a subset of size {len(subset)}")
        want = css_objective(sigma_hat, subset)
        _close(objective, want, tr, f"objective at k={k}", rtol=1e-6)
        _close(r2, 1.0 - want / tr, 1.0, f"avg_r2 at k={k}", rtol=1e-6)
