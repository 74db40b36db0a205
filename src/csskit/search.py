"""Subset search: greedy forward selection, positional swapping, exhaustive.

All three return a :class:`SearchResult`.  Ties are broken toward the
lowest variable index everywhere (candidates are scored in ascending order
and the first minimum wins; exhaustive enumerates subsets
lexicographically and keeps the first best).  All three take ``(sigma,
config)``, and :class:`SearchConfig` checks the request.  Greedy and swap
check ``sigma`` by building their states with
:func:`csskit.criteria.init_state`; exhaustive, which builds none, runs
:func:`csskit.symmat.as_symmetric` itself.  An asymmetric ``sigma``
raises, since the pick would depend on which triangle is read.

The swapping search sweeps the subset positions in order; at each position
the incumbent is retracted and every outside variable (incumbent included)
is scored.  The incumbent is kept unless some candidate is strictly better
by more than ``SWAP_MARGIN * (trace(sigma) / p) ** criterion.score_degree``
(the margin in the criterion's units, so the moves do not depend on the
scale of ``sigma``), which makes sweeps terminate (the objective is
nonincreasing and cycles are impossible).  A kept incumbent keeps the
state from before its retraction instead of being added back.
Convergence is a full sweep with no accepted swap; ``max_sweeps`` caps the
effort and is reported, not an error.

Restarts run on a thread pool only where that pays: ``p >= POOL_MIN_P``,
more than one restart, and more than one worker allowed by
:func:`resolve_threads`.  Below ``POOL_MIN_P`` a move costs too little for
the workers to outrun the interpreter lock, and the serial loop is faster.
Either path gives the same result for the same seed.
"""

import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from . import criteria, symmat
from .criteria import Criterion
from .errors import DimMismatch, TooManySubsets
from .symmat import IndexSet, SymMatrix

# A candidate must beat the incumbent by this much, in units of
# (trace(sigma) / p) ** criterion.score_degree, to be swapped in.
SWAP_MARGIN = 1e-12

# Largest number of subsets exhaustive enumeration will visit.
EXHAUSTIVE_CAP = 2_000_000

# Smallest dimension at which swap runs its restarts on a thread pool, the
# measured crossover.  On a 2-core box with OpenBLAS, 10 DiagDet restarts at
# k=20 took 1.18-1.31 times the serial time on the pool at p=50-150 and 0.88
# at p=200; 4 CssTrace restarts at k=30 took 0.86-0.98 at p=200 and 0.58 at
# p=774.
POOL_MIN_P = 200


@dataclass(frozen=True)
class SearchConfig:
    """Search request: target size, criterion, and search knobs.

    ``k`` must equal ``criterion.k`` (IsoLrt takes its exponent ``p - k``
    from the criterion).  ``restarts`` and ``seed`` only matter for
    :func:`swap` (restart ``r`` draws its starting subset with seed
    ``seed + r``).
    """

    k: int
    criterion: Criterion
    restarts: int = 1
    max_sweeps: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise DimMismatch(f"k must be >= 1, got {self.k}")
        if self.k != self.criterion.k:
            raise DimMismatch(f"k={self.k} does not match the criterion's k={self.criterion.k}")
        if self.restarts < 1:
            raise DimMismatch(f"restarts must be >= 1, got {self.restarts}")
        if self.max_sweeps < 1:
            raise DimMismatch(f"max_sweeps must be >= 1, got {self.max_sweeps}")


@dataclass
class SearchResult:
    """Outcome of one search.

    ``subset`` preserves algorithmic order (insertion order for greedy,
    positional order for swap).  ``objective`` is always recomputed from
    scratch on the final subset.  ``trajectory`` records the objective
    after each accepted move (greedy: each addition; swap: the initial
    subset and then each accepted swap).  Greedy's prefix ``subset[:j]`` is
    its pick of size j.  ``sweeps_used`` (swap only) counts the sweeps
    actually run.
    """

    subset: IndexSet
    objective: float
    trajectory: List[float] = field(default_factory=list)
    sweeps_used: Optional[int] = None


def resolve_threads() -> int:
    """Worker cap: CSSKIT_THREADS, else the cpu count."""
    env = os.environ.get("CSSKIT_THREADS")
    if env:
        try:
            val = int(env)
        except ValueError as exc:
            raise DimMismatch(f"CSSKIT_THREADS is not an integer: {env!r}") from exc
        if val < 1:
            raise DimMismatch(f"CSSKIT_THREADS must be >= 1, got {val}")
        return val
    return os.cpu_count() or 1


def greedy(sigma: SymMatrix, config: SearchConfig) -> SearchResult:
    """Greedy forward selection: k successive argmin-score additions.

    Deterministic.  The subset is in insertion order, so its prefixes are
    the nested picks of every smaller size.
    """
    crit = config.criterion
    state = criteria.init_state(crit, sigma)
    sigma = state.sigma
    trajectory: List[float] = []
    for _ in range(config.k):
        cands, scores = criteria.score_all(crit, state)
        a = int(np.argmin(scores))
        state = criteria.advance(crit, state, sigma, int(cands[a]))
        trajectory.append(criteria.objective_from_state(crit, state))
    objective = criteria.evaluate(crit, sigma, state.subset)
    return SearchResult(state.subset, objective, trajectory)


def _swap_once(
    sigma: SymMatrix,
    config: SearchConfig,
    init: Sequence[int],
    decisions: Optional[list] = None,
) -> SearchResult:
    """One swapping run from an explicit starting subset."""
    crit = config.criterion
    state = criteria.state_from_subset(crit, sigma, init)
    sigma = state.sigma
    current = list(state.subset)
    k = config.k
    unit = max(float(np.trace(sigma)), 0.0) / sigma.shape[0]
    margin = SWAP_MARGIN * unit**crit.score_degree
    trajectory = [criteria.objective_from_state(crit, state)]
    sweeps = 0
    for _ in range(config.max_sweeps):
        sweeps += 1
        changed = False
        for j in range(k):
            var = current[j]
            state_u = criteria.retract(crit, state, sigma, state.subset.index(var))
            cands, scores = criteria.score_all(crit, state_u)
            a = int(np.argmin(scores))
            incumbent_pos = int(np.searchsorted(cands, var))
            pick = var
            if int(cands[a]) != var and scores[a] < scores[incumbent_pos] - margin:
                pick = int(cands[a])
            if decisions is not None:
                decisions.append(
                    (tuple(current[:j] + current[j + 1 :]), var, pick, cands.copy(), scores.copy())
                )
            if pick != var:
                state = criteria.advance(crit, state_u, sigma, pick)
                current[j] = pick
                changed = True
                trajectory.append(criteria.objective_from_state(crit, state))
        if not changed:
            break
        if trajectory[-1] == float("-inf"):
            break  # perfect fit: nothing left to improve
    objective = criteria.evaluate(crit, sigma, tuple(current))
    return SearchResult(tuple(current), objective, trajectory, sweeps)


def swap(
    sigma: SymMatrix,
    config: SearchConfig,
    init: Optional[Sequence[int]] = None,
    decisions: Optional[list] = None,
) -> SearchResult:
    """Positional swapping search with random restarts.

    When ``init`` is given, a single run starts there; otherwise restart
    ``r = 0..restarts-1`` draws a uniform size-k subset using seed
    ``config.seed + r`` and the best final objective wins (ties to the
    lowest restart index).  Restarts run on a thread pool when ``p >=
    POOL_MIN_P`` and :func:`resolve_threads` allows more than one worker;
    the reduction is deterministic regardless of completion order.

    ``decisions``, if provided, collects one tuple per position decision
    ``(kept_subset, incumbent, picked, candidates, scores)`` for the
    single-run form; intended for diagnostics and tests.
    """
    p = config.criterion.p
    if init is not None:
        if len(init) != config.k:
            raise DimMismatch(f"init has size {len(init)}, expected k={config.k}")
        return _swap_once(sigma, config, init, decisions)

    def run(r: int) -> SearchResult:
        rng = np.random.default_rng(config.seed + r)
        start = tuple(sorted(rng.choice(p, size=config.k, replace=False).tolist()))
        return _swap_once(sigma, config, start, decisions)

    n_workers = min(resolve_threads(), config.restarts)
    if p >= POOL_MIN_P and n_workers > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            outcomes = list(pool.map(run, range(config.restarts)))
    else:
        outcomes = [run(r) for r in range(config.restarts)]

    return min(outcomes, key=lambda res: res.objective)  # first minimum


def exhaustive(sigma: SymMatrix, config: SearchConfig) -> SearchResult:
    """Exact minimizer by enumeration, lexicographic tie-break.

    Raises :class:`TooManySubsets` when ``C(p, k)`` exceeds
    ``EXHAUSTIVE_CAP`` (2e6).  The shape of ``sigma`` is checked by
    ``evaluate``, its symmetry once here.
    """
    sigma = symmat.as_symmetric(sigma)
    crit, k = config.criterion, config.k
    p = crit.p
    total = math.comb(p, k)
    if total > EXHAUSTIVE_CAP:
        raise TooManySubsets(f"C({p},{k}) = {total} exceeds cap {EXHAUSTIVE_CAP}")
    best_sub: Optional[IndexSet] = None
    best_val = math.inf
    for comb in itertools.combinations(range(p), k):
        val = criteria.evaluate(crit, sigma, comb)
        if val < best_val:
            best_val = val
            best_sub = comb
    return SearchResult(best_sub, best_val, [best_val])
