"""Subset search: greedy forward selection, positional swapping, exhaustive.

All three return a :class:`SearchResult`.  Ties are broken toward the
lowest variable index everywhere (candidates are scored in ascending order
and the first minimum wins; exhaustive enumerates subsets
lexicographically and keeps the first best).

The swapping search sweeps the subset positions in order; at each position
the incumbent is retracted and every outside variable (incumbent included)
is scored.  The incumbent is kept unless some candidate is strictly better
by more than ``SWAP_MARGIN * (trace(sigma) / p) ** criterion.score_degree``
(the margin in the criterion's units, so the moves do not depend on the
scale of ``sigma``), which makes sweeps terminate (the objective is
nonincreasing and cycles are impossible).  Convergence is a full sweep
with no accepted swap; ``max_sweeps`` caps the effort and is reported, not
an error.
"""

import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import criteria, symmat
from .criteria import Criterion, SubsetState
from .errors import DimMismatch, KTooLarge, TooManySubsets
from .symmat import IndexSet, SymMatrix

# A candidate must beat the incumbent by this much, in units of
# (trace(sigma) / p) ** criterion.score_degree, to be swapped in.
SWAP_MARGIN = 1e-12

# Default cap on exhaustive enumeration.
EXHAUSTIVE_CAP = 2_000_000


@dataclass(frozen=True)
class SearchConfig:
    """Search request: target size, criterion, and search knobs.

    ``restarts`` and ``seed`` only matter for :func:`swap` (restart ``r``
    draws its starting subset with seed ``seed + r``).  ``objective_floor``
    enables early exit as soon as the running objective reaches the floor.
    """

    k: int
    criterion: Criterion
    restarts: int = 1
    max_sweeps: int = 100
    seed: int = 0
    objective_floor: Optional[float] = None

    def __post_init__(self):
        if self.k < 1:
            raise DimMismatch(f"k must be >= 1, got {self.k}")
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
    subset and then each accepted swap).  ``nested_subsets`` (greedy only)
    holds the prefix subsets of sizes 1..k; ``sweeps_used`` (swap only)
    counts the sweeps actually run.
    """

    subset: IndexSet
    objective: float
    trajectory: List[float] = field(default_factory=list)
    nested_subsets: Optional[List[IndexSet]] = None
    sweeps_used: Optional[int] = None


def resolve_threads(threads: Optional[int] = None) -> int:
    """Worker count: explicit argument, else CSSKIT_THREADS, else cpu count."""
    if threads is not None:
        if threads < 1:
            raise DimMismatch(f"threads must be >= 1, got {threads}")
        return int(threads)
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


def _check_problem(sigma: SymMatrix, config: SearchConfig) -> np.ndarray:
    sigma = np.asarray(sigma, dtype=float)
    p = sigma.shape[0] if sigma.ndim == 2 else -1
    if sigma.ndim != 2 or sigma.shape != (p, p):
        raise DimMismatch(f"sigma must be square, got shape {sigma.shape}")
    if config.criterion.p != p:
        raise DimMismatch(
            f"criterion dimension {config.criterion.p} does not match sigma ({p})"
        )
    if config.k > p:
        raise KTooLarge(f"k={config.k} exceeds dimension p={p}")
    return sigma


def greedy(sigma: SymMatrix, config: SearchConfig) -> SearchResult:
    """Greedy forward selection: k successive argmin-score additions.

    Deterministic.  Produces nested subsets by construction; an
    ``objective_floor`` stops early with the current prefix.
    """
    sigma = _check_problem(sigma, config)
    crit = config.criterion
    state = criteria.init_state(crit, sigma)
    trajectory: List[float] = []
    nested: List[IndexSet] = []
    for _ in range(config.k):
        cands, scores = criteria.score_all(crit, state)
        a = int(np.argmin(scores))
        state = criteria.advance(crit, state, sigma, int(cands[a]))
        nested.append(state.subset)
        trajectory.append(criteria.objective_from_state(crit, state))
        if config.objective_floor is not None and trajectory[-1] <= config.objective_floor:
            break
    objective = criteria.evaluate(crit, sigma, state.subset)
    return SearchResult(
        subset=state.subset,
        objective=objective,
        trajectory=trajectory,
        nested_subsets=nested,
        sweeps_used=None,
    )


def _swap_once(
    sigma: np.ndarray,
    config: SearchConfig,
    init: IndexSet,
    decisions: Optional[list] = None,
) -> Tuple[IndexSet, float, List[float], int]:
    """One swapping run from an explicit starting subset."""
    crit = config.criterion
    state = criteria.state_from_subset(crit, sigma, init)
    current = list(init)
    k = config.k
    unit = max(float(np.trace(sigma)), 0.0) / sigma.shape[0]
    margin = SWAP_MARGIN * unit**crit.score_degree
    trajectory = [criteria.objective_from_state(crit, state)]
    sweeps = 0
    floor = config.objective_floor
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
            state = criteria.advance(crit, state_u, sigma, pick)
            if pick != var:
                current[j] = pick
                changed = True
                trajectory.append(criteria.objective_from_state(crit, state))
        if not changed:
            break
        last = trajectory[-1]
        if last == float("-inf") or (floor is not None and last <= floor):
            break  # perfect fit (or floor reached): nothing left to improve
    objective = criteria.evaluate(crit, sigma, tuple(current))
    return tuple(current), objective, trajectory, sweeps


def swap(
    sigma: SymMatrix,
    config: SearchConfig,
    init: Optional[Sequence[int]] = None,
    threads: Optional[int] = None,
    decisions: Optional[list] = None,
) -> SearchResult:
    """Positional swapping search with random restarts.

    When ``init`` is given, a single run starts there; otherwise restart
    ``r = 0..restarts-1`` draws a uniform size-k subset using seed
    ``config.seed + r`` and the best final objective wins (ties to the
    lowest restart index).  Restarts run on a thread pool; the reduction is
    deterministic regardless of completion order.

    ``decisions``, if provided, collects one tuple per position decision
    ``(kept_subset, incumbent, picked, candidates, scores)`` for the
    single-run form; intended for diagnostics and tests.
    """
    sigma = _check_problem(sigma, config)
    p = sigma.shape[0]
    if init is not None:
        start = symmat.check_subset(p, init)
        if len(start) != config.k:
            raise DimMismatch(f"init has size {len(start)}, expected k={config.k}")
        sub, obj, traj, sweeps = _swap_once(sigma, config, start, decisions)
        return SearchResult(sub, obj, traj, None, sweeps)

    def run(r: int) -> Tuple[IndexSet, float, List[float], int]:
        rng = np.random.default_rng(config.seed + r)
        start = tuple(sorted(rng.choice(p, size=config.k, replace=False).tolist()))
        return _swap_once(sigma, config, start, decisions)

    n_workers = min(resolve_threads(threads), config.restarts)
    if n_workers > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            outcomes = list(pool.map(run, range(config.restarts)))
    else:
        outcomes = [run(r) for r in range(config.restarts)]

    best = outcomes[0]
    for cand in outcomes[1:]:
        if cand[1] < best[1]:
            best = cand
    sub, obj, traj, sweeps = best
    return SearchResult(sub, obj, traj, None, sweeps)


def exhaustive(
    sigma: SymMatrix,
    k: int,
    criterion: Criterion,
    cap: int = EXHAUSTIVE_CAP,
) -> SearchResult:
    """Exact minimizer by enumeration, lexicographic tie-break.

    Raises :class:`TooManySubsets` when ``C(p, k)`` exceeds ``cap``
    (default 2e6).
    """
    sigma = np.asarray(sigma, dtype=float)
    p = sigma.shape[0]
    if criterion.p != p:
        raise DimMismatch(
            f"criterion dimension {criterion.p} does not match sigma ({p})"
        )
    if not 1 <= k <= p:
        raise KTooLarge(f"k={k} out of range for p={p}")
    total = math.comb(p, k)
    if total > cap:
        raise TooManySubsets(f"C({p},{k}) = {total} exceeds cap {cap}")
    best_sub: Optional[IndexSet] = None
    best_val = math.inf
    for comb in itertools.combinations(range(p), k):
        val = criteria.evaluate(criterion, sigma, comb)
        if val < best_val:
            best_val = val
            best_sub = comb
    return SearchResult(best_sub, best_val, [best_val], None, None)
