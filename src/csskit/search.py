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
Convergence is k consecutive kept positions, which may span two sweeps:
the positions after the last accepted swap would re-score an unchanged
state and keep again, so a full sweep with no swap is not waited for.
``max_sweeps`` caps the effort and is reported, not an error.

Greedy and swap move their states on one path, the rows of a
:class:`csskit.criteria.StateStack`, the one state type: greedy moves the
stack of one that :func:`csskit.criteria.init_state` returns, and a single
run from ``init`` a stack of one grown from it.  Swap walks its restarts
in groups, under every criterion the same way.  A group holds as many
restarts as keep the stacked temporaries within ``STACK_BUDGET``
elements, and they walk in lockstep, one row each: at step ``j`` of a
sweep every live restart of the group decides its position ``j``.  One
step retracts them all by one stacked retract, scores every candidate of
every row into one table of ``p - k + 1`` columns, decides every row by
one rule, advances the rows that swap by one stacked advance and reads
their objectives.  A row whose state has a
side list (a member that added no rank, on a rank-deficient ``sigma``)
stays on the stack.  Moves, scorer and readout compute each row bit for
bit as on a stack of one, so each restart makes the decisions, and ends
where, it would run alone.  Every final subset is evaluated from scratch
once all restarts are done, once per distinct set (per ordered subset
under CanonCorr, whose value depends on the order).

A run over several sizes seeds its swap at size ``k`` with
:func:`size_seed`.
"""

import itertools
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from . import criteria, symmat
from .criteria import Criterion, CriterionKind
from .errors import DimMismatch, TooManySubsets
from .symmat import IndexSet, SymMatrix

# A candidate must beat the incumbent by this much, in units of
# (trace(sigma) / p) ** criterion.score_degree, to be swapped in.
SWAP_MARGIN = 1e-12

# Largest number of subsets exhaustive enumeration will visit.
EXHAUSTIVE_CAP = 2_000_000

# Largest number of array elements in the temporaries of one lockstep group
# of swap's restarts (see _group_size): 1 MiB of float64 each.
STACK_BUDGET = 1 << 17


@dataclass(frozen=True)
class SearchConfig:
    """Search request: target size, criterion, and search knobs.

    ``k`` must equal ``criterion.k`` (IsoLrt takes its exponent ``p - k``
    from the criterion).  ``restarts`` and ``seed`` only matter for
    :func:`swap` (restart ``r`` draws its starting subset with seed
    ``seed + r``).  Every count is an integer
    (:func:`csskit.symmat.as_index`) and ``seed`` is non-negative, else
    :class:`DimMismatch`.
    """

    k: int
    criterion: Criterion
    restarts: int = 1
    max_sweeps: int = 100
    seed: int = 0

    def __post_init__(self):
        for name in ("k", "restarts", "max_sweeps", "seed"):
            symmat.as_index(getattr(self, name), name)
        if self.seed < 0:
            raise DimMismatch(f"seed must be non-negative, got {self.seed}")
        if self.k != self.criterion.k:
            raise DimMismatch(f"k={self.k} does not match the criterion's k={self.criterion.k}")
        if self.restarts < 1:
            raise DimMismatch(f"restarts must be >= 1, got {self.restarts}")
        if self.max_sweeps < 1:
            raise DimMismatch(f"max_sweeps must be >= 1, got {self.max_sweeps}")


def size_seed(seed: int, k: int) -> int:
    """The :class:`SearchConfig` seed of size ``k`` in a run over several
    sizes (``csskit select --method swap --k-range`` and
    :func:`csskit.sizesel.choose_k`): ``seed + 1000003 * k``.  Restart ``r``
    of size ``k`` then draws its start with ``size_seed(seed, k) + r``, so
    no two sizes share a start seed while ``restarts`` stays below
    1000003."""
    return seed + 1000003 * k


@dataclass
class SearchResult:
    """Outcome of one search.

    ``subset`` preserves algorithmic order (insertion order for greedy,
    positional order for swap).  ``objective`` is always recomputed from
    scratch on the final subset.  ``trajectory`` records the objective
    after each accepted move (greedy: each addition; swap: the initial
    subset and then each accepted swap), read from the search state.
    Greedy's prefix ``subset[:j]`` is its pick of size j, except under
    IsoLrt, whose scores read the exponent ``p - k`` of ``criterion.k``.
    ``sweeps_used`` (swap only) counts the sweeps started: the run stops at
    the position that completes k consecutive kept positions, which need
    not end a sweep.  ``subset``, ``trajectory``, ``sweeps_used`` and
    ``drift`` are the returned run's.  ``restarts`` (swap only) has one
    :class:`RestartStats` per restart, in restart order.
    """

    subset: IndexSet
    objective: float
    trajectory: List[float] = field(default_factory=list)
    sweeps_used: Optional[int] = None
    restarts: List["RestartStats"] = field(default_factory=list)

    @property
    def drift(self) -> float:
        """``|trajectory[-1] - objective|``: how far the incremental
        objective of the final subset is from the from-scratch one.  0.0
        when both are ``-inf``, ``inf`` when only one is."""
        last = self.trajectory[-1]
        return 0.0 if last == self.objective else abs(last - self.objective)


@dataclass(frozen=True)
class RestartStats:
    """One restart of :func:`swap`: the sweeps it started, the swaps it
    accepted, and the from-scratch objective of its final subset.  No wall
    time is kept per restart: the restarts of a group walk in lockstep."""

    sweeps: int
    accepted: int
    objective: float


def resolve_threads() -> int:
    """Swap's worker count: 1 (every restart runs in one thread)."""
    return 1


def greedy(sigma: SymMatrix, config: SearchConfig) -> SearchResult:
    """Greedy forward selection: k successive argmin-score additions, on a
    :class:`csskit.criteria.StateStack` of one.

    Deterministic.  The subset is in insertion order, so its prefixes are
    the nested picks of every smaller size (but not under IsoLrt).
    """
    crit = config.criterion
    stack = criteria.init_state(crit, sigma)
    sigma = stack.sigma
    trajectory: List[float] = []
    for _ in range(config.k):
        cands, scores = criteria.score_stack(crit, stack)
        stack = criteria.advance_stack(stack, cands[:, scores[0].argmin()])
        trajectory.append(float(criteria.objective_stack(crit, stack)[0]))
    subset = tuple(stack.subset[0].tolist())
    del stack  # CanonCorr's p x p inverse is not kept alive through evaluate
    return SearchResult(subset, criteria.evaluate(crit, sigma, subset), trajectory)


def _group_size(crit: Criterion) -> int:
    """Restarts per lockstep group, under every criterion: as many as keep
    the stacked kernels' temporaries, about ``(p - k + 1)^2`` (DiagDet's
    candidate block) plus ``2 k p`` (a row's factor and its products)
    elements per restart, within ``STACK_BUDGET``; at least one.
    FrobResidual holds two such blocks per restart (the block and its
    square), so its groups may take up to twice the budget."""
    p, k = crit.p, crit.k
    return max(1, STACK_BUDGET // ((p - k + 1) ** 2 + 2 * k * p))


class _Run:
    """One restart's walk: its subset in positional order, its trajectory,
    decisions and counters."""

    def __init__(self, start: Sequence[int]):
        self.current = list(start)
        self.trajectory: List[float] = []
        self.decisions: list = []
        self.sweeps = self.accepted = self.kept = 0
        self.changed = self.done = False

    def keep(self, k: int):
        self.kept += 1
        self.done = self.kept == k  # converged: every position kept in a row

    def accept(self, j: int, pick: int):
        self.current[j] = pick
        self.changed = True
        self.kept = 0
        self.accepted += 1


class _Walk:
    """Positional swapping of a group of restarts in lockstep, one row of a
    :class:`csskit.criteria.StateStack` per live restart.  At step ``j`` of
    a sweep, :meth:`_step` retracts position ``j`` of every row, scores
    every row's candidates into one table, decides every row by one rule,
    and advances the rows that swap: one call of each stacked function per
    step.  A restart's decisions do not depend on the others in its
    group."""

    def __init__(self, config: SearchConfig, empty: criteria.StateStack, margin: float, record: bool):
        self.crit = config.criterion
        self.k = config.k
        self.max_sweeps = config.max_sweeps
        self.empty = empty
        self.margin = margin
        self.record = record

    def run(self, runs: List[_Run]):
        """Walk ``runs`` from their starts until each has converged, reached
        a perfect fit or used ``max_sweeps``."""
        self.runs = runs
        self.stack = criteria.StateStack.of_subsets(self.empty, np.array([run.current for run in runs]))
        for run, value in zip(runs, criteria.objective_stack(self.crit, self.stack).tolist()):
            run.trajectory.append(value)
        for sweep in range(1, self.max_sweeps + 1):
            live = self.runs
            if not live:
                break
            for run in live:
                run.sweeps = sweep
                run.changed = False
            for j in range(self.k):
                self._step(j)
            for run in live:
                if run.changed and run.trajectory[-1] == float("-inf"):
                    run.done = True  # perfect fit: nothing left to improve
            self._settle()
        self.stack = None  # the next group's stack is not kept alive alongside

    def _step(self, j: int):
        """Position ``j`` of every live restart, one row of the stack each."""
        runs = self.runs
        if not runs:
            return
        var = np.array([run.current[j] for run in runs])
        shrunk = criteria.retract_stack(self.stack, var)
        cands, scores = criteria.score_stack(self.crit, shrunk)
        rows = np.arange(len(runs))
        a = scores.argmin(axis=1)
        # each row's incumbent is one of its candidates, once, so the mask
        # picks one incumbent score per row, in row order; the incumbent
        # never beats itself by the margin
        accept = scores[rows, a] < scores[cands == var[:, None]] - self.margin
        picks = np.where(accept, cands[rows, a], var)
        moved = accept.tolist()
        for b, (run, pick) in enumerate(zip(runs, picks.tolist())):
            if self.record:
                kept = tuple(run.current[:j] + run.current[j + 1 :])
                run.decisions.append((kept, run.current[j], pick, cands[b].copy(), scores[b].copy()))
            if moved[b]:
                run.accept(j, pick)
            else:
                run.keep(self.k)
        if any(moved):
            if all(moved):
                self.stack = None  # the pre-move stack is not kept alive through the advance
                self.stack = grown = criteria.advance_stack(shrunk, picks)
            else:
                grown = criteria.advance_stack(shrunk.take(accept), picks[accept])
                self.stack.put(accept, grown)
            values = criteria.objective_stack(self.crit, grown).tolist()
            for run, value in zip(itertools.compress(runs, moved), values):
                run.trajectory.append(value)
        self._settle()

    def _settle(self):
        """Drop the stack's rows whose restart is done."""
        rows = [not run.done for run in self.runs]
        if not all(rows):
            self.stack = self.stack.take(np.array(rows))
            self.runs = [run for run, ok in zip(self.runs, rows) if ok]


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
    lowest restart index).  The restarts walk in lockstep, in groups of at
    most :func:`_group_size`, under every criterion.  Each makes the
    decisions, and reaches the outcome, it makes when run alone from its
    start.

    ``decisions``, if provided, collects one tuple per position decision
    ``(kept_subset, incumbent, picked, candidates, scores)``, restart 0's
    first; intended for diagnostics and tests.  A run stops at the position
    that completes k kept positions in a row, so its last sweep may record
    fewer than k decisions.
    """
    crit = config.criterion
    p = crit.p
    if init is not None:
        init = symmat.check_subset(p, init)
        if len(init) != config.k:
            raise DimMismatch(f"init has size {len(init)}, expected k={config.k}")
        starts = [init]
    else:
        starts = []
        for r in range(config.restarts):
            rng = np.random.default_rng(config.seed + r)
            starts.append(tuple(sorted(rng.choice(p, size=config.k, replace=False).tolist())))
    empty = criteria.init_state(crit, sigma)
    sigma = empty.sigma
    unit = max(float(np.trace(sigma)), 0.0) / p
    walk = _Walk(config, empty, SWAP_MARGIN * unit**crit.score_degree, decisions is not None)
    runs = [_Run(start) for start in starts]
    size = _group_size(crit)
    for lo in range(0, len(runs), size):
        walk.run(runs[lo : lo + size])
    del walk, empty  # CanonCorr's p x p inverse is not kept alive through evaluate
    # evaluate reads all but CanonCorr in ascending order, so restarts that
    # reach one set share one value, bit for bit
    ordered = crit.kind == CriterionKind.CANON_CORR
    values = {}
    objectives = []
    for run in runs:
        key = tuple(run.current) if ordered else tuple(sorted(run.current))
        if key not in values:
            values[key] = criteria.evaluate(crit, sigma, run.current)
        objectives.append(values[key])
    if decisions is not None:
        for run in runs:
            decisions.extend(run.decisions)
    stats = [RestartStats(run.sweeps, run.accepted, obj) for run, obj in zip(runs, objectives)]
    best = min(range(len(runs)), key=objectives.__getitem__)  # first minimum
    run = runs[best]
    return SearchResult(tuple(run.current), objectives[best], run.trajectory, run.sweeps, stats)


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
