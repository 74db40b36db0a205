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

Swap walks its restarts in groups.  Under DiagDet and IsoLrt a group
holds as many restarts as keep the stacked temporaries within
``STACK_BUDGET`` elements, and they walk in lockstep: at step ``j`` of a
sweep every live restart of the group decides its position ``j``.  One
step retracts them all (the rows of a :class:`csskit.criteria.StateStack`
by one stacked retract, every other restart by the per-state one), scores
every candidate of every restart into one table of ``p - k + 1`` columns,
decides every row by one rule, advances the restarts that swap (by the
helper that also builds the starting states) and reads their objectives.
A restart is on the stack while its state is on the fast path (no side
list, a nonsingular block, a finite objective) and it is not alone there;
otherwise it moves through the per-state functions, which for one state
cost less than a stack of one.  CssTrace, DetResidual, FrobResidual and
CanonCorr have no stacked kernels, so under them each restart is a group
of one and walks after the one before it.  The stacked kernels compute row
for row, bit for bit, what the per-state ones do, so each restart makes
the decisions, and ends where, it would run alone.  Every final subset is
evaluated from scratch once all restarts are done, once per distinct set
(per ordered subset under CanonCorr, whose value depends on the order).
"""

import itertools
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

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
    ``seed + r``).
    """

    k: int
    criterion: Criterion
    restarts: int = 1
    max_sweeps: int = 100
    seed: int = 0

    def __post_init__(self):
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
    time is kept per restart: under DiagDet and IsoLrt the restarts of a
    group walk in lockstep."""

    sweeps: int
    accepted: int
    objective: float


def resolve_threads() -> int:
    """Swap's worker count: 1 (every restart runs in one thread)."""
    return 1


def greedy(sigma: SymMatrix, config: SearchConfig) -> SearchResult:
    """Greedy forward selection: k successive argmin-score additions.

    Deterministic.  The subset is in insertion order, so its prefixes are
    the nested picks of every smaller size (but not under IsoLrt).
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
    subset = state.subset
    del state  # CanonCorr's p x p inverse is not kept alive through evaluate
    return SearchResult(subset, criteria.evaluate(crit, sigma, subset), trajectory)


def _group_size(crit: Criterion) -> int:
    """Restarts per lockstep group: as many as keep the stacked kernels'
    temporaries, about ``(p - k + 1)^2`` (DiagDet's candidate block) plus
    ``2 k p`` (IsoLrt's factor) elements per restart, within
    ``STACK_BUDGET``; at least one."""
    p, k = crit.p, crit.k
    return max(1, STACK_BUDGET // ((p - k + 1) ** 2 + 2 * k * p))


class _Run:
    """One restart's walk: its subset in positional order, its trajectory,
    decisions and counters, and its state once it is off the stack."""

    def __init__(self, start: Sequence[int]):
        self.current = list(start)
        self.trajectory: List[float] = []
        self.decisions: list = []
        self.sweeps = self.accepted = self.kept = 0
        self.changed = self.done = False
        self.state: Optional[criteria.SubsetState] = None

    def keep(self, k: int):
        self.kept += 1
        self.done = self.kept == k  # converged: every position kept in a row

    def accept(self, j: int, pick: int):
        self.current[j] = pick
        self.changed = True
        self.kept = 0
        self.accepted += 1


class _Walk:
    """Positional swapping of a group of restarts in lockstep.  At step
    ``j`` of a sweep, :meth:`_step` retracts position ``j`` of every live
    restart, scores its candidates into one row of a table, decides every
    row by one rule, and advances the restarts that swap.  Under DiagDet and
    IsoLrt a group of two or more starts on one
    :class:`csskit.criteria.StateStack`, served by one call of each stacked
    kernel per step.  A restart leaves the stack when a stacked advance or
    retract refuses it (a pivot under the rank rule), when its objective
    reads ``-inf``, or when it is the last one on it; it then moves through
    the per-state functions, as every restart of a group of one does.  A
    restart's decisions do not depend on the others in its group."""

    def __init__(self, config: SearchConfig, empty: criteria.SubsetState, margin: float, record: bool):
        self.crit = config.criterion
        self.k = config.k
        self.max_sweeps = config.max_sweeps
        self.sigma = empty.sigma
        self.empty = empty
        self.margin = margin
        self.record = record

    def run(self, runs: List[_Run]):
        """Walk ``runs`` from their starts until each has converged, reached
        a perfect fit or used ``max_sweeps``."""
        stacked = self.crit.kind in criteria.STACKED and len(runs) > 1
        for run in runs:
            run.state = None if stacked else self.empty
        start = criteria.StateStack.of_empty(self.empty, len(runs)) if stacked else None
        self.runs = runs
        self.stack, rows = self._move(start, runs, np.array([run.current for run in runs]).T)
        self.members = [runs[b] for b in rows]
        self._settle()
        for sweep in range(1, self.max_sweeps + 1):
            live = [run for run in runs if not run.done]
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
        for run in runs:
            run.state = None  # the next group's states are not kept alive alongside
        self.stack = None

    def _step(self, j: int):
        """Position ``j`` of every live restart: the stack's rows first,
        then each restart that moves alone."""
        crit, sigma = self.crit, self.sigma
        if self.members:
            var = np.array([run.current[j] for run in self.members])
            shrunk, ok = criteria.retract_stack(self.stack, np.argmax(self.stack.subset == var[:, None], axis=1))
            for b in np.flatnonzero(~ok):
                self.members[b].state = self.stack.state(b)
            self._keep(ok.tolist())
            shrunk = shrunk if ok.all() else shrunk.take(ok)
        n = len(self.members)
        tables = [criteria.score_stack(crit, shrunk)] if n else []
        lone = [run for run in self.runs if run.state is not None and not run.done]
        retracted = [criteria.retract(crit, run.state, sigma, run.state.subset.index(run.current[j])) for run in lone]
        tables += [(c[None], s[None]) for c, s in (criteria.score_all(crit, state) for state in retracted)]
        if not tables:
            return
        cands, scores = tables[0] if len(tables) == 1 else map(np.concatenate, zip(*tables))
        movers = self.members + lone
        var = np.array([run.current[j] for run in movers])
        a = scores.argmin(axis=1)
        rows = np.arange(len(movers))
        best = cands[rows, a]
        # each row's incumbent is one of its candidates, once, so the mask
        # picks one incumbent score per row, in row order
        accept = (best != var) & (scores[rows, a] < scores[cands == var[:, None]] - self.margin)
        pick = np.where(accept, best, var).tolist()
        moved = []
        for b, run in enumerate(movers):
            if self.record:
                kept = tuple(run.current[:j] + run.current[j + 1 :])
                run.decisions.append((kept, int(var[b]), pick[b], cands[b].copy(), scores[b].copy()))
            if pick[b] == run.current[j]:
                run.keep(self.k)
            else:
                run.accept(j, pick[b])
                moved.append(b)
        if moved:
            on = [b for b in moved if b < n]
            for b in moved[len(on) :]:
                movers[b].state = retracted[b - n]
            grown, rows = self._move(shrunk.take(on) if on else None, [movers[b] for b in moved], best[moved][None])
            if rows.size:
                self.stack.put(np.array(on)[rows], grown)
        self._settle()

    def _move(self, stack, runs: List[_Run], picks: np.ndarray):
        """Advance ``runs`` by each row of ``picks`` in turn, then append
        each one's objective to its trajectory.  The first runs, one per row
        of ``stack`` (if any), move in lockstep; a row the stack refuses,
        and every other run, advances its own state.  A row that reads
        ``-inf`` leaves the stack too.  Returns the grown stack and which of
        ``stack``'s rows it holds."""
        crit, sigma = self.crit, self.sigma
        rows = np.arange(0 if stack is None else len(stack.subset))
        for step in picks:
            if rows.size:
                grown, ok = criteria.advance_stack(stack, step[rows])
                for b in np.flatnonzero(~ok):
                    runs[rows[b]].state = stack.state(b)
                stack, rows = (grown, rows) if ok.all() else (grown.take(ok), rows[ok])
            for run, v in zip(runs, step.tolist()):
                if run.state is not None:
                    run.state = criteria.advance(crit, run.state, sigma, v)
        for run in runs:
            if run.state is not None:
                run.trajectory.append(criteria.objective_from_state(crit, run.state))
        if rows.size:
            for t, value in enumerate(criteria.objective_stack(crit, stack).tolist()):
                runs[rows[t]].trajectory.append(value)
                if value == float("-inf"):
                    runs[rows[t]].state = stack.state(t)
        return stack, rows

    def _keep(self, rows: List[bool]):
        """Keep the stack's rows where ``rows`` holds."""
        if not all(rows):
            self.stack = self.stack.take(np.array(rows))
            self.members = [run for run, ok in zip(self.members, rows) if ok]

    def _settle(self):
        """Drop the stack's rows whose restart left it or is done.  A
        restart left alone on it goes on through the per-state functions,
        which cost less than a stack of one and compute the same bits."""
        self._keep([run.state is None and not run.done for run in self.members])
        if len(self.members) == 1:
            self.members[0].state = self.stack.state(0)
            self.stack, self.members = None, []


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
    lowest restart index).  Under DiagDet and IsoLrt the restarts walk in
    lockstep, in groups of at most :func:`_group_size`; under the other
    criteria each walks after the one before it.  Each makes the decisions,
    and reaches the outcome, it makes when run alone from its start.

    ``decisions``, if provided, collects one tuple per position decision
    ``(kept_subset, incumbent, picked, candidates, scores)``, restart 0's
    first; intended for diagnostics and tests.  A run stops at the position
    that completes k kept positions in a row, so its last sweep may record
    fewer than k decisions.
    """
    crit = config.criterion
    p = crit.p
    if init is not None:
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
    size = _group_size(crit) if crit.kind in criteria.STACKED else 1
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
