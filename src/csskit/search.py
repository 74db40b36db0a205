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

The restarts walk in lockstep from one empty state: at each step every
live restart decides its position j of the current sweep.  Under DiagDet
and IsoLrt the restarts whose state is on the fast path (no side list, a
nonsingular block, a finite objective) share a
:class:`csskit.criteria.StateStack`, and one stacked retract, score and
advance per step serve them all, in groups that keep the stacked
temporaries within ``STACK_BUDGET`` elements.  A restart that leaves the
fast path, a restart left alone in its group (a single run among them),
and every restart under the other criteria go on through the per-state
functions in the same walk: for one state those cost less than a stack of
one.  The stacked kernels compute row for row, bit for bit, what the
per-state ones do, so each restart makes the decisions, and ends where,
it would run alone.  Every final subset is evaluated from scratch once all
restarts are done, once per distinct set.
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
    Greedy's prefix ``subset[:j]`` is its pick of size j.  ``sweeps_used``
    (swap only) counts the sweeps started: the run stops at the position
    that completes k consecutive kept positions, which need not end a sweep.
    ``subset``, ``trajectory``, ``sweeps_used`` and ``drift`` are the
    returned run's.  ``restarts`` (swap only) has one
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
    accepted, and the from-scratch objective of its final subset.  The
    restarts walk in lockstep, so there is no wall time per restart."""

    sweeps: int
    accepted: int
    objective: float


def resolve_threads() -> int:
    """Swap's worker count: 1 (restarts run in lockstep in one thread)."""
    return 1


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

    def accept(self, j: int, pick: int, objective: float):
        self.current[j] = pick
        self.changed = True
        self.kept = 0
        self.accepted += 1
        self.trajectory.append(float(objective))


class _Walk:
    """Positional swapping of a group of restarts in lockstep: at each step
    every live restart decides its position ``j`` of the current sweep.
    Under DiagDet and IsoLrt the restarts on the fast path share one
    :class:`csskit.criteria.StateStack` and one call of each stacked kernel
    per step; a restart that leaves it (a side list, a singular block, a
    ``-inf`` objective, or being the last one on it), and every restart
    under the other criteria, moves through the per-state functions.  A
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
        crit, sigma = self.crit, self.sigma
        stack, members = None, []
        if crit.kind in criteria.STACKED and len(runs) > 1:
            stack, members = self._alone(*self._build(runs))
        else:
            for run in runs:
                state = self.empty
                for i in run.current:
                    state = criteria.advance(crit, state, sigma, i)
                run.state = state
        for run in runs:
            if not run.trajectory:  # the stack reads its members' own
                run.trajectory.append(criteria.objective_from_state(crit, run.state))
        for sweep in range(1, self.max_sweeps + 1):
            live = [run for run in runs if not run.done]
            if not live:
                break
            for run in live:
                run.sweeps = sweep
                run.changed = False
            for j in range(self.k):
                off = [run for run in live if run.state is not None and not run.done]
                if not off and not members:
                    break
                if members:
                    stack, members, left = self._stack_step(stack, members, j)
                    stack, members = self._alone(stack, members)
                    off += left
                for run in off:
                    self._state_step(run, j)
            for run in live:
                if run.changed and run.trajectory[-1] == float("-inf"):
                    run.done = True  # perfect fit: nothing left to improve
        for run in runs:
            run.state = None  # the next group's states are not kept alive alongside

    def _build(self, runs: List[_Run]):
        """The stack of the group's starting states, advanced in lockstep
        from the empty state; a start that leaves the fast path finishes
        with the per-state advance."""
        crit, sigma = self.crit, self.sigma
        stack = criteria.StateStack.of_empty(self.empty, len(runs))
        members = list(runs)
        for i in range(self.k):
            picks = np.array([run.current[i] for run in members])
            grown, ok = criteria.advance_stack(stack, picks)
            for b in np.flatnonzero(~ok):
                state = stack.state(b)
                for v in members[b].current[i:]:
                    state = criteria.advance(crit, state, sigma, v)
                members[b].state = state
            stack, members = self._keep(grown, members, ok)
            if not members:
                return stack, members
        objective = criteria.objective_stack(crit, stack)
        for b, run in enumerate(members):
            run.trajectory.append(float(objective[b]))
        finite = objective > float("-inf")
        for b in np.flatnonzero(~finite):
            members[b].state = stack.state(b)
        return self._keep(stack, members, finite)

    @staticmethod
    def _alone(stack, members):
        """A restart left alone on the stack goes on through the per-state
        functions, which cost less than a stack of one and compute the
        same bits."""
        if len(members) == 1:
            members[0].state = stack.state(0)
            return None, []
        return stack, members

    @staticmethod
    def _keep(stack, members, rows):
        if rows.all():
            return stack, members
        return stack.take(rows), [run for run, ok in zip(members, rows.tolist()) if ok]

    def _stack_step(self, stack, members, j):
        """Position ``j`` of every restart on the stack; returns the stack
        of those that stay on it and the restarts that left it before
        deciding ``j``."""
        crit, sigma, k = self.crit, self.sigma, self.k
        var = np.array([run.current[j] for run in members])
        shrunk, ok = criteria.retract_stack(stack, np.argmax(stack.subset == var[:, None], axis=1))
        left = []
        if not ok.all():
            for b in np.flatnonzero(~ok):
                members[b].state = stack.state(b)
                left.append(members[b])
            stack, members = self._keep(stack, members, ok)
            shrunk, var = shrunk.take(ok), var[ok]
            if not members:
                return stack, members, left
        cands, scores = criteria.score_stack(crit, shrunk)
        rows = np.arange(len(members))
        a = np.argmin(scores, axis=1)
        best = cands[rows, a]
        incumbent = np.sum(cands < var[:, None], axis=1)
        accept = (best != var) & (scores[rows, a] < scores[rows, incumbent] - self.margin)
        if self.record:
            for b, run in enumerate(members):
                pick = int(best[b]) if accept[b] else int(var[b])
                run.decisions.append(
                    (tuple(run.current[:j] + run.current[j + 1 :]), int(var[b]), pick, cands[b].copy(), scores[b].copy())
                )
        stay = np.ones(len(members), dtype=bool)
        for b in np.flatnonzero(~accept):
            members[b].keep(k)
            stay[b] = not members[b].done
        idx = np.flatnonzero(accept)
        if idx.size:
            grown, good = criteria.advance_stack(shrunk.take(idx), best[idx])
            fast = grown if good.all() else grown.take(good)
            objective = np.full(idx.size, float("-inf"))
            objective[good] = criteria.objective_stack(crit, fast)
            for t, b in enumerate(idx.tolist()):
                run = members[b]
                if not good[t]:
                    run.state = criteria.advance(crit, shrunk.state(b), sigma, int(best[b]))
                    objective[t] = criteria.objective_from_state(crit, run.state)
                elif objective[t] == float("-inf"):
                    run.state = grown.state(t)
                stay[b] = run.state is None
                run.accept(j, int(best[b]), objective[t])
            stack.put(idx[good], fast)
        stack, members = self._keep(stack, members, stay)
        return stack, members, left

    def _state_step(self, run: _Run, j: int):
        """Position ``j`` of one restart, through the per-state functions."""
        crit, sigma = self.crit, self.sigma
        state = run.state
        var = run.current[j]
        state_u = criteria.retract(crit, state, sigma, state.subset.index(var))
        cands, scores = criteria.score_all(crit, state_u)
        a = int(np.argmin(scores))
        incumbent = int(np.searchsorted(cands, var))
        pick = var
        if int(cands[a]) != var and scores[a] < scores[incumbent] - self.margin:
            pick = int(cands[a])
        if self.record:
            run.decisions.append(
                (tuple(run.current[:j] + run.current[j + 1 :]), var, pick, cands.copy(), scores.copy())
            )
        if pick == var:
            run.keep(self.k)
            return
        run.state = criteria.advance(crit, state_u, sigma, pick)
        run.accept(j, pick, criteria.objective_from_state(crit, run.state))


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
    most :func:`_group_size`; each makes the decisions, and reaches the
    outcome, it makes when run alone from its start.

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
