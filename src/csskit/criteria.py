"""Subset-selection criteria over residual covariances.

A criterion assigns a real objective to an ordered index set ``S`` given a
PSD matrix ``sigma``; all six are *minimized*.  With ``R(S)`` denoting the
residual covariance after projecting out the selected columns
(:func:`csskit.symmat.residual_covariance`) and ``-S`` the complement:

``CssTrace``
    ``trace(R(S))`` -- total residual variance, i.e. the squared
    reconstruction error of regressing every column on the selection.
``DetResidual``
    ``log det(R(S)[-S, -S])`` -- log-volume of the unexplained block.
``FrobResidual``
    ``||R(S)[-S, -S]||_F^2`` -- squared Frobenius mass of the unexplained
    block.
``CanonCorr``
    ``-trace(pinv(sigma_S) sigma_{S,-S} pinv(sigma_{-S}) sigma_{-S,S})`` --
    negated sum of squared canonical correlations between the selection and
    the rest (negated so that smaller is better).
``DiagDet``
    ``log det(sigma_S) + sum_{j not in S} log R(S)_{jj}`` -- the
    log-likelihood-shaped objective whose minimization is equivalent to a
    diagonal-residual Gaussian fit.  Returns ``-inf`` when some variable
    outside ``S`` is fit perfectly or the selected block is singular.
``IsoLrt``
    ``log det(sigma_S) + (p - k) log(trace(R(S)) / (p - k))`` -- the
    isotropic-residual analogue; ``k`` is a fixed parameter of the
    criterion, not the current subset size.  Returns ``-inf`` when every
    variable outside ``S`` is fit perfectly.

Every rank decision is the pivot test of :mod:`csskit.symmat`: a variable
adds rank to ``S``, and is not fit perfectly by it, when its residual
variance exceeds ``RANK_TOL`` times its own
(:func:`csskit.symmat.adds_rank`).  A search state applies it to each
variable as it joins; :func:`evaluate` and the readout of DetResidual apply
it to the pivots of a block's Cholesky factor through
:func:`csskit.symmat.log_det`, the selected block on its own variances and
the complement's residual block on the complement's own variances.
:func:`evaluate` and the scorer of a singular ``sigma`` form regression
coefficients through the generalised inverse :func:`csskit.symmat.ginv`.
No decision depends on the units of a variable.

:func:`evaluate` computes from scratch.  It reads ``diag R`` in O(pk^2)
from the regression coefficients on ``S``; only DetResidual and
FrobResidual form a block of ``R``, the complement's, and only DiagDet and
IsoLrt read ``log det(sigma_S)``.

Greedy and swap searches never rank candidates by re-evaluating from
scratch; they use :func:`score_stack`, whose values are *order-equivalent*
to the objective (argmin over candidates matches argmin of ``evaluate`` on
the grown subset) but cheaper by at least one power of ``p``.  State is
carried by :class:`StateStack`, the same for all six criteria and for any
number of states: each row carries ``R`` never as a dense matrix but by
its factor ``R = sigma - L L^T`` (:class:`csskit.symmat.Factor`), with
``diag R`` and, for CssTrace and IsoLrt, ``diag R^2``.  ``L`` has one
column per member; a member that added no rank when it joined has a zero
column and sits on the row's side list.  The factor is all a state
carries: the selected block ``sigma_S = L[S] L[S]^T``, its log-determinant
(``-inf`` with a side list) and its inverse are read from ``L[S]``, and
CanonCorr's ``(Omega_SS)^-1`` from ``Omega``, where a score or an objective
needs them.  :func:`advance_stack` appends a column to ``L`` in O(pk), plus
one ``sigma``-matvec under CssTrace and IsoLrt, and :func:`retract_stack`
reflects one out in O(pk + k^3), or rebuilds a row with a side list from
its members, the same moves under every criterion.  Scores then cost O(p)
for DetResidual, O(p) plus the near-perfect fits' residual columns for
CssTrace and IsoLrt, one ``(p-k)``-block of ``R`` for DiagDet, and the
dense ``R`` for FrobResidual.  CanonCorr reads no residual.  When the
condition number of the unit-diagonal ``sigma`` is at most ``CC_COND_MAX``
(1e4), :func:`init_state` inverts it once per search
(:func:`csskit.symmat.inverse`, one eigendecomposition).  With ``G =
sigma_S^-1`` from the factor and ``H = (Omega_SS)^-1`` of ``Omega =
sigma^-1``, each in O(k^3), the partitioned inverse gives ``-cc(S) = tr(G
H) - k``: :func:`score_stack` scores every candidate exactly in O(k^3 +
k^2 (p - k)) and :func:`objective_stack` reads the objective in O(k^3).  On
a singular or worse-conditioned ``sigma`` each score generalised-inverts
the selected and the complement block and scores every candidate from
them, up to one constant, and the objective is :func:`evaluate`'s.

There is one move path.  Greedy, a single run and every lockstep group of
swap's restarts move stacks, a stack of one included, through
:func:`advance_stack`, :func:`retract_stack`, :func:`score_stack` and
:func:`objective_stack`.  A :class:`SubsetState` is one row of a stack:
:func:`advance`, :func:`retract`, :func:`score_all` and
:func:`objective_from_state` run the stacked functions on a stack of one.
Every product is a per-row BLAS call or an elementwise operation
(DetResidual, CssTrace, IsoLrt and DiagDet score all rows with one numpy
call per step; FrobResidual and CanonCorr score, and DetResidual,
FrobResidual and CanonCorr read, one row at a time), so each row comes out
bit for bit as it does in a stack of one.

Inputs are checked once, where they enter: ``sigma`` in :func:`init_state`,
an index in :func:`advance`, a position in :func:`retract`; the stacked
functions and the kernels trust the state (a search takes its moves from
the rows).
"""

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence, Tuple

import numpy as np

from . import symmat
from .errors import DimMismatch, NotPSD
from .symmat import RANK_TOL, IndexSet, SymMatrix


class CriterionKind(str, Enum):
    CSS_TRACE = "CssTrace"
    DET_RESIDUAL = "DetResidual"
    FROB_RESIDUAL = "FrobResidual"
    CANON_CORR = "CanonCorr"
    DIAG_DET = "DiagDet"
    ISO_LRT = "IsoLrt"


@dataclass(frozen=True)
class Criterion:
    """A selection criterion bound to a problem dimension and target size.

    ``k`` is the intended subset size.  Only ``IsoLrt`` uses it inside the
    objective (as the fixed exponent ``p - k``); the others carry it for
    bookkeeping.  ``IsoLrt`` requires ``k < p``.  ``p`` and ``k`` must be
    integers (:func:`csskit.symmat.as_index`), else :class:`DimMismatch`.
    """

    kind: CriterionKind
    p: int
    k: int

    def __post_init__(self):
        symmat.as_index(self.p, "p")
        symmat.as_index(self.k, "k")
        if self.p < 1:
            raise DimMismatch(f"dimension must be positive, got {self.p}")
        if not 1 <= self.k <= self.p:
            raise DimMismatch(f"k={self.k} out of range for p={self.p}")
        if self.kind == CriterionKind.ISO_LRT and self.k >= self.p:
            raise DimMismatch("IsoLrt requires k < p")

    @property
    def score_degree(self) -> int:
        """Power of sigma's scale in score differences (0: unit-free)."""
        if self.kind == CriterionKind.FROB_RESIDUAL:
            return 2
        return int(self.kind in (CriterionKind.CSS_TRACE, CriterionKind.DET_RESIDUAL))


# The criteria whose scores read diag R^2 (symmat.Factor's squares).
_SQUARES = (CriterionKind.CSS_TRACE, CriterionKind.ISO_LRT)

# Largest condition number of the unit-diagonal sigma that CanonCorr scores
# through sigma^-1 (see _score_canon_corr); above it, CanonCorr scores from
# the complement.  Scores through sigma^-1 lose about eps * cond^2, while
# one near-linear dependency puts the candidates' -cc values about 1 / cond
# apart.  On random rescaled sigma (p = 5-15, one tiny eigenvalue or a
# spread spectrum), greedy and 2-restart swap runs matched the complement
# scorer's subsets and objectives in all 700 runs at cond 1e2-1e4 and
# differed in 1 of 150 at 1e4-1e5; with one tiny eigenvalue, single picks
# missed the 50-digit argmin in 80-113 of 300 instances per decade at
# 1e6-1e10, where the complement scorer missed none.
CC_COND_MAX = 1e4


@dataclass
class SubsetState:
    """One ordered subset of one matrix, with what scoring and moves need:
    one row of a :class:`StateStack`, which :func:`advance`,
    :func:`retract`, :func:`score_all` and :func:`objective_from_state`
    move, score and read as a stack of one.

    The residual covariance ``R = sigma - L L^T`` is carried by its factor
    (:class:`csskit.symmat.Factor`: ``L``, ``diag R``, and for CssTrace and
    IsoLrt also ``diag R^2`` and ``sigma L``), never as a dense matrix.
    ``L`` has one column per member.  A member that added no rank to the
    ones before it when it joined sits on a side list: its column is zero,
    as it leaves the residual unchanged.  Nothing else is carried: the
    selected block is ``L[S] L[S]^T``, singular by the pivot rule exactly
    when the side list is not empty.  ``sigma`` is a read-only reference to
    the source matrix.  For CanonCorr on a ``sigma`` whose unit-diagonal
    form has condition number at most ``CC_COND_MAX``, ``omega`` is a
    read-only reference to ``sigma^-1``, shared by every state and stack of
    one search; otherwise it is None.  States are values, never updated in
    place.
    """

    subset: IndexSet
    factor: symmat.Factor
    sigma: np.ndarray
    omega: Optional[np.ndarray] = None

    @property
    def ranked(self) -> IndexSet:
        """The members off the side list (a nonzero column of ``L``), in
        subset order.  A zero column is always the one its member got when
        it joined: a retract rebuilds a state with a side list."""
        adds = self.factor.lt.any(axis=1).tolist()
        return tuple(i for i, a in zip(self.subset, adds) if a)

    @property
    def residual(self) -> np.ndarray:
        """The dense residual covariance ``sigma - L L^T``, O(p^2 k)."""
        return self.factor.residual(self.sigma)


# ---------------------------------------------------------------------------
# From-scratch evaluation (the definitional path; searches use score_*)
# ---------------------------------------------------------------------------


def evaluate(criterion: Criterion, sigma: SymMatrix, subset: Sequence[int]) -> float:
    """Objective value of ``subset`` under ``criterion``, from scratch.

    The subset may be any size (greedy evaluates its prefixes).  All but
    CanonCorr (:func:`cc_sum`, in the given order) read it in ascending
    order, so their value does not depend on its order, not even by
    roundoff: restarts of swap that reach one set tie exactly.  This is the
    reference implementation the incremental paths are tested against.
    """
    sigma = np.asarray(sigma, dtype=float)
    p = criterion.p
    if sigma.shape != (p, p):
        raise DimMismatch(f"sigma shape {sigma.shape} does not match p={p}")
    u = symmat.check_subset(p, subset)
    comp = symmat.complement(p, u)
    kind = criterion.kind

    if kind == CriterionKind.CANON_CORR:
        if not u or not comp.size:
            return 0.0
        return -cc_sum(sigma, u, comp)

    # diag R = diag sigma - rowsum(coef * sigma[:, U]), coef the regression
    # coefficients on U, in O(p k^2); only a block criterion forms R[-S, -S]
    idx = sorted(u)
    cols = sigma[:, idx]
    block_u = sigma[np.ix_(idx, idx)]
    coef = cols @ symmat.ginv(block_u)
    var = sigma.diagonal()
    diag = np.maximum(var - np.einsum("ij,ij->i", coef, cols), 0.0)
    if kind == CriterionKind.CSS_TRACE:
        return float(np.sum(diag))
    if kind in (CriterionKind.DIAG_DET, CriterionKind.ISO_LRT):
        ld_block = np.array([symmat.log_det(block_u)])
        return float(_readout_rows(criterion, diag[comp][None], var[comp][None], ld_block)[0])
    block = sigma[np.ix_(comp, comp)] - coef[comp] @ cols[comp].T
    if kind == CriterionKind.FROB_RESIDUAL:
        return float(np.sum(block * block))
    return symmat.log_det(block, var[comp])


def cc_sum(sigma: SymMatrix, a: Sequence[int], b: Sequence[int]) -> float:
    """Sum of squared canonical correlations between column sets ``a`` and
    ``b`` under covariance ``sigma``:
    ``trace(G_a sigma_ab G_b sigma_ba)`` with the generalised inverses
    ``G = ginv(.)`` of :func:`csskit.symmat.ginv`."""
    sigma = np.asarray(sigma, dtype=float)
    p = symmat.check_square(sigma)
    aa = list(symmat.check_subset(p, a))
    bb = list(symmat.check_subset(p, b))
    if not aa or not bb:
        return 0.0
    cross = sigma[np.ix_(aa, bb)]
    # trace(G_a @ cross @ G_b @ cross.T) without forming products
    left = symmat.ginv(sigma[np.ix_(aa, aa)]) @ cross
    return float(np.sum(left * (cross @ symmat.ginv(sigma[np.ix_(bb, bb)]))))


def _readout_rows(criterion: Criterion, diag, var, ld_block) -> np.ndarray:
    """DiagDet or IsoLrt of ``B`` subsets at once: row ``b`` of ``diag``
    and ``var`` is a complement's residual and own variances, ``ld_block[b]``
    its subset's ``log det(sigma_S)``.  A variable of the complement that
    does not add rank to ``S`` is fit perfectly: one sends DiagDet to
    ``-inf``, IsoLrt needs all of them."""
    fits = ~symmat.adds_rank(diag, var)
    if criterion.kind == CriterionKind.ISO_LRT:
        m = criterion.p - criterion.k
        rows = zip(ld_block.tolist(), diag.sum(axis=1).tolist(), fits.all(axis=1).tolist())
        return np.array([float("-inf") if all_fit else ld + m * math.log(total / m) for ld, total, all_fit in rows])
    with np.errstate(divide="ignore"):
        out = ld_block + np.log(diag).sum(axis=1)
    out[fits.any(axis=1)] = float("-inf")
    return out


# ---------------------------------------------------------------------------
# State construction and incremental moves
# ---------------------------------------------------------------------------


def init_state(criterion: Criterion, sigma: SymMatrix) -> SubsetState:
    """Fresh state for the empty subset, and the one check of its ``sigma``:
    :func:`csskit.symmat.as_symmetric`, shape ``p x p``, and no negative
    diagonal entry (:class:`NotPSD`).  Moves and scores trust ``state.sigma``.

    Under CanonCorr this is also the one eigendecomposition of the search:
    :func:`csskit.symmat.inverse` gives ``omega = sigma^-1``, or None when
    ``sigma`` is singular or its unit-diagonal condition number exceeds
    ``CC_COND_MAX``, and raises :class:`NotPSD` when it is indefinite.
    Build the empty state once and advance from it (as swap does for its
    restarts) rather than calling this per start.
    """
    sigma = symmat.as_symmetric(sigma)
    p = criterion.p
    if sigma.shape != (p, p):
        raise DimMismatch(f"sigma shape {sigma.shape} does not match p={p}")
    low = float(sigma.diagonal().min())
    if low < 0.0:
        raise NotPSD(f"sigma has a negative diagonal entry ({low:g})")
    omega = None
    if criterion.kind == CriterionKind.CANON_CORR:
        omega = symmat.inverse(sigma, CC_COND_MAX)
    return SubsetState((), symmat.Factor.empty(sigma, criterion.kind in _SQUARES), sigma, omega)


def state_from_subset(
    criterion: Criterion, sigma: SymMatrix, subset: Sequence[int]
) -> SubsetState:
    """State for an explicit subset, built by successive advances."""
    state = init_state(criterion, sigma)
    for i in subset:
        state = advance(criterion, state, state.sigma, i)
    return state


def advance(
    criterion: Criterion, state: SubsetState, sigma: SymMatrix, i: int
) -> SubsetState:
    """Grow the state by variable ``i`` (appended to the subset order):
    :func:`advance_stack` on the state as a stack of one.  Returns a new
    state; the input is not modified.  ``i`` must lie in ``[0, p)`` and not
    be selected yet, else :class:`DimMismatch`.  The move reads
    ``state.sigma``, not its ``sigma`` argument.
    """
    i = symmat.as_index(i)
    if not 0 <= i < criterion.p or i in state.subset:
        raise DimMismatch(f"cannot append index {i} to subset {state.subset}")
    return advance_stack(StateStack.of_state(state), np.array([i])).state(0)


def retract(
    criterion: Criterion, state: SubsetState, sigma: SymMatrix, position: int
) -> SubsetState:
    """Drop the subset entry at ``position``, undoing its contribution:
    :func:`retract_stack` on the state as a stack of one.  Returns a new
    state.  ``position`` must lie in ``[0, k)``, else :class:`DimMismatch`.
    The move reads ``state.sigma``, not its ``sigma`` argument.
    """
    k = len(state.subset)
    position = symmat.as_index(position)
    if not 0 <= position < k:
        raise DimMismatch(f"position {position} out of range for subset size {k}")
    return retract_stack(StateStack.of_state(state), np.array([state.subset[position]])).state(0)


# ---------------------------------------------------------------------------
# The moves: many states of one size at once
# ---------------------------------------------------------------------------


@dataclass
class StateStack:
    """``B`` states of one size ``k`` over one ``sigma``.  Row ``b`` of each
    field is one state's :class:`SubsetState` field: ``subset`` (``B x k``,
    state order) and ``factor`` (a stack of :class:`csskit.symmat.Factor`
    rows: ``lt`` ``B x k x P``, ``diag`` and ``diag_sq`` ``B x p``);
    ``sigma`` and ``omega`` are the read-only ones every state of a search
    shares.

    Every search moves its states as stacks, a stack of one included:
    :func:`advance_stack` and :func:`retract_stack` run the kernels
    :func:`csskit.symmat.residual_add` and
    :func:`csskit.symmat.residual_remove` on the whole stack, and
    :func:`score_stack` and :func:`objective_stack` score and read every
    row.  A row with a side list stays on the stack.  Every product is a
    per-row BLAS call or an elementwise operation, so a row's values do not
    depend on the other rows or on ``B``.
    """

    subset: np.ndarray
    factor: symmat.Factor
    sigma: np.ndarray
    omega: Optional[np.ndarray] = None

    @classmethod
    def of_subsets(cls, empty: SubsetState, subsets: np.ndarray) -> "StateStack":
        """The states of ``subsets`` (``B x k``, state order), grown from
        the empty state ``empty`` by one :func:`advance_stack` per column."""
        factor = empty.factor.map(lambda a: np.repeat(a[None], len(subsets), axis=0))
        stack = cls(np.zeros((len(subsets), 0), dtype=np.intp), factor, empty.sigma, empty.omega)
        for picks in subsets.T:
            stack = advance_stack(stack, picks)
        return stack

    @classmethod
    def of_state(cls, state: SubsetState) -> "StateStack":
        """The stack of one of ``state``, on views of its arrays."""
        lt, diag, sq = state.factor
        factor = symmat.Factor(lt[None], diag[None], None if sq is None else sq[None])
        return cls(np.array([state.subset], dtype=np.intp), factor, state.sigma, state.omega)

    def state(self, b: int) -> SubsetState:
        """Row ``b`` as a :class:`SubsetState` (a copy)."""
        sub = tuple(self.subset[b].tolist())
        return SubsetState(sub, self.factor.map(lambda a: a[b].copy()), self.sigma, self.omega)

    def take(self, rows) -> "StateStack":
        """The stack of the given rows (a boolean mask or indices)."""
        return StateStack(self.subset[rows], self.factor.map(lambda a: a[rows]), self.sigma, self.omega)

    def put(self, rows, other: "StateStack"):
        """Overwrite the given rows with ``other``'s, in place."""
        self.subset[rows] = other.subset
        for mine, theirs in zip(self.factor, other.factor):
            if mine is not None:
                mine[rows] = theirs


@functools.lru_cache(maxsize=256)
def _starts(rows: int, n: int) -> np.ndarray:
    """Where each of ``rows`` rows of length ``n`` starts in their flat
    array, as a read-only column."""
    out = np.arange(0, rows * n, n)[:, None]
    out.flags.writeable = False
    return out


def _gather(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``a[b, ..., idx[b]]`` for each row ``b``: entries ``idx[b]`` of the
    last axis of row ``b`` (``idx`` is ``B x m``), by one flat take."""
    if len(a) == 1:
        return a[0].take(idx[0], -1)[None]
    off = _starts(a.size // a.shape[-1], a.shape[-1]).reshape(a.shape[0], -1, 1)
    return a.take(off + idx[:, None, :])


def _complements(p: int, subset: np.ndarray) -> np.ndarray:
    """Each row's complement in ``[0, p)``, ascending, ``B x (p - k)``."""
    n, k = subset.shape
    mask = np.ones((n, p), dtype=bool)
    mask[np.arange(n)[:, None], subset] = False
    return np.nonzero(mask)[1].reshape(n, p - k)


def advance_stack(stack: StateStack, picks: np.ndarray) -> StateStack:
    """Grow every row by its variable ``picks[b]``: the new column of ``L``
    by :func:`csskit.symmat.residual_add` on the whole stack, in O(pk) per
    row plus one ``sigma``-matvec under CssTrace and IsoLrt.  A pick whose
    pivot ``R_ii`` adds no rank (the move's one rank test) gets a zero
    column and joins its row's side list.  The picks are trusted (the walk
    takes them from the complement)."""
    factor = symmat.residual_add(stack.sigma, stack.factor, picks)
    subset = np.concatenate([stack.subset, picks[:, None]], axis=1)
    return StateStack(subset, factor, stack.sigma, stack.omega)


def retract_stack(stack: StateStack, leaving: np.ndarray) -> StateStack:
    """Drop member ``leaving[b]`` from row ``b``, for every row.

    In a row without a side list, member ``v`` leaves ``R + h h^T``, with
    ``h = beta / sqrt(beta_v)`` and ``beta`` its residual profile on the
    other members ``A'``.  Since ``h`` is 0 on ``A'``, ``h = L c`` for the
    ``c`` that solves ``L[S] c = e_v`` (``L[S]`` is square and nonsingular,
    as every member added rank), with ``|c|^2 = 1 / beta_v``, the pivot.
    One batched solve over the ``B x k x k`` blocks ``L[S]`` gives every
    row's ``c``, and :func:`csskit.symmat.residual_remove` reflects ``h``
    out of the whole stack, in O(pk + k^3) per row.  A row with a side list
    (a zero column of ``L[S]``, which no solve takes) is rebuilt from its
    remaining members by :meth:`StateStack.of_subsets`, as
    :func:`state_from_subset` builds it, so a side member that adds rank to
    what is left gets it back.  The members are trusted (the walk takes
    them from the rows).
    """
    n, k = stack.subset.shape
    drop = stack.subset == leaving[:, None]
    subset = stack.subset[~drop].reshape(n, k - 1)
    lts = _gather(stack.factor.lt, stack.subset)  # L[S]^T of each row
    try:
        c = np.linalg.solve(lts.transpose(0, 2, 1), drop[:, :, None] * 1.0)[:, :, 0]
    except np.linalg.LinAlgError:  # a singular L[S]
        side = (~lts.any(axis=2)).any(axis=1)  # a zero column of L[S]: a side list
        if not side.any():
            raise
        squares = stack.factor.diag_sq is not None
        empty = SubsetState((), symmat.Factor.empty(stack.sigma, squares), stack.sigma, stack.omega)
        # every row's rebuilt state where it has a side list; the others are
        # overwritten by their own retract
        out = StateStack.of_subsets(empty, subset[side]).take(np.cumsum(side) - 1)
        if not side.all():
            out.put(~side, retract_stack(stack.take(~side), leaving[~side]))
        return out
    factor = symmat.residual_remove(stack.factor, c / np.sqrt(symmat._rowdot(c, c)))
    return StateStack(subset, factor, stack.sigma, stack.omega)


# ---------------------------------------------------------------------------
# Candidate scoring
# ---------------------------------------------------------------------------


def score_all(criterion: Criterion, state: SubsetState) -> Tuple[np.ndarray, np.ndarray]:
    """Scores for appending each variable outside the subset to it.

    Returns ``(candidates, scores)``, the candidates being the complement of
    the subset in ascending order.  Scores are order-equivalent to
    ``evaluate`` on the grown subset: the argmin candidate is the same, and
    ties are broken toward the lowest index by taking the first minimum.
    ``-inf`` marks a perfect fit under DiagDet/IsoLrt, decided by the same
    rank rule as ``evaluate``.  CanonCorr scores of a state with ``omega``
    are the exact values of ``evaluate``, not values up to one constant.
    The state is scored as a stack of one (:func:`score_stack`).
    """
    if len(state.subset) == criterion.p:
        return np.zeros(0, dtype=np.intp), np.zeros(0)
    cands, scores = score_stack(criterion, StateStack.of_state(state))
    return cands[0], scores[0]


def score_stack(criterion: Criterion, stack: StateStack) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`score_all` of every row of a stack: ``(candidates, scores)``,
    each ``B x (p - k)``, row ``b`` as :func:`score_all` gives it for
    :meth:`StateStack.state` ``(b)``."""
    cands = _complements(stack.sigma.shape[0], stack.subset)
    return cands, _score_rows(criterion, stack, cands)


def _score_rows(criterion: Criterion, stack: StateStack, cands: np.ndarray) -> np.ndarray:
    """Scores of the ``B`` states of ``stack`` for their candidates
    ``cands`` (``B x m``).  DetResidual, CssTrace, IsoLrt and DiagDet score
    all rows with one numpy call per step.  CssTrace and IsoLrt read the
    carried ``diag R^2`` (a near fit's from its residual column), DetResidual
    ``-diag R`` and DiagDet the candidates' ``(p - k)``-block of ``R``.
    FrobResidual forms each row's dense ``R``, one row at a time, and
    CanonCorr runs :func:`_score_canon_corr` or, without ``omega``,
    :func:`_score_canon_corr_ginv` once per row."""
    sigma, fac, kind = stack.sigma, stack.factor, criterion.kind
    if kind == CriterionKind.CANON_CORR:
        rows = zip(fac.lt, stack.subset, cands)
        if stack.omega is None:
            return np.array([_score_canon_corr_ginv(sigma, sub, comp) for _, sub, comp in rows])
        return np.array([_score_canon_corr(sigma, stack.omega, lt, sub, comp) for lt, sub, comp in rows])
    lt, diag_all, diag_sq = fac
    n, m = cands.shape
    p = sigma.shape[0]
    flat = cands + _starts(n, p)  # into the rows of a B x p array
    diag = diag_all.take(flat)
    if kind == CriterionKind.DET_RESIDUAL:
        return -diag
    var = sigma.diagonal()[cands]
    ok = symmat.adds_rank(diag, var)
    safe = np.where(ok, diag, 1.0)

    if kind == CriterionKind.FROB_RESIDUAL:
        scores = np.empty((n, m))
        for b in range(n):
            res = fac.map(lambda a: a[b]).residual(sigma)
            cols = res[:, cands[b]]
            colsq = np.einsum("ij,ij->j", cols, cols)
            cubic = np.einsum("ij,ij->j", cols, res @ cols)
            scores[b] = (colsq / safe[b]) ** 2 - 2.0 * cubic / safe[b]
        return np.where(ok, scores, 0.0)

    if kind in _SQUARES:
        # diag R^2 is carried by differences from diag sigma^2, so its error
        # is absolute, about eps |sigma|^2 per move; a candidate near a
        # perfect fit (R_ii at most sqrt(RANK_TOL) sigma_ii) reads it from
        # its residual column, whose error is relative to that column
        sq = diag_sq.take(flat)
        near = ok & (diag <= math.sqrt(RANK_TOL) * var)
        if near.any():
            for b in np.flatnonzero(near.any(axis=1)):
                at = np.flatnonzero(near[b])
                cols = fac.map(lambda a: a[b]).columns(sigma, cands[b, at])
                sq[b, at] = np.einsum("ij,ij->j", cols, cols)
        if kind == CriterionKind.CSS_TRACE:
            return np.where(ok, -sq / safe, 0.0)

    with np.errstate(divide="ignore"):
        head = np.log(np.where(ok, diag, 0.0))

        if kind == CriterionKind.ISO_LRT:
            k = criterion.p - criterion.k
            tr = np.maximum(diag_all.sum(axis=1), 0.0)
            rest = np.maximum(tr[:, None] - np.where(ok, sq / safe, 0.0), 0.0)
            # -inf when, once the candidate joins, every variable is fit
            # perfectly by the rank rule of evaluate.  Their residual
            # variances then sum to at most RANK_TOL * trace(sigma), so only
            # the residual columns of candidates below that are formed (the
            # subset's own rows are 0; a candidate that adds no rank is -inf
            # by its own term below).
            near = ~symmat.adds_rank(rest, np.trace(sigma))
            if near.any():
                for b in np.flatnonzero(near.any(axis=1)):
                    at = np.flatnonzero(near[b])
                    cols = fac.map(lambda a: a[b]).columns(sigma, cands[b, at])
                    left = diag_all[b][:, None] - cols**2 / safe[b, at]
                    fit = ~symmat.adds_rank(left, sigma.diagonal()[:, None]).any(axis=0)
                    rest[b, at[fit]] = 0.0
            return head + k * np.log(rest)

        # DiagDet: the candidates' block of R, one (p - k)-square per state,
        # row i of which gives candidate i's terms R_jj - R_ij^2 / R_ii; all
        # in place, in one order of operations for every row
        li = _gather(lt, cands)
        terms = sigma.take(cands[:, :, None] * p + cands[:, None, :])
        terms -= np.matmul(li.transpose(0, 2, 1), li)
        terms *= terms
        terms /= safe[:, :, None]
        if not ok.all():
            terms[~ok] = 0.0
        np.subtract(diag[:, None, :], terms, out=terms)
        # zero the perfect fits, by the rank rule of evaluate
        terms *= symmat.adds_rank(terms, var[:, None, :])
        np.log(terms, out=terms)
    terms.reshape(n, m * m)[:, :: m + 1] = 0.0  # exclude j == i from the sum
    return head + terms.sum(axis=2)


def _block_inverses(lt: np.ndarray, omega: np.ndarray, sub: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``G = sigma_S^-1`` and ``H = (Omega_SS)^-1`` (subset order ``sub``)
    of a state with ``omega``, each in O(k^3).  ``G`` comes from the
    factor's ``lt``: every member added rank, so ``M = L[S]^T`` is ``k x
    k`` and nonsingular, ``sigma_S = M^T M`` and ``G = M^-1 M^-T``.  ``H``
    inverts a block of ``Omega``, which exists only for a well-conditioned
    ``sigma``."""
    m_inv = np.linalg.inv(lt.take(sub, 1))
    return np.dot(m_inv, m_inv.T), np.linalg.inv(omega.take(sub, 0).take(sub, 1))


def _score_canon_corr(sigma, omega, lt, sub, comp: np.ndarray) -> np.ndarray:
    """CanonCorr's exact scores ``-cc(S + (i,))`` of the state with subset
    ``sub`` and factor rows ``lt``, when it has ``omega``, from the block
    inverses ``G = sigma_S^-1`` and ``H = (Omega_SS)^-1``, ``Omega =
    sigma^-1`` (:func:`_block_inverses`), in O(k^3 + k^2 (p - k)).

    By the partitioned inverse ``(Omega_SS)^-1 = sigma_S - sigma_{S,C}
    sigma_C^-1 sigma_{C,S}``, so ``-cc(S) = tr(G H) - k``.  Bordering both
    inverses by candidate i, with ``d = G sigma_{S,i}``, ``e = H
    Omega_{S,i}`` and the Schur complements ``s = sigma_ii - sigma_{i,S} d``
    and ``t = Omega_ii - Omega_{i,S} e``, gives

        -cc(S + (i,)) = tr(G H) + e^T G e / t + d^T H d / s
                        + (d^T e + 1)^2 / (s t) - (k + 1).

    Every product pairs a ``sigma`` entry with an ``Omega`` entry, so
    rescaling a variable leaves the terms unchanged.  ``s / sigma_ii`` and
    ``t / Omega_ii`` are at least the smallest eigenvalue of the
    unit-diagonal ``sigma``, ``1 / CC_COND_MAX`` or more, far above their
    roundoff.  The cancellations in ``t`` and in the sum cost about ``eps *
    cond^2`` absolute, which is why ``omega`` exists only up to
    ``CC_COND_MAX``.
    """
    if comp.size == 1:
        return np.zeros(1)  # S + (i,) is every variable: no correlation left
    g, h = _block_inverses(lt, omega, sub)
    cross = sigma.take(sub, 0).take(comp, 1)
    cross_omega = omega.take(sub, 0).take(comp, 1)
    d = np.dot(g, cross)
    e = np.dot(h, cross_omega)
    s = sigma.diagonal()[comp] - np.einsum("ij,ij->j", cross, d)
    t = omega.diagonal()[comp] - np.einsum("ij,ij->j", cross_omega, e)
    scores = np.einsum("ij,ij->j", e, np.dot(g, e)) / t
    scores += np.einsum("ij,ij->j", d, np.dot(h, d)) / s
    scores += (np.einsum("ij,ij->j", d, e) + 1.0) ** 2 / (s * t)
    return scores + (float(np.sum(g * h)) - (len(sub) + 1))


def _score_canon_corr_ginv(sigma, s, comp: np.ndarray) -> np.ndarray:
    """CanonCorr's scores of the state with subset ``s`` when it has no
    ``omega`` (``sigma`` singular or its unit-diagonal condition number
    above ``CC_COND_MAX``), all candidates at once, from generalised
    inverses of the complement block and the selected one.  With ``C =
    comp`` the ascending complement of the subset ``S`` (size k), ``Cp =
    ginv(sigma_C)`` (:func:`csskit.symmat.ginv`), ``A = sigma_{S,C} Cp``,
    leverages ``l = diag(sigma_C Cp)`` and the swapped residual ``K =
    sigma_S - A sigma_{C,S}`` (the residual of ``S`` on ``C``), the score
    of candidate i at position j of C, with ``V = S + (i,)``, is

        f(i) = <G_V[:k, :k], K>
             + x^T G_V x / Cp_jj    [if Cp_jj > 0 and l_j ~ 1]
             - 1{i adds rank to S}

    with ``x = (A[:, j], l_j)`` and ``G_V`` a generalised inverse of
    ``sigma_V``.  Taking i out of the conditioning set adds
    ``x x^T / Cp_jj`` to the residual of V when i lies outside the span of
    the rest of C (its leverage is then 1) and nothing otherwise, so
    ``f(i) + const = -cc(V)``: order-equivalent to evaluate on V.  The
    value is the same with any generalised inverse of ``sigma_C`` or
    ``sigma_V``.

    ``G_V`` is built from ``G = ginv(sigma_S)`` in closed form: with ``b =
    sigma_{S,i}``, ``d = G b`` and Schur complement ``s = sigma_ii - b^T
    d``, it is ``G`` bordered by ``d / s`` and ``1 / s`` when i adds rank
    (``w = 1/s``), and the zero-padded ``G`` when it does not (``w = 0``), so

        <G_V[:k, :k], K> = <G, K> + w d^T K d
        x^T G_V x = A_j^T G A_j + w (d^T A_j - l_j)^2

    for every candidate from a few k x (p - k) products.

    Every rank decision is made relative to each variable's own variance:
    the leverages are those of the unit-diagonal block, and whether i adds
    rank to S is :func:`csskit.symmat.adds_rank`.  So, like the canonical
    correlations themselves, the scores do not depend on the units of any
    one variable.
    """
    cross = sigma[np.ix_(s, comp)]
    sigma_c = sigma[np.ix_(comp, comp)]
    cp = symmat.ginv(sigma_c)
    a = cross @ cp
    swapped = sigma[np.ix_(s, s)] - a @ cross.T
    swapped = (swapped + swapped.T) / 2.0
    lev = np.einsum("ij,ji->i", sigma_c, cp)
    g = symmat.ginv(sigma[np.ix_(s, s)])
    c = sigma.diagonal()[comp]
    d = g @ cross
    schur = c - np.einsum("ij,ij->j", cross, d)
    adds = symmat.adds_rank(schur, c)
    w = np.divide(1.0, schur, out=np.zeros_like(schur), where=adds)
    term1 = float(np.sum(g * swapped)) + w * np.einsum("ij,ij->j", d, swapped @ d)
    cjj = cp.diagonal()
    # leverage 1 within the rank cutoff taken on the singular-value scale
    outside = (cjj > 0.0) & (1.0 - lev <= math.sqrt(RANK_TOL))
    quad = np.einsum("ij,ij->j", a, g @ a) + w * (np.einsum("ij,ij->j", d, a) - lev) ** 2
    term2 = np.divide(quad, cjj, out=np.zeros_like(quad), where=outside)
    return term1 + term2 - adds


# ---------------------------------------------------------------------------
# Objective readout from a live state
# ---------------------------------------------------------------------------


def objective_from_state(criterion: Criterion, state: SubsetState) -> float:
    """Objective of the state's subset, read from its factor as a stack of
    one (:func:`objective_stack`).  Agrees with :func:`evaluate` to
    update-roundoff (tested at 1e-8)."""
    return float(objective_stack(criterion, StateStack.of_state(state))[0])


def objective_stack(criterion: Criterion, stack: StateStack) -> np.ndarray:
    """The objective of every row of a stack, read from its factor.

    CssTrace sums ``diag R``.  DiagDet and IsoLrt read ``log det(sigma_S)``
    as ``2 log|det L[S]|`` in O(k^3): ``-inf`` with a side list, whose zero
    column makes ``L[S]`` singular (the pivot rule's singular block).  DetResidual and FrobResidual form each row's complement block
    of ``R``, whose log-determinant DetResidual reads on the complement's
    own variances (:func:`csskit.symmat.log_det`).  CanonCorr reads ``tr(G
    H) - k`` in O(k^3) per row (see :func:`_score_canon_corr`) with
    ``omega`` and falls back to :func:`evaluate` without.
    """
    sigma, fac, kind = stack.sigma, stack.factor, criterion.kind
    n, k = stack.subset.shape
    if kind == CriterionKind.CSS_TRACE:
        return fac.diag.sum(axis=1)
    if kind == CriterionKind.CANON_CORR:
        if stack.omega is None:
            return np.array([evaluate(criterion, sigma, sub) for sub in stack.subset.tolist()])
        if k == criterion.p:
            return np.zeros(n)  # no complement, as in evaluate
        pairs = (_block_inverses(lt, stack.omega, sub) for lt, sub in zip(fac.lt, stack.subset))
        return np.array([float(np.sum(g * h)) - k for g, h in pairs])
    comp = _complements(sigma.shape[0], stack.subset)
    var = sigma.diagonal()[comp]
    if kind in (CriterionKind.DIAG_DET, CriterionKind.ISO_LRT):
        # sigma_S = M^T M with the square M = L[S]^T, so log det(sigma_S) is
        # 2 log|det M|, from one LU of M per row (-inf with a side list)
        ld_block = 2.0 * np.linalg.slogdet(_gather(fac.lt, stack.subset))[1]
        return _readout_rows(criterion, fac.diag[np.arange(n)[:, None], comp], var, ld_block)
    blocks = (fac.map(lambda a: a[b]).block(sigma, comp[b]) for b in range(n))
    if kind == CriterionKind.FROB_RESIDUAL:
        return np.array([float(np.sum(block * block)) for block in blocks])
    return np.array([symmat.log_det(block, v) for block, v in zip(blocks, var)])
