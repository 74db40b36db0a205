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
variable as it joins.  :func:`evaluate` applies it to the pivots of one
pivoted Cholesky of the selected block on its own variances
(``symmat._pivots``), under CanonCorr to the complement's block too
(:func:`cc_sum`), and, with the readout of DetResidual, to the
complement's residual block on the complement's own variances through
:func:`csskit.symmat.log_det`.  Only CanonCorr's scorer of a singular or
ill-conditioned ``sigma`` forms generalised inverses
(:func:`csskit.symmat.ginv`), for the terms of its one formula.  No
decision depends on the units of a variable.

:func:`evaluate` computes from scratch.  All but CanonCorr regress on the
members ``R`` of ``S`` that add rank by those pivots: with ``D sigma_S D =
L L^T`` over them, ``b = L^-1 D sigma[R, :]`` gives ``diag R = diag sigma -
colsum(b^2)`` in O(pk^2), and the same pivots give ``log det(sigma_S)``.
Only DetResidual and FrobResidual form a block of ``R``, the complement's,
as ``sigma_CC - b_C^T b_C``, and only DiagDet and IsoLrt read ``log
det(sigma_S)``.  CanonCorr whitens ``S`` and its complement ``C`` alike,
``D sigma_C D = L_C L_C^T`` over the members of ``C`` that add rank, and
reads ``-||L^-1 D sigma_{S,C} D L_C^-T||_F^2`` (:func:`cc_sum`), with no
generalised inverse.

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
CssTrace and IsoLrt, and the complement's ``(p-k)``-block of ``R`` for
DiagDet and FrobResidual.  CanonCorr reads no residual: one scorer
(:func:`_score_canon_corr`) scores every candidate by one formula from the
inverse ``G`` of ``sigma_S``, the residual ``K`` of ``S`` on its
complement ``C`` and the regression of ``S`` on ``C``, with two sources
for them.  When the condition number of the unit-diagonal ``sigma`` is at
most ``CC_COND_MAX`` (1e4), :func:`init_state` inverts it once per search
(:func:`csskit.symmat.inverse`: one Cholesky, and the rule from norm
bounds, or from its eigenvalues where they leave it open), and
the terms come from ``Omega = sigma^-1`` with no ``(p - k)``-block: ``G``
from the factor and ``K = (Omega_SS)^-1``, each in O(k^3), so every
candidate is scored exactly in O(k^3 + k^2 (p - k)), and
:func:`objective_stack` reads ``-cc(S) = <G, K> - k`` in O(k^3).  On a
singular or worse-conditioned ``sigma`` they come from generalised
inverses of the selected and the complement block, the scores are exact up
to one constant, and the objective is :func:`evaluate`'s.

There is one state type and one move path.  A state is a stack of one:
:func:`init_state` and :func:`state_from_subset` return one, and
:func:`advance`, :func:`retract`, :func:`score_all` and
:func:`objective_from_state` check that it has one row and run the stacked
functions on it.  Greedy, a single run and every lockstep group of swap's
restarts move stacks through :func:`advance_stack`, :func:`retract_stack`,
:func:`score_stack` and :func:`objective_stack`.  Every product is a
per-row BLAS call or an elementwise operation (all but CanonCorr score all
rows with one numpy call per step; CanonCorr scores, and DetResidual's
log-determinant and CanonCorr read, one row at a time), so each row comes
out bit for bit as it does in a stack of one.

Inputs are checked once, where they enter: ``sigma`` in :func:`init_state`,
a subset in :func:`state_from_subset`, an index in :func:`advance`, a
position in :func:`retract`, and the one row of a state in the four
functions of a single state; the stacked functions and the kernels trust
the state (a search takes its moves from the rows).
"""

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence, Tuple

import numpy as np

from . import symmat
from .errors import DimMismatch, NotPSD
from .symmat import RANK_TOL, SymMatrix


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

# Largest condition number of the unit-diagonal sigma at which CanonCorr's
# scorer takes its terms from sigma^-1 (see _score_canon_corr); above it,
# from generalised inverses of the complement.  It decides accuracy, not the
# formula.  Terms from sigma^-1 lose about eps * cond^2, while
# one near-linear dependency puts the candidates' -cc values about 1 / cond
# apart.  On random rescaled sigma (p = 5-15, one tiny eigenvalue or a
# spread spectrum), greedy and 2-restart swap runs matched the complement
# scorer's subsets and objectives in all 700 runs at cond 1e2-1e4 and
# differed in 1 of 150 at 1e4-1e5; with one tiny eigenvalue, single picks
# missed the 50-digit argmin in 80-113 of 300 instances per decade at
# 1e6-1e10, where the complement scorer missed none.
CC_COND_MAX = 1e4


# ---------------------------------------------------------------------------
# From-scratch evaluation (the definitional path; searches use score_*)
# ---------------------------------------------------------------------------


def evaluate(criterion: Criterion, sigma: SymMatrix, subset: Sequence[int]) -> float:
    """Objective value of ``subset`` under ``criterion``, from scratch.

    The subset may be any size (greedy evaluates its prefixes).  Every
    criterion reads it in ascending order, so its value does not depend on
    its order, not even by roundoff: restarts of swap that reach one set tie
    exactly.  All but CanonCorr regress on the members that add rank by the
    pivots of one Cholesky factor of ``sigma_S`` on its own variances, in
    ascending order, or largest first once a pivot nears the cutoff
    (:func:`_whiten`), and invert nothing else; CanonCorr whitens ``S`` and
    its complement alike (:func:`cc_sum`).  A state takes its pivots in the
    order its members joined.  This is the reference implementation the
    incremental paths are tested against.
    """
    sigma = np.asarray(sigma, dtype=float)
    p = criterion.p
    if sigma.shape != (p, p):
        raise DimMismatch(f"sigma shape {sigma.shape} does not match p={p}")
    u = symmat.check_subset(p, subset)
    comp = symmat.complement(p, u)
    kind = criterion.kind

    if kind == CriterionKind.CANON_CORR:
        # 0.0 - x is -x bit for bit, and +0.0 where cc_sum reads an empty side
        return 0.0 - cc_sum(sigma, u, comp)

    # One pivoted Cholesky of sigma_S on its own variances, D sigma_S D =
    # L L^T over the members R that add rank (symmat._pivots), and b = L^-1
    # D sigma[R, :], so that b^T b is the part of sigma that R explains:
    # diag R = diag sigma - colsum(b^2) in O(p k^2), and only a block
    # criterion forms R[-S, -S] = sigma[-S, -S] - b[:, -S]^T b[:, -S]
    idx = np.array(sorted(u), dtype=np.intp)
    var = sigma.diagonal()
    d = 1.0 / np.sqrt(np.where(var > 0.0, var, 1.0))
    ranked, l, pivots = _whiten(sigma, d, idx)
    # log det sigma_S from the same pivots; a singular sigma_S is -inf (an
    # indefinite one raised NotPSD in symmat._pivots)
    ld = np.sum(np.log(pivots)) + np.sum(np.log(var[idx])) if ranked.size == idx.size else -np.inf
    # L^-1 by one k x k inverse and one product: numpy's solve against the
    # p columns of D sigma[R, :] took about ten times as long at p = 774
    b = np.linalg.inv(l) @ (d[ranked, None] * sigma[ranked])
    diag = np.maximum(var - np.einsum("ij,ij->j", b, b), 0.0)
    if kind == CriterionKind.CSS_TRACE:
        return float(np.sum(diag))
    if kind in (CriterionKind.DIAG_DET, CriterionKind.ISO_LRT):
        return float(_readout_rows(kind, p - criterion.k, diag[comp][None], var[comp][None], np.array([ld]))[0])
    bc = b[:, comp]
    block = sigma[np.ix_(comp, comp)] - np.dot(bc.T, bc)  # exactly symmetric (syrk)
    if kind == CriterionKind.FROB_RESIDUAL:
        return float(np.sum(block * block))
    return symmat.log_det(block, var[comp])


def cc_sum(sigma: SymMatrix, a: Sequence[int], b: Sequence[int]) -> float:
    """Sum of squared canonical correlations between column sets ``a`` and
    ``b`` under covariance ``sigma``, each side read in ascending order.

    Each side is whitened by the pivots of one Cholesky factor of its block
    on its own variances (:func:`_whiten`): with ``D sigma[r, r] D = L
    L^T`` over the members ``r`` that add rank, the value is ``||L_a^-1
    X[r_a, r_b] L_b^-T||_F^2``, ``X = D sigma D``.  A member that adds no
    rank lies in the span of its side's ranked members, so it adds no
    canonical correlation, and a zero variance none at all.  No generalised
    inverse and no eigenvector is formed; an indefinite side raises
    :class:`NotPSD`."""
    sigma = np.asarray(sigma, dtype=float)
    p = symmat.check_square(sigma)
    sides = [np.array(sorted(symmat.check_subset(p, side)), dtype=np.intp) for side in (a, b)]
    if not (sides[0].size and sides[1].size):
        return 0.0
    var = sigma.diagonal()
    d = 1.0 / np.sqrt(np.where(var > 0.0, var, 1.0))
    (ra, la, _), (rb, lb, _) = (_whiten(sigma, d, side) for side in sides)
    # two solves against the |a| rows of X: inverting L_b cost twice as
    # much at |b| = 114
    w = np.linalg.solve(lb, np.linalg.solve(la, d[ra, None] * sigma[np.ix_(ra, rb)] * d[rb]).T)
    return float(np.sum(w * w))


def _whiten(sigma: SymMatrix, d: np.ndarray, idx: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One pivoted Cholesky of ``D sigma[idx, idx] D`` (``symmat._pivots``):
    ``(ranked, l, pivots)``, the members of ``idx`` that add rank, as
    indices of ``sigma`` in pivot order, the lower factor ``L`` of their
    block, ``D sigma[ranked, ranked] D = L L^T``, and its pivots.  Raises
    :class:`NotPSD` when the block is indefinite."""
    ranked, l, pivots = symmat._pivots(d[idx, None] * sigma.take(idx, 0).take(idx, 1) * d[idx])
    return idx[ranked], l, pivots


def _readout_rows(kind: CriterionKind, m: int, diag, var, ld_block) -> np.ndarray:
    """DiagDet or IsoLrt (``kind``, IsoLrt's exponent ``m``, ``p - k`` for
    a criterion) of ``B`` subsets at once: row ``b`` of ``diag`` and
    ``var`` is a complement's residual and own variances, ``ld_block[b]``
    its subset's ``log det(sigma_S)``.  A variable of the complement that
    does not add rank to ``S`` is fit perfectly: one sends DiagDet to
    ``-inf``, IsoLrt needs all of them.  The size test reads the empty
    subset here (``m = p``), which no :class:`Criterion` describes."""
    fits = ~symmat.adds_rank(diag, var)
    if kind == CriterionKind.ISO_LRT:
        rows = zip(ld_block.tolist(), diag.sum(axis=1).tolist(), fits.all(axis=1).tolist())
        return np.array([float("-inf") if all_fit else ld + m * math.log(total / m) for ld, total, all_fit in rows])
    with np.errstate(divide="ignore"):
        out = ld_block + np.log(diag).sum(axis=1)
    out[fits.any(axis=1)] = float("-inf")
    return out


# ---------------------------------------------------------------------------
# The state: a stack of rows
# ---------------------------------------------------------------------------


@dataclass
class StateStack:
    """``B`` states of one size ``k`` over one ``sigma``, one per row: the
    one state type of the package.  A single state is a stack of one.

    ``subset`` (``B x k``) holds each row's subset in state order, and
    ``factor`` a stack of :class:`csskit.symmat.Factor` rows (``lt`` ``B x
    k x P``, ``diag`` and ``diag_sq`` ``B x p``): row ``b`` carries its
    residual covariance ``R = sigma - L L^T`` by its factor, never as a
    dense matrix.  ``L`` has one column per member.  A member that added no
    rank to the ones before it when it joined sits on the row's side list:
    its column is zero, as it leaves the residual unchanged, so the
    selected block ``L[S] L[S]^T`` is singular exactly when the side list is
    not empty.  ``sigma`` is a read-only reference to the source matrix.
    For CanonCorr on a ``sigma`` whose unit-diagonal form has condition
    number at most ``CC_COND_MAX``, ``omega`` is a read-only reference to
    ``sigma^-1``, the source of the CanonCorr scorer's terms; otherwise it
    is None, and the scorer takes them from generalised inverses.  Every
    row of a search shares both.

    :func:`advance_stack` and :func:`retract_stack` run the kernels
    :func:`csskit.symmat.residual_add` and
    :func:`csskit.symmat.residual_remove` on the whole stack and return a
    new one, and :func:`score_stack` and :func:`objective_stack` score and
    read every row.  A row with a side list stays on the stack.  Every
    product is a per-row BLAS call or an elementwise operation, so a row's
    values do not depend on the other rows or on ``B``.
    """

    subset: np.ndarray
    factor: symmat.Factor
    sigma: np.ndarray
    omega: Optional[np.ndarray] = None

    @classmethod
    def empty(cls, sigma: np.ndarray, omega: Optional[np.ndarray], squares: bool) -> "StateStack":
        """The stack of one of the empty subset, ``R = sigma``, carrying
        ``diag R^2`` when ``squares``.  Trusts ``sigma`` (see
        :func:`init_state`)."""
        factor = symmat.Factor.empty(sigma, squares).map(lambda a: a[None])
        return cls(np.zeros((1, 0), dtype=np.intp), factor, sigma, omega)

    @classmethod
    def of_subsets(cls, empty: "StateStack", subsets: np.ndarray) -> "StateStack":
        """The states of ``subsets`` (``B x k``, state order), grown from
        ``empty``, a stack of one of the empty subset, by one
        :func:`advance_stack` per column."""
        factor = empty.factor.map(lambda a: np.repeat(a, len(subsets), axis=0))
        stack = cls(np.zeros((len(subsets), 0), dtype=np.intp), factor, empty.sigma, empty.omega)
        for picks in subsets.T:
            stack = advance_stack(stack, picks)
        return stack

    def take(self, rows) -> "StateStack":
        """The stack of the given rows (a boolean mask or indices)."""
        return StateStack(self.subset[rows], self.factor.map(lambda a: a[rows]), self.sigma, self.omega)

    def put(self, rows, other: "StateStack"):
        """Overwrite the given rows with ``other``'s, in place."""
        self.subset[rows] = other.subset
        for mine, theirs in zip(self.factor, other.factor):
            if mine is not None:
                mine[rows] = theirs


# ---------------------------------------------------------------------------
# State construction and the moves of a single state
# ---------------------------------------------------------------------------


def init_state(criterion: Criterion, sigma: SymMatrix) -> StateStack:
    """Fresh state for the empty subset, a ``1 x 0`` stack, and the one
    check of its ``sigma``: :func:`csskit.symmat.as_symmetric`, shape ``p x
    p``, and no negative diagonal entry (:class:`NotPSD`).  Moves and scores
    trust ``state.sigma``.

    Under CanonCorr this also factors ``sigma``, once per search:
    :func:`csskit.symmat.inverse` gives ``omega = sigma^-1`` from one
    Cholesky factor (no eigenvectors), or None when ``sigma`` is singular
    or its unit-diagonal condition number exceeds ``CC_COND_MAX``, and
    raises :class:`NotPSD` when it is indefinite.  The condition number is
    bounded by norms of ``sigma`` and ``omega``; the eigenvalues of
    ``sigma`` are read only when the bounds straddle ``CC_COND_MAX``, when
    a variance is zero or when the Cholesky fails.
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
    return StateStack.empty(sigma, omega, criterion.kind in _SQUARES)


def state_from_subset(
    criterion: Criterion, sigma: SymMatrix, subset: Sequence[int]
) -> StateStack:
    """State for an explicit subset (:func:`csskit.symmat.check_subset`),
    a stack of one grown from :func:`init_state` by one advance per
    member."""
    empty = init_state(criterion, sigma)
    row = np.array(symmat.check_subset(criterion.p, subset), dtype=np.intp)
    return StateStack.of_subsets(empty, row[None])


def _subset_of_one(state: StateStack) -> np.ndarray:
    """The subset of a state, which must be a stack of one row, else
    :class:`DimMismatch`."""
    if len(state.subset) != 1:
        raise DimMismatch(f"a state is a stack of one row, got {len(state.subset)} rows")
    return state.subset[0]


def advance(
    criterion: Criterion, state: StateStack, sigma: SymMatrix, i: int
) -> StateStack:
    """Grow the state by variable ``i`` (appended to the subset order):
    :func:`advance_stack` on the state, a stack of one.  Returns a new
    state; the input is not modified.  ``i`` must lie in ``[0, p)`` and not
    be selected yet, else :class:`DimMismatch`.  The move reads
    ``state.sigma``, not its ``sigma`` argument.
    """
    sub = _subset_of_one(state)
    i = symmat.as_index(i)
    if not 0 <= i < criterion.p or i in sub:
        raise DimMismatch(f"cannot append index {i} to subset {tuple(sub.tolist())}")
    return advance_stack(state, np.array([i]))


def retract(
    criterion: Criterion, state: StateStack, sigma: SymMatrix, position: int
) -> StateStack:
    """Drop the subset entry at ``position``, undoing its contribution:
    :func:`retract_stack` on the state, a stack of one.  Returns a new
    state.  ``position`` must lie in ``[0, k)``, else :class:`DimMismatch`.
    The move reads ``state.sigma``, not its ``sigma`` argument.
    """
    sub = _subset_of_one(state)
    position = symmat.as_index(position)
    if not 0 <= position < len(sub):
        raise DimMismatch(f"position {position} out of range for subset size {len(sub)}")
    return retract_stack(state, sub[position : position + 1])


# ---------------------------------------------------------------------------
# The moves: many states of one size at once
# ---------------------------------------------------------------------------


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


def _blocks(sigma: np.ndarray, lt: np.ndarray, cands: np.ndarray) -> np.ndarray:
    """``R[C, C] = sigma[C, C] - L[C]^T L[C]`` of every row ``b``, ``C =
    cands[b]``, ``B x m x m``, by one gather and one batched syrk."""
    li = _gather(lt, cands)
    out = sigma.take(cands[:, :, None] * sigma.shape[0] + cands[:, None, :])
    out -= np.matmul(li.transpose(0, 2, 1), li)
    return out


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
        empty = StateStack.empty(stack.sigma, stack.omega, stack.factor.diag_sq is not None)
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


def score_all(criterion: Criterion, state: StateStack) -> Tuple[np.ndarray, np.ndarray]:
    """Scores for appending each variable outside the subset to it.

    Returns ``(candidates, scores)``, the candidates being the complement of
    the subset in ascending order.  Scores are order-equivalent to
    ``evaluate`` on the grown subset: the argmin candidate is the same, and
    ties are broken toward the lowest index by taking the first minimum.
    ``-inf`` marks a perfect fit under DiagDet/IsoLrt, decided by the same
    rank rule as ``evaluate``.  CanonCorr scores of a state with ``omega``
    are the exact values of ``evaluate``; without it they are the same
    scores plus ``k``, one constant (:func:`_score_canon_corr`).  The
    state, a stack of one, is scored by :func:`score_stack`.
    """
    if _subset_of_one(state).size == criterion.p:
        return np.zeros(0, dtype=np.intp), np.zeros(0)
    cands, scores = score_stack(criterion, state)
    return cands[0], scores[0]


def score_stack(criterion: Criterion, stack: StateStack) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`score_all` of every row of a stack: ``(candidates, scores)``,
    each ``B x (p - k)``, row ``b`` as :func:`score_all` gives it for the
    stack of that row alone."""
    cands = _complements(stack.sigma.shape[0], stack.subset)
    return cands, _score_rows(criterion, stack, cands)


def _score_rows(criterion: Criterion, stack: StateStack, cands: np.ndarray) -> np.ndarray:
    """Scores of the ``B`` states of ``stack`` for their candidates
    ``cands`` (``B x m``).  All but CanonCorr score all rows with one numpy
    call per step.  CssTrace and IsoLrt read the carried ``diag R^2`` (a
    near fit's, and under IsoLrt the trace left by a candidate that leaves
    little, from its residual column), DetResidual ``-diag R``, and DiagDet
    and FrobResidual the candidates' ``(p - k)``-block of ``R``
    (:func:`_blocks`).  CanonCorr runs its one scorer,
    :func:`_score_canon_corr`, once per row, with the terms from ``omega``
    or, without it, from generalised inverses."""
    sigma, fac, kind = stack.sigma, stack.factor, criterion.kind
    if kind == CriterionKind.CANON_CORR:
        rows = zip(fac.lt, stack.subset, cands)
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
        # S's rows of R are 0, so with B = R[C, C] candidate i has |r_i|^2 =
        # (B^2)_ii and r_i^T R r_i = (B^3)_ii, the row sum of B^2 * B
        blocks = _blocks(sigma, lt, cands)
        sq = np.matmul(blocks, blocks)
        colsq = np.einsum("bii->bi", sq).copy()
        sq *= blocks
        cubic = sq.sum(axis=2)
        return np.where(ok, (colsq / safe) ** 2 - 2.0 * cubic / safe, 0.0)

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
            # rest, the trace left once the candidate joins, differences the
            # carried diag R^2, whose error is absolute; at most
            # sqrt(RANK_TOL) * trace(sigma) it is read from the candidate's
            # residual column instead, as the sum of what each variable
            # keeps, and it is 0 (-inf) when every variable is then fit
            # perfectly by the rank rule of evaluate (the subset's own rows
            # are 0; a candidate that adds no rank is -inf by its own term)
            near = ok & (rest <= math.sqrt(RANK_TOL) * np.trace(sigma))
            if near.any():
                for b in np.flatnonzero(near.any(axis=1)):
                    at = np.flatnonzero(near[b])
                    cols = fac.map(lambda a: a[b]).columns(sigma, cands[b, at])
                    left = np.maximum(diag_all[b][:, None] - cols**2 / safe[b, at], 0.0)
                    fit = ~symmat.adds_rank(left, sigma.diagonal()[:, None]).any(axis=0)
                    rest[b, at] = np.where(fit, 0.0, left.sum(axis=0))
            return head + k * np.log(rest)

        # DiagDet: row i of the candidates' block of R gives candidate i's
        # terms R_jj - R_ij^2 / R_ii; all in place, in one order for every row
        terms = _blocks(sigma, lt, cands)
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
    """``G = sigma_S^-1`` and ``K = (Omega_SS)^-1`` (subset order ``sub``),
    the residual of ``S`` on its complement, of a state with ``omega``, each
    in O(k^3).  ``G`` comes from the factor's ``lt``: every member added
    rank, so ``M = L[S]^T`` is ``k x k`` and nonsingular, ``sigma_S = M^T
    M`` and ``G = M^-1 M^-T``.  ``K`` inverts a block of ``Omega``, which
    exists only for a well-conditioned ``sigma``.  Both ``k x k`` inverses
    come from one call on the stacked pair, the same bits as two."""
    m_inv, k_inv = np.linalg.inv(np.stack((lt.take(sub, 1), omega.take(sub, 0).take(sub, 1))))
    return np.dot(m_inv, m_inv.T), k_inv


def _score_canon_corr(sigma, omega, lt, sub, comp: np.ndarray) -> np.ndarray:
    """CanonCorr's scores of the state with subset ``sub`` and factor rows
    ``lt``, all candidates at once, from the complement: exact with
    ``omega``, up to one constant without.  With ``C = comp`` the ascending
    complement of the subset ``S`` (size k), ``G`` a generalised inverse of
    ``sigma_S``, the residual ``K = sigma_S - A sigma_{C,S}`` of ``S`` on
    ``C``, ``A = sigma_{S,C} Cp`` with ``Cp`` a generalised inverse of
    ``sigma_C`` and leverages ``l = diag(sigma_C Cp)``, the score of
    candidate i at position j of C, with ``V = S + (i,)``, is

        f(i) = <G_V[:k, :k], K>
             + x^T G_V x / Cp_jj    [if Cp_jj > 0 and l_j ~ 1]
             - 1{i adds rank to S}

    with ``x = (A[:, j], l_j)`` and ``G_V`` a generalised inverse of
    ``sigma_V``.  Taking i out of the conditioning set adds ``x x^T /
    Cp_jj`` to the residual of V when i lies outside the span of the rest
    of C (its leverage is then 1) and nothing otherwise, so ``f(i) - k =
    -cc(V)`` on a nonsingular ``sigma`` and ``f(i) + const = -cc(V)`` on
    any: order-equivalent to evaluate on V.  The value is the same with any
    generalised inverse of ``sigma_C`` or ``sigma_V``.

    ``G_V`` is built from ``G`` in closed form: with ``b = sigma_{S,i}``,
    ``d = G b`` and Schur complement ``s = sigma_ii - b^T d``, it is ``G``
    bordered by ``d / s`` and ``1 / s`` when i adds rank (``w = 1/s``), and
    the zero-padded ``G`` when it does not (``w = 0``), so

        <G_V[:k, :k], K> = <G, K> + w d^T K d
        x^T G_V x = A_j^T G A_j + w (d^T A_j - l_j)^2

    for every candidate from a few k x (p - k) products.

    The five inputs ``G``, ``K``, ``A``, ``l`` and ``Cp_jj`` come from one
    of two sources.  With ``omega = sigma^-1`` (a unit-diagonal condition
    number at most ``CC_COND_MAX``) no ``(p - k)``-block is formed: ``G =
    sigma_S^-1`` and ``K = (Omega_SS)^-1`` (:func:`_block_inverses`), ``A =
    -K Omega_{S,C}``, every leverage is 1 and ``Cp_jj = (sigma_C^-1)_jj =
    Omega_jj + Omega_{j,S} A_j``, and the scores are exact, ``f(i) - k``.
    Their cancellations cost about ``eps * cond^2`` absolute, which is why
    ``omega`` exists only up to ``CC_COND_MAX``.  Without it ``Cp`` and
    ``G`` are :func:`csskit.symmat.ginv` of ``sigma_C`` and ``sigma_S``, in
    O((p - k)^3) per score.

    Every rank decision is made relative to each variable's own variance:
    the leverages are those of the unit-diagonal block, and whether i adds
    rank to S is :func:`csskit.symmat.adds_rank`.  So, like the canonical
    correlations themselves, the scores do not depend on the units of any
    one variable.
    """
    cross = sigma.take(sub, 0).take(comp, 1)
    if omega is None:
        sigma_c = sigma.take(comp, 0).take(comp, 1)
        cp = symmat.ginv(sigma_c)
        a = cross @ cp
        sigma_s = sigma.take(sub, 0).take(sub, 1)
        swapped = sigma_s - a @ cross.T
        swapped = (swapped + swapped.T) / 2.0
        lev = np.einsum("ij,ji->i", sigma_c, cp)
        g = symmat.ginv(sigma_s)
        cjj = cp.diagonal()
    else:
        g, swapped = _block_inverses(lt, omega, sub)
        cross_omega = omega.take(sub, 0).take(comp, 1)
        a = np.dot(-swapped, cross_omega)
        lev = 1.0
        cjj = omega.diagonal()[comp] + np.einsum("ij,ij->j", cross_omega, a)
    c = sigma.diagonal()[comp]
    d = g @ cross
    schur = c - np.einsum("ij,ij->j", cross, d)
    adds = symmat.adds_rank(schur, c)
    w = np.divide(1.0, schur, out=np.zeros_like(schur), where=adds)
    term1 = float(np.sum(g * swapped)) + w * np.einsum("ij,ij->j", d, swapped @ d)
    # leverage 1 within the rank cutoff taken on the singular-value scale
    outside = (cjj > 0.0) & (1.0 - lev <= math.sqrt(RANK_TOL))
    quad = np.einsum("ij,ij->j", a, g @ a) + w * (np.einsum("ij,ij->j", d, a) - lev) ** 2
    term2 = np.divide(quad, cjj, out=np.zeros_like(quad), where=outside)
    scores = term1 + term2 - adds
    return scores if omega is None else scores - len(sub)


# ---------------------------------------------------------------------------
# Objective readout from a live state
# ---------------------------------------------------------------------------


def objective_from_state(criterion: Criterion, state: StateStack) -> float:
    """Objective of the state's subset, read from the factor of the state,
    a stack of one, by :func:`objective_stack`.  Agrees with
    :func:`evaluate` to update-roundoff (tested at 1e-8)."""
    _subset_of_one(state)
    return float(objective_stack(criterion, state)[0])


def objective_stack(criterion: Criterion, stack: StateStack) -> np.ndarray:
    """The objective of every row of a stack, read from its factor.

    CssTrace sums ``diag R``.  DiagDet and IsoLrt read ``log det(sigma_S)``
    as ``2 log|det L[S]|`` in O(k^3): ``-inf`` with a side list, whose zero
    column makes ``L[S]`` singular (the pivot rule's singular block).
    DetResidual and FrobResidual read each row's complement block of ``R``
    (:func:`_blocks`): its log-determinant on the complement's own variances
    (:func:`csskit.symmat.log_det`), its squared sum.  CanonCorr reads ``<G,
    K> - k`` in O(k^3) per row with ``omega``, the first term of
    :func:`_score_canon_corr` with ``G = sigma_S^-1`` and ``K =
    (Omega_SS)^-1`` (:func:`_block_inverses`), and falls back to
    :func:`evaluate` without.
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
        return _readout_rows(kind, criterion.p - criterion.k, fac.diag[np.arange(n)[:, None], comp], var, ld_block)
    blocks = _blocks(sigma, fac.lt, comp)
    if kind == CriterionKind.FROB_RESIDUAL:
        return np.einsum("bij,bij->b", blocks, blocks)
    return np.array([symmat.log_det(block, v) for block, v in zip(blocks, var)])
