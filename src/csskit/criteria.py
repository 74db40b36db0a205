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

Every rank decision is one of the two tests of :mod:`csskit.symmat`: a
variable adds rank to ``S``, and is not fit perfectly by it, when its
residual variance exceeds ``RANK_TOL`` times its own
(:func:`csskit.symmat.adds_rank`), and blocks go through
:func:`csskit.symmat.ginv` and :func:`csskit.symmat.log_det`.  No decision
depends on the units of a variable.

:func:`evaluate` computes from scratch.  It reads ``diag R`` in O(pk^2)
from the regression coefficients on ``S``; only DetResidual and
FrobResidual form a block of ``R``, the complement's.

Greedy and swap searches never rank candidates by re-evaluating from
scratch; they use :func:`score_all`, whose values are *order-equivalent* to
the objective (argmin over candidates matches argmin of ``evaluate`` on the
grown subset) but cheaper by at least one power of ``p``.  State is carried
by :class:`SubsetState`, the same for all six criteria: ``R`` never as a
dense matrix but by its factor ``R = sigma - L L^T``
(:class:`csskit.symmat.Factor`), with ``diag R`` and, for CssTrace and
IsoLrt, ``diag R^2``; the selected block ``sigma_S = L[S] L[S]^T`` is read
from it, never carried.  :func:`advance` appends a column to ``L`` in O(pr),
plus one ``sigma``-matvec under CssTrace and IsoLrt, and :func:`retract`
reflects one out in O(pr + r^3).  Scores then cost O(p) for DetResidual,
O(p) plus the near-perfect fits' residual columns for CssTrace and IsoLrt,
one ``(p-k)``-block of ``R`` for DiagDet, and the dense ``R`` for
FrobResidual.  CanonCorr reads no residual.  When the condition number of
the unit-diagonal ``sigma`` is at most ``CC_COND_MAX`` (1e4),
:func:`init_state` inverts it once per search
(:func:`csskit.symmat.inverse`, one eigendecomposition), and the state
carries ``H = (Omega_SS)^-1`` of ``Omega = sigma^-1``, updated in O(k^2).
With ``G = sigma_S^-1`` from the factor in O(k^3), the partitioned inverse
gives ``-cc(S) = tr(G H) - k``: :func:`score_all` scores every candidate
exactly in O(k^2 (p - k)) and :func:`objective_from_state` reads the
objective in O(k^3).  On a singular or worse-conditioned ``sigma`` each
:func:`score_all` call generalised-inverts the selected and the complement
block and scores every candidate from them, up to one constant, and the
objective is :func:`evaluate`'s.

Under DiagDet and IsoLrt, :class:`StateStack` holds many states of one
size on the fast path (no side list, a finite log-determinant), and
:func:`retract_stack`, :func:`score_stack`, :func:`advance_stack` and
:func:`objective_stack` move, score and read all of them with one numpy
call per step, which is where a small-p search spends its time with
several restarts; each row comes out bit for bit as the per-state function
gives it (the scorer is one for both: :func:`score_all` of such a state is
a stack of one).

Inputs are checked once, where they enter: ``sigma`` in :func:`init_state`,
an index in :func:`advance`, a position in :func:`retract`; the kernels
trust the state.
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
    bookkeeping.  ``IsoLrt`` requires ``k < p``.
    """

    kind: CriterionKind
    p: int
    k: int

    def __post_init__(self):
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
    """One ordered subset of one matrix, with what scoring and moves need.

    The residual covariance ``R = sigma - L L^T`` is carried by its factor
    (:class:`csskit.symmat.Factor`: ``L``, ``diag R``, and for CssTrace and
    IsoLrt also ``diag R^2`` and ``sigma L``), never as a dense matrix.
    ``L`` spans the members in ``ranked``, each of which added rank to the
    ones before it when it joined; the other members sit on a side list,
    because they leave the residual unchanged, and a retract
    that drops a ranked member re-tests them.  The selected block is not
    carried: it is ``L[S] L[S]^T``.  Next to the factor is the block's
    log-determinant (``-inf`` once the block goes numerically singular).
    ``sigma`` is a read-only reference to the source matrix.  For CanonCorr
    on a ``sigma`` whose unit-diagonal form has condition number at most
    ``CC_COND_MAX``, ``omega`` is a read-only reference to ``sigma^-1``,
    shared by every state of one search, and ``omega_block_inv`` the
    inverse of its selected block ``omega[S, S]`` (in subset order);
    otherwise both are None.

    With ``r = len(ranked)``, :func:`advance` costs O(pr) plus one
    ``sigma``-matvec under CssTrace and IsoLrt, and :func:`retract` O(pr +
    r^3) plus an advance for each side member it gives back its rank;
    CanonCorr's ``omega_block_inv`` adds O(k^2) to each.
    States are values, never updated in place: swap keeps the state from
    before a retract when it keeps the incumbent.
    """

    subset: IndexSet
    factor: symmat.Factor
    ranked: IndexSet
    log_det_block: float
    sigma: np.ndarray
    omega: Optional[np.ndarray] = None
    omega_block_inv: Optional[np.ndarray] = None

    @property
    def residual(self) -> np.ndarray:
        """The dense residual covariance ``sigma - L L^T``, O(p^2 r)."""
        return self.factor.residual(self.sigma)

    def complement(self) -> np.ndarray:
        return symmat.complement(self.sigma.shape[0], self.subset)


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
    block = None
    if kind in (CriterionKind.FROB_RESIDUAL, CriterionKind.DET_RESIDUAL):
        block = sigma[np.ix_(comp, comp)] - coef[comp] @ cols[comp].T
    if kind == CriterionKind.FROB_RESIDUAL:
        return float(np.sum(block * block))
    return _readout(criterion, diag[comp], var[comp], symmat.log_det(block_u), block)


def cc_sum(sigma: SymMatrix, a: Sequence[int], b: Sequence[int]) -> float:
    """Sum of squared canonical correlations between column sets ``a`` and
    ``b`` under covariance ``sigma``:
    ``trace(G_a sigma_ab G_b sigma_ba)`` with the generalised inverses
    ``G = ginv(.)`` of :func:`csskit.symmat.ginv`."""
    sigma = np.asarray(sigma, dtype=float)
    p = sigma.shape[0]
    aa = list(symmat.check_subset(p, a))
    bb = list(symmat.check_subset(p, b))
    if not aa or not bb:
        return 0.0
    cross = sigma[np.ix_(aa, bb)]
    # trace(G_a @ cross @ G_b @ cross.T) without forming products
    left = symmat.ginv(sigma[np.ix_(aa, aa)]) @ cross
    return float(np.sum(left * (cross @ symmat.ginv(sigma[np.ix_(bb, bb)]))))


def _readout(criterion: Criterion, diag, var, ld_block: float, block=None) -> float:
    """DetResidual, DiagDet and IsoLrt from the residual variances ``diag``
    of the complement (own variances ``var``), ``ld_block = log det(sigma_S)``
    and, for DetResidual only, the complement's residual ``block``.  A
    variable of the complement that does not add rank to ``S`` is fit
    perfectly: one sends DetResidual and DiagDet to ``-inf``, IsoLrt needs
    all of them.  DetResidual is also ``-inf`` when the block reads as
    indefinite but some direction of it is fit perfectly on the variables'
    own variances (the least eigenvalue of ``D block D``,
    ``D = diag(var)^(-1/2)``, is within ``RANK_TOL`` of zero), as on a
    rank-deficient ``sigma``; a block more negative than that still raises
    :class:`NotPSD`."""
    kind = criterion.kind
    if kind in STACKED:
        return float(_readout_rows(criterion, diag[None], var[None], np.array([ld_block]))[0])
    if np.any(~symmat.adds_rank(diag, var)):
        return float("-inf")
    if kind == CriterionKind.DET_RESIDUAL:
        try:
            return symmat.log_det(block)
        except NotPSD:
            # The block's error is absolute, so on its own tiny diagonal the
            # roundoff of a perfect fit (of a combination of the complement)
            # reads as indefinite.  On the variables' own variances, as the
            # rank rule reads them, that direction is a perfect fit; an
            # eigenvalue below -RANK_TOL there is a truly indefinite sigma.
            d = 1.0 / np.sqrt(var)
            lam = symmat.eigh_desc(d[:, None] * block * d[None, :]).values[-1]
            if abs(lam) <= RANK_TOL:
                return float("-inf")
            raise
    raise DimMismatch(f"unknown criterion kind {kind}")


def _readout_rows(criterion: Criterion, diag, var, ld_block) -> np.ndarray:
    """DiagDet or IsoLrt of ``B`` subsets at once, as :func:`_readout`:
    row ``b`` of ``diag`` and ``var`` is a complement's, ``ld_block[b]``
    its subset's ``log det(sigma_S)``."""
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
    return SubsetState(
        subset=(),
        factor=symmat.Factor.empty(sigma, criterion.kind in _SQUARES),
        ranked=(),
        log_det_block=0.0,
        sigma=sigma,
        omega=omega,
        omega_block_inv=None if omega is None else np.zeros((0, 0)),
    )


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
    """Grow the state by variable ``i`` (appended to the subset order).

    :func:`csskit.symmat.residual_add` appends ``i``'s column to the
    residual factor, or puts ``i`` on the side list when its pivot ``R_ii``
    adds no rank, the move's one rank test; the pivot updates the block's
    log-determinant (``log det(sigma_{U+i}) = log det(sigma_U) +
    log(R_ii)``), and :func:`csskit.symmat.pinv_add` on ``omega`` grows
    CanonCorr's ``omega_block_inv``.  Cost O(pr), plus one ``sigma``-matvec
    under CssTrace and IsoLrt.  Returns a new state; the input is not
    modified.  ``i`` must lie in ``[0, p)`` and not be selected yet, else
    :class:`DimMismatch`.  The move reads ``state.sigma``, not its
    ``sigma`` argument.
    """
    i = int(i)
    if not 0 <= i < criterion.p or i in state.subset:
        raise DimMismatch(f"cannot append index {i} to subset {state.subset}")
    sigma = state.sigma
    pivot = float(state.factor.diag[i])
    adds = symmat.adds_rank(pivot, sigma[i, i])
    factor = symmat.residual_add(sigma, state.factor, i)
    ranked = state.ranked + (i,) if adds else state.ranked
    if adds and math.isfinite(state.log_det_block):
        new_ld = state.log_det_block + math.log(pivot)
    else:
        new_ld = float("-inf")
    omega, h = state.omega, state.omega_block_inv
    if omega is not None:
        h = symmat.pinv_add(h, omega, state.subset, i)
    return SubsetState(state.subset + (i,), factor, ranked, new_ld, sigma, omega, h)


def retract(
    criterion: Criterion, state: SubsetState, sigma: SymMatrix, position: int
) -> SubsetState:
    """Drop the subset entry at ``position``, undoing its contribution.

    A side-list member leaves the residual as it is.  A ranked member ``v``
    leaves ``R + h h^T``, with ``h = beta / sqrt(beta_v)`` and ``beta`` its
    residual profile on the other ranked members ``A'``.  Since ``h`` is 0
    on ``A'``, ``h = L c`` for the ``c`` that solves ``L[A] c = e_v``
    (``L[A]`` is square and nonsingular, as every ranked member added rank),
    with ``|c|^2 = 1 / beta_v``, the pivot;
    :func:`csskit.symmat.residual_remove` reflects it out of the factor.
    :func:`retract_stack` does the same for many DiagDet or IsoLrt states
    at once.  Each side-list member is then re-tested and appended to the
    factor if it adds rank to what is left.

    CanonCorr's ``omega_block_inv``, the inverse of a block of a
    nonsingular matrix, is downdated by :func:`csskit.symmat.pinv_remove`.
    Cost O(pr + r^3), plus a ``sigma``-matvec per side member given back
    its rank.  ``position`` must lie in ``[0, k)``, else
    :class:`DimMismatch`.  The move reads ``state.sigma``, not its
    ``sigma``.
    """
    k = len(state.subset)
    if not 0 <= position < k:
        raise DimMismatch(f"position {position} out of range for subset size {k}")
    sigma = state.sigma
    var = state.subset[position]
    new_subset = state.subset[:position] + state.subset[position + 1 :]
    factor, ranked, pivot = state.factor, state.ranked, 0.0
    if var in ranked:
        q = ranked.index(var)
        e = np.zeros(len(ranked))
        e[q] = 1.0
        c = np.linalg.solve(factor.lt.take(ranked, 1).T, e)
        pivot = 1.0 / float(np.dot(c, c))
        factor = symmat.residual_remove(factor, c)
        ranked = ranked[:q] + ranked[q + 1 :]
        if len(ranked) < len(new_subset):  # re-test the side list
            for j in new_subset:
                if j not in ranked and symmat.adds_rank(factor.diag[j], sigma[j, j]):
                    factor = symmat.residual_add(sigma, factor, j)
                    ranked += (j,)
    if symmat.adds_rank(pivot, sigma[var, var]) and math.isfinite(state.log_det_block):
        new_ld = state.log_det_block - math.log(pivot)
    else:
        idx = list(new_subset)
        new_ld = symmat.log_det(sigma[np.ix_(idx, idx)])
    h = state.omega_block_inv
    if h is not None:
        h = symmat.pinv_remove(h, position)
    return SubsetState(new_subset, factor, ranked, new_ld, sigma, state.omega, h)


# ---------------------------------------------------------------------------
# Stacked moves: many states of one size at once (DiagDet and IsoLrt)
# ---------------------------------------------------------------------------

# The criteria with stacked kernels (StateStack and the *_stack functions).
STACKED = (CriterionKind.DIAG_DET, CriterionKind.ISO_LRT)


@dataclass
class StateStack:
    """``B`` states of one size ``k`` over one ``sigma``, on the fast path:
    every member added rank (no side list, so ``L`` has ``k`` rows) and the
    selected block's log-determinant is finite.  Row ``b`` of each array is
    one state's :class:`SubsetState` field: ``subset`` (``B x k``, state
    order), ``lt`` (``B x k x P``), ``diag`` and ``diag_sq`` (``B x p``) and
    ``log_det_block``.

    The kernels apply the per-state identities of :func:`advance`,
    :func:`retract` and :func:`score_all` row by row, with one numpy call
    per step for the whole stack; every product is a per-row BLAS call or
    an elementwise operation, so a row's values do not depend on the
    other rows or on ``B``.  A move that would leave the fast path (a pivot
    under the rank rule) is flagged, and the caller redoes it with the
    per-state function on :meth:`state`.
    """

    subset: np.ndarray
    lt: np.ndarray
    diag: np.ndarray
    diag_sq: Optional[np.ndarray]
    log_det_block: np.ndarray
    sigma: np.ndarray

    @classmethod
    def of_empty(cls, empty: SubsetState, b: int) -> "StateStack":
        """``b`` copies of an empty state."""
        fac = empty.factor
        return cls(
            np.zeros((b, 0), dtype=np.intp),
            np.zeros((b,) + fac.lt.shape),
            np.repeat(fac.diag[None], b, axis=0),
            None if fac.diag_sq is None else np.repeat(fac.diag_sq[None], b, axis=0),
            np.zeros(b),
            empty.sigma,
        )

    def state(self, b: int) -> SubsetState:
        """Row ``b`` as a :class:`SubsetState` (a copy)."""
        sub = tuple(self.subset[b].tolist())
        sq = None if self.diag_sq is None else self.diag_sq[b].copy()
        return SubsetState(
            sub,
            symmat.Factor(self.lt[b].copy(), self.diag[b].copy(), sq),
            sub,
            float(self.log_det_block[b]),
            self.sigma,
        )

    def take(self, rows) -> "StateStack":
        """The stack of the given rows (a boolean mask or indices)."""
        return StateStack(
            self.subset[rows],
            self.lt[rows],
            self.diag[rows],
            None if self.diag_sq is None else self.diag_sq[rows],
            self.log_det_block[rows],
            self.sigma,
        )

    def put(self, rows, other: "StateStack"):
        """Overwrite the given rows with ``other``'s, in place."""
        self.subset[rows] = other.subset
        self.lt[rows] = other.lt
        self.diag[rows] = other.diag
        if self.diag_sq is not None:
            self.diag_sq[rows] = other.diag_sq
        self.log_det_block[rows] = other.log_det_block


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[i] . b[i]`` for each row, one BLAS dot per row."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _vecmat(v: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``v[i] @ m[i]`` for each row, one BLAS matrix-vector product per row."""
    return np.matmul(v[:, None, :], m)[:, 0, :]


def _matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``m[i] @ v[i]`` for each row (``m`` may be one shared matrix)."""
    return np.matmul(m, v[:, :, None])[:, :, 0]


def _logs(x: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """``math.log`` of the entries of ``x`` where ``ok`` (0 elsewhere), as
    the per-state moves take it."""
    return np.fromiter(map(math.log, np.where(ok, x, 1.0).tolist()), float, x.shape[0])


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
    off = _starts(a.size // a.shape[-1], a.shape[-1]).reshape(a.shape[0], -1, 1)
    return a.take(off + idx[:, None, :])


def _complements(p: int, subset: np.ndarray) -> np.ndarray:
    """Each row's complement in ``[0, p)``, ascending, ``B x (p - k)``."""
    n, k = subset.shape
    mask = np.ones((n, p), dtype=bool)
    mask[np.arange(n)[:, None], subset] = False
    return np.nonzero(mask)[1].reshape(n, p - k)


def advance_stack(stack: StateStack, picks: np.ndarray) -> Tuple[StateStack, np.ndarray]:
    """:func:`advance` of every row by its variable ``picks[b]``: the new
    column of ``L`` (:func:`csskit.symmat.residual_add`) and the
    log-determinant.  Returns the grown stack and a mask of the rows that
    stay on the fast path, whose pivot ``R_ii`` adds rank.  The other rows
    hold no state; redo them with :func:`advance`.  The picks are trusted
    (the walk takes them from the complement)."""
    sigma = stack.sigma
    p = sigma.shape[0]
    b_ = np.arange(picks.shape[0])
    lt = stack.lt
    r = lt.shape[1]
    l = lt[:, :, :p]
    var = sigma.diagonal()[picks]
    pivot = stack.diag[b_, picks]
    ok = symmat.adds_rank(pivot, var)
    if not ok.all():  # keep the rows to redo finite
        pivot = np.where(ok, pivot, 1.0)

    # a column of L, as the per-state move reads it: with a non-unit
    # stride, which OpenBLAS's matrix-vector kernels round differently
    col = np.empty((lt.shape[0], r, 2))
    col[:, :, 0] = lt[b_, :, picks]
    col = col[:, :, 0]
    g = (sigma[picks] - _vecmat(col, l)) / np.sqrt(pivot)[:, None]
    new_lt = np.empty((lt.shape[0], r + 1, lt.shape[2]))
    new_lt[:, :r] = lt
    new_lt[:, r, :p] = g
    diag = np.maximum(stack.diag - g * g, 0.0)
    diag_sq = None
    if stack.diag_sq is not None:
        sg = new_lt[:, r, p:] = _matvec(sigma, g)
        rg2 = 2.0 * (sg - _vecmat(_matvec(l, g), l))
        diag_sq = stack.diag_sq - g * (rg2 - _rowdot(g, g)[:, None] * g)

    ld = stack.log_det_block + _logs(pivot, ok)
    subset = np.concatenate([stack.subset, picks[:, None]], axis=1)
    return StateStack(subset, new_lt, diag, diag_sq, ld, sigma), ok


def retract_stack(stack: StateStack, positions: np.ndarray) -> Tuple[StateStack, np.ndarray]:
    """:func:`retract` of every row at its position ``positions[b]``: the
    Householder reflection of the factor
    (:func:`csskit.symmat.residual_remove`), with ``c`` from one batched
    solve over the ``B x k x k`` blocks ``L[S]``, the LAPACK call of the
    per-state solve for each row, so rows stay bit for bit what
    :func:`retract` gives.  Returns the shrunk stack and a mask of
    the rows that stay on the fast path, whose retracted variable's pivot
    adds rank; redo the other rows with :func:`retract`."""
    sigma = stack.sigma
    p = sigma.shape[0]
    n, k = stack.subset.shape
    b_ = np.arange(n)
    lt = stack.lt
    e = np.zeros((n, k, 1))
    e[b_, positions] = 1.0
    c = np.linalg.solve(_gather(lt, stack.subset).transpose(0, 2, 1), e)[:, :, 0]
    cc = _rowdot(c, c)
    pivot = 1.0 / cc
    v = c / np.sqrt(cc)[:, None]
    hs = _vecmat(v, lt)
    h = hs[:, :p]
    diag = stack.diag + h * h
    diag_sq = stack.diag_sq
    if diag_sq is not None:
        l = lt[:, :, :p]
        rh2 = 2.0 * (hs[:, p:] - _vecmat(_matvec(l, h), l))
        diag_sq = diag_sq + h * (rh2 + _rowdot(h, h)[:, None] * h)
    last = v[:, -1].copy()
    v[:, -1] += np.where(last >= 0.0, 1.0, -1.0)
    new_lt = (v[:, :-1] / (1.0 + np.abs(last))[:, None])[:, :, None] * _vecmat(v, lt)[:, None, :]
    np.subtract(lt[:, :-1], new_lt, out=new_lt)

    gone = stack.subset[b_, positions]
    ok = symmat.adds_rank(pivot, sigma.diagonal()[gone])
    ld = stack.log_det_block - _logs(pivot, ok)
    keep = np.arange(k - 1) + (np.arange(k - 1) >= positions[:, None])
    subset = stack.subset[b_[:, None], keep]
    return StateStack(subset, new_lt, diag, diag_sq, ld, sigma), ok


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
    """
    sigma = state.sigma
    cands = state.complement()
    if cands.size == 0:
        return cands, np.zeros(0)

    fac = state.factor
    kind = criterion.kind
    if kind in STACKED:  # a stack of one
        sq = None if fac.diag_sq is None else fac.diag_sq[None]
        return cands, _score_rows(criterion, sigma, fac.lt[None], fac.diag[None], sq, cands[None])[0]

    diag = fac.diag[cands]
    var = sigma.diagonal()[cands]
    ok = symmat.adds_rank(diag, var)
    safe = np.where(ok, diag, 1.0)

    if kind == CriterionKind.CSS_TRACE:
        sq = _squares(sigma, fac.lt, fac.diag, fac.diag_sq, cands, diag, var, ok)
        return cands, np.where(ok, -sq / safe, 0.0)

    if kind == CriterionKind.DET_RESIDUAL:
        return cands, -diag

    if kind == CriterionKind.FROB_RESIDUAL:
        res = fac.residual(sigma)
        cols = res[:, cands]
        colsq = np.einsum("ij,ij->j", cols, cols)
        cubic = np.einsum("ij,ij->j", cols, res @ cols)
        scores = (colsq / safe) ** 2 - 2.0 * cubic / safe
        return cands, np.where(ok, scores, 0.0)

    if kind == CriterionKind.CANON_CORR:
        if state.omega is not None:
            return cands, _score_canon_corr(state, cands)
        return cands, _score_canon_corr_ginv(state, cands)

    raise DimMismatch(f"unknown criterion kind {kind}")


def _squares(sigma, lt, diag_all, diag_sq, cands, diag, var, ok) -> np.ndarray:
    """``diag R^2`` of the candidates ``cands`` of one state, whose residual
    variances are ``diag`` (own variances ``var``, ``ok`` where they add
    rank).  ``diag R^2`` is carried by differences from ``diag sigma^2``, so
    its error is absolute, about ``eps |sigma|^2`` per move.  A candidate
    near a perfect fit (``R_ii`` at most ``sqrt(RANK_TOL) sigma_ii``) reads
    it from its residual column, whose error is relative to that column."""
    sq = diag_sq[cands]
    near = np.flatnonzero(ok & (diag <= math.sqrt(RANK_TOL) * var))
    if near.size:
        cols = symmat.Factor(lt, diag_all, diag_sq).columns(sigma, cands[near])
        sq[near] = np.einsum("ij,ij->j", cols, cols)
    return sq


def score_stack(criterion: Criterion, stack: StateStack) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`score_all` of every row of a stack: ``(candidates, scores)``,
    each ``B x (p - k)``, row ``b`` as :func:`score_all` gives it for
    :meth:`StateStack.state` ``(b)``."""
    cands = _complements(stack.sigma.shape[0], stack.subset)
    scores = _score_rows(criterion, stack.sigma, stack.lt, stack.diag, stack.diag_sq, cands)
    return cands, scores


def objective_stack(criterion: Criterion, stack: StateStack) -> np.ndarray:
    """:func:`objective_from_state` of every row of a stack."""
    sigma = stack.sigma
    comp = _complements(sigma.shape[0], stack.subset)
    diag = stack.diag[np.arange(comp.shape[0])[:, None], comp]
    return _readout_rows(criterion, diag, sigma.diagonal()[comp], stack.log_det_block)


def _score_rows(criterion, sigma, lt, diag_all, diag_sq, cands) -> np.ndarray:
    """DiagDet or IsoLrt scores of ``B`` states given by their factors
    (``lt``, ``diag_all``, ``diag_sq``; one leading row per state) for
    their candidates ``cands`` (``B x m``), one numpy call per step for all
    rows; the scorer of :func:`score_all` and :func:`score_stack`."""
    n, m = cands.shape
    p = sigma.shape[0]
    flat = cands + _starts(n, p)  # into the rows of a B x p array
    diag = diag_all.take(flat)
    var = sigma.diagonal()[cands]
    ok = symmat.adds_rank(diag, var)
    safe = np.where(ok, diag, 1.0)
    with np.errstate(divide="ignore"):
        head = np.log(np.where(ok, diag, 0.0))

        if criterion.kind == CriterionKind.ISO_LRT:
            sq = diag_sq.take(flat)
            near = ok & (diag <= math.sqrt(RANK_TOL) * var)
            if near.any():
                for b in np.flatnonzero(near.any(axis=1)):
                    sq[b] = _squares(sigma, lt[b], diag_all[b], diag_sq[b], cands[b], diag[b], var[b], ok[b])
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
                    cols = symmat.Factor(lt[b], diag_all[b], None).columns(sigma, cands[b, at])
                    left = diag_all[b][:, None] - cols**2 / safe[b, at]
                    fit = ~symmat.adds_rank(left, sigma.diagonal()[:, None]).any(axis=0)
                    rest[b, at[fit]] = 0.0
            return head + k * np.log(rest)

        # DiagDet: the candidates' block of R, one (p - k)-square per state,
        # row i of which gives candidate i's terms R_jj - R_ij^2 / R_ii; all
        # in place, in the per-state order of operations
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


def _block_inverse(state: SubsetState) -> np.ndarray:
    """``G = sigma_S^-1`` (subset order) of a state with ``omega``, from its
    factor in O(k^3): every member added rank, so ``M = L[S]^T`` is ``k x
    k`` and nonsingular, ``sigma_S = M^T M`` and ``G = M^-1 M^-T``."""
    m_inv = np.linalg.inv(state.factor.lt.take(state.subset, 1))
    return np.dot(m_inv, m_inv.T)


def _score_canon_corr(state: SubsetState, comp: np.ndarray) -> np.ndarray:
    """CanonCorr's exact scores ``-cc(S + (i,))`` when the state has ``omega``,
    from the block inverses ``G = sigma_S^-1`` (:func:`_block_inverse`) and
    the state's ``H = (Omega_SS)^-1``, ``Omega = sigma^-1``, in O(k^3 + k^2
    (p - k)).

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
    sigma, omega = state.sigma, state.omega
    g, h = _block_inverse(state), state.omega_block_inv
    sub = list(state.subset)
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


def _score_canon_corr_ginv(state: SubsetState, comp: np.ndarray) -> np.ndarray:
    """CanonCorr's scores when the state has no ``omega`` (``sigma`` singular
    or its unit-diagonal condition number above ``CC_COND_MAX``), all
    candidates at once, from generalised inverses of the complement block
    and the selected one.  With ``C = comp`` the ascending complement of
    the subset ``S`` (size k), ``Cp = ginv(sigma_C)``
    (:func:`csskit.symmat.ginv`), ``A = sigma_{S,C} Cp``, leverages ``l =
    diag(sigma_C Cp)`` and the swapped residual ``K = sigma_S - A
    sigma_{C,S}`` (the residual of ``S`` on ``C``), the score of candidate
    i at position j of C, with ``V = S + (i,)``, is

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
    sigma = state.sigma
    s = np.asarray(state.subset, dtype=int)
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
# Objective readout from a live state (cheap paths where available)
# ---------------------------------------------------------------------------


def objective_from_state(criterion: Criterion, state: SubsetState) -> float:
    """Objective of the state's subset, read from the caches when cheap.

    Agrees with :func:`evaluate` to update-roundoff (tested at 1e-8).
    CanonCorr reads ``tr(G H) - k`` in O(k^3) (see :func:`_score_canon_corr`)
    from a state with ``omega`` and falls back to ``evaluate`` without.
    """
    kind = criterion.kind
    fac = state.factor
    if kind == CriterionKind.CSS_TRACE:
        return float(np.sum(fac.diag))
    if kind == CriterionKind.CANON_CORR:
        k = len(state.subset)
        if state.omega is None:
            return evaluate(criterion, state.sigma, state.subset)
        if k == criterion.p:
            return 0.0  # no complement, as in evaluate
        return float(np.sum(_block_inverse(state) * state.omega_block_inv)) - k
    sigma = state.sigma
    comp = state.complement()
    block = None
    if kind in (CriterionKind.FROB_RESIDUAL, CriterionKind.DET_RESIDUAL):
        block = fac.block(sigma, comp)
    if kind == CriterionKind.FROB_RESIDUAL:
        return float(np.sum(block * block))
    return _readout(
        criterion, fac.diag[comp], sigma.diagonal()[comp], state.log_det_block, block
    )
