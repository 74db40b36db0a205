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
IsoLrt, ``diag R^2``.  :func:`advance` appends a column to ``L`` in O(pr),
plus one ``sigma``-matvec under CssTrace and IsoLrt, and :func:`retract`
reflects one out in O(pr + r^3); both also carry the selected block's
pseudo-inverse in O(k^2).  Scores then cost O(p) for DetResidual, O(p)
plus the near-perfect fits' residual columns for CssTrace and IsoLrt, one ``(p-k)``-block of ``R`` for DiagDet, and the dense ``R`` for
FrobResidual.  CanonCorr reads no residual.  When the condition number of
the unit-diagonal ``sigma`` is at most ``CC_COND_MAX`` (1e4),
:func:`init_state` inverts it once per search
(:func:`csskit.symmat.inverse`, one eigendecomposition),
and the state carries ``H = (Omega_SS)^-1`` of ``Omega = sigma^-1`` next to
the block inverse ``G``, both updated by the same O(k^2) identities.  The
partitioned inverse gives ``-cc(S) = tr(G H) - k``: :func:`score_all` scores
every candidate exactly in O(k^2 (p - k)) and :func:`objective_from_state`
reads the objective in O(k^2).  On a singular or worse-conditioned
``sigma`` each :func:`score_all` call pseudo-inverts the complement block
once and scores every candidate from it, up to one constant, and the
objective is :func:`evaluate`'s.  Inputs are checked once, where they enter:
``sigma`` in :func:`init_state`, an index in :func:`advance`, a position in
:func:`retract`; the kernels trust the state.
"""

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
    that drops a ranked member re-tests them.  Next to the factor are the
    pseudo-inverse of the selected block (in subset order), read by
    CanonCorr and by :func:`retract`, and its log-determinant (``-inf`` once
    the block goes numerically singular).  ``sigma`` is a read-only
    reference to the source matrix.  For CanonCorr on a ``sigma`` whose
    unit-diagonal form has condition number at most ``CC_COND_MAX``,
    ``omega`` is a read-only reference to ``sigma^-1``, shared by
    every state of one search, and ``omega_block_inv`` the inverse of its
    selected block ``omega[S, S]`` (in subset order); otherwise both are
    None.

    With ``r = len(ranked)``, :func:`advance` costs O(pr + k^2) plus one
    ``sigma``-matvec under CssTrace and IsoLrt, and :func:`retract` O(pr +
    r^3 + k^2) plus an advance for each side member it gives back its rank;
    CanonCorr's ``omega_block_inv`` adds O(k^2) to each.
    States are values, never updated in place: swap keeps the state from
    before a retract when it keeps the incumbent.
    """

    subset: IndexSet
    factor: symmat.Factor
    ranked: IndexSet
    block_pinv: np.ndarray
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
    fits = ~symmat.adds_rank(diag, var)
    if kind == CriterionKind.ISO_LRT:
        if np.all(fits):
            return float("-inf")
        m = criterion.p - criterion.k
        return ld_block + m * math.log(float(np.sum(diag)) / m)
    if np.any(fits):
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
    if kind == CriterionKind.DIAG_DET:
        return ld_block + float(np.sum(np.log(diag)))
    raise DimMismatch(f"unknown criterion kind {kind}")


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
        block_pinv=np.zeros((0, 0)),
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
    residual factor, or puts ``i`` on the side list when it adds no rank;
    :func:`csskit.symmat.pinv_add` grows the selected-block pseudo-inverse,
    and the pivot updates its log-determinant (``log det(sigma_{U+i}) =
    log det(sigma_U) + log(R_ii)``); ``pinv_add`` on ``omega`` grows
    CanonCorr's ``omega_block_inv`` alike.  Cost O(pr + k^2), plus one
    ``sigma``-matvec under CssTrace and IsoLrt.  Returns a new state; the
    input is not modified.  ``i`` must lie in ``[0, p)`` and not be
    selected yet, else :class:`DimMismatch`.  The move reads
    ``state.sigma``, not its ``sigma`` argument.
    """
    i = int(i)
    if not 0 <= i < criterion.p or i in state.subset:
        raise DimMismatch(f"cannot append index {i} to subset {state.subset}")
    sigma = state.sigma
    pivot = float(state.factor.diag[i])
    adds = symmat.adds_rank(pivot, sigma[i, i])
    factor = symmat.residual_add(sigma, state.factor, i)
    ranked = state.ranked + (i,) if adds else state.ranked
    new_pinv = symmat.pinv_add(state.block_pinv, sigma, state.subset, i)
    if adds and math.isfinite(state.log_det_block):
        new_ld = state.log_det_block + math.log(pivot)
    else:
        new_ld = float("-inf")
    omega, h = state.omega, state.omega_block_inv
    if omega is not None:
        h = symmat.pinv_add(h, omega, state.subset, i)
    return SubsetState(state.subset + (i,), factor, ranked, new_pinv, new_ld, sigma, omega, h)


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
    While the block is nonsingular (``log_det_block`` finite, no side list),
    the same ``c`` is ``L[S]^T pinv(sigma_S)[:, position]``, as ``L[S]
    L[S]^T = sigma_S``, read from the pseudo-inverse CanonCorr needs anyway.
    At p=50, k=10-20 (2-core box, one BLAS thread) that takes a retract
    from 43-45 us with the solve to 27-34 us, and the ``choosek-a2``
    benchmark from 4.71 to 4.16 s: the solve's call overhead, not its
    O(r^3), outweighs the O(pr) reflection.  Each side-list member is
    then re-tested and appended to the factor if it adds rank to what is
    left.

    The selected-block pseudo-inverse is downdated by
    :func:`csskit.symmat.pinv_remove` while the block is nonsingular, which
    is exact, and freshly pseudo-inverted without the removed variable
    otherwise; CanonCorr's ``omega_block_inv``, the inverse of a block of a
    nonsingular matrix, is always downdated.  Cost O(pr + r^3 + k^2), plus a
    ``sigma``-matvec per side member given back its rank.  ``position`` must
    lie in ``[0, k)``, else :class:`DimMismatch`.  The move reads
    ``state.sigma``, not its ``sigma``.
    """
    k = len(state.subset)
    if not 0 <= position < k:
        raise DimMismatch(f"position {position} out of range for subset size {k}")
    sigma = state.sigma
    var = state.subset[position]
    new_subset = state.subset[:position] + state.subset[position + 1 :]
    idx = list(new_subset)
    finite = math.isfinite(state.log_det_block)
    if finite:
        new_pinv = symmat.pinv_remove(state.block_pinv, position)
    else:
        new_pinv = symmat.pseudo_inverse(sigma[np.ix_(idx, idx)])

    factor, ranked, pivot = state.factor, state.ranked, 0.0
    if var in ranked:
        q = ranked.index(var)
        if finite and len(ranked) == k:
            c = np.dot(factor.lt.take(state.subset, 1), state.block_pinv[position])
        else:
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
    if symmat.adds_rank(pivot, sigma[var, var]) and finite:
        new_ld = state.log_det_block - math.log(pivot)
    else:
        new_ld = symmat.log_det(sigma[np.ix_(idx, idx)])
    h = state.omega_block_inv
    if h is not None:
        h = symmat.pinv_remove(h, position)
    return SubsetState(new_subset, factor, ranked, new_pinv, new_ld, sigma, state.omega, h)


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
    diag = fac.diag[cands]
    var = sigma.diagonal()[cands]
    ok = symmat.adds_rank(diag, var)
    safe = np.where(ok, diag, 1.0)

    if kind in _SQUARES:
        # diag R^2 is carried by differences from diag sigma^2, so its error
        # is absolute, about eps |sigma|^2 per move.  A candidate near a
        # perfect fit (R_ii at most sqrt(RANK_TOL) sigma_ii) reads it from its
        # residual column, whose error is relative to that column.
        sq = fac.diag_sq[cands]
        near = np.flatnonzero(ok & (diag <= math.sqrt(RANK_TOL) * var))
        if near.size:
            cols = fac.columns(sigma, cands[near])
            sq[near] = np.einsum("ij,ij->j", cols, cols)

    if kind == CriterionKind.CSS_TRACE:
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

    if kind == CriterionKind.ISO_LRT:
        m = criterion.p - criterion.k
        tr = max(float(np.sum(fac.diag)), 0.0)
        rest = np.maximum(tr - np.where(ok, sq / safe, 0.0), 0.0)
        # -inf when, once the candidate joins, every variable is fit
        # perfectly by the rank rule of evaluate.  Their residual variances
        # then sum to at most RANK_TOL * trace(sigma), so only the residual
        # columns of candidates below that are formed (the subset's own rows
        # are 0; a candidate that adds no rank is -inf by its own term below).
        near = np.flatnonzero(~symmat.adds_rank(rest, np.trace(sigma)))
        if near.size:
            cols = fac.columns(sigma, cands[near])
            left = fac.diag[:, None] - cols**2 / safe[near]
            fit = ~symmat.adds_rank(left, sigma.diagonal()[:, None]).any(axis=0)
            rest[near[fit]] = 0.0
        with np.errstate(divide="ignore"):
            scores = np.log(np.where(ok, diag, 0.0)) + m * np.log(rest)
        return cands, scores

    if kind == CriterionKind.DIAG_DET:
        rows = fac.block(sigma, cands)
        terms = diag - np.where(ok[:, None], rows * rows / safe[:, None], 0.0)
        # zero the perfect fits, by the rank rule of evaluate
        terms *= symmat.adds_rank(terms, var)
        with np.errstate(divide="ignore"):
            logs = np.log(terms)
            head = np.log(np.where(ok, diag, 0.0))
        np.fill_diagonal(logs, 0.0)  # exclude j == i from the sum
        return cands, head + logs.sum(axis=1)

    if kind == CriterionKind.CANON_CORR:
        if state.omega is not None:
            return cands, _score_canon_corr(state, cands)
        return cands, _score_canon_corr_ginv(state, cands)

    raise DimMismatch(f"unknown criterion kind {kind}")


def _score_canon_corr(state: SubsetState, comp: np.ndarray) -> np.ndarray:
    """CanonCorr's exact scores ``-cc(S + (i,))`` when the state has ``omega``,
    from the state's block inverses ``G = sigma_S^-1`` and ``H =
    (Omega_SS)^-1``, ``Omega = sigma^-1``, in O(k^2 (p - k)).

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
    g, h = state.block_pinv, state.omega_block_inv
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
    candidates at once, from one pseudo-inverse of the complement block.
    With ``C = comp`` the ascending complement of the subset ``S`` (size k), the generalised
    inverse ``Cp = ginv(sigma_C)`` (:func:`csskit.symmat.ginv`),
    ``A = sigma_{S,C} Cp``, leverages ``l = diag(sigma_C Cp)`` and the
    swapped residual ``K = sigma_S - A sigma_{C,S}`` (the residual of ``S``
    on ``C``), the score of candidate i at position j of C, with
    ``V = S + (i,)``, is

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

    ``G_V`` is built from ``G = pinv(sigma_S)``, the state's block, in
    closed form: with ``b = sigma_{S,i}``, ``d = G b`` and Schur complement
    ``s = sigma_ii - b^T d``, it is the bordered inverse of
    :func:`csskit.symmat.pinv_add` when i adds rank (``w = 1/s``), and the
    zero-padded ``G`` when it does not (``w = 0``), so

        <G_V[:k, :k], K> = <G, K> + w d^T K d
        x^T G_V x = A_j^T G A_j + w (d^T A_j - l_j)^2

    for every candidate from a few k x (p - k) products.

    Every rank decision is made relative to each variable's own variance:
    the leverages are those of the unit-diagonal block, and whether i adds
    rank to S is :func:`csskit.symmat.adds_rank`, as in
    :func:`csskit.symmat.pinv_add`.  So, like the canonical
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
    g = state.block_pinv
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
    CanonCorr reads ``tr(G H) - k`` in O(k^2) (see :func:`_score_canon_corr`)
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
        return float(np.sum(state.block_pinv * state.omega_block_inv)) - k
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
