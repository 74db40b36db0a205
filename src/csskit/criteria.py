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

Greedy and swap searches never rank candidates by re-evaluating from
scratch; they use :func:`score_all`, whose values are *order-equivalent* to
the objective (argmin over candidates matches argmin of ``evaluate`` on the
grown subset) but cheaper by at least one power of ``p``.  State is carried
by :class:`SubsetState`, the same for all six criteria, updated in O(p^2)
per move by :func:`advance` / :func:`retract`.  CanonCorr keeps nothing of
its own in the state: each :func:`score_all` call pseudo-inverts the
complement block once and scores every candidate from it.  Inputs are
checked once, where they enter: ``sigma`` in :func:`init_state`, an index in
:func:`advance`, a position in :func:`retract`; the kernels trust the state.
"""

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence, Tuple

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


@dataclass
class SubsetState:
    """Incremental caches for one ordered subset of one matrix.

    Fields mirror what the search algorithms need: the full residual
    covariance, the pseudo-inverse of the selected block (in subset order),
    and its log-determinant (``-inf`` once the block goes numerically
    singular).  ``sigma`` is a read-only reference to the source matrix,
    kept so that scoring can reach raw entries without re-plumbing every
    call site.
    """

    subset: IndexSet
    residual: np.ndarray
    block_pinv: np.ndarray
    log_det_block: float
    sigma: np.ndarray

    def complement(self) -> np.ndarray:
        return symmat.complement(self.sigma.shape[0], self.subset)


# ---------------------------------------------------------------------------
# From-scratch evaluation (the definitional path; searches use score_*)
# ---------------------------------------------------------------------------


def evaluate(criterion: Criterion, sigma: SymMatrix, subset: Sequence[int]) -> float:
    """Objective value of ``subset`` under ``criterion``, from scratch.

    The subset may be any size (greedy evaluates its prefixes); order is
    irrelevant to the value.  This is the reference implementation the
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
        if not u or not comp.size:
            return 0.0
        return -cc_sum(sigma, u, comp)

    res = symmat.residual_covariance(sigma, u)

    if kind == CriterionKind.CSS_TRACE:
        return float(np.trace(res))
    if kind == CriterionKind.FROB_RESIDUAL:
        block = res[np.ix_(comp, comp)]
        return float(np.sum(block * block))
    ld_block = symmat.log_det(sigma[np.ix_(list(u), list(u))])
    return _readout(criterion, sigma, res, comp, ld_block)


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


def _readout(criterion: Criterion, sigma, res, comp, ld_block: float) -> float:
    """DetResidual, DiagDet and IsoLrt from the residual ``res``, the
    complement ``comp`` and ``ld_block = log det(sigma_S)``.  A variable of
    ``comp`` that does not add rank to ``S`` is fit perfectly: one sends
    DetResidual and DiagDet to ``-inf``, IsoLrt needs all of them."""
    kind = criterion.kind
    diag = res.diagonal()[comp]
    fits = ~symmat.adds_rank(diag, sigma.diagonal()[comp])
    if kind == CriterionKind.ISO_LRT:
        if np.all(fits):
            return float("-inf")
        m = criterion.p - criterion.k
        return ld_block + m * math.log(float(np.sum(diag)) / m)
    if np.any(fits):
        return float("-inf")
    if kind == CriterionKind.DET_RESIDUAL:
        return symmat.log_det(res[np.ix_(comp, comp)])
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
    """
    sigma = symmat.as_symmetric(sigma)
    p = criterion.p
    if sigma.shape != (p, p):
        raise DimMismatch(f"sigma shape {sigma.shape} does not match p={p}")
    low = float(sigma.diagonal().min())
    if low < 0.0:
        raise NotPSD(f"sigma has a negative diagonal entry ({low:g})")
    return SubsetState(
        subset=(),
        residual=sigma.copy(),
        block_pinv=np.zeros((0, 0)),
        log_det_block=0.0,
        sigma=sigma,
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

    Rank-one update of the residual, :func:`csskit.symmat.pinv_add` for the
    selected-block pseudo-inverse, and pivot update of its log-determinant
    (``log det(sigma_{U+i}) = log det(sigma_U) + log(residual_ii)``).
    Cost O(p^2).  Returns a new state; the input is not modified.  ``i``
    must lie in ``[0, p)`` and not be selected yet, else :class:`DimMismatch`.
    The move reads ``state.sigma``, not its ``sigma`` argument.
    """
    i = int(i)
    if not 0 <= i < criterion.p or i in state.subset:
        raise DimMismatch(f"cannot append index {i} to subset {state.subset}")
    sigma = state.sigma
    pivot = float(state.residual[i, i])
    var = float(sigma[i, i])
    new_res = symmat.residual_add(state.residual, i, var)
    new_pinv = symmat.pinv_add(state.block_pinv, sigma, state.subset, i)
    if symmat.adds_rank(pivot, var) and math.isfinite(state.log_det_block):
        new_ld = state.log_det_block + math.log(pivot)
    else:
        new_ld = float("-inf")
    return SubsetState(state.subset + (i,), new_res, new_pinv, new_ld, sigma)


def retract(
    criterion: Criterion, state: SubsetState, sigma: SymMatrix, position: int
) -> SubsetState:
    """Drop the subset entry at ``position``, undoing its contribution.

    The selected-block pseudo-inverse is downdated by
    :func:`csskit.symmat.pinv_remove` while the block is nonsingular
    (``log_det_block`` finite): every member then adds rank to the rest, so
    the downdate is exact.  A singular block is freshly pseudo-inverted
    without the removed variable.  The residual is rebuilt by re-adding the
    removed variable's residual profile ``beta = sigma[:, v] - sigma[:, U]
    @ pinv(sigma_U) @ sigma[U, v]`` as a rank-one term ``beta beta^T /
    beta_v``.  Because ``beta`` is recomputed from ``sigma`` and the new
    pseudo-inverse, the result is one rank-one update away from the
    from-scratch residual regardless of the state's history.  A redundant
    variable (one that does not add rank: ``adds_rank(beta_v, sigma_vv)``
    is false) leaves the residual unchanged.
    Cost O(p^2 + p k).  ``position`` must lie in ``[0, k)``, else
    :class:`DimMismatch`.  The move reads ``state.sigma``, not its ``sigma``.
    """
    k = len(state.subset)
    if not 0 <= position < k:
        raise DimMismatch(f"position {position} out of range for subset size {k}")
    sigma = state.sigma
    var = state.subset[position]
    new_subset = state.subset[:position] + state.subset[position + 1 :]
    idx = list(new_subset)
    if math.isfinite(state.log_det_block):
        new_pinv = symmat.pinv_remove(state.block_pinv, position)
    else:
        new_pinv = symmat.pseudo_inverse(sigma[np.ix_(idx, idx)])

    if idx:
        t = new_pinv @ sigma[idx, var]
        beta = sigma[:, var] - sigma[:, idx] @ t
    else:
        beta = sigma[:, var].copy()
    pivot = float(beta[var])
    new_res = state.residual  # unchanged span if var was redundant
    adds = symmat.adds_rank(pivot, sigma[var, var])
    if adds:
        g = beta / math.sqrt(pivot)
        new_res = symmat._clamp_diag(new_res + np.outer(g, g))
    if adds and math.isfinite(state.log_det_block):
        new_ld = state.log_det_block - math.log(pivot)
    else:
        new_ld = symmat.log_det(sigma[np.ix_(idx, idx)])
    return SubsetState(new_subset, new_res, new_pinv, new_ld, sigma)


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
    rank rule as ``evaluate``.
    """
    sigma = state.sigma
    cands = state.complement()
    if cands.size == 0:
        return cands, np.zeros(0)

    res = state.residual
    kind = criterion.kind
    diag = res.diagonal()[cands].astype(float, copy=True)
    ok = symmat.adds_rank(diag, sigma.diagonal()[cands])
    safe = np.where(ok, diag, 1.0)

    if kind == CriterionKind.CSS_TRACE:
        cols = res[:, cands]
        colsq = np.einsum("ij,ij->j", cols, cols)
        return cands, np.where(ok, -colsq / safe, 0.0)

    if kind == CriterionKind.DET_RESIDUAL:
        return cands, -diag

    if kind == CriterionKind.FROB_RESIDUAL:
        cols = res[:, cands]
        colsq = np.einsum("ij,ij->j", cols, cols)
        cubic = np.einsum("ij,ij->j", cols, res @ cols)
        scores = (colsq / safe) ** 2 - 2.0 * cubic / safe
        return cands, np.where(ok, scores, 0.0)

    if kind == CriterionKind.ISO_LRT:
        m = criterion.p - criterion.k
        tr = max(float(np.trace(res)), 0.0)
        cols = res[:, cands]
        colsq = np.einsum("ij,ij->j", cols, cols)
        rest = np.maximum(tr - np.where(ok, colsq / safe, 0.0), 0.0)
        # -inf when, once the candidate joins, every variable is fit
        # perfectly by the rank rule of evaluate.  Their residual variances
        # then sum to at most RANK_TOL * trace(sigma), so only candidates
        # below that are checked (the subset's own rows are 0; a candidate
        # that adds no rank is -inf by its own term below).
        near = np.flatnonzero(~symmat.adds_rank(rest, np.trace(sigma)))
        if near.size:
            left = res.diagonal()[:, None] - cols[:, near] ** 2 / safe[near]
            fit = ~symmat.adds_rank(left, sigma.diagonal()[:, None]).any(axis=0)
            rest[near[fit]] = 0.0
        with np.errstate(divide="ignore"):
            scores = np.log(np.where(ok, diag, 0.0)) + m * np.log(rest)
        return cands, scores

    if kind == CriterionKind.DIAG_DET:
        rows = res[np.ix_(cands, cands)]
        terms = res.diagonal()[cands] - np.where(ok[:, None], rows * rows / safe[:, None], 0.0)
        # zero the perfect fits, by the rank rule of evaluate
        terms *= symmat.adds_rank(terms, sigma.diagonal()[cands])
        with np.errstate(divide="ignore"):
            logs = np.log(terms)
            head = np.log(np.where(ok, diag, 0.0))
        np.fill_diagonal(logs, 0.0)  # exclude j == i from the sum
        return cands, head + logs.sum(axis=1)

    if kind == CriterionKind.CANON_CORR:
        return cands, _score_canon_corr(state, cands)

    raise DimMismatch(f"unknown criterion kind {kind}")


def _score_canon_corr(state: SubsetState, comp: np.ndarray) -> np.ndarray:
    """Scores for CanonCorr, all candidates at once.  With ``C = comp`` the
    ascending complement of the subset ``S`` (size k), the generalised
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
    CanonCorr falls back to ``evaluate``.
    """
    kind = criterion.kind
    res = state.residual
    if kind == CriterionKind.CSS_TRACE:
        return float(np.trace(res))
    if kind == CriterionKind.CANON_CORR:
        return evaluate(criterion, state.sigma, state.subset)
    comp = state.complement()
    if kind == CriterionKind.FROB_RESIDUAL:
        block = res[np.ix_(comp, comp)]
        return float(np.sum(block * block))
    return _readout(criterion, state.sigma, res, comp, state.log_det_block)
