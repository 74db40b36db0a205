"""Symmetric-matrix kernel.

Everything in the toolkit that touches spectra goes through this module, so
that pseudo-inversion, PSD projection and the PSD checks share one
eigendecomposition backend (:func:`numpy.linalg.eigh`, or
:func:`numpy.linalg.eigvalsh` where only eigenvalues are read), and every rank
decision one cutoff, ``RANK_TOL``, applied free of the units of every
variable.  One test decides rank: a variable adds rank to a subset when its residual
variance exceeds ``RANK_TOL`` times its own variance (:func:`adds_rank`).
It is the pivot and perfect-fit test of a search state, and the one
pivoted Cholesky, :func:`_pivots`, applies it to each pivot of a block on
its variables' variances: :func:`log_det` reads a block as singular when
one of its variables adds no rank to the ones before it,
:func:`csskit.criteria.evaluate` regresses on the members that add rank,
and :func:`csskit.criteria.cc_sum` whitens each side by them.
:func:`inverse` inverts a matrix by one Cholesky factor and refuses it by
its condition number, bounded by norms of the matrix and of that inverse,
and read from its eigenvalues only where the bounds leave the rule open.

Beside the test stand two conventions.  An eigenvalue below ``-RANK_TOL``
times the largest (or, where the pivots of :func:`_pivots` stop short,
times ``max(1, lambda_max)`` of the block on its variances) raises
:class:`~csskit.errors.NotPSD`, and a singular log-determinant is
``-inf``.  The generalised inverses :func:`pseudo_inverse` and
:func:`ginv` (the latter behind CanonCorr's scorer of a state without
``Omega`` and :func:`residual_covariance`) drop the directions whose
eigenvalue is at or below ``RANK_TOL * lambda_max``: that cut forms an
inverse, it does not decide whether a block is singular.

The subset updates are the workhorses of the search algorithms; they
trust the state they are given, the factors of a
:class:`csskit.criteria.StateStack`, the package's one state type, whose
``sigma`` :func:`csskit.criteria.init_state` checks.  A residual
covariance is carried by its :class:`Factor`, ``R = sigma - L L^T`` with
``diag R`` (and optionally ``diag R^2``), never as a dense matrix:
:func:`residual_add` appends a column to ``L`` when a variable joins (a
zero column when it adds no rank), and :func:`residual_remove` reflects
one out by a Householder reflection when one leaves, each in O(pr) plus at
most one ``sigma``-matvec.  They are the package's only code that changes a
factor, and each is written for a stack of factors (a leading axis of ``B``
rows on every array; one factor is a stack of one): every product is a BLAS
call per row and every other step elementwise, so a row of a stack comes
out bit for bit as the call on that row alone.  :meth:`Factor.residual`
forms the dense ``R`` of one factor on demand, exactly symmetric, with tiny
negative diagonal entries (roundoff) clamped to zero; selected rows and
columns decay to roughly machine scale but are never zeroed exactly.
"""

import math
import operator
import sys
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import DimMismatch, NonFinite, NotPSD

# The one relative cutoff behind every rank decision in the package.
RANK_TOL = 1e-10

SymMatrix = np.ndarray
IndexSet = Tuple[int, ...]


class EigenDecomp(NamedTuple):
    """Eigendecomposition with eigenvalues sorted in descending order.

    ``vectors[:, j]`` is the unit eigenvector for ``values[j]``.
    """

    values: np.ndarray
    vectors: np.ndarray


def _sym(m: np.ndarray) -> np.ndarray:
    """Exact symmetrization, ``(m + m.T) / 2``, in one new array (halved
    in place, which gives the same bits)."""
    out = m + m.T
    out /= 2.0
    return out


def _extremes(m: np.ndarray) -> Tuple[float, float]:
    """``(m.min(), m.max())`` of a nonempty array, or :class:`NonFinite`
    when it holds NaN or infinity: a NaN propagates through both, and an
    infinity is one of them.  No temporary the size of ``m``."""
    lo, hi = float(m.min()), float(m.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise NonFinite("matrix contains NaN or infinity")
    return lo, hi


def _clamp_diag(m: np.ndarray) -> np.ndarray:
    """Clamp tiny negative diagonal entries (roundoff) to zero, in place."""
    d = np.einsum("ii->i", m)
    np.maximum(d, 0.0, out=d)
    return m


def check_square(m: np.ndarray) -> int:
    """The dimension of a square matrix; anything else (a 0-d or 1-d
    array, say) raises :class:`DimMismatch`."""
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimMismatch(f"expected a square matrix, got shape {m.shape}")
    return m.shape[0]


def check_subset(p: int, subset: Sequence[int]) -> IndexSet:
    """Validate an ordered index set against dimension ``p``.

    Entries must be distinct integers in ``[0, p)``; a float, even a whole
    one, raises rather than being truncated (:func:`as_index`).  Order is
    preserved: the search algorithms retract by *position*, so an index
    set is a sequence, not a set.
    """
    out = tuple(map(as_index, subset))
    for i in out:
        if not 0 <= i < p:
            raise DimMismatch(f"index {i} out of range for dimension {p}")
    if len(set(out)) != len(out):
        raise DimMismatch(f"duplicate indices in subset {out}")
    return out


def as_index(i, name: str = "index") -> int:
    """``i`` as an int (numpy integers included), or :class:`DimMismatch`
    naming it ``name`` when it is not an integer.  A bool, Python's or
    numpy's, is not one."""
    if not isinstance(i, (bool, np.bool_)):
        try:
            return operator.index(i)
        except TypeError:
            pass
    raise DimMismatch(f"{name} {i!r} is not an integer")


def complement(p: int, subset: Sequence[int]) -> np.ndarray:
    """The indices of ``[0, p)`` not in ``subset``, ascending."""
    mask = np.ones(p, dtype=bool)
    mask[list(subset)] = False
    return np.flatnonzero(mask)


# Elements of the row panel :func:`as_symmetric` compares at a time.
_PANEL = 2**15


def as_symmetric(m: np.ndarray) -> SymMatrix:
    """Validate a matrix as symmetric and return it exactly symmetric.

    Asymmetry up to ``1e-8 * |m|_max`` is attributed to I/O roundoff and
    symmetrized away in a copy; anything larger raises :class:`DimMismatch`,
    whatever the units of ``m``.  An exactly symmetric ``m`` is returned
    as it is (its symmetrization would equal it bit for bit).
    NaN or infinity raises :class:`NonFinite`.

    The check holds no temporary the size of ``m``: finiteness is read
    from ``m.min()`` and ``m.max()``, and the largest asymmetry
    ``|m_ij - m_ji|`` from panels of about ``_PANEL`` elements, each a
    band of rows of the upper triangle against the same band of columns of
    the lower.  So beside ``m`` a symmetric input costs nothing and an
    asymmetric one its symmetrized copy.
    """
    m = np.asarray(m, dtype=float)
    p = check_square(m)
    if not m.size:
        return m
    lo, hi = _extremes(m)
    rows = max(1, _PANEL // p)
    gap = 0.0
    for i in range(0, p, rows):
        d = m[i : i + rows, i:] - m[i:, i : i + rows].T
        gap = max(gap, float(np.max(np.abs(d, out=d))))
        del d  # before the next panel is made
    if gap > 1e-8 * max(hi, -lo):
        raise DimMismatch(f"matrix is not symmetric (max asymmetry {gap:g})")
    return m if gap == 0.0 else _sym(m)


def _finite_square(m: np.ndarray) -> np.ndarray:
    """``m`` as a float array, checked square and finite."""
    m = np.asarray(m, dtype=float)
    check_square(m)
    if m.size:
        _extremes(m)
    return m


def eigh_desc(m: SymMatrix) -> EigenDecomp:
    """Eigendecomposition of a symmetric matrix, eigenvalues descending.

    The single backend for every spectral computation in the package that
    reads eigenvectors; :func:`eigvals_desc` gives the values alone.
    """
    m = _finite_square(m)
    if m.size == 0:
        return EigenDecomp(np.zeros(0), np.zeros((0, 0)))
    w, v = np.linalg.eigh(_sym(m))
    return EigenDecomp(w[::-1].copy(), v[:, ::-1].copy())


def eigvals_desc(m: SymMatrix) -> np.ndarray:
    """The eigenvalues of a symmetric matrix, descending, without its
    eigenvectors (:func:`numpy.linalg.eigvalsh`): about half the time of
    :func:`eigh_desc` and no ``p x p`` vectors.  They may differ from
    ``eigh_desc(m).values`` in the last bits."""
    m = _finite_square(m)
    if m.size == 0:
        return np.zeros(0)
    return np.linalg.eigvalsh(_sym(m))[::-1].copy()


def adds_rank(resid_var, var):
    """The rank rule, elementwise: a variable adds rank to a subset when its
    residual variance ``resid_var`` on the subset exceeds ``RANK_TOL`` times
    its own variance ``var``.  Both scale as its units squared."""
    return resid_var > RANK_TOL * var


def _psd_cut(w: np.ndarray) -> float:
    """The zero threshold ``RANK_TOL * lambda_max`` of the eigenvalues ``w``
    (descending) of a symmetric matrix.  Raises :class:`NotPSD` if any
    eigenvalue falls below ``-cut``."""
    cut = RANK_TOL * max(float(w[0]), 0.0) if w.size else 0.0
    if w.size and float(w[-1]) < -cut:
        raise NotPSD(
            f"matrix has eigenvalue {w[-1]:.3e} below -{cut:.3e}; "
            "not positive semidefinite"
        )
    return cut


def pseudo_inverse(m: SymMatrix) -> SymMatrix:
    """Moore-Penrose pseudo-inverse of a symmetric PSD matrix.

    Eigenvalues at or below ``RANK_TOL * lambda_max`` are treated as exact
    zeros and inverted to zero, so the result satisfies the Moore-Penrose
    identities at the numerical rank.

    Examples
    --------
    >>> pseudo_inverse(np.eye(2)).tolist()
    [[1.0, 0.0], [0.0, 1.0]]
    >>> pseudo_inverse(np.diag([2.0, 0.0])).tolist()
    [[0.5, 0.0], [0.0, 0.0]]
    """
    w, v = eigh_desc(m)
    cut = _psd_cut(w)
    inv = np.where(w > cut, 1.0, 0.0) / np.where(w > cut, w, 1.0)
    return _sym((v * inv) @ v.T)


def psd_project(m: SymMatrix) -> SymMatrix:
    """Project a symmetric matrix onto the PSD cone (Frobenius-closest point).

    Negative eigenvalues are clamped to zero and the matrix is rebuilt as
    ``v v^T`` from the eigenvectors scaled in place by ``sqrt(max(w, 0))``:
    beside its input it holds the eigenvectors and the result, which is
    exactly symmetric with a nonnegative diagonal.  The input may be
    indefinite; only symmetry and finiteness are required.
    """
    w, v = eigh_desc(m)
    v *= np.sqrt(np.maximum(w, 0.0))
    return np.dot(v, v.T)  # numpy's syrk for a product with its own transpose


def ginv(m: SymMatrix) -> SymMatrix:
    """Generalised inverse ``G = D pseudo_inverse(D m D) D`` with
    ``D = diag(m)^(-1/2)`` (0 for zero variances): ``m G m = m`` for PSD
    ``m``, which is all a Schur complement or a canonical correlation needs,
    and the rank cutoff falls on the unit-diagonal form."""
    m = np.asarray(m, dtype=float)
    dg = m.diagonal()
    d = np.divide(1.0, np.sqrt(np.maximum(dg, 0.0)), out=np.zeros_like(dg), where=dg > 0.0)
    return d[:, None] * pseudo_inverse(d[:, None] * m * d[None, :]) * d[None, :]


def log_det(m: SymMatrix, var: Optional[np.ndarray] = None) -> float:
    """Log-determinant of a symmetric PSD matrix, ``-inf`` when singular.

    Read from the Cholesky factor ``L`` of ``D m D``, the matrix on the
    variances ``var``, ``D = diag(var)^(-1/2)``; ``var`` defaults to ``diag
    m``, and a residual block passes its variables' own variances.  The
    matrix is singular by the search's rank rule: when a variance is not
    positive, or a pivot ``L_jj^2`` fails ``adds_rank(L_jj^2, 1)``, that
    is, variable j adds no rank to the ones before it.  A diagonal entry of
    ``D m D`` is the first pivot of its variable in any order; the others
    are taken in the given order unless one of them nears the cutoff, and
    then largest first (:func:`_pivots`).  When a later pivot fails, or a
    variance is not positive (its variable is left unscaled, and its pivot
    fails), :func:`_pivots` tells an indefinite ``D m D``
    (:class:`~csskit.errors.NotPSD`) from the roundoff of a singular one.
    The empty matrix has log-determinant 0.

    Examples
    --------
    >>> round(log_det(np.diag([2.0, 3.0])), 12) == round(math.log(6.0), 12)
    True

    With ``1 - rho^2 = 3e-10`` the second pivot adds rank, with ``5e-11``
    it does not, at any units of the two variables:

    >>> rho = math.sqrt(1.0 - 3e-10)
    >>> round(log_det(np.array([[1.0, rho], [rho, 1.0]])), 3)
    -21.927
    >>> rho = math.sqrt(1.0 - 5e-11)
    >>> log_det(np.array([[1e6, 1e3 * rho], [1e3 * rho, 1.0]]))
    -inf

    A residual block read on its variables' own variances:

    >>> round(log_det(np.diag([0.5, 3e-10]), var=np.ones(2)), 3)
    -22.62
    >>> log_det(np.diag([0.5, 5e-11]), var=np.ones(2))
    -inf
    """
    m = np.asarray(m, dtype=float)
    check_square(m)
    var = m.diagonal() if var is None else np.asarray(var, dtype=float)
    d = 1.0 / np.sqrt(np.where(var > 0.0, var, 1.0))
    unit = d[:, None] * m * d[None, :]
    if np.all(var > 0.0) and not np.all(adds_rank(unit.diagonal(), 1.0)):
        return float("-inf")  # a variable adds no rank even on its own
    ranked, _, pivots = _pivots(unit)  # the empty matrix reads 0 from no pivots
    if ranked.size < len(m):
        return float("-inf")
    return float(np.sum(np.log(pivots)) + np.sum(np.log(var)))


def _pivots(m: SymMatrix) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pivoted Cholesky factor of ``m``, a matrix on its variables'
    variances as :func:`log_det` forms it: ``(ranked, lt, pivots)``, the
    members that add rank in pivot order, the rows of their factor and their
    pivots ``L_jj^2``.  Row j of ``lt`` is column j of ``L`` over every
    member, so ``m[ranked][:, ranked] = L L^T`` with ``L^T =
    triu(lt[:, ranked])``.  It is the package's one pivoted Cholesky:
    :func:`log_det` reads its pivots, :func:`csskit.criteria.evaluate`
    regresses on the ranked members, and :func:`csskit.criteria.cc_sum`
    whitens each side by them.

    Past a pivot ``a``, roundoff in the later pivots grows like ``eps /
    a``, so a pivot near the cutoff after a small one is roundoff as much
    as rank.  When every pivot of the given order exceeds
    ``sqrt(RANK_TOL)``, that order stands and every member is ranked.
    Otherwise the pivots are taken again, the variable of largest residual
    variance first, which reveals rank (Higham 1990), up to the first that
    fails ``adds_rank(., 1)``: it and every member left after it add no
    rank.  One vector-matrix product a pivot, O(n^3) in all.  When the
    pivots stop short, the eigenvalues of ``m`` are read
    (:func:`eigvals_desc`, no eigenvectors): one below ``-RANK_TOL *
    max(1, lambda_max)`` raises :class:`~csskit.errors.NotPSD`, and
    anything else is the roundoff of a singular matrix."""
    try:
        l = np.linalg.cholesky(m)
        pivots = l.diagonal() ** 2
        if float(pivots.min(initial=np.inf)) > math.sqrt(RANK_TOL):
            return np.arange(len(m)), l.T, pivots
    except np.linalg.LinAlgError:
        pass
    lt, resid, out, order = np.empty(m.shape), m.diagonal().copy(), np.empty(len(m)), np.empty(len(m), dtype=np.intp)
    for j in range(len(m)):
        q = order[j] = np.argmax(resid)
        out[j] = resid[q]
        if not adds_rank(out[j], 1.0):
            w = eigvals_desc(m)
            if float(w[-1]) < -RANK_TOL * max(1.0, float(w[0])):
                raise NotPSD(f"matrix has eigenvalue {w[-1]:.3e} on its variances; not positive semidefinite")
            return order[:j], lt[:j], out[:j]
        lt[j] = (m[q] - np.dot(lt[:j, q], lt[:j])) / math.sqrt(out[j])
        resid -= lt[j] * lt[j]
        resid[q] = -np.inf
    return order, lt, out


def inverse(m: SymMatrix, cond_max: float) -> Optional[SymMatrix]:
    """Inverse of a nonempty symmetric PSD matrix as ``D (D m D)^-1 D``,
    ``D = diag(m)^(-1/2)``, or None when a variance is not positive or the
    condition number of the unit-diagonal ``A = D m D``, by its
    eigenvalues, exceeds ``cond_max``, as it does for every singular
    ``m``.  Raises :class:`~csskit.errors.NotPSD` when ``m`` is indefinite
    (a variable whose variance is not positive is then left unscaled).
    The inverse comes from the Cholesky factor of ``A``: with ``A = L
    L^T`` and ``M = L^-1 D``, it is ``M^T M``, exactly symmetric, and no
    eigenvector is formed.

    The rule is decided by bounds on the condition number from ``A`` and
    that inverse (:func:`_cholesky_inverse`): the inverse is returned when
    the upper bound is below ``cond_max`` and None when the lower bound is
    above it, each by a relative margin of ``100 p eps cond_max``, past
    the roundoff of the bounds and of the eigenvalues.  Only between the
    bounds, at a variance that is not positive and where the Cholesky
    fails are the eigenvalues read (:func:`eigvals_desc`), and every
    outcome is theirs."""
    m = np.asarray(m, dtype=float)
    dg = m.diagonal()
    d = 1.0 / np.sqrt(np.where(dg > 0.0, dg, 1.0))
    omega = None
    if float(np.min(dg)) > 0.0:
        found = _cholesky_inverse(m, d)
        if found is not None:
            omega, upper, lower = found
            margin = 100.0 * len(m) * sys.float_info.epsilon * cond_max
            if upper <= cond_max * (1.0 - margin):
                return omega
            if lower > cond_max * (1.0 + margin):
                return None
    w = eigvals_desc(d[:, None] * m * d[None, :])
    _psd_cut(w)  # raises NotPSD on an indefinite m
    if omega is None or float(w[0]) > cond_max * float(w[-1]):
        return None
    return omega


def _cholesky_inverse(m: SymMatrix, d: np.ndarray) -> Optional[Tuple[SymMatrix, float, float]]:
    """``(omega, upper, lower)`` for :func:`inverse`: ``omega = D A^-1 D``
    of ``A = D m D`` (``d`` positive) from the Cholesky factor of ``A``,
    and an upper and a lower bound on the condition number of ``A``, or
    None when the Cholesky fails.  ``upper = ||A||_1 ||A^-1||_1``, since
    ``||X||_2 <= ||X||_1`` for a symmetric ``X`` (Higham, *Accuracy and
    Stability of Numerical Algorithms*, ch. 6).  ``lower`` bounds the
    largest eigenvalue of ``A`` from below by ``max(1, 1^T A 1 / p,
    ||A||_1 / sqrt(p))`` and that of ``A^-1`` by ``max(max_j A^-1_jj,
    ||A^-1||_1 / sqrt(p))``.  ``A`` goes once it is factored and the
    factor once it is inverted, and each norm is taken on the buffer of an
    array that is done with, so no more than two ``p x p`` arrays are held
    at once."""
    unit = d[:, None] * m * d[None, :]
    try:
        half = np.linalg.cholesky(unit)
    except np.linalg.LinAlgError:
        return None
    root = math.sqrt(len(m))
    rayleigh = float(np.sum(unit)) / len(m)  # the Rayleigh quotient at the vector of ones
    norm = float(np.max(np.sum(np.abs(unit, out=unit), axis=0)))
    del unit
    half = np.linalg.inv(half)
    half *= d
    omega = np.dot(half.T, half)  # numpy's syrk for a product with its own transpose
    # A^-1 = S omega S with S = D^-1: its column sums of magnitudes on half's buffer
    s = 1.0 / d
    inv_norm = float(np.max(np.dot(s, np.abs(omega, out=half)) * s))
    del half
    inv_diag = float(np.max(omega.diagonal() * s * s))
    lower = max(1.0, rayleigh, norm / root) * max(inv_diag, inv_norm / root)
    return omega, norm * inv_norm, lower


# ---------------------------------------------------------------------------
# Residual covariances and their factored updates
# ---------------------------------------------------------------------------


def residual_covariance(sigma: SymMatrix, subset: Sequence[int]) -> SymMatrix:
    """Residual covariance after projecting out the selected columns.

    For a PSD matrix ``sigma`` and index set ``U`` this is the generalized
    Schur complement ``sigma - sigma[:, U] @ ginv(sigma[U, U]) @ sigma[U, :]``
    as a full ``p x p`` matrix: entry ``(i, j)`` is the covariance of the
    residuals of variables ``i`` and ``j`` after regression on the subset.
    Rows and columns of selected variables come out at roughly machine scale
    (they are never zeroed exactly).

    The empty subset returns a copy of ``sigma``.
    """
    sigma = np.asarray(sigma, dtype=float)
    p = check_square(sigma)
    u = check_subset(p, subset)
    if not u:
        return sigma.copy()
    idx = list(u)
    cols = sigma[:, idx]
    res = sigma - cols @ (ginv(sigma[np.ix_(idx, idx)]) @ cols.T)
    return _clamp_diag(_sym(res))


class Factor(NamedTuple):
    """The residual covariance of a subset, ``R = sigma - L L^T``, by factor.

    ``L`` (``p x k``) has one column per selected variable, so that ``L
    L^T = sigma[:, U] ginv(sigma_U) sigma[U, :]``; a variable that added no
    rank to the ones before it has a zero column.  ``diag = diag R``.  Row
    j of ``lt`` is column j of ``L``, so a column is added or dropped as one
    contiguous row.  With squares, the factor also carries ``diag_sq = diag
    R^2`` (the squared column norms of ``R``), and row j of ``lt`` goes on
    with column j of ``sigma L``, which keeps ``diag_sq`` up to date;
    without, ``diag_sq`` is None.  The kernels take a stack of ``B``
    factors, a leading axis of length ``B`` on each array
    (:class:`csskit.criteria.StateStack`); the methods read one factor.
    The kernels return new factors and update none in place; only
    :meth:`csskit.criteria.StateStack.put` overwrites rows of the stack it
    holds.
    """

    lt: np.ndarray
    diag: np.ndarray
    diag_sq: Optional[np.ndarray]

    @classmethod
    def empty(cls, sigma: SymMatrix, squares: bool) -> "Factor":
        """The factor of the empty subset: ``R = sigma``."""
        p = sigma.shape[0]
        diag = sigma.diagonal().copy()
        if not squares:
            return cls(np.zeros((0, p)), diag, None)
        return cls(np.zeros((0, 2 * p)), diag, np.einsum("ij,ij->i", sigma, sigma))

    def map(self, fn) -> "Factor":
        """The factor of ``fn`` applied to each array it carries (to take
        rows of a stack of factors, say)."""
        lt, diag, sq = self
        return Factor(fn(lt), fn(diag), None if sq is None else fn(sq))

    def residual(self, sigma: SymMatrix) -> SymMatrix:
        """``sigma - L L^T`` as a dense ``p x p`` matrix, O(p^2 r)."""
        l = self.lt[:, : self.diag.shape[0]]
        return _clamp_diag(_sym(sigma - np.dot(l.T, l)))

    def columns(self, sigma: SymMatrix, idx: np.ndarray) -> np.ndarray:
        """``R[:, idx] = sigma[:, idx] - L L[idx]^T``, O(pr) per column."""
        l = self.lt[:, : self.diag.shape[0]]
        return sigma[:, idx] - np.dot(l.T, self.lt.take(idx, 1))


# The row helpers of the kernels: one BLAS call per row of a stack, through
# np.matmul, which reads the strided L = lt[..., :p] in place where np.dot
# would copy it.  A stack of one takes its row dot through np.dot, the same
# BLAS call without np.matmul's overhead.


def _rowdot(a: np.ndarray, b: np.ndarray):
    """``a[b] . b[b]`` for each row, as a ``B x 1`` column (a scalar for a
    stack of one)."""
    if len(a) == 1:
        return np.dot(a[0], b[0])
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0]


def _vecmat(v: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``v[b] @ m[b]`` for each row."""
    return np.matmul(v[:, None, :], m)[:, 0]


def _matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``m @ v[b]`` for each row, ``m`` one matrix for all rows or one per
    row."""
    return np.matmul(m, v[:, :, None])[:, :, 0]


def residual_add(sigma: SymMatrix, factor: Factor, i: np.ndarray) -> Factor:
    """Append variable ``i[b]`` to row ``b`` of a stack of residual factors.

    With pivot ``R_ii = factor.diag[b, i]`` the new column of ``L`` is ``g =
    (sigma[:, i] - L L[i]^T) / sqrt(R_ii)`` and the residual becomes ``R - g
    g^T``, in O(pr).  With squares, the matvec ``sigma g`` gives the new
    column of ``sigma L`` and ``diag (R - g g^T)^2 = diag R^2 - g * (2 Rg -
    |g|^2 g)``, in O(p^2).  A variable that does not add rank,
    ``adds_rank(R_ii, sigma_ii)`` false, is already (numerically) in the
    span of the selection: its column is ``g = 0``, which leaves ``diag R``
    and ``diag R^2`` as they are, bit for bit.  Unchecked: the arguments
    come from :func:`csskit.criteria.advance_stack`.
    """
    lt = factor.lt
    n, r = lt.shape[:2]
    if n == 1:
        # one row: its pivot as a float, column i of L and row i of sigma as
        # the views one factor has
        j = int(i[0])
        pivot, col, row = float(factor.diag[0, j]), lt[:, :, j], sigma[j : j + 1]
        root = math.sqrt(pivot) if adds_rank(pivot, sigma[j, j]) else math.inf  # g = 0 where not
    else:
        b = np.arange(n)
        pivot = factor.diag[b, i][:, None]
        root = np.sqrt(np.where(adds_rank(pivot, sigma[i, i][:, None]), pivot, np.inf))
        # column i of each L with a non-unit stride, as a view of one has:
        # OpenBLAS's matrix-vector kernels round a unit-stride vector differently
        col = np.empty((n, r, 2))[..., 0]
        col[...] = lt[b, :, i]
        row = sigma[i]
    p = sigma.shape[0]
    l = lt[..., :p]
    g = (row - _vecmat(col, l)) / root  # row i of sigma is its column i
    new = np.empty((n, r + 1, lt.shape[2]))
    new[:, :r] = lt
    new[:, r, :p] = g
    diag = np.maximum(factor.diag - g * g, 0.0)
    if factor.diag_sq is None:
        return Factor(new, diag, None)
    sg = new[:, r, p:] = _matvec(sigma, g)
    rg2 = 2.0 * (sg - _vecmat(_matvec(l, g), l))
    return Factor(new, diag, factor.diag_sq - g * (rg2 - _rowdot(g, g) * g))


def residual_remove(factor: Factor, u: np.ndarray) -> Factor:
    """Drop the direction ``h = L[b] u[b]``, ``u[b]`` a unit vector, from
    row ``b`` of a stack of residual factors.

    One Householder reflection ``H`` with ``H u = -+e_r`` turns ``L`` into
    ``L H``, whose last column is ``-+h``; the other ``r - 1`` columns are
    the new factor, and the residual becomes ``R + h h^T``.  With squares,
    ``sigma L`` is reflected alike, which gives ``sigma h`` without a
    matvec, and ``diag (R + h h^T)^2 = diag R^2 + h * (2 Rh + |h|^2 h)``.
    Cost O(pr).  Unchecked: the arguments come from
    :func:`csskit.criteria.retract_stack`.
    """
    lt = factor.lt
    p = factor.diag.shape[-1]
    hs = _vecmat(u, lt)
    h = hs[:, :p]
    diag = factor.diag + h * h
    diag_sq = factor.diag_sq
    if diag_sq is not None:
        l = lt[..., :p]
        rh2 = 2.0 * (hs[:, p:] - _vecmat(_matvec(l, h), l))
        diag_sq = diag_sq + h * (rh2 + _rowdot(h, h) * h)
    last = float(u[0, -1]) if len(u) == 1 else u[:, -1:]  # u_r: a float for one row
    scale = 1.0 + abs(last)
    v = u.copy()
    v[:, -1:] = last + (2.0 * (last >= 0.0) - 1.0)  # u + sign(u_r) e_r, so |v|^2 = 2 + 2 |u_r|
    # the outer product by einsum: the same products as a broadcast multiply,
    # without the buffers numpy allocates for one
    new = np.einsum("bi,bj->bij", v[:, :-1] / scale, _vecmat(v, lt))
    np.subtract(lt[:, :-1], new, out=new)
    return Factor(new, diag, diag_sq)


def pinv_add(
    block_pinv: SymMatrix,
    sigma: SymMatrix,
    current: Sequence[int],
    i: int,
) -> SymMatrix:
    """Grow a selected-block pseudo-inverse by one variable.

    Given ``block_pinv = pinv(sigma[U, U])`` for the ordered subset ``U``,
    returns ``pinv(sigma[V, V])`` for ``V = U + (i,)``.

    With ``b = sigma[U, i]``, ``c = sigma[i, i]``, ``d = block_pinv @ b`` and
    Schur complement ``s = c - b @ d``: when ``adds_rank(s, c)``, the
    bordered identity ``[[P + d d^T/s, -d/s], [-d^T/s, 1/s]]`` is exact
    (``sigma`` is PSD, so ``b`` lies in the range of ``sigma[U, U]``) and
    costs O(k^2).  Otherwise the grown block is freshly pseudo-inverted.
    Unchecked: ``current`` must be valid indices of ``sigma`` without
    ``i``.  No search calls it: a search state inverts its blocks where a
    score or an objective needs them (:mod:`csskit.criteria`).
    """
    k = len(current)
    idx = list(current)
    b = sigma[idx, i]
    c = float(sigma[i, i])
    d = block_pinv @ b
    s = c - float(b @ d)
    if not adds_rank(s, c):
        v = idx + [i]
        return pseudo_inverse(sigma[np.ix_(v, v)])
    out = np.empty((k + 1, k + 1))
    out[:k, :k] = block_pinv + d[:, None] * (d / s)
    out[:k, k] = out[k, :k] = -d / s
    out[k, k] = 1.0 / s
    return _sym(out)


def pinv_remove(block_pinv: SymMatrix, position: int) -> SymMatrix:
    """Shrink the inverse of a nonsingular block by the variable at
    ``position``.

    Partitioning ``block_pinv`` with the removed variable last as
    ``[[P, q], [q^T, r]]``, the inverse of the remaining block is the Schur
    downdate ``P - q q^T / r``, exact when the block is nonsingular, as
    every block of a nonsingular matrix is.  Cost O(k^2).  Unchecked:
    ``position`` must lie in the block.  No search calls it (see
    :func:`pinv_add`).
    """
    keep = np.arange(block_pinv.shape[0]) != position
    q = block_pinv[keep, position]
    r = float(block_pinv[position, position])
    return _sym(block_pinv[keep][:, keep] - q[:, None] * (q / r))
