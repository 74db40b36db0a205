"""Covariance estimation from (possibly incomplete) data matrices.

Conventions: rows are observations, columns are variables, and the
covariance divisor is ``n`` (not ``n - 1``) throughout -- the objectives
downstream are normalized by ``n``, so the maximum-likelihood divisor keeps
the algebra exact.  Missing entries are NaN inside :class:`DataMatrix`;
CSV input treats empty fields, ``NA``, and ``NaN`` as missing.
"""

import csv
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from . import symmat
from .errors import DimMismatch, HasMissing, InsufficientOverlap, NonFinite, ZeroVariance
from .symmat import SymMatrix


@dataclass
class DataMatrix:
    """An ``n x p`` data matrix; NaN marks a missing entry."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise DimMismatch(f"data must be 2-d, got shape {self.values.shape}")
        if np.isinf(self.values).any():
            raise NonFinite("data contains infinity")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]

    @property
    def has_missing(self) -> bool:
        return bool(np.isnan(self.values).any())


def _as_data(x) -> DataMatrix:
    return x if isinstance(x, DataMatrix) else DataMatrix(np.asarray(x, dtype=float))


def sample_cov(x) -> SymMatrix:
    """Sample covariance ``(X - mean)^T (X - mean) / n`` (complete data only)."""
    data = _as_data(x)
    if data.has_missing:
        raise HasMissing("sample_cov requires complete data; see pairwise_cov_psd")
    if data.n < 1:
        raise DimMismatch("need at least one observation")
    vals = data.values
    xc = vals - vals.mean(axis=0)
    cov = xc.T @ xc / data.n
    return (cov + cov.T) / 2.0


def pairwise_cov(x) -> Tuple[SymMatrix, np.ndarray]:
    """Pairwise-complete covariance (before PSD projection) and overlap counts.

    Column means are taken over each column's own observed rows; the (s, t)
    entry averages cross-products over rows where both are observed,
    divided by that overlap count.  Requires at least 2 observations per
    column and at least 1 per pair, else :class:`InsufficientOverlap`.
    The result is symmetric but in general indefinite.
    """
    data = _as_data(x)
    vals = data.values
    mask = ~np.isnan(vals)
    col_counts = mask.sum(axis=0)
    for t in np.flatnonzero(col_counts < 2).tolist():
        raise InsufficientOverlap(t, t, int(col_counts[t]))
    counts = mask.astype(np.float64).T @ mask.astype(np.float64)
    bad = np.argwhere(counts < 1)
    if bad.size:
        s, t = (int(v) for v in bad[0])
        raise InsufficientOverlap(s, t, 0)
    means = np.nansum(vals, axis=0) / col_counts
    xc = np.where(mask, vals - means, 0.0)
    num = xc.T @ xc
    psi = num / counts
    return (psi + psi.T) / 2.0, counts.astype(np.int64)


def pairwise_cov_psd(x) -> SymMatrix:
    """PSD-projected pairwise-complete covariance.

    With no missing entries this reduces to :func:`sample_cov` exactly (the
    same arithmetic, no projection).  Otherwise the pairwise estimate is
    projected onto the PSD cone by eigenvalue clamping.
    """
    data = _as_data(x)
    if not data.has_missing:
        return sample_cov(data)
    psi, _ = pairwise_cov(data)
    return symmat.psd_project(psi)


def to_correlation(sigma: SymMatrix) -> SymMatrix:
    """Rescale a covariance to a correlation matrix (unit diagonal).

    Raises :class:`ZeroVariance` on a nonpositive diagonal entry.
    """
    sigma = np.asarray(sigma, dtype=float)
    p = sigma.shape[0]
    if sigma.ndim != 2 or sigma.shape != (p, p):
        raise DimMismatch(f"expected a square matrix, got shape {sigma.shape}")
    d = sigma.diagonal()
    for i in np.flatnonzero(d <= 0.0).tolist():
        raise ZeroVariance(int(i))
    s = np.sqrt(d)
    corr = sigma / np.outer(s, s)
    corr = (corr + corr.T) / 2.0
    np.fill_diagonal(corr, 1.0)
    return corr


# ---------------------------------------------------------------------------
# CSV I/O
# ---------------------------------------------------------------------------

MISSING_TOKENS = ("", "NA", "NaN")


def _read_rows(path: str, header: bool) -> list:
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if header and rows:
        rows = rows[1:]
    return rows


def _parse_cell(cell: str) -> float:
    token = cell.strip()
    if token in MISSING_TOKENS or token.lower() in ("na", "nan"):
        return float("nan")
    return float(token)


def read_data_csv(path: str, header: bool = False) -> DataMatrix:
    """Read a comma-separated data matrix; empty/NA/NaN cells are missing."""
    rows = _read_rows(path, header)
    if not rows:
        raise DimMismatch(f"{path}: no data rows")
    width = len(rows[0])
    out = np.empty((len(rows), width))
    for r, row in enumerate(rows):
        if len(row) != width:
            raise DimMismatch(f"{path}: row {r} has {len(row)} fields, expected {width}")
        out[r] = [_parse_cell(c) for c in row]
    return DataMatrix(out)


def read_cov_csv(path: str, header: bool = False) -> SymMatrix:
    """Read a covariance matrix from a plain ``p x p`` CSV grid.

    Symmetry is checked by :func:`csskit.symmat.as_symmetric` and then
    enforced exactly.
    """
    data = read_data_csv(path, header)
    if data.has_missing:
        raise NonFinite(f"{path}: covariance grid contains missing entries")
    return symmat.as_symmetric(data.values)


def write_matrix_csv(path: str, m: np.ndarray, header: Optional[Sequence[str]] = None):
    """Write a matrix with 17 significant digits (exact float round-trip)."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if header is not None:
            writer.writerow(list(header))
        for row in m:
            writer.writerow([format(v, ".17g") for v in row])


def covest_diagnostics(x) -> Dict[str, object]:
    """Diagnostics for a pairwise-complete estimate: eigenvalue floor before
    and after projection plus overlap-count extremes."""
    data = _as_data(x)
    if not data.has_missing:
        cov = sample_cov(data)
        w = symmat.eigh_desc(cov).values
        return {
            "missing_fraction": 0.0,
            "min_overlap": int(data.n),
            "max_overlap": int(data.n),
            "min_eig_before": float(w[-1]),
            "min_eig_after": float(w[-1]),
        }
    psi, counts = pairwise_cov(data)
    w_before = symmat.eigh_desc(psi).values
    w_after = symmat.eigh_desc(symmat.psd_project(psi)).values
    frac = float(np.isnan(data.values).mean())
    return {
        "missing_fraction": frac,
        "min_overlap": int(counts.min()),
        "max_overlap": int(counts.max()),
        "min_eig_before": float(w_before[-1]),
        "min_eig_after": float(w_after[-1]),
    }
