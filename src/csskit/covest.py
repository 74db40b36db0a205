"""Covariance estimation from (possibly incomplete) data matrices.

Conventions: rows are observations, columns are variables, and the
covariance divisor is ``n`` (not ``n - 1``) throughout -- the objectives
downstream are normalized by ``n``, so the maximum-likelihood divisor keeps
the algebra exact.  Missing entries are NaN inside :class:`DataMatrix`.

CSV grammar (:func:`read_data_csv`, and :func:`read_cov_csv` on top of it):

* one row per line, fields separated by ``,`` (a quoted field holds no
  comma: the field count counts every comma, and a field that holds one
  is not a number); every row has as many fields as the first, else
  :class:`~csskit.errors.DimMismatch` names the line;
* lines with no characters at all are skipped; with ``header=True`` the
  first remaining line is skipped unread;
* a field may be enclosed in double quotes when the quote is its first
  character; ``""`` inside quotes is one quote character; a quote still
  open at the end of its line raises :class:`~csskit.errors.DimMismatch`
  naming the line (a quoted field holds no line break);
* a field that is empty, all whitespace, or ``NA`` or ``nan`` in any case,
  bare or quoted and with any surrounding whitespace, is missing (NaN);
* any other field is a number as numpy reads it: optional surrounding
  whitespace, sign, digits, ``.``, exponent, or ``inf`` / ``infinity`` in
  any case; anything else, ``1_000`` included, raises
  :class:`~csskit.errors.DimMismatch` naming the line and column;
* there is no comment character: ``#`` is an ordinary, non-numeric byte;
* an infinite value (``inf``, or ``1e400`` after overflow) raises
  :class:`~csskit.errors.NonFinite`;
* the file is read as UTF-8 whatever the locale; a byte that is not UTF-8
  makes its field no number, and in the skipped header it is ignored;
* a UTF-8 byte-order mark at the start of the file is dropped (one
  anywhere else is an ordinary byte).

The file is read twice.  The first pass counts its rows, so that the
matrix is allocated once and each block is parsed into its rows of it; a
stream that cannot seek (a pipe) is read into memory for this.  The second
pass reads blocks of at most ``_BLOCK_LINES`` lines, cut shorter where the
lines are long so that about ``_BLOCK_CHARS`` characters of text are held
at a time.  numpy parses each block with
one :func:`numpy.loadtxt` call and no quote character: it skips blank
lines, reads ``nan`` as NaN, checks that the block's rows are equally wide
and refuses every other missing field and every quoted one.  So blocks
that spell missing cells ``nan`` (or have none) and quote nothing are read
with no Python loop over their lines.  A block that numpy refuses, or whose
width differs from the first block's, is read again field by field: that
reader gives the missing fields, the quoted ones and the typed errors with
their line and column.
"""

import csv
import io
import warnings
from dataclasses import dataclass
from typing import Dict, List, Tuple

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
    cov = xc.T @ xc
    cov /= data.n
    return symmat._sym(cov)


# Largest n whose overlap counts float32 sums exactly (its 24-bit significand).
_EXACT_F32 = 2**24


def pairwise_cov(x) -> Tuple[SymMatrix, np.ndarray]:
    """Pairwise-complete covariance (before PSD projection) and overlap counts.

    Column means are taken over each column's own observed rows; the (s, t)
    entry averages cross-products over rows where both are observed,
    divided by that overlap count.  Requires at least 2 observations per
    column and at least 1 per pair, else :class:`InsufficientOverlap`.
    The result is symmetric but in general indefinite.

    The counts are one product ``M^T M`` of the 0/1 observed mask, held in
    float32 while ``n <= 2**24`` (every partial sum is then an integer that
    float32 holds exactly) and in float64 above; the mask is freed before
    the data are centred in place, so only one ``n x p`` float64 array
    lives beside the input.
    """
    data = _as_data(x)
    vals = data.values
    mask = ~np.isnan(vals)
    col_counts = mask.sum(axis=0)
    for t in np.flatnonzero(col_counts < 2).tolist():
        raise InsufficientOverlap(t, t, int(col_counts[t]))
    m = mask.astype(np.float32 if data.n <= _EXACT_F32 else np.float64)
    counts = np.dot(m.T, m)
    del m
    bad = np.argwhere(counts < 1)
    if bad.size:
        s, t = (int(v) for v in bad[0])
        raise InsufficientOverlap(s, t, 0)
    means = np.nansum(vals, axis=0) / col_counts
    xc = vals - means
    xc[~mask] = 0.0
    psi = np.dot(xc.T, xc)
    del xc
    psi /= counts
    return symmat._sym(psi), counts.astype(np.int64)


def pairwise_parts(x) -> Tuple[SymMatrix, np.ndarray, SymMatrix]:
    """``(psi, counts, sigma)``: the pairwise-complete estimate and overlap
    counts of :func:`pairwise_cov`, and ``sigma``, the estimate of
    :func:`pairwise_cov_psd`.

    With no missing entries ``psi`` and ``sigma`` are both
    :func:`sample_cov` (the same object: there is nothing to project) and
    every count is ``n``.  Otherwise ``sigma = psd_project(psi)``.
    """
    data = _as_data(x)
    if not data.has_missing:
        cov = sample_cov(data)
        return cov, np.full((data.p, data.p), data.n), cov
    psi, counts = pairwise_cov(data)
    return psi, counts, symmat.psd_project(psi)


def pairwise_cov_psd(x) -> SymMatrix:
    """PSD-projected pairwise-complete covariance, ``pairwise_parts(x)[2]``.

    With no missing entries this reduces to :func:`sample_cov` exactly (the
    same arithmetic, no projection).  Otherwise the pairwise estimate is
    projected onto the PSD cone by eigenvalue clamping, with the overlap
    counts already dropped: while it projects, the estimate holds the data,
    the pairwise estimate and the projection's eigendecomposition.
    """
    data = _as_data(x)
    if not data.has_missing:
        return sample_cov(data)
    return symmat.psd_project(pairwise_cov(data)[0])


def to_correlation(sigma: SymMatrix) -> SymMatrix:
    """Rescale a covariance to a correlation matrix (unit diagonal).

    Raises :class:`ZeroVariance` on a nonpositive diagonal entry.
    """
    sigma = np.asarray(sigma, dtype=float)
    symmat.check_square(sigma)
    d = sigma.diagonal()
    for i in np.flatnonzero(d <= 0.0).tolist():
        raise ZeroVariance(int(i))
    s = np.sqrt(d)
    corr = np.outer(s, s)
    np.divide(sigma, corr, out=corr)
    corr = symmat._sym(corr)
    np.fill_diagonal(corr, 1.0)
    return corr


# ---------------------------------------------------------------------------
# CSV I/O
# ---------------------------------------------------------------------------

_LOADTXT = dict(delimiter=",", ndmin=2, dtype=float, comments=None)

# Lines per numpy call: enough that the call's own cost is lost in the
# parsing, few enough that a refused block is cheap to read again.
_BLOCK_LINES = 256
# Characters of text read at a time: on a wide file (a 774-column grid of
# 17-digit numbers has lines of about 17 kB) this, not the line count, keeps
# the text held beside the matrix small.
_BLOCK_CHARS = 2**19


def _chunks(fh):
    """The lines of ``fh`` in lists of about ``_BLOCK_CHARS`` characters
    (at least one line each)."""
    return iter(lambda: fh.readlines(_BLOCK_CHARS), [])


def _cell(path: str, lineno: int, column: int, field: str) -> float:
    """One field as NaN (empty or ``NA``) or as the number numpy reads."""
    token = field.strip()
    if not token or token.lower() == "na":
        return np.nan
    if token.isascii() and "_" not in token:  # what float() reads beyond numpy
        try:
            return float(token)
        except ValueError:
            pass
    raise DimMismatch(f"{path}: line {lineno}, column {column}: {field!r} is not a number")


def _read_fields(path: str, lines: List[str], first: int, width) -> List[List[float]]:
    """The rows of a block that numpy refused, read field by field.

    ``lines`` are numbered from ``first``; ``width`` is the field count of
    the file's first row, or None when no row came before.  The first line
    that is ragged, leaves a quote open or holds a bad field raises
    :class:`DimMismatch`.
    """
    rows = []
    for lineno, line in enumerate(lines, first):
        line = line.rstrip("\n")
        if not line:
            continue
        fields = line.split(",")
        width = width or len(fields)
        if len(fields) != width:
            raise DimMismatch(f"{path}: line {lineno} has {len(fields)} fields, expected {width}")
        if '"' in line:
            # a quote still open at the line's end takes in its line break
            try:
                fields = next(csv.reader((line + "\n",)))
            except csv.Error as exc:  # Python 3.10's csv refuses a NUL byte
                raise DimMismatch(f"{path}: line {lineno}: {exc}") from None
            if fields[-1].endswith("\n"):
                raise DimMismatch(f"{path}: line {lineno} leaves a quote open")
        rows.append([_cell(path, lineno, col, f) for col, f in enumerate(fields, 1)])
    return rows


def read_data_csv(path: str, header: bool = False) -> DataMatrix:
    """Read a comma-separated data matrix; see the module docstring for the
    grammar.  A cell that is neither missing nor a number, or a row of
    another width, raises :class:`DimMismatch` naming the line.

    The matrix is held once: its rows are counted first, and each block
    of lines is parsed into its place, so the peak is the matrix plus one
    block's text and rows (about ``_BLOCK_CHARS`` characters)."""
    out, filled, width, lineno = None, 0, None, 1
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh, warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        if not fh.seekable():
            fh = io.StringIO(fh.read())
        rows = sum(len(chunk) - chunk.count("\n") for chunk in _chunks(fh)) - bool(header)
        fh.seek(0)
        for chunk in _chunks(fh):
            for at in range(0, len(chunk), _BLOCK_LINES):
                lines = chunk[at : at + _BLOCK_LINES]
                first, lineno = lineno, lineno + len(lines)
                if header:  # drop the first non-blank line unread
                    skip = next((i + 1 for i, line in enumerate(lines) if line != "\n"), None)
                    if skip is None:
                        continue
                    header, first, lines = False, first + skip, lines[skip:]
                try:
                    values = np.loadtxt(lines, **_LOADTXT)
                except ValueError:
                    values = None
                if values is None or len(values) and width not in (None, values.shape[1]):
                    values = np.array(_read_fields(path, lines, first, width))
                if len(values):
                    width = values.shape[1]
                    if out is None:
                        out = np.empty((rows, width))
                    out[filled : filled + len(values)] = values
                    filled += len(values)
    if out is None:
        raise DimMismatch(f"{path}: no data rows")
    return DataMatrix(out[:filled])  # no row left unset, whatever the count


def read_cov_csv(path: str, header: bool = False) -> SymMatrix:
    """Read a covariance matrix from a plain ``p x p`` CSV grid.

    Symmetry is checked by :func:`csskit.symmat.as_symmetric` and then
    enforced exactly.  The grid must be positive semidefinite: one pivoted
    Cholesky (:func:`csskit.symmat.log_det`) raises
    :class:`~csskit.errors.NotPSD` on an indefinite grid and accepts a
    singular PSD one, so ``csskit select --cov`` refuses it under every
    method and criterion.  The library's ``greedy`` and ``swap`` do not
    check a raw array: on an indefinite one they can still answer (ROADMAP
    item 19).
    """
    data = read_data_csv(path, header)
    if data.has_missing:
        raise NonFinite(f"{path}: covariance grid contains missing entries")
    sigma = symmat.as_symmetric(data.values)
    symmat.log_det(sigma)  # raises NotPSD on an indefinite grid
    return sigma


def write_matrix_csv(path: str, m: np.ndarray):
    """Write a matrix with 17 significant digits (exact float round-trip)."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in m:
            writer.writerow([format(v, ".17g") for v in row])


def covest_diagnostics(x, psi: SymMatrix, counts: np.ndarray, sigma: SymMatrix) -> Dict[str, object]:
    """Diagnostics for a pairwise-complete estimate from its parts,
    ``psi, counts, sigma = pairwise_parts(x)``: missing fraction,
    overlap-count extremes and the eigenvalue floor before and after
    projection.  Nothing is estimated again."""
    w_before = symmat.eigvals_desc(psi)
    w_after = w_before if sigma is psi else symmat.eigvals_desc(sigma)
    return {
        "missing_fraction": float(np.isnan(_as_data(x).values).mean()),
        "min_overlap": int(counts.min()),
        "max_overlap": int(counts.max()),
        "min_eig_before": float(w_before[-1]),
        "min_eig_after": float(w_after[-1]),
    }
