"""Command-line interface.

Four subcommands: ``select`` (subset search on a covariance or data file),
``covest`` (covariance estimation with optional pairwise-complete handling
of missing entries), ``choose-k`` (size selection), and ``simulate``
(the shipped synthetic studies).  Exit codes: 0 success, 2 bad flags
(argparse default), 3 structured numerical/data failure (the message names
the error class).

Randomized commands require ``--seed``; given the same inputs and seed the
outputs are byte-identical except for timing fields in the run manifest.
"""

import argparse
import hashlib
import json
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

import numpy as np

from . import __version__, covest, criteria, search, simlab, sizesel, symmat
from .criteria import Criterion, CriterionKind
from .errors import CssKitError
from .search import SearchConfig
from .sizesel import Model

CRITERION_TOKENS = {
    "css": CriterionKind.CSS_TRACE,
    "det": CriterionKind.DET_RESIDUAL,
    "frob": CriterionKind.FROB_RESIDUAL,
    "cc": CriterionKind.CANON_CORR,
    "diag-det": CriterionKind.DIAG_DET,
    "iso-lrt": CriterionKind.ISO_LRT,
}


@dataclass
class RunManifest:
    """Reproducibility record written alongside command outputs."""

    command: str
    argv: List[str]
    params: Dict[str, object]
    seed: Optional[int]
    version: str = field(default="")
    input_digests: Dict[str, str] = field(default_factory=dict)
    timings: Dict[str, float] = field(default_factory=dict)
    started_at: float = 0.0

    def to_json_dict(self) -> dict:
        return {"schema": "csskit/run-manifest/v1", **asdict(self)}


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _manifest(args, command: str, inputs: List[str]) -> RunManifest:
    params = {k: v for k, v in vars(args).items() if k not in ("func", "argv")}
    return RunManifest(
        command=command,
        argv=args.argv,
        params=params,
        seed=getattr(args, "seed", None),
        version=__version__,
        input_digests={p: _sha256(p) for p in inputs if p},
        started_at=time.time(),
    )


def _write_manifest(manifest: RunManifest, out: Optional[str]):
    if out:
        with open(out + ".manifest.json", "w") as fh:
            json.dump(manifest.to_json_dict(), fh, indent=2)
            fh.write("\n")


def _read(manifest: RunManifest, read, path: str, header: bool):
    """``read(path, header=header)``, its wall time recorded as ``read_s``."""
    t0 = time.perf_counter()
    out = read(path, header=header)
    manifest.timings["read_s"] = time.perf_counter() - t0
    return out


def _load_sigma(args, manifest: RunManifest) -> np.ndarray:
    """Covariance from --cov, or estimated from --data."""
    if args.cov:
        sigma = _read(manifest, covest.read_cov_csv, args.cov, args.header)
    else:
        sigma = covest.pairwise_cov_psd(_read(manifest, covest.read_data_csv, args.data, args.header))
    if args.standardize:
        sigma = covest.to_correlation(sigma)
    return sigma


def _parse_k_range(text: str):
    lo, sep, hi = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError("expected A..B")
    try:
        lo_i, hi_i = int(lo), int(hi)
    except ValueError as exc:
        raise argparse.ArgumentTypeError("expected integers A..B") from exc
    if lo_i < 1 or hi_i < lo_i:
        raise argparse.ArgumentTypeError(f"bad range {text}")
    return lo_i, hi_i


# ---------------------------------------------------------------------------
# select
# ---------------------------------------------------------------------------


def cmd_select(args, parser: argparse.ArgumentParser) -> int:
    if args.method == "swap" and args.seed is None:
        parser.error("--method swap requires --seed")
    manifest = _manifest(args, "select", [args.cov or args.data])
    t0 = time.perf_counter()
    sigma = _load_sigma(args, manifest)
    manifest.timings["load_s"] = time.perf_counter() - t0
    p = sigma.shape[0]
    kind = CRITERION_TOKENS[args.criterion]
    ks = list(range(args.k_range[0], args.k_range[1] + 1)) if args.k_range else [args.k]
    trace = float(np.trace(sigma))
    pca_cum = None
    if args.pca:
        vals = symmat.eigh_desc(sigma).values
        pca_cum = np.cumsum(np.maximum(vals, 0.0)) / max(trace, 1e-300)

    rows = []
    t_search = time.perf_counter()
    if args.method == "greedy" and kind != CriterionKind.ISO_LRT:
        # greedy's prefixes are its smaller picks, but not under IsoLrt (p - k)
        k_top = max(ks)
        crit = Criterion(kind, p=p, k=k_top)
        result = search.greedy(sigma, SearchConfig(k=k_top, criterion=crit))
        for k in ks:
            prefix = result.subset[:k]
            obj = criteria.evaluate(Criterion(kind, p=p, k=k), sigma, prefix)
            rows.append((k, prefix, obj))
    else:
        for k in ks:
            crit = Criterion(kind, p=p, k=k)
            if args.method == "greedy":
                result = search.greedy(sigma, SearchConfig(k=k, criterion=crit))
            elif args.method == "swap":
                cfg = SearchConfig(
                    k=k,
                    criterion=crit,
                    restarts=args.restarts,
                    max_sweeps=args.max_sweeps,
                    seed=args.seed + 1000003 * k,
                )
                result = search.swap(sigma, cfg)
            else:
                result = search.exhaustive(sigma, SearchConfig(k=k, criterion=crit))
            rows.append((k, result.subset, result.objective))
    manifest.timings["search_s"] = time.perf_counter() - t_search

    header = ["k", "objective", "avg_r2", "subset"]
    if pca_cum is not None:
        header.append("pca_cumvar")
    lines = [",".join(header)]
    for k, subset, obj in rows:
        avg_r2 = 1.0 - obj / trace if trace > 0 else float("nan")
        cells = [
            str(k),
            format(obj, ".17g"),
            format(avg_r2, ".17g"),
            ";".join(str(i) for i in subset),
        ]
        if pca_cum is not None:
            cells.append(format(float(pca_cum[k - 1]), ".17g"))
        lines.append(",".join(cells))
    text = "\n".join(lines) + "\n"
    manifest.timings["total_s"] = time.perf_counter() - t0
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        _write_manifest(manifest, args.out)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# covest
# ---------------------------------------------------------------------------


def cmd_covest(args, parser: argparse.ArgumentParser) -> int:
    manifest = _manifest(args, "covest", [args.data])
    t0 = time.perf_counter()
    data = _read(manifest, covest.read_data_csv, args.data, args.header)
    pairwise = args.missing == "pairwise-psd"
    if pairwise:
        parts = covest.pairwise_parts(data)
        sigma = parts[2]
    else:
        sigma = covest.sample_cov(data)
    if args.standardize:
        sigma = covest.to_correlation(sigma)
    manifest.timings["load_s"] = time.perf_counter() - t0
    diagnostics = {"n": data.n, "p": data.p, "missing": args.missing}
    diagnostics.update(covest.covest_diagnostics(data, *parts) if pairwise else {"missing_fraction": 0.0})
    manifest.timings["total_s"] = time.perf_counter() - t0
    if args.out:
        covest.write_matrix_csv(args.out, sigma)
        with open(args.out + ".diag.json", "w") as fh:
            json.dump(diagnostics, fh, indent=2)
            fh.write("\n")
        _write_manifest(manifest, args.out)
    else:
        for row in sigma:
            sys.stdout.write(",".join(format(v, ".17g") for v in row) + "\n")
        sys.stderr.write(json.dumps(diagnostics) + "\n")
    return 0


# ---------------------------------------------------------------------------
# choose-k
# ---------------------------------------------------------------------------


def cmd_choose_k(args, parser: argparse.ArgumentParser) -> int:
    manifest = _manifest(args, "choose-k", [args.data])
    t0 = time.perf_counter()
    data = _read(manifest, covest.read_data_csv, args.data, args.header)
    sigma = covest.pairwise_cov_psd(data)
    manifest.timings["load_s"] = time.perf_counter() - t0
    report = sizesel.choose_k(
        sigma,
        n=data.n,
        alpha=args.alpha,
        model=Model(args.model),
        restarts=args.restarts,
        mc_samples=args.mc_samples,
        seed=args.seed,
        k_max=args.k_max,
    )
    manifest.timings["search_s"] = report.search_s
    manifest.timings["calibrate_s"] = report.calibrate_s
    manifest.timings["total_s"] = time.perf_counter() - t0
    text = report.to_json() + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        _write_manifest(manifest, args.out)
    else:
        sys.stdout.write(text)
    sys.stderr.write(f"chosen k = {report.chosen_k}\n")
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args, parser: argparse.ArgumentParser) -> int:
    manifest = _manifest(args, "simulate", [])
    t0 = time.perf_counter()
    if args.scenario == "missing-a1":
        rows, summary = simlab.run_missing_study(
            trials=args.trials,
            n=args.n,
            seed=args.seed,
            mar_prob=args.mar_prob,
            restarts=args.restarts,
        )
    else:
        rows, summary = simlab.run_sizesel_study(
            trials=args.trials,
            n=args.n,
            alpha=args.alpha,
            signal=args.signal,
            factors=args.factors,
            seed=args.seed,
            restarts=args.restarts,
            mc_samples=args.mc_samples,
            timings=manifest.timings,
        )
    manifest.timings["total_s"] = time.perf_counter() - t0
    if args.out:
        simlab.write_rows_csv(args.out, rows)
        with open(args.out + ".summary.json", "w") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
        _write_manifest(manifest, args.out)
    else:
        sys.stdout.write(json.dumps(summary, indent=2) + "\n")
    return 0


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be non-negative, got {seed}")
    return seed


def _add_seed(sp: argparse.ArgumentParser, *, seed_required: bool):
    sp.add_argument("--seed", type=_seed, default=None, required=seed_required,
                    help="base RNG seed" + (" (required)" if seed_required else ""))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csskit",
        description="Covariance-based column subset selection toolkit",
    )
    parser.add_argument("--version", action="version", version=f"csskit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("select", help="search for a column subset")
    source = ps.add_mutually_exclusive_group(required=True)
    source.add_argument("--cov", help="covariance CSV (p x p grid)")
    source.add_argument("--data", help="data CSV (rows = observations)")
    ps.add_argument("--header", action="store_true", help="input has a header row")
    size = ps.add_mutually_exclusive_group(required=True)
    size.add_argument("--k", type=int, default=None, help="subset size")
    size.add_argument("--k-range", type=_parse_k_range, default=None, metavar="A..B",
                      help="inclusive range of subset sizes")
    ps.add_argument("--method", choices=["greedy", "swap", "exhaustive"],
                    default="greedy")
    ps.add_argument("--criterion", choices=sorted(CRITERION_TOKENS), default="css")
    ps.add_argument("--restarts", type=int, default=1)
    ps.add_argument("--max-sweeps", type=int, default=100)
    ps.add_argument("--standardize", action="store_true",
                    help="rescale the covariance to a correlation matrix first")
    ps.add_argument("--pca", action="store_true",
                    help="append the eigenvalue cumulative-variance column")
    ps.add_argument("--out", default=None, help="output CSV (default: stdout)")
    _add_seed(ps, seed_required=False)
    ps.set_defaults(func=cmd_select)

    pc = sub.add_parser("covest", help="estimate a covariance matrix")
    pc.add_argument("--data", required=True)
    pc.add_argument("--header", action="store_true")
    pc.add_argument("--missing", choices=["pairwise-psd", "none"], default="none")
    pc.add_argument("--standardize", action="store_true")
    pc.add_argument("--out", default=None, help="output covariance CSV")
    pc.set_defaults(func=cmd_covest)

    pk = sub.add_parser("choose-k", help="select the subset size by testing")
    pk.add_argument("--data", required=True)
    pk.add_argument("--header", action="store_true")
    pk.add_argument("--alpha", type=float, default=0.05,
                    help="level of each size's test, in (0, 0.5]")
    pk.add_argument("--model", choices=[m.value for m in Model],
                    default=Model.SUBSET_FACTOR.value)
    pk.add_argument("--mc-samples", type=int, default=100_000,
                    help="recorded in the report, not used: critical values are "
                         "exact (must be >= 1000)")
    pk.add_argument("--restarts", type=int, default=1)
    pk.add_argument("--k-max", type=int, default=None)
    pk.add_argument("--out", default=None, help="output report JSON")
    _add_seed(pk, seed_required=True)
    pk.set_defaults(func=cmd_choose_k)

    pm = sub.add_parser("simulate", help="run a shipped synthetic study")
    pm.add_argument("--scenario", choices=["missing-a1", "sizesel-a2"], required=True)
    pm.add_argument("--trials", type=int, default=100)
    pm.add_argument("--n", type=int, default=200)
    pm.add_argument("--alpha", type=float, default=0.05,
                    help="sizesel-a2: level of each size's test, in (0, 0.5]")
    pm.add_argument("--signal", type=float, default=0.254,
                    help="noise-variance scale for sizesel-a2 (smaller = stronger signal)")
    pm.add_argument("--factors", choices=["gaussian", "mixed"], default="gaussian")
    pm.add_argument("--mar-prob", type=float, default=0.05)
    pm.add_argument("--restarts", type=int, default=10)
    pm.add_argument("--mc-samples", type=int, default=100_000,
                    help="sizesel-a2: recorded in the summary, not used: critical "
                         "values are exact (must be >= 1000)")
    pm.add_argument("--out", default=None, help="output rows CSV")
    _add_seed(pm, seed_required=True)
    pm.set_defaults(func=cmd_simulate)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args.argv = argv
    try:
        return args.func(args, parser)
    except CssKitError as exc:
        sys.stderr.write(f"error [{type(exc).__name__}]: {exc}\n")
        return 3
    except OSError as exc:
        sys.stderr.write(f"error [io]: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
