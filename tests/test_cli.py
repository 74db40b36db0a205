"""Command-line interface: subcommands, exit codes, manifests, file round-trips."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from csskit import covest, search, simlab
from csskit.cli import CRITERION_TOKENS, main
from csskit.criteria import Criterion, CriterionKind
from csskit.search import SearchConfig


def write_cov(path, sigma):
    covest.write_matrix_csv(str(path), np.asarray(sigma, dtype=float))
    return str(path)


@pytest.fixture
def diag_cov(tmp_path):
    return write_cov(tmp_path / "cov.csv", np.diag([1.0, 2.0, 3.0]))


def test_select_greedy_on_cov(diag_cov, tmp_path, capsys):
    out = tmp_path / "sel.csv"
    argv = ["select", "--cov", diag_cov, "--k", "2", "--out", str(out)]
    code = main(argv)
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "k,objective,avg_r2,subset"
    k, obj, avg_r2, subset = lines[1].split(",")
    assert (k, subset) == ("2", "2;1")
    assert float(obj) == pytest.approx(1.0)
    assert float(avg_r2) == pytest.approx(1.0 - 1.0 / 6.0)
    manifest = json.loads((tmp_path / "sel.csv.manifest.json").read_text())
    assert manifest["command"] == "select"
    assert manifest["argv"] == argv  # what main() was given, not sys.argv
    assert diag_cov in manifest["input_digests"]
    timings = manifest["timings"]
    assert 0.0 <= timings["read_s"] <= timings["load_s"] <= timings["total_s"]
    assert 0.0 <= timings["search_s"] <= timings["total_s"] - timings["load_s"]


def test_select_avg_r2_is_the_variance_explained_under_every_criterion(tmp_path, capsys):
    # avg_r2 is 1 - tr R(S) / tr sigma whatever the criterion: under
    # diag-det it once read 1 - objective / tr sigma, 1.44 to 1.95 here
    g = np.random.default_rng(5).standard_normal((8, 8))
    sigma = g @ g.T / 8
    cov = write_cov(tmp_path / "cov.csv", sigma)
    for name in ("css", "det", "frob", "cc", "diag-det", "iso-lrt"):
        assert main(["select", "--cov", cov, "--k-range", "1..6", "--criterion", name]) == 0
        for line in capsys.readouterr().out.splitlines()[1:]:
            k, obj, avg_r2, subset = line.split(",")
            s = [int(i) for i in subset.split(";")]
            resid = sigma - sigma[:, s] @ np.linalg.solve(sigma[np.ix_(s, s)], sigma[s, :])
            want = 1.0 - np.trace(resid) / np.trace(sigma)
            assert float(avg_r2) == pytest.approx(want, rel=1e-10), (name, k)
            assert 0.0 <= float(avg_r2) <= 1.0
            if name == "css":  # css's objective is the residual trace itself
                assert avg_r2 == format(1.0 - float(obj) / np.trace(sigma), ".17g")


def test_select_k_range_and_pca(diag_cov, capsys):
    code = main(
        ["select", "--cov", diag_cov, "--k-range", "1..3", "--pca"]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "k,objective,avg_r2,subset,pca_cumvar"
    assert len(lines) == 4
    objs = [float(line.split(",")[1]) for line in lines[1:]]
    assert objs == sorted(objs, reverse=True)  # nested prefixes only improve
    pca = [float(line.split(",")[4]) for line in lines[1:]]
    assert pca[0] == pytest.approx(0.5)  # top eigenvalue 3 of trace 6
    assert pca[2] == pytest.approx(1.0)


def test_select_greedy_k_range_rows_are_the_k_runs(tmp_path, capsys):
    # Each row of a greedy --k-range run is what --k gives for its k, under
    # every criterion; IsoLrt's picks depend on k, so it cannot use prefixes.
    rng = np.random.default_rng(7)
    g = rng.standard_normal((40, 12))
    cov = write_cov(tmp_path / "c.csv", g.T @ g / 40)
    for token in ("css", "det", "frob", "cc", "diag-det", "iso-lrt"):
        argv = ["select", "--cov", cov, "--criterion", token]
        assert main(argv + ["--k-range", "1..11"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        for k, row in enumerate(rows, start=1):
            assert main(argv + ["--k", str(k)]) == 0
            assert row == capsys.readouterr().out.splitlines()[1], (token, k)


def test_select_swap_seeds_each_size_by_size_seed(tmp_path, capsys):
    # A swap --k-range row is what --k prints for its k with the same
    # --seed: both run search.swap seeded with size_seed(seed, k).
    rng = np.random.default_rng(11)
    g = rng.standard_normal((40, 10))
    sigma = g.T @ g / 40
    cov = write_cov(tmp_path / "c.csv", sigma)
    argv = ["select", "--cov", cov, "--method", "swap", "--restarts", "2", "--seed", "5"]
    assert main(argv + ["--k-range", "2..4"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    sigma = covest.read_cov_csv(cov)
    for k, row in zip(range(2, 5), rows):
        assert main(argv + ["--k", str(k)]) == 0
        assert row == capsys.readouterr().out.splitlines()[1], k
        crit = Criterion(CriterionKind.CSS_TRACE, p=10, k=k)
        cfg = SearchConfig(k=k, criterion=crit, restarts=2, seed=search.size_seed(5, k))
        assert search.size_seed(5, k) == 5 + 1000003 * k
        want = search.swap(sigma, cfg)
        assert row.split(",")[3] == ";".join(map(str, want.subset))
        assert float(row.split(",")[1]) == want.objective


def test_select_swap_requires_seed(diag_cov):
    with pytest.raises(SystemExit) as exc:
        main(["select", "--cov", diag_cov, "--k", "2", "--method", "swap"])
    assert exc.value.code == 2


def test_select_rerun_is_byte_identical(tmp_path):
    rng = np.random.default_rng(163)
    g = rng.standard_normal((30, 6))
    cov = write_cov(tmp_path / "c.csv", g.T @ g / 30)
    out = tmp_path / "o.csv"
    argv = [
        "select", "--cov", cov, "--k", "3", "--method", "swap",
        "--restarts", "3", "--seed", "12", "--out", str(out),
    ]
    assert main(argv) == 0
    first = out.read_bytes()
    first_manifest = json.loads((tmp_path / "o.csv.manifest.json").read_text())
    assert main(argv) == 0
    assert out.read_bytes() == first
    second_manifest = json.loads((tmp_path / "o.csv.manifest.json").read_text())
    for m in (first_manifest, second_manifest):
        m.pop("timings")
        m.pop("started_at")
    assert first_manifest == second_manifest


def _stdout_under_one_and_two_threads(script, *args):
    # The thread count is read when numpy loads, so each run is a process
    # of its own.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-c", script, src, *args],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        outs.append(proc.stdout)
    return outs


# select on one covariance file: greedy with k=30, then a 2-restart swap.
_SELECT_THREADS_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
from csskit.cli import main
argv = ["select", "--cov", sys.argv[2], "--k", "30", "--criterion", "css"]
main(argv)
main(argv + ["--method", "swap", "--restarts", "2", "--seed", "1"])
"""


def test_select_at_p774_is_the_same_under_one_and_two_blas_threads(tmp_path):
    # The covariance is fixed (a file), so the printed bytes are the same.
    rng = np.random.default_rng(774)
    g = rng.standard_normal((774, 40))
    sigma = g @ g.T / 40 + np.diag(rng.uniform(0.2, 0.5, 774))
    path = write_cov(tmp_path / "cov774.csv", (sigma + sigma.T) / 2)
    outs = _stdout_under_one_and_two_threads(_SELECT_THREADS_SCRIPT, path)
    assert outs[0].count("k,objective,avg_r2,subset") == 2
    assert outs[0] == outs[1]


# select on one data file: greedy over k = 1..25, then a 2-restart swap at k = 20.
_SELECT_DATA_THREADS_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
from csskit.cli import main
argv = ["select", "--data", sys.argv[2]]
main(argv + ["--k-range", "1..25"])
main(argv + ["--k", "20", "--method", "swap", "--restarts", "2", "--seed", "1"])
"""


def test_select_data_at_p774_is_the_same_under_one_and_two_blas_threads(tmp_path):
    # 1500 rows drawn from a planted p = 774 correlation matrix, 10% of the
    # cells missing: the pairwise estimate and its PSD projection differ in
    # the last bits with the thread count, the picks do not.  The printed
    # digits differ, so the fields are compared parsed: every subset
    # exactly, order included, objective and avg_r2 to 1e-12 relative.
    from test_search import _planted_sigma

    rng = np.random.default_rng([1, 3])
    sigma = _planted_sigma(774, 20, rng)
    x = rng.standard_normal((1500, 774)) @ np.linalg.cholesky(sigma).T
    x[rng.random(x.shape) < 0.1] = np.nan
    path = tmp_path / "mar774.csv"
    np.savetxt(path, x, fmt="%.9g", delimiter=",")
    outs = _stdout_under_one_and_two_threads(_SELECT_DATA_THREADS_SCRIPT, str(path))
    runs = [[line.split(",") for line in out.splitlines() if not line.startswith("k,")] for out in outs]
    assert [len(rows) for rows in runs] == [26, 26]
    for (k, obj, r2, subset), (k2, obj2, r2_2, subset2) in zip(*runs):
        assert (k, subset) == (k2, subset2)
        assert float(obj) == pytest.approx(float(obj2), rel=1e-12, abs=0.0), k
        assert float(r2) == pytest.approx(float(r2_2), rel=1e-12, abs=0.0), k


def test_select_exhaustive_matches_library(tmp_path, capsys):
    rng = np.random.default_rng(167)
    g = rng.standard_normal((20, 5))
    sigma = g.T @ g / 20
    cov = write_cov(tmp_path / "c.csv", sigma)
    assert main(["select", "--cov", cov, "--k", "2", "--method", "exhaustive"]) == 0
    line = capsys.readouterr().out.splitlines()[1]
    from csskit.criteria import Criterion, CriterionKind
    from csskit.search import SearchConfig, exhaustive

    crit = Criterion(CriterionKind.CSS_TRACE, p=5, k=2)
    want = exhaustive(sigma, SearchConfig(k=2, criterion=crit))
    assert line.split(",")[3] == ";".join(str(i) for i in want.subset)
    assert float(line.split(",")[1]) == pytest.approx(want.objective, rel=1e-12)


def test_select_exhaustive_exits_3_on_an_indefinite_cov(tmp_path, capsys):
    # eigenvalue -0.81: evaluate alone reads CanonCorr -17.29 at its best
    # 2-subset, a sum of two squared canonical correlations past 2, and
    # greedy and swap answered under css, frob, diag-det and iso-lrt.  The
    # reader refuses the grid, so every method and criterion exits 3 with
    # one message about the grid itself.
    sigma = np.array([[1.0, 0.9, 0.9, 0.2], [0.9, 1.0, -0.9, 0.1], [0.9, -0.9, 1.0, 0.3], [0.2, 0.1, 0.3, 1.0]])
    cov = write_cov(tmp_path / "indef.csv", sigma)
    methods = (["greedy"], ["swap", "--restarts", "3", "--seed", "1"], ["exhaustive"])
    for method in methods:
        for criterion in CRITERION_TOKENS:
            argv = ["select", "--cov", cov, "--k", "2", "--criterion", criterion, "--method", *method]
            assert main(argv) == 3, argv
            captured = capsys.readouterr()
            assert "error [NotPSD]" in captured.err and "eigenvalue -8.076e-01" in captured.err, argv
            assert captured.out == ""


def test_select_standardize_is_select_on_the_correlation(tmp_path, capsys):
    rng = np.random.default_rng(211)
    g = rng.standard_normal((40, 6)) * 10.0 ** rng.uniform(-2, 2, 6)
    sigma = g.T @ g / 40
    cov = write_cov(tmp_path / "cov.csv", sigma)
    corr = write_cov(tmp_path / "corr.csv", covest.to_correlation(covest.read_cov_csv(cov)))
    for criterion in ("css", "diag-det"):
        for method in (["greedy"], ["swap", "--restarts", "2", "--seed", "4"]):
            argv = ["--k-range", "1..3", "--criterion", criterion, "--method", *method]
            assert main(["select", "--cov", cov, "--standardize", *argv]) == 0
            standardized = capsys.readouterr().out
            assert main(["select", "--cov", corr, *argv]) == 0
            assert standardized == capsys.readouterr().out
            assert len(standardized.splitlines()) == 4


def _write_rows(path, vals):
    with open(path, "w") as fh:
        for row in vals:
            fh.write(",".join("" if np.isnan(v) else format(v, ".17g") for v in row))
            fh.write("\n")
    return str(path)


def test_covest_standardize_writes_the_correlation_of_the_estimate(tmp_path):
    rng = np.random.default_rng(223)
    vals = rng.standard_normal((60, 5)) @ rng.standard_normal((5, 5)) * [1e-3, 1.0, 1.0, 10.0, 1e3]
    complete = _write_rows(tmp_path / "complete.csv", vals)
    vals[rng.random(vals.shape) < 0.1] = np.nan
    gaps = _write_rows(tmp_path / "gaps.csv", vals)
    for path, missing, estimate in (
        (complete, "none", covest.sample_cov),
        (gaps, "pairwise-psd", covest.pairwise_cov_psd),
    ):
        out = tmp_path / "corr.csv"
        assert main(["covest", "--data", path, "--missing", missing, "--standardize", "--out", str(out)]) == 0
        want = covest.to_correlation(estimate(covest.read_data_csv(path)))
        assert_allclose(covest.read_cov_csv(str(out)), want, atol=0, rtol=0)


def test_covest_pairwise_on_complete_data_is_the_sample_covariance(tmp_path):
    vals = np.random.default_rng(227).standard_normal((50, 4))
    path = _write_rows(tmp_path / "d.csv", vals)
    assert main(["covest", "--data", path, "--out", str(tmp_path / "none.csv")]) == 0
    assert main(["covest", "--data", path, "--missing", "pairwise-psd", "--out", str(tmp_path / "pw.csv")]) == 0
    assert (tmp_path / "pw.csv").read_bytes() == (tmp_path / "none.csv").read_bytes()
    diag = json.loads((tmp_path / "pw.csv.diag.json").read_text())
    assert diag["missing_fraction"] == 0.0
    assert diag["min_overlap"] == diag["max_overlap"] == 50
    assert diag["min_eig_before"] == diag["min_eig_after"] > 0.0


def test_choose_k_and_simulate_print_what_out_writes(tmp_path, capsys):
    rng = np.random.default_rng(229)
    vals = rng.standard_normal((80, 3)) @ rng.standard_normal((3, 6)) + 0.3 * rng.standard_normal((80, 6))
    data = _write_rows(tmp_path / "d.csv", vals)
    for argv, out, written in (
        (["choose-k", "--data", data, "--seed", "2", "--k-max", "4"], "report.json", "report.json"),
        (["simulate", "--scenario", "missing-a1", "--trials", "2", "--n", "150", "--restarts", "1", "--seed", "5"],
         "rows.csv", "rows.csv.summary.json"),
    ):
        assert main(argv) == 0
        printed = capsys.readouterr().out
        assert main(argv + ["--out", str(tmp_path / out)]) == 0
        assert printed == (tmp_path / written).read_text()
        assert json.loads(printed)


def test_covest_pairwise_round_trip(tmp_path):
    spec = simlab.missing_a1_spec(mar_prob=0.1)
    data = simlab.sample(spec, 80, seed=[9, 0])
    vals = np.asarray(data.values, dtype=float)
    data_path = _write_rows(tmp_path / "data.csv", vals)
    out = tmp_path / "cov.csv"
    code = main(
        ["covest", "--data", data_path, "--missing", "pairwise-psd",
         "--out", str(out)]
    )
    assert code == 0
    got = covest.read_cov_csv(str(out))
    want = covest.pairwise_cov_psd(vals)
    assert_allclose(got, want, atol=0, rtol=0)  # 17-digit round-trip is exact
    timings = json.loads((tmp_path / "cov.csv.manifest.json").read_text())["timings"]
    assert 0.0 <= timings["read_s"] <= timings["load_s"] <= timings["total_s"]
    diag = json.loads((tmp_path / "cov.csv.diag.json").read_text())
    assert diag["missing"] == "pairwise-psd"
    assert 0.05 < diag["missing_fraction"] < 0.15
    assert diag["min_eig_after"] >= -1e-10


def test_choose_k_end_to_end(tmp_path, capsys):
    w = np.array(
        [[0.8, 0.1], [0.2, 0.7], [0.5, 0.5], [0.3, 0.6], [0.6, 0.2], [0.1, 0.9]]
    )
    spec = simlab.ScenarioSpec(
        model="pcss", p=8, subset=(0, 1),
        sigma_s=np.array([[1.0, 0.4], [0.4, 1.0]]), w=w, noise_sigma2=0.2,
    )
    data = simlab.sample(spec, 300, seed=[7, 0])
    path = tmp_path / "toy.csv"
    np.savetxt(path, np.asarray(data.values, dtype=float), delimiter=",")
    out = tmp_path / "report.json"
    code = main(
        ["choose-k", "--data", str(path), "--model", "pcss",
         "--seed", "3", "--out", str(out)]
    )
    assert code == 0
    assert "chosen k = 2" in capsys.readouterr().err
    report = json.loads(out.read_text())
    assert report["chosen_k"] == 2
    assert report["chosen_subset"] == [0, 1]
    assert report["records"][-1]["reject"] is False
    timings = json.loads((tmp_path / "report.json.manifest.json").read_text())["timings"]
    assert 0.0 <= timings["read_s"] <= timings["load_s"] <= timings["total_s"]
    assert timings["search_s"] >= 0.0 and timings["calibrate_s"] >= 0.0
    assert timings["search_s"] + timings["calibrate_s"] <= timings["total_s"] - timings["load_s"]


def test_choose_k_warns_on_a_singular_estimate(tmp_path, capsys):
    # 2% of cells missing at random on sizesel-a2: the projected pairwise
    # estimate is singular, so every size without a perfect fit reads +inf;
    # the walk runs on to k = 47 of 50, and once warned only of that fit
    x = np.asarray(simlab.sample(simlab.sizesel_a2_spec(), 200, seed=[1, 0, 0]).values, dtype=float)
    x[np.random.default_rng(7).random(x.shape) < 0.02] = np.nan
    path = tmp_path / "mar.csv"
    np.savetxt(path, x, delimiter=",")
    with pytest.warns(RuntimeWarning) as caught:
        assert main(["choose-k", "--data", str(path), "--seed", "1", "--out", str(tmp_path / "r.json")]) == 0
    assert "sigma_hat is singular" in str(caught[0].message)
    assert "n complete rows" in str(caught[0].message)
    report = json.loads((tmp_path / "r.json").read_text())
    assert all(r["statistic"] is None for r in report["records"][:-1])  # +inf, rejected
    assert report["records"][-1]["perfect_fit"]


def test_choose_k_requires_seed(tmp_path):
    path = tmp_path / "d.csv"
    np.savetxt(path, np.eye(3), delimiter=",")
    with pytest.raises(SystemExit) as exc:
        main(["choose-k", "--data", str(path)])
    assert exc.value.code == 2


def test_simulate_missing_smoke(tmp_path):
    out = tmp_path / "trials.csv"
    code = main(
        ["simulate", "--scenario", "missing-a1", "--trials", "2", "--n", "150",
         "--restarts", "2", "--seed", "21", "--out", str(out)]
    )
    assert code == 0
    assert out.exists()
    summary = json.loads((tmp_path / "trials.csv.summary.json").read_text())
    assert summary["scenario"] == "missing-a1"
    assert summary["trials"] == 2


def test_simulate_missing_rows_header(tmp_path):
    out = tmp_path / "trials.csv"
    code = main(
        ["simulate", "--scenario", "missing-a1", "--trials", "2", "--n", "150",
         "--restarts", "1", "--seed", "5", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    fields = ["selected", "exact_recovery", "overlap", "pop_css_objective", "cc_sum"]
    assert lines[0].split(",") == ["trial", *fields, *("baseline_" + f for f in fields)]
    assert [len(line.split(",")) for line in lines] == [11, 11, 11]


def test_exit_code_three_on_bad_inputs(tmp_path, capsys):
    missing = str(tmp_path / "nope.csv")
    assert main(["select", "--cov", missing, "--k", "1"]) == 3
    lopsided = tmp_path / "bad.csv"
    lopsided.write_text("1.0,0.5\n0.2,1.0\n")
    assert main(["select", "--cov", str(lopsided), "--k", "1"]) == 3
    small = write_cov(tmp_path / "small.csv", np.eye(2))
    assert main(["select", "--cov", small, "--k", "5"]) == 3
    data = tmp_path / "d.csv"
    np.savetxt(data, np.random.default_rng(0).standard_normal((20, 3)), delimiter=",")
    for argv in (
        ["choose-k", "--data", str(data), "--seed", "1", "--k-max", "-1"],
        ["choose-k", "--data", str(data), "--seed", "1", "--restarts", "0"],
        ["simulate", "--scenario", "missing-a1", "--trials", "0", "--seed", "1"],
        ["simulate", "--scenario", "sizesel-a2", "--trials", "0", "--seed", "1"],
    ):
        capsys.readouterr()
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert "DimMismatch" in captured.err and captured.out == ""
    # a byte that is not UTF-8 is no number; in a skipped header it is ignored
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes(b"a\xe9,b\n1,2\n3,4\xe9\n")
    capsys.readouterr()
    assert main(["covest", "--data", str(latin1), "--header"]) == 3
    assert "line 3, column 2" in capsys.readouterr().err
    latin1.write_bytes(b"a\xe9,b\n1,2\n3,4\n")
    assert main(["covest", "--data", str(latin1), "--header"]) == 0


def test_exit_code_three_on_a_non_numeric_cell(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\nabc,3\n")
    for argv in (
        ["select", "--data", str(bad), "--k", "1"],
        ["select", "--cov", str(bad), "--k", "1"],
        ["covest", "--data", str(bad)],
        ["choose-k", "--data", str(bad), "--seed", "1"],
    ):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "DimMismatch" in err and "line 2, column 1" in err


def test_exit_code_two_on_bad_flags(diag_cov):
    for argv in (
        # exactly one of --cov / --data and one of --k / --k-range
        ["select", "--cov", diag_cov],  # no k
        ["select", "--cov", diag_cov, "--k", "1", "--k-range", "1..2"],
        ["select", "--k", "1"],  # no input
        ["select", "--cov", diag_cov, "--data", diag_cov, "--k", "1"],
        ["select", "--cov", diag_cov, "--k", "1", "--method", "bogus"],
        ["simulate", "--trials", "2", "--seed", "1"],  # no scenario
        ["select", "--cov", diag_cov, "--k-range", "3..1"],
        ["covest", "--data", diag_cov, "--seed", "1"],  # covest draws nothing
        ["covest", "--data", diag_cov, "--threads", "1"],
        # no command takes a thread count
        ["select", "--cov", diag_cov, "--k", "1", "--threads", "1"],
        ["choose-k", "--data", diag_cov, "--seed", "1", "--threads", "1"],
        ["simulate", "--scenario", "missing-a1", "--seed", "1", "--threads", "1"],
        # critical values are exact: no command takes a Monte Carlo sample count
        ["choose-k", "--data", diag_cov, "--seed", "1", "--mc-samples", "1000"],
        ["simulate", "--scenario", "sizesel-a2", "--seed", "1", "--mc-samples", "1000"],
        # seeds are non-negative
        ["select", "--cov", diag_cov, "--k", "1", "--method", "swap", "--seed", "-1"],
        ["choose-k", "--data", diag_cov, "--header", "--seed", "-1"],
        ["simulate", "--scenario", "missing-a1", "--seed", "-1"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "csskit" in capsys.readouterr().out
