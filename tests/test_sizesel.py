"""Size selection: test statistics, exact and Monte Carlo null laws, choose_k
driver."""

import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.special
import scipy.stats

from csskit import covest, simlab, sizesel, symmat
from csskit.criteria import Criterion, CriterionKind, evaluate
from csskit.errors import DegreesOfFreedom, DimMismatch, NoFeasibleK
from csskit.search import SearchConfig, swap
from csskit.simlab import ScenarioSpec
from csskit.sizesel import (
    Model,
    SizeSelectionReport,
    SizeTestRecord,
    choose_k,
    mc_quantile_pcss,
    mc_quantile_subset_factor,
    null_draws_pcss,
    null_draws_subset_factor,
    null_quantile_pcss,
    null_quantile_subset_factor,
    stat_T,
    stat_Ttilde,
)


def rand_pd(rng, p):
    g = rng.standard_normal((p + 3, p))
    return g.T @ g / (p + 3)


def block_statistic(sigma, n, subset, isotropic):
    """The statistic by its definition, the oracle of the shifted objective:
    the complement's block R of the residual covariance, and ``n * (fitted
    - log det R)`` by ``slogdet``.  0 when one variable is left (m = 1),
    when every left-out variable is fit perfectly (its residual variance at
    most 1e-10 of its own) and, for the diagonal model, when one is; +inf
    when the isotropic model has some but not all fit, or when R on the
    variables' own variances has an eigenvalue of at most 1e-10."""
    p = len(sigma)
    comp = [j for j in range(p) if j not in subset]
    r = symmat.residual_covariance(sigma, subset)[np.ix_(comp, comp)]
    m, diag, var = len(comp), np.diag(r), np.diag(sigma)[comp]
    fits = diag <= 1e-10 * var
    if m == 1 or fits.all() or (fits.any() and not isotropic):
        return 0.0
    unit = r / np.sqrt(np.outer(var, var))
    if fits.any() or np.linalg.eigvalsh(unit)[0] <= 1e-10:
        return np.inf
    fitted = m * np.log(np.trace(r) / m) if isotropic else np.sum(np.log(diag))
    return n * (fitted - np.linalg.slogdet(r)[1])


def assert_block_statistic(got, sigma, n, subset, isotropic):
    want = block_statistic(sigma, n, subset, isotropic)
    if np.isinf(want) or want == 0.0:
        assert got == want, (subset, got, want)
    else:
        # the shift n (objective - log det sigma) cancels to the statistic:
        # 1e-10 relative to its terms
        terms = n * (abs(np.linalg.slogdet(sigma)[1]) + 1.0)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-10 * terms), (subset, got, want)


def test_statistics_match_the_block_formula():
    # stat_T and stat_Ttilde are the search objectives shifted by log det
    # sigma; the residual block and its slogdet give the same numbers, and
    # the same 0 and +inf verdicts on rank-deficient sigma, at every size
    rng = np.random.default_rng(907)
    for t in range(120):
        p = int(rng.integers(3, 12))
        rank = p if t % 2 else int(rng.integers(1, p))
        g = rng.standard_normal((p, rank))
        sigma = g @ g.T / rank
        if t % 3 == 0:
            d = 10.0 ** rng.uniform(-3.0, 3.0, p)
            sigma = d[:, None] * sigma * d[None, :]
        for k in range(p):
            subset = tuple(sorted(rng.permutation(p)[:k].tolist()))
            assert_block_statistic(stat_T(sigma, 60, subset), sigma, 60, subset, False)
            assert_block_statistic(stat_Ttilde(sigma, 60, subset), sigma, 60, subset, True)


@pytest.mark.parametrize("model", list(Model))
def test_choose_k_records_match_the_block_formula(model, monkeypatch):
    # every record of a walk, full rank and singular: the statistic read
    # from the search's objective is the block formula's at its subset,
    # and sizesel takes one log-determinant per walk, that of sigma_hat
    isotropic = model == Model.PCSS
    x = simlab.sample(simlab.sizesel_a2_spec(), 200, seed=[3, 0, 0])
    sigma = covest.sample_cov(x)[:12, :12]
    calls, log_det = [], symmat.log_det

    def counted(m, var=None):
        if sys._getframe(1).f_globals["__name__"] == sizesel.__name__:
            calls.append(np.shape(m))
        return log_det(m, var)

    monkeypatch.setattr(symmat, "log_det", counted)
    report = choose_k(sigma, n=200, model=model, mc_samples=2000, seed=1)
    monkeypatch.undo()
    assert len(report.records) > 3 and calls == [(12, 12)]
    for rec in report.records:
        assert_block_statistic(rec.statistic, sigma, 200, rec.subset, isotropic)
    g = np.random.default_rng(11).standard_normal((8, 4))
    with pytest.warns(RuntimeWarning) as caught:
        report = choose_k(g @ g.T, n=50, model=model, mc_samples=2000, seed=1)
    assert [str(w.message)[:21] for w in caught] == ["sigma_hat is singular", "perfect fit at k=4: s"]
    assert report.chosen_k == 4 and report.records[-1].perfect_fit
    for rec in report.records:
        assert_block_statistic(rec.statistic, g @ g.T, 50, rec.subset, isotropic)


def test_stat_T_zero_on_diagonal():
    sigma = np.diag([1.0, 2.0, 3.0, 4.0])
    for subset in [(), (0,), (1, 3)]:
        assert stat_T(sigma, 50, subset) == pytest.approx(0.0, abs=1e-10)


def test_stat_Ttilde_hand_value():
    # m=2, trace 4, det 3: n * (2 log 2 - log 3) = n log(4/3).
    n = 25
    assert stat_Ttilde(np.diag([1.0, 3.0]), n, ()) == pytest.approx(
        n * np.log(4.0 / 3.0), rel=1e-12
    )
    # isotropic residual scores a flat 0
    assert stat_Ttilde(np.diag([2.0, 2.0, 2.0]), n, ()) == pytest.approx(0.0, abs=1e-10)


def test_stat_T_matches_direct_computation():
    rng = np.random.default_rng(137)
    n = 80
    for _ in range(10):
        sigma = rand_pd(rng, 4)
        b = sigma[1:, 0]
        r = sigma[1:, 1:] - np.outer(b, b) / sigma[0, 0]
        want = n * (np.sum(np.log(np.diag(r))) - np.linalg.slogdet(r)[1])
        assert stat_T(sigma, n, (0,)) == pytest.approx(want, abs=1e-8)


def test_stat_degenerate_conventions():
    # residual identically zero: statistic 0 by convention
    sigma = np.array([[1.0, 1.0], [1.0, 1.0]])
    assert stat_T(sigma, 10, (0,)) == 0.0
    assert stat_Ttilde(sigma, 10, (0,)) == 0.0
    # determinant vanishes but the diagonal does not: +inf
    sigma = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0]])
    assert stat_T(sigma, 10, (0,)) == np.inf


def test_statistic_and_fit_do_not_depend_on_units():
    # Rescaling variable j by d_j leaves stat_T unchanged and adds
    # 2 sum(log d) to the DiagDet objective, including the perfect-fit (0)
    # and singular-residual (+inf) verdicts of rank p - 2 matrices.
    # Variances spread over twelve decades.
    rng = np.random.default_rng(223)
    for t in range(200):
        p = int(rng.integers(4, 10))
        g = rng.standard_normal((p, p if t % 2 else p - 2))
        sigma = g @ g.T / p
        d = 10.0 ** rng.uniform(-6.0, 6.0, p)
        scaled = d[:, None] * sigma * d[None, :]
        subset = tuple(rng.permutation(p)[: int(rng.integers(0, 4))].tolist())
        crit = Criterion(CriterionKind.DIAG_DET, p=p, k=max(1, len(subset)))
        shift = 2.0 * float(np.sum(np.log(d)))
        pairs = [
            (stat_T(scaled, 50, subset), stat_T(sigma, 50, subset)),
            (evaluate(crit, scaled, subset) - shift, evaluate(crit, sigma, subset)),
        ]
        for got, want in pairs:
            if np.isinf(want):
                assert got == want, (t, subset)
            else:
                assert got == pytest.approx(want, rel=1e-6, abs=1e-6), (t, subset)


def test_choose_k_does_not_depend_on_units():
    # One variable in micro-units, another in mega-units: the same walk.
    x = simlab.sample(simlab.sizesel_a2_spec(), 200, seed=[2, 0, 0])
    sigma = covest.sample_cov(x)

    def run(s):
        return choose_k(s, n=200, restarts=2, mc_samples=2000, seed=1)

    base = run(sigma)
    assert base.chosen_k == 21
    for col, c in ((30, 1e-6), (5, 1e6)):
        d = np.ones(50)
        d[col] = c
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no spurious perfect fit either
            report = run(d[:, None] * sigma * d[None, :])
        assert report.chosen_k == base.chosen_k
        assert report.chosen_subset == base.chosen_subset
        assert len(report.records) == len(base.records)
        for got, want in zip(report.records, base.records):
            assert got.subset == want.subset
            assert got.statistic == pytest.approx(want.statistic, rel=1e-6)
            assert not got.perfect_fit


def test_stat_nonnegative_on_random_instances():
    rng = np.random.default_rng(139)
    for _ in range(20):
        sigma = rand_pd(rng, 6)
        subset = tuple(sorted(rng.choice(6, size=2, replace=False).tolist()))
        assert stat_T(sigma, 30, subset) >= -1e-8
        assert stat_Ttilde(sigma, 30, subset) >= -1e-8


def test_null_draws_shapes_and_point_mass():
    draws = null_draws_subset_factor(n=30, p=5, k=1, mc_samples=2000, seed=0)
    assert draws.shape == (2000,)
    assert np.all(draws >= 0)
    assert np.array_equal(
        null_draws_subset_factor(30, 5, 4, 2000, 0), np.zeros(2000)
    )
    assert np.array_equal(null_draws_pcss(30, 5, 4, 2000, 0), np.zeros(2000))


def test_mc_quantile_monotone_in_k():
    for fn in (mc_quantile_subset_factor, mc_quantile_pcss):
        qs = [fn(40, 8, k, 0.05, 20_000, 1) for k in range(8)]
        assert all(qs[i + 1] < qs[i] for i in range(6))
        assert qs[7] == 0.0
    for fn in (null_quantile_subset_factor, null_quantile_pcss):
        qs = [fn(40, 8, k, 0.05) for k in range(8)]
        assert all(qs[i + 1] < qs[i] for i in range(7))
        assert qs[7] == 0.0


def test_mc_quantile_argument_checks():
    with pytest.raises(DegreesOfFreedom):
        mc_quantile_subset_factor(8, 8, 1, 0.05, 2000, 0)
    with pytest.raises(DimMismatch):
        mc_quantile_subset_factor(50, 8, 1, 1.5, 2000, 0)
    with pytest.raises(DimMismatch):
        mc_quantile_subset_factor(50, 8, 1, 0.05, 10, 0)
    with pytest.raises(DimMismatch):
        mc_quantile_pcss(50, 8, 9, 0.05, 2000, 0)
    for draws in (null_draws_subset_factor, null_draws_pcss):
        for k in (-1, 8):
            with pytest.raises(DimMismatch):
                draws(50, 8, k, 2000, 0)
        with pytest.raises(DegreesOfFreedom):
            draws(8, 8, 1, 2000, 0)
    for exact in (null_quantile_subset_factor, null_quantile_pcss):
        with pytest.raises(DegreesOfFreedom):
            exact(8, 8, 1, 0.05)
        for alpha in (0.0, 0.6, 1.0, 1.5):  # exact levels go up to 1/2
            with pytest.raises(DimMismatch, match="alpha"):
                exact(50, 8, 1, alpha)
        for k in (-1, 8):
            with pytest.raises(DimMismatch):
                exact(50, 8, k, 0.05)


# ---------------------------------------------------------------------------
# Exact null laws
# ---------------------------------------------------------------------------


def test_log_gamma_matches_scipy():
    re = np.geomspace(0.5, 2000.0, 57)
    im = np.concatenate([[0.0], np.geomspace(1e-3, 1e5, 49)])
    z = re[:, None] + 1j * np.concatenate([-im[::-1], im])[None, :]
    want = scipy.special.loggamma(z)
    got = sizesel._log_gamma(z)
    assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("n, p", [(200, 50), (30, 6), (10, 8), (1000, 200)])
def test_subset_factor_quantile_two_terms_closed_form(n, p):
    # at m = 2 the law is that of -n log B, B ~ Beta(c - 1/2, 1/2)
    k = p - 2
    c = (n - k - 1) / 2
    for alpha in (0.5, 0.2, 0.1, 0.05, 0.01, 0.001):
        want = -n * np.log(scipy.stats.beta.ppf(alpha, c - 0.5, 0.5))
        assert null_quantile_subset_factor(n, p, k, alpha) == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize(
    "exact, draws",
    [(null_quantile_subset_factor, null_draws_subset_factor), (null_quantile_pcss, null_draws_pcss)],
)
# at p = 50, 10^6 draws of every k take about two minutes on a 2-core box
# and 10^5 draws about 15 s
@pytest.mark.parametrize("n, p, mc", [(200, 50, 10**5), (30, 6, 10**6), (10, 8, 10**6)])
def test_exact_quantile_matches_monte_carlo(exact, draws, n, p, mc):
    # the share of the null draws at or below the exact (1 - alpha)-quantile
    # is 1 - alpha within 4 standard errors
    alpha = 0.05
    tol = 4 * np.sqrt(alpha * (1 - alpha) / mc)
    for k in range(p - 1):
        share = np.mean(draws(n, p, k, mc, 7) <= exact(n, p, k, alpha))
        assert abs(share - (1 - alpha)) <= tol, (k, share)


def test_exact_quantiles_raise_no_warning_at_large_p():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn in (null_quantile_subset_factor, null_quantile_pcss):
            qs = [fn(1000, 200, k, 0.05) for k in range(200)]
            assert all(b < a for a, b in zip(qs, qs[1:]))
            assert qs[-1] == 0.0


def test_search_minimizes_statistic():
    # the selected subset never scores a larger statistic than a random one
    rng = np.random.default_rng(151)
    n = 60
    for _ in range(20):
        sigma = rand_pd(rng, 7)
        crit = Criterion(CriterionKind.DIAG_DET, p=7, k=2)
        cfg = SearchConfig(k=2, criterion=crit, restarts=3, seed=9)
        found = swap(sigma, cfg).subset
        random_subset = tuple(rng.choice(7, size=2, replace=False).tolist())
        assert stat_T(sigma, n, found) <= stat_T(sigma, n, random_subset) + 1e-8


def pcss_toy_spec(noise):
    w = np.array(
        [[0.8, 0.1], [0.2, 0.7], [0.5, 0.5], [0.3, 0.6], [0.6, 0.2], [0.1, 0.9]]
    )
    return ScenarioSpec(
        model="pcss",
        p=8,
        subset=(0, 1),
        sigma_s=np.array([[1.0, 0.4], [0.4, 1.0]]),
        w=w,
        noise_sigma2=noise,
    )


def test_choose_k_recovers_toy_size():
    spec = pcss_toy_spec(noise=0.2)
    data = simlab.sample(spec, 300, seed=[7, 0])
    sigma_hat = np.asarray(data.values, dtype=float)
    sigma_hat -= sigma_hat.mean(axis=0)
    sigma_hat = sigma_hat.T @ sigma_hat / 300
    report = choose_k(
        sigma_hat, n=300, model=Model.PCSS, mc_samples=20_000, seed=3
    )
    assert report.chosen_k == 2
    assert tuple(report.chosen_subset) == (0, 1)
    assert len(report.records) == report.chosen_k + 1
    for rec in report.records[:-1]:
        assert rec.reject
    last = report.records[-1]
    assert not last.reject
    for rec in report.records:
        assert rec.reject == (rec.statistic > rec.critical_value)
        assert rec.statistic >= -1e-8
        assert list(rec.subset) == sorted(rec.subset)


def test_choose_k_perfect_fit_population():
    # a noiseless population is fit exactly at the true size; the statistic
    # collapses to 0 with an explicit perfect-fit flag
    pop = simlab.population_cov(pcss_toy_spec(noise=0.0))
    with pytest.warns(RuntimeWarning):
        report = choose_k(pop, n=50, model=Model.PCSS, mc_samples=2000, seed=0)
    assert report.chosen_k == 2
    assert report.records[-1].perfect_fit
    assert report.records[-1].statistic == 0.0


def test_choose_k_errors():
    with pytest.raises(DegreesOfFreedom):
        choose_k(np.eye(5), n=5, mc_samples=2000)
    pop = simlab.population_cov(pcss_toy_spec(noise=0.0))
    # a noiseless population is singular, which choose_k says before it walks
    with pytest.raises(NoFeasibleK), pytest.warns(RuntimeWarning, match="sigma_hat is singular"):
        choose_k(pop, n=50, model=Model.PCSS, mc_samples=2000, seed=0, k_max=1)
    with pytest.raises(DimMismatch, match="k_max"):
        choose_k(pop, n=50, mc_samples=2000, k_max=-1)  # not NoFeasibleK
    with pytest.raises(DimMismatch, match="alpha"):
        choose_k(pop, n=50, alpha=0.6, mc_samples=2000)
    with pytest.raises(DimMismatch, match="mc_samples"):
        choose_k(pop, n=50, mc_samples=999)
    for bad in (np.float64(2.0), np.ones(3)):  # 0-d: IndexError once
        with pytest.raises(DimMismatch, match="square"):
            choose_k(bad, n=5, mc_samples=2000)
    # rejected on entry, not only once a size k >= 1 is searched: at k=0
    # nothing is searched, and this sample stops there
    x = np.random.default_rng(0).standard_normal((300, 6))
    for restarts in (0, -5):
        with pytest.raises(DimMismatch, match="restarts"):
            choose_k(covest.sample_cov(x), n=300, restarts=restarts, mc_samples=2000, seed=1)
    # counts are integers: k_max=2.5 once ran to k=2, restarts=2.0 and
    # seed=1.0 reached SearchConfig
    for name, bad in (("k_max", 2.5), ("restarts", 2.0), ("seed", 1.0), ("k_max", True)):
        with pytest.raises(DimMismatch, match=f"{name} .* not an integer"):
            choose_k(covest.sample_cov(x), n=300, mc_samples=2000, **{name: bad})


def test_stat_rejects_a_non_matrix_and_a_non_integer_subset():
    for bad in (np.float64(2.0), np.ones(3)):  # 0-d: IndexError once
        with pytest.raises(DimMismatch):
            stat_T(bad, 5, [])
    with pytest.raises(DimMismatch):
        stat_T(np.eye(3), 5, [0.6])  # once tested the subset (0,)


_SMALL = covest.sample_cov(np.random.default_rng(0).standard_normal((300, 6)))

# each entry point's sample size or trial count, with a value it accepts
_COUNTS = {
    "stat_T n": (lambda n: stat_T(_SMALL, n, (0, 1)), 200),
    "null_quantile_subset_factor n": (lambda n: sizesel.null_quantile_subset_factor(n, 50, 20, 0.05), 200),
    "null_quantile_pcss n": (lambda n: sizesel.null_quantile_pcss(n, 50, 20, 0.05), 200),
    "null_draws_subset_factor n": (lambda n: sizesel.null_draws_subset_factor(n, 50, 20, 1000, 0), 200),
    "choose_k n": (lambda n: choose_k(_SMALL, n=n, mc_samples=2000), 200),
    "sample n": (lambda n: simlab.sample(simlab.sizesel_a2_spec(), n, seed=1), 200),
    "run_missing_study n": (lambda n: simlab.run_missing_study(trials=1, n=n, restarts=1), 200),
    "run_missing_study trials": (lambda t: simlab.run_missing_study(trials=t, restarts=1), 1),
    "run_sizesel_study n": (lambda n: simlab.run_sizesel_study(trials=1, n=n, restarts=1), 200),
    "run_sizesel_study trials": (lambda t: simlab.run_sizesel_study(trials=t, restarts=1), 1),
}


@pytest.mark.parametrize("entry", list(_COUNTS))
def test_sample_sizes_and_trial_counts_are_integers(entry):
    # stat_T(sigma, 200.5, ...) once returned a statistic, n=True read as
    # n = 1, and n="200" raised a raw TypeError
    call, good = _COUNTS[entry]
    for bad in (200.5, np.float64(200.0), True, "200"):
        with pytest.raises(DimMismatch, match="not an integer"):
            call(bad)
    call(np.int64(good))


def test_report_with_infinite_statistic_is_strict_json():
    records = [
        SizeTestRecord(0, (), float("inf"), 12.5, True),
        SizeTestRecord(1, (2,), 3.0, 4.0, False),
    ]
    report = SizeSelectionReport(records, 1, (2,), 0.05, Model.SUBSET_FACTOR, 2000, 0)

    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    blob = json.loads(report.to_json(), parse_constant=refuse)
    assert blob["records"][0]["statistic"] is None
    assert blob["records"][0]["reject"] is True
    assert blob["records"][1]["statistic"] == 3.0


def test_report_json_round_trip():
    spec = pcss_toy_spec(noise=0.2)
    data = simlab.sample(spec, 300, seed=[7, 0])
    x = np.asarray(data.values, dtype=float)
    x -= x.mean(axis=0)
    report = choose_k(x.T @ x / 300, n=300, model=Model.PCSS, mc_samples=20_000, seed=3)
    blob = json.loads(report.to_json())
    assert blob["chosen_k"] == report.chosen_k
    assert blob["model"] == "pcss"
    assert blob["alpha"] == report.alpha
    assert len(blob["records"]) == len(report.records)
    assert blob["records"][-1]["reject"] is False


# ---------------------------------------------------------------------------
# Calibration from shared chi-square columns
# ---------------------------------------------------------------------------

MODELS = (
    (mc_quantile_subset_factor, null_draws_subset_factor),
    (mc_quantile_pcss, null_draws_pcss),
)


def old_subset_factor_draws(n, p, k, mc_samples, seed):
    # every k drawn afresh from one generator: the per-k sampler that
    # shared columns replace, kept as an oracle for the law
    rng = np.random.default_rng(seed)
    total = np.zeros(mc_samples)
    for j in range(2, p - k + 1):
        total += np.log1p(rng.chisquare(j - 1, mc_samples) / rng.chisquare(n - k - j, mc_samples))
    return n * total


def old_pcss_draws(n, p, k, mc_samples, seed):
    m = p - k
    rng = np.random.default_rng(seed)
    denom = np.array([rng.chisquare(n - k - j, mc_samples) for j in range(1, m + 1)])
    extra = rng.chisquare(m * (m - 1) // 2, mc_samples)
    return n * (m * np.log((extra + denom.sum(axis=0)) / m) - np.log(denom).sum(axis=0))


@pytest.mark.parametrize("quantile, draws", MODELS)
def test_critical_value_does_not_depend_on_call_order(quantile, draws):
    # p = 40 spans three blocks of sizes
    n, p, mc, seed = 60, 40, 3000, 7
    quantile.cache_clear()
    cold = {k: quantile(n, p, k, 0.05, mc, seed) for k in (0, 17, 39)}
    for k, want in cold.items():
        assert want == pytest.approx(np.quantile(draws(n, p, k, mc, seed), 0.95), rel=1e-12)
    quantile.cache_clear()
    warm = {k: quantile(n, p, k, 0.05, mc, seed) for k in reversed(range(p))}
    for k, want in cold.items():
        quantile.cache_clear()
        assert quantile(n, p, k, 0.05, mc, seed) == want
        assert warm[k] == want
    assert warm[p - 1] == 0.0
    # another alpha, seed or size reads other draws
    assert quantile(n, p, 0, 0.01, mc, seed) > cold[0]
    assert quantile(n, p, 0, 0.05, mc, seed + 1) != cold[0]
    assert quantile(n, p, 0, 0.05, mc + 1, seed) != cold[0]


@pytest.mark.parametrize("quantile, draws", MODELS)
def test_cache_clear_draws_again(quantile, draws, monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args[2])  # k
        return draws(*args)

    monkeypatch.setattr(sizesel, draws.__name__, counting)
    quantile.cache_clear()
    first = [quantile(30, 20, k, 0.05, 2000, 1) for k in range(20)]
    assert calls == list(range(20))  # one draw per size
    info = quantile.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 20, 20)
    assert [quantile(30, 20, k, 0.05, 2000, 1) for k in range(20)] == first
    assert len(calls) == 20
    assert quantile.cache_info().hits == 20
    quantile.cache_clear()
    assert quantile.cache_info() == (0, 0, None, 0)
    assert quantile(30, 20, 3, 0.05, 2000, 1) == first[3]
    assert calls[20:] == [3]


def test_draws_do_not_depend_on_chunking():
    # every chi-square column is the stream default_rng([seed, family, df]);
    # drawn in chunks of 777 it gives the values of one call
    n, p, k, mc, seed = 25, 9, 2, 5000, 4

    def column(family, df):
        gen = np.random.default_rng([seed, family, df])
        return 2 * np.concatenate(
            [gen.standard_gamma(df / 2, min(777, mc - s)) for s in range(0, mc, 777)]
        )

    m = p - k
    total = np.zeros(mc)
    for d in range(1, m):
        total += np.log1p(column(sizesel._NUMERATOR, d) / column(sizesel._DENOMINATOR, n - k - 1 - d))
    assert np.array_equal(null_draws_subset_factor(n, p, k, mc, seed), n * total)
    den = [column(sizesel._DENOMINATOR, df) for df in range(n - p, n - k)]
    total = log_total = 0.0
    for col in den:
        total = total + col
        log_total = log_total + np.log(col)
    extra = column(sizesel._PCSS_EXTRA, m * (m - 1) // 2)
    want = n * (m * np.log((extra + total) / m) - log_total)
    assert np.array_equal(null_draws_pcss(n, p, k, mc, seed), want)


@pytest.mark.parametrize(
    "draws, oracle",
    [(null_draws_subset_factor, old_subset_factor_draws), (null_draws_pcss, old_pcss_draws)],
)
@pytest.mark.parametrize("n, p", [(30, 6), (10, 8)])  # n = p + 2: the df ranges overlap
def test_shared_columns_keep_the_law(draws, oracle, n, p):
    for k in range(p - 1):
        got = draws(n, p, k, 20_000, 11)
        want = oracle(n, p, k, 20_000, 12)
        assert scipy.stats.ks_2samp(got, want).pvalue > 1e-3, k


def test_negative_seed_is_a_dim_mismatch():
    sigma = covest.sample_cov(simlab.sample(pcss_toy_spec(noise=0.2), 60, seed=[7, 0]))
    with pytest.raises(DimMismatch):
        choose_k(sigma, n=60, mc_samples=2000, seed=-1)
    for quantile, draws in MODELS:
        with pytest.raises(DimMismatch):
            quantile(60, 8, 1, 0.05, 2000, -1)
        with pytest.raises(DimMismatch):
            draws(60, 8, 1, 2000, -1)


def test_choose_k_reports_phase_times():
    x = simlab.sample(pcss_toy_spec(noise=0.2), 300, seed=[7, 0])
    report = choose_k(covest.sample_cov(x), n=300, model=Model.PCSS, mc_samples=2000, seed=3)
    assert report.search_s >= 0.0 and report.calibrate_s > 0.0
    assert "search_s" not in report.to_json() and "calibrate_s" not in report.to_json()
    # per size: the report's times are the sums of the records'
    assert report.records[0].search_s >= 0.0
    assert all(r.search_s > 0.0 for r in report.records[1:])
    assert all(r.calibrate_s > 0.0 for r in report.records)
    assert report.search_s == sum(r.search_s for r in report.records)
    assert report.calibrate_s == sum(r.calibrate_s for r in report.records)
    # the times do not enter comparisons
    again = choose_k(covest.sample_cov(x), n=300, model=Model.PCSS, mc_samples=2000, seed=3)
    assert again.records == report.records and again == report


# choose_k on one sizesel-a2 sample under both models, then the swap behind
# every record: report JSON, positional subsets, objectives, trajectories.
_THREADS_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
from csskit import covest, search, simlab, sizesel
from csskit.criteria import Criterion, CriterionKind
sigma = covest.sample_cov(simlab.sample(simlab.sizesel_a2_spec(), 200, seed=[1, 0, 0]))
for model, kind in ((sizesel.Model.SUBSET_FACTOR, CriterionKind.DIAG_DET),
                    (sizesel.Model.PCSS, CriterionKind.ISO_LRT)):
    report = sizesel.choose_k(sigma, n=200, model=model, restarts=3, mc_samples=2000, seed=1)
    print(report.to_json())
    for k in range(1, report.chosen_k + 1):
        cfg = search.SearchConfig(k=k, criterion=Criterion(kind, p=50, k=k), restarts=3, seed=1 + 1000003 * k)
        res = search.swap(sigma, cfg)
        print(k, res.subset, repr(res.objective), [repr(x) for x in res.trajectory], res.restarts)
"""


def test_choose_k_is_the_same_under_one_and_two_blas_threads():
    # The thread count is read when numpy loads, so each run is a process
    # of its own.  At p = 50 every BLAS call of the walk (the restarts'
    # stacked products included, one call per restart) stays under
    # OpenBLAS's threading thresholds.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-c", _THREADS_SCRIPT, src],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        outs.append(proc.stdout)
    assert outs[0].count("size-selection-report") == 2
    assert outs[0] == outs[1]
