"""Size selection: test statistics, Monte Carlo null laws, choose_k driver."""

import json
import warnings

import numpy as np
import pytest

from csskit import covest, simlab, sizesel
from csskit.criteria import Criterion, CriterionKind, evaluate
from csskit.errors import DegreesOfFreedom, DimMismatch, NoFeasibleK
from csskit.search import SearchConfig, swap
from csskit.simlab import ScenarioSpec
from csskit.sizesel import (
    Model,
    cc_sum,
    choose_k,
    mc_quantile_pcss,
    mc_quantile_subset_factor,
    null_draws_pcss,
    null_draws_subset_factor,
    stat_T,
    stat_Ttilde,
)


def rand_pd(rng, p):
    g = rng.standard_normal((p + 3, p))
    return g.T @ g / (p + 3)


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


def test_mc_quantile_argument_checks():
    with pytest.raises(DegreesOfFreedom):
        mc_quantile_subset_factor(8, 8, 1, 0.05, 2000, 0)
    with pytest.raises(DimMismatch):
        mc_quantile_subset_factor(50, 8, 1, 1.5, 2000, 0)
    with pytest.raises(DimMismatch):
        mc_quantile_subset_factor(50, 8, 1, 0.05, 10, 0)
    with pytest.raises(DimMismatch):
        mc_quantile_pcss(50, 8, 9, 0.05, 2000, 0)


def test_cc_sum_values():
    assert cc_sum(np.eye(6), (0, 1), (3, 4)) == pytest.approx(0.0, abs=1e-12)
    rng = np.random.default_rng(149)
    sigma = rand_pd(rng, 6)
    # a set against itself: one perfect correlation per coordinate
    assert cc_sum(sigma, (1, 4), (1, 4)) == pytest.approx(2.0, abs=1e-8)
    assert cc_sum(sigma, (), (1, 2)) == 0.0


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
    with pytest.raises(NoFeasibleK):
        choose_k(pop, n=50, model=Model.PCSS, mc_samples=2000, seed=0, k_max=1)


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
