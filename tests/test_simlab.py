"""Synthetic scenarios: presets, sampling laws, and the desk studies."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from csskit import covest, simlab, symmat
from csskit.errors import DimMismatch
from csskit.simlab import (
    ScenarioSpec,
    missing_a1_spec,
    population_cov,
    preset_checksums,
    run_missing_study,
    run_sizesel_study,
    sample,
    sizesel_a2_spec,
    write_rows_csv,
)


def test_preset_files_unchanged():
    # Transcribed parameter files are frozen; regenerate deliberately or not
    # at all.
    sums = preset_checksums()
    assert (
        sums["missing_a1.json"]
        == "27a60a8e70806d0a27fbe66fa0c0b4139f8125fe78b28068a68dd7694cae24cd"
    )
    assert (
        sums["sizesel_a2.json"]
        == "40f1537f9259ca5ce3d7c73dcbfbeef3eefb9fdd7c1aa98b3850bce912977222"
    )


def test_missing_a1_population_structure():
    spec = missing_a1_spec()
    assert spec.p == 20 and spec.subset == (0, 1, 2, 3)
    pop = population_cov(spec)
    assert_allclose(np.diag(pop), np.ones(20), atol=1e-9)  # unit variances
    w = np.linalg.eigvalsh(pop)
    assert w.min() >= -1e-10
    res = symmat.residual_covariance(pop, spec.subset)
    assert np.trace(res) == pytest.approx(2.4, abs=1e-9)


def test_sizesel_a2_population_structure():
    spec = sizesel_a2_spec(signal=0.254, factors="mixed")
    assert spec.p == 50 and spec.subset == tuple(range(20))
    assert np.all(spec.d_diag > 0)
    assert sorted(spec.noise_laws) != ["gaussian"] * 30  # mixed really mixes
    pop = population_cov(spec)
    assert np.linalg.eigvalsh(pop).min() >= -1e-10
    # the residual at the true subset is exactly the unique-factor diagonal
    res = symmat.residual_covariance(pop, spec.subset)
    block = res[np.ix_(spec.complement, spec.complement)]
    assert_allclose(block, np.diag(spec.d_diag), atol=1e-12)
    off = res[np.ix_(list(spec.subset), spec.complement)]
    assert np.max(np.abs(off)) < 1e-12


def test_mixed_factor_assignment_partitions():
    spec = sizesel_a2_spec(factors="mixed")
    laws = spec.noise_laws
    assert len(laws) == 30
    assert sorted(set(laws)) == [
        "centered_exponential",
        "rademacher",
        "student_t3",
    ]
    assert all(laws.count(law) == 10 for law in set(laws))


def test_scenario_validation():
    spec = missing_a1_spec()
    with pytest.raises(DimMismatch):
        ScenarioSpec(
            model="subset-factor",
            p=4,
            subset=(0,),
            sigma_s=np.eye(1),
            w=np.ones((3, 1)),
            d_diag=np.array([1.0, 0.0, 1.0]),  # zero not allowed
        )
    with pytest.raises(DimMismatch):
        ScenarioSpec(
            model="pcss",
            p=4,
            subset=(0,),
            sigma_s=np.eye(1),
            w=np.ones((2, 1)),  # wrong row count
            noise_sigma2=0.1,
        )
    with pytest.raises(DimMismatch):
        sizesel_a2_spec(signal=-1.0)
    with pytest.raises(DimMismatch):
        sizesel_a2_spec(factors="cauchy")
    assert spec.mar_prob == 0.05


def test_sample_deterministic_and_missingness():
    spec = missing_a1_spec(mar_prob=0.05)
    a = sample(spec, 500, seed=[1, 2])
    b = sample(spec, 500, seed=[1, 2])
    c = sample(spec, 500, seed=[1, 3])
    av = np.asarray(a.values, dtype=float)
    bv = np.asarray(b.values, dtype=float)
    assert np.array_equal(av, bv, equal_nan=True)
    assert not np.array_equal(av, np.asarray(c.values, dtype=float), equal_nan=True)
    frac = np.isnan(av).mean()
    assert abs(frac - 0.05) < 0.01


def test_sample_matches_population_moments():
    spec = missing_a1_spec(mar_prob=0.0)
    pop = population_cov(spec)
    data = sample(spec, 20_000, seed=[5, 0])
    x = np.asarray(data.values, dtype=float)
    assert np.max(np.abs(x.mean(axis=0))) < 5.0 / np.sqrt(20_000)
    got = covest.sample_cov(x)
    rel = np.linalg.norm(got - pop) / np.linalg.norm(pop)
    assert rel < 0.05


def test_noise_law_moments():
    rng = np.random.default_rng(2718)
    n = 100_000
    target = 2.5
    for law in simlab.NOISE_LAWS:
        draws = simlab._draw_noise(rng, law, target, n)
        assert abs(draws.mean()) < 4 * np.sqrt(target / n)
        if law == "rademacher":
            assert_allclose(np.unique(np.abs(draws)), [np.sqrt(target)])
            assert abs(draws.var() - target) < 0.1
        elif law == "student_t3":
            # fourth moment diverges, so judge the variance loosely
            assert abs(draws.var() - target) / target < 0.25
        else:
            assert abs(draws.var() - target) / target < 0.05
    skew = simlab._draw_noise(rng, "centered_exponential", 1.0, n)
    assert abs(np.mean(skew**3) - 2.0) < 0.15  # Exp(1) - 1 has skewness 2


def test_missing_study_smoke(tmp_path):
    rows, summary = run_missing_study(trials=3, n=200, seed=11, restarts=4)
    assert len(rows) == 3
    assert set(rows[0]) >= {
        "trial",
        "selected",
        "exact_recovery",
        "overlap",
        "pop_css_objective",
        "baseline_overlap",
    }
    assert 0.0 <= summary["recovery_rate"] <= 1.0
    assert summary["true_pop_css_objective"] == pytest.approx(2.4, abs=1e-9)
    # selections can't beat the population optimum
    for row in rows:
        assert row["pop_css_objective"] >= 2.4 - 1e-9
    out = tmp_path / "rows.csv"
    write_rows_csv(str(out), rows)
    text = out.read_text().splitlines()
    assert text[0].startswith("trial,")
    assert len(text) == 4


def test_sizesel_study_smoke():
    rows, summary = run_sizesel_study(
        trials=2, n=200, seed=4, restarts=1, mc_samples=2000
    )
    assert len(rows) == 2
    assert sum(summary["k_distribution"].values()) == 2
    assert summary["k_star"] == 20
    for row in rows:
        assert 0 <= row["overlap"] <= min(row["chosen_k"], 20)


def test_studies_need_a_trial():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy mean-of-empty warning
        for trials in (0, -1):
            with pytest.raises(DimMismatch, match="trials"):
                run_missing_study(trials=trials)
            with pytest.raises(DimMismatch, match="trials"):
                run_sizesel_study(trials=trials)
