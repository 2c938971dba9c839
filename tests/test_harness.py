import functools

import numpy as np
import pytest

from mcmpl import ar1, binary, core, harness, optim, weibull
from mcmpl.core import MonteCarloConfig, substream
from mcmpl.harness import (
    ExperimentSpec,
    InsufficientTrialsError,
    OddClusterSizeError,
    compute_metrics,
    generate_ar1_dataset,
    generate_binary_dataset,
    generate_survival_dataset,
    run_experiment,
)


def binary_spec(**overrides):
    base = dict(model="binary", n_clusters=30, t_periods=4, n_trials=3,
                methods=("mcar:profile",), replicates=50, seed=101,
                mechanism="mcar", beta=(1.0,), gamma1=(2.5,), gamma2=0.0)
    base.update(overrides)
    return ExperimentSpec(**base)


def _tiny_mnar_spec():
    # trial 1 of this draw fails its mcmpl fit
    return binary_spec(n_clusters=12, t_periods=4, n_trials=2, replicates=5,
                       seed=3, mechanism="mnar", gamma2=2.0,
                       methods=("mcar:profile", "mnar:mcmpl"))


#: the survival design a Weibull spec needs besides its sizes
WEIBULL_DESIGN = dict(model="weibull", beta=(-1.0, 1.0), censoring_share=0.2)


def _design(**overrides):
    """An ExperimentSpec constructor for a tiny design with ``overrides``."""
    base = dict(model="binary", n_clusters=5, t_periods=4, n_trials=2,
                methods=("profile",))
    return functools.partial(ExperimentSpec, **{**base, **overrides})


class TestGenerators:
    def test_mcar_missing_share_in_paper_band(self):
        spec = binary_spec(n_clusters=300, t_periods=10)
        shares = []
        for trial in range(20):
            data, _ = generate_binary_dataset(spec, substream(spec.seed, trial, 0))
            shares.append(data.indicators[data.unit_mask].mean())
        assert 0.35 <= np.mean(shares) <= 0.40

    def test_covariate_mean(self):
        spec = binary_spec(n_clusters=1000, t_periods=1000)
        data, _ = generate_binary_dataset(spec, substream(1, 0, 0))
        assert abs(data.covariates.mean() + 0.35) <= 0.003

    def test_same_seed_byte_identical(self):
        spec = binary_spec()
        a, _ = generate_binary_dataset(spec, substream(spec.seed, 4, 0))
        b, _ = generate_binary_dataset(spec, substream(spec.seed, 4, 0))
        assert np.array_equal(a.responses, b.responses, equal_nan=True)
        assert np.array_equal(a.covariates, b.covariates)
        assert np.array_equal(a.indicators, b.indicators)

    def test_correlated_lambda_generator(self):
        spec = binary_spec(n_clusters=4000, t_periods=8,
                           lambda_generator="covariate-correlated")
        rng = substream(7, 0, 0)
        x = -0.35 + rng.standard_normal((4000, 8))
        lam = x.mean(axis=1) + rng.standard_normal(4000)
        corr = np.corrcoef(lam, x.mean(axis=1))[0, 1]
        assert corr > 0.2  # incidental parameters correlate with the covariate
        data, _ = generate_binary_dataset(spec, substream(7, 0, 0))
        assert data.n_clusters == 4000

    @pytest.mark.parametrize("model", ["weibull", "ar1"])
    @pytest.mark.parametrize("field,key,value", [
        ("link", "link", "probit"), ("mechanism", "mechanism", "mnar"),
        ("lambda_generator", "lambda_gen", "covariate-correlated")])
    def test_binary_options_rejected_elsewhere(self, model, field, key, value):
        design = dict(weibull=dict(beta=(-1.0, 1.0), censoring_share=0.2), ar1={})[model]
        spec = dict(model=model, n_clusters=10, t_periods=4, n_trials=2,
                    methods=("profile",), **design)
        ExperimentSpec(**spec)
        with pytest.raises(ValueError, match=f"^{key} {value!r} applies to the binary"):
            ExperimentSpec(**spec, **{field: value})

    @pytest.mark.parametrize("share", [0.2, 0.4])
    def test_survival_censoring_share(self, share):
        spec = ExperimentSpec(model="weibull", n_clusters=1000, t_periods=10,
                              n_trials=2, methods=("profile",), seed=5,
                              xi=1.5, beta=(-1.0, 1.0), censoring_share=share)
        data, _ = generate_survival_dataset(spec, substream(5, 0, 0))
        observed = 1.0 - data.indicators[data.unit_mask].mean()
        assert observed == pytest.approx(share, abs=0.01)
        assert np.all(data.responses[data.unit_mask] > 0)

    def test_survival_design_columns(self):
        spec = ExperimentSpec(model="weibull", n_clusters=5, t_periods=6,
                              n_trials=2, methods=("profile",), seed=5,
                              xi=1.5, beta=(-1.0, 1.0), censoring_share=0.2)
        data, _ = generate_survival_dataset(spec, substream(5, 0, 0))
        x1 = data.covariates[:, :, 0]
        assert np.all(x1[:, :3] == 0.0) and np.all(x1[:, 3:] == 1.0)

    def test_survival_odd_t_rejected(self):
        with pytest.raises(OddClusterSizeError):
            ExperimentSpec(model="weibull", n_clusters=5, t_periods=5,
                           n_trials=2, methods=("profile",), seed=5,
                           xi=1.5, beta=(-1.0, 1.0), censoring_share=0.2)

    def test_ar1_white_noise_variance(self):
        spec = ExperimentSpec(model="ar1", n_clusters=1000, t_periods=1000,
                              n_trials=2, methods=("profile",), seed=9,
                              rho=0.0, sigma2=1.0)
        data, _ = generate_ar1_dataset(spec, substream(9, 0, 0))
        lam_effect = data.responses - data.responses.mean(axis=1, keepdims=True)
        assert lam_effect.var() == pytest.approx(1.0, abs=0.01)

    def test_ar1_deterministic_growth(self):
        # noiseless check of the geometric mean recursion from y0 = 0
        spec = ExperimentSpec(model="ar1", n_clusters=200, t_periods=12,
                              n_trials=2, methods=("profile",), seed=9,
                              rho=0.9, sigma2=1e-24)
        data, _ = generate_ar1_dataset(spec, substream(9, 3, 0))
        rng = substream(9, 3, 0)
        lam = 1.0 + rng.standard_normal(200)
        expected = lam * (1 - 0.9 ** 12) / (1 - 0.9)
        assert data.responses[:, -1] == pytest.approx(expected, abs=1e-9)
        assert np.all(data.initial_conditions == 0.0)


class TestComputeMetrics:
    def test_hand_arithmetic(self):
        row = compute_metrics([1.0, 2.0, 3.0], [1.0, 1.0, 1.0], truth=2.0)
        assert row.bias == pytest.approx(0.0)
        assert row.median_bias == pytest.approx(0.0)
        assert row.sd == pytest.approx(1.0)
        assert row.rmse == pytest.approx(np.sqrt(2.0 / 3.0))
        assert row.mae == pytest.approx(1.0)

    def test_constant_estimates(self):
        row = compute_metrics([2.0, 2.0, 2.0], [1.0, 1.0, 1.0], truth=2.0)
        assert row.bias == row.median_bias == row.rmse == row.mae == 0.0
        assert row.coverage == 1.0

    def test_zero_coverage(self):
        row = compute_metrics([0.0, 4.0], [1.0, 1.0], truth=2.0)
        assert row.coverage == 0.0

    def test_divisor_identity(self):
        rng = np.random.default_rng(2)
        est = rng.normal(size=101)
        row = compute_metrics(est, np.ones(101), truth=0.3)
        s = est.size
        assert row.rmse ** 2 == pytest.approx(
            row.bias ** 2 + row.sd ** 2 * (s - 1) / s, abs=1e-12)

    def test_even_s_median_convention(self):
        row = compute_metrics([1.0, 2.0, 4.0, 10.0], np.ones(4), truth=0.0)
        assert row.median_bias == pytest.approx(3.0)
        assert row.mae == pytest.approx(3.0)

    def test_infinite_se_covers(self):
        row = compute_metrics([0.0, 100.0], [np.inf, np.inf], truth=2.0)
        assert row.coverage == 1.0

    def test_single_trial_rejected(self):
        with pytest.raises(InsufficientTrialsError):
            compute_metrics([1.0], [1.0], truth=1.0)


class TestRunExperiment:
    def test_single_trial_experiment_rejected(self):
        with pytest.raises(InsufficientTrialsError):
            run_experiment(binary_spec(n_trials=1))

    def test_smoke_rows(self):
        spec = binary_spec(n_clusters=40, t_periods=6, n_trials=3,
                           methods=("mcar:profile", "mcar:mpl-exact", "mcar:mcmpl"))
        result = run_experiment(spec)
        methods = {row.method for row in result.rows}
        assert methods == set(spec.methods)
        for row in result.rows:
            assert row.parameter == "beta1"
            assert np.isfinite(row.bias)
            assert 0.0 <= row.coverage <= 1.0

    def test_thread_count_invariance(self):
        spec = binary_spec(n_clusters=30, t_periods=6, n_trials=4,
                           methods=("mcar:profile", "mcar:mcmpl"))
        serial = run_experiment(spec, threads=1)
        parallel = run_experiment(spec, threads=2)
        for a, b in zip(serial.rows, parallel.rows):
            assert a == b

    @pytest.mark.parametrize("threads, n_trials, cpus, workers", [
        (64, 3, 8, 3), (64, 4, 2, 2), (3, 4, 8, 3), (64, 4, None, None)])
    def test_pool_size_capped(self, monkeypatch, threads, n_trials, cpus, workers):
        # a stand-in pool records its size and runs the trials in-process
        started = []

        class RecordingPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(harness.concurrent.futures, "ProcessPoolExecutor",
                            RecordingPool)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
        run_experiment(binary_spec(n_trials=n_trials), threads=threads)
        assert started == ([] if workers is None else [workers])

    def test_keep_trials(self):
        spec = binary_spec(n_trials=2)
        result = run_experiment(spec, keep_trials=True)
        assert len(result.trials) == 2
        assert "mcar:profile" in result.trials[0].estimates

    def test_weibull_rows_include_relative_risks(self):
        spec = ExperimentSpec(model="weibull", n_clusters=30, t_periods=4,
                              n_trials=2, methods=("mcmpl",), replicates=60,
                              seed=3, xi=1.5, beta=(-1.0, 1.0),
                              censoring_share=0.2)
        result = run_experiment(spec)
        params = {row.parameter for row in result.rows}
        assert {"xi", "beta1", "beta2", "rr1", "rr2"} <= params

    def test_ar1_rows(self):
        spec = ExperimentSpec(model="ar1", n_clusters=60, t_periods=5,
                              n_trials=3, methods=("profile", "mcmpl"),
                              replicates=80, seed=4, rho=0.5, sigma2=1.0)
        result = run_experiment(spec)
        params = {row.parameter for row in result.rows}
        assert params == {"rho", "sigma2"}

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            binary_spec(methods=("bootstrap",))
        with pytest.raises(ValueError):
            binary_spec(methods=("weird:mcmpl",))
        with pytest.raises(ValueError):
            ExperimentSpec(model="ar1", n_clusters=5, t_periods=4, n_trials=2,
                           methods=("mcar:profile",), rho=0.5, sigma2=1.0, seed=0)

    @pytest.mark.parametrize("spec_kwargs", [
        dict(model="binary", mechanism="mcar", methods=("mnar:mpl-exact",)),
        dict(model="binary", mechanism="mnar", methods=("mpl-exact",)),
        dict(model="weibull", beta=(-1.0, 1.0), censoring_share=0.2,
             methods=("mpl-exact",)),
        dict(model="ar1", methods=("mpl-exact",)),
    ])
    def test_mpl_exact_without_closed_form_rejected(self, spec_kwargs):
        base = dict(n_clusters=5, t_periods=4, n_trials=2, seed=0)
        with pytest.raises(ValueError, match="mpl-exact"):
            ExperimentSpec(**{**base, **spec_kwargs})

    @pytest.mark.parametrize("make, message", [
        (_design(seed=-1), "seed -1"),
        (functools.partial(MonteCarloConfig, master_seed=-1), "seed -1"),
        (_design(beta=(np.nan,)), "beta"),
        (_design(gamma1=(np.inf,)), "gamma1"),
        (_design(gamma2=np.nan), "gamma2"),
        (_design(**WEIBULL_DESIGN, xi=-1.0), "xi"),
        (_design(**WEIBULL_DESIGN, xi=0.0), "xi"),
        (_design(**WEIBULL_DESIGN, xi=np.inf), "xi"),
        (_design(model="ar1", rho=np.nan), "rho"),
        (_design(model="ar1", sigma2=-1.0), "sigma2"),
        (_design(model="ar1", sigma2=np.inf), "sigma2"),
        (_design(model="ar1", t_periods=1), "t_periods"),
    ], ids=["spec-seed", "mc-seed", "beta-nan", "gamma1-inf", "gamma2-nan",
            "xi-negative", "xi-zero", "xi-inf", "rho-nan", "sigma2-negative",
            "sigma2-inf", "ar1-t-1"])
    def test_bad_design_or_seed_rejected(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    def test_failed_data_draw_counts_as_failed_trial(self):
        spec = ExperimentSpec(model="weibull", n_clusters=20, t_periods=4,
                              n_trials=3, methods=("profile", "mcmpl"), xi=0.2,
                              beta=(-1.0, 1.0), censoring_share=0.95)
        assert harness.run_trial(spec, 0).estimates == {"profile": None, "mcmpl": None}

    def test_numerical_failure_counts_as_failed_trial(self, monkeypatch):
        calls = []
        real_fit = harness.core.fit

        def fail_first_call(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise optim.NonFiniteStartError("objective not finite at the start")
            return real_fit(*args, **kwargs)

        monkeypatch.setattr(harness.core, "fit", fail_first_call)
        result = run_experiment(binary_spec(n_trials=3), keep_trials=True)
        assert result.trials[0].estimates["mcar:profile"] is None
        assert [row.n_failed_trials for row in result.rows] == [1]

    def test_failed_tiny_mnar_fit_stays_cheap(self, monkeypatch):
        # the failed mcmpl fit ends its searches in a few dozen objective
        # evaluations
        calls = []
        real = core.modified_profile_loglik

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(core, "modified_profile_loglik", counting)
        outcome = harness.run_trial(_tiny_mnar_spec(), 1)
        assert outcome.estimates["mnar:mcmpl"] is None
        assert len(calls) < 2000

    def test_failed_fit_is_not_refit(self, monkeypatch):
        # one fit per method: a failed fit counts as a failed trial
        methods = []
        real = core.fit

        def counting(model, data, method, *args, **kwargs):
            methods.append(method)
            return real(model, data, method, *args, **kwargs)

        monkeypatch.setattr(core, "fit", counting)
        outcome = harness.run_trial(_tiny_mnar_spec(), 1)
        assert outcome.estimates["mnar:mcmpl"] is None
        assert methods == ["profile", "mcmpl"]


#: one small design per family for the cluster-order property
ORDER_DESIGNS = {
    "binary": dict(n_clusters=40, t_periods=6),
    "weibull": dict(n_clusters=30, t_periods=6, beta=(-1.0, 1.0),
                    censoring_share=0.2),
    "ar1": dict(n_clusters=40, t_periods=5),
}


def test_numerical_errors_share_one_base():
    # the numerical errors of every module: run_trial counts each as a failed
    # trial and the cli exits 1 on each
    for cls in (optim.NoFinitePointError, optim.NonFiniteStartError,
                optim.NonFiniteEvaluationError, core.NoInformativeClustersError,
                binary.ProbabilityUnderflowError, weibull.NoSolutionInBracketError,
                ar1.DegenerateDesignError):
        assert issubclass(cls, optim.NumericalFailure), cls
    assert issubclass(optim.NumericalFailure, ValueError)


@pytest.mark.parametrize("kind", sorted(harness.FAMILIES))
def test_profile_fit_invariant_to_cluster_order(kind):
    spec = ExperimentSpec(model=kind, n_trials=2, methods=("profile",), seed=7,
                          **ORDER_DESIGNS[kind])
    family = harness.FAMILIES[kind]
    data, _ = family.generate(spec, substream(spec.seed, 0, 0))
    model = family.model(spec.link, spec.mechanism)
    perm = substream(8, 0).permutation(data.n_clusters)
    fit = core.fit(model, data, "profile")
    permuted = core.fit(model, data.subset(perm), "profile")
    assert permuted.psi_hat == pytest.approx(fit.psi_hat, abs=1e-7)
    assert permuted.std_errors == pytest.approx(fit.std_errors, rel=1e-5)
