"""Reduced-scale reproduction runs plus the cross-model property suite.

The four studies rerun the reported experiments at S=500 trials and R=200
replicates with a fixed master seed; tolerances are a few Monte Carlo
standard errors wide at that scale. One pass/fail line per criterion is
printed as it completes (always visible, bypassing capture).
"""

import os

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import expit

from mcmpl import ar1, binary, core, harness, io, weibull
from mcmpl.core import substream
from oracles import weibull_profile_loglik

#: every test here is a study or a property suite; ``-m "not acceptance"``
#: runs the unit suite alone
pytestmark = pytest.mark.acceptance

ACCEPTANCE_SEED = 20260809
TRIALS = 500
REPLICATES = 200
THREADS = max(1, min(2, os.cpu_count() or 1))


def _report(capsys, criterion, checks):
    """One line per criterion: every (name, ok, detail) check folded in."""
    ok = all(c[1] for c in checks)
    detail = "  ".join(f"{name}={value}" for name, _, value in checks)
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    failed = [name for name, good, value in checks if not good]
    assert not failed, f"{criterion} failed checks: {failed}"


def _rows(result):
    return {(r.method, r.parameter): r for r in result.rows}


def _bias(row):
    """Bias and its Monte Carlo standard error sd/sqrt(n_used)."""
    n_used = TRIALS - row.n_failed_trials
    return f"{row.bias:+.4f}+-{row.sd / np.sqrt(n_used):.4f}"


def _cov(row):
    """Coverage and its Monte Carlo standard error sqrt(c(1-c)/n_used)."""
    n_used = TRIALS - row.n_failed_trials
    c = row.coverage
    return f"{c:.3f}+-{np.sqrt(c * (1.0 - c) / n_used):.3f}"


@pytest.fixture(scope="module")
def mcar_logistic_study():
    spec = harness.ExperimentSpec(
        model="binary", n_clusters=250, t_periods=10, n_trials=TRIALS,
        methods=("mcar:profile", "mcar:mpl-exact", "mcar:mcmpl"),
        replicates=REPLICATES, seed=ACCEPTANCE_SEED, mechanism="mcar",
        beta=(1.0,), gamma1=(2.5,), gamma2=0.0)
    return harness.run_experiment(spec, threads=THREADS, keep_trials=True)


@pytest.fixture(scope="module")
def mnar_logistic_study():
    spec = harness.ExperimentSpec(
        model="binary", n_clusters=100, t_periods=10, n_trials=TRIALS,
        methods=("mcar:mpl-exact", "mnar:mcmpl"),
        replicates=REPLICATES, seed=ACCEPTANCE_SEED, mechanism="mnar",
        beta=(1.0,), gamma1=(5.0,), gamma2=1.0)
    return harness.run_experiment(spec, threads=THREADS)


@pytest.fixture(scope="module")
def weibull_study():
    spec = harness.ExperimentSpec(
        model="weibull", n_clusters=100, t_periods=6, n_trials=TRIALS,
        methods=("profile", "mcmpl"), replicates=REPLICATES,
        seed=ACCEPTANCE_SEED, xi=1.5, beta=(-1.0, 1.0), censoring_share=0.2)
    return harness.run_experiment(spec, threads=THREADS)


@pytest.fixture(scope="module")
def ar1_study():
    spec = harness.ExperimentSpec(
        model="ar1", n_clusters=250, t_periods=8, n_trials=TRIALS,
        methods=("profile", "mcmpl"), replicates=REPLICATES,
        seed=ACCEPTANCE_SEED, rho=0.5, sigma2=1.0)
    return harness.run_experiment(spec, threads=THREADS)


def test_criterion_1_mcar_logistic(mcar_logistic_study, capsys):
    rows = _rows(mcar_logistic_study)
    prof = rows[("mcar:profile", "beta1")]
    exact = rows[("mcar:mpl-exact", "beta1")]
    mc = rows[("mcar:mcmpl", "beta1")]
    gaps = [t.estimates["mcar:mcmpl"]["beta1"][0]
            - t.estimates["mcar:mpl-exact"]["beta1"][0]
            for t in mcar_logistic_study.trials
            if t.estimates["mcar:mpl-exact"] and t.estimates["mcar:mcmpl"]]
    mean_gap = float(np.mean(np.abs(gaps)))
    checks = [
        ("profile_bias", 0.185 <= prof.bias <= 0.245, _bias(prof)),
        ("profile_cov", prof.coverage <= 0.70, _cov(prof)),
        ("mcmpl_bias", -0.03 <= mc.bias <= 0.03, _bias(mc)),
        ("mcmpl_cov", 0.91 <= mc.coverage <= 0.97, _cov(mc)),
        ("mean|exact-mc|", mean_gap < 0.01, f"{mean_gap:.5f}"),
        # diagnostics (not asserted): the closed-form estimator's bias and the
        # signed exact-to-MC shift locate any miss relative to the reported
        # true bias of +0.029 at this design
        ("exact_bias", True, _bias(exact)),
        ("signed_mc_shift", True, f"{float(np.mean(gaps)):+.5f}"),
    ]
    _report(capsys, "criterion 1 (MCAR logistic N=250 T=10)", checks)


def test_criterion_2_mnar_logistic(mnar_logistic_study, capsys):
    rows = _rows(mnar_logistic_study)
    exact = rows[("mcar:mpl-exact", "beta1")]
    mc = rows[("mnar:mcmpl", "beta1")]
    checks = [
        ("mcar_mpl_bias", -0.28 <= exact.bias <= -0.17, _bias(exact)),
        ("mcar_mpl_cov", exact.coverage <= 0.85, _cov(exact)),
        ("mnar_mcmpl_bias", -0.05 <= mc.bias <= 0.05, _bias(mc)),
        ("mnar_mcmpl_cov", 0.90 <= mc.coverage <= 0.97, _cov(mc)),
    ]
    _report(capsys, "criterion 2 (MNAR logistic N=100 T=10)", checks)


def test_criterion_3_weibull(weibull_study, capsys):
    rows = _rows(weibull_study)
    prof = rows[("profile", "xi")]
    mc = rows[("mcmpl", "xi")]
    rr2 = rows[("mcmpl", "rr2")]
    checks = [
        ("profile_xi_bias", 0.197 <= prof.bias <= 0.247, _bias(prof)),
        ("profile_xi_cov", prof.coverage <= 0.15, _cov(prof)),
        ("mcmpl_xi_bias", -0.02 <= mc.bias <= 0.02, _bias(mc)),
        ("mcmpl_xi_cov", 0.92 <= mc.coverage <= 0.98, _cov(mc)),
        ("mcmpl_rr2_bias", -0.01 <= rr2.bias <= 0.01, _bias(rr2)),
        ("mcmpl_rr2_cov", 0.91 <= rr2.coverage <= 0.97, _cov(rr2)),
    ]
    _report(capsys, "criterion 3 (Weibull Pc=0.2 N=100 T=6)", checks)


def test_criterion_4_ar1(ar1_study, capsys):
    rows = _rows(ar1_study)
    prho = rows[("profile", "rho")]
    mrho = rows[("mcmpl", "rho")]
    psig = rows[("profile", "sigma2")]
    msig = rows[("mcmpl", "sigma2")]
    checks = [
        ("profile_rho_bias", -0.126 <= prho.bias <= -0.102, _bias(prho)),
        ("profile_rho_cov", prho.coverage <= 0.01, _cov(prho)),
        ("mcmpl_rho_bias", -0.01 <= mrho.bias <= 0.01, _bias(mrho)),
        ("mcmpl_rho_cov", 0.91 <= mrho.coverage <= 0.97, _cov(mrho)),
        ("profile_sig_bias", -0.162 <= psig.bias <= -0.132, _bias(psig)),
        ("mcmpl_sig_bias", -0.015 <= msig.bias <= 0.015, _bias(msig)),
    ]
    _report(capsys, "criterion 4 (AR(1) rho=0.5 N=250 T=8)", checks)


# ---------------------------------------------------------------------------
# criterion 5: the property suite
# ---------------------------------------------------------------------------

def _sim_mcar(n, t, seed):
    rng = substream(seed, 0)
    x = -0.35 + rng.standard_normal((n, t))
    lam = -0.35 + rng.standard_normal(n)
    y = (rng.random((n, t)) < expit(lam[:, None] + x)).astype(float)
    miss = (rng.random((n, t)) < expit(2.5 * x)).astype(float)
    data = binary.make_binary_dataset(np.where(miss == 1, np.nan, y), x, miss)
    return core.drop_noninformative(binary.BinaryMissingModel(), data)[0]


def _sim_weibull(n, t, seed):
    spec = harness.ExperimentSpec(model="weibull", n_clusters=n, t_periods=t,
                                  n_trials=2, methods=("profile",), seed=seed,
                                  xi=1.5, beta=(-1.0, 1.0), censoring_share=0.2)
    data, _ = harness.generate_survival_dataset(spec, substream(seed, 0, 0))
    return core.drop_noninformative(weibull.WeibullSurvivalModel(), data)[0]


def _sim_ar1(n, t, seed):
    spec = harness.ExperimentSpec(model="ar1", n_clusters=n, t_periods=t,
                                  n_trials=2, methods=("profile",), seed=seed,
                                  rho=0.5, sigma2=1.0)
    return harness.generate_ar1_dataset(spec, substream(seed, 0, 0))[0]


def test_criterion_5_property_suite(tmp_path, capsys):
    checks = []
    rng = np.random.default_rng(5)

    # per-cluster score at the constrained nuisance estimate
    worst = 0.0
    bdata = _sim_mcar(50, 6, seed=61)
    bmodel = binary.BinaryMissingModel()
    wdata = _sim_weibull(40, 6, seed=62)
    wmodel = weibull.WeibullSurvivalModel()
    adata = _sim_ar1(40, 6, seed=63)
    amodel = ar1.AR1PanelModel()
    for model, data, psis in (
            (bmodel, bdata, [np.array([b]) for b in (0.3, 1.0, 1.6)]),
            (wmodel, wdata, [np.array([s, -1.0, 1.0]) for s in (1.0, 1.5, 2.2)]),
            (amodel, adata, [np.array([r, 1.0]) for r in (0.2, 0.5, 0.9)])):
        for psi in psis:
            lam = model.constrained_nuisance(psi, data)
            worst = max(worst, float(np.abs(model.nuisance_score(psi, lam, data)).max()))
    checks.append(("score_at_constrained", worst <= 1e-6, f"{worst:.2e}"))

    # closed-form constrained intercept vs numeric root
    gap = 0.0
    for _ in range(200):
        t = int(rng.integers(1, 5))
        times = rng.exponential(1.0, (1, t)) + 0.05
        data1 = weibull.make_survival_dataset(times, np.ones((1, t)),
                                              rng.normal(size=(1, t, 1)))
        shape = float(rng.uniform(0.5, 2.5))
        beta = rng.normal(size=1)
        lam = weibull.constrained_nuisance_closed_form(shape, beta, data1)[0]

        def g(v):
            return wmodel.nuisance_score(np.concatenate([[shape], beta]),
                                         np.array([v]), data1)[0]

        root = brentq(g, lam - 2, lam + 2, xtol=1e-14, maxiter=500)
        gap = max(gap, abs(root - lam) / (1 + abs(lam)))
    checks.append(("closed_form_vs_root", gap <= 1e-10, f"{gap:.2e}"))

    # profile display vs plug-in log-likelihood
    gap = 0.0
    for shape in (0.8, 1.5, 2.0):
        beta = np.array([-0.7, 0.6])
        lamw = weibull.constrained_nuisance_closed_form(shape, beta, wdata)
        plug = float(wmodel.cluster_logliks(np.concatenate([[shape], beta]), lamw,
                                            wdata).sum())
        gap = max(gap, abs(weibull_profile_loglik(shape, beta, wdata) - plug)
                  / (1 + abs(plug)))
    checks.append(("profile_display", gap <= 1e-10, f"{gap:.2e}"))

    # analytic information vs finite-difference negative Hessian
    worst = 0.0
    for model, data, psi in ((bmodel, bdata, np.array([0.9])),
                             (binary.BinaryMissingModel(link="probit"), bdata,
                              np.array([0.6])),
                             (wmodel, wdata, np.array([1.4, -1.0, 1.0])),
                             (amodel, adata, np.array([0.5, 1.0]))):
        lam = model.constrained_nuisance(psi, data)
        info = model.nuisance_obs_info(psi, lam, data)
        for i in range(0, data.n_clusters, 7):
            cluster = data.subset([i])
            lam_i = lam[i:i + 1]

            def ll(v):
                return float(model.cluster_logliks(psi, v, cluster)[0])

            fd = -core.optim.numerical_hessian(ll, lam_i)[0, 0]
            worst = max(worst, abs(fd - info[i]) / (1 + abs(info[i])))
    checks.append(("info_vs_fd", worst <= 1e-4, f"{worst:.2e}"))

    # Monte Carlo expectation at the MLE is nonnegative
    ok = True
    for model, data in ((bmodel, bdata), (wmodel, wdata), (amodel, adata)):
        fit = core.fit(model, data, "profile")
        lam = model.constrained_nuisance(fit.psi_hat, data)
        bank = model.build_replicates(fit.psi_hat, lam, data, substream(9, 0), 400)
        ok = ok and bool(np.all(model.replicate_expectation(
            bank, fit.psi_hat, lam, data) >= 0.0))
    checks.append(("mc_expectation_nonneg", ok, str(ok)))

    # logistic MCAR expectation vs analytic value at R = 50 000
    small = _sim_mcar(25, 5, seed=64)
    fit = core.fit(bmodel, small, "profile")
    lam = bmodel.constrained_nuisance(fit.psi_hat, small)
    bank = bmodel.build_replicates(fit.psi_hat, lam, small, substream(10, 0), 50_000)
    vals = bmodel.replicate_expectation(bank, fit.psi_hat, lam, small)
    gamma1, _ = binary.fit_missingness_regression(small)
    pi = expit(lam[:, None] + small.covariates @ fit.psi_hat)
    zeta = expit(small.covariates @ gamma1)
    analytic = np.where(small.unit_mask, (1 - zeta) * pi * (1 - pi), 0.0).sum(axis=1)
    mc_se = (bank.scores_at_mle ** 2).std(axis=0, ddof=1) / np.sqrt(50_000)
    worst_z = float(np.max(np.abs(vals - analytic) / mc_se))
    checks.append(("logistic_mc_vs_analytic", worst_z <= 3.0, f"{worst_z:.2f}se"))

    # Kaplan-Meier product-limit oracle
    km = weibull.km_censoring(weibull.make_survival_dataset(
        [[1.0, 2.0, 3.0]], [[0.0, 0.0, 0.0]], np.zeros((1, 3, 1))))
    ok = (np.allclose(km.survival_values, [2 / 3, 1 / 3, 0.0])
          and km.evaluate(0.9) == 1.0)
    km2 = weibull.km_censoring(weibull.make_survival_dataset(
        [[3.0, 5.0]], [[1.0, 0.0]], np.zeros((1, 2, 1))))
    ok = ok and np.allclose(km2.survival_values, [0.0]) and km2.evaluate(4.0) == 1.0
    checks.append(("km_oracle", ok, str(ok)))

    # AR(1) intercept identity
    rho_hat, _, lam_hat = ar1.ols_fit(adata)
    lagbar = np.concatenate([adata.initial_conditions[:, None],
                             adata.responses[:, :-1]], axis=1).mean(axis=1)
    gap = 0.0
    for rho in rng.normal(0.5, 0.5, size=20):
        lam_rho = ar1.constrained_lambda(rho, adata)
        gap = max(gap, float(np.abs(lam_hat - (lam_rho - (rho_hat - rho) * lagbar)).max()))
    checks.append(("ar1_identity", gap <= 1e-12, f"{gap:.2e}"))

    # byte-identical outputs across thread counts
    spec = harness.ExperimentSpec(model="binary", n_clusters=30, t_periods=5,
                                  n_trials=4, methods=("mcar:profile", "mcar:mcmpl"),
                                  replicates=60, seed=313, mechanism="mcar",
                                  beta=(1.0,), gamma1=(2.5,), gamma2=0.0)
    p1, p2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
    io.write_metrics(p1, spec, harness.run_experiment(spec, threads=1).rows)
    io.write_metrics(p2, spec, harness.run_experiment(spec, threads=2).rows)
    same = p1.read_bytes() == p2.read_bytes()
    checks.append(("thread_determinism", same, str(same)))

    # censoring calibration reproduces the target share empirically
    spec_w = harness.ExperimentSpec(model="weibull", n_clusters=2000, t_periods=10,
                                    n_trials=2, methods=("profile",), seed=65,
                                    xi=1.5, beta=(-1.0, 1.0), censoring_share=0.2)
    data_w, _ = harness.generate_survival_dataset(spec_w, substream(65, 0, 0))
    share = 1.0 - data_w.indicators[data_w.unit_mask].mean()
    checks.append(("calibration_share", abs(share - 0.2) <= 0.01, f"{share:.4f}"))

    _report(capsys, "criterion 5 (property suite)", checks)
