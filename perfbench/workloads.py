"""The benchmark's workloads: their inputs, their operations and their checks.

A workload runs in rounds. A study round is one ``harness.run_experiment``
call over a block of trials; a CLI round is one in-process
``cli.main(["fit", ...])`` call. An operation is one method fitted in one
trial, or one CLI fit. The checks compare outputs with computations made
here in numpy, or with properties the estimators must have.
"""

from __future__ import annotations

import csv
import math
import os
import time
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from mcmpl import binary, cli, core, harness, io, weibull

#: study designs of acceptance criteria 1, 3 and 4, with the trials per round
STUDIES = {
    "study-mcar": (dict(model="binary", n_clusters=250, t_periods=10, replicates=200,
                        methods=("mcar:profile", "mcar:mpl-exact", "mcar:mcmpl"),
                        mechanism="mcar", beta=(1.0,), gamma1=(2.5,), gamma2=0.0), 2),
    "study-weibull": (dict(model="weibull", n_clusters=100, t_periods=6, replicates=200,
                           methods=("profile", "mcmpl"), xi=1.5, beta=(-1.0, 1.0),
                           censoring_share=0.2), 2),
    "study-ar1": (dict(model="ar1", n_clusters=250, t_periods=8, replicates=200,
                       methods=("profile", "mcmpl"), rho=0.5, sigma2=1.0), 20),
}

#: the criterion-2 MNAR design, fitted through the CLI at its default R=500
CLI_DESIGN = dict(model="binary", n_clusters=100, t_periods=10, n_trials=2,
                  methods=("mnar:mcmpl",), mechanism="mnar", beta=(1.0,),
                  gamma1=(5.0,), gamma2=1.0)
#: distinct CSV files built at set-up; fits cycle through them
CLI_POOL = 24
#: fits 0..2 form the traced pass and carry the 4-SE check: a run makes 13 to
#: 19 fits, and a 4-SE band over all their estimates would be crossed by
#: chance in about 1 run in 300
CLI_FIXED_FITS = 3


def derived_seed(seed: int, k: int) -> int:
    """Seed of round ``k``'s inputs, a function of the workload seed only."""
    return int(np.random.SeedSequence((seed, k)).generate_state(1)[0])


@dataclass
class Round:
    wall: float          # seconds
    trials: int
    attempted: int
    failed: int
    outcome: object = None


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


def make(name: str, seed: int, workdir: str):
    if name in STUDIES:
        return Study(name, seed)
    return CliFit(seed, workdir)


# ---------------------------------------------------------------------------
# study workloads
# ---------------------------------------------------------------------------

class Study:
    #: rounds of one traced pass: 8 trials on study-mcar and study-weibull, so
    #: that the bias comparison of a traced run rests on more than 4 trials
    trace_rounds = (0, 1, 2, 3)

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.design, self.block = STUDIES[name]

    def setup(self):
        self.spec(0)

    def spec(self, k: int) -> harness.ExperimentSpec:
        return harness.ExperimentSpec(**self.design, n_trials=self.block,
                                      seed=derived_seed(self.seed, k))

    def run_round(self, k: int) -> Round:
        spec = self.spec(k)
        start = time.perf_counter()
        result = harness.run_experiment(spec, keep_trials=True)
        wall = time.perf_counter() - start
        failed = {row.method: row.n_failed_trials for row in result.rows}
        return Round(wall=wall, trials=spec.n_trials,
                     attempted=spec.n_trials * len(spec.methods),
                     failed=sum(failed.values()), outcome=(k, result.trials))

    def checks(self, rounds) -> list[Check]:
        # a traced run repeats its rounds; each trial is checked once
        trials = {}
        for r in rounds:
            k, outcomes = r.outcome
            trials.update(((k, s), (k, s, t)) for s, t in enumerate(outcomes))
        trials = list(trials.values())
        return {"study-mcar": self._check_mcar, "study-weibull": self._check_weibull,
                "study-ar1": self._check_ar1}[self.name](trials)

    def _dataset(self, k, s):
        spec = self.spec(k)
        return harness.generate_dataset(spec, core.substream(spec.seed, s, 0))[0]

    def _bias(self, trials, method, param, truth):
        errors = [t.estimates[method][param][0] - truth for _, _, t in trials
                  if t.estimates[method] is not None]
        return float(np.mean(errors))

    def _check_mcar(self, trials):
        gaps = [abs(t.estimates["mcar:mcmpl"]["beta1"][0]
                    - t.estimates["mcar:mpl-exact"]["beta1"][0])
                for _, _, t in trials
                if t.estimates["mcar:mcmpl"] and t.estimates["mcar:mpl-exact"]]
        gap = float(np.mean(gaps))
        prof = self._bias(trials, "mcar:profile", "beta1", 1.0)
        mc = self._bias(trials, "mcar:mcmpl", "beta1", 1.0)
        zs = []
        for k, s, _ in trials[:3]:
            zs.append(_logit_bank_z(self._dataset(k, s), derived_seed(self.seed, 1000 + s)))
            if abs(zs[-1]) <= 3.0:
                break
        return [Check("mean|mcmpl-exact|<0.01", gap < 0.01, f"{gap:.5f}"),
                Check("bank_mean_vs_closed_form<=3se", abs(zs[-1]) <= 3.0,
                      " ".join(f"{z:+.2f}se" for z in zs)),
                Check("|profile_bias|>|mcmpl_bias|", abs(prof) > abs(mc),
                      f"{prof:+.4f} vs {mc:+.4f}")]

    def _check_weibull(self, trials):
        k0 = trials[0][0]
        datasets = [self._dataset(k, s) for k, s, _ in trials if k == k0]
        events = np.concatenate([d.indicators[d.unit_mask] for d in datasets])
        share = 1.0 - float(events.mean())
        target = self.design["censoring_share"]
        worst = max(_weibull_score_residual(d, psi) for d in datasets[:2]
                    for psi in ((1.5, -1.0, 1.0), (1.2, -0.8, 1.1), (2.0, -1.2, 0.9)))
        prof = self._bias(trials, "profile", "xi", self.design["xi"])
        mc = self._bias(trials, "mcmpl", "xi", self.design["xi"])
        return [Check("censored_share_near_target", abs(share - target) <= 0.05,
                      f"{share:.4f} ({events.size} units)"),
                Check("score_at_constrained_intercept~0", worst <= 1e-8, f"{worst:.2e}"),
                Check("|profile_xi_bias|>|mcmpl_xi_bias|", abs(prof) > abs(mc),
                      f"{prof:+.4f} vs {mc:+.4f}")]

    def _check_ar1(self, trials):
        k0 = trials[0][0]
        worst = 0.0
        for k, s, t in trials:
            if k != k0 or t.estimates["profile"] is None:
                continue
            rho_ls = _within_lstsq_rho(self._dataset(k, s))
            worst = max(worst, abs(t.estimates["profile"]["rho"][0] - rho_ls))
        prof = self._bias(trials, "profile", "rho", self.design["rho"])
        mc = self._bias(trials, "mcmpl", "rho", self.design["rho"])
        return [Check("profile_rho==within_lstsq", worst <= 1e-9, f"{worst:.2e}"),
                Check("|mcmpl_rho_bias|<|profile_rho_bias|", abs(mc) < abs(prof),
                      f"{mc:+.4f} vs {prof:+.4f}")]


def _logit_bank_z(data, bank_seed: int) -> float:
    """Bank mean of the squared score at the profile MLE against the logit
    MCAR closed form sum_t (1 - zeta) pi (1 - pi), in Monte Carlo SEs."""
    model = binary.BinaryMissingModel(link="logit", mechanism="mcar")
    kept, _ = core.drop_noninformative(model, data)
    fit = core.fit(model, kept, "profile")
    psi, lam = fit.psi_hat, fit.lambda_hat
    replicates = STUDIES["study-mcar"][0]["replicates"]
    bank = model.build_replicates(psi, lam, kept, core.substream(bank_seed, 0), replicates)
    values = model.replicate_expectation(bank, psi, lam, kept)
    x = kept.covariates[:, :, 0]
    gamma = _logistic_slope(x[kept.unit_mask], kept.indicators[kept.unit_mask])
    pi = expit(lam[:, None] + psi[0] * x)
    zeta = expit(gamma * x)
    closed = np.where(kept.unit_mask, (1.0 - zeta) * pi * (1.0 - pi), 0.0).sum(axis=1)
    var = (bank.scores_at_mle ** 2).var(axis=0, ddof=1)
    return float((values.sum() - closed.sum()) / math.sqrt(var.sum() / replicates))


def _logistic_slope(x, m, iters=50) -> float:
    """No-intercept logistic regression of m on x by Newton's method."""
    g = 0.0
    for _ in range(iters):
        p = expit(g * x)
        step = np.sum(x * (m - p)) / np.sum(x * x * p * (1.0 - p))
        g += step
        if abs(step) < 1e-12:
            break
    return g


def _weibull_score_residual(data, psi) -> float:
    """Largest |intercept score| at the constrained intercept, in numpy."""
    model = weibull.WeibullSurvivalModel()
    kept, _ = core.drop_noninformative(model, data)
    psi = np.asarray(psi, dtype=float)
    lam = model.constrained_nuisance(psi, kept)
    xi, beta = psi[0], psi[1:]
    mask = kept.unit_mask
    logy = np.log(np.where(mask, kept.responses, 1.0))
    power = np.where(mask, np.exp(xi * (logy - lam[:, None] - kept.covariates @ beta)), 0.0)
    events = np.where(mask, kept.indicators, 0.0).sum(axis=1)
    score = xi * (power.sum(axis=1) - events)
    return float(np.max(np.abs(score) / (1.0 + events)))


def _within_lstsq_rho(data) -> float:
    """Within-cluster least squares of y_t on y_{t-1} on demeaned data."""
    y = data.responses
    lag = np.concatenate([data.initial_conditions[:, None], y[:, :-1]], axis=1)
    yd = (y - y.mean(axis=1, keepdims=True)).ravel()
    ld = (lag - lag.mean(axis=1, keepdims=True)).reshape(-1, 1)
    return float(np.linalg.lstsq(ld, yd, rcond=None)[0][0])


# ---------------------------------------------------------------------------
# the CLI workload
# ---------------------------------------------------------------------------

class CliFit:
    name = "fit-mnar-cli"
    #: rounds of one traced pass: fixed, so that traced counts repeat exactly
    trace_rounds = tuple(range(CLI_FIXED_FITS))

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.truth = {"beta1": CLI_DESIGN["beta"][0], "gamma1_1": CLI_DESIGN["gamma1"][0],
                      "gamma2": CLI_DESIGN["gamma2"]}

    def setup(self):
        spec = harness.ExperimentSpec(**CLI_DESIGN, seed=self.seed)
        for k in range(CLI_POOL):
            rng = np.random.default_rng((self.seed, k))
            data, _ = harness.generate_binary_dataset(spec, rng)
            io.write_dataset(data, "binary", self._csv(k))

    def _csv(self, k):
        return os.path.join(self.workdir, f"data{k % CLI_POOL}.csv")

    def run_round(self, k: int) -> Round:
        out = os.path.join(self.workdir, "fit.csv")
        argv = ["fit", "--model", "binary", "--mechanism", "mnar", "--method", "mcmpl",
                "--data", self._csv(k), "--out", out,
                "--seed", str(derived_seed(self.seed, k % CLI_POOL))]
        start = time.perf_counter()
        code = cli.main(argv)
        wall = time.perf_counter() - start
        rows = _read_fit_rows(out) if code == 0 else None
        return Round(wall=wall, trials=1, attempted=1, failed=int(code != 0), outcome=rows)

    def checks(self, rounds) -> list[Check]:
        fitted = [r.outcome for r in rounds if r.outcome is not None]
        bad_se = [row["parameter"] for rows in fitted for row in rows
                  if not (math.isfinite(row["std_error"]) and row["std_error"] > 0)]
        worst = max((abs(row["estimate"] - self.truth[row["parameter"]]) / row["std_error"]
                     for rows in fitted[:CLI_FIXED_FITS] for row in rows), default=math.inf)
        names = sorted({row["parameter"] for rows in fitted for row in rows})
        # a non-zero exit code is counted in ``failed``; the checks speak of
        # the fits that exited 0
        return [Check("output_parses", bool(fitted) and names == sorted(self.truth),
                      ",".join(names)),
                Check("se_finite_positive", not bad_se, ",".join(bad_se) or "all"),
                Check("truth_within_4se", worst <= 4.0, f"max {worst:.2f}se")]


def _read_fit_rows(path):
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    rows = list(csv.DictReader(lines))
    for row in rows:
        for key in ("estimate", "std_error"):
            row[key] = float(row[key]) if row[key] else math.nan
    return rows
