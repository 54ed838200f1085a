"""The four benchmark workloads: CLI argv drawn from a seed, output checks
with the acceptance-criteria tolerances, and the accuracy figure ``err``.

Seed 0 gives the default argv. Any other seed draws the physical
parameters from narrow ranges around the defaults; grid sizes, step counts
and spans stay fixed, so the cost of a run does not depend on the seed.
The ranges are narrow because ``err`` moves with the parameters (the
``cone_defect`` by about 4% per 0.01 in ``a``) and its seed-to-seed spread
must stay well inside its regression bound. Every check passes with margin
across the ranges.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    argv0: tuple          # argv at seed 0
    draws: tuple          # (flag, low, high) for seeds other than 0
    check: object         # run.json dict -> (err, [failure messages])

    def argv(self, seed):
        if seed == 0:
            return list(self.argv0)
        rng = random.Random(seed)
        drawn = {flag: round(rng.uniform(lo, hi), 4) for flag, lo, hi in self.draws}
        out = list(self.argv0)
        for flag, value in drawn.items():
            if flag in out:
                out[out.index(flag) + 1] = repr(value)
            else:
                out += [flag, repr(value)]
        return out


def _failures(*conditions):
    """Messages of the conditions that do not hold; a nan never holds."""
    return [msg for ok, msg in conditions if not ok]


# run.json writes non-finite floats as the strings "nan", "inf", "-inf",
# which float() reads back; a missing key raises KeyError for the caller.

def _check_stability(run):
    a, const, cone = (float(run[k]) for k in ("a", "trace_constant", "cone_defect"))
    dgamma = abs(float(run["gamma_measured"]) - float(run["gamma_closed_form"]))
    return cone, _failures(
        (const <= 3 * a, f"trace_constant {const} > 3a"),
        (cone <= 0.05, f"cone_defect {cone} > 0.05"),
        (dgamma <= 0.05, f"|gamma_measured - gamma_closed_form| {dgamma} > 0.05"),
    )


def _check_nls(run):
    with_p, without_p, drift, ratio = (float(run[k]) for k in (
        "defect_with_phase", "defect_without_phase", "mass_drift", "ratio"))
    return ratio, _failures(
        (with_p <= 0.5 * without_p, f"defect_with_phase {with_p} > 0.5 x {without_p}"),
        (drift <= 1e-10, f"mass_drift {drift} > 1e-10"),
    )


def _check_profile(run):
    a = float(run["a"])
    err = abs(float(run["a1_estimate"]) - math.exp(-math.pi * a * a / 2))
    return err, _failures((err <= 1e-3, f"|a1 - closed form| {err} > 1e-3"))


def _check_spiral(run):
    err = float(run["rotation_invariant_defect"])
    return err, _failures((err <= 1e-8, f"rotation_invariant_defect {err} > 1e-8"))


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "stability",
            ("stability", "--a", "0.5", "--uplus-norm", "1e-2"),
            (("--a", 0.498, 0.502), ("--width", 1.98, 2.02)),
            _check_stability,
        ),
        Workload(
            "nls",
            ("nls", "--a", "0.5", "--uplus-norm", "1e-2"),
            (("--a", 0.495, 0.505), ("--width", 1.95, 2.05)),
            _check_nls,
        ),
        Workload(
            "profile",
            ("profile", "--a", "0.5", "--smax", "400"),
            (("--a", 0.497, 0.503),),
            _check_profile,
        ),
        Workload(
            "spiral",
            ("spiral", "--mu", "0.4", "--a", "0.5", "--smax", "100"),
            (("--mu", 0.397, 0.403), ("--a", 0.497, 0.503)),
            _check_spiral,
        ),
    )
}
