"""Self-test of the benchmark harness: runs that must fail are counted as
failed, and the harness itself keeps going.

    python3 bench/selftest.py      # from the repository root; exits 0 on success

It feeds the harness a CLI run that exits non-zero, a run whose output
check fails and a run whose artifacts differ from the reference digests,
and checks the accounting of each. It also checks that seeds draw
reproducible argv and that an empty trace reports zeros, not errors.
"""

from __future__ import annotations

import shutil
import sys
import time
from pathlib import Path

import run
from workloads import WORKLOADS, Workload


def _expect(cond, what):
    print(f"{'ok  ' if cond else 'FAIL'} {what}")
    return bool(cond)


def main():
    root = Path.cwd()
    if not (root / "src" / "filamentlab" / "cli.py").is_file():
        print("error: run from the repository root", file=sys.stderr)
        return 2
    profile = WORKLOADS["profile"]
    ok = []

    bad_exit = Workload("bad-exit", ("profile", "--a", "-1"), (), profile.check)
    res = run.run_workload(root, bad_exit, bad_exit.argv(0), 0, False)
    ok.append(_expect(res["attempted"] == 1 and res["failed"] == 1 and not res["correct"],
                      f"non-zero exit counts as failed: {res['attempted']}/{res['failed']}"))

    # a 5-unit span leaves the a1 estimate ~2e-2 from the closed form
    bad_check = Workload("bad-check", ("profile", "--a", "0.5", "--smax", "5"), (),
                         profile.check)
    res = run.run_workload(root, bad_check, bad_check.argv(0), 0, False)
    ok.append(_expect(res["failed"] == 1 and res["metrics"]["err"]["value"] > 1e-3,
                      f"failed output check counts as failed: err "
                      f"{res['metrics']['err']['value']:.2e}"))

    scratch = root / ".bench_tmp" / "selftest"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        argv = ["profile", "--a", "0.5", "--smax", "20"]
        runner = run.Runner(root, scratch, profile, argv,
                            time.monotonic() + run.TIME_LIMIT)
        first, second = runner.repetition("run"), runner.repetition("trace")
        ok.append(_expect(not first["failures"] and not second["failures"],
                          "traced and untraced artifacts agree"))
        runner.reference = {**runner.reference, "profile.csv": "0" * 64}
        third = runner.repetition("run")
        ok.append(_expect(any("differ" in f for f in third["failures"]),
                          f"changed artifact counts as failed: {third['failures']}"))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if not any(scratch.parent.iterdir()):
            scratch.parent.rmdir()

    ok.append(_expect(WORKLOADS["stability"].argv(0)
                      == ["stability", "--a", "0.5", "--uplus-norm", "1e-2"],
                      "seed 0 gives the default argv"))
    ok.append(_expect(all(w.argv(7) == w.argv(7) != w.argv(0) for w in WORKLOADS.values()),
                      "other seeds draw reproducible argv"))
    zeros = run.layer_metrics([{}], 0, 0, {})
    ok.append(_expect(zeros["integrators.propagate_frame.calls"] == 0
                      and zeros["integrators.propagate_frame.ns_per_step"] == 0.0,
                      "a layer that never ran reports zeros"))
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
