"""filamentlab benchmark: CLI workloads timed end to end, one fresh process
per repetition, plus a traced run that times each layer.

    python3 bench/run.py --workload stability --seed 0 --seconds 24 --trace 0
    python3 bench/run.py --workload all --seconds 24     # every workload

Run it from the repository root: it runs the checkout's ``src`` tree. It is
a closed loop with one client: a user starts an experiment and waits for
it, then starts the next. Each repetition's artifacts are checked against
the acceptance tolerances (see ``workloads.py``) and their digests, with
the ``timestamp`` masked, must match across repetitions and between traced
and untraced runs. A repetition that exits non-zero, fails a check or
differs counts in ``failed``.

The host is shared and its speed drifts by tens of percent over seconds
to minutes, so between repetitions the harness times a fixed reference
computation, the probe (see ``probe``). ``wall_rel`` is the mean wall time
of a repetition over the mean time of the run's probes, which cancels most
of that drift; the raw wall and probe times are reported by the traced run.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced repetitions (see ``tracer.py``) and reports the
per-layer metrics. The last line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

CHILD = Path(__file__).resolve().parent / "child.py"
TIMESTAMP = re.compile(rb'"timestamp": "[^"]*"')
SETUP_SAMPLES = 5      # set-up timings per run, from repetitions and set-up-only children
TIME_LIMIT = 170.0     # seconds one workload may take, all children included

END_TO_END = {"wall_rel": "probe", "setup_s": "s", "peak_rss_mb": "MB", "err": "1"}
PER_LAYER = {
    "cli.main.self_s": "s",
    "flow.stability_experiment.self_s": "s",
    "flow.reconstruct_flow.calls": "count",
    "flow.reconstruct_flow.busy_s": "s",
    "flow.reconstruct_flow.self_s": "s",
    "integrators.propagate_frame.calls": "count",
    "integrators.propagate_frame.busy_s": "s",
    "integrators.propagate_frame.self_s": "s",
    "integrators.propagate_frame.fine_steps": "count",
    "integrators.propagate_frame.ns_per_step": "ns",
    "integrators.rodrigues_phi1.busy_s": "s",
    "integrators.rk4_solve.busy_s": "s",
    "selfsimilar.profile.calls": "count",
    "selfsimilar.profile.busy_s": "s",
    "selfsimilar.profile.self_s": "s",
    "nls.evolve.calls": "count",
    "nls.evolve.busy_s": "s",
    "nls.evolve.steps": "count",
    "nls.long_range_comparison.self_s": "s",
    "nls.long_range_ansatz.calls": "count",
    "fft.calls": "count",
    "fft.points": "count",
    "fft.busy_s": "s",
    "spiral.spiral_profile.calls": "count",
    "spiral.spiral_profile.busy_s": "s",
    "spiral.spiral_profile.rows": "count",
    "io.files": "count",
    "io.bytes": "B",
    "io.busy_s": "s",
    "io.mb_per_s": "MB/s",
    "process.wall_s": "s",
    "process.cpu_s": "s",
    "probe.wall_s": "s",
    "trace.overhead_s": "s",
}


def _read(path):
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def machine_facts(nproc, versions):
    model = re.search(r"^model name\s*:\s*(.+)$", _read("/proc/cpuinfo"), re.M)
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level").strip(), _read(index / "type").strip()
        if level in ("2", "3") and kind != "Instruction":
            caches[f"L{level}"] = _read(index / "size").strip()
    return {"nproc": nproc, "thread_cap": nproc,
            "cpu": model.group(1) if model else platform.processor(),
            **caches, "python": platform.python_version(), **versions}


def probe():
    """Wall time of a fixed reference computation in this process.

    It runs the three kinds of work the workloads spend their time in: an
    interpreter loop, complex FFTs and small-matrix numpy calls, for about
    0.1 s each. It uses nothing from the program under test.
    """
    import numpy as np
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(1_200_000):
        acc += i * 0.5
    x = np.ones(1 << 16, complex)
    for _ in range(25):
        x = np.fft.ifft(np.fft.fft(x))
    m, v = np.eye(3), np.ones(3)
    for _ in range(40_000):
        v = m @ v
    return time.perf_counter() - t0


class Runner:
    """Runs one workload's children inside a scratch directory of the checkout."""

    def __init__(self, root, scratch, workload, argv, deadline):
        self.root, self.scratch, self.workload = root, scratch, workload
        self.argv, self.deadline = argv, deadline
        self.nproc = len(os.sched_getaffinity(0))
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(self.nproc)
        self.setup_s = []
        self.reference = None    # masked digests of the first artifacts written

    def spawn(self, mode, argv=()):
        """Run one child; return (its result dict or None, last stderr line)."""
        result = self.scratch / "child.json"
        result.unlink(missing_ok=True)
        timeout = max(5.0, self.deadline - time.monotonic())
        launched = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), str(result), mode, *argv],
            cwd=self.root, env=self.env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True)
        try:
            _, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return None, f"killed after {timeout:.0f} s"
        lines = err.strip().splitlines()
        last = lines[-1] if lines else f"exit code {proc.returncode}"
        if not result.exists():
            return None, last
        data = json.loads(result.read_text())
        data["setup_s"] = data["ready"] - launched
        self.setup_s.append(data["setup_s"])
        return data, last

    def repetition(self, mode):
        """One CLI run in a fresh process, checked; returns a record dict."""
        out_dir = self.scratch / "out"
        shutil.rmtree(out_dir, ignore_errors=True)
        data, last = self.spawn(mode, [*self.argv, "--out-dir", str(out_dir)])
        rec = {"mode": mode, "data": data, "failures": []}
        try:
            if data is None:
                rec["failures"].append(f"child crashed: {last}")
            elif data["rc"] != 0:
                rec["failures"].append(f"exit code {data['rc']}: {last}")
            else:
                self._check_artifacts(out_dir, rec)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        return rec

    def _check_artifacts(self, out_dir, rec):
        run_dirs = [d for d in out_dir.iterdir() if d.is_dir()] if out_dir.is_dir() else []
        if len(run_dirs) != 1:
            rec["failures"].append(f"expected one run directory, found {len(run_dirs)}")
            return
        files = sorted(p for p in run_dirs[0].rglob("*") if p.is_file())
        digests = {}
        for p in files:
            digests[str(p.relative_to(run_dirs[0]))] = hashlib.sha256(
                TIMESTAMP.sub(b"T", p.read_bytes())).hexdigest()
        rec["files"], rec["bytes"] = len(files), sum(p.stat().st_size for p in files)
        try:
            run = json.loads((run_dirs[0] / "run.json").read_text())
            rec["err"], failures = self.workload.check(run)
            rec["failures"] += failures
        except (OSError, KeyError, TypeError, ValueError) as exc:
            rec["failures"].append(f"run.json unreadable or incomplete: {exc!r}")
        if self.reference is None:
            self.reference = digests
        elif digests != self.reference:
            changed = sorted(set(digests) ^ set(self.reference)
                             | {k for k in digests if digests[k] != self.reference.get(k)})
            rec["failures"].append(f"artifacts differ between repetitions: {changed[:5]}")


def _median(values):
    return statistics.median(values) if values else None


def run_workload(root, workload, argv, seconds, trace, seed=None):
    """Run ``argv`` repeatedly for ``seconds``; return the result object."""
    scratch = root / ".bench_tmp" / f"{workload.name}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(root, scratch, workload, argv, time.monotonic() + TIME_LIMIT)
        # warm-up: byte-compiles the package and fills the file cache, as a
        # user's installed copy would be; its set-up time is not kept
        warm, last = runner.spawn("setup")
        if warm is None:
            raise SystemExit(f"cannot import filamentlab from {root / 'src'}: {last}")
        if not Path(warm["module"]).resolve().is_relative_to((root / "src").resolve()):
            raise SystemExit(f"filamentlab imported from {warm['module']}, not {root / 'src'}")
        runner.setup_s.clear()
        print(json.dumps({"workload": workload.name, "seed": seed, "argv": argv,
                          "machine": machine_facts(runner.nproc, warm["versions"])}))

        # repetitions start until the measuring time is used up; each runs
        # to its end, so a slow workload still gets a whole last repetition.
        # A probe runs before the first and after every repetition.
        cycle = ("run", "trace") if trace else ("run",)
        probe()                                  # warm-up, not kept
        stop = time.monotonic() + seconds
        reps, probes = [], [probe()]
        while not reps or time.monotonic() < stop:
            for mode in cycle:
                reps.append(runner.repetition(mode))
                probes.append(probe())
        while not trace and len(runner.setup_s) < SETUP_SAMPLES:
            runner.spawn("setup")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if not any(scratch.parent.iterdir()):
            scratch.parent.rmdir()

    for i, rec in enumerate(reps):
        wall_i = (rec["data"] or {}).get("wall_s")
        print(f"# repetition {i} ({rec['mode']}): wall_s {wall_i}, then probe_s "
              f"{probes[i + 1]:.4f}", file=sys.stderr)
        for msg in rec["failures"]:
            print(f"# repetition {i} ({rec['mode']}) failed: {msg}", file=sys.stderr)
    failed = sum(1 for rec in reps if rec["failures"])
    done = [rec for rec in reps if rec["data"] is not None]
    plain = [rec["data"] for rec in done if rec["mode"] == "run"]
    traced = [rec["data"] for rec in done if rec["mode"] == "trace"]
    wall = _median([d["wall_s"] for d in plain])
    if trace:
        first = next((rec for rec in reps if "files" in rec), {})
        metrics = layer_metrics(
            [d["layers"] for d in traced], first.get("files", 0), first.get("bytes", 0), {
                "process.wall_s": wall,
                "process.cpu_s": _median([d["cpu_s"] for d in plain]),
                "probe.wall_s": _median(probes),
                "trace.overhead_s":
                    _median([d["wall_s"] for d in traced]) - wall if traced and plain else None,
            })
        units = PER_LAYER
    else:
        # a mean, not a median: a run holds 2 to 8 repetitions, and the
        # mean weighs every second measured, as the probes' mean does
        errs = [rec["err"] for rec in reps if "err" in rec]
        metrics = {"wall_rel": statistics.mean(d["wall_s"] for d in plain)
                               / statistics.mean(probes) if plain else None,
                   "setup_s": _median(runner.setup_s),
                   "peak_rss_mb": _median([d["maxrss_mb"] for d in plain]),
                   "err": errs[0] if errs else None}
        units = END_TO_END
    return {
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def layer_metrics(reports, files, nbytes, run_wide):
    """Per-layer metrics, each the median over the traced repetitions;
    ``run_wide`` holds the metrics measured once per run."""
    def one(report):
        def get(key, field):
            return report.get(key, {}).get(field, 0)
        fine = get("integrators.propagate_frame", "fine_steps")
        io_busy = get("io", "busy_s")
        derived = {
            "integrators.propagate_frame.ns_per_step":
                get("integrators.propagate_frame", "busy_s") / fine * 1e9 if fine else 0.0,
            "fft.points": sum(v.get("points", 0) for k, v in report.items()
                              if k.startswith("fft.")),
            "io.files": files,
            "io.bytes": nbytes,
            "io.mb_per_s": nbytes / 1e6 / io_busy if io_busy else 0.0,
            **run_wide,
        }
        return {name: derived[name] if name in derived else get(*name.rsplit(".", 1))
                for name in PER_LAYER}

    per_rep = [one(r) for r in reports]
    return {name: _median([m[name] for m in per_rep if m[name] is not None])
            for name in PER_LAYER}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "filamentlab" / "cli.py").is_file():
        print(f"error: no src/filamentlab/cli.py under {root}; run from the "
              "repository root", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        w = WORKLOADS[name]
        results[name] = run_workload(root, w, w.argv(args.seed), args.seconds,
                                     bool(args.trace), args.seed)
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    for name, r in results.items():
        rows = [*((k, m["value"], m["unit"]) for k, m in r["metrics"].items()),
                ("ops", r["attempted"], "count"), ("ops_failed", r["failed"], "count")]
        for metric, value, unit in rows:
            print(f"{name:10s} {metric:42s} {value!s:>24} {unit}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": m for name, r in results.items()
                    for metric, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
