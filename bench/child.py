"""One benchmark repetition in a fresh process.

    python3 bench/child.py RESULT_PATH MODE [CLI ARGS...]

MODE is ``setup`` (import ``filamentlab.cli`` and stop), ``run`` (time one
``cli.main`` call) or ``trace`` (the same, with the layer wrappers of
``tracer.py`` installed). The result is written as JSON to RESULT_PATH:
the monotonic clock reading once the CLI is imported, and for a run its
exit code, wall and CPU time of the call, peak RSS and the layer report.
"""

import json
import os
import resource
import sys
import time


def main(result_path, mode, argv):
    from filamentlab import cli
    out = {"ready": time.monotonic(), "module": cli.__file__,
           "versions": {m: getattr(sys.modules.get(m), "__version__", None)
                        for m in ("numpy", "scipy")}}
    if mode != "setup":
        tracer = None
        if mode == "trace":
            import tracer as tracer_mod
            tracer = tracer_mod.install()
        cpu0 = os.times()
        t0 = time.perf_counter()
        rc = cli.main(argv)
        wall = time.perf_counter() - t0
        cpu1 = os.times()
        out.update(
            rc=rc,
            wall_s=wall,
            cpu_s=(cpu1.user - cpu0.user) + (cpu1.system - cpu0.system),
            maxrss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        if tracer is not None:
            out["layers"] = tracer.report()
    with open(result_path, "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], sys.argv[3:])
