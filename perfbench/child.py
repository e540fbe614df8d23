"""One workload invocation in a fresh interpreter.

    python3 perfbench/child.py ROOT RESULT_JSON MODE [--] ARGV...

MODE is ``run`` or ``trace:DIR`` (run with the span tracer, writing span
files under DIR).  The result file receives
the monotonic time at which setup ended, the wall time of ``main(argv)``,
its exit code, the peak RSS of this process and of its pool workers, and the
time of a fixed calibration kernel run just before and just after ``main``.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def calibrate() -> float:
    """Seconds for a fixed numpy kernel: the faster of two tries.

    The kernel mixes what purifylab's inner loops do - Philox stream
    construction, small Gaussian draws and batched small ``eigh`` - but uses
    numpy alone, so a change to purifylab cannot change it.  Its time tracks
    the speed the shared host gives this process right now.
    """
    import numpy as np

    rng = np.random.default_rng(1)
    a = rng.standard_normal((256, 8, 8)) + 1j * rng.standard_normal((256, 8, 8))
    herm = a @ a.conj().transpose(0, 2, 1)
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        for i in range(300):
            gen = np.random.Generator(np.random.Philox(key=np.array([i, 7], dtype=np.uint64)))
            z = gen.standard_normal((8, 2, 2))
            z[..., 0] + 1j * z[..., 1]
        for _ in range(4):
            np.linalg.eigh(herm)
        best = min(best, time.perf_counter() - start)
    return best


def main() -> int:
    root, result_path, mode, *argv = sys.argv[1:]
    if argv and argv[0] == "--":
        argv = argv[1:]
    sys.path.insert(0, os.path.join(root, "src"))

    import purifylab  # noqa: F401
    from purifylab import cli

    cli.build_parser().parse_args(argv)
    result = {"setup_end": time.monotonic(), "cal_before_s": calibrate()}
    installed = None
    if mode.startswith("trace:"):
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracer

        installed = tracer.install(os.path.basename(mode[6:]), mode[6:])
        originals = list(installed.replaced)
    start = time.perf_counter()
    result["code"] = cli.main(argv)
    result["wall_s"] = time.perf_counter() - start
    if installed is not None:
        tracer.LOG.flush()
        installed.restore()
        result["restored"] = all(getattr(o, n) is v for o, n, v in originals)
    result["cal_after_s"] = calibrate()
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    result["maxrss_kib"] = max(own.ru_maxrss, kids.ru_maxrss)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
