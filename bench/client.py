"""The workload process: one closed-loop client of ``factorial2k.cli.main``.

Started by ``run.py`` in a fresh interpreter.  It times ``import
factorial2k.cli`` before anything else is imported (no numpy or scipy, and no
standard-library module the package would otherwise pay for), then hands over
to ``session.py``, which issues the plan's requests in-process.

The CPU this runs on may be shared: its speed can drift by up to 2x over
tens of seconds.  So around the import, and next to every unit of requests,
the process times a fixed pure-Python loop.  End-to-end times are reported in
reference seconds: wall time x ``CALIBRATION_REF_S`` / loop time, the time
the work would take on a CPU that runs the loop in ``CALIBRATION_REF_S``.
The raw wall times are reported as well.

Usage: ``client.py --probe`` (time the import only), or
``client.py PLAN SECONDS TRACE RESULT [SPANS]``.
"""

import sys
import time

CALIBRATION_LOOP = 50_000
CALIBRATION_REF_S = 0.002


def loop_time():
    """Best of three timings of a fixed pure-Python loop: the CPU's speed now."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for j in range(CALIBRATION_LOOP):
            total += j
        best = min(best, time.perf_counter() - start)
    return best


def timed_import():
    """Import time of ``factorial2k.cli``, in wall and reference seconds."""
    if "numpy" in sys.modules or "scipy" in sys.modules:
        raise RuntimeError("numpy was imported before the timed import")
    before = loop_time()
    start = time.perf_counter()
    import factorial2k.cli  # noqa: F401
    elapsed = time.perf_counter() - start
    loop = (before + loop_time()) / 2
    return {"setup_s": elapsed * CALIBRATION_REF_S / loop, "wall.setup_s": elapsed}


def main(argv):
    setup = timed_import()
    import session

    return session.main(argv, setup)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
