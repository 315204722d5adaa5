"""How fast one CPU runs a fixed piece of Python, sampled while the
benchmark runs.

Usage: python3 perfbench/speed_probe.py CPU OUT

Pinned to CPU, every 20 ms the probe times a fixed loop (about 0.15 ms on
an unloaded CPU, so it takes about 1% of that CPU) in thread CPU time,
which excludes time the probe waits while the program runs. On SIGTERM it
writes one ``start cpu_seconds`` line per sample to OUT, ``start`` being
``time.perf_counter()`` (the clock is system-wide), and exits.
"""

import os
import signal
import sys
import time

LOOP = 2000
PERIOD_S = 0.02
# Loop cost taken as full speed: about the fastest cost seen on an
# unloaded 2-core Intel Xeon VM with CPython 3.11. It only fixes the scale
# of speed-adjusted times; comparisons on one host do not depend on it.
REFERENCE_S = 150e-6


def main() -> int:
    cpu, out = int(sys.argv[1]), sys.argv[2]
    os.sched_setaffinity(0, {cpu})
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    samples = []
    while not stop:
        start, cpu_t0 = time.perf_counter(), time.thread_time()
        acc = 0
        for i in range(LOOP):
            acc += i * i
        samples.append((start, time.thread_time() - cpu_t0))
        time.sleep(PERIOD_S)
    with open(out, "w", encoding="utf-8") as fh:
        fh.writelines(f"{t!r} {d!r}\n" for t, d in samples)
    return 0


if __name__ == "__main__":
    sys.exit(main())
