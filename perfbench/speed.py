"""Machine-speed probe: rescales measured wall times to a reference speed.

The hosts this benchmark runs on share their cores with other tenants,
and the effective speed of a core drifts by a third within seconds and
by half within minutes (a fixed loop's time, sampled back to back for a
minute, spreads by 0.28 of its median between quartiles even over 2 s
windows).  Raw wall times from runs minutes apart are then not
comparable.  So every time the benchmark reports is a measured wall time
rescaled by the speed the machine showed while it was measured:

    reported = measured * REFERENCE_PROBE_S / (probe time around it)

A :class:`SpeedSampler` is a separate low-duty process (one ~0.3 ms probe
every ``INTERVAL_S``, about 0.5% of one core) timing :func:`probe`, a fixed
loop of dict, tuple and string work that uses nothing from the program
under test — so a change to the program never moves the probe, and a
faster program reports proportionally less time.

    python3 perfbench/speed.py   # the sampler process itself
"""

from __future__ import annotations

import bisect
import os
import statistics
import subprocess
import sys
import time

from common import ROOT, TMP

#: Probe time on an idle core of the reference host; reported times are
#: "seconds at the speed at which one probe takes this long".
REFERENCE_PROBE_S = 0.00025
INTERVAL_S = 0.05
#: An interval shorter than twice this is rated by the probes this far
#: either side of it, so an operation shorter than the probe interval
#: still gets a speed.
WINDOW_S = 3.0


def probe() -> int:
    table: dict = {}
    total = 0
    for i in range(400):
        key = (i, i & 7, str(i & 15))
        table[key] = table.get(key[1:], 0) + 1
        total += len(table) if key in table else 0
    return total


def sample_forever() -> None:
    while True:
        start = time.perf_counter()
        mid = time.monotonic()
        probe()
        print(f"{mid:.6f} {time.perf_counter() - start:.9f}", flush=True)
        time.sleep(INTERVAL_S)


class SpeedSampler:
    """Runs the probe process for the life of a ``with`` block."""

    def __enter__(self) -> "SpeedSampler":
        # A file, not a pipe: a pipe nobody reads fills up in a long run
        # and would stall the sampler.
        TMP.mkdir(exist_ok=True)
        self._log_path = TMP / f"speed-{os.getpid()}.txt"
        self._log = open(self._log_path, "w")
        self._proc = subprocess.Popen([sys.executable, __file__], cwd=ROOT, stdout=self._log)
        self.times: list[float] = []
        self.probes: list[float] = []
        return self

    def __exit__(self, *exc_info) -> None:
        self._proc.terminate()
        self._proc.wait(timeout=30)
        self._log.close()
        for line in self._log_path.read_text().splitlines():
            fields = line.split()
            if len(fields) == 2:
                self.times.append(float(fields[0]))
                self.probes.append(float(fields[1]))
        self._log_path.unlink()

    def factor(self, start: float, end: float) -> float:
        """Reference speed over the speed seen in ``[start, end]`` (monotonic).

        Multiply a wall time measured in that interval by this factor.
        """
        if end - start >= 2 * WINDOW_S:
            # A long interval has its own probes: their mean weights every
            # slow and fast stretch by the time it lasted.
            lo = bisect.bisect_left(self.times, start)
            hi = bisect.bisect_right(self.times, end)
            average = statistics.mean
        else:
            # A short one borrows the probes around it; the median keeps a
            # probe the scheduler preempted (the sampler shares two cores
            # with the workload) from passing for a slow machine.
            lo = bisect.bisect_left(self.times, start - WINDOW_S)
            hi = bisect.bisect_right(self.times, end + WINDOW_S)
            average = statistics.median
        if lo == hi:
            raise RuntimeError("no speed probes around a measured interval")
        return REFERENCE_PROBE_S / average(self.probes[lo:hi])


if __name__ == "__main__":
    try:
        sample_forever()
    except (KeyboardInterrupt, BrokenPipeError):
        pass
