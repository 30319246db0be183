"""Times that do not depend on how fast the host happens to run.

The machines this benchmark runs on are shared: the same op takes up to 1.7
times longer from one second to the next, and a 20-second run's mean moves
by 10-25% from run to run.  A fixed reference kernel, timed right after
every op, sees the same slowdowns.  Each op's wall time is scaled by
``REF_SECONDS / (the kernel's time around that op)``, which reports it in
milliseconds of a host on which the kernel takes ``REF_SECONDS``.  On the
host the baseline was measured on, that is about the host's own slower
state.  The raw wall times are reported alongside.
"""

import statistics
import time
from fractions import Fraction
from typing import List, Sequence

REF_SECONDS = 2.5e-4


def reference_kernel() -> int:
    """Fixed pure-Python work shaped like the program's own: Fraction sums,
    tuple keys and dict stores."""
    acc = Fraction(0)
    table = {}
    for k in range(1, 60):
        acc += Fraction(k % 7 - 3, k)
        table[(k, k % 5)] = acc.numerator % 97
    return len(table)


def time_reference() -> float:
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


NEIGHBOURS = 10


def scaled(latencies: Sequence[float], refs: Sequence[float]) -> List[float]:
    """Each latency scaled by REF_SECONDS over the kernel's time around it.

    refs[0] is timed before the first op and refs[i + 1] after op i.  An op
    is scaled by the median of the kernel samples of the NEIGHBOURS ops on
    either side: it follows the host's changes of pace, which last about a
    second, while a single interrupted kernel cannot skew it.
    """
    out = []
    for i, t in enumerate(latencies):
        local = statistics.median(refs[max(i - NEIGHBOURS, 0):i + NEIGHBOURS + 2])
        out.append(t * REF_SECONDS / local)
    return out


class Stopwatch:
    """Times a sequence of steps, timing the reference kernel between them
    without counting it."""

    def __init__(self, start: float):
        self.total = 0.0
        self.refs: List[float] = []
        self._mark = start

    def lap(self) -> None:
        self.total += time.perf_counter() - self._mark
        self.refs.append(time_reference())
        self._mark = time.perf_counter()

    def scaled_total(self) -> float:
        return self.total * REF_SECONDS / statistics.median(self.refs)
