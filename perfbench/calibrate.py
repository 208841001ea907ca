"""Fixed reference work that measures how fast the machine is right now.

    python3 perfbench/calibrate.py PYTHON_ROUNDS SCAN_ROUNDS PRIME THREADS

`run.py` runs this next to every timed item and scales the item's time by
the square root of the ratio of this script's reference wall time to its
wall time then.  It
never imports cgobstruct, so a change to the program cannot move it; what
it tracks is the host's speed, which on a shared host drifts by a third
within minutes, and not evenly: interpreter-bound and memory-bound code
slow down at different moments.  So each workload calibrates with its own
mix, an interpreter start with the numpy import, then PYTHON_ROUNDS of
Fraction and dict arithmetic and SCAN_ROUNDS of int64 gathers and
reductions shaped like one scan chunk at PRIME, done by each of THREADS
threads of one process, so that a --threads 2 pass is matched by work
that contends for the interpreter lock and both cores as the pass does.
"""

import sys
import threading
from fractions import Fraction

import numpy as np

python_rounds, scan_rounds, p, threads = map(int, sys.argv[1:5])
results = []


def work():
    total = Fraction(0)
    counts: dict[int, int] = {}
    for _ in range(python_rounds):
        for i in range(1, 2000):
            total += Fraction(i % 97, 89)
        for i in range(20000):
            counts[i % 1000] = counts.get(i % 1000, 0) + i
    r = 4
    rng = np.random.default_rng(0)
    xs = rng.integers(0, p, size=(1024, r))
    S = rng.integers(-1000, 1000, size=(r, p))
    ks = np.arange(1, p)
    best = np.zeros(1024, dtype=np.int64)
    for _ in range(scan_rounds):
        idx = (ks[None, :, None] * xs[:, None, :]) % p
        sig = S[np.arange(r), idx].sum(axis=2)
        best = (np.abs(sig) - (idx != 0).sum(axis=2)).max(axis=1)
    results.append((total.numerator % 1000, sum(counts.values()) % 1000, int(best.sum()) % 1000))


pool = [threading.Thread(target=work) for _ in range(threads)]
for t in pool:
    t.start()
for t in pool:
    t.join()
print(results)
