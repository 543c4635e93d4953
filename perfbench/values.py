"""The values each workload builds at set-up, and the probe that times it.

`python3 perfbench/values.py <workload>` imports gkbench, builds the
workload's PrimeBasis, CycField and QAlgebra values and prints the seconds
that took.  The benchmark runs it in fresh interpreters so that every sample
pays the import.  This module imports nothing from gkbench at module level.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

TWISTED_BASES = (4, 5, 6)
# (p, t) levels of the quantum workload: field degrees 2, 8, 32, 6, 54, 20.
QUANTUM_FIELDS = ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1))
QUANTUM_GENERATORS = (2, 3, 4)


def build_twisted(gk):
    return {n: gk.PrimeBasis.first(n) for n in TWISTED_BASES}


def build_quantum(gk):
    """Fields keyed by (p, t), algebras keyed by (p, t, n)."""
    fields = {}
    for p, t in QUANTUM_FIELDS:
        fields[p, t] = gk.CycField(p, t)
        fields[p, t - 1] = gk.CycField(p, t - 1)
    algebras = {
        (p, t, n): gk.QAlgebra(n, fields[p, t])
        for p, t in QUANTUM_FIELDS
        for n in QUANTUM_GENERATORS
    }
    return fields, algebras


BUILDERS = {"twisted": build_twisted, "quantum": build_quantum}


def main(workload: str) -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    t0 = time.perf_counter()
    import gkbench

    BUILDERS[workload](gkbench)
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main(sys.argv[1])
