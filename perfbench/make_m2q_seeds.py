"""Regenerate ``m2q_seeds.json``: the κ^{2,1} output size of the first
``kappa-pq`` sample on ``builtin:m2q`` for each CLI seed in a range.

The ``exchange-m2q`` workload draws its CLI seeds from this table, only
those whose output size lies in a stated band, because the cost of one
κ^{2,1} sample follows its output size and that size is heavy-tailed
(from under 1 k to over 100 k coefficients).  Samples that take longer
than the cap are recorded with ``out_coeffs: null``.  Rows of seeds
outside the range are kept.

Run from the repository root:
    python3 perfbench/make_m2q_seeds.py [first_seed] [end_seed]
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, HERE)

from loopstable.algebras import BUILTIN_ALGEBRAS  # noqa: E402
from loopstable.funalg import function_algebra  # noqa: E402
from loopstable.simplicial import cube  # noqa: E402
from loopstable.tensorj import kappa, sample_j_elements  # noqa: E402

from spans import deep_coeffs  # noqa: E402

CAP_SECONDS = 6


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout()


def main() -> None:
    first = int(sys.argv[1]) if len(sys.argv) > 1 else 0
    end = int(sys.argv[2]) if len(sys.argv) > 2 else 600
    A = BUILTIN_ALGEBRAS["m2q"]()
    C = function_algebra(A, cube(1), 0)
    k21 = kappa(2, 1, A)
    rows = []
    signal.signal(signal.SIGALRM, _alarm)
    for seed in range(first, end):
        (x,) = sample_j_elements(C, 2, 1, seed=seed)
        t0 = time.process_time()
        try:
            signal.alarm(CAP_SECONDS)
            try:
                out = deep_coeffs(k21(x))
            finally:
                signal.alarm(0)
        except _Timeout:
            out = None
        rows.append({"cli_seed": seed, "in_coeffs": deep_coeffs(x),
                     "out_coeffs": out})
        print(seed, rows[-1]["in_coeffs"], out,
              round(time.process_time() - t0, 2), file=sys.stderr, flush=True)
    path = os.path.join(HERE, "m2q_seeds.json")
    if os.path.exists(path):  # keep the rows of seeds outside the range
        with open(path, encoding="utf-8") as fh:
            old = [r for r in json.load(fh)["seeds"]
                   if not first <= r["cli_seed"] < end]
        rows = sorted(old + rows, key=lambda r: r["cli_seed"])
    header = json.dumps({"check": "kappa-pq", "algebra": "builtin:m2q",
                         "samples": 1, "cap_seconds": CAP_SECONDS})
    with open(path, "w", encoding="utf-8") as fh:  # one row per line
        fh.write(header[:-1] + ', "seeds": [\n')
        fh.write(",\n".join(json.dumps(r) for r in rows))
        fh.write("\n]}\n")


if __name__ == "__main__":
    main()
