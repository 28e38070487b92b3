"""Set-up probe: a fresh interpreter imports qnabla and finishes one warm-up call.

Run as ``python3 bench/probe.py <workload> <checkout-root>``; prints the
seconds spent building the warm-up input, which the caller subtracts from
the wall time it measured around this process.  The warm-up calls are
fixed, small and seed-independent, so set-up time measures the library's
import and first-call cost rather than the schedule.
"""

from __future__ import annotations

import sys
import time


def warm_up(workload: str) -> float:
    """Run the workload's warm-up call; returns input-building seconds."""
    import numpy as np
    from qnabla import duals, fracdiff, matclass, qcore, spaces

    t0 = time.perf_counter()
    if workload == "stream":
        x = np.cos(np.arange(1024) * 0.1)
    elif workload == "classify":
        j, k = np.indices((64, 64))
        phi = np.where(k <= j, 0.5 ** np.abs(j - k) * np.cos(j + k), 0.0)
    else:
        a = 1.0 / (np.arange(24) + 1.0)
    gen = time.perf_counter() - t0

    if workload == "stream":
        fracdiff.apply_forward(fracdiff.SeqWindow(x), 0.5, qcore.QParam(0.9))
    elif workload == "classify":
        query = matclass.ClassQuery(
            source=matclass.Source.LP_DOMAIN, target=matclass.Target.C,
            p=spaces.PExponent(2.0), order=0.5, qp=qcore.QParam(0.7), window=64,
        )
        matclass.class_check(query, duals.MatrixWindow(phi, triangular=True))
    else:
        duals.alpha_dual_check(fracdiff.SeqWindow(a), 0.5, qcore.QParam(0.5), spaces.P_INF, (8, 12))
    return gen


CLI_WARM_UP = ["coeffs", "--gamma", "0.5", "--q", "0.5", "--k", "16"]


if __name__ == "__main__":
    sys.path.insert(0, sys.argv[2] + "/src")
    print(warm_up(sys.argv[1]))
