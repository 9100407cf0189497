"""One set-up sample, in a fresh interpreter: import the package (and the
CLI for advisor_cli), then make one tiny warm-up call on each solver route
the workload uses.  Building the tiny inputs is not timed.

Import time follows the speed of a shared machine as op times do (it swung
by 25% between groups of probes, by 7% once scaled), so the sample is
scaled like them, by the reference kernel timed right after it.  Prints
``{"setup_s": <scaled>, "raw_setup_s": ..., ...}``.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

KERNEL_SAMPLES = 7


def main(workload):
    start = time.perf_counter()
    import roboalloc
    if workload == "advisor_cli":
        import roboalloc.cli  # noqa: F401
    imported = time.perf_counter() - start

    import numpy as np
    n = 4
    sigma = np.diag([0.04, 0.05, 0.06, 0.07]) + 0.01
    mu = np.array([0.05, 0.06, 0.07, 0.08])
    strategic = np.full(n, 0.25)
    current = np.array([0.4, 0.3, 0.2, 0.1])
    box = roboalloc.ConstraintSet(budget=1.0, lower=np.zeros(n), upper=np.full(n, 0.6))
    inputs = roboalloc.MvoInputs(mu=mu, sigma=sigma)
    admm = roboalloc.RoboConfig(strategic=strategic, current=current, gamma=0.5,
                                rho1_strategic=5e-4, rho1_turnover=2e-4,
                                rho2_strategic=0.02, constraints=box)
    te = roboalloc.RoboConfig(strategic=strategic, current=current, te_target=0.02,
                              rho2_strategic=0.02, rho2_turnover=0.01, constraints=box)
    routes = {
        "nightly_rebalance": [lambda: roboalloc.rebalance(admm, mu, sigma)],
        "target_calibration": [lambda: roboalloc.calibrate_gamma(inputs, box, target_vol=0.2),
                               lambda: roboalloc.rebalance(te, mu, sigma)],
        "advisor_cli": [lambda: roboalloc.rebalance(admm, mu, sigma),
                        lambda: roboalloc.calibrate_gamma(inputs, box, target_vol=0.2)],
    }[workload]

    start = time.perf_counter()
    for call in routes:
        call()
    warm = time.perf_counter() - start

    import reference
    kernel = statistics.median(reference.time_kernel() for _ in range(KERNEL_SAMPLES))
    raw = imported + warm
    print(json.dumps({"setup_s": raw * reference.NOMINAL_S / kernel, "raw_setup_s": raw,
                      "import_s": imported, "warmup_s": warm, "kernel_s": kernel}))

if __name__ == "__main__":
    main(sys.argv[1])
