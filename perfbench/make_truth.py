"""Regenerate ``truth.json``: the stored labels and orbit averages.

Labels follow the acceptance-criterion-3 rule: the weighted-average
doubling residual of a 100k-sample orbit (embedding observable) below
1e-11 is integrable, above 1e-5 is chaotic, and anything between is
excluded from scoring.  Orbit averages are the package's own weighted
Birkhoff averages, the reference the ``orbits`` gate compares against.

Run from the repository root (about 2 minutes with two processes):

    PYTHONPATH=src python3 perfbench/make_truth.py
"""

import json
import multiprocessing
import os

from birkhoff_rre.birkhoff import bump_weights, wba_doubling_residual_at, weighted_average
from birkhoff_rre.maps import EmbeddingObservable, StandardMap, sample_trajectory

from workloads import LINES, WORKLOADS, line_point

TRUTH_SAMPLES = 100_000
INTEGRABLE_BELOW = 1e-11
CHAOTIC_ABOVE = 1e-5


def ground_label(job):
    k, point = job
    samples = sample_trajectory(StandardMap(k), EmbeddingObservable(), point,
                                TRUTH_SAMPLES).samples
    ground = wba_doubling_residual_at(samples, TRUTH_SAMPLES // 2)
    if ground < INTEGRABLE_BELOW:
        label = "integrable"
    elif ground > CHAOTIC_ABOVE:
        label = "chaotic"
    else:
        label = "excluded"
    return label, ground


def orbit_average(job):
    k, point, n = job
    traj = sample_trajectory(StandardMap(k), EmbeddingObservable(), point, n)
    return [float(v) for v in weighted_average(traj, bump_weights(n))]


def main():
    truth = {
        "rule": {"samples": TRUTH_SAMPLES, "integrable_below": INTEGRABLE_BELOW,
                 "chaotic_above": CHAOTIC_ABOVE},
        "lines": {},
        "averages": {},
    }
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(2) as pool:
        for name, spec in LINES.items():
            jobs = [(spec["k"], line_point(name, i)) for i in range(spec["count"])]
            results = pool.map(ground_label, jobs)
            truth["lines"][name] = {
                "labels": [label for label, _ in results],
                "ground": [ground for _, ground in results],
            }
        for name, spec in WORKLOADS.items():
            if spec["command"] != "average":
                continue
            k = LINES[spec["line"]]["k"]
            jobs = [(k, line_point(spec["line"], i), spec["n_samples"])
                    for i in spec["indices"]]
            truth["averages"][name] = {
                "n_samples": spec["n_samples"],
                "indices": list(spec["indices"]),
                "values": pool.map(orbit_average, jobs),
            }
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "truth.json")
    with open(path, "w") as handle:
        json.dump(truth, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
