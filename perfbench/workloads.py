"""Workload definitions and the inputs each one derives from a seed.

Every workload is a fixed subset of a canonical seed line of the standard
map.  The workload seed only permutes the order in which those points are
handed to the program; seed 0 keeps the canonical order.  The points
themselves never move: the adaptive filter length K of near-resonant
seeds changes under shifts as small as 0.3% of the line spacing, which
moves a 50-seed line between 5.5 s and 10 s, so a positional shift would
make the workload seed the dominant source of spread (see README.md).
"""

import random

Y_MIN, Y_MAX = 0.0, 0.6

# Canonical lines: the 100-seed ROADMAP headline line and the 30-seed
# chaos-heavy line.  ``truth.json`` holds one stored label per point.
LINES = {
    "line": {"k": 0.7, "x": 0.05, "count": 100},
    "chaos": {"k": 2.0, "x": 0.5, "count": 30},
}

WORKLOADS = {
    # every 5th point of the headline line: 20 seeds whose cost per seed
    # matches the full line's (one chaotic seed, one period-3 island chain
    # at K = 300, the rest circles at K = 50..100)
    "line": {"command": "classify", "line": "line", "indices": range(0, 100, 5)},
    # every 5th point of the chaos line: 4 chaotic seeds that each run the
    # full K = 50..600 ladder, and 2 period-2 island seeds
    "chaos": {"command": "classify", "line": "chaos", "indices": range(0, 30, 5)},
    # every 10th point of the headline line, plain weighted averages of
    # long orbits: map stepping with no linear algebra
    "orbits": {"command": "average", "line": "line", "indices": range(0, 100, 10),
               "n_samples": 30000},
}


def line_point(line, index):
    """Seed ``index`` of a canonical line, computed exactly as the
    package's ``[seeds] mode = line`` computes it."""
    spec = LINES[line]
    step = (Y_MAX - Y_MIN) / (spec["count"] - 1)
    return (spec["x"], Y_MIN + index * step)


def seed_order(workload, seed):
    """Line indices of ``workload`` in the order the seed selects."""
    indices = list(WORKLOADS[workload]["indices"])
    if seed != 0:
        random.Random(seed).shuffle(indices)
    return indices


def config_text(workload, indices):
    """INI run configuration for the given line indices.

    Only the map, the seeds and the worker count are set: every
    ``[algorithm]`` key keeps the package default, except ``n_samples`` for
    averages.  The worker points the table and circles of each unit at
    files of its own.
    """
    spec = WORKLOADS[workload]
    line = spec["line"]
    seeds = "; ".join(f"{x!r} {y!r}" for x, y in (line_point(line, i) for i in indices))
    lines = ["[map]", "name = standard-map", f"k = {LINES[line]['k']!r}"]
    if "n_samples" in spec:
        lines += ["[algorithm]", f"n_samples = {spec['n_samples']}"]
    lines += ["[seeds]", "mode = list", f"seeds = {seeds}", "[output]", "workers = 1"]
    return "\n".join(lines) + "\n"
