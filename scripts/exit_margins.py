"""Replay the K ladder without early exits and report the margins of rre.EXIT_SCHEDULE.

Run by hand from the repository root; the test suite replays only a few seeds:

    PYTHONPATH=src python3 scripts/exit_margins.py [--sets rows610,heldout400,drawn300]
        [--observables embedding,y] [--schedule 50:1.2e-3,100:1e-4,...] [--workers 2]

Every seed climbs the package's ladder (rre.adaptive_solve) with no exit:
K = k_init, k_init + delta_k, ..., k_max at the default [algorithm] until
R_G <= delta_adapt, so each history is the longest the ladder can run.  A
ladder with the schedule runs a prefix of it: the solve at K reads only the
orbit's first N + 1 samples, N map evaluations, as the history counts them.

For each pair (K_i, tau_i) of the schedule, over the rungs K_i <= K <
K_{i+1}, the report gives the largest R_G of a row that later converged
(the rows that read integrable or indeterminate), its margin tau_i / R_G,
and how many unconverged rows the schedule stops there.  A margin below 1
means the schedule would stop a converging row, and the run exits with
status 1.

The seed sets, each a list of (k, x, y):

- rows610: the 100-seed k = 0.7, x = 0.05 line and the 30-seed k = 2.0,
  x = 0.5 line (y in [0, 0.6], as ``[seeds] mode = line``), and the grid
  k in {0.3, 0.5, 0.7, 0.9716, 1.2, 2.0} x x in {0.05, 0.5} x
  y = i * (0.6 / 39), i = 0..39;
- heldout400: k in {0.4, 0.6, 0.8, 1.0, 1.5} x x in {0.25, 0.75} x
  y = (i + 0.5) * 0.6 / 39, i = 0..39;
- third300, fourth300 and drawn300: drawn with numpy generators of fixed
  seed (see ``drawn_set``).  The first two checked the graded schedule;
  drawn300 was drawn for the K = 50 bound before any replay of it was seen.
"""

import argparse
import concurrent.futures
import math
import sys

from birkhoff_rre import rre  # first: the package's thread policy applies before numpy loads
from birkhoff_rre.config import OBSERVABLES
from birkhoff_rre.errors import OrbitEscape
from birkhoff_rre.maps import StandardMap, TrajectorySource
from birkhoff_rre.spectral import ClassifyParams

import numpy as np


def line(k, x, count):
    step = 0.6 / (count - 1)
    return [(k, x, i * step) for i in range(count)]


def drawn_set(name):
    """Seeds drawn from a numpy generator of fixed seed, in the order drawn."""
    if name == "third300":
        rng = np.random.default_rng(2110)
        seeds = []
        for k in (0.45, 0.65, 0.85, 1.1, 1.7):
            x = rng.random(60)
            y = 0.6 * rng.random(60)
            seeds += [(k, float(a), float(b)) for a, b in zip(x, y)]
        return seeds
    generator_seed = {"fourth300": 2121, "drawn300": 2401}[name]
    rng = np.random.default_rng(generator_seed)
    k = rng.uniform(0.3, 2.0, 300)
    x = rng.random(300)
    y = 0.6 * rng.random(300)
    return [(float(a), float(b), float(c)) for a, b, c in zip(k, x, y)]


def seed_set(name):
    if name == "rows610":
        grid = [(k, x, i * (0.6 / 39)) for k in (0.3, 0.5, 0.7, 0.9716, 1.2, 2.0)
                for x in (0.05, 0.5) for i in range(40)]
        return line(0.7, 0.05, 100) + line(2.0, 0.5, 30) + grid
    if name == "heldout400":
        return [(k, x, (i + 0.5) * 0.6 / 39) for k in (0.4, 0.6, 0.8, 1.0, 1.5)
                for x in (0.25, 0.75) for i in range(40)]
    return drawn_set(name)


SETS = ("rows610", "heldout400", "third300", "fourth300", "drawn300")


def full_ladder(task):
    """(K, N map evaluations, R_G, rre.exit_pair) of every rung of the ladder with
    no exit, and the index of the rung ``schedule`` stops (None if none); None if
    the orbit escapes."""
    observable, (k, x, y), schedule = task
    params = ClassifyParams()
    source = TrajectorySource(StandardMap(k), OBSERVABLES[observable](), (x, y),
                              params.escape_bound)
    try:
        ladder = rre.adaptive_solve(source, params, schedule=())
    except OrbitEscape:
        return None
    history = [(k_rung, n, r_g, rre.exit_pair(k_rung, schedule))
               for k_rung, n, _, r_g in ladder.history]
    stop = next((i for i, (_, _, r_g, pair) in enumerate(history)
                 if pair is not None and r_g > pair[1]), None)
    return history, stop


def report(name, seeds, ladders, schedule):
    """Print one set's margins; returns the number of converging rows stopped."""
    delta = ClassifyParams().delta_adapt
    worst = dict.fromkeys(schedule, (0.0, None))
    stops = dict.fromkeys(schedule, 0)
    converged = unconverged = escaped = converged_stopped = 0
    evaluations = [0, 0]  # of unconverged rows: full ladder, and under the schedule
    for seed, ladder in zip(seeds, ladders):
        if ladder is None:
            escaped += 1
            continue
        history, stop = ladder
        if history[-1][2] <= delta:
            converged += 1
            converged_stopped += stop is not None
            for k, _, r_g, pair in history[:-1]:
                if pair is not None and r_g > worst[pair][0]:
                    worst[pair] = (r_g, (seed, k))
            continue
        unconverged += 1
        evaluations[0] += history[-1][1]
        evaluations[1] += history[-1 if stop is None else stop][1]
        if stop is not None:
            stops[history[stop][3]] += 1
    print(f"{name}: {len(seeds)} rows, {converged} converged, {unconverged} unconverged, "
          f"{escaped} escaped")
    for k_exit, tau in schedule:
        (r_g, where), stopped = worst[k_exit, tau], stops[k_exit, tau]
        if where is None:
            cell = "no converged row has a rung here"
        else:
            (k, x, y), k_rung = where
            cell = (f"largest converged R_G {r_g:.3g} (k = {k:.6g}, x = {x:.6g}, "
                    f"y = {y:.6g}, K = {k_rung}), margin {tau / r_g:.3g}x")
        print(f"  K >= {k_exit:3d}  tau {tau:.3g}: {cell}; stops {stopped} unconverged rows")
    print(f"  map evaluations of unconverged rows: {evaluations[0]} with no exit, "
          f"{evaluations[1]} with the schedule; converged rows stopped: {converged_stopped}")
    return converged_stopped


def parse_schedule(text):
    """K:tau pairs as rre.exit_pair reads them; a ValueError makes argparse exit 2."""
    pairs = [item.split(":") for item in text.split(",")]
    schedule = tuple((int(k), float(tau)) for k, tau in pairs)
    ks = [k for k, _ in schedule]
    if ks != sorted(set(ks)) or not all(0.0 < tau < math.inf for _, tau in schedule):
        raise ValueError(f"{text!r}: the K's must strictly increase, each tau be finite > 0")
    return schedule


def worker_count(text):
    """An int >= 1; a ValueError makes argparse exit 2."""
    workers = int(text)
    if workers < 1:
        raise ValueError(f"{text!r}: need at least one worker")
    return workers


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", default=",".join(SETS))
    parser.add_argument("--observables", default="embedding,y")
    parser.add_argument("--schedule", type=parse_schedule, default=rre.EXIT_SCHEDULE,
                        help="K:tau pairs, default rre.EXIT_SCHEDULE")
    parser.add_argument("--workers", type=worker_count, default=1)
    args = parser.parse_args(argv)
    names = [(s, o) for s in args.sets.split(",") for o in args.observables.split(",")]
    unknown = {s for s, _ in names} - set(SETS) | {o for _, o in names} - set(OBSERVABLES)
    if unknown:
        parser.error(f"unknown set or observable: {', '.join(sorted(unknown))}")
    print("schedule: " + ", ".join(f"({k}, {tau:.3g})" for k, tau in args.schedule))
    stopped = 0
    with concurrent.futures.ProcessPoolExecutor(args.workers) as pool:
        run = pool.map if args.workers > 1 else map
        for s, o in names:
            seeds = seed_set(s)
            ladders = list(run(full_ladder, [(o, seed, args.schedule) for seed in seeds]))
            stopped += report(f"{s} / {o}", seeds, ladders, args.schedule)
    return 1 if stopped else 0


if __name__ == "__main__":
    sys.exit(main())
