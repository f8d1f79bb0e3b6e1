"""One workload in a fresh interpreter: set up, then run timed units.

Started by ``run.py``; not meant to be run by hand.  The first thing
timed is the package import, then ``load_config``; ``run.py`` measures
interpreter start-up around it.  With ``--setup-only`` the worker stops
there.  Otherwise it runs the workload's subcommand repeatedly on the
same inputs (one run is a "unit") until ``--seconds`` would be
exceeded.  Per-unit timings go to ``--out``; the spans of each traced
unit go to ``unit<i>_spans.jsonl`` in ``--workdir``.
"""

import time

IMPORT_START = time.monotonic()

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from birkhoff_rre import __version__, cli  # noqa: E402
from birkhoff_rre.config import load_config  # noqa: E402

IMPORT_END = time.monotonic()


def cpu_seconds():
    """User plus system CPU time of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb():
    """The larger peak resident set of this process and of its children."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def blas_facts():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"blas": blas.get("name"), "blas_version": blas.get("version")}
    except (TypeError, KeyError):
        return {"blas": "unknown", "blas_version": "unknown"}


def run_unit(cfg, command, index, workdir, traced):
    """Run the subcommand once; returns its unit record."""
    cfg.table = os.path.join(workdir, f"unit{index}.csv")
    if command == "classify":
        cfg.circles = os.path.join(workdir, f"unit{index}_circles")
    sink = io.StringIO()
    cpu0, start = cpu_seconds(), time.perf_counter()
    if command == "classify":
        code = cli.run_classify(cfg, out=sink)
    else:
        code = cli.run_average(cfg, out=sink)
    wall = time.perf_counter() - start
    return {"index": index, "wall_s": wall, "cpu_s": cpu_seconds() - cpu0,
            "exit_code": code, "table": cfg.table, "circles": cfg.circles,
            "traced": traced, "messages": sink.getvalue()}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("config")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--command", choices=("classify", "average"))
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir")
    parser.add_argument("--out")
    args = parser.parse_args()

    load_start = time.monotonic()
    cfg = load_config(args.config)
    ready = time.monotonic()
    setup = {"ready": ready, "import_s": IMPORT_END - IMPORT_START,
             "load_s": ready - load_start, "version": __version__,
             "package": os.path.abspath(cli.__file__)}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    import numpy as np
    import scipy

    from probe import Tracer, summarize

    facts = {"python": sys.version.split()[0], "numpy": np.__version__,
             "scipy": scipy.__version__, **blas_facts()}
    # Every unit times its seeds; a trace run alternates untraced and fully
    # traced units, so that the difference of their walls is the overhead,
    # with at least three of each so that per-seed medians shed a preemption.
    min_units = 6 if args.trace else 3
    units, seed_s, traced = [], [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        layers = bool(args.trace) and len(units) % 2 == 1
        tracer = Tracer()
        tracer.install(args.command, layers=layers)
        try:
            unit = run_unit(cfg, args.command, len(units), args.workdir, layers)
        finally:
            tracer.uninstall()
        units.append(unit)
        if layers:
            self_s, calls, coverage = summarize(tracer.spans)
            traced.append({"self_s": self_s, "calls": calls, "coverage": coverage,
                           "counts": tracer.counts})
            spans_path = os.path.join(args.workdir, f"unit{unit['index']}_spans.jsonl")
            with open(spans_path, "w") as handle:
                for name, start, end, parent, seed in tracer.spans:
                    handle.write(json.dumps({"name": name, "start": start, "end": end,
                                             "parent": parent, "seed": seed}) + "\n")
        else:
            seed_s.append([end - start for _, start, end, _, _ in tracer.spans])
        remaining = deadline - time.perf_counter()
        if len(units) >= min_units and remaining < unit["wall_s"]:
            break
    rss = peak_rss_mb()

    determinism = None
    if args.trace and args.command == "classify":
        # Untimed: the same inputs through the process pool must give the
        # same bytes as the serial units.
        cfg.workers = 2
        cfg.table = os.path.join(args.workdir, "workers2.csv")
        cfg.circles = os.path.join(args.workdir, "workers2_circles")
        cli.run_classify(cfg, out=io.StringIO())
        determinism = {"table": cfg.table, "circles": cfg.circles}

    with open(args.out, "w") as handle:
        json.dump({"setup": setup, "facts": facts, "units": units, "seed_s": seed_s,
                   "traced": traced, "peak_rss_mb": rss, "determinism": determinism},
                  handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
