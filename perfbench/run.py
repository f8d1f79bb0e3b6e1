"""Benchmark entry point: one workload, timed in a fresh interpreter, with gates.

Usage, from the repository root:

    python3 perfbench/run.py --workload line --seed 0 --seconds 45 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones.  Every metric is printed by name with its unit, then the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Outputs, the machine facts and the result go
to ``.perfbench_work/`` in the repository root.  See README.md for the
workloads and what each metric should move.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS, config_text, line_point, seed_order

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
PACKAGE = os.path.join(ROOT, "src", "birkhoff_rre")
WORKERS_ENV_VAR = "BIRKHOFF_RRE_WORKERS"

SETUP_RUNS = 16         # setup-only interpreters, half of them before and half
                        # after the measuring worker, which adds one more
RUN_TIMEOUT_S = 170.0   # the whole run, so it always ends inside 180 s
MIN_COVERAGE = 0.95     # stage self times must cover each seed's span
                        # (its median over the traced units)
MIN_AGREEMENT = 0.90    # acceptance criterion 3
AVERAGE_TOL = 1e-9      # absolute, orbit averages against truth.json

CLASSIFY_HEADER = "seed_x,seed_y,class,period,rotation,R,R_G,R_p,K,N,flags"
AVERAGE_HEADER = "seed_x,seed_y,n,avg_0,avg_1"
CLASSES = {"integrable", "chaotic", "indeterminate", "error"}
GAMMA, DIMENSION = 3.0, 2   # package defaults: embedding observable, gamma

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "map_evals_median": "count",
    "map_evals_total": "count", "label_agreement": "fraction", "ok_frac": "fraction",
}
LAYER_TIMES = [
    "spectral.rank", "spectral.rank_svd", "spectral.roots", "numerics.clstsq",
    "numerics.eig", "rre.solve", "rre.build", "numerics.lstsq", "maps.sample",
    "rre.take", "fourier.fit", "fourier.cond", "fourier.validate", "birkhoff.bump",
    "birkhoff.average",
]
LAYER_CALLS = ["numerics.clstsq", "numerics.eig", "rre.solve", "numerics.lstsq",
               "fourier.fit", "birkhoff.bump"]


class Gates:
    """Named pass/fail checks; a run is correct only if all pass."""

    def __init__(self):
        self.results = []

    def check(self, name, ok, detail=""):
        self.results.append((name, bool(ok), detail))
        return ok

    @property
    def ok(self):
        return all(ok for _, ok, _ in self.results)


def child_env():
    """The caller's environment with the package on the path.

    BLAS thread variables pass through untouched.  The worker-count
    override is removed, since it would silently change the workload.
    """
    env = dict(os.environ)
    env.pop(WORKERS_ENV_VAR, None)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), HERE])
    return env


def machine_facts():
    """Core count and the thread and worker variables as found."""
    facts = {"nproc": len(os.sched_getaffinity(0))}
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", WORKERS_ENV_VAR):
        facts[name] = os.environ.get(name, "unset")
    return facts


def run_child(args, env, deadline):
    """Run a worker in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(args, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit("benchmark: worker timed out")
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise SystemExit(f"benchmark: worker exited with {proc.returncode}")
    return out


def read_table(path, header, version, gates, label):
    with open(path) as handle:
        lines = handle.read().splitlines()
    gates.check(f"{label}: version line", lines[:1] == [f"# birkhoff-rre {version}"],
                lines[:1])
    gates.check(f"{label}: header", lines[1:2] == [header], lines[1:2])
    width = header.count(",") + 1
    return [line.split(",", width - 1) for line in lines[2:]]


def check_seeds(rows, points, gates, label):
    same = len(rows) == len(points) and all(
        float(row[0]) == x and float(row[1]) == y for row, (x, y) in zip(rows, points))
    gates.check(f"{label}: one row per seed, in order", same)


def classify_gates(rows, circles_dir, points, labels, gates):
    """Schema, N = T + 2K, circle files and stored-label agreement."""
    check_seeds(rows, points, gates, "classify")
    bad_class = [row[2] for row in rows if row[2] not in CLASSES]
    gates.check("classify: class values", not bad_class, bad_class)
    bad_n = []
    for row in rows:
        if row[8]:
            k = int(row[8])
            expected = max(1, math.ceil(GAMMA * k / DIMENSION)) + 2 * k
            if int(row[9]) != expected:
                bad_n.append((row[1], k, row[9]))
    gates.check("classify: N = T + 2K on every row", not bad_n, bad_n)
    expected_files = {}
    for index, row in enumerate(rows):
        if row[2] == "integrable" and "fit_failed" not in row[10]:
            expected_files[f"circle_{index:04d}.json"] = row
    files = sorted(os.listdir(circles_dir)) if os.path.isdir(circles_dir) else []
    gates.check("classify: one circle JSON per integrable row",
                files == sorted(expected_files), (len(files), len(expected_files)))
    mismatched = []
    for name, row in expected_files.items():
        if name in files:
            with open(os.path.join(circles_dir, name)) as handle:
                payload = json.load(handle)
            if (payload["seed"] != [float(row[0]), float(row[1])]
                    or payload["period"] != int(row[3])):
                mismatched.append(name)
    gates.check("classify: each circle's seed and period match its row",
                not mismatched, mismatched)
    considered = agree = 0
    for row, label in zip(rows, labels):
        if label == "excluded":
            continue
        considered += 1
        agree += row[2] == label
    agreement = agree / considered if considered else 0.0
    gates.check("classify: label agreement >= 0.90", agreement >= MIN_AGREEMENT,
                f"{agree}/{considered}")
    integrable_n = [int(row[9]) for row in rows if row[2] == "integrable"]
    errors = sum(row[2] == "error" for row in rows)
    return {
        "map_evals_median": statistics.median(integrable_n) if integrable_n else 0,
        "map_evals_total": sum(int(row[9]) for row in rows if row[9]),
        "label_agreement": agreement,
        "errors": errors,
    }


def average_gates(rows, points, n_samples, reference, gates):
    """Schema, sample counts and averages against the stored values."""
    check_seeds(rows, points, gates, "average")
    gates.check("average: n on every row",
                all(row[2] == str(n_samples) for row in rows))
    matched = failed = 0
    steps = []
    for row, ref in zip(rows, reference):
        if not row[3]:
            failed += 1
            continue
        steps.append(int(row[2]) - 1)
        values = [float(v) for v in row[3:]]
        matched += all(abs(a - b) <= AVERAGE_TOL for a, b in zip(values, ref))
    agreement = matched / len(rows) if rows else 0.0
    gates.check(f"average: every average within {AVERAGE_TOL:g} of truth.json",
                agreement == 1.0, f"{matched}/{len(rows)}")
    # an orbit of n samples costs n - 1 map steps; n is the table's column
    return {
        "map_evals_median": statistics.median(steps) if steps else 0,
        "map_evals_total": sum(steps),
        "label_agreement": agreement,
        "errors": failed,
    }


def json_truth():
    with open(os.path.join(HERE, "truth.json")) as handle:
        return json.load(handle)


def same_files(a, b):
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return fa.read() == fb.read()


def same_dirs(a, b):
    names = sorted(os.listdir(a))
    return names == sorted(os.listdir(b)) and all(
        same_files(os.path.join(a, n), os.path.join(b, n)) for n in names)


def layer_metrics(result, setups, gates, command):
    traced = result["traced"]
    plain = [u for u in result["units"] if not u["traced"]]
    traced_units = [u for u in result["units"] if u["traced"]]
    first = traced[0]
    repeat = all(t["calls"] == first["calls"] and t["counts"] == first["counts"]
                 for t in traced)
    gates.check("trace: counts repeat exactly across traced units", repeat)
    coverage = min(statistics.median(c) for c in zip(*(t["coverage"] for t in traced)))
    if command == "classify":
        gates.check(f"trace: stage self times cover >= {MIN_COVERAGE:.0%} of every seed",
                    coverage >= MIN_COVERAGE, f"min {coverage:.4f}")
    metrics = {}
    for name in LAYER_TIMES:
        metrics[f"{name}_s"] = (statistics.median(t["self_s"].get(name, 0.0)
                                                  for t in traced), "s")
    for name in LAYER_CALLS:
        metrics[f"{name}_calls"] = (first["calls"].get(name, 0), "count")
    metrics["numerics.lstsq_gflop"] = (first["counts"]["numerics.lstsq_flops_x3"] / 3e9,
                                       "GFLOP_computed")
    metrics["maps.step_calls"] = (first["counts"]["maps.step_calls"], "count")
    metrics["cli.seed_self_s"] = (statistics.median(t["self_s"].get("cli.seed", 0.0)
                                                    for t in traced), "s")
    # one latency per seed, its median over the untraced units, so the
    # percentiles do not depend on how many units fit in the run
    seed_s = [statistics.median(times) for times in zip(*result["seed_s"])]
    metrics["cli.seed_s_p50"] = (statistics.median(seed_s), "s")
    metrics["cli.seed_s_p90"] = (statistics.quantiles(seed_s, n=10, method="inclusive")[-1],
                                 "s")
    metrics["proc.cpu_s"] = (statistics.median(u["cpu_s"] for u in plain), "s")
    metrics["proc.cpu_per_wall"] = (statistics.median(u["cpu_s"] / u["wall_s"]
                                                      for u in plain), "ratio")
    metrics["config.load_s"] = (statistics.median(s["load_s"] for s in setups), "s")
    metrics["setup.import_s"] = (statistics.median(s["import_s"] for s in setups), "s")
    traced_wall = statistics.median(u["wall_s"] for u in traced_units)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (
        traced_wall - statistics.median(u["wall_s"] for u in plain), "s")
    metrics["trace.coverage_min"] = (coverage, "fraction")
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        raise SystemExit(f"benchmark: package sources not found under {ROOT}/src")

    spec = WORKLOADS[args.workload]
    command = spec["command"]
    indices = seed_order(args.workload, args.seed)
    points = [line_point(spec["line"], i) for i in indices]
    workdir = os.path.join(ROOT, ".perfbench_work",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    config = os.path.join(workdir, "run.ini")
    with open(config, "w") as handle:
        handle.write(config_text(args.workload, indices))
    env = child_env()
    facts = machine_facts()

    worker = [sys.executable, os.path.join(HERE, "worker.py"), config]
    setups, setup_s = [], []

    def measure_setups(count):
        for _ in range(count):
            start = time.monotonic()
            setup = json.loads(run_child(worker + ["--setup-only"], env, deadline))
            setups.append(setup)
            setup_s.append(setup["ready"] - start)

    measure_setups(SETUP_RUNS // 2)
    out_path = os.path.join(workdir, "worker.json")
    start = time.monotonic()
    run_child(worker + ["--command", command, "--seconds", str(args.seconds),
                        "--trace", str(args.trace), "--workdir", workdir,
                        "--out", out_path], env, deadline)
    with open(out_path) as handle:
        result = json.load(handle)
    setups.append(result["setup"])
    setup_s.append(result["setup"]["ready"] - start)
    measure_setups(SETUP_RUNS - SETUP_RUNS // 2)
    facts.update(result["facts"])

    gates = Gates()
    package = os.path.realpath(PACKAGE)
    gates.check("package imported from this checkout",
                all(os.path.realpath(s["package"]).startswith(package) for s in setups))
    units = result["units"]
    gates.check("every unit exits 0", all(u["exit_code"] == 0 for u in units),
                [u["messages"].strip() for u in units if u["exit_code"] != 0])
    version = result["setup"]["version"]
    first = units[0]
    if command == "classify":
        rows = read_table(first["table"], CLASSIFY_HEADER, version, gates, "classify")
        labels_all = json_truth()["lines"][spec["line"]]["labels"]
        summary = classify_gates(rows, first["circles"], points,
                                 [labels_all[i] for i in indices], gates)
        det = result["determinism"]
        if det:
            gates.check("determinism: workers = 2 table is byte-identical to serial",
                        same_files(det["table"], first["table"]))
            gates.check("determinism: workers = 2 circles are byte-identical to serial",
                        same_dirs(det["circles"], first["circles"]))
    else:
        rows = read_table(first["table"], AVERAGE_HEADER, version, gates, "average")
        stored = json_truth()["averages"][args.workload]
        by_index = dict(zip(stored["indices"], stored["values"]))
        summary = average_gates(rows, points, spec["n_samples"],
                                [by_index[i] for i in indices], gates)
    gates.check("every unit writes the same table",
                all(same_files(u["table"], first["table"]) for u in units[1:]))

    error_frac = summary["errors"] / len(rows) if rows else 1.0
    if args.trace:
        metrics = layer_metrics(result, setups, gates, command)
    else:
        metrics = {
            "setup_s": statistics.median(setup_s),
            "wall_s": statistics.median(u["wall_s"] for u in units),
            "peak_rss_mb": result["peak_rss_mb"],
            "map_evals_median": summary["map_evals_median"],
            "map_evals_total": summary["map_evals_total"],
            "label_agreement": summary["label_agreement"],
            "ok_frac": 1.0 - error_frac,
        }
        metrics = {name: (value, END_TO_END[name]) for name, value in metrics.items()}

    attempted = len(rows) * len(units)
    failed = summary["errors"] * len(units)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"units {len(units)} x {len(rows)} seeds")
    print("facts " + json.dumps(facts, sort_keys=True))
    print(f"error_frac {error_frac}")
    for name, ok, detail in gates.results:
        print(f"gate {'pass' if ok else 'FAIL'}  {name}" + (f"  {detail}" if detail else ""))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    result = {
        "correct": gates.ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    with open(os.path.join(workdir, "result.json"), "w") as handle:
        json.dump({**result, "facts": facts, "gates": gates.results}, handle, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
