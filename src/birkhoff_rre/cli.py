"""Batch driver: classify / converge / figure2 / average subcommands.

Exit codes: 0 success, 2 configuration error, 3 partial per-seed
failures (or a failed figure2 check).  Output files are deterministic
for a given configuration at a fixed BLAS thread count; the
``[output] workers`` count never changes their contents.  A different
BLAS thread count can change trailing float digits.

The command imports the package before numpy, so the package's thread
policy applies: one BLAS thread per process unless the caller has set
``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS``.  The workers are forked
and inherit it, so parallelism comes from the worker count alone.
"""

import argparse
import concurrent.futures
import csv
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .birkhoff import bump_weights, wba_doubling_residual_at, weighted_average
from .config import OBSERVABLES, load_config
from .errors import ConfigError, OrbitEscape, ValidationFailure
from .fourier import fit_circle, make_observable_advance, validation_residual
from .maps import StandardMap, TrajectorySource, sample_trajectory
from .rre import solve_at
from .spectral import classify_trajectory

CSV_COLUMNS = ("seed_x", "seed_y", "class", "period", "rotation",
               "R", "R_G", "R_p", "K", "N", "flags")


def build_map(cfg):
    return StandardMap(cfg.k)


def build_observable(cfg):
    return OBSERVABLES[cfg.observable]()


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def classify_seed(cfg, seed):
    """Classify one seed; returns (row, circle).

    ``row`` maps each CSV column to its value, None where the cell is
    empty; _write_table formats it.  ``circle`` is the validated
    FourierCircle, or None; run_classify writes it out with _circle_text.
    Never raises: failures come back as class="error" rows so a batch
    is never aborted by one seed.
    """
    row = dict.fromkeys(CSV_COLUMNS)
    row["seed_x"], row["seed_y"] = float(seed[0]), float(seed[1])
    try:
        dmap, obs = build_map(cfg), build_observable(cfg)
        cls = classify_trajectory(dmap, obs, seed, cfg.params)
        row.update({"class": cls.tag, "period": cls.period, "N": cls.evaluations})
        if cls.ladder is not None:
            filt = cls.ladder.solution
            row.update(R=filt.residual, R_G=filt.scale_free_residual, K=filt.half_length)
        flags = list(cls.flags)
        circle = None
        if cls.tag == "integrable":
            row["rotation"] = cls.rotation
            try:
                # an observable that cannot be inverted fails here, before the fit
                advance = make_observable_advance(dmap, obs)
                fitted = fit_circle(cls)
                row["R_p"] = validation_residual(fitted, advance)
                circle = fitted
            except (ValueError, OrbitEscape, NotImplementedError, ValidationFailure) as exc:
                flags.append(f"fit_failed:{type(exc).__name__}")
        row["flags"] = "|".join(flags)
        return row, circle
    except Exception as exc:  # per-seed failures are recorded, not raised
        # an error row keeps only its seed: nothing computed before the failure stands
        error_row = dict.fromkeys(CSV_COLUMNS)
        error_row.update({"seed_x": row["seed_x"], "seed_y": row["seed_y"], "class": "error",
                          "flags": f"{type(exc).__name__}:{exc}"})
        return error_row, None


def _json_array(leaves, shape, depth):
    """json's indent=1 text of a nested list of ``shape`` whose leaves, in
    row-major order, are already spelled; the list sits at indent ``depth``."""
    if not leaves:
        return "[]"
    for axis in reversed(range(len(shape))):
        pad = "\n" + " " * (depth + axis + 1)
        head, tail = "[" + pad, "\n" + " " * (depth + axis) + "]"
        groups = zip(*[iter(leaves)] * shape[axis])
        leaves = [head + body + tail for body in map(("," + pad).join, groups)]
    return leaves[0]


def _circle_text(row, circle):
    """The circle file of a validated circle and its row, as README lays it out.

    This is ``json.dumps(payload, indent=1, sort_keys=True)`` of that
    layout.  An indent sends json to its pure-Python encoder; the layout
    is fixed, so its text is joined here directly.  Scalars still go
    through json.dumps, which spells a finite float as its repr.
    """
    # coeffs[block][mode][component] = [real, imag]
    pairs = np.stack([circle.coefficients.real, circle.coefficients.imag], -1)
    shape = (2 * circle.num_modes + 1, circle.period, circle.dimension, 2)
    coeffs = pairs.reshape(shape).swapaxes(0, 1)
    spell = float.__repr__ if np.isfinite(coeffs).all() else json.dumps
    leaves = list(map(spell, coeffs.ravel().tolist()))
    flags = [json.dumps(flag) for flag in row["flags"].split("|")] if row["flags"] else []
    seed = [json.dumps(row["seed_x"]), json.dumps(row["seed_y"])]
    residuals = {key: json.dumps(float(row[key])) for key in ("R", "R_G", "R_p")}
    return "\n".join([
        "{",
        f' "L": {int(circle.num_modes)},',
        f' "coefficients": {_json_array(leaves, coeffs.shape, 1)},',
        f' "flags": {_json_array(flags, (len(flags),), 1)},',
        f' "period": {int(circle.period)},',
        ' "residuals": {',
        f'  "R": {residuals["R"]},',
        f'  "R_G": {residuals["R_G"]},',
        f'  "R_p": {residuals["R_p"]}',
        " },",
        f' "rotation": {json.dumps(float(circle.rotation))},',
        f' "seed": {_json_array(seed, (2,), 1)}',
        "}",
    ])


def _classify_one(job):
    # classify_seed is looked up at call time, so a rebinding of it applies
    return classify_seed(*job)


def _write_table(path, rows):
    with open(path, "w", newline="") as handle:
        handle.write(f"# birkhoff-rre {__version__}\n")
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows([_fmt(row[col]) for col in CSV_COLUMNS] for row in rows)


def run_classify(cfg, out=None):
    """Classify every configured seed and emit the result table."""
    out = out if out is not None else sys.stdout
    jobs = [(cfg, seed) for seed in cfg.seeds]
    # a fork-started pool forks all its workers at the first submit, so never
    # ask for more than there are seeds; the output does not depend on it
    workers = min(cfg.workers, len(jobs))
    if workers == 1:
        results = [_classify_one(job) for job in jobs]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_classify_one, jobs))
    rows = [row for row, _ in results]
    _write_table(cfg.table, rows)
    if cfg.circles:
        os.makedirs(cfg.circles, exist_ok=True)
        for index, (row, circle) in enumerate(results):
            if circle is None:
                continue
            path = os.path.join(cfg.circles, f"circle_{index:04d}.json")
            with open(path, "w") as handle:
                handle.write(_circle_text(row, circle))
    failures = sum(1 for row in rows if row["class"] == "error")
    print(f"classified {len(rows)} seeds -> {cfg.table}"
          + (f" ({failures} failures)" if failures else ""), file=out)
    return 3 if failures else 0


def converge_seed(cfg, seed, k_values):
    """Budget-matched residual rows (K, N, R_rre, R_wba) for one seed.

    For each K, the filter solve is the adaptive ladder's step at K
    (rre.solve_at), on N samples; the doubling residual of the weighted
    average is evaluated on the same orbit at half length floor(N/2),
    so both methods see an equal sample budget.  Yields the rows in
    order of K, and raises OrbitEscape once the orbit escapes.
    """
    source = TrajectorySource(build_map(cfg), build_observable(cfg), seed, cfg.params.escape_bound)
    for k in k_values:
        traj, solution = solve_at(source, k, cfg.params)
        n = traj.length
        yield k, n, solution.residual, wba_doubling_residual_at(traj.samples, n // 2)


def run_converge(cfg, out=None):
    out = out if out is not None else sys.stdout
    params = cfg.params
    k_values = cfg.k_values or list(range(params.k_init, params.k_max + 1, params.delta_k))
    with open(cfg.table, "w") as handle:
        handle.write(f"# birkhoff-rre {__version__}\n")
        handle.write("seed_x,seed_y,K,N,R_rre,R_wba\n")
        for seed in cfg.seeds:
            try:
                for k, n, r_rre, r_wba in converge_seed(cfg, seed, k_values):
                    handle.write(
                        f"{_fmt(float(seed[0]))},{_fmt(float(seed[1]))},{k},{n},"
                        f"{_fmt(r_rre)},{_fmt(r_wba)}\n"
                    )
            except OrbitEscape as exc:
                print(f"seed {seed}: escaped at step {exc.step}", file=out)
    print(f"convergence sweep -> {cfg.table}", file=out)
    return 0


def run_average(cfg, out=None):
    """Plain weighted Birkhoff average of the observable per seed."""
    out = out if out is not None else sys.stdout
    dmap, obs = build_map(cfg), build_observable(cfg)
    weights = bump_weights(cfg.n_samples)
    dim = obs.evaluate(np.reshape(cfg.seeds[0], (1, -1))).shape[1]
    with open(cfg.table, "w") as handle:
        handle.write(f"# birkhoff-rre {__version__}\n")
        handle.write("seed_x,seed_y,n," + ",".join(f"avg_{i}" for i in range(dim)) + "\n")
        for seed in cfg.seeds:
            try:
                traj = sample_trajectory(dmap, obs, seed, cfg.n_samples,
                                         escape_bound=cfg.params.escape_bound)
                avg = weighted_average(traj, weights)
                values = ",".join(_fmt(float(v)) for v in avg)
            except OrbitEscape as exc:
                values = ",".join("" for _ in range(dim))
                print(f"seed {seed}: escaped at step {exc.step}", file=out)
            handle.write(f"{_fmt(float(seed[0]))},{_fmt(float(seed[1]))},"
                         f"{cfg.n_samples},{values}\n")
    print(f"averages -> {cfg.table}", file=out)
    return 0


FIGURE2_REFERENCE_MEAN = 1.266066
FIGURE2_EXPECTED = {"all-ones": 7.11e-2, "wba": 7.38e-3, "tuned": 2.72e-5}
FIGURE2_RELATIVE_TOL = 0.05


def figure2_errors(length=11):
    """Absolute averaging errors of the three candidate filters.

    The test signal is h(theta) = exp(cos 2 pi theta) sampled at
    theta = omega t with the golden-mean frequency; the reference mean
    is the converged weighted average 1.266066.
    """
    from .maps import Trajectory
    from .oracle import all_ones_filter, tuned_filter, wba_window_filter

    golden = (math.sqrt(5.0) - 1.0) / 2.0
    t = np.arange(length)
    signal = Trajectory(np.exp(np.cos(2.0 * math.pi * golden * t)))
    filters = {
        "all-ones": all_ones_filter(length),
        "wba": wba_window_filter(length),
        "tuned": tuned_filter(golden, length),
    }
    return {
        name: abs(float(weighted_average(signal, c)[0]) - FIGURE2_REFERENCE_MEAN)
        for name, c in filters.items()
    }


def run_figure2(out=None):
    """Three-filter comparison report with pass/fail checks."""
    out = out if out is not None else sys.stdout
    errors = figure2_errors()
    all_ok = True
    for name in ("all-ones", "wba", "tuned"):
        expected = FIGURE2_EXPECTED[name]
        got = errors[name]
        ok = abs(got - expected) <= FIGURE2_RELATIVE_TOL * expected
        all_ok &= ok
        print(f"{name:>8s}: error {got:.3e}  expected {expected:.2e}  "
              f"[{'pass' if ok else 'FAIL'}]", file=out)
    print(f"reference mean {FIGURE2_REFERENCE_MEAN}", file=out)
    return 0 if all_ok else 3


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="birkhoff-rre",
        description="Classify symplectic-map trajectories and fit invariant circles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("classify", "classify every seed and fit circles"),
        ("converge", "budget-matched residual sweep (filtered vs doubling)"),
        ("average", "weighted Birkhoff average of the observable"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("config", help="path to the run configuration file")
    sub.add_parser("figure2", help="three-filter comparison report")
    args = parser.parse_args(argv)
    try:
        if args.command == "figure2":
            return run_figure2()
        cfg = load_config(args.config)
        if args.command == "classify":
            return run_classify(cfg)
        if args.command == "converge":
            return run_converge(cfg)
        return run_average(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
