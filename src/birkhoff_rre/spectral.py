"""Post-processing of a learned filter: roots, mode ranking, rotation.

A converged filter annihilates the signal, so its polynomial roots sit
on the unit circle at e^{2 pi i} times the signal frequencies.  For a
palindromic filter the root-finding reduces to a half-size Chebyshev
problem via x = (z + 1/z)/2, solved with the colleague matrix.  Roots
are ranked by how much of the signal they carry, rational frequencies
reveal island chains (handled by stacking the signal), and the
top-ranked irrational frequency is the rotation number.
"""

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ContractViolation, OrbitEscape
from .fourier import weighted_mode_fit
from .maps import DEFAULT_ESCAPE_BOUND, Trajectory, TrajectorySource
from .numerics import real_eigenvalues
from .rre import adaptive_solve, solve_from_trajectory, stacked_shape

PALINDROME_TOL = 1e-10
UNIT_CIRCLE_TOL = 1e-7  # about sqrt(machine epsilon)
CRITICAL_X_TOL = 1e-7   # unfolding is sensitive near x = +-1
ISLAND_TEST_MODES = 10  # top-ranked modes tested for a rational frequency


@dataclass
class RootSet:
    """Filter-polynomial roots with low-confidence tags near z = +-1."""

    roots: np.ndarray
    low_confidence: np.ndarray

    def __len__(self):
        return self.roots.shape[0]


def chebyshev_coefficients(c):
    """Chebyshev coefficients b of the half-size polynomial.

    z^{-K} P(z) = sum_k b_k T_k((z + 1/z)/2) with b_0 = c_K and
    b_k = 2 c_{K+k}; requires a palindromic c.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim != 1 or c.shape[0] % 2 != 1:
        raise ContractViolation(f"filter must have odd length, got shape {c.shape}")
    k = (c.shape[0] - 1) // 2
    scale = max(np.abs(c).max(), 1.0)
    if np.abs(c - c[::-1]).max() > PALINDROME_TOL * scale:
        raise ContractViolation("filter is not palindromic")
    b = np.empty(k + 1)
    b[0] = c[k]
    b[1:] = 2.0 * c[k + 1:]
    return b


def colleague_matrix(b):
    """Colleague matrix whose eigenvalues are the roots of sum b_k T_k."""
    k = b.shape[0] - 1
    if k == 1:
        return np.array([[-b[0] / b[1]]])
    mat = np.zeros((k, k))
    mat[0, 1] = 1.0
    for i in range(1, k):
        mat[i, i - 1] = 0.5
        if i + 1 < k:
            mat[i, i + 1] = 0.5
    mat[k - 1, :] -= b[:k] / (2.0 * b[k])
    return mat


def _unfold_root(x):
    """Both solutions z of (z + 1/z)/2 = x, stable branch first.

    A real x within CRITICAL_X_TOL outside [-1, 1] is unfolded as its
    mirror image inside.  So close to +-1, which side x lands on is
    rounding, but it decides between a conjugate pair on the unit circle
    and a real pair whose modulus is off by sqrt(2 |x -+ 1|), which the
    unit-circle filter drops once |x -+ 1| > 5e-15.
    """
    if abs(x.imag) < 1e-14 and abs(x.real) <= 1.0 + CRITICAL_X_TOL:
        # exact unit modulus for the dominant case
        xr = x.real if abs(x.real) <= 1.0 else math.copysign(2.0 - abs(x.real), x.real)
        z = complex(xr, math.sqrt(max(1.0 - xr * xr, 0.0)))
        return z, z.conjugate()
    s = np.sqrt(x * x - 1.0)
    if (np.conj(x) * s).real < 0.0:
        s = -s
    z = x + s
    return complex(z), complex(1.0 / z)


def palindromic_roots(c):
    """All roots of the palindromic polynomial sum_k c_k z^k.

    Reduces to the half-size Chebyshev problem and unfolds each x-root
    into its z pair.  Trailing Chebyshev coefficients that are
    numerically zero are trimmed (lowering the degree) rather than fed
    to the eigensolver.  Roots whose x is within about 1e-7 of +-1 are
    tagged low-confidence: the unfolding square root halves their
    accuracy there.
    """
    b = chebyshev_coefficients(c)
    norm = np.linalg.norm(b)
    if norm == 0.0:
        raise ContractViolation("filter is identically zero")
    while b.shape[0] > 1 and abs(b[-1]) < 1e-14 * norm:
        b = b[:-1]
    if b.shape[0] < 2:
        return RootSet(roots=np.empty(0, dtype=complex),
                       low_confidence=np.empty(0, dtype=bool))
    xs = real_eigenvalues(colleague_matrix(b))
    roots = np.empty(2 * xs.shape[0], dtype=complex)
    shaky = np.empty(2 * xs.shape[0], dtype=bool)
    for i, x in enumerate(xs):
        z1, z2 = _unfold_root(x)
        roots[2 * i] = z1
        roots[2 * i + 1] = z2
        near_critical = min(abs(x - 1.0), abs(x + 1.0)) <= CRITICAL_X_TOL
        shaky[2 * i] = shaky[2 * i + 1] = near_critical
    return RootSet(roots=roots, low_confidence=shaky)


def unit_circle_filter(root_set):
    """Keep roots with | |z| - 1 | <= UNIT_CIRCLE_TOL."""
    keep = np.abs(np.abs(root_set.roots) - 1.0) <= UNIT_CIRCLE_TOL
    return RootSet(roots=root_set.roots[keep], low_confidence=root_set.low_confidence[keep])


def canonical_frequency(z):
    """arg(z)/2pi folded into [0, 1/2] (conjugation symmetry).

    Computed as |arg(z)| / 2pi so a conjugate pair maps to bitwise
    identical values.
    """
    return float(abs(np.angle(z)) / (2.0 * math.pi))


@dataclass
class ModeEntry:
    frequency: float     # arg(root)/2pi in [0, 1/2], shared by a conjugate pair
    prominence: float    # summed over the conjugate pair
    low_confidence: bool  # either root of the pair tagged near z = +-1


_CONSTANT_ROOT_TOL = 1e-9


def mode_prominence(root_set, trajectory):
    """Rank roots by their weighted least-squares share of the signal.

    Fits the whole trajectory by the modes root_j^m (weighted_mode_fit)
    with one node per conjugate pair: the root with positive imaginary
    part, and a root on the real axis once (z = +-1 comes as the pair
    +-1 + 0j, +-1 - 0j).  A node's prominence is the Euclidean norm of
    its row of V, the summed prominence of the pair.  A constant column
    (root 1) is included so the signal mean has somewhere to go -- the
    filter polynomial cannot have 1 as a root -- unless a supplied root
    already sits there.  Nodes of equal frequency are merged into one
    entry with their prominences summed, so one real oscillation is one
    mode, low-confidence if any of its roots is.  Returns the ModeEntry
    list sorted by descending prominence.
    """
    roots = root_set.roots
    if roots.shape[0] == 0:
        raise ContractViolation("need at least one root to rank")
    is_node = ~np.signbit(roots.imag)
    add_constant = bool(np.min(np.abs(roots - 1.0)) > _CONSTANT_ROOT_TOL)
    nodes = roots[is_node]
    columns = np.concatenate([[1.0 + 0.0j], nodes]) if add_constant else nodes
    row_norms = np.linalg.norm(weighted_mode_fit(columns, trajectory.samples), axis=1)
    prominences = np.zeros(roots.shape[0])
    prominences[is_node] = row_norms[1:] if add_constant else row_norms
    groups = {}
    for z, p, shaky in zip(roots.tolist(), prominences.tolist(),
                           root_set.low_confidence.tolist()):
        freq = canonical_frequency(z)
        key = round(freq / _CONSTANT_ROOT_TOL)
        if key in groups:
            old = groups[key]
            groups[key] = ModeEntry(frequency=old.frequency, prominence=old.prominence + p,
                                    low_confidence=old.low_confidence or shaky)
        else:
            groups[key] = ModeEntry(frequency=freq, prominence=p, low_confidence=shaky)
    return sorted(groups.values(), key=lambda e: -e.prominence)


def rational_detect(omega, p_max, tol):
    """Smallest-denominator fraction m/p within ``tol`` of omega, or None.

    Walks the Stern-Brocot tree between 0/1 and 1/1; the first node
    inside the window is the simplest fraction in it.  Only fractions
    with 0 <= m < p <= p_max qualify.
    """
    if p_max < 1:
        raise ContractViolation(f"need p_max >= 1, got {p_max}")
    if tol <= 0:
        raise ContractViolation(f"need tol > 0, got {tol}")
    if not 0.0 <= omega < 1.0:
        raise ContractViolation(f"need omega in [0, 1), got {omega}")
    if abs(omega) <= tol:
        return (0, 1)
    lo_n, lo_d = 0, 1
    hi_n, hi_d = 1, 1
    while True:
        med_n, med_d = lo_n + hi_n, lo_d + hi_d
        if med_d > p_max:
            return None
        value = med_n / med_d
        if omega > value + tol:
            lo_n, lo_d = med_n, med_d
        elif omega < value - tol:
            hi_n, hi_d = med_n, med_d
        else:
            return (med_n, med_d)


def stack_signal(trajectory, period):
    """Interleave ``period`` consecutive samples into one wide sample.

    The stacked signal sees the island chain as a single invariant
    circle of the period-composed map: its pure frequencies are the
    rotation-number multiples, with the rational island frequencies
    removed.
    """
    if period < 1:
        raise ContractViolation(f"need period >= 1, got {period}")
    if trajectory.length < period:
        raise ContractViolation("trajectory shorter than the stacking period")
    if period == 1:
        return trajectory
    a = trajectory.samples
    n = (a.shape[0] // period) * period
    stacked = a[:n].reshape(n // period, period * a.shape[1])
    return Trajectory(stacked)


@dataclass
class ClassifyParams:
    """The pipeline's numerical parameters, declared, defaulted and checked
    in one place.

    Each field is an ``[algorithm]`` key of the run configuration, except
    ``escape_bound``, which is read from ``[map]``.  The defaults are the
    standard-map run configuration.  Construction raises
    ``ContractViolation`` naming the first key whose value is out of range.
    """

    epsilon: float = 0.0
    gamma: float = 3.0
    delta_adapt: float = 1e-10
    k_init: int = 50
    k_max: int = 600
    delta_k: int = 50
    eps_rat: float = 1e-8
    p_max: int = 50
    escape_bound: float = DEFAULT_ESCAPE_BOUND

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type is float and not math.isfinite(value):
                raise ContractViolation(f"{f.name} must be finite, got {value}")
        for name in ("delta_adapt", "eps_rat", "escape_bound"):
            if getattr(self, name) <= 0:
                raise ContractViolation(f"{name} must be > 0, got {getattr(self, name)}")
        for name, least in (("epsilon", 0), ("gamma", 1), ("k_init", 1), ("delta_k", 1),
                            ("p_max", 1)):
            if getattr(self, name) < least:
                raise ContractViolation(
                    f"{name} must be >= {least}, got {getattr(self, name)}")
        if self.k_init > self.k_max:
            raise ContractViolation(f"k_init {self.k_init} exceeds k_max {self.k_max}")


@dataclass
class Classification:
    """Outcome for one seed.

    tag is "chaotic", "integrable", or "indeterminate" (the residual
    converged but the rotation cannot be extracted -- no unit-circle
    roots, or a stacked signal too short to solve -- which is surfaced
    rather than guessed).  For integrable results, ``rotation`` lies in
    [0, 1/2] and ``fit_trajectory`` is the (stacked, for islands) signal
    the Fourier stages should consume.
    """

    tag: str
    period: int = None
    rotation: float = None
    solution: object = None
    ranking: object = None
    fit_trajectory: object = None
    diagnostics: dict = field(default_factory=dict)
    flags: list = field(default_factory=list)


def island_period(entries, params):
    """Largest denominator among the rational frequencies of ``entries``.

    Each non-constant mode is tested with ``rational_detect`` at
    ``eps_rat``.  A low-confidence mode comes from a root near z = +-1,
    where the colleague root is accurate only to about sqrt(machine
    epsilon); it is tested at max(eps_rat, UNIT_CIRCLE_TOL), so a
    palindromic double root at z = -1 reads as 1/2 however its last bits
    round.  Returns 1 when no mode is rational.
    """
    period = 1
    for entry in entries:
        if entry.frequency <= _CONSTANT_ROOT_TOL:
            continue
        tol = params.eps_rat
        if entry.low_confidence:
            tol = max(tol, UNIT_CIRCLE_TOL)
        verdict = rational_detect(entry.frequency, params.p_max, tol)
        if verdict is not None and verdict[1] > period:
            period = verdict[1]
    return period


def classify_trajectory(dynamical_map, observable, x0, params=None):
    """Full pipeline: adaptive solve, chaos gate, roots, islands, rotation."""
    params = params or ClassifyParams()
    source = TrajectorySource(dynamical_map, observable, x0, params.escape_bound)
    try:
        result = adaptive_solve(source, params)
    except OrbitEscape as exc:
        return Classification(
            tag="chaotic",
            diagnostics={"escape_step": exc.step, "N": exc.step + 1},  # exc.step map evaluations
            flags=["escape"],
        )
    solution = result.solution
    diag = {
        "R": solution.residual,
        "R_G": solution.scale_free_residual,
        "G": solution.signal_scale,
        "K": solution.half_length,
        "T": solution.window_count,
        "epsilon": solution.epsilon,
        "N": source.samples_drawn,
        "adaptive_converged": result.converged,
        "history": result.history,
    }
    traj = source.take(result.n_samples)
    if solution.fixed_point:
        return Classification(
            tag="integrable", period=1, rotation=0.0, solution=solution,
            ranking=None, fit_trajectory=traj, diagnostics=diag,
            flags=["fixed_point"],
        )
    # adaptive_solve converges only on a gate value <= delta_adapt, so a
    # nan residual fails closed to chaotic
    if not result.converged:
        return Classification(tag="chaotic", solution=solution, diagnostics=diag)
    roots = unit_circle_filter(palindromic_roots(solution.coefficients))
    diag["n_unit_roots"] = len(roots)
    diag["n_low_confidence_roots"] = int(np.count_nonzero(roots.low_confidence))
    if len(roots) == 0:
        return Classification(
            tag="indeterminate", solution=solution, diagnostics=diag,
            flags=["no_unit_circle_roots"],
        )
    ranking = mode_prominence(roots, traj)
    period = island_period(ranking[:ISLAND_TEST_MODES], params)
    if period > 1:
        # island chain: stack and redo the solve on the wide signal
        traj = stack_signal(traj, period)
        shape = stacked_shape(traj.length, traj.dimension, solution.half_length // period)
        if shape is None:
            return Classification(
                tag="indeterminate", period=period, solution=solution, ranking=ranking,
                diagnostics=diag, flags=["stacked_signal_too_short"],
            )
        solution = solve_from_trajectory(traj, *shape, params.epsilon)
        diag["stacked"] = {
            "K": shape[0], "T": shape[1],
            "R": solution.residual,
            "R_G": solution.scale_free_residual,
        }
        if solution.fixed_point:
            # a periodic orbit: each island component is a single point
            return Classification(
                tag="integrable", period=period, rotation=0.0,
                solution=solution, ranking=ranking, fit_trajectory=traj,
                diagnostics=diag, flags=["periodic_orbit"],
            )
        roots = unit_circle_filter(palindromic_roots(solution.coefficients))
        if len(roots) == 0:
            return Classification(
                tag="indeterminate", period=period, solution=solution,
                ranking=ranking, diagnostics=diag,
                flags=["no_unit_circle_roots_stacked"],
            )
        ranking = mode_prominence(roots, traj)
    # a non-constant entry always exists: every entry is a unit root, and a
    # frequency <= _CONSTANT_ROOT_TOL needs a colleague eigenvalue of real
    # part exactly 1.0 (the doubles beside it give >= 2.4e-9), where the
    # filter's value is P(1) = sum(c) = 1, not 0.  Were it missing, next()
    # would raise and the seed become an error row, never integrable.
    rotation = next(e.frequency for e in ranking if e.frequency > _CONSTANT_ROOT_TOL)
    flags = []
    if period > 1:
        # one stacking pass only; a rational frequency surviving here is
        # reported, not recursed on
        residual_rational = rational_detect(rotation, params.p_max, params.eps_rat)
        if residual_rational is not None:
            flags.append(f"stacked_rational:{residual_rational[0]}/{residual_rational[1]}")
    return Classification(
        tag="integrable", period=period, rotation=rotation, solution=solution,
        ranking=ranking, fit_trajectory=traj, diagnostics=diag, flags=flags,
    )
