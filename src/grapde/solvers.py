"""Critical-point solvers and norm-bound certificates.

Two families of solutions are computed: saddle points found by deforming a
discretized path between the origin and a negative-energy state (the min-max
characterization), and negative-energy local minimizers found by projected
descent inside a certified ball.  Each converged state gets a certificate
sandwiching its product norm between explicit constants built from the graph
data and the hypothesis constants.

The drivers see a problem only through its flat-vector surface (see
``energy.FlatProblem``), so the same code serves the two-block system and the
one-block scalar problem; the certificate functions below are the system's.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass

import numpy as np

from ._optim import (
    bb_minimize, least_squares_retry, path_saddle, polish_root, polish_roots, weighted_norm,
)
from .energy import ProblemInstance, phi  # noqa: F401  phi: bench/tracing.py requires this binding
from .graph import StatePair, VertexFunction, integral, total_measure
from .nonlinearity import SamplingConfig, block_fields, lipschitz_screen, sign_screen
from .spaces import w_norm

log = logging.getLogger("grapde")

__all__ = [
    "SolverError",
    "CertificateError",
    "SolverConfig",
    "BoundCertificate",
    "SolveReport",
    "solve_report",
    "trivial_norm",
    "certify",
    "spike_start",
    "ball_projection",
    "negative_endpoint",
    "mountain_pass_solve",
    "bound_certificate_mp",
    "ball_radius",
    "local_min_solve",
    "energy_level_bounds",
    "bound_certificate_min",
    "uniqueness_certificate",
    "nonexistence_check",
]


class SolverError(RuntimeError):
    pass


class CertificateError(ValueError):
    pass


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-8
    path_nodes: int = 41
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.tol < math.inf:  # false for a NaN
            raise ValueError(f"tol must be a finite number > 0, got {self.tol}")


_W_GRID = 21  # parameters of J at which the endpoint and the ball radius must hold


@dataclass
class BoundCertificate:
    kind: str  # mountain-pass | local-min
    lower: float
    upper: float
    constants: dict
    norm: float = None
    satisfied: bool = None
    notes: tuple = ()


@dataclass
class SolveReport:
    state: StatePair  # one-block problems leave v None
    energy: float
    residual: float
    kind: str
    iterations: int
    fevals: int
    converged: bool
    certificate: BoundCertificate = None
    flags: tuple = ()

    @property
    def u(self) -> VertexFunction:
        """The first block; criterion_09 reads the scalar solution under this name."""
        return self.state.u


# --- shared drivers -----------------------------------------------------

def state_norm(inst, *blocks) -> float:
    """Norm of a state given block by block: (u, v), or u alone for a scalar problem."""
    return inst.norm(np.concatenate(blocks))


def _split(inst, x) -> tuple:
    # tests/test_acceptance.py splits flat states through this name
    return inst.split(x)


def trivial_norm(inst, tol: float) -> float:
    """Norm below which a state cannot be told from zero by a residual of 10 tol.

    A block of exponent s has a gradient of order r^(s-1) at norm r.
    """
    s_max = max(space.ord.s for space in inst.spaces)
    return (10.0 * tol) ** (1.0 / (s_max - 1.0))


def solve_report(inst, x, kind, iterations, fevals, config, certificate=None, extra_flags=()):
    """Report of the flat state x; ``kind`` is "mountain-pass" or "local-min"."""
    res = inst.residual(x)
    energy = inst.energy(x)
    norm = inst.norm(x)
    flags = list(extra_flags)
    if norm < trivial_norm(inst, config.tol):
        flags.append("trivial")
    if kind == "mountain-pass" and energy <= 0:
        flags.append("type-uncertain")
    if kind == "local-min" and energy >= 0 and res <= config.tol:
        flags.append("nonnegative energy at convergence")
    if certificate is not None:
        certificate.norm = norm
        certificate.satisfied = bool(certificate.lower <= norm <= certificate.upper)
    return SolveReport(
        state=inst.state(x),
        energy=energy,
        residual=res,
        kind=inst.kind_prefix + kind,
        iterations=iterations,
        fevals=fevals,
        converged=res <= config.tol,
        certificate=certificate,
        flags=tuple(flags),
    )


def certify(bounds, *args) -> tuple:
    """(certificate, flags): bounds(*args), or None and a "certificate unavailable" flag."""
    try:
        return bounds(*args), ()
    except CertificateError as err:
        return None, (f"certificate unavailable: {err}",)


# --- mountain pass ------------------------------------------------------

_MAX_DOUBLINGS = 60  # endpoint scalings tried, up to 2^59 times the spike
_SAME_ROOT = 1e-6  # weighted distance within which two saddle-trial roots are one point


def negative_endpoint(inst) -> tuple:
    """Scaled spike state with negative energy uniformly across the w grid.

    The scaling is doubled until the energy is negative at every grid
    parameter, so the resulting upper bound constant does not depend on w.
    Returns the blocks: (u, v), or (u,) for a scalar problem.
    """
    direction = inst.spike()
    ws = inst.spec.w_grid(_W_GRID)
    t = 1.0
    for _ in range(_MAX_DOUBLINGS):
        x = t * direction
        if all(inst.at(w).energy(x) < 0 for w in ws):
            return tuple(b.copy() for b in inst.split(x))
        t *= 2.0
    raise SolverError(
        "cannot certify (F3) numerically: no negative-energy endpoint after "
        f"{_MAX_DOUBLINGS} doublings"
    )


def _warm_report(inst, res, kind, config, bounds, *args):
    """Report of a warm descent, or None if the driver must fall back to its cold search.

    The descent must converge to a nontrivial state whose report is converged
    and, for a saddle, not ``type-uncertain``.
    """
    if not res.converged or inst.norm(res.x) < trivial_norm(inst, config.tol):
        return None
    cert, flags = certify(bounds, *args)
    report = solve_report(
        inst, res.x, kind, res.iterations, res.fevals, config,
        certificate=cert, extra_flags=flags + ("warm start",),
    )
    if report.converged and "type-uncertain" not in report.flags:
        return report
    return None


def mountain_pass_solve(
    inst, config: SolverConfig = None, endpoint: tuple = None, start=None
) -> SolveReport:
    """Saddle search: path deformation with Newton trials from the path's peak.

    The path deformation ends as soon as a Newton trial from its peak reaches
    a critical point that is a mountain-pass point by evidence: nontrivial,
    with energy at most the path's peak energy (an upper bound on the
    mountain-pass level) and Morse index 1.  A root rejected as trivial or
    for its index is remembered, and a later trial root within
    ``_SAME_ROOT`` of one is rejected without a new index.  A cold solve
    reports the accepted root, or else the best-residual peak, not converged
    and flagged; ``iterations`` counts the path sweeps.  With a flat
    state ``start`` (the previous point of a sweep), the polish from
    ``start`` is tried first and the path search runs only if it fails.
    """
    config = config or SolverConfig()
    if endpoint is None:
        endpoint = negative_endpoint(inst)
    weights = inst.weights
    if start is not None:
        warm = polish_root(inst.gradient, start, weights, inst.jacobian, tol=config.tol)
        report = _warm_report(inst, warm, "mountain-pass", config, inst.bounds_mp, endpoint)
        if report is not None:
            return report
    floor = trivial_norm(inst, config.tol)
    rejected = []  # roots rejected for a property of the point alone

    def accept(x, peak_energy):
        if any(weighted_norm(weights, x - r) <= _SAME_ROOT for r in rejected):
            return False
        if inst.norm(x) < floor:
            rejected.append(x)
            return False
        if inst.energy(x) > peak_energy:  # depends on the path, so not remembered
            return False
        if inst.morse_index(x) != 1:
            rejected.append(x)
            return False
        return True

    x, outer, fevals, accepted = path_saddle(
        inst.energy, inst.gradient, weights, np.concatenate(endpoint), inst.jacobian, accept,
        n_nodes=config.path_nodes, tol=config.tol,
    )
    log.info("%s after %d sweeps", "accepted trial" if accepted else "no trial accepted", outer)
    cert, extra = certify(inst.bounds_mp, endpoint)
    if not accepted:
        extra += ("path deformation did not reach coarse tolerance",)
    report = solve_report(
        inst, x, "mountain-pass", outer, fevals, config, certificate=cert, extra_flags=extra
    )
    report.converged = report.converged and accepted  # a peak is not a root that accept took
    return report


def _require(spec, names, what):
    missing = [n for n in names if getattr(spec, n) is None]
    if missing:
        raise CertificateError(f"{what} requires constants {missing}")


def bound_certificate_mp(inst: ProblemInstance, endpoint: tuple) -> BoundCertificate:
    """Lower/upper norm bounds for saddle solutions from the hypothesis constants."""
    spec = inst.spec
    _require(spec, ("theta", "c1", "c2", "r1", "r2"), "mountain-pass certificate")
    p, q = inst.p, inst.q
    th = spec.theta
    mx, mn = max(spec.r1, spec.r2), min(spec.r1, spec.r2)
    for label, value in (
        ("max{r1,r2} - q", mx - q),
        ("min{r1,r2} - p", mn - p),
        ("max{r1,r2} - p", mx - p),
        ("min{r1,r2} - q", mn - q),
        ("theta - p", th - p),
        ("theta - q", th - q),
    ):
        if value <= 0:
            raise CertificateError(f"constraint violated: {label} must be positive")
    (b, _), (d, _) = inst.embedding.blocks
    vol = total_measure(inst.graph)
    M = max(spec.c1, spec.c2) * max(b**spec.r1, d**spec.r2)
    A1 = min(
        (1.0 / (2.0**p * vol * M)) ** (1.0 / (mx - q)),
        (1.0 / (2.0 ** (p - 1) * vol * M)) ** (1.0 / (mn - p)),
    )
    A2 = min(
        (1.0 / (2.0**q * vol * M)) ** (1.0 / (mx - p)),
        (1.0 / (2.0 ** (q - 1) * vol * M)) ** (1.0 / (mn - q)),
    )
    C1 = min(A1, A2)
    u0, v0 = endpoint
    E0 = (
        w_norm(inst.graph, u0, inst.spaces[0]) ** p / p
        + w_norm(inst.graph, v0, inst.spaces[1]) ** q / q
    )
    base_p = p * th * 2.0 ** (p - 1) * E0 / (th - p)
    base_q = q * th * 2.0 ** (q - 1) * E0 / (th - q)
    A3, A4 = base_p ** (1.0 / p), base_p ** (1.0 / q)
    A5, A6 = base_q ** (1.0 / q), base_q ** (1.0 / p)
    C2 = max(A3, A4, A5, A6)
    return BoundCertificate(
        kind="mountain-pass",
        lower=C1,
        upper=C2,
        constants={
            "A1": A1, "A2": A2, "A3": A3, "A4": A4, "A5": A5, "A6": A6,
            "M": M, "E0": E0, "C1": C1, "C2": C2,
        },
    )


# --- local minimum ------------------------------------------------------

_LADDER = 40  # radii r 2^-j tried by the ball radius and the energy-level bounds
_BOX_GRID = 21  # grid points per block of the sampled box


def _unit_box(blocks: int, grid: int) -> tuple:
    """The cube [-1, 1]^blocks sampled on a grid, one coordinate array per block."""
    axis = np.linspace(-1.0, 1.0, grid)
    return tuple(np.meshgrid(*(axis,) * blocks, indexing="ij"))


def _box_points(inst, radius: float, unit_box: tuple) -> list:
    """The box |t| <= b r, |s| <= d r: the unit box scaled by each block's embedding factor."""
    return [b * radius * unit for (b, _), unit in zip(inst.embedding.blocks, unit_box)]


def ball_radius(inst) -> float:
    """Largest ladder radius on whose sphere the energy is certified positive.

    With k unknown blocks, let D = 0.9 min_i 1/(p K_i^p) and let E(rho) be the sampled
    maximum of (F - D(|t|^p + |s|^p))_+ over the vertices, the w grid and the
    box |t| <= b rho, |s| <= d rho (s absent for one block).  The capped part
    of F integrates to at most 0.9 (||u||^p + ||v||^p)/p, and
    ||u||^p + ||v||^p >= k^{1-p} rho^p on the sphere ||u|| + ||v|| = rho, so there

        Phi >= 0.1 * k^{1-p} rho^p / p - vol * E(rho).

    The first radius rho = 2^-j at which this bound is positive is
    returned.  A start inside the ball with negative energy then has an
    interior minimizer with negative energy.  E is sampled, so the radius is
    an estimate, not exact.
    """
    p = inst.p
    if p != inst.q:
        raise SolverError("ball radius requires p == q")
    blocks = len(inst.spaces)
    vol = total_measure(inst.graph)
    D = 0.9 * inst.embedding.cap
    ws = inst.spec.w_grid(_W_GRID)
    unit_box = _unit_box(blocks, _BOX_GRID)
    for j in range(_LADDER):
        rho = 0.5**j
        points = _box_points(inst, rho, unit_box)
        cap = D * sum(np.abs(t) ** p for t in points) * (1.0 + 1e-9)
        budget = 0.1 * blocks ** (1.0 - p) * rho**p / (p * vol)
        if all(np.max(inst.nl.block_values("F", points, w) - cap) < budget for w in ws):
            return rho
    raise SolverError("(F2) margin not certifiable: no ladder radius qualifies")


def ball_projection(inst, rho: float):
    """Radial projection of a flat state onto the ball of radius rho."""
    def project(x):
        norm = inst.norm(x)
        if norm > rho:
            x = x * (rho / norm)
        return x

    return project


def spike_start(inst, rho: float) -> float:
    """Scale t0 of the local-min start t0 * spike: half of min{delta, rho / ||spike||}."""
    delta = inst.spec.delta if inst.spec.delta is not None else math.inf
    return 0.5 * min(delta, rho / inst.norm(inst.spike()))


def local_min_solve(
    inst, config: SolverConfig = None, rho: float = None, start=None
) -> SolveReport:
    """Projected descent inside the certified ball from a scaled spike start.

    ``rho`` is the ball radius (computed by ``ball_radius`` if None).  With a
    flat state ``start``, the descent from ``start`` is tried first and the
    spike start runs only if it fails.
    """
    config = config or SolverConfig()
    if inst.p != inst.q:
        raise SolverError("local minimum solver requires p == q")
    if rho is None:
        rho = ball_radius(inst)
    t0 = spike_start(inst, rho)
    weights = inst.weights
    project = ball_projection(inst, rho)
    if start is not None:
        warm = bb_minimize(
            inst.energy, inst.gradient, start, weights, project, tol=config.tol
        )
        report = _warm_report(inst, warm, "local-min", config, inst.bounds_min, t0, rho)
        if report is not None:
            return report
    result = bb_minimize(
        inst.energy, inst.gradient, t0 * inst.spike(), weights, project, tol=config.tol
    )
    cert, extra = certify(inst.bounds_min, t0, rho)
    if inst.norm(result.x) >= rho * (1.0 - 1e-9):
        extra += ("boundary minimum - not certified critical",)
    return solve_report(
        inst,
        result.x,
        "local-min",
        result.iterations,
        result.fevals,
        config,
        certificate=cert,
        extra_flags=extra,
    )


def energy_level_bounds(inst, t0: float, rho: float) -> BoundCertificate | None:
    """Norm bounds for the minimizer in the ball of radius rho from a negative-energy start.

    If the start t0 * spike has energy -eta < 0, the bounds need no growth
    constants: the minimizer z* lies in the ball, so ||z*|| <= rho; and
    Phi(z*) <= -eta gives int F(z*) >= eta, so ||z*|| exceeds every radius r
    with vol * max F < eta on the box |t| <= b r, |s| <= d r (sampled, down
    the ladder rho 2^-k; 0 if none qualifies).  Returns None if the start
    has nonnegative energy.
    """
    eta = -inst.energy(t0 * inst.spike())
    if eta <= 0:
        return None
    vol = total_measure(inst.graph)
    unit_box = _unit_box(len(inst.spaces), _BOX_GRID)
    lower = 0.0
    for k in range(_LADDER):
        r = rho * 0.5**k
        if vol * np.max(inst.nl.block_values("F", _box_points(inst, r, unit_box), inst.w)) < eta:
            lower = r
            break
    notes = ("energy-level bounds: the start has negative energy",)
    if lower == 0.0:
        notes += ("vacuous lower bound: no ladder radius qualifies",)
    return BoundCertificate(
        kind=inst.kind_prefix + "local-min",
        lower=lower,
        upper=rho,
        constants={"start_energy": -eta, "t0": t0, "rho": rho},
        notes=notes,
    )


def bound_certificate_min(inst: ProblemInstance, t0: float, rho: float) -> BoundCertificate:
    """Norm bounds for the minimizer in the ball of radius rho (p = q).

    The start is t0 (spike, spike).  If its energy is negative, the bounds
    are ``energy_level_bounds``.  A start with nonnegative energy falls back
    to C3 (from (H2), r1, r2 > p) and C4 (from (H1), theta > p).  Neither fits a negative-energy minimizer:
    (H1) forces Phi >= 0 at every critical point, and (H2) makes F = O(|t|^r)
    at the origin, against the spike floor F(x0, t, t) >= L t^p of (H4).
    """
    spec = inst.spec
    p, q = inst.p, inst.q
    if p != q:
        raise CertificateError("local-min certificate requires p == q")
    cert = energy_level_bounds(inst, t0, rho)
    if cert is not None:
        return cert
    spike = inst.split(inst.spike())[0]
    _require(spec, ("c1", "c2", "r1", "r2"), "lower bound")
    _require(spec, ("theta",), "upper bound")
    th = spec.theta
    if th <= p:
        raise CertificateError("constraint violated: theta - p must be positive")
    mx, mn = max(spec.r1, spec.r2), min(spec.r1, spec.r2)
    if mn <= p:
        raise CertificateError("constraint violated: min{r1,r2} - p must be positive")
    (b, _), (d, _) = inst.embedding.blocks
    vol = total_measure(inst.graph)
    M = max(spec.c1, spec.c2) * max(b**spec.r1, d**spec.r2)
    C3 = min(
        (1.0 / (2.0**p * vol * M)) ** (1.0 / (mx - p)),
        (1.0 / (2.0 ** (p - 1) * vol * M)) ** (1.0 / (mn - p)),
    )
    nu = w_norm(inst.graph, spike, inst.spaces[0]) ** p
    nv = w_norm(inst.graph, spike, inst.spaces[1]) ** p
    C4 = (th * 2.0 ** (p - 1) * t0**p * (nu + nv) / (p * (th - p))) ** (1.0 / p)
    notes = ()
    if C4 < C3:
        notes = ("degenerate certificate: upper bound below lower bound",)
    return BoundCertificate(
        kind="local-min",
        lower=C3,
        upper=C4,
        constants={"C3": C3, "C4": C4, "M": M, "t0": t0, "rho": rho},
        notes=notes,
    )


# --- uniqueness ---------------------------------------------------------

_UNIQUE_STARTS = 50  # random starts in the ball that must reach one minimizer
_POLISH_BATCH_BYTES = 1 << 24  # the stacked Jacobians of one batch of multistart polishes


@dataclass
class UniquenessReport:
    certified: bool
    margin: float
    C_p: float
    monotonicity_ok: bool
    monotonicity_min_slack: float
    h5_verdict: str
    multistart_spread: float
    notes: tuple = ()


def monotonicity_constant(p: float) -> float:
    """Sharp constant in (|x|^{p-2}x - |y|^{p-2}y)(x-y) >= C |x-y|^p, p >= 2."""
    if p < 2:
        raise ValueError("p must be >= 2")
    return 2.0 ** (2.0 - p)


def _check_monotonicity(p: float, grid: int = 100, span: float = 3.0) -> tuple:
    cp = monotonicity_constant(p)
    xs = np.linspace(-span, span, grid)
    min_slack = math.inf
    ok = True
    for x in xs:
        lhs = (np.abs(x) ** (p - 2) * x - np.abs(xs) ** (p - 2) * xs) * (x - xs)
        rhs = cp * np.abs(x - xs) ** p
        slack = float(np.min(lhs - rhs))
        min_slack = min(min_slack, slack)
        if slack < -1e-10:
            ok = False
    return ok, min_slack


def uniqueness_certificate(
    inst: ProblemInstance, config: SolverConfig = None
) -> UniquenessReport:
    """Contraction-style uniqueness screen for the local minimizer.

    Besides the margin, monotonicity and (H5), at least 2 multistart
    minimizers must converge inside the ball and agree.
    """
    config = config or SolverConfig()
    p, q = inst.p, inst.q
    if p != q:
        raise SolverError("uniqueness certificate requires p == q")
    cp = monotonicity_constant(p)
    monotonicity_ok, monotonicity_slack = _check_monotonicity(p)
    notes = []
    try:
        rho, rho_error = ball_radius(inst), None
    except SolverError as err:
        rho, rho_error = None, err

    d_fields = block_fields(len(inst.spaces), "d")
    ds = [getattr(inst.spec, f) for f in d_fields]
    if None in ds:
        margin = -math.inf
        notes.append(f"{'/'.join(d_fields)} not provided; margin unavailable")
        h5_verdict = "inconclusive"
    else:
        margin = cp / 2.0 ** (p - 1) - max(ds) * total_measure(inst.graph)
        try:
            if rho is None:
                raise rho_error
            cert = inst.bounds_min(spike_start(inst, rho), rho)
            h5_radius = cert.upper * inst.embedding.cap
        except (SolverError, CertificateError) as err:
            h5_radius = None
            notes.append(f"ball radius for Lipschitz screen unavailable: {err}")
        h5_verdict = lipschitz_screen(
            inst.nl, inst.spec, inst.graph, inst.spaces, SamplingConfig(seed=config.seed),
            h5_radius,
        ).verdict

    # multistart agreement: all interior converged minimizers must coincide
    solutions = []
    if rho is None:
        notes.append(f"multistart skipped: {rho_error}")
    else:
        weights = inst.weights
        project = ball_projection(inst, rho)
        rng = np.random.default_rng(config.seed)
        for _ in range(_UNIQUE_STARTS):
            x0 = project(rng.uniform(-rho, rho, size=weights.size))
            res = bb_minimize(inst.energy, inst.gradient, x0, weights, project, tol=config.tol)
            if res.converged and inst.norm(res.x) < rho * (1.0 - 1e-9):
                solutions.append(res.x)
    spread = max((inst.norm(a - b) for a, b in itertools.combinations(solutions, 2)), default=0.0)

    certified = (
        monotonicity_ok
        and margin > 0
        and h5_verdict in ("pass", "pass (sampled)")
        and spread < 1e-6
    )
    if certified and len(solutions) < 2:  # a spread of one minimizer, or none, is 0
        certified = False
        notes.append(f"{len(solutions)} interior minimizers converged; agreement needs 2")
    return UniquenessReport(
        certified=certified,
        margin=margin,
        C_p=cp,
        monotonicity_ok=monotonicity_ok,
        monotonicity_min_slack=monotonicity_slack,
        h5_verdict=h5_verdict,
        multistart_spread=spread,
        notes=tuple(notes),
    )


# --- nonexistence -------------------------------------------------------

@dataclass
class NonexistenceReport:
    certified: bool
    sign_verdict: str
    sign_witness: tuple
    mechanism_ok: bool
    worst_pairing: float
    multistart_max_norm: float = None
    notes: tuple = ()


def nonexistence_check(
    inst, config: SolverConfig = None, multistart: int = 0
) -> NonexistenceReport:
    """Screen the sign condition ruling out nontrivial critical points.

    If the radial pairing F_u u + F_v v (F_u u for a scalar problem) is
    negative off the origin, no state can satisfy the critical-point
    identity, so only the trivial solution exists; a NaN pairing is no
    evidence of the sign; the pairings of the 100 random states are
    evaluated in one call.  Optionally confirms by driving the gradient to
    zero from random starts and recording the largest norm reached (None,
    with a note, if no start converged).  The starts are drawn at once and
    polished in lockstep by ``polish_roots``, in batches whose stacked
    Jacobians stay under ``_POLISH_BATCH_BYTES``; each ends as its polish
    alone would.  Then, start by start, a Newton polish that stops short of
    tol from a finite start is retried by ``least_squares_retry``, which
    converges from some starts of this multistart where Newton does not (no
    solve needs it).  A state below ``trivial_norm`` counts as the trivial
    solution, norm 0; the norms of the converged states come from one call.
    A converged state at or above it is a nontrivial critical point, which
    refutes the certificate.
    """
    if multistart < 0:
        raise ValueError(f"multistart must be >= 0, got {multistart}")
    config = config or SolverConfig()
    screen = sign_screen(inst.nl, inst.spec, inst.graph, len(inst.spaces))
    verdict, witness = screen.verdict, screen.witness
    notes = [f"sign screen inconclusive: {screen.detail}"] if verdict == "inconclusive" else []

    # contradiction mechanism on random nontrivial states
    rng = np.random.default_rng(config.seed)
    weights = inst.weights
    X = rng.standard_normal((100, weights.size))
    X = X[np.any(X, axis=1)]
    pairings = integral(inst.graph, sum(inst.split(inst.coupling_grad(X) * X)))
    worst = max([-math.inf, *pairings.tolist()])  # the NaN pairings left out
    mechanism_ok = bool(np.all(pairings < 0))  # a NaN pairing is no evidence of the sign
    nan_pairings = int(np.sum(np.isnan(pairings)))
    if nan_pairings:
        notes.append(f"{nan_pairings} mechanism pairings are NaN")

    X0 = rng.uniform(-2.0, 2.0, size=(multistart, weights.size))
    batch = max(1, _POLISH_BATCH_BYTES // (8 * weights.size**2))  # starts per batch
    polished = []
    for b in range(0, multistart, batch):
        polished += polish_roots(inst.gradient, X0[b : b + batch], weights, inst.jacobian,
                                 config.tol)
    roots = []
    for x0, res in zip(X0, polished):
        if not res.converged and res.message != "non-finite residual":
            res = least_squares_retry(
                inst.gradient, x0, weights, inst.jacobian, res, tol=config.tol
            )
        if res.converged:
            roots.append(res.x)
    failed = multistart - len(roots)
    if failed:
        notes.append(f"{failed} of {multistart} multistart polishes failed to converge")
    norms = inst.norm(np.array(roots)) if roots else np.zeros(0)
    # as in solve_report's "trivial" flag: the residual cannot tell it from zero
    small = norms < trivial_norm(inst, config.tol)
    trivial = int(np.sum(small))
    norms = np.where(small, 0.0, norms).tolist()
    if trivial:
        notes.append(f"{trivial} of {multistart} multistart polishes reached the trivial solution")
    if multistart > 0 and not norms:
        notes.append("no multistart polish converged")
    certified = verdict == "pass (sampled)" and mechanism_ok
    if certified and len(norms) > trivial:
        certified = False
        notes.append(
            f"{len(norms) - trivial} of {multistart} multistart polishes reached "
            "a nontrivial critical point"
        )
    return NonexistenceReport(
        certified=certified,
        sign_verdict=verdict,
        sign_witness=witness,
        mechanism_ok=mechanism_ok,
        worst_pairing=worst,
        multistart_max_norm=max(norms, default=None),
        notes=tuple(notes),
    )
