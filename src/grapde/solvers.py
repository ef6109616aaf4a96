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
import math
from dataclasses import dataclass

import numpy as np

from ._optim import bb_minimize, path_saddle, polish_root
from .energy import ProblemInstance, phi  # noqa: F401  phi: bench/tracing.py requires this binding
from .graph import StatePair, VertexFunction, integral, total_measure
from .nonlinearity import SamplingConfig, block_fields, lipschitz_screen, sign_screen
from .spaces import w_norm

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
    w_grid: int = 21
    multistart: int = 50
    seed: int = 0


@dataclass
class BoundCertificate:
    kind: str  # mountain-pass | local-min
    lower: float
    upper: float
    constants: dict
    endpoint: tuple = None
    norm: float = None
    satisfied: bool = None
    notes: tuple = ()

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "lower": self.lower,
            "upper": self.upper,
            "constants": {k: float(v) for k, v in self.constants.items()},
            "norm": self.norm,
            "satisfied": self.satisfied,
            "notes": list(self.notes),
        }


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

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            **self.state.to_dict(),
            "energy": self.energy,
            "residual": self.residual,
            "iterations": self.iterations,
            "fevals": self.fevals,
            "converged": self.converged,
            "certificate": self.certificate.to_dict() if self.certificate else None,
            "flags": list(self.flags),
        }


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


def negative_endpoint(inst, config: SolverConfig = None) -> tuple:
    """Scaled spike state with negative energy uniformly across the w grid.

    The scaling is doubled until the energy is negative at every grid
    parameter, so the resulting upper bound constant does not depend on w.
    Returns the blocks: (u, v), or (u,) for a scalar problem.
    """
    config = config or SolverConfig()
    direction = inst.spike()
    ws = inst.spec.w_grid(config.w_grid)
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


def mountain_pass_solve(inst, config: SolverConfig = None, endpoint: tuple = None) -> SolveReport:
    """Saddle search: path deformation to locate the peak, then residual polish."""
    config = config or SolverConfig()
    if endpoint is None:
        endpoint = negative_endpoint(inst, config)
    weights = inst.weights
    peak, outer, fevals, coarse_ok = path_saddle(
        inst.energy,
        inst.gradient,
        weights,
        np.concatenate(endpoint),
        n_nodes=config.path_nodes,
    )
    polish = polish_root(inst.gradient, peak, weights, tol=config.tol)
    cert, extra = certify(inst.bounds_mp, endpoint)
    if not coarse_ok and not polish.converged:
        extra = extra + ("path deformation did not reach coarse tolerance",)
    return solve_report(
        inst,
        polish.x,
        "mountain-pass",
        outer + polish.iterations,
        fevals + polish.fevals,
        config,
        certificate=cert,
        extra_flags=extra,
    )


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
        endpoint=endpoint,
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


def ball_radius(inst, config: SolverConfig = None) -> float:
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
    config = config or SolverConfig()
    p = inst.p
    if p != inst.q:
        raise SolverError("ball radius requires p == q")
    blocks = len(inst.spaces)
    vol = total_measure(inst.graph)
    D = 0.9 * inst.embedding.cap
    ws = inst.spec.w_grid(config.w_grid)
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


def local_min_solve(inst, config: SolverConfig = None) -> SolveReport:
    """Projected descent inside the certified ball from a scaled spike start."""
    config = config or SolverConfig()
    if inst.p != inst.q:
        raise SolverError("local minimum solver requires p == q")
    rho = ball_radius(inst, config)
    t0 = spike_start(inst, rho)
    weights = inst.weights
    result = bb_minimize(
        inst.energy,
        inst.gradient,
        t0 * inst.spike(),
        weights,
        tol=config.tol,
        project=ball_projection(inst, rho),
    )
    x = result.x
    if not result.converged:
        polish = polish_root(inst.gradient, x, weights, tol=config.tol)
        if inst.norm(polish.x) <= rho and polish.residual < result.residual:
            x = polish.x
    cert, extra = certify(inst.bounds_min, t0, rho)
    if inst.norm(x) >= rho * (1.0 - 1e-9):
        extra += ("boundary minimum - not certified critical",)
    return solve_report(
        inst,
        x,
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

    def to_dict(self) -> dict:
        return {
            "certified": self.certified,
            "margin": self.margin,
            "C_p": self.C_p,
            "monotonicity_ok": self.monotonicity_ok,
            "monotonicity_min_slack": self.monotonicity_min_slack,
            "h5_verdict": self.h5_verdict,
            "multistart_spread": self.multistart_spread,
            "notes": list(self.notes),
        }


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
    """Contraction-style uniqueness screen for the local minimizer."""
    config = config or SolverConfig()
    p, q = inst.p, inst.q
    if p != q:
        raise SolverError("uniqueness certificate requires p == q")
    cp = monotonicity_constant(p)
    monotonicity_ok, monotonicity_slack = _check_monotonicity(p)
    notes = []

    d_fields = block_fields(len(inst.spaces), "d")
    ds = [getattr(inst.spec, f) for f in d_fields]
    if None in ds:
        margin = -math.inf
        notes.append(f"{'/'.join(d_fields)} not provided; margin unavailable")
        h5_verdict = "inconclusive"
    else:
        margin = cp / 2.0 ** (p - 1) - max(ds) * total_measure(inst.graph)
        try:
            rho = ball_radius(inst, config)
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
    try:
        rho = ball_radius(inst, config)
    except SolverError as err:
        notes.append(f"multistart skipped: {err}")
        rho = None
    if rho is not None:
        weights = inst.weights
        project = ball_projection(inst, rho)
        rng = np.random.default_rng(config.seed)
        for _ in range(config.multistart):
            x0 = project(rng.uniform(-rho, rho, size=weights.size))
            res = bb_minimize(
                inst.energy, inst.gradient, x0, weights, tol=config.tol, project=project
            )
            if res.converged and inst.norm(res.x) < rho * (1.0 - 1e-9):
                solutions.append(res.x)
    spread = max((inst.norm(a - b) for a, b in itertools.combinations(solutions, 2)), default=0.0)

    certified = (
        monotonicity_ok
        and margin > 0
        and h5_verdict in ("pass", "pass (sampled)")
        and spread < 1e-6
    )
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

    def to_dict(self) -> dict:
        return {
            "certified": self.certified,
            "sign_verdict": self.sign_verdict,
            "sign_witness": list(self.sign_witness) if self.sign_witness else None,
            "mechanism_ok": self.mechanism_ok,
            "worst_pairing": self.worst_pairing,
            "multistart_max_norm": self.multistart_max_norm,
            "notes": list(self.notes),
        }


def nonexistence_check(
    inst,
    sampling: SamplingConfig = None,
    config: SolverConfig = None,
    multistart: int = 0,
) -> NonexistenceReport:
    """Screen the sign condition ruling out nontrivial critical points.

    If the radial pairing F_u u + F_v v (F_u u for a scalar problem) is
    negative off the origin, no state can satisfy the critical-point
    identity, so only the trivial solution exists.  Optionally confirms by
    driving the gradient to zero from random starts and recording the
    largest norm reached (None, with a note, if no start converged).
    """
    config = config or SolverConfig()
    sampling = sampling or SamplingConfig(seed=config.seed)
    screen = sign_screen(inst.nl, inst.spec, inst.graph, len(inst.spaces), sampling)
    verdict, witness = screen.verdict, screen.witness

    # contradiction mechanism on random nontrivial states
    rng = np.random.default_rng(sampling.seed)
    weights = inst.weights
    worst = -math.inf
    mechanism_ok = True
    for _ in range(100):
        x = rng.standard_normal(weights.size)
        if not np.any(x):
            continue
        pairing = integral(inst.graph, sum(inst.split(inst.coupling_grad(x) * x)))
        worst = max(worst, pairing)
        if pairing >= 0:
            mechanism_ok = False

    norms = []
    notes = []
    for _ in range(multistart):
        x0 = rng.uniform(-2.0, 2.0, size=weights.size)
        res = polish_root(inst.gradient, x0, weights, tol=config.tol)
        if res.converged:
            norms.append(inst.norm(res.x))
        else:
            notes.append("a multistart polish failed to converge")
    if multistart > 0 and not norms:
        notes.append("no multistart polish converged")
    certified = verdict == "pass (sampled)" and mechanism_ok
    return NonexistenceReport(
        certified=certified,
        sign_verdict=verdict,
        sign_witness=witness,
        mechanism_ok=mechanism_ok,
        worst_pairing=worst,
        multistart_max_norm=max(norms, default=None),
        notes=tuple(notes),
    )
