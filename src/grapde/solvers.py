"""Critical-point solvers and norm-bound certificates.

Two families of solutions are computed: saddle points found by deforming a
discretized path between the origin and a negative-energy state (the min-max
characterization), and negative-energy local minimizers found by projected
descent inside a certified ball.  A cold saddle search runs first on
hop-balls around the endpoint's support (``energy.Restriction``), and its
root counts only once it is checked on the whole graph.  Each converged state gets a certificate
sandwiching its product norm between explicit constants built from the graph
data and the hypothesis constants.

The drivers and the certificates see a problem only through its flat-vector
surface and its blocks' spaces (see ``energy.FlatProblem``), so the same code
serves the two-block system and the one-block scalar problem: there is one
certificate function per solution type, and the scalar problem's primed
constants are its one-block case.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from ._optim import (
    bb_minimize, least_squares_retry, path_saddle, polish_root, polish_roots, weighted_norm,
)
# phi: bench/tracing.py requires this binding
from .energy import FlatProblem, Restriction, phi  # noqa: F401
from .graph import StatePair, VertexFunction, hop_ball, integral, total_measure
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
    if certificate is not None:  # the report's own copy: a sweep shares one certificate
        satisfied = bool(certificate.lower <= norm <= certificate.upper)
        certificate = replace(certificate, norm=norm, satisfied=satisfied)
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
    A NaN energy at a grid parameter raises a ``SolverError`` naming the scaling and w.
    Returns the blocks: (u, v), or (u,) for a scalar problem.
    """
    direction = inst.spike()
    ws = inst.spec.w_grid(_W_GRID)
    t = 1.0
    with np.errstate(over="ignore", invalid="ignore"):  # a NaN energy is named below
        for _ in range(_MAX_DOUBLINGS):
            x = t * direction
            for w, e in zip(ws, inst.energies(x, ws)):
                if not e < 0:
                    if math.isnan(e):
                        raise SolverError(f"cannot certify (F3) numerically: the energy of {t:g}"
                                          f" times the spike is NaN at w = {w:g}")
                    break
            else:
                return tuple(b.copy() for b in inst.split(x))
            t *= 2.0
    raise SolverError(
        "cannot certify (F3) numerically: no negative-energy endpoint after "
        f"{_MAX_DOUBLINGS} doublings"
    )


def _warm_report(inst, res, kind, config, certified):
    """Report of a warm descent, or None if the driver must fall back to its cold search.

    ``certified`` is the (certificate, flags) pair of ``certify``.  The
    descent must converge, and its report must be converged and flagged
    neither ``trivial`` nor, for a saddle, ``type-uncertain``.
    """
    if not res.converged:
        return None
    cert, flags = certified
    report = solve_report(
        inst, res.x, kind, res.iterations, res.fevals, config,
        certificate=cert, extra_flags=flags + ("warm start",),
    )
    if report.converged and not {"trivial", "type-uncertain"} & set(report.flags):
        return report
    return None


class _Acceptance:
    """The rule by which the saddle search takes a trial's root x on ``problem``.

    x must be nontrivial, with energy at most the path's peak energy (an
    upper bound on the mountain-pass level) and Morse index 1.  A root
    rejected as trivial or for its index is remembered, and a later root
    within ``_SAME_ROOT`` of one is rejected without a new index.  ``peak``
    is the peak energy against which the last root was taken.
    """

    def __init__(self, problem, tol):
        self.problem = problem
        self.weights = problem.weights
        self.floor = trivial_norm(problem, tol)
        self.rejected = []  # roots rejected for a property of the point alone
        self.peak = None

    def __call__(self, x, peak_energy) -> bool:
        problem = self.problem
        if any(weighted_norm(self.weights, x - r) <= _SAME_ROOT for r in self.rejected):
            return False
        if problem.norm(x) < self.floor:
            self.rejected.append(x)
            return False
        if problem.energy(x) > peak_energy:  # depends on the path, so not remembered
            return False
        if problem.morse_index(x) != 1:
            self.rejected.append(x)
            return False
        self.peak = peak_energy
        return True


def _saddle(problem, endpoint, config) -> tuple:
    """``path_saddle`` on ``problem`` from 0 to the flat ``endpoint``, with ``_Acceptance``.

    Returns (point, sweeps, fevals, peak): ``peak`` is the peak energy
    against which the point was accepted, None if no trial was.
    """
    accept = _Acceptance(problem, config.tol)
    x, outer, fevals, accepted = path_saddle(
        problem.energy, problem.gradient, problem.weights, endpoint, problem.jacobian, accept,
        n_nodes=config.path_nodes, tol=config.tol,
    )
    log.info("%s after %d sweeps", "accepted trial" if accepted else "no trial accepted", outer)
    return x, outer, fevals, accept.peak if accepted else None


_BALL_HOPS = 8  # hops of the first ball around the endpoint; each next ball has twice as many
_BALL_SHARE = 0.5  # a ball of more than this share of the vertices gives way to the full solve


def _ball_saddle(inst, endpoint, config) -> tuple:
    """A saddle found on a hop-ball B around the endpoint's support and checked on the whole graph.

    The saddle search runs on ``Restriction(inst, B)``: its path is a path of
    the full problem with the same energies, so its peak still bounds the
    mountain-pass level.  The root counts once its extension by 0 has a
    full-graph residual of at most tol and full Morse index 1
    (``Restriction.full_index``).  Until then B doubles its hops, and the
    root is polished on the larger ball from its extension; the polished
    root must pass the same acceptance rule against the first peak energy.
    Returns (full state, sweeps, fevals, |B|), or None once B would hold
    more than ``_BALL_SHARE`` of the vertices or stops growing (its
    component is covered), the search accepts no trial or a polish fails.
    """
    n = inst.graph.n
    support = np.any(np.reshape(endpoint, (-1, n)) != 0, axis=0)
    radius, size, x = _BALL_HOPS, 0, None
    while True:
        mask = hop_ball(inst.graph, support, radius)
        if not size < np.count_nonzero(mask) <= _BALL_SHARE * n:  # no larger ball, or too large
            return None
        ball = Restriction(inst, mask)
        size = ball.size
        if x is None:
            y, outer, fevals, peak = _saddle(ball, ball.cut(endpoint), config)
            if peak is None:
                return None
        else:
            res = polish_root(ball.gradient, ball.cut(x), ball.weights, ball.jacobian, config.tol)
            fevals += res.fevals
            if not (res.converged and _Acceptance(ball, config.tol)(res.x, peak)):
                return None
            y = res.x
        x = ball.extend(y)
        residual = inst.residual(x)
        index = ball.full_index(y)[0] if residual <= config.tol else None
        log.info("ball of %d hops, %d vertices: residual %.3g, index %s",
                 radius, size, residual, index)
        if index == 1:
            return x, outer, fevals, size
        radius *= 2


def mountain_pass_solve(
    inst, config: SolverConfig = None, endpoint: tuple = None, start=None, certified=None
) -> SolveReport:
    """Saddle search: path deformation with Newton trials from the path's peak.

    The path deformation ends as soon as a Newton trial from its peak reaches
    a critical point that is a mountain-pass point by evidence
    (``_Acceptance``): nontrivial, with energy at most the path's peak
    energy and Morse index 1.  A cold solve first searches on hop-balls
    around the endpoint (``_ball_saddle``), whose report is flagged with the
    ball's size, and otherwise on the whole graph.  It reports the accepted
    root, or else the best-residual peak of the whole graph's search, not
    converged and flagged; ``iterations`` counts the path sweeps.  With a
    flat state ``start`` (the previous point of a sweep), the polish from
    ``start`` is tried first and the path search runs only if it fails.
    ``certified`` is ``certify(bound_certificate_mp, inst, endpoint)``,
    which a sweep builds once for all its points.
    """
    config = config or SolverConfig()
    if endpoint is None:
        endpoint = negative_endpoint(inst)
    certified = certified or certify(bound_certificate_mp, inst, endpoint)
    if start is not None:
        warm = polish_root(inst.gradient, start, inst.weights, inst.jacobian, tol=config.tol)
        report = _warm_report(inst, warm, "mountain-pass", config, certified)
        if report is not None:
            return report
    cert, extra = certified
    flat = np.concatenate(endpoint)
    found = _ball_saddle(inst, flat, config)
    if found is None:
        x, outer, fevals, peak = _saddle(inst, flat, config)
        accepted = peak is not None
        if not accepted:
            extra += ("path deformation did not reach coarse tolerance",)
    else:
        x, outer, fevals, size = found
        accepted = True
        extra += (f"localized: {size} of {inst.graph.n} vertices",)
    report = solve_report(
        inst, x, "mountain-pass", outer, fevals, config, certificate=cert, extra_flags=extra
    )
    report.converged = report.converged and accepted  # a peak is not a root that accept took
    return report


def _require(spec, names, what):
    missing = [n for n in names if getattr(spec, n) is None]
    if missing:
        raise CertificateError(f"{what} requires constants {missing}")


def _growth_cap(inst) -> tuple:
    """(lower-bound terms, M) of the growth cap (H2), one term per block.

    With M = max_i c_i * max_i b_i^{r_i}, block i of exponent s paired with
    the other block's exponent s' (its own for one block) gives the term

        min{(2^s vol M)^(-1/(max r - s')), (2^(s-1) vol M)^(-1/(min r - s))}.

    The smallest term is the mountain-pass C1 and, at p = q, the local-min
    C3.  For one block it is the primed (2^p vol c1 b^r1)^(-1/(r1 - p)).
    """
    spec, blocks = inst.spec, len(inst.spaces)
    cs, rs = ([getattr(spec, f) for f in block_fields(blocks, stem)] for stem in ("c", "r"))
    exps = [space.ord.s for space in inst.spaces]
    vol = total_measure(inst.graph)
    M = max(cs) * max(b**r for (b, _), r in zip(inst.embedding.blocks, rs))
    terms = [
        min(
            (1.0 / (2.0**s * vol * M)) ** (1.0 / (max(rs) - other)),
            (1.0 / (2.0 ** (s - 1) * vol * M)) ** (1.0 / (min(rs) - s)),
        )
        for s, other in zip(exps, exps[::-1])
    ]
    return terms, M


def bound_certificate_mp(inst: FlatProblem, endpoint: tuple) -> BoundCertificate:
    """Lower/upper norm bounds for saddle solutions from the hypothesis constants.

    ``endpoint`` holds the blocks of the negative-energy endpoint.  The lower
    bound C1 is the smallest ``_growth_cap`` term.  With E0 = sum_i
    ||z0_i||^{s_i} / s_i over the endpoint's blocks, each block's
    base s theta 2^(s-1) E0 / (theta - s) is raised to 1/s for its own
    exponent and then the other block's; C2 is the largest of these.  With
    one block, C1 and C2 are the primed C1' and C2'.
    """
    spec, blocks = inst.spec, len(inst.spaces)
    _require(spec, ("theta", *block_fields(blocks, "c", "r")), "mountain-pass certificate")
    th = spec.theta
    r_names = block_fields(blocks, "r")
    rs = [getattr(spec, f) for f in r_names]
    exps = [space.ord.s for space in inst.spaces]
    r_set = "{" + ",".join(r_names) + "}"
    named = list(zip(("p", "q"), exps))
    gaps = []
    for (name, s), (other_name, other) in zip(named, named[::-1]):
        gaps += [(f"max{r_set} - {other_name}", max(rs) - other),
                 (f"min{r_set} - {name}", min(rs) - s)]
    gaps += [(f"theta - {name}", th - s) for name, s in named]
    for label, value in gaps:
        if value <= 0:
            raise CertificateError(f"constraint violated: {label} must be positive")
    lowers, M = _growth_cap(inst)
    E0 = sum(
        w_norm(inst.graph, z, space) ** s / s for z, space, s in zip(endpoint, inst.spaces, exps)
    )
    bases = [s * th * 2.0 ** (s - 1) * E0 / (th - s) for s in exps]
    uppers = [base ** (1.0 / s) for i, base in enumerate(bases) for s in exps[i:] + exps[:i]]
    C1, C2 = min(lowers), max(uppers)
    return BoundCertificate(
        kind=inst.kind_prefix + "mountain-pass",
        lower=C1,
        upper=C2,
        constants={
            **{f"A{k}": a for k, a in enumerate(lowers + uppers, 1)},
            "M": M, "E0": E0, "C1": C1, "C2": C2,
        },
    )


# --- local minimum ------------------------------------------------------

_LADDER = 40  # radii r 2^-j tried by the ball radius and the energy-level bounds
_BOX_GRID = 21  # grid points per block of the sampled box


def _below(values, bound, radius: float, w: float, error) -> bool:
    """Whether every sample of a certificate's box scan is below ``bound``.

    A sample at or above it decides False; else a NaN sample raises
    ``error`` naming the radius of the box and w.
    """
    if np.any(values >= bound):
        return False
    if np.all(values < bound):
        return True
    raise error(f"F is NaN at a sample of the box of radius {radius:g} at w = {w:g}")


def _first_radius(inst, top: float, ws, bound, error):
    """The first ladder radius r = top 2^-j whose sampled box passes at every w of ``ws``, or None.

    The box of radius r is |t| <= b r, |s| <= d r (s absent for one block) on
    ``_BOX_GRID`` points per block.  ``bound(r, points)`` gives (excess, limit)
    once per radius, and the box passes at w if ``_below(excess(F), limit)``.
    """
    unit_box = np.meshgrid(*(np.linspace(-1.0, 1.0, _BOX_GRID),) * len(inst.spaces), indexing="ij")
    with np.errstate(over="ignore", invalid="ignore"):  # judged by _below
        for r in (top * 0.5**j for j in range(_LADDER)):
            points = [b * r * unit for (b, _), unit in zip(inst.embedding.blocks, unit_box)]
            excess, limit = bound(r, points)
            if all(_below(excess(inst.nl.block_values("F", points, w)), limit, r, w, error)
                   for w in ws):
                return r
    return None


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
    an estimate, not exact; a radius where no sample exceeds the budget but
    one is NaN stops the scan with a ``SolverError`` that names it.
    """
    p = inst.p
    if p != inst.q:
        raise SolverError("ball radius requires p == q")
    blocks = len(inst.spaces)
    vol = total_measure(inst.graph)
    D = 0.9 * inst.embedding.cap

    def error(reason):
        return SolverError(f"(F2) margin not certifiable: {reason}")

    def bound(rho, points):
        cap = D * sum(np.abs(t) ** p for t in points) * (1.0 + 1e-9)
        return (lambda F: F - cap), 0.1 * blocks ** (1.0 - p) * rho**p / (p * vol)

    rho = _first_radius(inst, 1.0, inst.spec.w_grid(_W_GRID), bound, error)
    if rho is None:
        raise error("no ladder radius qualifies")
    return rho


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
    certified = certify(bound_certificate_min, inst, t0, rho)
    if start is not None:
        warm = bb_minimize(
            inst.energy, inst.gradient, start, weights, project, tol=config.tol
        )
        report = _warm_report(inst, warm, "local-min", config, certified)
        if report is not None:
            return report
    result = bb_minimize(
        inst.energy, inst.gradient, t0 * inst.spike(), weights, project, tol=config.tol
    )
    cert, extra = certified
    if inst.norm(result.x) >= rho * (1.0 - 1e-9):
        extra += ("boundary minimum - not certified critical",)
    return solve_report(inst, result.x, "local-min", result.iterations, result.fevals, config,
                        certificate=cert, extra_flags=extra)


def energy_level_bounds(inst, t0: float, rho: float) -> BoundCertificate | None:
    """Norm bounds for the minimizer in the ball of radius rho from a negative-energy start.

    If the start t0 * spike has energy -eta < 0, the bounds need no growth
    constants: the minimizer z* lies in the ball, so ||z*|| <= rho; and
    Phi(z*) <= -eta gives int F(z*) >= eta, so ||z*|| exceeds every radius r
    with vol * max F < eta on the box |t| <= b r, |s| <= d r (sampled, down
    the ladder rho 2^-k; 0 if none qualifies).  Returns None if the start
    has nonnegative energy.  A NaN start energy, or a radius where no sample
    reaches eta but one is NaN, raises a ``CertificateError`` that names it.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # a NaN is named below
        eta = -inst.energy(t0 * inst.spike())
    if eta <= 0:
        return None
    if math.isnan(eta):
        raise CertificateError(f"the start energy is NaN at w = {inst.w:g}")
    vol = total_measure(inst.graph)
    lower = _first_radius(inst, rho, [inst.w], lambda r, points: ((lambda F: vol * F), eta),
                          CertificateError) or 0.0
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


def bound_certificate_min(inst: FlatProblem, t0: float, rho: float) -> BoundCertificate:
    """Norm bounds for the minimizer in the ball of radius rho (p = q).

    The start is t0 * spike.  If its energy is negative, the bounds are
    ``energy_level_bounds``.  A start with nonnegative energy falls back to
    C3, the smallest ``_growth_cap`` term (from (H2), r_i > p), and C4 (from
    (H1), theta > p); with one block they are the primed C3' and C4'.
    Neither fits a negative-energy minimizer: (H1) forces Phi >= 0 at every
    critical point, and (H2) makes F = O(|t|^r) at the origin, against the
    spike floor F(x0, t, t) >= L t^p of (H4).
    """
    spec, blocks = inst.spec, len(inst.spaces)
    p = inst.p
    if p != inst.q:
        raise CertificateError("local-min certificate requires p == q")
    cert = energy_level_bounds(inst, t0, rho)
    if cert is not None:
        return cert
    _require(spec, block_fields(blocks, "c", "r"), "lower bound")
    _require(spec, ("theta",), "upper bound")
    th = spec.theta
    if th <= p:
        raise CertificateError("constraint violated: theta - p must be positive")
    r_names = block_fields(blocks, "r")
    if min(getattr(spec, f) for f in r_names) <= p:
        r_set = "{" + ",".join(r_names) + "}"
        raise CertificateError(f"constraint violated: min{r_set} - p must be positive")
    lowers, M = _growth_cap(inst)
    C3 = min(lowers)
    spike = inst.split(inst.spike())
    spike_norms = sum(w_norm(inst.graph, z, space) ** p for z, space in zip(spike, inst.spaces))
    # The two-block C4 divides by p inside the root and the primed C4' does
    # not; which one the theorem states stays open until its text is in the
    # repo (ROADMAP item 5), so each keeps its value.
    divisor = p if blocks == 2 else 1.0
    C4 = (th * 2.0 ** (p - 1) * t0**p * spike_norms / (divisor * (th - p))) ** (1.0 / p)
    notes = ()
    if C4 < C3:
        notes = ("degenerate certificate: upper bound below lower bound",)
    return BoundCertificate(
        kind=inst.kind_prefix + "local-min",
        lower=C3,
        upper=C4,
        constants={"C3": C3, "C4": C4, "M": M, "t0": t0, "rho": rho},
        notes=notes,
    )


# --- uniqueness ---------------------------------------------------------

_UNIQUE_STARTS = 50  # random starts in the ball that must reach one minimizer


@dataclass
class UniquenessReport:
    certified: bool
    margin: float
    C_p: float
    h5_verdict: str
    multistart_spread: float
    notes: tuple = ()


def monotonicity_constant(p: float) -> float:
    """Sharp constant in (|x|^{p-2}x - |y|^{p-2}y)(x-y) >= C |x-y|^p, p >= 2."""
    if p < 2:
        raise ValueError("p must be >= 2")
    return 2.0 ** (2.0 - p)


def uniqueness_certificate(
    inst: FlatProblem, config: SolverConfig = None
) -> UniquenessReport:
    """Contraction-style uniqueness screen for the local minimizer.

    It needs a positive margin (its C_p = 2^(2-p) is a lemma for p >= 2, not re-sampled),
    a passing (H5), and at least 2 converged interior multistart minimizers that agree.
    """
    config = config or SolverConfig()
    p, q = inst.p, inst.q
    if p != q:
        raise SolverError("uniqueness certificate requires p == q")
    cp = monotonicity_constant(p)
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
            cert = bound_certificate_min(inst, spike_start(inst, rho), rho)
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
        margin > 0
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
    polished in lockstep by ``polish_roots``; each ends as its polish alone
    would.  Then, start by start, a Newton polish that stops short of tol
    from a finite start is retried by ``least_squares_retry``, which
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
    roots = []
    for x0, res in zip(X0, polish_roots(inst.gradient, X0, weights, inst.jacobian, config.tol)):
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
