"""Nonlinear coupling terms: parsed expressions, partials, hypothesis screening.

A ``Nonlinearity`` bundles the source expression F(x, u, v, w), its exact
symbolic partials and the per-vertex coefficient tables.  The hypothesis
checker screens the growth/structure conditions by sampling; conditions that
are limits can only ever report "pass (sampled)".
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import expressions as ex
from .calculus import OperatorOrder
from .graph import WeightedGraph, asvalues
from .spaces import SpaceSpec, block_embedding, w_norm

__all__ = [
    "Nonlinearity",
    "HypothesisSpec",
    "SamplingConfig",
    "ConditionResult",
    "HypothesisReport",
    "block_fields",
    "check_hypotheses",
    "lipschitz_screen",
    "sign_screen",
    "builtin",
    "BUILTIN_NAMES",
]

BUILTIN_NAMES = (
    "mp-example",
    "localmin-example",
    "unique-example",
    "control-objective",
    "nonexist-example",
)


class NonlinearityError(ValueError):
    pass


@dataclass(frozen=True)
class Nonlinearity:
    """F with symbolic partials F_u, F_v bound to a graph's coefficient tables.

    Each of F, F_u and F_v is compiled (``expressions.compile_expr``) the
    first time it is evaluated, and the compiled code is kept.
    """

    graph: WeightedGraph
    F: ex.Expr
    coeffs: dict = field(default_factory=dict)
    Fu: ex.Expr = field(default=None, init=False)
    Fv: ex.Expr = field(default=None, init=False)
    # selector -> compiled expression, filled on first use
    _compiled: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    PARTIALS = ("Fu", "Fv")  # the selector of the partial in each unknown block

    def __post_init__(self):
        object.__setattr__(self, "Fu", ex.differentiate(self.F, "u"))
        object.__setattr__(self, "Fv", ex.differentiate(self.F, "v"))
        tables = {}
        for name, table in self.coeffs.items():
            if np.isscalar(table):
                tables[name] = np.full(self.graph.n, float(table))
            elif isinstance(table, dict):
                tables[name] = np.array(
                    [table[v] for v in self.graph.vertices], dtype=float
                )
            else:
                tables[name] = asvalues(self.graph, table)
        object.__setattr__(self, "coeffs", tables)
        needed = ex.coefficient_names(self.F)
        missing = needed - set(tables)
        if missing:
            raise NonlinearityError(f"missing coefficient tables: {sorted(missing)}")

    @classmethod
    def from_source(cls, graph, source, coeffs=None):
        return cls(graph, ex.parse_expr(source), dict(coeffs or {}))

    def _expr(self, which: str) -> ex.Expr:
        try:
            return {"F": self.F, "Fu": self.Fu, "Fv": self.Fv}[which]
        except KeyError:
            raise NonlinearityError(f"unknown selector {which!r}") from None

    def _fn(self, which: str):
        """The selected expression compiled by ``expressions.compile_expr``, once."""
        fn = self._compiled.get(which)
        if fn is None:
            fn = self._compiled[which] = ex.compile_expr(self._expr(which))
        return fn

    def eval(self, which: str, x, u_val, v_val, w_val):
        """Value at a single vertex (by id or index); u/v may be arrays."""
        i = self.graph.index[x] if isinstance(x, str) else int(x)
        env = {name: table[i] for name, table in self.coeffs.items()}
        env.update(u=u_val, v=v_val, w=w_val)
        return self._fn(which)(env)

    def values(self, which: str, u, v, w_val):
        """Vectorized evaluation across all vertices at once."""
        env = dict(self.coeffs)
        env.update(u=np.asarray(u, float), v=np.asarray(v, float), w=w_val)
        out = np.array(self._fn(which)(env), float)  # a copy: the result may be u itself
        if out.shape == (self.graph.n,):
            return out
        return np.broadcast_to(out, (self.graph.n,)).copy()

    @staticmethod
    def pair(blocks) -> tuple:
        """(u, v) from the values of one or two unknown blocks; one block has v = 0."""
        u, *rest = blocks
        return u, rest[0] if rest else np.zeros_like(u)

    def grid_values(self, which: str, t, s, w_val) -> np.ndarray:
        """Values at every vertex on shared sample points (t, s).

        The result has shape (n,) + broadcast(t, s).shape: row i holds the
        expression at vertex i with u = t and v = s.
        """
        shape = np.broadcast(t, s).shape
        full = (self.graph.n,) + shape
        lead = (self.graph.n,) + (1,) * len(shape)
        env = {name: table.reshape(lead) for name, table in self.coeffs.items()}
        env.update(u=np.asarray(t, float), v=np.asarray(s, float), w=w_val)
        out = np.asarray(self._fn(which)(env), float)
        # np.broadcast_to costs more than a small expression; skip it where it is a no-op
        return out if out.shape == full else np.broadcast_to(out, full)

    def block_values(self, which: str, coords, w_val) -> np.ndarray:
        """``grid_values`` at the points of block coordinates ``coords`` (v = 0 for one block)."""
        return self.grid_values(which, *self.pair(coords), w_val)


@dataclass
class HypothesisSpec:
    """Constants of the growth/structure conditions; unused ones stay None."""

    theta: float = None
    c1: float = None
    c2: float = None
    r1: float = None
    r2: float = None
    gamma1: float = None
    gamma2: float = None
    delta: float = None
    L: np.ndarray = None
    x0: str = None
    d1: float = None
    d2: float = None
    J: tuple = (-1.0, 1.0)
    a_floor: object = None  # callable r -> floor value of a(r)
    c_fn: np.ndarray = None

    def __post_init__(self):
        lo, hi = self.J
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            raise ValueError(f"parameter interval J={self.J} must be bounded and nonempty")

    def w_grid(self, k: int) -> np.ndarray:
        """k uniform parameters over J (the single point of a degenerate J)."""
        lo, hi = self.J
        return np.linspace(lo, hi, k) if hi > lo else np.array([lo])


@dataclass
class SamplingConfig:
    w_samples: int = 8
    angular_samples: int = 32
    small_radii: tuple = tuple(10.0**k for k in range(-6, 0))
    large_radii: tuple = (1e1, 1e2, 1e3, 1e4)
    box_radius: float = 10.0
    box_grid: int = 64
    moderate_radii: tuple = tuple(10.0**k for k in range(-3, 4))
    delta_samples: int = 16
    pair_samples: int = 200
    seed: int = 0


@dataclass
class ConditionResult:
    name: str
    verdict: str  # pass | pass (sampled) | fail | inconclusive
    witness: tuple = None
    detail: str = ""


@dataclass
class HypothesisReport:
    conditions: dict
    notes: list

    def to_dict(self) -> dict:
        return {
            "conditions": {
                n: {
                    "verdict": c.verdict,
                    "witness": list(c.witness) if c.witness else None,
                    "detail": c.detail,
                }
                for n, c in self.conditions.items()
            },
            "notes": list(self.notes),
        }


_SAMPLED = {True: "pass (sampled)", False: "fail"}  # verdict of a sampled condition


def block_fields(blocks: int, *stems: str) -> list:
    """Names of per-block constants: ``block_fields(2, "c", "r")`` is c1, c2, r1, r2."""
    return [f"{stem}{i}" for stem in stems for i in range(1, blocks + 1)]


def _given(name: str, spec: HypothesisSpec, fields) -> tuple:
    """(the values of ``fields``, None), or (None, the inconclusive result naming them)."""
    values = [getattr(spec, f) for f in fields]
    if any(v is None for v in values):
        return None, ConditionResult(name, "inconclusive", detail=f"{'/'.join(fields)} not provided")
    return values, None


def _default_spaces(p, q, ord1=None, ord2=None) -> tuple:
    """The two blocks (ord1, h1) and (ord2, h2), first order where ord1/ord2 are not given."""
    return (
        SpaceSpec(ord1 or OperatorOrder(1, p), "h1"),
        SpaceSpec(ord2 or OperatorOrder(1, q), "h2"),
    )


def _sphere(radius: float, blocks: int, samples: int) -> tuple:
    """Per block, the coordinates of points on the sphere of radius r in R^blocks:
    the points r, -r, or ``samples`` equally spaced angles from (r, 0)."""
    if blocks == 1:
        return (np.array([radius, -radius]),)
    ang = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
    return radius * np.cos(ang), radius * np.sin(ang)


def _radial(nl: Nonlinearity, coords, w) -> np.ndarray:
    """The radial pairing F_u t + F_v s (F_u t for one block) at every vertex and point."""
    terms = [nl.block_values(which, coords, w) * c for which, c in zip(nl.PARTIALS, coords)]
    return sum(terms[1:], terms[0])


def _point_witness(graph, values, coords, w) -> tuple:
    """(vertex, *point, w) where ``values`` is largest: (vertex, t, s, w), or (vertex, t, w)."""
    i, k = np.unravel_index(int(np.argmax(values)), values.shape)
    return (graph.vertices[i], *(c[k] for c in coords), w)


def _ratio_ladder(graph, radii, sphere, ws, numerator, powers, largest: bool) -> list:
    """(radius, extreme, witness) per radius of numerator(coords, w) / sum_i |c_i|^powers_i.

    The maximum (``largest``) or minimum over vertices, sphere and ws, where
    a w with a NaN ratio does not count; the witness is its point.
    """
    sign = 1.0 if largest else -1.0
    rungs = []
    for radius in radii:
        coords = sphere(radius)
        denom = sum(np.abs(c) ** e for c, e in zip(coords, powers))
        best, at = -sign * math.inf, None
        for w in ws:
            vals = numerator(coords, w) / denom
            top = float(vals.max() if largest else vals.min())
            if sign * top > sign * best:
                best, at = top, (vals, w)
        witness = None if at is None else _point_witness(graph, sign * at[0], coords, at[1])
        rungs.append((radius, best, witness))
    return rungs


def check_hypotheses(
    nl: Nonlinearity,
    spec: HypothesisSpec,
    graph: WeightedGraph,
    p: float,
    q: float,
    sampling: SamplingConfig = None,
    ord1: OperatorOrder = None,
    ord2: OperatorOrder = None,
    h5_ball_radius: float = None,
    spaces: tuple = None,
) -> HypothesisReport:
    """Screen (F1)-(F4), (H1)-(H5) and the nonexistence sign condition, over the blocks.

    ``spaces`` holds the SpaceSpec of each unknown block; p, q, ord1 and ord2
    only build the default (ord1, h1), (ord2, h2), first order where not
    given.  The samples lie on spheres of R^k (the points {r, -r} for one
    block, with v = 0), and block i brings its exponent s_i and constants
    c_i, r_i, gamma_i, d_i; a condition missing one is inconclusive and
    names it.  Point witnesses are (vertex, t, s, w), or (vertex, t, w).
    """
    cfg = sampling or SamplingConfig()
    if spaces is None:
        spaces = _default_spaces(p, q, ord1, ord2)
    k = len(spaces)
    exps = [space.ord.s for space in spaces]
    ws = spec.w_grid(cfg.w_samples)
    results = {}
    notes = []

    sphere = functools.partial(_sphere, blocks=k, samples=cfg.angular_samples)
    coupling = functools.partial(nl.block_values, "F")  # F at every vertex and point

    # (F1): value at the origin
    try:
        vals = np.abs([nl.grid_values("F", 0.0, 0.0, w) for w in ws])  # w x vertex
        j, i = np.unravel_index(int(np.argmax(vals)), vals.shape)
        worst, witness = float(vals[j, i]), (graph.vertices[i], ws[j])
        if worst <= 1e-14:
            results["F1"] = ConditionResult("F1", "pass", detail=f"max |F(x,0,0,w)| = {worst:.2e}")
        else:
            results["F1"] = ConditionResult("F1", "fail", witness, f"|F(x,0,0,w)| = {worst:.2e}")
    except ex.EvalDomainError as err:
        results["F1"] = ConditionResult("F1", "inconclusive", detail=str(err))

    # (F2): small-amplitude growth cap, estimated on a shrinking radius ladder
    bound_f2 = block_embedding(graph, spaces).cap
    try:
        rungs = _ratio_ladder(
            graph, sorted(cfg.small_radii, reverse=True), sphere, ws, coupling, exps, largest=True
        )
        ladder = [(radius, value) for radius, value, _ in rungs]
        limit_estimate, witness = rungs[-1][1:]  # smallest radius
        detail = f"limit estimate {limit_estimate:.3e} vs bound {bound_f2:.3e}; ladder {ladder}"
        ok = limit_estimate < bound_f2
        results["F2"] = ConditionResult("F2", _SAMPLED[ok], None if ok else witness, detail)
    except ex.EvalDomainError as err:
        results["F2"] = ConditionResult("F2", "inconclusive", detail=str(err))

    # (F3): superlinear growth at infinity
    try:
        rungs = _ratio_ladder(graph, cfg.large_radii, sphere, ws, coupling, exps, largest=False)
        mins = [value for _, value, _ in rungs]
        growing = all(b > a for a, b in zip(mins, mins[1:]))
        ok = growing and mins[-1] > 10.0 * max(mins[0], 0.0) and mins[-1] > 1.0
        detail = f"min ratio per radius {list(zip(cfg.large_radii, mins))}"
        results["F3"] = ConditionResult("F3", _SAMPLED[ok], detail=detail)
    except ex.EvalDomainError as err:
        results["F3"] = ConditionResult("F3", "inconclusive", detail=str(err))

    # (F4): superlinear excess of the radial derivative over max_i s_i F
    gammas, results["F4"] = _given("F4", spec, block_fields(k, "gamma"))
    if results["F4"] is None:
        mx = max(exps)

        def excess(coords, w):
            return _radial(nl, coords, w) - mx * coupling(coords, w)

        try:
            rungs = _ratio_ladder(graph, cfg.large_radii, sphere, ws, excess, gammas, largest=False)
            mins = [value for _, value, _ in rungs]
            ok = mins[-1] > 0 and mins[-1] >= mins[0]
            detail = f"min excess ratio per radius {list(zip(cfg.large_radii, mins))}"
            results["F4"] = ConditionResult("F4", _SAMPLED[ok], detail=detail)
        except ex.EvalDomainError as err:
            results["F4"] = ConditionResult("F4", "inconclusive", detail=str(err))

    def box_scan(name, violation):
        """Fail at the first moderate radius and w where violation() masks a point.

        violation(coords, w, radius) is (mask, lhs, rhs); the witness is the
        point of largest lhs - rhs.
        """
        try:
            for radius in cfg.moderate_radii:
                coords = sphere(radius)
                for w in ws:
                    bad, lhs, rhs = violation(coords, w, radius)
                    if bad.any():
                        witness = _point_witness(graph, lhs - rhs, coords, w)
                        return ConditionResult(name, "fail", witness)
            return ConditionResult(name, "pass (sampled)")
        except ex.EvalDomainError as err:
            return ConditionResult(name, "inconclusive", detail=str(err))

    # (H1): theta F <= radial pairing away from the origin
    _, results["H1"] = _given("H1", spec, ("theta",))
    if results["H1"] is None:
        def h1_violation(coords, w, radius):
            fvals = spec.theta * coupling(coords, w)
            radial = _radial(nl, coords, w)
            return fvals > radial + 1e-9 * (1.0 + np.abs(radial)), fvals, radial

        results["H1"] = box_scan("H1", h1_violation)

    # (H2): polynomial cap on the radial derivative
    consts, results["H2"] = _given("H2", spec, block_fields(k, "c", "r"))
    if results["H2"] is None:
        cs, rs = consts[:k], consts[k:]

        def h2_violation(coords, w, radius):
            radial = _radial(nl, coords, w)
            cap = sum(c * np.abs(t) ** r for c, t, r in zip(cs, coords, rs))
            return radial > cap + 1e-9 * (1.0 + cap), radial, cap

        results["H2"] = box_scan("H2", h2_violation)

    # (H3): positivity floor F >= a(|point|) c(x)
    _, results["H3"] = _given("H3", spec, ("a_floor", "c_fn"))
    if results["H3"] is None and np.any(np.asarray(spec.c_fn) <= 0):
        results["H3"] = ConditionResult("H3", "fail", detail="c(x) must be positive")
    elif results["H3"] is None:
        floor_seen = 0.0

        def h3_violation(coords, w, radius):
            nonlocal floor_seen
            floor = spec.a_floor(float(radius))
            floor_seen = max(floor_seen, floor)
            fvals = coupling(coords, w)
            lower = floor * np.asarray(spec.c_fn)[:, None]
            return fvals < lower - 1e-12 * (1.0 + np.abs(lower)), lower, fvals

        res = box_scan("H3", h3_violation)
        if res.verdict == "pass (sampled)" and floor_seen <= 0:
            res = ConditionResult("H3", "fail", detail="sampled floor a(.) is identically zero")
        results["H3"] = res

    # (H4): spike negativity condition (needs one exponent for every block)
    p = exps[0]
    _, results["H4"] = _given("H4", spec, ("L", "x0", "delta"))
    if results["H4"] is None and len(set(exps)) > 1:
        results["H4"] = ConditionResult("H4", "inconclusive", detail="requires p == q")
    elif results["H4"] is None:
        i0 = graph.index[spec.x0]
        Lvals = np.asarray(spec.L, float)
        spike = np.zeros(graph.n)
        spike[i0] = 1.0
        threshold = sum(w_norm(graph, spike, space) ** p for space in spaces) / p
        terms = " + ".join(("|u*|^p", "|v*|^p")[:k])
        if Lvals[i0] <= 0:
            results["H4"] = ConditionResult("H4", "fail", detail=f"L(x0) = {Lvals[i0]} <= 0")
        elif graph.mu[i0] * Lvals[i0] <= threshold:
            results["H4"] = ConditionResult(
                "H4",
                "fail",
                detail=(
                    f"mu(x0) L(x0) = {graph.mu[i0] * Lvals[i0]:.6g} "
                    f"<= ({terms})/p = {threshold:.6g}"
                ),
            )
        else:
            try:
                verdict = "pass (sampled)"
                witness = None
                amps = spec.delta * (np.arange(1, cfg.delta_samples + 1) / (cfg.delta_samples + 1))
                floor = Lvals[i0] * amps**p - 1e-12
                # the scalar analogue quantifies over every vertex; report both
                all_x_ok = True
                for w in ws:
                    below = coupling((amps,) * k, w) < floor
                    if np.any(below[i0]):
                        verdict, witness = "fail", (spec.x0, amps[int(np.argmax(below[i0]))], w)
                    all_x_ok = all_x_ok and not np.any(below)
                results["H4"] = ConditionResult("H4", verdict, witness)
                if not all_x_ok:
                    notes.append(
                        "spike lower bound holds at x0 only; the all-vertices variant fails"
                    )
            except ex.EvalDomainError as err:
                results["H4"] = ConditionResult("H4", "inconclusive", detail=str(err))

    results["H5"] = lipschitz_screen(nl, spec, graph, spaces, cfg, h5_ball_radius)
    results["NONEXIST"] = sign_screen(nl, spec, graph, k, cfg)
    return HypothesisReport(conditions=results, notes=notes)


def lipschitz_screen(
    nl: Nonlinearity,
    spec: HypothesisSpec,
    graph: WeightedGraph,
    spaces: tuple,
    sampling: SamplingConfig,
    radius: float = None,
) -> ConditionResult:
    """Screen (H5): |F_{u_i}(b) - F_{u_i}(a)| <= d_i |b_i - a_i|^(s_i - 1) on a ball.

    The pairs are the draws from [-R, R]^(2k) (R = ``radius``, 1 if None)
    with both points in the ball of radius R, all screened at once.  The
    witness is the first failing pair and w: (t1, s1, t2, s2, w) or (t1, t2, w).
    """
    blocks = len(spaces)
    ds, unset = _given("H5", spec, block_fields(blocks, "d"))
    if unset is not None:
        return unset
    est = ""
    if radius is None:
        radius = 1.0
        est = " (ball radius defaulted to 1, no certificate available)"
    rng = np.random.default_rng(sampling.seed)
    pts = rng.uniform(-radius, radius, size=(sampling.pair_samples, 2 * blocks))
    norms = np.linalg.norm(pts.reshape(len(pts), 2, blocks), axis=2)  # of the two points
    pts = pts[np.all(norms <= radius, axis=1)]
    first, second = pts[:, :blocks].T, pts[:, blocks:].T
    caps = [
        d * np.abs(b - a) ** (space.ord.s - 1) + 1e-12
        for d, a, b, space in zip(ds, first, second, spaces)
    ]
    ws = spec.w_grid(sampling.w_samples)
    try:
        failing = np.zeros((len(pts), len(ws)), bool)  # pair x w
        for j, w in enumerate(ws):
            for which, cap in zip(Nonlinearity.PARTIALS, caps):
                lo = nl.block_values(which, first, w)
                hi = nl.block_values(which, second, w)
                failing[:, j] |= np.any(np.abs(hi - lo) > cap, axis=0)
    except ex.EvalDomainError as err:
        return ConditionResult("H5", "inconclusive", detail=str(err))
    detail = f"radius {radius:.3g}{est}"
    hits = np.argwhere(failing)  # the first failing pair first, at its first w
    if len(hits):
        pair, j = hits[0]
        return ConditionResult("H5", "fail", (*pts[pair], ws[j]), detail)
    return ConditionResult("H5", "pass (sampled)", detail=detail)


def sign_screen(
    nl: Nonlinearity,
    spec: HypothesisSpec,
    graph: WeightedGraph,
    blocks: int,
    sampling: SamplingConfig,
) -> ConditionResult:
    """Screen the nonexistence sign condition F_u t + F_v s < 0 off the origin.

    The sample points are the nonzero points of the grid on the box
    [-R, R]^blocks (R = ``sampling.box_radius``); one block screens F_u t
    with v = 0.  At the first failing w the witness is the largest pairing:
    (vertex, t, s, w), or (vertex, t, w) for one block.
    """
    axis = np.linspace(-sampling.box_radius, sampling.box_radius, sampling.box_grid)
    coords = [c.ravel() for c in np.meshgrid(*(axis,) * blocks, indexing="ij")]
    nontrivial = np.any([c != 0 for c in coords], axis=0)
    coords = [c[nontrivial] for c in coords]
    try:
        for w in spec.w_grid(sampling.w_samples):
            vals = _radial(nl, coords, w)
            if np.any(vals >= 0):
                return ConditionResult("NONEXIST", "fail", _point_witness(graph, vals, coords, w))
    except ex.EvalDomainError as err:
        return ConditionResult("NONEXIST", "inconclusive", detail=str(err))
    return ConditionResult("NONEXIST", "pass (sampled)")


# --- builtin problems ---------------------------------------------------

@dataclass
class BuiltinProblem:
    name: str
    nl: Nonlinearity
    spec: HypothesisSpec
    ord1: OperatorOrder
    ord2: OperatorOrder
    p: float
    q: float


def builtin(name: str, graph: WeightedGraph, gamma=None, z=None, e=None, x0=None):
    """Instantiate one of the shipped example problems on a graph (J = [-1, 1])."""
    if name not in BUILTIN_NAMES:
        raise NonlinearityError(f"unknown builtin {name!r}; choose from {BUILTIN_NAMES}")
    gamma_tab = np.full(graph.n, 1.0) if gamma is None else asvalues(graph, np.asarray(gamma, float))
    gmax = float(np.max(np.abs(gamma_tab)))
    gmin = float(np.min(np.abs(gamma_tab)))
    p = q = 2.0
    spec = HypothesisSpec()

    if name == "mp-example":
        p = 3.0
        nl = Nonlinearity.from_source(
            graph, "(u^2+v^2)^2*(1+w^2)*abs(gamma)", {"gamma": gamma_tab}
        )
        spec = HypothesisSpec(
            theta=4.0,
            c1=16.0 * gmax,
            c2=16.0 * gmax,
            r1=4.0,
            r2=4.0,
            gamma1=2.0,
            gamma2=2.0,
            a_floor=lambda r: r**4,
            c_fn=np.abs(gamma_tab),
        )
    elif name == "localmin-example":
        p = q = 4.0
        coeff = 0.9 * block_embedding(graph, _default_spaces(p, q)).cap if e is None else float(e)
        nl = Nonlinearity.from_source(
            graph, "ecoef*(u^2+v^2)^2*(1+w^2)*abs(gamma)", {"gamma": gamma_tab, "ecoef": coeff}
        )
        spec = HypothesisSpec(
            delta=1.0, L=np.full(graph.n, 4.0 * coeff * gmin), x0=x0 or spike_vertex(graph)
        )
    elif name == "unique-example":
        coeff = 0.9 * block_embedding(graph, _default_spaces(p, q)).cap if e is None else float(e)
        nl = Nonlinearity.from_source(
            graph, "ecoef*(u^2+v^2)*(1+w^2)*abs(gamma)", {"gamma": gamma_tab, "ecoef": coeff}
        )
        spec = HypothesisSpec(
            delta=1.0,
            L=np.full(graph.n, 4.0 * coeff * gmin),
            x0=x0 or spike_vertex(graph),
            d1=4.0 * coeff * gmax,
            d2=4.0 * coeff * gmax,
        )
    elif name == "control-objective":
        z_tab = np.full(graph.n, 1.0) if z is None else asvalues(graph, np.asarray(z, float))
        nl = Nonlinearity.from_source(graph, "z*(u^2+v^2)^2*w^2", {"z": z_tab})
    else:
        # nonexist-example: partials -xsq*atan(u), -xsq*atan(v); the primitive is
        # spelled out so the symbolic partials land on the intended pair.
        xsq = np.arange(1, graph.n + 1, dtype=float)
        nl = Nonlinearity.from_source(
            graph,
            "-(xsq*(u*atan(u) - log(1+u^2)/2 + v*atan(v) - log(1+v^2)/2))",
            {"xsq": xsq},
        )
    return BuiltinProblem(name, nl, spec, OperatorOrder(1, p), OperatorOrder(1, q), p, q)


def spike_vertex(graph: WeightedGraph, L=None) -> str:
    """Vertex maximizing mu(x) L(x); ties break by stored order."""
    weights = graph.mu * (np.ones(graph.n) if L is None else np.asarray(L, float))
    return graph.vertices[int(np.argmax(weights))]
