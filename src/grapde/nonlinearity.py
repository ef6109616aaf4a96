"""Nonlinear coupling terms: parsed expressions, partials, hypothesis screening.

A ``Nonlinearity`` bundles the source expression F(x, u, v, w), its exact
symbolic partials and the per-vertex coefficient tables.  The hypothesis
checker screens the growth/structure conditions by sampling; conditions that
are limits can only ever report "pass (sampled)".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import expressions as ex
from .calculus import OperatorOrder
from .graph import WeightedGraph, asvalues
from .spaces import SpaceSpec, embedding_constants, w_norm

__all__ = [
    "Nonlinearity",
    "HypothesisSpec",
    "SamplingConfig",
    "ConditionResult",
    "HypothesisReport",
    "check_hypotheses",
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
    """F with symbolic partials F_u, F_v bound to a graph's coefficient tables."""

    graph: WeightedGraph
    F: ex.Expr
    Fu: ex.Expr = None
    Fv: ex.Expr = None
    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.Fu is None:
            object.__setattr__(self, "Fu", ex.differentiate(self.F, "u"))
        if self.Fv is None:
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
    def from_source(cls, graph, source, coeffs=None, fu_source=None, fv_source=None):
        F = ex.parse_expr(source)
        Fu = ex.parse_expr(fu_source) if fu_source else None
        Fv = ex.parse_expr(fv_source) if fv_source else None
        return cls(graph, F, Fu, Fv, dict(coeffs or {}))

    def _expr(self, which: str) -> ex.Expr:
        try:
            return {"F": self.F, "Fu": self.Fu, "Fv": self.Fv}[which]
        except KeyError:
            raise NonlinearityError(f"unknown selector {which!r}") from None

    def eval(self, which: str, x, u_val, v_val, w_val):
        """Value at a single vertex (by id or index); u/v may be arrays."""
        i = self.graph.index[x] if isinstance(x, str) else int(x)
        env = {name: table[i] for name, table in self.coeffs.items()}
        env.update(u=u_val, v=v_val, w=w_val)
        return ex.evaluate(self._expr(which), env)

    def values(self, which: str, u, v, w_val):
        """Vectorized evaluation across all vertices at once."""
        env = dict(self.coeffs)
        env.update(u=np.asarray(u, float), v=np.asarray(v, float), w=w_val)
        out = ex.evaluate(self._expr(which), env)
        return np.broadcast_to(np.asarray(out, float), (self.graph.n,)).copy()

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
        lead = (self.graph.n,) + (1,) * len(shape)
        env = {name: table.reshape(lead) for name, table in self.coeffs.items()}
        env.update(u=np.asarray(t, float), v=np.asarray(s, float), w=w_val)
        out = ex.evaluate(self._expr(which), env)
        return np.broadcast_to(np.asarray(out, float), (self.graph.n,) + shape)


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

    def verdict(self, name: str) -> str:
        return self.conditions[name].verdict

    def all_pass(self, names) -> bool:
        return all(
            self.conditions[n].verdict in ("pass", "pass (sampled)") for n in names
        )

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


def _ring(radius: float, k: int):
    ang = np.linspace(0.0, 2.0 * np.pi, k, endpoint=False)
    return radius * np.cos(ang), radius * np.sin(ang)


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
) -> HypothesisReport:
    """Screen (F1)-(F4), (H1)-(H5) and the nonexistence sign condition."""
    cfg = sampling or SamplingConfig()
    emb = embedding_constants(graph, p, q)
    ws = spec.w_grid(cfg.w_samples)
    n = graph.n
    results = {}
    notes = []

    # (F1): value at the origin
    try:
        worst = 0.0
        witness = None
        for w in ws:
            vals = np.abs(nl.grid_values("F", 0.0, 0.0, w))
            i = int(np.argmax(vals))
            if vals[i] > worst:
                worst, witness = float(vals[i]), (graph.vertices[i], w)
        if worst <= 1e-14:
            results["F1"] = ConditionResult("F1", "pass", detail=f"max |F(x,0,0,w)| = {worst:.2e}")
        else:
            results["F1"] = ConditionResult("F1", "fail", witness, f"|F(x,0,0,w)| = {worst:.2e}")
    except ex.EvalDomainError as err:
        results["F1"] = ConditionResult("F1", "inconclusive", detail=str(err))

    # (F2): small-amplitude growth cap, estimated on a shrinking radius ladder
    bound_f2 = min(1.0 / (p * emb.K1**p), 1.0 / (q * emb.K2**q))
    try:
        ladder = []
        witness = None
        for radius in sorted(cfg.small_radii, reverse=True):
            ts, ss = _ring(radius, cfg.angular_samples)
            denom = np.abs(ts) ** p + np.abs(ss) ** q
            rung_max = -math.inf
            for w in ws:
                vals = nl.grid_values("F", ts, ss, w) / denom
                i, k = np.unravel_index(int(np.argmax(vals)), vals.shape)
                if vals[i, k] > rung_max:
                    rung_max = float(vals[i, k])
                    rung_witness = (graph.vertices[i], ts[k], ss[k], w)
            ladder.append((radius, rung_max))
            witness = rung_witness
        limit_estimate = ladder[-1][1]  # smallest radius
        detail = f"limit estimate {limit_estimate:.3e} vs bound {bound_f2:.3e}; ladder {ladder}"
        if limit_estimate < bound_f2:
            results["F2"] = ConditionResult("F2", "pass (sampled)", detail=detail)
        else:
            results["F2"] = ConditionResult("F2", "fail", witness, detail)
    except ex.EvalDomainError as err:
        results["F2"] = ConditionResult("F2", "inconclusive", detail=str(err))

    # (F3): superlinear growth at infinity
    try:
        mins = []
        for radius in cfg.large_radii:
            ts, ss = _ring(radius, cfg.angular_samples)
            denom = np.abs(ts) ** p + np.abs(ss) ** q
            rung_min = math.inf
            for w in ws:
                vals = nl.grid_values("F", ts, ss, w) / denom
                rung_min = min(rung_min, float(np.min(vals)))
            mins.append(rung_min)
        growing = all(b > a for a, b in zip(mins, mins[1:]))
        detail = f"min ratio per radius {list(zip(cfg.large_radii, mins))}"
        if growing and mins[-1] > 10.0 * max(mins[0], 0.0) and mins[-1] > 1.0:
            results["F3"] = ConditionResult("F3", "pass (sampled)", detail=detail)
        else:
            results["F3"] = ConditionResult("F3", "fail", detail=detail)
    except ex.EvalDomainError as err:
        results["F3"] = ConditionResult("F3", "inconclusive", detail=str(err))

    # (F4): superlinear excess of the radial derivative over max{p,q} F
    if spec.gamma1 is None or spec.gamma2 is None:
        results["F4"] = ConditionResult("F4", "inconclusive", detail="gamma1/gamma2 not provided")
    else:
        try:
            mx = max(p, q)
            mins = []
            for radius in cfg.large_radii:
                ts, ss = _ring(radius, cfg.angular_samples)
                denom = np.abs(ts) ** spec.gamma1 + np.abs(ss) ** spec.gamma2
                rung_min = math.inf
                for w in ws:
                    num = (
                        nl.grid_values("Fu", ts, ss, w) * ts
                        + nl.grid_values("Fv", ts, ss, w) * ss
                        - mx * nl.grid_values("F", ts, ss, w)
                    )
                    rung_min = min(rung_min, float(np.min(num / denom)))
                mins.append(rung_min)
            detail = f"min excess ratio per radius {list(zip(cfg.large_radii, mins))}"
            if mins[-1] > 0 and mins[-1] >= mins[0]:
                results["F4"] = ConditionResult("F4", "pass (sampled)", detail=detail)
            else:
                results["F4"] = ConditionResult("F4", "fail", detail=detail)
        except ex.EvalDomainError as err:
            results["F4"] = ConditionResult("F4", "inconclusive", detail=str(err))

    def box_scan(check, name):
        """Run check(ts, ss, w) over the moderate radius ladder (ring arrays)."""
        try:
            for radius in cfg.moderate_radii:
                ts, ss = _ring(radius, cfg.angular_samples)
                for w in ws:
                    ok, witness = check(ts, ss, w)
                    if not ok:
                        return ConditionResult(name, "fail", witness)
            return ConditionResult(name, "pass (sampled)")
        except ex.EvalDomainError as err:
            return ConditionResult(name, "inconclusive", detail=str(err))

    def _witness(excess, ts, ss, w):
        i, k = np.unravel_index(int(np.argmax(excess)), excess.shape)
        return graph.vertices[i], ts[k], ss[k], w

    # (H1): theta F <= F_u t + F_v s away from the origin
    if spec.theta is None:
        results["H1"] = ConditionResult("H1", "inconclusive", detail="theta not provided")
    else:
        def h1_check(ts, ss, w):
            fvals = nl.grid_values("F", ts, ss, w)
            radial = nl.grid_values("Fu", ts, ss, w) * ts + nl.grid_values("Fv", ts, ss, w) * ss
            tol = 1e-9 * (1.0 + np.abs(radial))
            if np.any(spec.theta * fvals > radial + tol):
                return False, _witness(spec.theta * fvals - radial, ts, ss, w)
            return True, None

        results["H1"] = box_scan(h1_check, "H1")

    # (H2): polynomial cap on the radial derivative
    if None in (spec.c1, spec.c2, spec.r1, spec.r2):
        results["H2"] = ConditionResult("H2", "inconclusive", detail="c1/c2/r1/r2 not provided")
    else:
        def h2_check(ts, ss, w):
            radial = nl.grid_values("Fu", ts, ss, w) * ts + nl.grid_values("Fv", ts, ss, w) * ss
            cap = spec.c1 * np.abs(ts) ** spec.r1 + spec.c2 * np.abs(ss) ** spec.r2
            tol = 1e-9 * (1.0 + cap)
            if np.any(radial > cap + tol):
                return False, _witness(radial - cap, ts, ss, w)
            return True, None

        results["H2"] = box_scan(h2_check, "H2")

    # (H3): positivity floor F >= a(|(t,s)|) c(x)
    if spec.a_floor is None or spec.c_fn is None:
        results["H3"] = ConditionResult("H3", "inconclusive", detail="a_floor/c_fn not provided")
    elif np.any(np.asarray(spec.c_fn) <= 0):
        results["H3"] = ConditionResult("H3", "fail", detail="c(x) must be positive")
    else:
        floor_seen = 0.0

        def h3_check(ts, ss, w):
            nonlocal floor_seen
            floor = spec.a_floor(float(np.hypot(ts[0], ss[0])))
            floor_seen = max(floor_seen, floor)
            fvals = nl.grid_values("F", ts, ss, w)
            lower = floor * np.asarray(spec.c_fn)[:, None]
            if np.any(fvals < lower - 1e-12 * (1.0 + np.abs(lower))):
                return False, _witness(lower - fvals, ts, ss, w)
            return True, None

        res = box_scan(h3_check, "H3")
        if res.verdict == "pass (sampled)" and floor_seen <= 0:
            res = ConditionResult("H3", "fail", detail="sampled floor a(.) is identically zero")
        results["H3"] = res

    # (H4): spike negativity condition (needs p == q)
    if spec.L is None or spec.x0 is None or spec.delta is None:
        results["H4"] = ConditionResult("H4", "inconclusive", detail="L/x0/delta not provided")
    elif p != q:
        results["H4"] = ConditionResult("H4", "inconclusive", detail="requires p == q")
    else:
        o1 = ord1 or OperatorOrder(1, p)
        o2 = ord2 or OperatorOrder(1, q)
        i0 = graph.index[spec.x0]
        Lvals = np.asarray(spec.L, float)
        spike = np.zeros(n)
        spike[i0] = 1.0
        nu = w_norm(graph, spike, SpaceSpec(o1, "h1")) ** p
        nv = w_norm(graph, spike, SpaceSpec(o2, "h2")) ** p
        threshold = (nu + nv) / p
        if Lvals[i0] <= 0:
            results["H4"] = ConditionResult("H4", "fail", detail=f"L(x0) = {Lvals[i0]} <= 0")
        elif graph.mu[i0] * Lvals[i0] <= threshold:
            results["H4"] = ConditionResult(
                "H4",
                "fail",
                detail=(
                    f"mu(x0) L(x0) = {graph.mu[i0] * Lvals[i0]:.6g} "
                    f"<= (|u*|^p + |v*|^p)/p = {threshold:.6g}"
                ),
            )
        else:
            try:
                verdict = "pass (sampled)"
                witness = None
                ts = spec.delta * (np.arange(1, cfg.delta_samples + 1) / (cfg.delta_samples + 1))
                floor = Lvals[i0] * ts**p - 1e-12
                # the scalar analogue quantifies over every vertex; report both
                all_x_ok = True
                for w in ws:
                    below = nl.grid_values("F", ts, ts, w) < floor
                    if np.any(below[i0]):
                        verdict, witness = "fail", (spec.x0, ts[int(np.argmax(below[i0]))], w)
                    all_x_ok = all_x_ok and not np.any(below)
                results["H4"] = ConditionResult("H4", verdict, witness)
                if not all_x_ok:
                    notes.append(
                        "spike lower bound holds at x0 only; the all-vertices variant fails"
                    )
            except ex.EvalDomainError as err:
                results["H4"] = ConditionResult("H4", "inconclusive", detail=str(err))

    # (H5): Lipschitz smallness of the partials on the certificate ball
    if spec.d1 is None or spec.d2 is None:
        results["H5"] = ConditionResult("H5", "inconclusive", detail="d1/d2 not provided")
    else:
        radius = h5_ball_radius
        est = ""
        if radius is None:
            radius = 1.0
            est = " (ball radius defaulted to 1, no certificate available)"
        try:
            rng = np.random.default_rng(cfg.seed)
            pts = rng.uniform(-radius, radius, size=(cfg.pair_samples, 4))
            verdict, witness = "pass (sampled)", None
            for t1, s1, t2, s2 in pts:
                if math.hypot(t1, s1) > radius or math.hypot(t2, s2) > radius:
                    continue
                for w in ws:
                    du = np.abs(nl.grid_values("Fu", t2, s2, w) - nl.grid_values("Fu", t1, s1, w))
                    dv = np.abs(nl.grid_values("Fv", t2, s2, w) - nl.grid_values("Fv", t1, s1, w))
                    capu = spec.d1 * abs(t2 - t1) ** (p - 1) + 1e-12
                    capv = spec.d2 * abs(s2 - s1) ** (p - 1) + 1e-12
                    if np.any(du > capu) or np.any(dv > capv):
                        verdict, witness = "fail", (t1, s1, t2, s2, w)
                        break
                if verdict == "fail":
                    break
            results["H5"] = ConditionResult("H5", verdict, witness, detail=f"radius {radius:.3g}{est}")
        except ex.EvalDomainError as err:
            results["H5"] = ConditionResult("H5", "inconclusive", detail=str(err))

    results["NONEXIST"] = sign_screen(nl, spec, graph, 2, cfg)
    return HypothesisReport(conditions=results, notes=notes)


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
    t, s = Nonlinearity.pair(coords)
    try:
        for w in spec.w_grid(sampling.w_samples):
            vals = sum(
                nl.grid_values(which, t, s, w) * c for which, c in zip(("Fu", "Fv"), coords)
            )
            if np.any(vals >= 0):
                i, k = np.unravel_index(int(np.argmax(vals)), vals.shape)
                witness = (graph.vertices[i], *(c[k] for c in coords), w)
                return ConditionResult("NONEXIST", "fail", witness)
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
    J: tuple


def _default_small_coeff(graph, p, q) -> float:
    emb = embedding_constants(graph, p, q)
    return 0.9 * min(1.0 / (p * emb.K1**p), 1.0 / (q * emb.K2**q))


def builtin(name: str, graph: WeightedGraph, gamma=None, z=None, e=None, x0=None):
    """Instantiate one of the shipped example problems on a graph."""
    if name not in BUILTIN_NAMES:
        raise NonlinearityError(f"unknown builtin {name!r}; choose from {BUILTIN_NAMES}")
    gamma_tab = np.full(graph.n, 1.0) if gamma is None else asvalues(graph, np.asarray(gamma, float))
    gmax = float(np.max(np.abs(gamma_tab)))
    gmin = float(np.min(np.abs(gamma_tab)))

    if name == "mp-example":
        p, q = 3.0, 2.0
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
            J=(-1.0, 1.0),
        )
        return BuiltinProblem(name, nl, spec, OperatorOrder(1, p), OperatorOrder(1, q), p, q, spec.J)

    if name == "localmin-example":
        p = q = 4.0
        coeff = _default_small_coeff(graph, p, q) if e is None else float(e)
        nl = Nonlinearity.from_source(
            graph, "ecoef*(u^2+v^2)^2*(1+w^2)*abs(gamma)", {"gamma": gamma_tab, "ecoef": coeff}
        )
        x0 = x0 or spike_vertex(graph)
        spec = HypothesisSpec(
            delta=1.0,
            L=np.full(graph.n, 4.0 * coeff * gmin),
            x0=x0,
            J=(-1.0, 1.0),
        )
        return BuiltinProblem(name, nl, spec, OperatorOrder(1, p), OperatorOrder(1, q), p, q, spec.J)

    if name == "unique-example":
        p = q = 2.0
        coeff = _default_small_coeff(graph, p, q) if e is None else float(e)
        nl = Nonlinearity.from_source(
            graph, "ecoef*(u^2+v^2)*(1+w^2)*abs(gamma)", {"gamma": gamma_tab, "ecoef": coeff}
        )
        x0 = x0 or spike_vertex(graph)
        spec = HypothesisSpec(
            delta=1.0,
            L=np.full(graph.n, 4.0 * coeff * gmin),
            x0=x0,
            d1=4.0 * coeff * gmax,
            d2=4.0 * coeff * gmax,
            J=(-1.0, 1.0),
        )
        return BuiltinProblem(name, nl, spec, OperatorOrder(1, p), OperatorOrder(1, q), p, q, spec.J)

    if name == "control-objective":
        p = q = 2.0
        z_tab = np.full(graph.n, 1.0) if z is None else asvalues(graph, np.asarray(z, float))
        nl = Nonlinearity.from_source(graph, "z*(u^2+v^2)^2*w^2", {"z": z_tab})
        spec = HypothesisSpec(J=(-1.0, 1.0))
        return BuiltinProblem(name, nl, spec, OperatorOrder(1, p), OperatorOrder(1, q), p, q, spec.J)

    # nonexist-example: partials -xsq*atan(u), -xsq*atan(v); the primitive is
    # spelled out so the symbolic partials land on the intended pair.
    p = q = 2.0
    xsq = np.arange(1, graph.n + 1, dtype=float)
    nl = Nonlinearity.from_source(
        graph,
        "-(xsq*(u*atan(u) - log(1+u^2)/2 + v*atan(v) - log(1+v^2)/2))",
        {"xsq": xsq},
    )
    spec = HypothesisSpec(J=(-1.0, 1.0))
    return BuiltinProblem(name, nl, spec, OperatorOrder(1, p), OperatorOrder(1, q), p, q, spec.J)


def spike_vertex(graph: WeightedGraph, L=None) -> str:
    """Vertex maximizing mu(x) L(x); ties break by stored order."""
    weights = graph.mu * (np.ones(graph.n) if L is None else np.asarray(L, float))
    return graph.vertices[int(np.argmax(weights))]
