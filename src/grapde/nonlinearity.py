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
from .graph import VertexFunction, WeightedGraph, asvalues
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

    F is compiled (``expressions.compile_expr``) the first time it is
    evaluated, and the compiled code is kept.  The partials F_u, F_v and the
    second partials F_uu, F_uv, F_vv (selectors in ``SECOND_PARTIALS``) are
    derived and compiled on their first evaluation only, so a problem that
    never asks for a Jacobian does not pay for the second partials.
    """

    graph: WeightedGraph
    F: ex.Expr
    coeffs: dict = field(default_factory=dict)
    # selector -> compiled expression, filled on first use
    _compiled: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    PARTIALS = ("Fu", "Fv")  # the selector of the partial in each unknown block
    # the selector of the second partial in blocks (i, j)
    SECOND_PARTIALS = (("Fuu", "Fuv"), ("Fuv", "Fvv"))
    # selector -> (selector, variable) it is the derivative of
    _DERIVED = {
        "Fu": ("F", "u"), "Fv": ("F", "v"),
        "Fuu": ("Fu", "u"), "Fuv": ("Fu", "v"), "Fvv": ("Fv", "v"),
    }

    def __post_init__(self):
        tables = {}
        for name, table in self.coeffs.items():
            if np.isscalar(table):
                tables[name] = np.full(self.graph.n, float(table))
            elif isinstance(table, dict):
                tables[name] = VertexFunction.from_map(self.graph, table).values
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

    def induced(self, graph: WeightedGraph, keep) -> "Nonlinearity":
        """The coupling on ``graph``, the subgraph on the vertices ``keep`` of this one's.

        Each coefficient table is taken at those vertices; the compiled
        expressions are shared.
        """
        out = Nonlinearity(graph, self.F, {name: t[keep] for name, t in self.coeffs.items()})
        object.__setattr__(out, "_compiled", self._compiled)
        return out

    def _expr(self, which: str) -> ex.Expr:
        if which == "F":
            return self.F
        if which not in self._DERIVED:
            raise NonlinearityError(f"unknown selector {which!r}")
        base, var = self._DERIVED[which]
        return ex.differentiate(self._expr(base), var)

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
        """Vectorized evaluation across all vertices at once, in the shape of u.

        u and v hold one state, shape (n,), or a stack of states, shape (k, n).
        """
        u = np.asarray(u, float)
        env = dict(self.coeffs)
        env.update(u=u, v=np.asarray(v, float), w=w_val)
        out = np.array(self._fn(which)(env), float)  # a copy: the result may be u itself
        if out.shape == u.shape:
            return out
        return np.broadcast_to(out, u.shape).copy()

    @staticmethod
    def pair(blocks) -> tuple:
        """(u, v) from the values of one or two unknown blocks; one block has v = 0."""
        u, *rest = blocks
        return u, rest[0] if rest else np.zeros_like(u)

    def grid_values(self, which: str, t, s, w_val) -> np.ndarray:
        """Values at every vertex on shared sample points (t, s) and parameters w.

        ``w_val`` is one parameter or an array of them that broadcasts with
        t and s.  The result has shape (n,) + broadcast(t, s, w_val).shape:
        row i holds the expression at vertex i with u = t, v = s and w = w_val.
        """
        shape = np.broadcast(t, s, w_val).shape
        full = (self.graph.n,) + shape
        lead = (self.graph.n,) + (1,) * len(shape)
        env = {name: table.reshape(lead) for name, table in self.coeffs.items()}
        env.update(u=np.asarray(t, float), v=np.asarray(s, float), w=w_val)
        out = np.asarray(self._fn(which)(env), float)
        # np.broadcast_to costs more than a small expression; skip it where it is a no-op
        return out if out.shape == full else np.broadcast_to(out, full)

    def block_values(self, which: str, coords, w_val) -> np.ndarray:
        """``grid_values`` at the points of block coordinates ``coords`` (v = 0 for one block),
        at one parameter or an array of them."""
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
    seed: int = 0  # of the (H5) pair draws


_W_SAMPLES = 8  # parameters of J screened by every condition
_ANGULAR_SAMPLES = 32  # points on each circle of a two-block sphere
_BOX_GRID = 64  # grid points per block of the nonexistence sign box
_PAIR_SAMPLES = 200  # (H5) pair draws before the ball filter
_SMALL_RADII = tuple(10.0**k for k in range(-1, -7, -1))  # (F2) ladder, shrinking
_LARGE_RADII = (1e1, 1e2, 1e3, 1e4)  # (F3) and (F4) ladders
_MODERATE_RADII = tuple(10.0**k for k in range(-3, 4))  # (H1)-(H3) sphere scans
_BOX_RADIUS = 10.0  # half-width of the nonexistence sign box
_DELTA_SAMPLES = 16  # (H4) spike amplitudes in (0, delta)
# Cap on one float array over the (vertex x radius x w x point) grid of a
# screen batch; at 100 vertices every sphere scan fits in one batch.
_SCREEN_BATCH_BYTES = 4 << 20


@dataclass
class ConditionResult:
    verdict: str  # pass | pass (sampled) | fail | inconclusive
    witness: tuple = None
    detail: str = ""


@dataclass
class HypothesisReport:
    conditions: dict
    notes: list


_SAMPLED = {True: "pass (sampled)", False: "fail"}  # verdict of a sampled condition


def block_fields(blocks: int, *stems: str) -> list:
    """Names of per-block constants: ``block_fields(2, "c", "r")`` is c1, c2, r1, r2."""
    return [f"{stem}{i}" for stem in stems for i in range(1, blocks + 1)]


def _screen(spec: HypothesisSpec, fields, body) -> ConditionResult:
    """A condition from body(*the values of ``fields``) -> (verdict, witness, detail).

    A field left None makes the condition inconclusive, naming the fields,
    and so does an ``EvalDomainError``, with its message.  The body runs with
    overflow and invalid-value warnings off: an overflowed sample is an inf
    (or NaN) value for the body to judge.
    """
    values = [getattr(spec, f) for f in fields]
    if any(v is None for v in values):
        return ConditionResult("inconclusive", detail=f"{'/'.join(fields)} not provided")
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return ConditionResult(*body(*values))
    except ex.EvalDomainError as err:
        return ConditionResult("inconclusive", detail=str(err))


def _default_spaces(p, q, ord1=None, ord2=None) -> tuple:
    """The two blocks (ord1, h1) and (ord2, h2), first order where ord1/ord2 are not given."""
    return (
        SpaceSpec(ord1 or OperatorOrder(1, p), "h1"),
        SpaceSpec(ord2 or OperatorOrder(1, q), "h2"),
    )


def _sphere(radii, blocks: int, samples: int) -> tuple:
    """Per block, the coordinates of points on the spheres of the radii r in R^blocks,
    shaped (radius, 1, point) to leave an axis for w: the points r, -r, or
    ``samples`` equally spaced angles from (r, 0)."""
    r = np.asarray(radii, float)[:, None, None]
    if blocks == 1:
        return (np.concatenate([r, -r], axis=-1),)
    ang = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
    return r * np.cos(ang), r * np.sin(ang)


def _radial(nl: Nonlinearity, coords, w) -> np.ndarray:
    """The radial pairing F_u t + F_v s (F_u t for one block) at every vertex and point."""
    terms = [nl.block_values(which, coords, w) * c for which, c in zip(nl.PARTIALS, coords)]
    return sum(terms[1:], terms[0])


def _point_witness(graph, index, coords, w) -> tuple:
    """(vertex, *point, w) at ``index`` of a flat (vertex x point) array over the points
    of ``coords``: (vertex, t, s, w), or (vertex, t, w)."""
    points = [np.ravel(c) for c in coords]
    i, k = divmod(int(index), len(points[0]))
    return (graph.vertices[i], *(c[k] for c in points), w)


def _rung_major(values) -> np.ndarray:
    """(vertex, radius, w, point) values as contiguous rows (radius, w, vertex x point).

    A row holds one rung's (vertex, point) values in their own order, so
    its max, min and argmax equal those of the rung alone, signed zeros
    included.
    """
    radii, ws = values.shape[1:3]
    return np.ascontiguousarray(np.moveaxis(values, 0, 2)).reshape(radii, ws, -1)


def _records(radii, ws, *tables) -> list:
    """(radius, w, *values) of every rung of (radius x w) tables, radius-major."""
    rows = zip(radii, zip(*(table.tolist() for table in tables)))
    return [(r, w, *vals) for r, row in rows for w, vals in zip(ws, zip(*row))]


def _blocks(radii, ws, rung_bytes: int) -> list:
    """(radii, ws) of each batch, in rung order, with at most _SCREEN_BATCH_BYTES per
    array at ``rung_bytes`` per rung: whole radii, or runs of the ws of one
    radius where it alone is over the cap; one rung at least."""
    per = max(1, _SCREEN_BATCH_BYTES // max(rung_bytes, 1))  # rungs per batch
    if per >= len(ws):
        step = per // len(ws)
        return [(radii[i : i + step], ws) for i in range(0, len(radii), step)]
    runs = range(0, len(ws), per)
    return [(radii[i : i + 1], ws[j : j + per]) for i in range(len(radii)) for j in runs]


def _rung_records(table, radii, ws, rung_bytes: int):
    """The records of the (radius, w) rungs, radius-major, yielded batch by batch.

    ``table(rs, ws)`` evaluates the rungs rs x ws at once and returns their
    records in rung order.  A condition without radii passes ``radii=(None,)``.
    The guards of ``expressions`` test element by element, so a batch raises
    ``EvalDomainError`` exactly where one of its rungs would; such a batch is
    evaluated again one rung at a time, so the error raised is the first that
    the rung order meets.  A reader that stops early evaluates no later batch.
    """
    for rs, bws in _blocks(radii, ws, rung_bytes):
        try:
            batch = table(rs, bws)
        except ex.EvalDomainError:
            batch = (rec for r in rs for w in np.split(bws, len(bws)) for rec in table((r,), w))
        yield from batch


def _verdict(records, witness, nan_detail: str) -> tuple:
    """(verdict, witness, detail) of rung records (radius, w, fail, at, nan, nan_at, ...).

    The records are read in screening order.  The first rung with a failing
    sample decides "fail", with witness(radius, w, at), ``at`` being its
    failing sample of largest score; reading stops there.  Else the first
    rung with a NaN sample makes the condition inconclusive, with
    witness(radius, w, nan_at) and ``nan_detail``.  Else it passes, sampled.
    """
    first_nan = None
    for radius, w, fail, at, nan, nan_at, *_ in records:
        if fail:
            return "fail", witness(radius, w, at), ""
        if nan and first_nan is None:
            first_nan = radius, w, nan_at
    if first_nan is None:
        return "pass (sampled)", None, ""
    return "inconclusive", witness(*first_nan), nan_detail


def _ratio_ladder(graph, radii, sphere, ws, numerator, powers, largest: bool) -> list:
    """(radius, extreme, witness) per radius of numerator(coords, w) / sum_i |c_i|^powers_i.

    The maximum (``largest``) or minimum over vertices, sphere and ws, where
    a w with a NaN ratio does not count; the witness is its point.  A radius
    where every w has a NaN ratio has the extreme NaN, and its first NaN
    point is the witness.  The radii and ws are evaluated together, in the
    batches of ``_rung_records``.
    """

    def table(rs, bws):
        coords = sphere(rs)
        denom = sum(np.abs(c) ** e for c, e in zip(coords, powers))
        vals = _rung_major(numerator(coords, bws[:, None]) / denom)
        # argmin and argmax point at the first NaN of a rung that holds one
        tops, ats = (vals.max(-1), vals.argmax(-1)) if largest else (vals.min(-1), vals.argmin(-1))
        return _records(rs, bws, tops, ats)

    sign = 1.0 if largest else -1.0
    records = list(_rung_records(table, radii, ws, 8 * graph.n * sphere((1.0,))[0].size))
    rungs = []
    for start in range(0, len(records), len(ws)):
        radius = records[start][0]
        best, at, nan_at = -sign * math.inf, None, None
        for _, w, top, k in records[start : start + len(ws)]:
            if math.isnan(top):
                nan_at = nan_at or (k, w)
            elif at is None or sign * top > sign * best:
                best, at = top, (k, w)
        if at is None:
            best, at = math.nan, nan_at
        rungs.append((radius, best, _point_witness(graph, at[0], sphere((radius,)), at[1])))
    return rungs


def _nan_rung(rungs):
    """(verdict, witness, detail), inconclusive, of the first rung with a NaN extreme; or None."""
    for radius, value, witness in rungs:
        if math.isnan(value):
            return "inconclusive", witness, f"the ratio is NaN at the witness (radius {radius:g})"
    return None


def check_hypotheses(
    nl: Nonlinearity,
    spec: HypothesisSpec,
    graph: WeightedGraph,
    p: float,
    q: float,
    sampling: SamplingConfig = None,
    ord1: OperatorOrder = None,
    ord2: OperatorOrder = None,
    spaces: tuple = None,
) -> HypothesisReport:
    """Screen (F1)-(F4), (H1)-(H5) and the nonexistence sign condition, over the blocks.

    ``spaces`` holds the SpaceSpec of each unknown block; p, q, ord1 and ord2
    only build the default (ord1, h1), (ord2, h2), first order where not
    given.  The samples lie on spheres of R^k (the points {r, -r} for one
    block, with v = 0), and block i brings its exponent s_i and constants
    c_i, r_i, gamma_i, d_i; a condition missing one is inconclusive and
    names it.  Point witnesses are (vertex, t, s, w), or (vertex, t, w).
    (H5) is screened on the ball of radius 1 (see ``lipschitz_screen``).
    Each condition but the sign screen evaluates a selector once for all
    its radii, ws and points (``_rung_records``); (H1)-(H5) and the sign
    screen read their rungs by the one rule of ``_verdict``.
    """
    if spaces is None:
        spaces = _default_spaces(p, q, ord1, ord2)
    k = len(spaces)
    exps = [space.ord.s for space in spaces]
    ws = spec.w_grid(_W_SAMPLES)
    notes = []

    sphere = functools.partial(_sphere, blocks=k, samples=_ANGULAR_SAMPLES)
    sphere_bytes = 8 * graph.n * sphere((1.0,))[0].size  # of one (radius, w) rung's array
    coupling = functools.partial(nl.block_values, "F")  # F at every vertex and point

    def f1():  # value at the origin
        def table(_, bws):
            vals = np.abs(nl.grid_values("F", 0.0, 0.0, bws))  # vertex x w
            return list(zip(bws, vals.T))

        vals = np.array([row for _, row in _rung_records(table, (None,), ws, 8 * graph.n)])
        nan = np.isnan(vals)
        j, i = np.unravel_index(int(np.argmax(np.where(nan, -np.inf, vals))), vals.shape)
        worst, witness = float(vals[j, i]), (graph.vertices[i], ws[j])
        if worst > 1e-14:
            return "fail", witness, f"|F(x,0,0,w)| = {worst:.2e}"
        if nan.any():
            j, i = np.unravel_index(int(np.argmax(nan)), vals.shape)
            return "inconclusive", (graph.vertices[i], ws[j]), "F(x,0,0,w) is NaN at the witness"
        return "pass", None, f"max |F(x,0,0,w)| = {worst:.2e}"

    def f2():  # small-amplitude growth cap, estimated on a shrinking radius ladder
        bound = block_embedding(graph, spaces).cap
        rungs = _ratio_ladder(graph, _SMALL_RADII, sphere, ws, coupling, exps, largest=True)
        if nan := _nan_rung(rungs):
            return nan
        ladder = [(radius, value) for radius, value, _ in rungs]
        limit_estimate, witness = rungs[-1][1:]  # smallest radius
        detail = f"limit estimate {limit_estimate:.3e} vs bound {bound:.3e}; ladder {ladder}"
        ok = limit_estimate < bound
        return _SAMPLED[ok], None if ok else witness, detail

    def f3():  # superlinear growth at infinity
        rungs = _ratio_ladder(graph, _LARGE_RADII, sphere, ws, coupling, exps, largest=False)
        if nan := _nan_rung(rungs):
            return nan
        mins = [value for _, value, _ in rungs]
        detail = f"min ratio per radius {list(zip(_LARGE_RADII, mins))}"
        if mins[-1] == math.inf:
            # F overflows at every sample of the largest radius
            return "pass (sampled)", None, detail + "; +inf counts as growth past every bound"
        growing = all(b > a for a, b in zip(mins, mins[1:]))
        ok = growing and mins[-1] > 10.0 * max(mins[0], 0.0) and mins[-1] > 1.0
        return _SAMPLED[ok], None, detail

    def f4(*gammas):  # superlinear excess of the radial derivative over max_i s_i F
        mx = max(exps)

        def excess(coords, w):
            return _radial(nl, coords, w) - mx * coupling(coords, w)

        rungs = _ratio_ladder(graph, _LARGE_RADII, sphere, ws, excess, gammas, largest=False)
        if nan := _nan_rung(rungs):
            return nan
        mins = [value for _, value, _ in rungs]
        ok = mins[-1] > 0 and mins[-1] >= mins[0]
        return _SAMPLED[ok], None, f"min excess ratio per radius {list(zip(_LARGE_RADII, mins))}"

    def box_scan(violation) -> tuple:
        """``_verdict`` of violation() over the moderate radii and the ws.

        violation(coords, w, radii) is (mask, lhs, rhs) on the spheres of the
        radii at the parameters w, in the shape of ``grid_values``; the score
        of a sample is lhs - rhs, and a NaN lhs or rhs is a NaN sample (an
        inf - inf score is not).
        """

        def table(rs, bws):
            bad, lhs, rhs = violation(sphere(rs), bws[:, None], rs)
            fail = bad.any(axis=(0, -1))
            at = nan = nan_at = np.zeros(fail.shape, int)
            # ``_verdict`` stops at a failing rung, so a batch that holds one needs no NaN
            if fail.any():
                at = _rung_major(np.where(bad, lhs - rhs, -np.inf)).argmax(-1)
            elif np.isnan(lhs).any() or np.isnan(rhs).any():
                mask = _rung_major(np.isnan(lhs) | np.isnan(rhs))
                nan, nan_at = mask.any(-1), mask.argmax(-1)
            return _records(rs, bws, fail, at, nan, nan_at)

        records = _rung_records(table, _MODERATE_RADII, ws, sphere_bytes)
        return _verdict(records, lambda radius, w, at: _point_witness(
            graph, at, sphere((radius,)), w), "a sample is NaN at the witness")

    def h1(theta):  # theta F <= radial pairing away from the origin
        def violation(coords, w, radii):
            fvals = theta * coupling(coords, w)
            radial = _radial(nl, coords, w)
            return fvals > radial + 1e-9 * (1.0 + np.abs(radial)), fvals, radial

        return box_scan(violation)

    def h2(*consts):  # polynomial cap on the radial derivative
        cs, rs = consts[:k], consts[k:]

        def violation(coords, w, radii):
            radial = _radial(nl, coords, w)
            cap = sum(c * np.abs(t) ** r for c, t, r in zip(cs, coords, rs))
            return radial > cap + 1e-9 * (1.0 + cap), radial, cap

        return box_scan(violation)

    def h3(a_floor, c_fn):  # positivity floor F >= a(|point|) c(x)
        c_fn = np.asarray(c_fn)
        if np.any(c_fn <= 0):
            return "fail", None, "c(x) must be positive"
        floors = []

        def violation(coords, w, radii):
            floor = [a_floor(float(radius)) for radius in radii]
            floors.extend(floor)
            fvals = coupling(coords, w)
            lower = np.array(floor)[:, None, None] * c_fn[:, None, None, None]
            return fvals < lower - 1e-12 * (1.0 + np.abs(lower)), lower, fvals

        verdict, witness, detail = box_scan(violation)
        if verdict == "pass (sampled)" and max(floors) <= 0:
            return "fail", None, "sampled floor a(.) is identically zero"
        return verdict, witness, detail

    def h4(L, x0, delta):  # spike negativity condition (needs one exponent for every block)
        if len(set(exps)) > 1:
            return "inconclusive", None, "requires p == q"
        p = exps[0]
        i0 = graph.index[x0]
        Lvals = np.asarray(L, float)
        spike = np.zeros(graph.n)
        spike[i0] = 1.0
        threshold = sum(w_norm(graph, spike, space) ** p for space in spaces) / p
        terms = " + ".join(("|u*|^p", "|v*|^p")[:k])
        if Lvals[i0] <= 0:
            return "fail", None, f"L(x0) = {Lvals[i0]} <= 0"
        if graph.mu[i0] * Lvals[i0] <= threshold:
            return "fail", None, (
                f"mu(x0) L(x0) = {graph.mu[i0] * Lvals[i0]:.6g} "
                f"<= ({terms})/p = {threshold:.6g}"
            )
        amps = delta * (np.arange(1, _DELTA_SAMPLES + 1) / (_DELTA_SAMPLES + 1))
        floor = Lvals[i0] * amps**p - 1e-12

        def table(rs, bws):
            vals = coupling((amps,) * k, bws[:, None])[:, None]  # vertex x 1 x w x amplitude
            below, nan = vals < floor, np.isnan(vals[i0])
            return _records(rs, bws, below[i0].any(-1), below[i0].argmax(-1), nan.any(-1),
                            nan.argmax(-1), below.any(axis=(0, -1)))

        records = list(_rung_records(table, (None,), ws, 8 * graph.n * len(amps)))
        # the scalar analogue quantifies over every vertex; report both
        if any(rec[-1] for rec in records):
            notes.append("spike lower bound holds at x0 only; the all-vertices variant fails")
        return _verdict(records, lambda _, w, at: (x0, amps[at], w), "F is NaN at the witness")

    results = {
        "F1": _screen(spec, (), f1),
        "F2": _screen(spec, (), f2),
        "F3": _screen(spec, (), f3),
        "F4": _screen(spec, block_fields(k, "gamma"), f4),
        "H1": _screen(spec, ("theta",), h1),
        "H2": _screen(spec, block_fields(k, "c", "r"), h2),
        "H3": _screen(spec, ("a_floor", "c_fn"), h3),
        "H4": _screen(spec, ("L", "x0", "delta"), h4),
        "H5": lipschitz_screen(nl, spec, graph, spaces, sampling or SamplingConfig()),
        "NONEXIST": sign_screen(nl, spec, graph, k),
    }
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
    witness (t1, s1, t2, s2, w), or (t1, t2, w), is the first failing w and
    its first failing pair (``_verdict``).
    """
    blocks = len(spaces)
    est = ""
    if radius is None:
        radius = 1.0
        est = " (ball radius defaulted to 1, no certificate available)"

    def body(*ds):
        rng = np.random.default_rng(sampling.seed)
        pts = rng.uniform(-radius, radius, size=(_PAIR_SAMPLES, 2 * blocks))
        norms = np.linalg.norm(pts.reshape(len(pts), 2, blocks), axis=2)  # of the two points
        pts = pts[np.all(norms <= radius, axis=1)]
        first, second = pts[:, :blocks].T, pts[:, blocks:].T
        caps = [
            d * np.abs(b - a) ** (space.ord.s - 1) + 1e-12
            for d, a, b, space in zip(ds, first, second, spaces)
        ]
        ends = [np.stack(pair) for pair in zip(first, second)]  # per block: (a, b) x pair

        def table(rs, bws):
            failing = np.zeros((len(bws), len(pts)), bool)  # w x pair
            nan = np.zeros_like(failing)
            for which, cap in zip(Nonlinearity.PARTIALS, caps):
                # vertex x w x (a, b) x pair
                vals = nl.block_values(which, ends, bws[:, None, None])
                jump = np.abs(vals[:, :, 1] - vals[:, :, 0])
                nan |= np.any(np.isnan(jump), axis=0)
                failing |= np.any(jump > cap, axis=0)
            rows = (failing.any(-1), failing.argmax(-1), nan.any(-1), nan.argmax(-1))
            return _records(rs, bws, *(row[None] for row in rows))

        records = _rung_records(table, (None,), spec.w_grid(_W_SAMPLES), 8 * graph.n * 2 * len(pts))
        verdict, witness, _ = _verdict(records, lambda _, w, at: (*pts[at], w), "")
        return verdict, witness, f"radius {radius:.3g}{est}"

    return _screen(spec, block_fields(blocks, "d"), body)


def sign_screen(
    nl: Nonlinearity, spec: HypothesisSpec, graph: WeightedGraph, blocks: int
) -> ConditionResult:
    """Screen the nonexistence sign condition F_u t + F_v s < 0 off the origin.

    The sample points are the nonzero points of the grid on the box
    [-R, R]^blocks (R = 10); one block screens F_u t
    with v = 0.  The ws are evaluated one at a time and read by ``_verdict``,
    so the screen stops at the first failing w; its witness is the largest
    pairing that is not NaN: (vertex, t, s, w), or (vertex, t, w) for one
    block.
    """
    axis = np.linspace(-_BOX_RADIUS, _BOX_RADIUS, _BOX_GRID)
    coords = [c.ravel() for c in np.meshgrid(*(axis,) * blocks, indexing="ij")]
    nontrivial = np.any([c != 0 for c in coords], axis=0)
    coords = [c[nontrivial] for c in coords]

    def rungs():
        # vals lives until the next w's replaces it (arrays over 128 KiB are mapped anew)
        for w in spec.w_grid(_W_SAMPLES):
            vals = _radial(nl, coords, w)
            top, nan_at = vals.max(), None  # top is NaN if any pairing is NaN
            if math.isnan(top):
                nan = np.isnan(vals)
                nan_at, vals[nan] = np.argmax(nan), -np.inf
                top = vals.max()
            yield None, w, top >= 0, top >= 0 and np.argmax(vals), nan_at is not None, nan_at

    return _screen(spec, (), lambda: _verdict(
        rungs(), lambda _, w, at: _point_witness(graph, at, coords, w),
        "the pairing is NaN at the witness"))


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


def builtin(name: str, graph: WeightedGraph):
    """Instantiate one of the shipped example problems on a graph (J = [-1, 1]).

    The coefficient tables gamma and z are 1 at every vertex, and the small
    couplings of localmin-example and unique-example take 0.9 of the (F2) cap
    as their coefficient.
    """
    if name not in BUILTIN_NAMES:
        raise NonlinearityError(f"unknown builtin {name!r}; choose from {BUILTIN_NAMES}")
    gamma_tab = np.ones(graph.n)
    p = q = 2.0
    spec = HypothesisSpec()

    if name == "mp-example":
        p = 3.0
        nl = Nonlinearity.from_source(
            graph, "(u^2+v^2)^2*(1+w^2)*abs(gamma)", {"gamma": gamma_tab}
        )
        spec = HypothesisSpec(
            theta=4.0,
            c1=16.0,
            c2=16.0,
            r1=4.0,
            r2=4.0,
            gamma1=2.0,
            gamma2=2.0,
            a_floor=lambda r: r**4,
            c_fn=np.ones(graph.n),
        )
    elif name == "localmin-example":
        p = q = 4.0
        coeff = 0.9 * block_embedding(graph, _default_spaces(p, q)).cap
        nl = Nonlinearity.from_source(
            graph, "ecoef*(u^2+v^2)^2*(1+w^2)*abs(gamma)", {"gamma": gamma_tab, "ecoef": coeff}
        )
        spec = HypothesisSpec(
            delta=1.0, L=np.full(graph.n, 4.0 * coeff), x0=spike_vertex(graph)
        )
    elif name == "unique-example":
        coeff = 0.9 * block_embedding(graph, _default_spaces(p, q)).cap
        nl = Nonlinearity.from_source(
            graph, "ecoef*(u^2+v^2)*(1+w^2)*abs(gamma)", {"gamma": gamma_tab, "ecoef": coeff}
        )
        spec = HypothesisSpec(
            delta=1.0,
            L=np.full(graph.n, 4.0 * coeff),
            x0=spike_vertex(graph),
            d1=4.0 * coeff,
            d2=4.0 * coeff,
        )
    elif name == "control-objective":
        nl = Nonlinearity.from_source(graph, "z*(u^2+v^2)^2*w^2", {"z": np.ones(graph.n)})
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
