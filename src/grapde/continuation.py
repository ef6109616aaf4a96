"""Parameter sweeps, branch continuity diagnostics, and grid optimal control.

A sweep solves the problem (system or scalar) at every grid parameter left to
right, warm-starting each solve from the previous solution (with a cold-start
fallback), and shares one parameter-uniform endpoint so the certificate
constants are identical across the whole branch.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from ._optim import bb_minimize, polish_root
from .energy import psi
from .nonlinearity import Nonlinearity
from .solvers import (
    SolverConfig,
    SolverError,
    ball_projection,
    ball_radius,
    certify,
    local_min_solve,
    mountain_pass_solve,
    negative_endpoint,
    solve_report,
    spike_start,
    trivial_norm,
)
from .spaces import w_norm

__all__ = [
    "Branch",
    "ControlReport",
    "sweep",
    "branch_continuity_report",
    "optimal_control",
    "branch_to_csv",
]


@dataclass
class Branch:
    grid: np.ndarray
    reports: list  # SolveReport or None per grid point
    jumps: list  # consecutive state distances (None next to a failed point)
    kind: str

    @property
    def converged_points(self):
        return [
            (w, r) for w, r in zip(self.grid, self.reports) if r is not None and r.converged
        ]

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "grid": [float(w) for w in self.grid],
            "jumps": [None if j is None else float(j) for j in self.jumps],
            "reports": [None if r is None else r.to_dict() for r in self.reports],
        }


def _solve_point(inst, kind, config, endpoint, rho, warm_x):
    """One grid point: try the warm start, fall back to a cold solve."""
    if warm_x is not None:
        weights = inst.weights
        if kind == "mp":
            res = polish_root(inst.gradient, warm_x, weights, tol=config.tol)
        else:
            res = bb_minimize(
                inst.energy, inst.gradient, warm_x, weights,
                tol=config.tol, project=ball_projection(inst, rho),
            )
        if res.converged and inst.norm(res.x) >= trivial_norm(inst, config.tol):
            if kind == "mp":
                cert, flags = certify(inst.bounds_mp, endpoint)
            else:
                cert, flags = certify(inst.bounds_min, spike_start(inst, rho), rho)
            report = solve_report(
                inst, res.x, "mountain-pass" if kind == "mp" else "local-min",
                res.iterations, res.fevals, config,
                certificate=cert, extra_flags=flags + ("warm start",),
            )
            if report.converged and "type-uncertain" not in report.flags:
                return report
    if kind == "mp":
        return mountain_pass_solve(inst, config, endpoint=endpoint)
    return local_min_solve(inst, config)


def sweep(
    inst,
    grid=21,
    kind: str = "mp",
    config: SolverConfig = None,
    warm: bool = True,
) -> Branch:
    """Solve across the parameter interval; failures are recorded, not fatal."""
    config = config or SolverConfig()
    if kind not in ("mp", "min"):
        raise ValueError("kind must be 'mp' or 'min'")
    if np.isscalar(grid):
        lo, hi = inst.spec.J
        grid = np.linspace(lo, hi, int(grid))
    else:
        grid = np.asarray(grid, float)
        if grid.size > 1 and not np.all(np.diff(grid) > 0):
            raise ValueError("grid must be strictly increasing")
        lo, hi = inst.spec.J
        if grid.min() < lo - 1e-12 or grid.max() > hi + 1e-12:
            raise ValueError("grid leaves the parameter interval")

    endpoint = negative_endpoint(inst, config) if kind == "mp" else None
    rho = ball_radius(inst, config) if kind == "min" else None

    reports = []
    warm_x = None
    for w in grid:
        point = inst.at(float(w))
        try:
            report = _solve_point(point, kind, config, endpoint, rho, warm_x if warm else None)
        except SolverError:
            report = None
        reports.append(report)
        converged = report is not None and report.converged
        warm_x = report.state.flat() if converged else None

    jumps = []
    for a, b in zip(reports, reports[1:]):
        if a is None or b is None:
            jumps.append(None)
        else:
            jumps.append(inst.norm(b.state.flat() - a.state.flat()))
    return Branch(grid=grid, reports=reports, jumps=jumps, kind=kind)


@dataclass
class ContinuityReport:
    max_jump: float  # None for single-point grids
    jump_table: list  # (w_left, w_right, jump, jump/dw)
    norms_in_bounds: bool
    out_of_bounds: list
    coverage: float
    limit_check_distance: float
    notes: tuple = ()

    def to_dict(self) -> dict:
        return {
            "max_jump": self.max_jump,
            "jump_table": [
                [float(a), float(b), None if j is None else float(j), None if r is None else float(r)]
                for a, b, j, r in self.jump_table
            ],
            "norms_in_bounds": self.norms_in_bounds,
            "out_of_bounds": list(self.out_of_bounds),
            "coverage": self.coverage,
            "limit_check_distance": self.limit_check_distance,
            "notes": list(self.notes),
        }


def branch_continuity_report(
    branch: Branch, inst, config: SolverConfig = None, w0: float = None
) -> ContinuityReport:
    """Jump statistics, certificate-bound verification, and a limit re-solve."""
    config = config or SolverConfig()
    notes = []
    jumps = [j for j in branch.jumps if j is not None]
    max_jump = max(jumps) if jumps else None
    if max_jump is None and len(branch.grid) < 2:
        notes.append("single-point grid: jumps undefined")
    table = []
    for k, j in enumerate(branch.jumps):
        dw = float(branch.grid[k + 1] - branch.grid[k])
        table.append(
            (branch.grid[k], branch.grid[k + 1], j, None if j is None else j / dw)
        )
    out = []
    for w, report in zip(branch.grid, branch.reports):
        if report is None or not report.converged:
            continue
        cert = report.certificate
        if cert is None:
            out.append((float(w), "no certificate"))
        elif not (cert.lower <= cert.norm <= cert.upper):
            out.append((float(w), f"norm {cert.norm:.6g} outside [{cert.lower:.6g}, {cert.upper:.6g}]"))
    converged = sum(1 for r in branch.reports if r is not None and r.converged)
    coverage = converged / len(branch.reports)
    if coverage < 1.0:
        notes.append(f"coverage {coverage:.0%}: failed points excluded from statistics")

    # limit check: re-solve at w0 warm-started from the nearest converged point
    limit_distance = math.inf
    if w0 is None:
        w0 = float(branch.grid[len(branch.grid) // 2])
    nearest = None
    for w, report in branch.converged_points:
        if nearest is None or abs(w - w0) < abs(nearest[0] - w0):
            nearest = (w, report)
    if nearest is not None:
        point = inst.at(w0)
        res = polish_root(point.gradient, nearest[1].state.flat(), point.weights, tol=config.tol)
        if res.converged:
            ref = next((r for w, r in branch.converged_points if abs(w - w0) < 1e-15), None)
            if ref is not None:
                limit_distance = point.norm(res.x - ref.state.flat())
            else:
                limit_distance = 0.0
                notes.append("limit parameter off-grid: re-solve converged, no reference state")
        else:
            notes.append("limit re-solve did not converge")
    else:
        notes.append("no converged point available for the limit check")
    return ContinuityReport(
        max_jump=max_jump,
        jump_table=table,
        norms_in_bounds=not out,
        out_of_bounds=out,
        coverage=coverage,
        limit_check_distance=limit_distance,
        notes=tuple(notes),
    )


@dataclass
class ControlReport:
    w_opt: float
    state: object  # StatePair at the optimum (v None for a scalar problem)
    psi_opt: float
    table: list  # (w, psi) over converged points
    branch: Branch

    def to_dict(self) -> dict:
        return {
            "w_opt": self.w_opt,
            "psi_opt": self.psi_opt,
            **self.state.to_dict(),
            "table": [[float(w), float(val)] for w, val in self.table],
            "branch": self.branch.to_dict(),
        }


def optimal_control(
    inst,
    objective: Nonlinearity,
    grid=21,
    kind: str = "mp",
    config: SolverConfig = None,
) -> ControlReport:
    """Minimize the integral objective over the solved branch; ties take the smallest w."""
    branch = sweep(inst, grid=grid, kind=kind, config=config)
    table = []
    best = None
    for w, report in branch.converged_points:
        value = psi(inst.at(float(w)), report.state, objective)
        table.append((float(w), value))
        if best is None or value < best[1]:
            best = (float(w), value, report)
    if best is None:
        raise SolverError("optimal control failed: no converged grid points")
    return ControlReport(
        w_opt=best[0], state=best[2].state, psi_opt=best[1], table=table, branch=branch
    )


def branch_to_csv(branch: Branch, path, inst, psi_values: dict = None):
    """Write the plotting table (w, norms, energy, residual, bounds, psi).

    A scalar problem leaves the norm_v column empty.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["w", "norm_u", "norm_v", "energy", "residual", "C1", "C2", "psi"])
        for w, report in zip(branch.grid, branch.reports):
            if report is None:
                writer.writerow([repr(float(w))] + [""] * 7)
                continue
            cert = report.certificate
            pv = (psi_values or {}).get(float(w), "")
            norms = [
                repr(w_norm(inst.graph, f, space))
                for f, space in zip(report.state.blocks, inst.spaces)
            ]
            writer.writerow(
                [repr(float(w))]
                + norms + [""] * (2 - len(norms))
                + [
                    repr(report.energy),
                    repr(report.residual),
                    repr(cert.lower) if cert else "",
                    repr(cert.upper) if cert else "",
                    repr(pv) if pv != "" else "",
                ]
            )
