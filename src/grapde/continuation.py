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

from ._optim import polish_root
from .energy import psi
from .nonlinearity import Nonlinearity
from .solvers import (
    SolverConfig,
    SolverError,
    ball_radius,
    bound_certificate_mp,
    certify,
    local_min_solve,
    mountain_pass_solve,
    negative_endpoint,
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


def sweep(
    inst,
    grid: int = 21,
    kind: str = "mp",
    config: SolverConfig = None,
    warm: bool = True,
) -> Branch:
    """Solve at ``grid`` uniform points of J (the one point of a degenerate J).

    Failures are recorded, not fatal.
    """
    config = config or SolverConfig()
    if kind not in ("mp", "min"):
        raise ValueError("kind must be 'mp' or 'min'")
    if grid < 1:
        raise ValueError("grid needs at least one point")
    grid = inst.spec.w_grid(grid)

    endpoint = negative_endpoint(inst) if kind == "mp" else None
    # one endpoint, so one certificate for every point: it does not depend on w
    certified = certify(bound_certificate_mp, inst, endpoint) if kind == "mp" else None
    rho = ball_radius(inst) if kind == "min" else None

    reports = []
    start = None
    for w in grid:
        point = inst.at(float(w))
        try:
            if kind == "mp":
                report = mountain_pass_solve(point, config, endpoint, start, certified)
            else:
                report = local_min_solve(point, config, rho, start)
        except SolverError:
            report = None
        reports.append(report)
        converged = report is not None and report.converged
        start = report.state.flat() if warm and converged else None

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


def branch_continuity_report(
    branch: Branch, inst, config: SolverConfig = None
) -> ContinuityReport:
    """Jump statistics, certificate-bound verification, and a limit re-solve.

    The limit check re-solves at the middle grid parameter w0 from the
    converged state of the nearest other grid point and reports the
    distance to the state found at w0.  Ties go to the larger parameter: a
    sweep runs left to right, so w0's own state may be the polish of its
    left neighbour's, and repeating that polish would check nothing.  The
    distance is inf, with a note, if w0 or every other point failed, and a
    note says when the re-solve reached the trivial solution from a
    nontrivial state at w0.
    """
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
        elif not cert.satisfied:
            out.append((float(w), f"norm {cert.norm:.6g} outside [{cert.lower:.6g}, {cert.upper:.6g}]"))
    converged = sum(1 for r in branch.reports if r is not None and r.converged)
    coverage = converged / len(branch.reports)
    if coverage < 1.0:
        notes.append(f"coverage {coverage:.0%}: failed points excluded from statistics")

    limit_distance = math.inf
    w0 = float(branch.grid[len(branch.grid) // 2])
    ref = next((r for w, r in branch.converged_points if w == w0), None)
    neighbour = min(
        ((w, r) for w, r in branch.converged_points if w != w0),
        key=lambda item: (abs(item[0] - w0), -item[0]),
        default=None,
    )
    if ref is None:
        if converged:
            notes.append(
                f"limit parameter w0 = {w0:g} failed: no reference state for the limit check"
            )
        else:
            notes.append("no converged point available for the limit check")
    elif neighbour is None:
        notes.append(f"no converged point besides w0 = {w0:g} to start the limit check from")
    else:
        point = inst.at(w0)
        x = ref.state.flat()
        start = neighbour[1].state.flat()
        res = polish_root(point.gradient, start, point.weights, point.jacobian, tol=config.tol)
        if res.converged:
            limit_distance = point.norm(res.x - x)
            if point.norm(res.x) < trivial_norm(point, config.tol) <= point.norm(x):
                notes.append(
                    f"limit re-solve from w = {neighbour[0]:g} reached the trivial solution"
                )
        else:
            notes.append("limit re-solve did not converge")
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


def optimal_control(
    inst,
    objective: Nonlinearity,
    grid: int = 21,
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
