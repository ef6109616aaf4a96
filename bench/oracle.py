"""Correctness oracle: re-checks CLI reports through grapde's public functions.

The oracle never trusts a report's own verdicts.  It reloads the graph and
problem files the request used, recomputes

* the Euler-Lagrange residual of every state the report calls converged
  (``el_residual_norm`` / ``scalar_residual`` must be <= tol), and
* the product norm of that state (``w_norm``), which must lie inside the
  certificate's [lower, upper] whenever the report says it does;

and compares ``check`` verdict tables with a reference recorded in
``reference/verdicts.json``, never with the exit code (``check`` exits 2 as
soon as any verdict is ``fail``, and NONEXIST must fail for mp-example).

A refusal with a named reason (a report ``{"error": ...}``) is an outcome,
not a wrong answer: it passes the oracle and simply certifies no point.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from grapde.cli import load_problem
from grapde.energy import ProblemInstance, el_residual_norm, psi
from grapde.graph import load_graph, path_graph
from grapde.nonlinearity import builtin
from grapde.scalar import ScalarInstance, scalar_norm, scalar_residual
from grapde.spaces import embedding_constants, w_norm

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference", "verdicts.json")

# relative slack when comparing a recomputed float with the reported one
REL = 1e-9
# nonexist-example: every multistart root must be the trivial state
NONEXIST_MAX_NORM = 1e-6


class OracleError(AssertionError):
    """A report claims something that the recomputation contradicts."""


@dataclass
class Verdict:
    certified: int = 0  # points converged, re-verified and inside their bounds
    refusal: str = None  # named reason when the program refused


def load_reference(path=REFERENCE_PATH) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class Oracle:
    def __init__(self, reference: dict):
        self.reference = reference
        self._cache = {}

    def _instance(self, graph_path, problem_path):
        key = (graph_path, problem_path)
        if key not in self._cache:
            graph = load_graph(graph_path) if graph_path else path_graph(2)
            inst, objective = load_problem(problem_path, graph) if problem_path else (None, None)
            self._cache[key] = (graph, inst, objective)
        return self._cache[key]

    # --- solution points --------------------------------------------------

    def _point(self, inst, rep: dict, w: float, tol: float) -> bool:
        """Re-verify one solve report; True when the point is certified."""
        if not rep["converged"]:
            return False
        point = inst.at(w)
        graph = inst.graph
        if isinstance(inst, ScalarInstance):
            u = np.array([rep["u"][v] for v in graph.vertices])
            res = scalar_residual(point, u)
            norm = scalar_norm(point, u)
        else:
            u = np.array([rep["u"][v] for v in graph.vertices])
            v = np.array([rep["v"][x] for x in graph.vertices])
            res = el_residual_norm(point, (u, v))
            norm = w_norm(graph, u, inst.space1) + w_norm(graph, v, inst.space2)
        if not res <= tol * (1.0 + REL):
            raise OracleError(f"claimed converged at w={w} but residual {res:.3e} > tol {tol:g}")
        cert = rep.get("certificate")
        if cert is None:
            return False
        inside = cert["lower"] <= norm <= cert["upper"]
        if bool(cert["satisfied"]) != inside:
            raise OracleError(
                f"certificate at w={w} says satisfied={cert['satisfied']} but norm "
                f"{norm:.6g} vs [{cert['lower']:.6g}, {cert['upper']:.6g}]"
            )
        if cert["norm"] is not None and not math.isclose(cert["norm"], norm, rel_tol=1e-7):
            raise OracleError(f"reported norm {cert['norm']} != recomputed {norm}")
        return inside

    def _branch(self, inst, branch: dict, grid: int, tol: float) -> int:
        ws = branch["grid"]
        lo, hi = inst.spec.J
        if len(ws) != grid or len(branch["reports"]) != grid:
            raise OracleError(f"branch has {len(ws)} points, expected {grid}")
        if not np.allclose(ws, np.linspace(lo, hi, grid), rtol=0, atol=1e-12):
            raise OracleError("branch grid is not the uniform grid over J")
        return sum(
            self._point(inst, rep, float(w), tol)
            for w, rep in zip(ws, branch["reports"])
            if rep is not None
        )

    # --- per command ------------------------------------------------------

    def verify(self, req, code: int, report: dict) -> Verdict:
        """Check one finished request; raises OracleError on a wrong answer."""
        if report.get("command") != req.command:
            raise OracleError(f"report is for {report.get('command')!r}, not {req.command!r}")
        result = report["result"]
        graph, inst, objective = self._instance(req.graph, req.problem)
        tol = report["config"]["tol"]
        out = Verdict()
        if req.command in ("solve", "sweep", "control") and "error" in result:
            if code != 2:
                raise OracleError(f"refusal {result['error']!r} exited with {code}")
            out.refusal = result["error"]
            return out
        if req.command == "solve":
            certified = self._point(inst, result, inst.w, tol)
            if (code == 0) != certified:
                raise OracleError(f"exit code {code} disagrees with certified={certified}")
            out.certified = int(certified)
        elif req.command == "sweep":
            out.certified = self._branch(inst, result, req.grid, tol)
        elif req.command == "control":
            out.certified = self._branch(inst, result["branch"], req.grid, tol)
            self._control(inst, objective, result)
        elif req.command == "check":
            self._verdicts(req, result)
        elif req.command == "nonexist":
            self._nonexist(result, code)
        elif req.command == "constants":
            self._constants(graph, inst, result)
        elif req.command == "demo":
            out.refusal = self._demo(req, result, tol)
        else:
            raise OracleError(f"no oracle for command {req.command!r}")
        return out

    def _control(self, inst, objective, result):
        table = result["table"]
        if not table:
            raise OracleError("control returned an empty objective table")
        best = min(table, key=lambda row: row[1])
        if not math.isclose(result["psi_opt"], best[1], rel_tol=REL, abs_tol=1e-300):
            raise OracleError("psi_opt is not the minimum of the objective table")
        graph = inst.graph
        state = (
            np.array([result["u"][v] for v in graph.vertices]),
            np.array([result["v"][v] for v in graph.vertices]),
        )
        value = psi(inst.at(result["w_opt"]), state, objective)
        if not math.isclose(value, result["psi_opt"], rel_tol=1e-7, abs_tol=1e-12):
            raise OracleError(f"psi at w_opt recomputes to {value}, report says {result['psi_opt']}")

    def _verdicts(self, req, result):
        expected = self.reference["check"][req.reference]
        got = {name: c["verdict"] for name, c in result["conditions"].items()}
        if got != expected:
            diff = {k: (expected.get(k), got.get(k)) for k in set(expected) | set(got)
                    if expected.get(k) != got.get(k)}
            raise OracleError(f"check verdicts differ from reference {req.reference}: {diff}")

    def _nonexist(self, result, code):
        if not result["certified"] or code != 0:
            raise OracleError("nonexist-example was not certified")
        max_norm = result["multistart_max_norm"]
        if max_norm is None or not max_norm <= NONEXIST_MAX_NORM:
            raise OracleError(f"multistart max norm {max_norm} is not ~0")

    def _constants(self, graph, inst, result):
        emb = embedding_constants(graph, inst.p, inst.q)
        if result["n"] != graph.n:
            raise OracleError("constants report the wrong vertex count")
        for key in ("b", "d", "K1", "K2"):
            if not math.isclose(result[key], getattr(emb, key), rel_tol=REL):
                raise OracleError(f"constant {key} = {result[key]} != {getattr(emb, key)}")
        bounds = result.get("bounds")
        if bounds is not None and not 0 < bounds["lower"] <= bounds["upper"]:
            raise OracleError("bound certificate has lower > upper")

    def _demo(self, req, result, tol):
        """unique-example: the local-min solve refuses or verifies; no false certificate."""
        graph, _, _ = self._instance(req.graph, None)
        prob = builtin(req.demo, graph)
        inst = ProblemInstance(graph, prob.ord1, prob.ord2, prob.nl, prob.spec, 0.0)
        solve = result["solve"]
        refusal = solve.get("error")
        solved = refusal is None and self._point(inst, solve, 0.0, tol)
        uniq = result["uniqueness"]
        if uniq["certified"] and not solved:
            raise OracleError("uniqueness certified without a certified local minimum")
        return refusal
