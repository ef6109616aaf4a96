"""Command-line front end: load graph/problem files, run pipelines, write reports.

Exit codes: 0 = success (and certified, where a certificate applies),
2 = ran but not certified / not converged, 1 = usage or input error.
Verbosity via the GRAPDE_LOG environment variable (DEBUG/INFO/WARNING).
"""

from __future__ import annotations

import argparse
import datetime
import json
import logging
import os
import sys

import numpy as np

from . import __version__
from .calculus import OperatorOrder
from .continuation import branch_continuity_report, branch_to_csv, optimal_control, sweep
from .energy import ProblemInstance
from .expressions import ParseError
from .graph import GraphError, WeightedGraph, load_graph, path_graph, validate
from .nonlinearity import (
    BUILTIN_NAMES,
    HypothesisSpec,
    Nonlinearity,
    NonlinearityError,
    SamplingConfig,
    builtin,
)
from .scalar import ScalarInstance
from .solvers import (
    CertificateError,
    SolverConfig,
    SolverError,
    local_min_solve,
    mountain_pass_solve,
    negative_endpoint,
    nonexistence_check,
    uniqueness_certificate,
)
from .spaces import embedding_constants

log = logging.getLogger("grapde")

_PROBLEM_FIELDS = {
    "builtin", "F", "coeffs", "p", "q", "m1", "m2", "w", "J",
    "hypotheses", "scalar", "objective", "potential",
}
_HYP_FIELDS = {
    "theta", "c1", "c2", "r1", "r2", "gamma1", "gamma2",
    "delta", "L", "x0", "d1", "d2",
}


class InputError(ValueError):
    pass


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as err:
        raise InputError(f"cannot read {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise InputError(f"{path}: invalid JSON ({err})") from err


def _hypothesis_spec(data: dict, graph: WeightedGraph) -> HypothesisSpec:
    unknown = set(data) - _HYP_FIELDS
    if unknown:
        raise InputError(f"unknown hypothesis fields: {sorted(unknown)}")
    kwargs = {k: data[k] for k in data if k not in ("L",)}
    if "L" in data:
        L = data["L"]
        if isinstance(L, dict):
            kwargs["L"] = np.array([float(L[v]) for v in graph.vertices])
        else:
            kwargs["L"] = np.full(graph.n, float(L))
    return HypothesisSpec(**kwargs)


def load_problem(path, graph: WeightedGraph):
    """Build a system or scalar instance from a problem JSON file."""
    data = _load_json(path)
    unknown = set(data) - _PROBLEM_FIELDS
    if unknown:
        raise InputError(f"unknown problem fields: {sorted(unknown)}")
    w = float(data.get("w", 0.0))
    if "builtin" in data:
        prob = builtin(data["builtin"], graph)
        spec = prob.spec
        if "hypotheses" in data:
            spec = _hypothesis_spec(data["hypotheses"], graph)
        inst = ProblemInstance(graph, prob.ord1, prob.ord2, prob.nl, spec, w)
        objective = _load_objective(data, graph)
        return inst, objective
    if "F" not in data:
        raise InputError("problem file needs either 'builtin' or an 'F' expression")
    coeffs = data.get("coeffs", {})
    nl = Nonlinearity.from_source(graph, data["F"], coeffs)
    spec = _hypothesis_spec(dict(data.get("hypotheses", {})), graph)
    if "J" in data:
        spec.J = tuple(float(x) for x in data["J"])
    p = float(data.get("p", 2.0))
    q = float(data.get("q", p))
    m1 = int(data.get("m1", 1))
    m2 = int(data.get("m2", 1))
    if data.get("scalar", False):
        inst = ScalarInstance(
            graph, OperatorOrder(m1, p), nl, spec, data.get("potential", "h1"), w
        )
    else:
        inst = ProblemInstance(
            graph, OperatorOrder(m1, p), OperatorOrder(m2, q), nl, spec, w
        )
    return inst, _load_objective(data, graph)


def _load_objective(data, graph):
    if "objective" not in data:
        return None
    obj = data["objective"]
    if isinstance(obj, str):
        return builtin(obj, graph).nl
    return Nonlinearity.from_source(graph, obj["F"], obj.get("coeffs", {}))


def _config(args) -> SolverConfig:
    return SolverConfig(tol=args.tol, seed=args.seed)


def _emit(args, command, result, exit_code):
    report = {
        "tool": "grapde",
        "version": __version__,
        "command": command,
        "config": {
            "tol": args.tol,
            "seed": args.seed,
            "grid": getattr(args, "grid", None),
            "kind": getattr(args, "kind", None),
            "deterministic": args.deterministic,
        },
        "result": result,
    }
    if not args.deterministic:
        report["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return exit_code


def _default_graph() -> WeightedGraph:
    return path_graph(2)


def _get_graph(args) -> WeightedGraph:
    if args.graph:
        graph = load_graph(args.graph)
    else:
        graph = _default_graph()
    report = validate(graph)
    if not report.ok:
        raise InputError("invalid graph: " + "; ".join(report.violations))
    for warning in report.warnings:
        log.warning("%s", warning)
    return graph


def cmd_constants(args):
    graph = _get_graph(args)
    inst, _ = load_problem(args.problem, graph) if args.problem else (None, None)
    if inst is None:
        raise InputError("constants needs --problem (for p, q and hypothesis constants)")
    emb = embedding_constants(graph, inst.p, inst.q)
    result = {
        "n": graph.n,
        "volume": float(np.sum(graph.mu)),
        "p": inst.p,
        "q": inst.q,
        "b": emb.b,
        "d": emb.d,
        "K1": emb.K1,
        "K2": emb.K2,
    }
    try:
        endpoint = negative_endpoint(inst, _config(args))
        result["bounds"] = inst.bounds_mp(endpoint).to_dict()
    except (SolverError, CertificateError) as err:
        result["bounds"] = None
        result["bounds_error"] = str(err)
    return _emit(args, "constants", result, 0)


def cmd_check(args):
    graph = _get_graph(args)
    inst, _ = load_problem(args.problem, graph)
    report = inst.check(SamplingConfig(seed=args.seed))
    failed = [n for n, c in report.conditions.items() if c.verdict == "fail"]
    return _emit(args, "check", report.to_dict(), 2 if failed else 0)


def _certified(report) -> bool:
    """Converged, with a certificate whose norm bounds hold."""
    cert = report.certificate
    return report.converged and cert is not None and bool(cert.satisfied)


def cmd_solve(args):
    graph = _get_graph(args)
    inst, _ = load_problem(args.problem, graph)
    config = _config(args)
    solve = mountain_pass_solve if args.kind == "mp" else local_min_solve
    try:
        report = solve(inst, config)
    except SolverError as err:
        return _emit(args, "solve", {"error": str(err)}, 2)
    return _emit(args, "solve", report.to_dict(), 0 if _certified(report) else 2)


def cmd_sweep(args):
    graph = _get_graph(args)
    inst, _ = load_problem(args.problem, graph)
    config = _config(args)
    try:
        branch = sweep(inst, grid=args.grid, kind=args.kind, config=config)
        result = branch.to_dict()
        result["continuity"] = branch_continuity_report(branch, inst, config).to_dict()
        if args.csv:
            branch_to_csv(branch, args.csv, inst)
    except SolverError as err:
        return _emit(args, "sweep", {"error": str(err)}, 2)
    certified = all(r is not None and _certified(r) for r in branch.reports)
    return _emit(args, "sweep", result, 0 if certified else 2)


def cmd_control(args):
    graph = _get_graph(args)
    inst, objective = load_problem(args.problem, graph)
    if objective is None:
        raise InputError("control needs an 'objective' block in the problem file")
    config = _config(args)
    try:
        res = optimal_control(inst, objective, grid=args.grid, kind=args.kind, config=config)
        result = res.to_dict()
        if args.csv:
            branch_to_csv(res.branch, args.csv, inst, psi_values=dict(res.table))
    except SolverError as err:
        return _emit(args, "control", {"error": str(err)}, 2)
    certified = all(r is not None and _certified(r) for r in res.branch.reports)
    return _emit(args, "control", result, 0 if certified else 2)


def cmd_nonexist(args):
    graph = _get_graph(args)
    inst, _ = load_problem(args.problem, graph)
    config = _config(args)
    sampling = SamplingConfig(seed=args.seed)
    report = nonexistence_check(inst, sampling, config, multistart=args.multistart)
    result = report.to_dict()
    if report.certified:
        result["summary"] = "nonexistence certified (sampled)"
    return _emit(args, "nonexist", result, 0 if report.certified else 2)


def cmd_demo(args):
    graph = _get_graph(args)
    prob = builtin(args.name, graph)
    config = _config(args)
    inst = ProblemInstance(graph, prob.ord1, prob.ord2, prob.nl, prob.spec, 0.0)
    result = {"builtin": args.name}
    code = 0
    if args.name == "mp-example":
        report = mountain_pass_solve(inst, config)
        result["solve"] = report.to_dict()
        code = 0 if _certified(report) else 2
    elif args.name in ("localmin-example", "unique-example"):
        try:
            report = local_min_solve(inst, config)
            result["solve"] = report.to_dict()
            code = 0 if (report.converged and report.energy < 0) else 2
        except SolverError as err:
            result["solve"] = {"error": str(err)}
            code = 2
        if args.name == "unique-example":
            uniq = uniqueness_certificate(inst, config)
            result["uniqueness"] = uniq.to_dict()
            if not uniq.certified:
                code = 2
    elif args.name == "control-objective":
        base = builtin("mp-example", graph)
        base_inst = ProblemInstance(graph, base.ord1, base.ord2, base.nl, base.spec, 0.0)
        try:
            result["control"] = optimal_control(
                base_inst, prob.nl, grid=args.grid, kind="mp", config=config
            ).to_dict()
        except SolverError as err:
            result["control"] = {"error": str(err)}
            code = 2
    else:  # nonexist-example
        report = nonexistence_check(
            inst, SamplingConfig(seed=args.seed), config, multistart=args.multistart
        )
        result["nonexistence"] = report.to_dict()
        if report.certified:
            result["summary"] = "nonexistence certified (sampled)"
        code = 0 if report.certified else 2
    return _emit(args, "demo", result, code)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grapde",
        description="Solve, certify and sweep coupled poly-Laplacian systems on weighted graphs.",
    )
    parser.add_argument("--version", action="version", version=f"grapde {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, problem_required=True):
        sp.add_argument("--graph", help="graph JSON file (default: 2-vertex path)")
        sp.add_argument("--problem", required=problem_required, help="problem JSON file")
        sp.add_argument("--out", help="write the JSON report here instead of stdout")
        sp.add_argument("--grid", type=int, default=21, help="parameter grid points")
        sp.add_argument("--tol", type=float, default=1e-8, help="residual tolerance")
        sp.add_argument("--seed", type=int, default=0, help="seed for all sampling")
        sp.add_argument(
            "--deterministic", action="store_true",
            help="omit timestamps so identical runs emit identical bytes",
        )

    sp = sub.add_parser("constants", help="embedding and bound constants")
    common(sp)
    sp.set_defaults(func=cmd_constants)

    sp = sub.add_parser("check", help="hypothesis screening")
    common(sp)
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("solve", help="one critical-point solve")
    common(sp)
    sp.add_argument("--kind", choices=("mp", "min"), default="mp")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("sweep", help="parameter sweep across J")
    common(sp)
    sp.add_argument("--kind", choices=("mp", "min"), default="mp")
    sp.add_argument("--csv", help="also write the plotting CSV here")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("control", help="grid optimal control over the branch")
    common(sp)
    sp.add_argument("--kind", choices=("mp", "min"), default="mp")
    sp.add_argument("--csv", help="also write the plotting CSV here")
    sp.set_defaults(func=cmd_control)

    sp = sub.add_parser("nonexist", help="nonexistence screening")
    common(sp)
    sp.add_argument("--multistart", type=int, default=0)
    sp.set_defaults(func=cmd_nonexist)

    sp = sub.add_parser("demo", help="end-to-end pipeline on a builtin example")
    sp.add_argument("name", choices=BUILTIN_NAMES)
    common(sp, problem_required=False)
    sp.add_argument("--multistart", type=int, default=0)
    sp.set_defaults(func=cmd_demo)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("GRAPDE_LOG", "WARNING"))
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return 1 if err.code not in (0, None) else 0
    try:
        return args.func(args)
    except (InputError, GraphError, ParseError, NonlinearityError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
