"""Command-line front end: load graph/problem files, run pipelines, write reports.

Exit codes: 0 = success (and certified, where a certificate applies),
2 = ran but not certified / not converged, 1 = usage or input error.
Verbosity via the GRAPDE_LOG environment variable (DEBUG/INFO/WARNING).
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import functools
import json
import logging
import math
import os
import sys

import numpy as np

from . import __version__
from .calculus import OperatorOrder
from .continuation import branch_continuity_report, branch_to_csv, optimal_control, sweep
from .energy import ProblemInstance
from .expressions import EvalDomainError, ParseError
from .graph import (
    GraphError, StatePair, VertexFunction, WeightedGraph, load_graph, path_graph, total_measure,
    validate,
)
from .nonlinearity import (
    BUILTIN_NAMES,
    HypothesisSpec,
    Nonlinearity,
    NonlinearityError,
    SamplingConfig,
    builtin,
)
from .scalar import ScalarInstance
from .schema import check, load_json
from .solvers import (
    CertificateError,
    SolverConfig,
    SolverError,
    bound_certificate_mp,
    local_min_solve,
    mountain_pass_solve,
    negative_endpoint,
    nonexistence_check,
    uniqueness_certificate,
)

log = logging.getLogger("grapde")

class InputError(ValueError):
    pass


def _hypothesis_spec(data: dict, graph: WeightedGraph) -> HypothesisSpec:
    if "x0" in data and data["x0"] not in graph.vertices:
        raise InputError(f"hypotheses.x0 {data['x0']!r} is not a vertex of the graph")
    kwargs = {k: data[k] for k in data if k not in ("L",)}
    if "L" in data:
        L = data["L"]
        if isinstance(L, dict):
            kwargs["L"] = VertexFunction.from_map(graph, L).values
        else:
            kwargs["L"] = np.full(graph.n, float(L))
    return HypothesisSpec(**kwargs)


def _builtin_instance(name, graph: WeightedGraph, hypotheses=None, w=0.0) -> ProblemInstance:
    """The builtin ``name``; a ``hypotheses`` dict replaces the constants a file can spell.

    The (H3) floor ``a_floor``/``c_fn``, which a file cannot spell, stays the builtin's.
    """
    prob = builtin(name, graph)
    spec = prob.spec
    if hypotheses is not None:
        spec = dataclasses.replace(
            _hypothesis_spec(hypotheses, graph), a_floor=spec.a_floor, c_fn=spec.c_fn
        )
    return ProblemInstance(graph, prob.ord1, prob.ord2, prob.nl, spec, w)


def load_problem(path, graph: WeightedGraph):
    """Build a system or scalar instance from a problem file (``schemas/problem.schema.json``)."""
    data = load_json(path, InputError)
    check(data, "problem", InputError)
    w = float(data.get("w", 0.0))
    if "builtin" in data:
        inst = _builtin_instance(data["builtin"], graph, data.get("hypotheses"), w)
        return inst, _load_objective(data, graph)
    if "F" not in data:
        raise InputError("problem file needs either 'builtin' or an 'F' expression")
    coeffs = data.get("coeffs", {})
    nl = Nonlinearity.from_source(graph, data["F"], coeffs)
    spec = _hypothesis_spec(dict(data.get("hypotheses", {})), graph)
    if "J" in data:  # replace() validates J, as the constructor does
        spec = dataclasses.replace(spec, J=tuple(float(x) for x in data["J"]))
    p = float(data.get("p", 2.0))
    q = float(data.get("q", p))
    m1, m2 = data.get("m1", 1), data.get("m2", 1)
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


def to_json(obj):
    """The report form of a result object, as ``json.dumps`` writes it.

    A StatePair becomes its vertex maps, "u" and (for two blocks) "v"; a
    dataclass becomes its fields by name, with a StatePair field merged into
    it; dicts, sequences and arrays are converted item by item, numpy scalars
    become Python numbers, and a non-finite float None (JSON, RFC 8259, has
    no Infinity or NaN).  Plain values, the most common, are tested first.
    """
    if type(obj) is float:
        return obj if math.isfinite(obj) else None
    if obj is None or type(obj) in (str, int, bool):
        return obj
    if isinstance(obj, StatePair):
        return {name: to_json(f.to_map()) for name, f in zip("uv", obj.blocks)}
    if isinstance(obj, dict):
        return {key: to_json(value) for key, value in obj.items()}
    if isinstance(obj, (tuple, list, np.ndarray)):
        return [to_json(item) for item in obj]
    if isinstance(obj, np.generic):
        return to_json(obj.item())
    if dataclasses.is_dataclass(obj):
        out = {}
        for field in dataclasses.fields(obj):
            value = getattr(obj, field.name)
            if isinstance(value, StatePair):
                out.update(to_json(value))
            else:
                out[field.name] = to_json(value)
        return out
    return obj


def _emit(args, result, exit_code):
    report = {
        "tool": "grapde",
        "version": __version__,
        "command": args.command,
        # null where the command does not take the option
        "config": {
            **{key: getattr(args, key, None) for key in ("tol", "seed", "grid", "kind")},
            "deterministic": args.deterministic,
        },
        "result": result,
    }
    if not args.deterministic:
        report["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return exit_code


def _get_graph(args) -> WeightedGraph:
    graph = load_graph(args.graph) if args.graph else path_graph(2)
    report = validate(graph)
    if not report.ok:
        raise InputError("invalid graph: " + "; ".join(report.violations))
    for warning in report.warnings:
        log.warning("%s", warning)
    return graph


# A command body takes the loaded instance, the objective (None if the problem
# file has none), the solver config and the command's options, and returns
# (result, exit code).

def cmd_constants(inst, objective, config):
    graph = inst.graph
    result = {"n": graph.n, "volume": total_measure(graph), "p": inst.p, "q": inst.q}
    # (b, K1) of the first block and (d, K2) of the second, each under its own potential
    for names, constants in zip((("b", "K1"), ("d", "K2")), inst.embedding.blocks):
        result.update(zip(names, constants))
    try:
        endpoint = negative_endpoint(inst)
        result["bounds"] = bound_certificate_mp(inst, endpoint)
    except (SolverError, CertificateError) as err:
        result["bounds"] = None
        result["bounds_error"] = str(err)
    return to_json(result), 0


def cmd_check(inst, objective, config):
    report = inst.check(SamplingConfig(seed=config.seed))
    failed = [n for n, c in report.conditions.items() if c.verdict == "fail"]
    return to_json(report), 2 if failed else 0


def _exit_code(reports) -> int:
    """0 if every report converged with a certificate whose norm bounds hold, else 2."""
    certified = all(
        r is not None and r.converged and r.certificate is not None and r.certificate.satisfied
        for r in reports
    )
    return 0 if certified else 2


def cmd_solve(inst, objective, config, kind):
    solve = mountain_pass_solve if kind == "mp" else local_min_solve
    report = solve(inst, config)
    return to_json(report), _exit_code([report])


def cmd_sweep(inst, objective, config, grid, kind, csv):
    branch = sweep(inst, grid=grid, kind=kind, config=config)
    result = to_json(branch)
    result["continuity"] = to_json(branch_continuity_report(branch, inst, config))
    if csv:
        branch_to_csv(branch, csv, inst)
    return result, _exit_code(branch.reports)


def cmd_control(inst, objective, config, grid, kind, csv):
    if objective is None:
        raise InputError("control needs an 'objective' block in the problem file")
    res = optimal_control(inst, objective, grid=grid, kind=kind, config=config)
    if csv:
        branch_to_csv(res.branch, csv, inst, psi_values=dict(res.table))
    return to_json(res), _exit_code(res.branch.reports)


def cmd_nonexist(inst, objective, config, multistart):
    report = nonexistence_check(inst, config=config, multistart=multistart)
    result = to_json(report)
    if report.certified:
        result["summary"] = "nonexistence certified (sampled)"
    return result, 0 if report.certified else 2


def _attempt(body, *args, **options):
    """(result, exit code) of a command body; a SolverError becomes {"error": ...}, exit 2."""
    try:
        return body(*args, **options)
    except SolverError as err:
        return {"error": str(err)}, 2


def cmd_demo(inst, objective, config, name, grid, multistart):
    """The pipeline of the builtin ``name`` (instance ``inst``), run by the bodies above."""
    result = {"builtin": name}
    if name == "mp-example":
        result["solve"], code = _attempt(cmd_solve, inst, None, config, kind="mp")
    elif name in ("localmin-example", "unique-example"):
        result["solve"], code = _attempt(cmd_solve, inst, None, config, kind="min")
        if name == "unique-example":
            uniq = uniqueness_certificate(inst, config)
            result["uniqueness"] = to_json(uniq)
            if not uniq.certified:
                code = 2
    elif name == "control-objective":
        base = _builtin_instance("mp-example", inst.graph)
        result["control"], code = _attempt(
            cmd_control, base, inst.nl, config, grid=grid, kind="mp", csv=None
        )
    else:  # nonexist-example; the demo report keeps the summary at its top level
        result["nonexistence"], code = cmd_nonexist(inst, None, config, multistart)
        if "summary" in result["nonexistence"]:
            result["summary"] = result["nonexistence"].pop("summary")
    return result, code


# Every option a command may take, by name; a command takes those that its body
# or its SolverConfig reads.  SolverConfig reads tol and seed; the body gets the rest.
_OPTIONS = {
    "grid": {"type": int, "default": 21, "help": "parameter grid points"},
    "tol": {"type": float, "default": SolverConfig.tol, "help": "residual tolerance"},
    "seed": {"type": int, "default": SolverConfig.seed, "help": "seed for all sampling"},
    "kind": {"choices": ("mp", "min"), "default": "mp", "help": "mp: saddle, min: local minimum"},
    "csv": {"help": "also write the plotting CSV here"},
    "multistart": {"type": int, "default": 0, "help": "random starts of the root polish"},
}
_CONFIG_OPTIONS = ("tol", "seed")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grapde",
        description="Solve, certify and sweep coupled poly-Laplacian systems on weighted graphs.",
    )
    parser.add_argument("--version", action="version", version=f"grapde {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, *options, problem=True, **kwargs):
        """Subcommand ``name`` taking ``options`` (keys of _OPTIONS), run by
        run(inst, objective, config, **body options)."""
        sp = sub.add_parser(name, **kwargs)
        sp.set_defaults(run=run, options=options)
        sp.add_argument("--graph", help="graph JSON file (default: 2-vertex path)")
        if problem:
            sp.add_argument("--problem", required=True, help="problem JSON file")
        sp.add_argument("--out", help="write the JSON report here instead of stdout")
        for option in options:
            sp.add_argument(f"--{option}", **_OPTIONS[option])
        sp.add_argument(
            "--deterministic", action="store_true",
            help="omit timestamps so identical runs emit identical bytes",
        )
        return sp

    command("constants", cmd_constants, help="embedding and bound constants")
    command("check", cmd_check, "seed", help="hypothesis screening")
    command("solve", cmd_solve, "tol", "kind", help="one critical-point solve")
    command("sweep", cmd_sweep, "tol", "grid", "kind", "csv", help="parameter sweep across J")
    command(
        "control", cmd_control, "tol", "grid", "kind", "csv",
        help="grid optimal control over the branch",
    )
    command("nonexist", cmd_nonexist, "tol", "seed", "multistart", help="nonexistence screening")
    sp = command(
        "demo", cmd_demo, "tol", "seed", "grid", "multistart", problem=False,
        help="end-to-end pipeline on a builtin example",
    )
    sp.add_argument("name", choices=BUILTIN_NAMES)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("GRAPDE_LOG", "WARNING"))
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as err:
        return 1 if err.code not in (0, None) else 0
    try:
        graph = _get_graph(args)
        options = {name: getattr(args, name) for name in args.options}
        config = SolverConfig(**{k: options.pop(k) for k in _CONFIG_OPTIONS if k in options})
        if args.command == "demo":
            inst, objective = _builtin_instance(args.name, graph), None
            options["name"] = args.name
        else:
            inst, objective = load_problem(args.problem, graph)
        return _emit(args, *_attempt(args.run, inst, objective, config, **options))
    except (
        InputError, GraphError, ParseError, NonlinearityError, EvalDomainError, ValueError, OSError,
    ) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
