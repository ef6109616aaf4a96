"""Set-up probe: what a fresh ``grapde`` process does before it can compute.

Run as ``python3 bench/setup_probe.py MANIFEST``.  It imports grapde, then
loads, validates and parses every (graph, problem) pair listed in the
manifest, including the symbolic partials of each coupling, exactly as the
CLI does on start-up.  The caller times the whole process from spawn to
exit; the probe prints the number of pairs it parsed.
"""

import json
import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)


def main(manifest_path):
    import grapde  # noqa: F401  (the import itself is part of set-up)
    from grapde.cli import load_problem
    from grapde.graph import load_graph, validate

    with open(manifest_path, "r", encoding="utf-8") as fh:
        pairs = json.load(fh)
    for graph_path, problem_path in pairs:
        graph = load_graph(graph_path)
        report = validate(graph)
        if not report.ok:
            raise SystemExit(f"invalid graph {graph_path}: {report.violations}")
        if problem_path:
            load_problem(problem_path, graph)
    print(len(pairs))


if __name__ == "__main__":
    main(sys.argv[1])
