"""Golden ``--deterministic`` CLI reports, for showing that a refactor keeps bytes.

    python3 tools/golden.py capture SRC OUT
    python3 tools/golden.py compare A B

``capture`` runs the ``grapde`` CLI found under ``SRC/src`` on every command x
problem x graph of the fixed set below (each with ``--deterministic``) and
writes each JSON report, each CSV and a ``manifest.json`` of exit codes and
stderr lines to ``OUT``.  ``compare`` lists every file and exit code that
differs between two captures, with the differing JSON leaves, and exits 1 if
anything differs.  Capture the parent tree and the changed tree, then compare.

The set: the five builtins (with ``control-objective`` as the control
objective), the scalar quartic ``u^4*(1+w^2)`` of the benchmark, the same
quartic with a constant for every one-block condition, and the scalar
``0.05*u`` with a negative-energy minimizer, on path-2, path-16, K5 and the
benchmark's random-12 graph; commands ``constants``, ``check``, ``solve``,
``sweep`` and ``control`` (both kinds, CSV on), ``nonexist`` (without and with
``--multistart 3``), and ``demo`` of every builtin.  It needs the standard
library and numpy; a full capture runs two CLI processes at a time and takes
some minutes on two cores.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "bench"))
import inputs  # noqa: E402  the benchmark's seeded graph generators

BUILTINS = ("mp-example", "localmin-example", "unique-example", "control-objective",
            "nonexist-example")
GRAPHS = {
    "path-2": lambda: inputs.path(2),
    "path-16": lambda: inputs.path(16),
    "K5": lambda: inputs.complete(5),
    "random-12": lambda: inputs.random_sparse(12, np.random.default_rng(3)),
}
PROBLEMS = {
    **{name: {"builtin": name, "objective": "control-objective"} for name in BUILTINS},
    "scalar-u4": {**inputs.scalar_problem(), "objective": {"F": "w^2"}},
    "scalar-all": {
        "F": "u^4*(1+w^2)", "p": 2, "scalar": True, "J": [-1, 1],
        "hypotheses": {"theta": 4, "c1": 8, "r1": 4, "gamma1": 3, "d1": 1,
                       "delta": 0.5, "x0": "v0", "L": 0.5},
        "objective": {"F": "w^2"},
    },
    "scalar-min": {
        "F": "0.05*u", "p": 2, "scalar": True,
        "hypotheses": {"delta": 0.04, "x0": "v0"}, "objective": {"F": "w^2"},
    },
}
COMMANDS = {
    "constants": ["constants"],
    "check": ["check"],
    "solve-mp": ["solve", "--kind", "mp"],
    "solve-min": ["solve", "--kind", "min"],
    "sweep-mp": ["sweep", "--kind", "mp", "--csv"],
    "sweep-min": ["sweep", "--kind", "min", "--csv"],
    "control-mp": ["control", "--kind", "mp", "--csv"],
    "control-min": ["control", "--kind", "min", "--csv"],
    "nonexist": ["nonexist"],
    "nonexist-ms3": ["nonexist", "--multistart", "3"],
}
COMMON = ["--deterministic", "--grid", "5", "--seed", "0"]
WORKERS = 2


def _runs(out):
    """(name, argv) of every run; argv takes the graph and problem files from out."""
    runs = []
    for graph in GRAPHS:
        gfile = os.path.join(out, "inputs", f"{graph}.json")
        for problem in PROBLEMS:
            pfile = os.path.join(out, "inputs", f"{problem}.json")
            for cmd, argv in COMMANDS.items():
                name = f"{graph}/{problem}/{cmd}"
                argv = argv[:1] + ["--graph", gfile, "--problem", pfile] + argv[1:]
                if argv[-1] == "--csv":
                    argv.append(os.path.join(out, name + ".csv"))
                runs.append((name, argv))
        for builtin in BUILTINS:
            runs.append((f"{graph}/demo/{builtin}",
                         ["demo", builtin, "--graph", gfile, "--multistart", "3"]))
    return runs


def capture(src, out):
    inputs_dir = os.path.join(out, "inputs")
    for graph, make in GRAPHS.items():
        inputs.write_json(os.path.join(inputs_dir, f"{graph}.json"), make())
    for problem, data in PROBLEMS.items():
        inputs.write_json(os.path.join(inputs_dir, f"{problem}.json"), data)
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(src), "src"),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")

    def run(item):
        name, argv = item
        report = os.path.join(out, name + ".json")
        os.makedirs(os.path.dirname(report), exist_ok=True)
        proc = subprocess.run(
            [sys.executable, "-m", "grapde.cli", *argv, *COMMON, "--out", report],
            env=env, capture_output=True, text=True,
        )
        print(f"{proc.returncode} {name}", flush=True)
        return name, {"exit": proc.returncode, "stderr": proc.stderr.strip().splitlines()[-1:]}

    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        manifest = dict(pool.map(run, _runs(out)))
    with open(os.path.join(out, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)


def _leaves(node, path=""):
    if isinstance(node, dict):
        for key in sorted(node):
            yield from _leaves(node[key], f"{path}.{key}")
    elif isinstance(node, list):
        for k, item in enumerate(node):
            yield from _leaves(item, f"{path}[{k}]")
    else:
        yield path, node


def _describe(a, b):
    """Differing leaves of two JSON documents, with the relative size of numeric ones."""
    la, lb = dict(_leaves(a)), dict(_leaves(b))
    lines = []
    for key in sorted(set(la) | set(lb)):
        x, y = la.get(key, "<absent>"), lb.get(key, "<absent>")
        if x == y:
            continue
        rel = ""
        if isinstance(x, float) and isinstance(y, float) and math.isfinite(x) and x != 0:
            rel = f"  (rel {abs(y - x) / abs(x):.1e})"
        lines.append(f"    {key}: {x!r} -> {y!r}{rel}")
    return lines


def compare(a, b):
    files = set()
    for root in (a, b):
        for base, _, names in os.walk(root):
            rel = os.path.relpath(base, root)
            files.update(os.path.normpath(os.path.join(rel, n)) for n in names
                         if not rel.startswith("inputs"))
    files.discard("manifest.json")
    differ = 0
    with open(os.path.join(a, "manifest.json"), encoding="utf-8") as fh:
        ma = json.load(fh)
    with open(os.path.join(b, "manifest.json"), encoding="utf-8") as fh:
        mb = json.load(fh)
    for name in sorted(set(ma) | set(mb)):
        ea, eb = ma.get(name, {}).get("exit"), mb.get(name, {}).get("exit")
        if ea != eb:
            differ += 1
            print(f"exit {name}: {ea} -> {eb}")
    for name in sorted(files):
        pa, pb = os.path.join(a, name), os.path.join(b, name)
        if not (os.path.exists(pa) and os.path.exists(pb)):
            differ += 1
            print(f"only in {'A' if os.path.exists(pa) else 'B'}: {name}")
            continue
        with open(pa, "rb") as fa, open(pb, "rb") as fb:
            da, db = fa.read(), fb.read()
        if da == db:
            continue
        differ += 1
        print(f"differs: {name}")
        if name.endswith(".json"):
            print("\n".join(_describe(json.loads(da), json.loads(db))[:20]))
    same = len(files) - differ
    print(f"{len(files)} files, {differ} differences, {max(same, 0)} identical")
    return 1 if differ else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sp = sub.add_parser("capture", help="run the golden set against SRC/src into OUT")
    sp.add_argument("src")
    sp.add_argument("out")
    sp = sub.add_parser("compare", help="list the differences between two captures")
    sp.add_argument("a")
    sp.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "capture":
        capture(args.src, args.out)
        return 0
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
