"""Golden ``--deterministic`` CLI reports, for showing that a refactor keeps bytes.

    python3 tools/golden.py capture SRC OUT
    python3 tools/golden.py compare A B

``capture`` runs the ``grapde`` CLI found under ``SRC/src`` on every command x
problem x graph of the fixed set below (each with ``--deterministic``, and
each with ``--grid 5`` and ``--seed 0`` where the command takes them) and on
each malformed-input probe, and writes each JSON report, each CSV and a
``manifest.json`` of exit codes and stderr lines to ``OUT``, where a stderr
line names the capture directory as ``<OUT>``.  ``compare``
lists every file, exit code and stderr line that differs between two
captures, with the first 20 differing JSON leaves of each report and the
count of the others, and exits 1 if anything differs.
Each differing report also gets one ``summary`` line: the largest energy
change of a state converged in both and flagged ``trivial`` in neither,
relative to the largest |energy| of such a state of the first report; the
largest relative change of a certificate's ``lower`` or ``upper`` (each
state's certificate and a ``constants`` report's ``bounds``); and every
change of a state's ``converged``, its certificate's ``satisfied``, its
``flags`` and the exit code.  After the files come one ``path`` line per
differing leaf path, with list indices written ``[]`` and the vertices of a
``u``/``v`` state map ``*``, and the count of reports it differs in.  The
last line is the tally: the count of differing files, the count of runs
with such a verdict change, and the largest energy and bound changes of all.
Capture the parent tree and the changed tree, then compare.

The set: the five builtins (with ``control-objective`` as the control
objective), ``mp-example`` at w = 0.5 with its hypothesis constants given in
the file, the scalar quartic ``u^4*(1+w^2)`` of the benchmark, the same
quartic with a constant for every one-block condition, the scalar
``0.05*u`` with a negative-energy minimizer, and two problems of order m >= 2
(``mp-m23``: the mp-example coupling without gamma at m1 = 2, m2 = 3, and
``scalar-m2``: the all-constants quartic at m1 = 2), on path-2, path-16, K5, K8 and
the benchmark's random-12 graph; commands ``constants``, ``check``, ``solve``,
``sweep`` and ``control`` (both kinds, CSV on), ``nonexist`` (without and with
``--multistart 3``), and ``demo`` of every builtin.  The probes are the
malformed graph and problem files of ``PROBES``, each run once by ``check``
(``control`` for the objective) on its own pair of files.  It needs the
standard library and numpy; a full capture runs two CLI processes at a time
and takes some minutes on two cores.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from collections import Counter
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
    "K8": lambda: inputs.complete(8),
    "random-12": lambda: inputs.random_sparse(12, np.random.default_rng(3)),
}
PROBLEMS = {
    **{name: {"builtin": name, "objective": "control-objective"} for name in BUILTINS},
    "mp-w-hypotheses": {
        "builtin": "mp-example", "w": 0.5, "objective": "control-objective",
        "hypotheses": {"theta": 4, "c1": 16, "c2": 16, "r1": 4, "r2": 4,
                       "gamma1": 2, "gamma2": 2},
    },
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
    "mp-m23": {
        "F": "(u^2+v^2)^2*(1+w^2)", "p": 3, "q": 3, "m1": 2, "m2": 3, "J": [-1, 1],
        "hypotheses": {"theta": 4, "c1": 16, "c2": 16, "r1": 4, "r2": 4,
                       "gamma1": 2, "gamma2": 2},
        "objective": "control-objective",
    },
}
PROBLEMS["scalar-m2"] = {**PROBLEMS["scalar-all"], "m1": 2}
COMMANDS = {
    "constants": ["constants"],
    "check": ["check", "--seed", "0"],
    "solve-mp": ["solve", "--kind", "mp"],
    "solve-min": ["solve", "--kind", "min"],
    "sweep-mp": ["sweep", "--grid", "5", "--kind", "mp", "--csv"],
    "sweep-min": ["sweep", "--grid", "5", "--kind", "min", "--csv"],
    "control-mp": ["control", "--grid", "5", "--kind", "mp", "--csv"],
    "control-min": ["control", "--grid", "5", "--kind", "min", "--csv"],
    "nonexist": ["nonexist", "--seed", "0"],
    "nonexist-ms3": ["nonexist", "--seed", "0", "--multistart", "3"],
}
_MP = {"builtin": "mp-example"}
_COUPLING = "(u^2+v^2)^2"
_PATH2 = inputs.path(2)


def _graph_with(vertex=None, edge=None, drop=()):
    """The 2-vertex path with ``vertex``/``edge`` merged into its first vertex/edge
    and the fields ``drop`` removed from both."""
    data = inputs.path(2)
    data["vertices"][0].update(vertex or {})
    data["edges"][0].update(edge or {})
    for entry in (data["vertices"][0], data["edges"][0]):
        for name in drop:
            entry.pop(name, None)
    return data


# name -> (command, graph file, problem file)
PROBES = {
    "problem-theta-string": ("check", _PATH2, {**_MP, "hypotheses": {"theta": "4"}}),
    "problem-J-number": ("check", _PATH2, {"F": _COUPLING, "J": 5}),
    "problem-F-number": ("check", _PATH2, {"F": 3}),
    "problem-objective-number": ("control", _PATH2, {**_MP, "objective": 3}),
    "problem-hypotheses-number": ("check", _PATH2, {**_MP, "hypotheses": 5}),
    "problem-array": ("check", _PATH2, []),
    "problem-p-string": ("check", _PATH2, {"F": _COUPLING, "p": "3"}),
    "graph-vertices-number": ("check", {"vertices": 5}, _MP),
    "graph-vertex-without-h2": ("check", _graph_with(drop=("h2",)), _MP),
    "graph-edge-without-w": ("check", _graph_with(drop=("w",)), _MP),
    "graph-array": ("check", [], _MP),
    "graph-w-string": ("check", _graph_with(edge={"w": "0.5"}), _MP),
    "graph-mu-string": ("check", _graph_with(vertex={"mu": "1"}), _MP),
    "graph-id-int": ("check", _graph_with(vertex={"id": 0}, edge={"a": "0"}), _MP),
    "problem-p-nan": ("constants", _PATH2, {"F": "u^4", "scalar": True, "p": math.nan}),
    "graph-w-huge-int": ("check", _graph_with(edge={"w": 10**400}), _MP),
    "problem-objective-coeff-string": (
        "control", _PATH2, {**_MP, "objective": {"F": "a*w^2", "coeffs": {"a": "x"}}}
    ),
}
DEMO = ["--grid", "5", "--seed", "0", "--multistart", "3"]
COMMON = ["--deterministic"]
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
            runs.append((f"{graph}/demo/{builtin}", ["demo", builtin, "--graph", gfile, *DEMO]))
    for probe, (cmd, _, _) in PROBES.items():
        files = [os.path.join(out, "inputs", f"probe-{probe}-{kind}.json")
                 for kind in ("graph", "problem")]
        runs.append((f"probe/{probe}", [cmd, "--graph", files[0], "--problem", files[1]]))
    return runs


def capture(src, out):
    inputs_dir = os.path.join(out, "inputs")
    for graph, make in GRAPHS.items():
        inputs.write_json(os.path.join(inputs_dir, f"{graph}.json"), make())
    for problem, data in PROBLEMS.items():
        inputs.write_json(os.path.join(inputs_dir, f"{problem}.json"), data)
    for probe, (_, graph, problem) in PROBES.items():
        for kind, data in (("graph", graph), ("problem", problem)):
            inputs.write_json(os.path.join(inputs_dir, f"probe-{probe}-{kind}.json"), data)
    prefix = os.path.join(out, "")
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
        # written relative to the capture, so that captures in two directories compare
        stderr = [line.replace(prefix, "<OUT>/") for line in proc.stderr.strip().splitlines()[-1:]]
        return name, {"exit": proc.returncode, "stderr": stderr}

    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        manifest = dict(pool.map(run, _runs(out)))
    with open(os.path.join(out, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)


def _leaves(node, path="", pattern=""):
    """((path, pattern), value) of each leaf; the pattern is the path with list
    indices as ``[]`` and the vertex keys of a ``u``/``v`` state map as ``*``."""
    if isinstance(node, dict):
        vertices = pattern.endswith((".u", ".v"))
        for key in sorted(node):
            yield from _leaves(node[key], f"{path}.{key}", f"{pattern}.{'*' if vertices else key}")
    elif isinstance(node, list):
        for k, item in enumerate(node):
            yield from _leaves(item, f"{path}[{k}]", f"{pattern}[]")
    else:
        yield (path, pattern), node


def _describe(a, b):
    """Differing leaves of two JSON documents, with the relative size of numeric ones,
    and the set of their path patterns."""
    la, lb = dict(_leaves(a)), dict(_leaves(b))
    lines, patterns = [], set()
    for key in sorted(set(la) | set(lb)):
        x, y = la.get(key, "<absent>"), lb.get(key, "<absent>")
        if x == y:
            continue
        rel = ""
        if isinstance(x, float) and isinstance(y, float) and math.isfinite(x) and x != 0:
            rel = f"  (rel {abs(y - x) / abs(x):.1e})"
        lines.append(f"    {key[0]}: {x!r} -> {y!r}{rel}")
        patterns.add(key[1])
    return lines, patterns


def _dicts_with(keys, node, path=""):
    """(path, dict) of every dict in a document that has all of ``keys``."""
    if isinstance(node, dict):
        if keys <= node.keys():
            yield path, node
        for key in sorted(node):
            yield from _dicts_with(keys, node[key], f"{path}.{key}")
    elif isinstance(node, list):
        for k, item in enumerate(node):
            yield from _dicts_with(keys, item, f"{path}[{k}]")


_STATE = {"energy", "converged"}  # a solve report
_CERTIFICATE = {"kind", "lower", "upper"}  # a state's certificate, or a constants report's bounds


def _relative(x, y) -> float:
    """|y - x| / |x|; 0 if equal, inf if x is 0, non-finite or not a number."""
    if x == y:
        return 0.0
    if isinstance(x, float) and isinstance(y, float) and math.isfinite(x) and x != 0:
        return abs(y - x) / abs(x)
    return math.inf


def _summary(a, b, exits):
    """The largest relative energy and bound changes and the verdict changes of two reports.

    Each energy change is relative to the largest |energy| of a converged
    state of ``a``, not to that state's own energy, so a state whose energy
    is ~0 does not make a round-off change look large; a state flagged
    ``trivial`` in either report (the zero solution, energies about 1e-18)
    is left out of the energy change and of that scale.  The bound change
    is the largest relative change of the ``lower`` or ``upper`` of a
    certificate present in both reports (the certificate of each state, and
    the ``bounds`` of a ``constants`` report).
    """
    sa, sb = dict(_dicts_with(_STATE, a)), dict(_dicts_with(_STATE, b))

    def nontrivial(r):
        return r["converged"] and "trivial" not in (r.get("flags") or ())

    scale = max((abs(r["energy"]) for r in sa.values() if nontrivial(r)), default=0.0)
    rel = 0.0
    changes = [f"state{path} only in {'A' if path in sa else 'B'}"
               for path in sorted(sa.keys() ^ sb.keys())]
    for path in sorted(sa.keys() & sb.keys()):
        x, y = sa[path], sb[path]
        if nontrivial(x) and nontrivial(y):
            ex, ey = x["energy"], y["energy"]
            rel = max(rel, abs(ey - ex) / scale if scale else abs(ey - ex))
        for key, get in (
            ("converged", lambda r: r["converged"]),
            ("satisfied", lambda r: (r.get("certificate") or {}).get("satisfied")),
            ("flags", lambda r: r.get("flags")),
        ):
            if get(x) != get(y):
                changes.append(f"{key}{path}: {get(x)!r} -> {get(y)!r}")
    if exits[0] != exits[1]:
        changes.append(f"exit: {exits[0]} -> {exits[1]}")
    ca, cb = dict(_dicts_with(_CERTIFICATE, a)), dict(_dicts_with(_CERTIFICATE, b))
    bound = max((_relative(ca[path][end], cb[path][end])
                 for path in ca.keys() & cb.keys() for end in ("lower", "upper")), default=0.0)
    return rel, bound, changes, bool(sa.keys() & sb.keys())


_SHOWN_LEAVES = 20  # differing leaves printed per report; the rest are counted


def compare(a, b):
    files = set()
    for root in (a, b):
        for base, _, names in os.walk(root):
            rel = os.path.relpath(base, root)
            files.update(os.path.normpath(os.path.join(rel, n)) for n in names
                         if not rel.startswith("inputs"))
    files.discard("manifest.json")
    differ = 0
    files_differ, max_rel, max_bound = 0, 0.0, 0.0
    verdicts = set()  # runs with a change of converged, satisfied, flags or exit code
    paths = Counter()  # path pattern -> reports with a differing leaf there
    with open(os.path.join(a, "manifest.json"), encoding="utf-8") as fh:
        ma = json.load(fh)
    with open(os.path.join(b, "manifest.json"), encoding="utf-8") as fh:
        mb = json.load(fh)
    for name in sorted(set(ma) | set(mb)):
        ea, eb = ma.get(name, {}).get("exit"), mb.get(name, {}).get("exit")
        if ea != eb:
            differ += 1
            verdicts.add(name)
            print(f"exit {name}: {ea} -> {eb}")
        sa, sb = ma.get(name, {}).get("stderr"), mb.get(name, {}).get("stderr")
        if sa != sb:
            differ += 1
            print(f"stderr {name}: {sa} -> {sb}")
    for name in sorted(files):
        pa, pb = os.path.join(a, name), os.path.join(b, name)
        if not (os.path.exists(pa) and os.path.exists(pb)):
            differ += 1
            files_differ += 1
            print(f"only in {'A' if os.path.exists(pa) else 'B'}: {name}")
            continue
        with open(pa, "rb") as fa, open(pb, "rb") as fb:
            da, db = fa.read(), fb.read()
        if da == db:
            continue
        differ += 1
        files_differ += 1
        print(f"differs: {name}")
        if name.endswith(".json"):
            ja, jb = json.loads(da), json.loads(db)
            leaves, patterns = _describe(ja, jb)
            paths.update(patterns)
            print("\n".join(leaves[:_SHOWN_LEAVES]))
            if len(leaves) > _SHOWN_LEAVES:
                print(f"    ... and {len(leaves) - _SHOWN_LEAVES} more differing leaves")
            run = name[: -len(".json")]
            exits = (ma.get(run, {}).get("exit"), mb.get(run, {}).get("exit"))
            rel, bound, changes, common = _summary(ja, jb, exits)
            max_rel, max_bound = max(max_rel, rel), max(max_bound, bound)
            if changes:
                verdicts.add(run)
            head = f"max energy change {rel:.1e}" if common else "no common state"
            print("  summary: " + "; ".join([head, f"max bound change {bound:.1e}"] + changes))
    for pattern, count in sorted(paths.items(), key=lambda item: (-item[1], item[0])):
        print(f"path {pattern}: differs in {count} reports")
    same = len(files) - differ
    print(f"{len(files)} files, {differ} differences, {max(same, 0)} identical")
    print(f"tally: {files_differ} files differ, {len(verdicts)} runs change converged, "
          f"satisfied, flags or exit code, max energy change {max_rel:.1e}, "
          f"max bound change {max_bound:.1e}")
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
