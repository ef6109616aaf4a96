"""Self-test of the benchmark: run ``python3 bench/selftest.py`` from a checkout.

It shows that

* the oracle accepts a real report and rejects corrupted copies of it (a
  perturbed solution state, a false certificate flag, a changed verdict
  table, a nonexistence run with a non-trivial root);
* the time cap stops a request from outside and the client carries on;
* the tracer patches every binding, records spans and restores grapde;
* latencies are scaled by the calibration kernel's speed near them;
* every metric named in BENCHMARK.json is emitted, with its unit.

Exits 0 and prints "selftest ok" on success; any failure raises.
"""

import copy
import json
import os
import shutil
import signal
import sys

import run  # sets the BLAS thread variables and the import paths

import inputs  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from oracle import Oracle, OracleError, load_reference  # noqa: E402
from tracing import REQUIRED_BINDINGS, Tracer  # noqa: E402


def expect_rejected(oracle, req, code, report, what):
    try:
        oracle.verify(req, code, report)
    except OracleError:
        return
    raise AssertionError(f"oracle accepted a corrupted report: {what}")


def main():
    import grapde.cli

    tmp = os.path.join(run.ROOT, ".bench_work", "selftest")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    graph = inputs.write_json(os.path.join(tmp, "p2.json"), inputs.path(2))
    mp = inputs.write_json(os.path.join(tmp, "mp.json"), inputs.builtin_problem("mp-example"))
    nonex = inputs.write_json(os.path.join(tmp, "ne.json"), inputs.builtin_problem("nonexist-example"))
    oracle = Oracle(load_reference())
    client = run.Client([], tmp, oracle)
    signal.signal(signal.SIGALRM, run._on_alarm)

    def call(req):
        out = os.path.join(tmp, "out.json")
        code, _latency, error = client._call(req.argv(out), req.cap_s)
        assert error is None, error
        with open(out, encoding="utf-8") as fh:
            return code, json.load(fh)

    # 1. a certified saddle solve verifies; corrupted copies do not
    solve = workloads.Request("solve", "solve", graph, mp, kind="mp")
    code, report = call(solve)
    verdict = oracle.verify(solve, code, report)
    assert verdict.certified == 1, verdict
    bad = copy.deepcopy(report)
    bad["result"]["u"]["v0"] += 1e-3
    expect_rejected(oracle, solve, code, bad, "perturbed state")
    bad = copy.deepcopy(report)
    cert = bad["result"]["certificate"]
    cert["upper"] = 0.5 * cert["norm"]
    expect_rejected(oracle, solve, code, bad, "norm above the certified upper bound")
    expect_rejected(oracle, solve, 2, report, "exit code disagreeing with the certificate")

    # 2. check verdicts are compared with the reference, not the exit code
    check = workloads.Request("check", "check", graph, mp, reference="mp-example")
    code, report = call(check)
    assert code == 2, "check exits 2 because NONEXIST fails for mp-example"
    oracle.verify(check, code, report)
    bad = copy.deepcopy(report)
    bad["result"]["conditions"]["NONEXIST"]["verdict"] = "pass (sampled)"
    expect_rejected(oracle, check, code, bad, "changed verdict")

    # 3. nonexistence must be certified with trivial multistart roots
    nonexist = workloads.Request("nonexist", "nonexist", graph, nonex, multistart=3)
    code, report = call(nonexist)
    oracle.verify(nonexist, code, report)
    bad = copy.deepcopy(report)
    bad["result"]["multistart_max_norm"] = 0.5
    expect_rejected(oracle, nonexist, code, bad, "non-trivial multistart root")

    # 4. the cap stops a request without the program's help
    sweep = workloads.Request("sweep", "sweep", graph, mp, grid=41, kind="mp", cap_s=0.05)
    _code, latency, error = client._call(sweep.argv(os.path.join(tmp, "cap.json")), sweep.cap_s)
    assert error == "time cap" and latency < 1.0, (error, latency)
    code, report = call(solve)  # the next request runs normally
    assert oracle.verify(solve, code, report).certified == 1

    # 5. tracing: every binding patched, spans recorded, grapde restored
    originals = {(m, a): getattr(sys.modules[f"grapde.{m}"], a) for m, a in REQUIRED_BINDINGS}
    tracer = Tracer()
    with tracer:
        grapde.cli.main(solve.argv(os.path.join(tmp, "traced.json")))
    for (m, a), fn in originals.items():
        assert getattr(sys.modules[f"grapde.{m}"], a) is fn, f"grapde.{m}.{a} not restored"
    for name in ("cli.main", "energy.phi", "energy.phi_grad", "calculus.polylap_apply",
                 "nonlinearity.values", "optim.path_saddle", "optim.polish_root"):
        assert tracer.stat(name)[0] > 0, f"no span for {name}"
    calls, total, self_s = tracer.stat("cli.main")
    assert calls == 1 and 0 < self_s < total

    # 6. every metric named in BENCHMARK.json is emitted with its unit
    requests = [
        workloads.Request("solve", "solve", graph, mp, kind="mp"),
        workloads.Request("sweep", "sweep", graph, mp, grid=41, kind="mp"),
        workloads.Request("check", "check", graph, mp, reference="mp-example"),
        workloads.Request("nonexist", "nonexist", graph, nonex, multistart=100),
        workloads.Request("seeded", "solve", graph, mp, kind="mp", seeded=True),
    ]
    assert {r.metric for r in requests} == set(run.LATENCY_METRICS) | {None}
    # the seeded request runs once and is not timed
    records = [
        {"pass": p, "ref_latency_s": lat, "index": i, "outcome": "ok", "certified": 1}
        for p, lat in ((0, 3.0), (None, 1.0), (None, 1.0)) for i, r in enumerate(requests)
        if p == 0 or r.timed
    ]
    e2e, _samples, _tails = run.end_to_end(records, requests, [0.5])
    assert e2e["wall_s"] == float(len(run.LATENCY_METRICS)), e2e["wall_s"]
    layer = run.per_layer(tracer, 1, 0.1, 2)
    for kind, values in (("end_to_end", e2e), ("per_layer", layer)):
        declared = run.declared_metrics(kind)
        assert set(values) == set(declared), (kind, set(values) ^ set(declared))
        assert all(isinstance(v, float) for v in values.values()), kind

    # 7. latencies scale with the calibration kernel's speed near them
    cal = speed.Calibration()
    ref, far = speed.KERNEL_REF_S, 3 * speed.WINDOW_S
    cal.at = [0.0, 1.0, 2.0, far, far + 1.0, far + 2.0]
    cal.kernel_s = [ref, ref, 9 * ref, 2 * ref, 2 * ref, ref]
    fast, slow = {"start": 0.5, "latency_s": 1.0}, {"start": far + 0.5, "latency_s": 1.0}
    cal.scale([fast, slow])
    assert fast["ref_latency_s"] == 1.0 and slow["ref_latency_s"] == 0.5, (fast, slow)
    cal.measure()
    assert cal.kernel_s[-1] > 0

    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)
    print("selftest ok")


if __name__ == "__main__":
    main()
