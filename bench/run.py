"""grapde benchmark: closed-loop CLI workloads, end-to-end metrics, layer trace.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client calls ``grapde.cli.main(argv)`` in this process and sends each
request after the previous one returned (a closed loop with one client; no
worker threads or processes).  The workload's fixed request list, built from
the seed by ``workloads.py``, runs once start to end; its timed requests are
then repeated in cycles until ``S`` seconds have gone (see
``Client.repeat_until``).  Each request runs under a time cap enforced by
SIGALRM, so the program's co-operation is not needed; a request that hits
the cap counts as failed and the run goes on.  After each request
``oracle.py`` re-checks its output through grapde's public functions.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics, taken from whole traced passes over the timed requests that
alternate with untraced ones (see ``tracing.py``).  Latencies are scaled to
a reference machine speed (see ``speed.py``).  BENCHMARK.json names the
metrics and their units.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A run record
(versions, sizes, every request) and, when traced, the spans are written
under ``.bench_work/`` in the checkout.
"""

import os

# One BLAS thread: the client is single-threaded, and on a small shared
# machine extra BLAS threads add noise.  Must be set before numpy loads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(1, os.path.join(ROOT, "src"))

# Fresh processes timed for setup_s; the median is reported.
SETUP_REPEATS = 5
# Cheap requests are sent in runs of up to MAX_REPEATS, to about this long.
REPEAT_BUDGET_S = 0.5
MAX_REPEATS = 8
LATENCY_METRICS = ("solve_s", "sweep_s", "check_s", "nonexist_s")


def declared_metrics(kind):
    """{name: unit} of the "end_to_end" or "per_layer" metrics in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


class RequestTimeout(BaseException):
    """Raised by the alarm handler; BaseException so no ``except Exception`` eats it."""


def _on_alarm(signum, frame):
    raise RequestTimeout()


def median(values):
    return statistics.median(values) if values else None


def tail_percentile(values):
    """Highest whole percentile with at least ten samples above it, or None."""
    k = len(values)
    if k <= 10:
        return None
    p = int(100 * (k - 10) / k)
    ordered = sorted(values)
    return p, ordered[min(k - 1, int(p / 100 * k))]


def git_sha():
    """The checked-out commit, read from .git without running git; None if absent."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(ROOT, ".git", name)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        return None
    return None


# --- set-up ----------------------------------------------------------------

def _timed_process(argv):
    """Wall time of one child process, from spawn to exit, and its result."""
    t0 = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    return time.perf_counter() - t0, proc


def measure_setup(requests, workdir):
    """Set-up times of fresh processes that import grapde and parse the inputs.

    Each repeat times a baseline process (see ``speed.BASELINE``) and then a
    set-up probe.  The probe times are scaled by the baseline's median speed
    over the repeats; one process time varies too much to scale its
    neighbour.  Returns the scaled times, the raw probe times and the
    baseline times.
    """
    import speed

    pairs = sorted({(r.graph, r.problem) for r in requests}, key=str)
    manifest = os.path.join(workdir, "setup-manifest.json")
    with open(manifest, "w", encoding="utf-8") as fh:
        json.dump(pairs, fh)
    probe = os.path.join(HERE, "setup_probe.py")
    raw, baseline = [], []
    for _ in range(SETUP_REPEATS):
        base_s, proc = _timed_process([sys.executable, "-c", speed.BASELINE])
        if proc.returncode != 0:
            raise RuntimeError(f"baseline process failed: {proc.stderr.strip()[-500:]}")
        probe_s, proc = _timed_process([sys.executable, probe, manifest])
        if proc.returncode != 0 or proc.stdout.strip() != str(len(pairs)):
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        raw.append(probe_s)
        baseline.append(base_s)
    scale = speed.BASELINE_REF_S / median(baseline)
    return [t * scale for t in raw], raw, baseline


# --- the closed loop ---------------------------------------------------------

class Client:
    """Sends requests one at a time and keeps every latency and outcome."""

    def __init__(self, requests, workdir, oracle, tracer=None):
        import grapde.cli
        from speed import Calibration

        self.cli = grapde.cli
        self.requests = requests
        self.outdir = os.path.join(workdir, "out")
        os.makedirs(self.outdir, exist_ok=True)
        self.oracle = oracle
        self.tracer = tracer
        self.records = []  # one dict per request sent
        self.last_latency = [0.0] * len(requests)
        self.request_id = 0
        self.calibration = Calibration()

    def _call(self, argv, cap_s):
        """Run one CLI request under the cap; returns (exit code or None, latency, error)."""
        code, error = None, None
        t0 = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, cap_s)
            try:
                code = self.cli.main(argv)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except RequestTimeout:
            error = "time cap"
        except Exception as err:  # the run must go on; the failure is recorded
            error = "raised " + "".join(traceback.format_exception_only(type(err), err)).strip()
        return code, time.perf_counter() - t0, error

    def _send(self, idx, pass_no, traced):
        """Send request idx, wait for it, and check its output."""
        req = self.requests[idx]
        out = os.path.join(self.outdir, f"{idx}.json")
        if os.path.exists(out):
            os.remove(out)
        self.request_id += 1
        self.calibration.measure()
        if traced:
            self.tracer.request_id = self.request_id
            self.tracer.install()
        start = time.perf_counter()
        try:
            code, latency, error = self._call(req.argv(out), req.cap_s)
        finally:
            if traced:
                self.tracer.reset_stack()
                self.tracer.uninstall()
        self.last_latency[idx] = latency
        rec = {
            "pass": pass_no, "traced": traced, "index": idx, "label": req.label,
            "command": req.command, "metric": req.metric, "code": code,
            "start": start, "latency_s": latency, "error": error, "points": req.points,
            "certified": 0, "outcome": "failed" if error else None,
            "request_id": self.request_id,
        }
        self._verify(rec, out)
        self.records.append(rec)

    def run_pass(self, pass_no, traced, indices):
        """One pass over the given requests of the list; returns its wall time."""
        t_start = time.perf_counter()
        for idx in indices:
            self._send(idx, pass_no, traced)
        return time.perf_counter() - t_start

    def repeat_until(self, deadline):
        """Cycle over the timed requests until the deadline.

        Every cycle sends each timed request in list order, so all of them
        are sampled across the whole run and a slow phase of the machine
        falls on all alike.  A request cheaper than REPEAT_BUDGET_S is sent
        several times in a row, to about that much time, up to MAX_REPEATS.
        A request is skipped when its last latency would carry it past the
        deadline; the loop ends when none fits.
        """
        timed = [i for i, r in enumerate(self.requests) if r.timed]
        repeats = {
            i: max(1, min(MAX_REPEATS, int(REPEAT_BUDGET_S / max(self.last_latency[i], 1e-3))))
            for i in timed
        }
        while True:
            sent = False
            for i in timed:
                for _ in range(repeats[i]):
                    if time.perf_counter() + self.last_latency[i] > deadline:
                        break
                    self._send(i, None, False)
                    sent = True
            if not sent:
                return

    def _verify(self, rec, out):
        req = self.requests[rec["index"]]
        if rec["error"]:
            return
        if rec["code"] not in (0, 2):
            rec["outcome"], rec["error"] = "failed", f"exit code {rec['code']}"
            return
        try:
            with open(out, encoding="utf-8") as fh:
                report = json.load(fh)
            verdict = self.oracle.verify(req, rec["code"], report)
        except Exception as err:  # any disagreement is a wrong answer
            rec["outcome"], rec["error"] = "wrong", f"{type(err).__name__}: {err}"
            return
        rec["certified"] = verdict.certified
        rec["outcome"] = "refused" if verdict.refusal else "ok"
        if verdict.refusal:
            rec["refusal"] = verdict.refusal


# --- metrics -------------------------------------------------------------------

def end_to_end(records, requests, setup_times):
    """End-to-end metrics from untraced requests.

    Latencies are in reference seconds (see ``speed.py``).  Each timed
    request gets its median latency over all its samples; once scaled, the
    first-pass samples are no slower than the later ones (median ratio 0.88
    to 1.17 per request over ten runs).  wall_s sums these medians
    over the timed requests.  A latency metric is their geometric mean over
    the requests that feed it: every request weighs the same however often it
    ran and however long it takes, so the noise of several requests averages
    out.  The ratios weigh every request of the list once, timed or not.
    """
    timed = [i for i, r in enumerate(requests) if r.timed]
    samples_of = {i: [] for i in timed}
    for rec in records:
        if rec["index"] in samples_of:
            samples_of[rec["index"]].append(rec["ref_latency_s"])
    per_request = {i: median(v) for i, v in samples_of.items()}
    values, samples = {}, {}
    for name in LATENCY_METRICS:
        idx = [i for i in timed if requests[i].metric == name]
        values[name] = statistics.geometric_mean(per_request[i] for i in idx) if idx else None
        samples[name] = sum(len(samples_of[i]) for i in idx)
    ok, certified = {}, {}
    for rec in records:
        i = rec["index"]
        ok.setdefault(i, []).append(rec["outcome"] not in ("failed", "wrong"))
        certified.setdefault(i, []).append(rec["certified"])
    values.update({
        "setup_s": median(setup_times),
        "wall_s": sum(per_request.values()),
        "ok_ratio": statistics.fmean(statistics.fmean(v) for v in ok.values()),
        "certified_ratio": sum(statistics.fmean(v) for v in certified.values())
        / sum(requests[i].points for i in certified),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    samples["setup_s"] = len(setup_times)
    tails = {
        name: tail_percentile([
            lat for i in timed if requests[i].metric == name for lat in samples_of[i]])
        for name in LATENCY_METRICS
    }
    return values, samples, tails


def per_layer(tracer, passes, overhead, max_n):
    """Per-layer metrics; counts and times are per traced pass."""
    def calls(span):
        return tracer.stat(span)[0] / passes

    def incl_s(span):
        return tracer.stat(span)[1] / passes

    def self_s(span):
        return tracer.stat(span)[2] / passes

    def ratio(num, den):
        return num / den if den else 0.0

    x = tracer.extra
    return {
        "nonlinearity.values.calls": calls("nonlinearity.values"),
        "nonlinearity.values.self_s": self_s("nonlinearity.values"),
        "nonlinearity.eval.calls": calls("nonlinearity.eval"),
        "nonlinearity.eval.self_s": self_s("nonlinearity.eval"),
        "calculus.polylap_apply.calls": calls("calculus.polylap_apply"),
        "calculus.polylap_apply.self_s": self_s("calculus.polylap_apply"),
        "calculus.grad_modulus.calls": calls("calculus.grad_modulus"),
        "calculus.grad_modulus.self_s": self_s("calculus.grad_modulus"),
        "energy.phi.calls": calls("energy.phi"),
        "energy.phi.self_s": self_s("energy.phi"),
        "energy.phi_grad.calls": calls("energy.phi_grad"),
        "energy.phi_grad.self_s": self_s("energy.phi_grad"),
        "optim.path_saddle.s": incl_s("optim.path_saddle"),
        "optim.path_saddle.outer": x["path_saddle.outer"] / passes,
        "optim.path_saddle.coarse_ok_ratio":
            ratio(x["path_saddle.coarse_ok"], tracer.stat("optim.path_saddle")[0]),
        "optim.polish_root.calls": calls("optim.polish_root"),
        "optim.polish_root.s": incl_s("optim.polish_root"),
        "optim.polish_root.converged_ratio":
            ratio(x["polish_root.converged"], tracer.stat("optim.polish_root")[0]),
        "optim.polish_root.grads_per_call":
            ratio(x["polish_root.grads"], tracer.stat("optim.polish_root")[0]),
        "optim.bb_minimize.calls": calls("optim.bb_minimize"),
        "optim.bb_minimize.s": incl_s("optim.bb_minimize"),
        "solvers.ball_radius.s": incl_s("solvers.ball_radius"),
        "solvers.uniqueness_certificate.s": incl_s("solvers.uniqueness_certificate"),
        "solvers.nonexistence_check.s": incl_s("solvers.nonexistence_check"),
        "nonlinearity.check_hypotheses.s": incl_s("nonlinearity.check_hypotheses"),
        "solvers.negative_endpoint.s": incl_s("solvers.negative_endpoint"),
        "solvers.bound_certificate_mp.s": incl_s("solvers.bound_certificate_mp"),
        "continuation.sweep.s": incl_s("continuation.sweep"),
        "continuation.warm_hit_ratio": ratio(x["sweep.warm_hits"], x["sweep.warm_attempts"]),
        "continuation.branch_continuity_report.s":
            incl_s("continuation.branch_continuity_report"),
        "scalar.scalar_sweep.s": incl_s("scalar.scalar_sweep"),
        "scalar.scalar_grad.calls": calls("scalar.scalar_grad"),
        "graph.load_graph.s": incl_s("graph.load_graph"),
        "graph.validate.s": incl_s("graph.validate"),
        # computed, not measured: the dense n x n float64 weight matrix
        "graph.dense_bytes": float(max_n**2 * 8),
        "spaces.w_norm.calls": calls("spaces.w_norm"),
        "cli.self_s": self_s("cli.main"),
        "trace.overhead_s": overhead,
    }


# --- main ------------------------------------------------------------------------

def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run(args):
    import numpy
    import scipy

    import grapde
    import speed
    import workloads
    from oracle import Oracle, load_reference
    from tracing import Tracer

    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    requests, files = workloads.build(args.workload, args.seed, os.path.join(workdir, "inputs"))
    setup_times, setup_raw, setup_baseline = measure_setup(requests, workdir)

    tracer = Tracer() if args.trace else None
    client = Client(requests, workdir, Oracle(load_reference()), tracer)
    signal.signal(signal.SIGALRM, _on_alarm)

    t0 = time.perf_counter()
    deadline = t0 + args.seconds
    # the first pass sends every request once; it is the only run of the
    # requests on seeded graphs
    first_wall = client.run_pass(0, False, range(len(requests)))
    walls = {False: [], True: []}
    if args.trace:
        # whole passes over the timed requests, alternately traced and
        # untraced, at least one of each: the per-layer counts are per
        # traced pass
        timed = [i for i, r in enumerate(requests) if r.timed]
        pass_no = 1
        while len(walls[True]) < 1 or len(walls[False]) < 1 or (
                deadline - time.perf_counter() >= max(walls[True])):
            traced = pass_no % 2 == 1
            walls[traced].append(client.run_pass(pass_no, traced, timed))
            pass_no += 1
    else:
        client.repeat_until(deadline)
    elapsed = time.perf_counter() - t0
    client.calibration.measure()
    client.calibration.scale(client.records)

    records = client.records
    untraced = [r for r in records if not r["traced"]]
    failed = sum(1 for r in records if r["outcome"] in ("failed", "wrong"))
    wrong = [r for r in records if r["outcome"] == "wrong"]

    e2e, samples, tails = end_to_end(untraced, requests, setup_times)
    if args.trace:
        # pass times in reference seconds, so that machine drift between the
        # passes does not show as overhead
        pass_ref = collections.defaultdict(float)
        for rec in records:
            if rec["pass"]:
                pass_ref[rec["pass"], rec["traced"]] += rec["ref_latency_s"]
        overhead = (median([v for (_, t), v in pass_ref.items() if t])
                    - median([v for (_, t), v in pass_ref.items() if not t]))
        max_n = max(g["n"] for g in files.graphs.values())
        values = per_layer(tracer, len(walls[True]), overhead, max_n)
        units = declared_metrics("per_layer")
        tracer.dump(os.path.join(workdir, "spans.json"))
    else:
        values = e2e
        units = declared_metrics("end_to_end")
    metrics = {name: values[name] for name in units}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "elapsed_s": elapsed,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "grapde": grapde.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "client": "closed loop, 1 client, in-process grapde.cli.main",
        "inputs": files.graphs,
        "setup_times_s": {"scaled": setup_times, "raw": setup_raw,
                          "baseline": setup_baseline},
        "calibration": {
            "kernel_ref_s": speed.KERNEL_REF_S,
            "kernel_median_s": median(client.calibration.kernel_s),
            "samples": len(client.calibration.kernel_s),
        },
        "pass_walls_s": {"first": first_wall, "untraced": walls[False], "traced": walls[True]},
        "end_to_end": e2e,
        "samples": samples,
        "tail_percentiles": tails,
        "fail_ratio": 1.0 - e2e["ok_ratio"],
        "metrics": metrics,
        "requests": records,
    }
    with open(os.path.join(workdir, "record.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for label, info in files.graphs.items():
        print(f"input {label}: n={info['n']} |E|={info['edges']}")
    print(f"calibration kernel: median {median(client.calibration.kernel_s) * 1e3:.4g} ms "
          f"over the run, {speed.KERNEL_REF_S * 1e3:.4g} ms at reference speed")
    print(f"passes: first {first_wall:.3f} untraced {walls[False]} traced {walls[True]}; cap hits "
          f"{sum(1 for r in records if r['error'] == 'time cap')}; wrong {len(wrong)}")
    for name, value in metrics.items():
        extra = ""
        if name in samples:
            tail = tails.get(name)
            extra = f" ({samples[name]} samples" + (
                f", p{tail[0]} {tail[1]:.4g})" if tail else "; no percentile has 10 samples beyond it)")
        print(f"{name} = {value:.6g} {units[name]}{extra}")
    for rec in wrong:
        print(f"WRONG {rec['label']}: {rec['error']}")
    return {
        "correct": not wrong,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None):
    args = parse_args(argv)
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
