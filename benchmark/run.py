"""Benchmark of the phm command line, driven in-process through ``phm.cli.main``.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; phm is imported from ``src/``.
One client sends one request at a time (closed loop), with stdout and
stderr captured and BLAS on one thread. This process sets up, then forks a
worker that runs each request through ``phm.cli.main`` and hands the output
back to be checked (checks.py) before the next request is sent, so the
checker's memory does not count in the worker's peak. The seed fixes the round of
requests (see workloads.py); the run repeats whole rounds until
``--seconds`` have passed.

Times are process CPU seconds at a nominal machine speed: a fixed reference
task with no phm code (a Python step and a numpy ``eig``) runs in the worker
every REF_EVERY_S of request CPU time, and each request's CPU time is
multiplied by REF_NOMINAL_S over the reference time measured around it.
Wall times are printed beside them but not reported as metrics.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end ones: ``ops_per_s``, ``op_p50_s``, ``peak_rss_mb`` and
``setup_s``. With ``--trace 1`` the run spends half its time untraced and
half with every function in tracing.TRACED wrapped, and the metrics are
per layer, per request, plus the tracing overhead. The lines before it
give the failures by kind, the latency tail, the wall times and the
reference task's times.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import json
import multiprocessing
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

import checks
import tracing

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK_DIR = os.path.join(os.path.basename(BENCH_DIR), ".work")  # relative to ROOT
SETUP_REPEATS = 5
# Request times are process CPU seconds scaled to a core on which one
# reference task (reference_task) takes REF_NOMINAL_S. CPU time leaves out
# waiting for a core; the scaling takes out a core that the host's other
# tenants slow by up to half for minutes at a time (README.md, "Steadiness").
REF_NOMINAL_S = 1e-3
REF_EVERY_S = 0.05  # request CPU seconds between two reference slices
REF_REPEATS = 3
_REF_MATRIX = np.random.default_rng(0).standard_normal((48, 48))
_REF_ROWS = [{"k": k, "signs": [1, -1, 1, -1], "x": k / 7, "s": f"row{k}"} for k in range(200)]
# The one failure today's code is expected to give (see README.md): the
# polynomial gate rejects some dense instances before decomposing them.
KNOWN_FAULT = ("dense", ("analyze", "metric", "canonical"), 2, "ClassificationError")


def import_phm_cli():
    """phm.cli from this checkout's src/, or exit non-zero without a result."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import phm.cli
    except ImportError as exc:
        sys.exit(f"benchmark: cannot import phm from {src}: {exc}")
    if not os.path.abspath(phm.cli.__file__).startswith(src + os.sep):
        sys.exit(f"benchmark: imported phm from {phm.cli.__file__}, not from {src}")
    return phm.cli


def _strict_constant(name):
    raise ValueError(f"non-JSON constant {name}")


@dataclass
class Phase:
    """Outcome of the requests of one timed phase."""

    ok_times: list = field(default_factory=list)  # scaled seconds of each successful request
    busy: float = 0.0  # scaled seconds of every request, failed ones included
    busy_cpu: float = 0.0  # the same in CPU seconds, before scaling
    ok_wall: list = field(default_factory=list)  # wall seconds of each successful request
    ref_python: list = field(default_factory=list)  # CPU seconds of each reference slice's parts
    ref_numpy: list = field(default_factory=list)
    attempted: int = 0
    failures: Counter = field(default_factory=Counter)  # "command exit code type" -> count
    wrong: Counter = field(default_factory=Counter)  # "command check name" -> count
    unexpected: int = 0  # failures other than the known fault
    stdout_bytes: int = 0
    rounds: int = 0

    @property
    def failed(self) -> int:
        return sum(self.failures.values()) + sum(self.wrong.values())


def reference_task() -> tuple[float, float]:
    """CPU seconds of a fixed pure-Python step (JSON and a loop) and of a
    fixed numpy ``eig`` at n = 48; no phm code."""
    start = time.process_time()
    json.loads(json.dumps(_REF_ROWS))
    sum(k * k for k in range(5000))
    middle = time.process_time()
    np.linalg.eig(_REF_MATRIX)
    return middle - start, time.process_time() - middle


def reference_slice() -> tuple[float, float]:
    """Medians of REF_REPEATS reference tasks: (Python part, numpy part)."""
    parts = [reference_task() for _ in range(REF_REPEATS)]
    return statistics.median(p for p, _ in parts), statistics.median(n for _, n in parts)


def call(cli, argv, tracer=None):
    """Run one request; return (exit code, stdout, wall seconds, CPU seconds)."""
    out, err = io.StringIO(), io.StringIO()
    span = tracer.open("request") if tracer else None  # root span of the request
    start = time.perf_counter()
    cpu = time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # an escaped exception fails the request, not the run
        code = f"raised {type(exc).__name__}"
    cpu = time.process_time() - cpu
    seconds = time.perf_counter() - start
    if span:
        tracer.close(span)
    return code, out.getvalue(), seconds, cpu


def serve(cli, conn, trace_path) -> None:
    """Worker loop: run each argv the parent sends and send back
    (exit code, stdout, wall seconds, CPU seconds). "ref" sends a reference
    slice; "trace" installs the tracer; "end" sends the worker's peak RSS
    and the layer totals, and writes the spans."""
    tracer = None
    while True:
        message = conn.recv()
        if message == "ref":
            conn.send(reference_slice())
        elif message == "trace":
            tracer = tracing.Tracer()
            tracer.install()
        elif message == "end":
            break
        else:
            conn.send(call(cli, message, tracer))
    layers = None
    if tracer:
        tracer.uninstall()
        tracer.write(trace_path)
        layers = (tracer.layer_totals(), dict(tracer.bytes))
    conn.send((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024, layers))


class Worker:
    """A forked child that runs the requests; the parent checks the outputs."""

    def __init__(self, cli, trace_path):
        self.conn, child_conn = multiprocessing.Pipe()
        # Forked, not spawned, so the worker starts with phm imported and warmed up.
        self.pid = os.fork()
        if self.pid == 0:
            self.conn.close()
            try:
                serve(cli, child_conn, trace_path)
            except BaseException:  # never unwind into the parent's code
                traceback.print_exc()
                os._exit(1)
            os._exit(0)
        child_conn.close()

    def call(self, argv):
        self.conn.send(tuple(argv))
        return self.conn.recv()

    def reference(self):
        """(Python, numpy) CPU seconds of a reference slice run in the worker."""
        self.conn.send("ref")
        return self.conn.recv()

    def trace(self):
        """Trace every later request."""
        self.conn.send("trace")

    def finish(self):
        """Stop the worker; return (its peak RSS in bytes, layer totals or None)."""
        self.conn.send("end")
        return self.conn.recv()

    def close(self):
        self.conn.close()  # a worker still waiting for a request sees EOF and exits
        os.waitpid(self.pid, 0)


def _is_known_fault(workload: str, command: str, code, kind) -> bool:
    name, commands, known_code, known_kind = KNOWN_FAULT
    return (workload, code, kind) == (name, known_code, known_kind) and command in commands


def record(phase: Phase, refs, workload: str, req, code, text: str, wall: float) -> bool:
    """Count one request and check its output; return whether it succeeded.
    The parsed output dies on return."""
    phase.attempted += 1
    phase.stdout_bytes += len(text.encode())
    try:
        doc = json.loads(text, parse_constant=_strict_constant)
    except ValueError:
        doc = None
    if code == 0 and isinstance(doc, dict):
        fault = checks.check(req, doc, refs)
        if fault is None:
            phase.ok_wall.append(wall)
            return True
        phase.wrong[f"{req.command} check {fault}"] += 1
        phase.unexpected += 1
    else:
        error = doc.get("error") if isinstance(doc, dict) else None
        if isinstance(error, dict):
            kind = error.get("type")
        else:
            kind = "without-error-object" if isinstance(doc, dict) else "not-JSON"
        phase.failures[f"{req.command} exit {code} {kind}"] += 1
        phase.unexpected += not _is_known_fault(workload, req.command, code, kind)
    return False


def scale(before: tuple, after: tuple) -> float:
    """Factor from CPU seconds to seconds at the nominal reference speed,
    from the reference slices taken just before and just after."""
    return REF_NOMINAL_S / ((sum(before) + sum(after)) / 2)


def measure(worker, workload, seconds) -> Phase:
    """Repeat whole rounds until ``seconds`` have passed; check every output.
    A reference slice runs in the worker every REF_EVERY_S of request CPU
    time, and each request's CPU time is scaled by the slices around it."""
    phase = Phase()
    refs = checks.References()
    pending = []  # (CPU seconds, succeeded) of the requests since the last slice

    def reference():
        python_s, numpy_s = worker.reference()
        phase.ref_python.append(python_s)
        phase.ref_numpy.append(numpy_s)
        return python_s, numpy_s

    def flush(before):
        after = reference()
        factor = scale(before, after)
        for cpu, ok in pending:
            phase.busy += cpu * factor
            phase.busy_cpu += cpu
            if ok:
                phase.ok_times.append(cpu * factor)
        pending.clear()
        return after

    before = reference()
    start = time.perf_counter()
    while phase.rounds == 0 or time.perf_counter() - start < seconds:
        for req in workload.requests:
            code, text, wall, cpu = worker.call(req.argv)
            pending.append((cpu, record(phase, refs, workload.name, req, code, text, wall)))
            if sum(c for c, _ in pending) >= REF_EVERY_S:
                before = flush(before)
        phase.rounds += 1
    if pending:
        flush(before)
    return phase


def setup(cli, workload, write_inputs) -> float:
    """Write the inputs and run the warm-up requests; return the CPU seconds
    taken, scaled to the nominal reference speed."""
    before = reference_slice()
    start = time.process_time()
    write_inputs(workload)
    for req in workload.warmup:
        call(cli, req.argv)
    cpu = time.process_time() - start
    return cpu * scale(before, reference_slice())


def tail(times: list) -> str:
    """Highest percentile with at least ten samples beyond it, with the count."""
    n = len(times)
    if n < 40:
        return f"median only ({n} samples)"
    q = max(q for q in (0.75, 0.9, 0.99, 0.999) if n * (1 - q) >= 10)
    value = statistics.quantiles(times, n=1000, method="inclusive")[round(q * 1000) - 1]
    return f"p{100 * q:g} {value:.6f} s over {n} samples"


def end_to_end(phase: Phase, setup_times: list, rss_bytes: int) -> dict:
    return {
        "ops_per_s": {"value": len(phase.ok_times) / phase.busy, "unit": "1/s"},
        "op_p50_s": {"value": statistics.median(phase.ok_times), "unit": "s"},
        "peak_rss_mb": {"value": rss_bytes / 1e6, "unit": "MB"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
    }


def per_layer(layers, plain: Phase, traced: Phase) -> dict:
    totals, result_bytes = layers
    requests = traced.attempted
    factor = traced.busy / traced.busy_cpu  # the traced phase's mean scale
    metrics = {}
    for name, (self_s, calls) in totals.items():
        metrics[f"{name}.self_s"] = {"value": self_s * factor / requests, "unit": "s"}
        metrics[f"{name}.calls"] = {"value": calls / requests, "unit": "count"}
    for name, _ in tracing.RESULT_BYTES.values():
        metrics[name] = {"value": result_bytes.get(name, 0) / 1e6 / requests, "unit": "MB"}
    metrics["stdout_bytes"] = {"value": traced.stdout_bytes / requests, "unit": "bytes"}
    overhead = traced.busy / traced.attempted - plain.busy / plain.attempted
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    os.chdir(ROOT)
    cli = import_phm_cli()
    import workloads  # imports phm

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    work = os.path.join(WORK_DIR, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    workload = workloads.build(args.workload, args.seed, work)

    setup_times = [setup(cli, workload, workloads.write_inputs) for _ in range(SETUP_REPEATS)]
    gc.collect()

    worker = Worker(cli, os.path.join(WORK_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl"))
    try:
        if args.trace:
            phases = [measure(worker, workload, args.seconds / 2)]
            worker.trace()
            phases.append(measure(worker, workload, args.seconds / 2))
        else:
            phases = [measure(worker, workload, args.seconds)]
        rss_bytes, layers = worker.finish()
    finally:
        worker.close()

    failures = sum((ph.failures for ph in phases), Counter())
    wrong = sum((ph.wrong for ph in phases), Counter())
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(workload.requests)} requests per round, rounds "
          f"{'+'.join(str(ph.rounds) for ph in phases)}")
    print("setup_s of each set-up: " + ", ".join(f"{t:.4f}" for t in setup_times))
    print("failed requests: " + (json.dumps(dict(failures + wrong)) if failures or wrong else "none"))
    unexpected = sum(ph.unexpected for ph in phases)
    if unexpected:
        print(f"{unexpected} failed requests are not the known fault")
    if not all(ph.ok_times for ph in phases):
        sys.exit("benchmark: no request succeeded")
    for ph in phases:
        print(f"latency at reference speed: median {statistics.median(ph.ok_times):.6f} s, "
              f"{tail(ph.ok_times)}; wall: median {statistics.median(ph.ok_wall):.6f} s, "
              f"{tail(ph.ok_wall)}")
        print("machine reference, CPU ms of the Python and numpy parts (not bounded): "
              + ", ".join(f"{name} median {1e3 * statistics.median(v):.4f} "
                          f"[{1e3 * min(v):.4f}, {1e3 * max(v):.4f}]"
                          for name, v in (("python", ph.ref_python), ("numpy", ph.ref_numpy)))
              + f" over {len(ph.ref_python)} slices")
    if args.trace:
        metrics = per_layer(layers, *phases)
    else:
        metrics = end_to_end(phases[0], setup_times, rss_bytes)
    print(json.dumps({
        "correct": unexpected == 0,
        "attempted": sum(ph.attempted for ph in phases),
        "failed": sum(ph.failed for ph in phases),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
