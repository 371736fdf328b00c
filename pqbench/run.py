"""Prediction-query benchmark: one closed-loop client, zero think time.

    python3 pqbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The seed drives data generation and
predicate draws; models are the deployed artifacts (fixed training seed),
trained once per source version into ``.pqbench/models-<source hash>/``.

``--trace 0`` sets up, warms up (untimed rounds), runs the timed loop for S
seconds in whole rounds, checks every distinct query against the independent
oracle and prints the end-to-end metrics. ``--trace 1`` splits S between an untraced
loop, a traced loop (spans around each layer, plus per-layer probes after
each query) and Raven(no-opt) on the same texts, and prints the per-layer
metrics. Either way the last stdout line is one JSON object.
"""
import time
from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from concurrent.futures import ThreadPoolExecutor  # noqa: E402
from dataclasses import dataclass  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".pqbench")

#: set-ups per run; setup_s takes their median
SETUP_REPS = 3
#: datasets whose models a cache miss trains, so only one run pays for it
TRAIN_DATASETS = ("hospital", "expedia")
#: seconds a child process gets to end by itself before SIGTERM, then SIGKILL
CHILD_GRACE_S = 5.0
PR_SET_CHILD_SUBREAPER = 36


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("spark-adhoc", "duckdb-star"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def model_cache_dir() -> str:
    """Keyed by a hash of the ``repro`` sources, so no version of the code
    reads pickles written by another."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "repro")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames.sort()
        for fn in sorted(filenames):
            if fn.endswith(".py"):
                path = os.path.join(dirpath, fn)
                h.update(os.path.relpath(path, pkg).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read() + b"\0")
    return os.path.join(STATE, "models-" + h.hexdigest()[:16])


def prepare_environment() -> tuple[str, str]:
    """Before any ``repro`` or pyspark import: the model cache location is
    read at import, and Spark's JVM and Python workers inherit this
    environment, whatever the caller's shell holds."""
    cache = model_cache_dir()
    tmp = os.path.join(STATE, "tmp")
    os.makedirs(cache, exist_ok=True)
    os.makedirs(tmp, exist_ok=True)
    os.environ.update({
        "REPRO_MODEL_CACHE": cache,
        "PYTHONPATH": os.pathsep.join([SRC, HERE]),
        "PYSPARK_PYTHON": sys.executable,
        "PYSPARK_DRIVER_PYTHON": sys.executable,
        "PYSPARK_SUBMIT_ARGS": "pyspark-shell",
        "TMPDIR": tmp,
        # every JVM (spark-submit's launcher too): temp files in the
        # checkout, and no perf-data file under /tmp
        "JAVA_TOOL_OPTIONS": f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}",
    })
    sys.path.insert(0, SRC)
    return cache, tmp


def train_models() -> None:
    from repro.experiments import common
    from layers import MODELS

    for name in TRAIN_DATASETS:
        for m in MODELS:
            common.dataset_pipeline(name, m)


def ensure_models(cache: str) -> float:
    """Train every pipeline the workloads use if this source version has
    none yet; returns the training time (recorded at the miss). Training
    runs in a child process, so it leaves this process's peak RSS alone.
    That child is a plain interpreter (``multiprocessing`` would also start
    a resource tracker that outlives this process)."""
    marker = os.path.join(cache, "trained.json")
    if os.path.exists(marker):
        with open(marker) as f:
            return json.load(f)["train_s"]
    t0 = perf_counter()
    child = subprocess.run([sys.executable, "-c", "import run; run.train_models()"])
    if child.returncode != 0:
        raise RuntimeError(f"model training failed (exit code {child.returncode})")
    train_s = perf_counter() - t0
    with open(marker, "w") as f:
        json.dump({"train_s": train_s}, f)
    return train_s


def become_subreaper() -> None:
    """Orphans of the processes this run starts (Spark's Python worker
    daemon, once its JVM has exited) are re-parented to this process rather
    than to init, so ``stop_children`` can wait for them too."""
    import ctypes

    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def child_pids() -> list[int]:
    """Processes whose parent is this one, zombies included."""
    me, out = os.getpid(), []
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat", "rb") as f:
                stat = f.read()
        except OSError:
            continue
        # the command name, in parentheses, may hold spaces
        if int(stat.rsplit(b")", 1)[1].split()[1]) == me:
            out.append(int(d))
    return out


def stop_children() -> None:
    """Wait for every process this run started, and for their orphans, to
    end: CHILD_GRACE_S to end by themselves, then SIGTERM, then SIGKILL."""
    t0 = perf_counter()
    sent = None
    while True:
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            pass
        kids = child_pids()
        if not kids:
            return
        waited = perf_counter() - t0
        sig = (signal.SIGKILL if waited > 2 * CHILD_GRACE_S
               else signal.SIGTERM if waited > CHILD_GRACE_S else None)
        if sig is not None and sig != sent:
            print(f"stopping child processes {kids} with {sig.name}", file=sys.stderr)
            for pid in kids:
                try:
                    os.kill(pid, sig)
                except ProcessLookupError:
                    pass
            sent = sig
        time.sleep(0.05)


@dataclass
class Sample:
    query: object
    latency: float
    result: object
    error: str | None


class Bench:
    def __init__(self, wl, seed: int):
        self.wl = wl
        self.rounds = wl.rounds(random.Random(seed))
        self.next_qid = 0

    def loop(self, seconds: float, tracer=None) -> list[Sample]:
        """Whole rounds until ``seconds`` have passed (at least one)."""
        samples = []
        deadline = perf_counter() + seconds
        while True:
            for q in next(self.rounds):
                samples.append(self.one(q, tracer))
            if perf_counter() >= deadline:
                return samples

    def one(self, q, tracer=None) -> Sample:
        q.qid = self.next_qid
        self.next_qid += 1
        if tracer is not None:
            tracer.qid = q.qid
        result, error = None, None
        t0 = perf_counter()
        try:
            if tracer is None:
                result = self.wl.run(q)
            else:
                with tracer.span("query", cls=q.cls):
                    result = self.wl.run(q)
        except Exception:
            error = traceback.format_exc()
        latency = perf_counter() - t0
        if error is None and tracer is not None:
            self.wl.probe(q, result)
        if error is not None:
            print(f"query {q.qid} failed: {q.text}\n{error}", file=sys.stderr)
        return Sample(q, latency, result, error)

    def check(self, samples: list[Sample]) -> int:
        """Oracle check of each distinct query; returns the failed count
        (a query that raised, or whose text gave a wrong answer)."""
        import oracle

        first: dict[tuple, Sample] = {}
        for s in samples:
            if s.error is None:
                first.setdefault((s.query.runtime, s.query.text), s)

        def answer(s: Sample):
            try:
                return self.wl.system_counts(s.query, s.result)
            except Exception:
                traceback.print_exc()
                return None

        # the system's answers are independent queries: fetch them in
        # parallel, while this thread computes the oracle's answers
        with ThreadPoolExecutor(self.wl.nproc) as pool:
            got = {key: pool.submit(answer, s) for key, s in first.items()}
            want: dict[tuple, tuple] = {}
            for s in first.values():
                q = s.query
                okey = (q.model, q.where, q.output_filter)
                if okey not in want:
                    want[okey] = oracle.label_counts(
                        self.wl.models[q.model], self.wl.oracle_frame(),
                        q.where, q.output_filter)
            got = {key: f.result() for key, f in got.items()}
        verdict: dict[tuple, bool] = {}
        for key, s in first.items():
            q = s.query
            counts, n_rows = want[(q.model, q.where, q.output_filter)]
            verdict[key] = got[key] is not None and oracle.agrees(
                got[key], counts, n_rows, q.runtime)
            if not verdict[key]:
                print(f"oracle mismatch for {q.cls}: {q.text}\n"
                      f"  system {got[key]}  oracle {counts}  ({n_rows} rows)",
                      file=sys.stderr)
        return sum(s.error is not None or not verdict[(s.query.runtime, s.query.text)]
                   for s in samples)


def tail(latencies: list[float]) -> tuple[float, float]:
    """(latency, percentile) at the highest percentile with at least ten
    samples beyond it; the maximum when there are ten or fewer samples."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def by_class_median(samples: list[Sample]) -> dict[str, float]:
    groups: dict[str, list[float]] = {}
    for s in samples:
        if s.error is None:
            groups.setdefault(s.query.cls, []).append(s.latency)
    return {c: statistics.median(v) for c, v in groups.items()}


def speedups(wl, raven: list[Sample], seconds: float) -> dict[str, tuple]:
    """model -> (Raven median, no-opt median, ratio) over the same texts,
    run round-robin by model until ``seconds`` pass (one text each at least)."""
    from layers import MODELS

    first = {}
    for s in raven:
        if s.error is None:
            first.setdefault(s.query.text, s.query)
    per_model = [[q for q in first.values() if q.model == m] for m in MODELS]
    noopt: dict[str, dict[str, float]] = {m: {} for m in MODELS}
    deadline = perf_counter() + seconds
    for level in itertools.zip_longest(*per_model):
        for q in filter(None, level):
            t0 = perf_counter()
            wl.run(q, noopt=True)
            noopt[q.model][q.text] = perf_counter() - t0
        if perf_counter() >= deadline:
            break
    out = {}
    for m, times in noopt.items():
        r = statistics.median(s.latency for s in raven
                              if s.error is None and s.query.text in times)
        n = statistics.median(times.values())
        out[m] = (r, n, n / r)
    return out


def layer_metrics(tracer, traced: list[Sample], untraced: list[Sample],
                  setup: dict, train_s: float, speed: dict) -> dict[str, float]:
    from layers import LAYERS, PER_CLASS_COUNTS, per_class

    qids = [s.query.qid for s in traced if s.error is None]
    ms = 1000.0
    m = {
        "parser.parse_ms": tracer.median_time("parser.parse", ms),
        "optimizer.optimize_ms": tracer.median_time("optimizer.optimize", ms),
        "predicate_pruning.ms": tracer.median_time("predicate_pruning", ms),
        "output_pruning.ms": tracer.median_time("output_pruning", ms),
        "data_induced.ms": tracer.median_time("data_induced", ms),
        "projection_pushdown.ms": tracer.median_time("projection_pushdown", ms),
        "ml2sql.compile_ms": tracer.median_time("ml2sql.compile", ms),
        "spark_exec.plan_ms": tracer.median_time("spark_exec.plan", ms),
        "spark_exec.input_s": tracer.median_time("spark_exec.input"),
        "spark_exec.arrow_hop_s": tracer.median_diff("spark_exec.hop", "spark_exec.input"),
        "spark_exec.predict_s": tracer.median_diff(
            "spark_exec.sink", "spark_exec.hop", fallback="spark_exec.input"),
        "onnx_rt.batch_ms": tracer.median_time("onnx_rt.batch", ms),
        "dnn_rt.compile_ms": tracer.median_time("dnn_rt.compile", ms),
        "dnn_rt.batch_ms": tracer.median_time("dnn_rt.batch", ms),
        "sqlserver.plan_ms": tracer.median_time("sqlserver.plan", ms),
        "sqlserver.input_s": tracer.median_time("sqlserver.input"),
        "sqlserver.predict_s": tracer.median_diff("sqlserver.run", "sqlserver.input"),
        "ml.train_s": train_s,
    }
    m.update({f"setup.{k}": v for k, v in setup.items()})
    counted = {
        "predicate_pruning.nodes_removed": ("predicate_pruning", "removed"),
        "output_pruning.nodes_removed": ("output_pruning", "removed"),
        "data_induced.nodes_removed": ("data_induced", "removed"),
        "projection_pushdown.cols_removed": ("projection_pushdown", "removed"),
        "join_elimination.joins_removed": ("optimizer.optimize", "joins_removed"),
        "ml2sql.sql_bytes": ("ml2sql.compile", "bytes"),
    }
    for name in PER_CLASS_COUNTS:
        span, fld = counted[name]
        m[name] = tracer.mean_count(span, fld, qids)
        for cls in per_class(name):
            cls_qids = [s.query.qid for s in traced
                        if s.error is None and s.query.cls == cls]
            m[f"{name}.{cls}"] = tracer.mean_count(span, fld, cls_qids)
    med_t, med_u = by_class_median(traced), by_class_median(untraced)
    both = [c for c in med_t if c in med_u]
    m["trace.overhead_frac"] = (
        sum(med_t[c] for c in both) / sum(med_u[c] for c in both) - 1.0)
    for model, (_, _, ratio) in speed.items():
        m[f"paper.speedup_vs_noopt.{model}"] = ratio
    if set(m) != set(LAYERS):
        raise RuntimeError(f"per-layer metrics out of step with layers.py: {set(m) ^ set(LAYERS)}")
    return {k: {"value": v, "unit": LAYERS[k][0]} for k, v in m.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no repro sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    become_subreaper()
    cache, tmp = prepare_environment()
    import workloads
    from layers import END_TO_END
    from spans import Tracer

    t_imports = perf_counter() - T_START
    t0 = perf_counter()
    train_s = ensure_models(cache)
    print(f"models: {cache} (training {train_s:.1f} s, "
          f"this run {perf_counter() - t0:.1f} s outside set-up)")

    wl = workloads.WORKLOADS[args.workload](nproc, tmp)
    try:
        t0 = perf_counter()
        wl.start_engine()
        engine_start_s = t_imports + perf_counter() - t0
        reps = [wl.setup(args.seed) for _ in range(SETUP_REPS)]
        setup = {"engine_start_s": engine_start_s}
        setup.update({k: statistics.median(r[k] for r in reps) for k in reps[0]})
        setup_s = engine_start_s + statistics.median(sum(r.values()) for r in reps)
        report_config(wl, nproc)

        phases = {"set-up": perf_counter() - T_START}
        t0 = perf_counter()
        bench = Bench(wl, args.seed)
        bench.loop(wl.warmup_s)  # untimed
        phases["warm-up"] = perf_counter() - t0
        t0 = perf_counter()
        if args.trace:
            untraced = bench.loop(args.seconds / 3)
            tracer = Tracer()
            wl.tracer = tracer
            with tracer.patched(workloads.trace_targets()):
                traced = bench.loop(args.seconds / 3, tracer)
            wl.tracer = workloads.NullTracer()
            speed = speedups(wl, untraced, args.seconds / 3)
            samples = untraced + traced
        else:
            samples = bench.loop(args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        phases["loop"] = perf_counter() - t0
        t0 = perf_counter()
        failed = bench.check(samples)
        phases["oracle"] = perf_counter() - t0
    finally:
        wl.close()

    ok = [s.latency for s in samples if s.error is None]
    p_tail, pct = tail(ok)
    # every query class (model x runtime) runs equally often and the classes'
    # latencies form separate clusters; the plain median falls in the gap
    # between two clusters and reads the slowest sample of one and the
    # fastest of the other (duckdb-star, ten seeds on a shared 4-vCPU host:
    # quartile spread 0.24 against 0.06 for rows_per_s), so it is taken over
    # the class medians
    class_p50 = by_class_median(samples)
    e2e = {
        "query_p50_s": statistics.median(class_p50.values()),
        "query_tail_s": p_tail,
        "rows_per_s": wl.n_rows * len(ok) / sum(ok),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    print(f"== {wl.name} seed={args.seed} trace={args.trace} ==")
    print(f"query_p50_s   {e2e['query_p50_s']:.4f} s (median of {len(class_p50)} "
          f"per-class medians, n={len(ok)}; plain median {statistics.median(ok):.4f} s)")
    print(f"query_tail_s  {p_tail:.4f} s (p{pct:.1f}, n={len(ok)}, 10 beyond)")
    print(f"rows_per_s    {e2e['rows_per_s']:.0f} rows/s "
          f"({wl.n_rows} fact rows x {len(ok)} queries)")
    print(f"setup_s       {setup_s:.3f} s (median of {SETUP_REPS} set-ups; "
          f"steps: " + ", ".join(f"{k} {v:.3f}" for k, v in setup.items()) + ")")
    scope = " (driver process only; Spark JVM and workers excluded)" \
        if wl.engine == "spark" else ""
    print(f"peak_rss_mb   {peak_rss_mb:.1f} MB{scope}")
    print(f"failed_frac   {failed / len(samples):.4f} ({failed} of {len(samples)})")
    print("wall time: " + ", ".join(f"{k} {v:.1f} s" for k, v in phases.items()))
    if args.trace:
        metrics = layer_metrics(tracer, traced, untraced, setup, train_s, speed)
        for model, (r, n, ratio) in speed.items():
            print(f"Raven(no-opt) vs Raven {model}: {n:.3f} s / {r:.3f} s = {ratio:.2f}x")
        os.makedirs(os.path.join(STATE, "traces"), exist_ok=True)
        path = os.path.join(STATE, "traces", f"{wl.name}-seed{args.seed}.jsonl")
        tracer.dump(path)
        print(f"spans: {len(tracer.spans)} written to {path}")
        for k, v in metrics.items():
            if v["value"]:
                print(f"  {k:48s} {v['value']:.6g} {v['unit']}")
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k][0]} for k, v in e2e.items()}
    print(json.dumps({"correct": failed == 0, "attempted": len(samples),
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0


def report_config(wl, nproc: int) -> None:
    import duckdb
    import pyarrow
    import pyspark

    with open("/proc/meminfo") as f:
        mem_kb = int(next(line for line in f if line.startswith("MemTotal")).split()[1])
    print(f"workload {wl.name}: {wl.dataset}, fact rows {wl.n_rows}, tables "
          + ", ".join(f"{n}={len(t)}" for n, t in wl.tables.items()))
    print(f"host: nproc={nproc}, memory {mem_kb / 2**20:.1f} GiB; "
          f"python {sys.version.split()[0]}, pyspark {pyspark.__version__}, "
          f"duckdb {duckdb.__version__}, pyarrow {pyarrow.__version__}")
    print(f"{wl.engine} config: " + json.dumps(wl.engine_config()))


def on_sigterm(signum, frame):
    sys.exit(128 + signum)  # unwinds through the engine's close()


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, on_sigterm)
    try:
        code = main()
    finally:
        stop_children()
    sys.exit(code)
