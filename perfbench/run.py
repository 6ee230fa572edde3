"""relgen benchmark: end-to-end metrics per workload, or a traced per-layer run.

    python3 perfbench/run.py --workload trend-grid --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` runs one untraced and one traced round
and reports the per-layer metrics, the tracing overhead among them.  Every
run writes a result file with a machine record to ``perfbench/out/``; a
traced run also writes its spans there.  The exit code is 0 only when every
output check passed.  See README.md in this directory.
"""

import os

# Pin BLAS to one thread before numpy loads, so the figures measure relgen
# and not the BLAS thread scheduler.  Pool workers inherit the setting.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from itertools import cycle, islice
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_REPEATS = 5
CSV_PROBE_ROWS = 1000
CSV_REPEATS = 5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="seconds-long inputs, for the benchmark's smoke test")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _load_workload(name: str, tiny: bool):
    import workloads

    if name not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; choose from {sorted(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[name]
    return workloads.tiny(w) if tiny else w


def setup_probe(args) -> int:
    """Child process: time importing relgen and building the workload's inputs."""
    start = time.perf_counter()
    workload = _load_workload(args.workload, args.tiny)
    workload.build(args.seed)
    elapsed = time.perf_counter() - start
    import hostspeed

    print(json.dumps({"setup_s": elapsed, "host_factor": hostspeed.calibrate()}))
    return 0


def measure_setup(args) -> tuple[float, float]:
    """Median over fresh interpreters, so each pays the full relgen import.

    Returns the median normalised setup time and the median raw one.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    raw, normalised = [], []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
        probe = json.loads(out.stdout.strip().splitlines()[-1])
        raw.append(probe["setup_s"])
        normalised.append(probe["setup_s"] / probe["host_factor"])
    return statistics.median(normalised), statistics.median(raw)


def _cpu_seconds():
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def timed_rounds(workload, inputs, seconds, tracer=None):
    """Whole rounds until one more would overrun ``seconds`` (at least one).

    Returns the first round's rows and fits, the CSV text of every round,
    wall seconds, CPU seconds (pool workers included once reaped) and the
    host speed factor over the region.
    """
    import relgen as rg
    from hostspeed import HostSpeed

    texts = []
    cpu0 = _cpu_seconds()
    with HostSpeed() as host:
        t0 = time.perf_counter()
        while True:
            rows, fits = workload.run_round(inputs, tracer)
            if not texts:
                first = (rows, fits)
            texts.append(rg.emit_results_csv(rows))
            elapsed = time.perf_counter() - t0
            if elapsed * (len(texts) + 1) / len(texts) > seconds:
                break
    return first, texts, elapsed, _cpu_seconds() - cpu0, host.factor


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def output_checks(workload, inputs, first, texts, task_bytes) -> list[str]:
    import relgen as rg

    rows, fits = first
    problems = workload.check(inputs, rows, fits, task_bytes)
    if any(t != texts[0] for t in texts[1:]):
        problems.append("rounds on the same inputs gave different CSV bytes")
    if rg.emit_results_csv(rg.parse_results_csv(texts[0])) != texts[0]:
        problems.append("results CSV does not round-trip through parse_results_csv")
    return problems


def machine_record() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# Traced run.

def init_probe(pairs) -> float:
    """Mean seconds of stored-chain initialisation, weighted by chain use.

    A chain with burn-in 0, one draw and thinning 1 is greedy init plus a
    single sweep, on the same split and stored system as the workload's.
    """
    import relgen as rg

    total = uses_total = 0.0
    for key in sorted(pairs, key=repr):
        data, system, uses = pairs[key]
        start = time.perf_counter()
        rg.run_stored_chain(data, system, rg.McmcSchedule(0, 1, 1, seed=0))
        total += (time.perf_counter() - start) * uses
        uses_total += uses
    return total / uses_total if uses_total else 0.0


def _median_ms(fn, repeats=CSV_REPEATS) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def csv_probe(rows) -> dict:
    """emit / parse / summarize timings on ``rows`` (median of repeats)."""
    import relgen as rg

    text = rg.emit_results_csv(rows)
    return {
        "emit_ms": _median_ms(lambda: rg.emit_results_csv(rows)),
        "parse_ms": _median_ms(lambda: rg.parse_results_csv(text)),
        "summarize_ms": _median_ms(lambda: rg.summarize(rows)),
        "rows": len(rows),
    }


def layer_metrics(tracer, top_span, init_s, csv_1000, overhead_pct, task_bytes,
                  span_scale, probe_scale) -> dict:
    """Per-layer metrics; times are divided by the host speed factor of the
    region they were measured in (``span_scale``, ``probe_scale``)."""
    from tracing import outermost, self_seconds, total_seconds

    spans = tracer.spans
    init_s *= probe_scale
    m = {}
    for layer in ("analogy", "irm"):
        chains = outermost(spans, f"{layer}.chain")
        chain_s = sum(s["end"] - s["start"] for s in chains) * span_scale
        updates = sum(s["attrs"]["n"] * s["attrs"]["sweeps"] for s in chains)
        init_total = len(chains) * init_s if layer == "analogy" else 0.0
        m[f"{layer}.chains"] = (len(chains), "count")
        m[f"{layer}.chain_s"] = (chain_s, "s")
        m[f"{layer}.sweep_us_per_entity"] = (
            (chain_s - init_total) / updates * 1e6 if updates else 0.0, "us")
    m["analogy.init_ms_per_chain"] = (init_s * 1e3, "ms")
    for name, metric in (
        ("analogy.predict", "analogy.predict_ms"),
        ("irm.predict", "irm.predict_ms"),
        ("hybrid.components", "hybrid.components_ms"),
        ("analogy.report", "analogy.report_ms"),
        ("hybrid.evidence", "hybrid.evidence_ms"),
        ("hybrid.tau_search", "hybrid.tau_search_ms"),
        ("datagen.systems", "datagen.systems_ms"),
        ("datagen.split", "datagen.split_ms"),
    ):
        m[metric] = (total_seconds(spans, name) * span_scale * 1e3, "ms")
    searches = outermost(spans, "hybrid.tau_search")
    evals = sum(s["attrs"].get("evals", 0) for s in searches)
    cells = sum(s["attrs"].get("cells", 0) for s in searches)
    tau_s = sum(s["end"] - s["start"] for s in searches) * span_scale
    m["hybrid.tau_evals"] = (evals, "count")
    m["hybrid.tau_eval_us_per_cell"] = (tau_s / cells * 1e6 if cells else 0.0, "us")
    m["cli.grid_self_s"] = (self_seconds(spans, top_span) * span_scale, "s")
    m["cli.bytes_per_task"] = (statistics.mean(task_bytes) if task_bytes else 0, "bytes")
    m["cli.csv_emit_ms"] = (csv_1000["emit_ms"] * probe_scale, "ms")
    m["cli.csv_parse_ms"] = (csv_1000["parse_ms"] * probe_scale, "ms")
    m["cli.summarize_ms"] = (csv_1000["summarize_ms"] * probe_scale, "ms")
    m["trace.overhead_pct"] = (overhead_pct, "%")
    return m


# ---------------------------------------------------------------------------

def run_one(args) -> int:
    import checks
    from tracing import Tracer

    workload = _load_workload(args.workload, args.tiny)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-tiny" if args.tiny else "")
    tracer = Tracer() if args.trace else None
    inputs = workload.build(args.seed, tracer)

    if not args.trace:
        first, texts, elapsed, cpu, factor = timed_rounds(workload, inputs, args.seconds)
        peak = peak_rss_mb()
    else:
        # untraced round first: the baseline for the tracing overhead
        first, texts, elapsed, cpu, factor = timed_rounds(workload, inputs, 0.0)
        tracer.install()
        try:
            _, traced_texts, traced_elapsed, _, traced_factor = timed_rounds(
                workload, inputs, 0.0, tracer
            )
        finally:
            tracer.restore()
        texts += traced_texts

    rows, _ = first
    task_bytes: list[int] = []
    problems = output_checks(workload, inputs, first, texts, task_bytes)
    rows_per_round = len(rows)
    attempted = rows_per_round * len(texts)
    failed = sum(1 for r in rows if r.status != "ok") * len(texts)
    scored = [r for r in rows if r.status == "ok" and r.score is not None]
    at_bound, n_hybrid = checks.tau_at_bound(inputs, rows)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "tiny": args.tiny,
        "machine": machine_record(),
        "rounds": len(texts),
        "rows_per_round": rows_per_round,
        "tau_at_bound": {"rows": at_bound, "hybrid_rows": n_hybrid},
        "problems": problems,
        # as measured, before dividing by the host speed factor
        "raw": {"elapsed_s": elapsed, "cpu_s": cpu, "host_factor": factor},
    }

    if not args.trace:
        setup_s, record["raw"]["setup_s"] = measure_setup(args)
        metrics = {
            "setup_s": (setup_s, "s"),
            "rows_per_s": (attempted * factor / elapsed, "rows/s"),
            "cpu_s_per_row": (cpu / factor / attempted, "s/row"),
            "peak_rss_mb": (peak, "MB"),
            "heldout_nats_per_cell": (
                sum(r.score for r in scored) / max(1, sum(r.n_test for r in scored)),
                "nats/cell",
            ),
        }
    else:
        from hostspeed import HostSpeed

        with HostSpeed() as probes:
            init_s = init_probe(workload.probe_pairs(inputs, rows))
            csv_rows = csv_probe(rows)
            csv_1000 = csv_probe(list(islice(cycle(rows), CSV_PROBE_ROWS)))
        untraced_rps = rows_per_round * factor / elapsed
        traced_rps = rows_per_round * traced_factor / traced_elapsed
        overhead = (untraced_rps - traced_rps) / untraced_rps * 100.0
        metrics = layer_metrics(
            tracer, workload.top_span, init_s, csv_1000, overhead, task_bytes,
            span_scale=1.0 / traced_factor, probe_scale=1.0 / probes.factor,
        )
        record["raw"].update(traced_host_factor=traced_factor, probe_host_factor=probes.factor)
        record["trace"] = {
            "untraced_rows_per_s": untraced_rps,
            "traced_rows_per_s": traced_rps,
            "csv_on_workload_rows": csv_rows,
            "spans": len(tracer.spans),
        }
        tracer.write(OUT_DIR / f"{stem}-spans.jsonl")

    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    width = max(len(k) for k in metrics)
    print(f"# {args.workload} seed={args.seed} rounds={len(texts)} rows/round={rows_per_round}"
          f" tau*-at-bound={at_bound}/{n_hybrid}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {value:>14.6g}  {unit}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0 if not problems else 1


def run_all(args) -> int:
    """Every workload in its own interpreter; the last line maps name -> result."""
    import workloads

    results, status = {}, 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
        results[name] = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "relgen" / "__init__.py").is_file():
        print(f"error: no relgen sources under {SRC}", file=sys.stderr)
        return 2
    # the checkout's own sources, never an installed relgen
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
