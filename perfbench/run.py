"""Run one workload of the buffon benchmark and print its metrics.

    python3 perfbench/run.py --workload sweep-square --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a source checkout: it imports buffon from the
checkout's ``src/`` and refuses to run without it.  One run:

1. does the workload's set-up, then repeats the workload's op until the
   ops have taken ``--seconds`` (at least ``MIN_OPS`` times), checking every
   op's outputs and comparing their digests with the first op's.  Op 0
   warms lazy imports and the allocator; it is checked but not timed into
   any metric;
2. with ``--trace 0``, follows ops with set-up probes: fresh interpreters
   that import buffon and do the set-up.  A probe follows each of the
   first ``SETUP_MIN_PROBES`` ops, and each later op while the probes have
   taken under ``SETUP_SHARE`` of the ops' time; ``setup_s`` is their
   median.  Probes and ops alternate so that both sample the same
   stretches of a machine whose speed drifts;
3. prints human-readable lines, then one JSON object as the last line.

With ``--trace 0`` the JSON holds the end-to-end metrics.  With
``--trace 1`` ops alternate between untraced and traced (timing shims
installed, see tracing.py); the JSON holds the per-layer metrics of the
traced ops, and ``trace.overhead_s`` is the traced minus the untraced
median op time.  Spans are written to ``.perfbench_run/`` at the end.

``--record-reference SEEDS`` runs one op per workload for each seed in
SEEDS (``0-39`` or ``1,5,9``) and stores the output digests in
reference.json, which later runs compare against.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_run"
REFERENCE = Path(__file__).with_name("reference.json")
SETUP_MIN_PROBES = 5
SETUP_SHARE = 0.5  # bounds the probing where a set-up costs as much as an op
MIN_OPS = 4  # the warm-up op and three timed ones
MIN_OPS_TRACED = 5  # the warm-up op, then two traced and two untraced
PROBE_TIMEOUT = 170  # seconds; a whole run must end within 180
LOOP_LIMIT = 120  # seconds of ops and probes, even when ops fail at once


def import_package() -> None:
    """Put the checkout's sources first on sys.path; refuse to run without."""
    if not (SRC / "buffon" / "__init__.py").is_file():
        sys.exit(f"perfbench: no buffon sources at {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import buffon

    if not Path(buffon.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: imported buffon from {buffon.__file__}, not {SRC}")


def environment() -> dict:
    """What the timings depend on, recorded as found and never set."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(numpy),
        "nproc": len(os.sched_getaffinity(0)),
        "glibc": os.confstr("CS_GNU_LIBC_VERSION"),
        "env": {k: v for k, v in sorted(os.environ.items())
                if k.startswith(("MALLOC_", "OPENBLAS_", "OMP_"))},
    }


def _openblas_threads(numpy):
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def peak_rss_mb() -> float:
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kb / 1024.0


def time_setup(workload: str, seed: int, work: Path) -> float:
    """Seconds from spawning a fresh interpreter to the end of its set-up.

    The output is piped, not discarded: with no pipe to read, waiting with
    a timeout polls for the child's exit in steps of up to 50 ms.
    """
    work.mkdir(parents=True)
    try:
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--child", "setup",
             "--workload", workload, "--seed", str(seed), "--out", str(work)],
            check=True, timeout=PROBE_TIMEOUT, capture_output=True)
        return time.perf_counter() - started
    finally:
        shutil.rmtree(work, ignore_errors=True)


def child_main(args) -> int:
    """Entry of the set-up probes: import buffon, do the set-up, exit."""
    import_package()
    import workloads

    setup, _ = workloads.WORKLOADS[args.workload]
    setup(Path(args.out), args.seed)
    return 0


def run_ops(op, ctx: dict, seconds: float, tracer, probe=None):
    """Repeat the op until the ops have taken ``seconds``; return the ops
    and the probe times.

    With a tracer, odd-numbered ops are traced, so traced and untraced ops
    see the same machine state.  With a probe, ops are followed by calls
    of ``probe(index)``, which returns a set-up time, as the module
    docstring says.
    """
    import tracing

    min_ops = MIN_OPS if tracer is None else MIN_OPS_TRACED
    min_probes = 0 if probe is None else SETUP_MIN_PROBES
    ops, probes = [], []
    started = time.perf_counter()
    while (len(ops) < min_ops or len(probes) < min_probes
           or (sum(e["seconds"] for e in ops) < seconds
               and time.perf_counter() - started < LOOP_LIMIT)):
        traced = tracer is not None and len(ops) % 2 == 1
        entry = {"index": len(ops), "traced": traced, "timed": bool(ops),
                 "result": None, "error": None}
        ctx["traced"] = traced
        op_started = time.perf_counter()
        try:
            if traced:
                tracer.op = entry["index"]
                with tracing.installed(tracer):
                    entry["result"] = op(ctx)
            else:
                entry["result"] = op(ctx)
            entry["seconds"] = entry["result"].seconds
        except Exception as exc:  # a failed op is counted, not fatal
            entry["error"] = f"{type(exc).__name__}: {exc}"
            entry["seconds"] = time.perf_counter() - op_started
        ops.append(entry)
        if probe is not None and (
                len(probes) < SETUP_MIN_PROBES
                or sum(probes) < SETUP_SHARE * sum(e["seconds"] for e in ops)):
            probes.append(probe(len(probes)))
    return ops, probes


def judge(ops: list[dict]) -> None:
    """Mark each op failed or not, and print one verdict line per op.

    An op fails when it raised, when a check failed, or when its output
    digests differ from the first op's: every op repeats the same inputs,
    and traced ops must write the same bytes as untraced ones.
    """
    first = next((e["result"].digests for e in ops if e["result"]), None)
    for e in ops:
        r = e["result"]
        kind = ("traced" if e["traced"] else "untraced" if e["timed"]
                else "warm-up")
        if r is None:
            e["failed"] = True
            print(f"op {e['index']} ({kind}): FAILED {e['error']}")
            continue
        bad = [name for name, ok in r.checks if not ok]
        same = r.digests == first
        e["failed"] = bool(bad) or not same
        verdict = "ok" if not e["failed"] else "FAILED"
        print(f"op {e['index']} ({kind}): {verdict} {r.seconds:.4f} s, "
              f"{len(r.checks) - len(bad)}/{len(r.checks)} checks passed"
              + (f" (failed: {', '.join(bad)})" if bad else "")
              + ("" if same else ", outputs differ from op 0")
              + "".join(f"; {note}" for note in r.notes))


def reference_verdict(workload: str, seed: int, digests) -> str:
    """``true``/``false`` against the recorded digests of this seed.

    ``digests`` is None when no op produced output, which reads ``false``.
    """
    if digests is None:
        return "false (no op produced output)"
    table = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    recorded = table.get(workload, {}).get(str(seed))
    if recorded is None:
        return "unknown (no digests recorded for this seed)"
    return str(recorded == _short(digests)).lower()


def _short(digests: dict) -> dict:
    return {name: value[:16] for name, value in sorted(digests.items())}


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(ops, setup_times) -> dict:
    walls = [e["seconds"] for e in ops if e["timed"] and not e["traced"]]
    return {
        "wall_s": _metric(statistics.median(walls), "s"),
        "setup_s": _metric(statistics.median(setup_times), "s"),
        "peak_rss_mb": _metric(peak_rss_mb(), "MB"),
    }


def per_layer(ops, tracer) -> dict:
    import tracing

    spans_by_op: dict[int, list] = {}
    for span in tracer.spans:
        spans_by_op.setdefault(span.op, []).append(span)
    per_op = [tracing.op_layer_metrics(spans_by_op.get(e["index"], []),
                                       e["seconds"])
              for e in ops if e["traced"] and e["result"]]
    untraced = [e["seconds"] for e in ops if e["timed"] and not e["traced"]]
    traced = [e["seconds"] for e in ops if e["traced"]]
    metrics = {}
    for name, unit, _ in tracing.LAYER_METRICS:
        if name == "trace.overhead_s":
            value = statistics.median(traced) - statistics.median(untraced)
        else:
            value = statistics.median(m[name] for m in per_op) if per_op else 0.0
        metrics[name] = _metric(value, unit)
    return metrics


def run(args) -> int:
    import_package()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}")
    print("environment: " + json.dumps(environment(), sort_keys=True))
    setup, op = workloads.WORKLOADS[args.workload]
    work = WORK_ROOT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    tracer = tracing.Tracer() if args.trace else None
    probe = None
    if not args.trace:
        def probe(index):
            return time_setup(args.workload, args.seed, work / f"probe{index}")
    try:
        (work / "main").mkdir(parents=True)
        ctx = setup(work / "main", args.seed)
        ops, setup_times = run_ops(op, ctx, args.seconds, tracer, probe)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if setup_times:
        print(f"setup probes ({len(setup_times)}): "
              + ", ".join(f"{t:.4f} s" for t in setup_times))
    judge(ops)
    first = next((e["result"] for e in ops if e["result"]), None)
    print("outputs_match_reference: " + reference_verdict(
        args.workload, args.seed, first.digests if first else None))
    if tracer is not None:
        spans_path = WORK_ROOT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        with open(spans_path, "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span.to_dict()) + "\n")
        print(f"spans: {len(tracer.spans)} written to {spans_path}")
        metrics = per_layer(ops, tracer)
    else:
        metrics = end_to_end(ops, setup_times)
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    failed = sum(e["failed"] for e in ops)
    print(json.dumps({"correct": failed == 0, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


def record_reference(seeds: list[int]) -> int:
    import_package()
    import workloads

    table = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    for name, (setup, op) in workloads.WORKLOADS.items():
        for seed in seeds:
            work = WORK_ROOT / f"reference-{name}-seed{seed}-{os.getpid()}"
            work.mkdir(parents=True)
            try:
                ctx = setup(work, seed)
                ctx["traced"] = False
                result = op(ctx)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if not result.ok:
                sys.exit(f"perfbench: {name} seed {seed} failed its checks")
            table.setdefault(name, {})[str(seed)] = _short(result.digests)
            print(f"{name} seed {seed}: {result.seconds:.3f} s", flush=True)
    REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


def _seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload",
                        help="sweep-square, disc-disk or studies")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", metavar="SEEDS", type=_seed_list)
    parser.add_argument("--child", choices=("setup",), help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    if args.child:
        return child_main(args)
    if args.record_reference:
        return record_reference(args.record_reference)
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
