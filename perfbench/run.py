"""Repository benchmark: one paper-table cell through the Spark fan-out, one
WSD-L training run, and Structured Streaming ingestion.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cell-triangle-massive --seed 0 --seconds 10 --trace 0

``--trace 0`` repeats the workload's unit of work (with its checks) as
long as the next one should end within ``--seconds``, at least once, and
reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the unit once untraced and once traced and reports the
per-layer metrics plus the tracing overhead. Both also log the workload's
own end-to-end metrics by name (``cell_s``, ``train_s``,
``stream_events_per_s``, ``window_ms_p50``, ``window_ms_p90``) and, when
traced, the count, total and self time of every span name. Per-layer metrics of a layer
the workload never calls read 0. Every run checks the outputs; a failed
check is a failed operation and makes the exit code 1. The last line of
standard output is the JSON result. Scratch files go under ``.perfbench/``
and are removed at exit, except the run record (environment, checks,
metrics and, when traced, every span) in ``.perfbench/runs/``.

``--write-golden`` (with ``--seed 0``) stores the run's outputs as the
workload's entry in ``perfbench/golden.json``; every later run at seed 0
must reproduce them bit for bit.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
GOLDEN = HERE / "golden.json"


def _log(msg: str) -> None:
    print(f"[perfbench] {msg}", flush=True)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--write-golden", action="store_true")
    args = ap.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program sources at {SRC / 'repro'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    from tracing import Tracer
    from workloads import DEFAULT_SEED, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.write_golden and args.seed != DEFAULT_SEED:
        print(f"perfbench: --write-golden needs --seed {DEFAULT_SEED}", file=sys.stderr)
        return 2

    t_start = time.perf_counter()
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    work = WORK / f"work-{os.getpid()}"
    wl = WORKLOADS[args.workload](args.seed, work, SRC, {} if args.write_golden else golden)
    try:
        setups = []
        for i in range(wl.SETUPS):
            t0 = t_start if i == 0 else time.perf_counter()
            wl.setup()
            setups.append(time.perf_counter() - t0)
        setup_s = statistics.median(setups)
        _log(f"{wl.name} seed={args.seed} setup_s={setup_s:.3f} (median of {len(setups)}) "
             f"env={json.dumps(wl.info)}")

        units, checks = [], []
        tracer = None
        if args.trace:
            plain = wl.unit()
            checks += wl.checks(plain)
            tracer = Tracer(run_id=f"{wl.name}-seed{args.seed}")
            traced = wl.unit(tracer)
            checks += wl.checks(traced, tracer)
            units = [plain, traced]
        else:
            t_meas = time.perf_counter()
            while True:
                t_unit = time.perf_counter()
                rec = wl.unit()
                checks += wl.checks(rec)
                units.append(rec)
                now = time.perf_counter()
                # start another unit only if it should end inside the window
                if now + (now - t_unit) - t_meas > args.seconds:
                    break
        for i, rec in enumerate(units):
            _log(f"unit {i + 1}/{len(units)}: unit_s={rec['unit_s']:.4f}")
        for name, ok, detail in checks:
            _log(f"check {'ok  ' if ok else 'FAIL'} {name}: {detail}")
        named = wl.named(units[:1] if args.trace else units)
        for name, (value, unit) in named.items():
            _log(f"{name} = {value:.6g} {unit}")
        if tracer is not None:
            for name, agg in tracer.summary().items():
                _log(f"span {name}: {agg['count']} calls, total {agg['total_s']:.4f} s, "
                     f"self {agg['self_s']:.4f} s")

        if args.trace:
            layers = wl.layers(units[1], tracer)
            layers["trace.overhead_pct"] = (units[1]["unit_s"] / units[0]["unit_s"] - 1.0) * 100.0
            wanted = spec["per_layer"]
            unknown = set(layers) - {m["name"] for m in wanted}
            if unknown:
                raise RuntimeError(f"per-layer metrics missing from BENCHMARK.json: {sorted(unknown)}")
            values = {m["name"]: float(layers.get(m["name"], 0.0)) for m in wanted}
        else:
            values = {
                "setup_s": setup_s,
                "unit_s": statistics.median(rec["unit_s"] for rec in units),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            wanted = spec["end_to_end"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
        failed = sum(1 for _, ok, _ in checks if not ok)
        result = {
            "correct": failed == 0,
            "attempted": len(units) + len(checks),
            "failed": failed,
            "metrics": metrics,
        }
        if args.write_golden and failed == 0:
            golden[wl.name] = wl.golden_of(units[-1])
            GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
            _log(f"wrote golden outputs of {wl.name} to {GOLDEN}")
        _write_record(args, wl, setups, units, named, checks, result, tracer)
    finally:
        wl.close()
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def _write_record(args, wl, setups, units, named, checks, result, tracer) -> None:
    runs = WORK / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": wl.info,
        "setup_s": setups,
        "unit_s": [rec["unit_s"] for rec in units],
        "named": {name: {"value": v, "unit": u} for name, (v, u) in named.items()},
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
        "result": result,
        "layers": tracer.summary() if tracer is not None else {},
        "spans": tracer.spans if tracer is not None else [],
    }
    path = runs / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record) + "\n")


if __name__ == "__main__":
    sys.exit(main())
