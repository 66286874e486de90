"""spreadpoly benchmark: one workload, one process, one client, closed loop.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 bench/run.py --workload all --seed <n> --seconds <s>

A run imports the package from ``src/`` (cold import, cold caches, default
``mp.prec``), draws its cells from the seed, then runs one cell after
another until ``--seconds`` of reference-speed time (see ``speed.py``) have
passed; the cell in flight at that point finishes and counts by the share
of it that fell inside the window.  If the percentile sample (the workload's
first ``sample_cells`` cells) is not complete by then, the run goes on until
it is, and the extra cells count toward the percentiles only.  Every cell's
output is checked after the timer stops.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end metrics
with ``--trace 0``, per-layer metrics with ``--trace 1``).  Lines before it,
starting with ``#``, give provenance and run details.  The exit code is 0
only when every cell verified.

A traced run processes a fixed number of cells (``--cells``, default per
workload) instead of a time window, so its counts repeat exactly.
``--workload all`` runs every workload untraced and then traced over the
same cells, each in a fresh process, and prints every metric by name with
its unit, plus the tracing overhead.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

import workloads as wl  # noqa: E402
from provenance import provenance  # noqa: E402
from speed import SpeedMeter  # noqa: E402

#: Setup is measured this many times, in fresh processes, and the median kept.
SETUP_PROBES = 9
#: A tail percentile needs this many cells beyond it.
TAIL_BEYOND = 10
#: On a machine this much slower than reference speed the window ends early.
WALL_CAP = 1.3
#: A run whose percentile sample takes longer than this fails.
SAMPLE_WALL_LIMIT_S = 120.0
END_TO_END = (
    ("cells_per_s", "cells/s"),
    ("cell_p50_s", "s"),
    ("cell_tail_s", "s"),
    ("verified_frac", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--cells", type=int, default=None,
                   help="cells a traced run processes (default: the workload's own count)")
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def _import_package():
    if not (SRC / "spreadpoly" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no package source at {SRC.relative_to(ROOT)}/spreadpoly")
    sys.path.insert(0, str(SRC))
    # the CLI reads these; a run measures the default PrecisionContext
    os.environ.pop("SPREADPOLY_BITS", None)
    os.environ.pop("SPREADPOLY_RTOL", None)
    import spreadpoly
    import spreadpoly.cli  # noqa: F401  (not imported by the package itself)

    return spreadpoly


def tail(samples):
    """(value, percentile) at the highest percentile with 10 cells beyond it.

    With fewer than 11 cells no percentile qualifies; the maximum is
    reported as percentile 100.
    """
    ordered = sorted(samples)
    if len(ordered) <= TAIL_BEYOND:
        return ordered[-1], 100.0
    k = len(ordered) - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def _measure_setup(workload, seed):
    """Median time from process start to package imported and cells drawn."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(Path(__file__)), "--workload", workload,
             "--seed", str(seed), "--probe-setup"],
            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True,
        ) as child:
            line = child.stdout.readline()
            t1 = time.perf_counter()
            child.stdout.read()
            if child.wait(timeout=120) != 0 or line.strip() != "ready":
                raise RuntimeError("setup probe failed")
        times.append(t1 - t0)
    return statistics.median(times), times


def _run_cell(sp, workload, cell):
    """(start, end, output, error) of one cell."""
    start = time.perf_counter()
    try:
        output, error = workload.run(sp, cell), None
    except Exception:  # a failing cell is recorded, and the run goes on
        output, error = None, traceback.format_exc(limit=3)
    return start, time.perf_counter(), output, error


def _timed_cells(sp, workload, cells, seconds, meter):
    """Cells run until ``seconds`` of reference-speed time have passed and
    the percentile sample is complete."""
    records, window_cells = [], None
    elapsed = 0.0
    t0 = time.perf_counter()
    for cell in cells:
        now = time.perf_counter()
        if window_cells is None and (elapsed >= seconds or now >= t0 + WALL_CAP * seconds):
            window_cells = len(records)
        if window_cells is not None and len(records) >= workload.sample_cells:
            break
        if now >= t0 + SAMPLE_WALL_LIMIT_S:
            break
        start, end, output, error = _run_cell(sp, workload, cell)
        records.append((cell, start, end, output, error))
        elapsed += (end - start - meter.probe_time(start, end)) * meter.factor(start, end)
    if len(records) < workload.sample_cells:
        raise SystemExit(
            f"run.py: {len(records)} of the first {workload.sample_cells} cells finished in "
            f"{time.perf_counter() - t0:.0f} s; the percentiles need all of them")
    return records, len(records) if window_cells is None else window_cells


def _end_to_end(workload, records, window_cells, meter, seconds):
    """End-to-end timings, and the same timings in plain wall time."""
    # wall time per cell without the speed probes that ran inside it, and
    # that time at reference speed
    wall = [end - start - meter.probe_time(start, end) for _, start, end, _, _ in records]
    ref = [t * meter.factor(start, end) for t, (_, start, end, _, _) in zip(wall, records)]
    # cells finished inside the window, plus the share of the one in flight;
    # cells run after it only to complete the percentile sample count for none
    shares, begun = [], 0.0
    for t in ref[:window_cells]:
        shares.append(min(1.0, max(0.0, (seconds - begun) / t)) if t > 0 else 1.0)
        begun += t
    sample = slice(0, workload.sample_cells)
    tail_value, tail_pct = tail(ref[sample])
    values = {
        "cells_per_s": sum(shares) / sum(t * w for t, w in zip(ref, shares)),
        "cell_p50_s": statistics.median(ref[sample]),
        "cell_tail_s": tail_value,
    }
    details = {
        "sample_cells": len(ref[sample]), "tail_percentile": tail_pct,
        "median_probe_s": meter.median_probe_s(),
        "wall": {
            "cells_per_s": sum(shares) / sum(t * w for t, w in zip(wall, shares)),
            "cell_p50_s": statistics.median(wall[sample]),
            "cell_tail_s": tail(wall[sample])[0],
        },
    }
    return values, details, wall, ref


def _write_cells(path, records, t0, wall, ref):
    with open(path, "w", encoding="utf-8") as fh:
        for i, (cell, start, _, _, _) in enumerate(records):
            entry = {"i": i, "cell": cell.describe(), "start": start - t0, "seconds": wall[i]}
            entry["reference_seconds"] = ref[i]
            fh.write(json.dumps(entry) + "\n")


def run(args) -> int:
    sp = _import_package()
    workload = wl.WORKLOADS[args.workload]
    grid = workload.cells(random.Random(args.seed))
    reference = wl.load_reference()
    setup_here = time.perf_counter() - _T_START
    if args.probe_setup:
        print("ready", flush=True)
        return 0

    tracer = None
    t0 = time.perf_counter()
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        meter = SpeedMeter()
        tracer.active = True
        records = []
        for i, cell in enumerate(grid[:args.cells or workload.trace_cells]):
            # probes between cells, outside every span, put the traced
            # throughput at reference speed too
            meter.sample()
            tracer.cell = i
            records.append((cell, *_run_cell(sp, workload, cell)))
        meter.sample()
        tracer.active = False
    else:
        with SpeedMeter() as meter:
            t0 = time.perf_counter()
            records, window_cells = _timed_cells(sp, workload, grid, args.seconds, meter)
    if not records:
        raise SystemExit("run.py: no cell ran")
    standard_rule = getattr(sp.quadrature, "_standard_rule", None)
    rule_cache = standard_rule.cache_info() if hasattr(standard_rule, "cache_info") else None
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = []
    for cell, _, _, output, error in records:
        reason = error or workload.check(sp, cell, output, reference)
        if reason:
            failures.append((cell, reason))
    verified = len(records) - len(failures)
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cells": len(records), "grid_cells": len(grid),
        "setup_in_process_s": setup_here,
    }
    OUT.mkdir(exist_ok=True)
    cells_file = OUT / f"cells-{args.workload}-seed{args.seed}-trace{args.trace}.jsonl"
    if tracer is None:
        values, details, wall, ref = _end_to_end(workload, records, window_cells, meter,
                                                 args.seconds)
        details["window_cells"] = window_cells
        setup_s, setup_samples = _measure_setup(args.workload, args.seed)
        values.update(verified_frac=verified / len(records), setup_s=setup_s,
                      peak_rss_mb=peak_rss_mb)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        info.update(details, setup_samples_s=setup_samples)
    else:
        wall = [end - start for _, start, end, _, _ in records]
        ref = [t * meter.factor(start, end) for t, (_, start, end, _, _) in zip(wall, records)]
        metrics = tracer.metrics(verified, sum(ref), rule_cache)
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(spans_file)
        info.update(spans=len(tracer.spans), spans_file=str(spans_file.relative_to(ROOT)),
                    absent=sorted(name for name, m in metrics.items() if m.get("absent")))
    info.update(busy_s=sum(wall), reference_busy_s=sum(ref))
    _write_cells(cells_file, records, t0, wall, ref)
    info["cells_file"] = str(cells_file.relative_to(ROOT))

    print("# provenance " + json.dumps(provenance()))
    print("# run " + json.dumps(info))
    for cell, reason in failures:
        print(f"# FAILED {cell.describe()}: {reason}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": metrics,
    }))
    if failures:
        cell, reason = failures[0]
        print(f"run.py: {len(failures)} cell(s) failed; first: {cell.describe()}: {reason}",
              file=sys.stderr)
        return 1
    return 0


def _child(args, workload, trace, cells=None):
    argv = [sys.executable, str(Path(__file__)), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
    if cells is not None:
        argv += ["--cells", str(cells)]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    info = next(json.loads(ln[6:]) for ln in lines if ln.startswith("# run "))
    return proc.returncode, info, json.loads(lines[-1])


def run_all(args) -> int:
    """Every workload untraced, then traced over the same cells; one table."""
    status = 0
    print(f"# provenance {json.dumps(provenance())}")
    for name in wl.WORKLOADS:
        rc, info, result = _child(args, name, 0)
        rc_t, info_t, traced = _child(args, name, 1, info["cells"])
        status |= rc | rc_t
        print(f"\n== {name}  (seed {args.seed}, {info['cells']} cells of {info['grid_cells']}; "
              f"percentiles over the first {info['sample_cells']}, tail at "
              f"p{info['tail_percentile']:.1f})")
        error_frac = result["failed"] / result["attempted"]
        print(f"  {'error_frac':<52} {error_frac:>14.6g} ratio")
        for metric, m in result["metrics"].items():
            print(f"  {metric:<52} {m['value']:>14.6g} {m['unit']}")
        untraced_rate = info["cells"] / info["reference_busy_s"]
        traced_rate = info_t["cells"] / info_t["reference_busy_s"]
        print(f"  {'trace overhead (untraced - traced cells/s)':<52} "
              f"{untraced_rate - traced_rate:>14.6g} cells/s "
              f"({(untraced_rate - traced_rate) / untraced_rate:+.1%})")
        print(f"  -- traced run, {info_t['spans']} spans -> {info_t['spans_file']}")
        for metric, m in traced["metrics"].items():
            shown = "absent" if m.get("absent") else f"{m['value']:>14.6g}"
            print(f"  {metric:<52} {shown:>14} {m['unit']}")
    return status


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
