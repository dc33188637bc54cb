#!/usr/bin/env python3
"""Seeded benchmark of hologlint: three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload stripe-flat --seed 1 --seconds 30 --trace 0

``--workload`` is ``stripe-flat``, ``stripe-sphere`` or ``ridge-point``
(``bench/spec.json`` says what each runs and why). The run generates its
scenes from ``--seed``, times the set-up, then repeats passes of the
workload's operations until ``--seconds`` would be exceeded (at least two
passes). It drives the CLI in-process through ``hologlint.cli.cli_dispatch``
and the library through its module functions, checks every output, and
prints each metric with its unit. Times are reported at reference core speed
(see ``_calibration_kernel``); the raw clock readings go to the result file.
The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` its
metrics are the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1``
untraced and traced passes alternate and the metrics are the per-layer ones,
including ``trace.overhead_s``. The full result (every metric, sample counts,
bundle sha256, machine) goes to ``.bench_out/`` with the spans of a traced
run. ``--smoke`` shrinks every scene so a run takes a few seconds.
"""

import os

# Single-threaded numerics: pinned before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import spans as tracing  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 2
CAL_REPEATS = 3  # kernel runs per calibration
CAL_REF_S = 0.1  # kernel seconds at reference core speed; every reported time is scaled to it
SETUP_REPEATS = 7
HARD_LIMIT_S = 150.0  # never start a pass that would end after this
MODULES = ("cli", "scene", "geom", "foliation", "ridging", "striping", "simulate", "exporters")

# name -> unit, in print order
E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "wall_clock_s": "s",
    "peak_rss_mb": "MiB",
    "stripe_s": "s",
    "simulate_s": "s",
    "verify_s": "s",
    "ridge_s": "s",
    "roundtrip_s": "s",
    "arc_yield": "ratio",
    "tri_err_max": "ratio",
    "tri_missing": "share",
    "verify_violations": "count",
    "failed_ops": "share",
    "bundle_bytes": "bytes",
}
GATED = ("setup_s", "wall_s", "peak_rss_mb")  # the end_to_end list of BENCHMARK.json

_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import hologlint.cli; "
    "print(repr(time.perf_counter() - t))"
)


def _child_import_seconds() -> float:
    """Import time of hologlint in a fresh interpreter, measured inside it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=60, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"importing hologlint failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def _calibration_kernel() -> float:
    """Seconds for a fixed mix of Python arithmetic and 3-vector numpy calls.

    On the shared reference host the speed of a core changes by up to 40 %
    for seconds to minutes at a time. The program runs this same mix of work
    and slows by the same factor as this kernel, so each measured time is
    divided by the kernel's time around it and multiplied by CAL_REF_S.
    """
    v, w, acc = np.array([0.3, -0.2, 0.9]), np.array([0.1, 0.7, -0.4]), 0.0
    t0 = time.perf_counter()
    for i in range(2500):
        c = np.cross(v, w)
        acc += float(np.dot(c, v)) + math.hypot(i, 1.0) + float(np.linalg.norm(c))
    return time.perf_counter() - t0


def _calibrate() -> float:
    return statistics.median(_calibration_kernel() for _ in range(CAL_REPEATS))


def _at_reference(timed, repeats: int) -> tuple[list[float], list[float]]:
    """``timed()`` seconds, raw and scaled by the calibrations just before and after each."""
    raw, scaled, before = [], [], _calibrate()
    for _ in range(repeats):
        raw.append(timed())
        after = _calibrate()
        scaled.append(raw[-1] * CAL_REF_S / (0.5 * (before + after)))
        before = after
    return raw, scaled


def _import_hologlint() -> dict:
    sys.path.insert(0, str(SRC))
    hg = {name: importlib.import_module(f"hologlint.{name}") for name in MODULES}
    origin = Path(hg["cli"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise RuntimeError(f"hologlint imported from {origin}, not from {SRC}")
    return hg


def _make_scenes(hg, workload, seed: int, smoke: bool, work: Path):
    scenes = workload.scenes(random.Random(seed), smoke)
    for s in scenes:
        s.path = work / f"{s.name}.txt"
        s.path.write_text(s.text, encoding="utf-8")
        s.spec = hg["scene"].parse_scene(s.path.read_text(encoding="utf-8"))
    return scenes


def _timing(values: list[float]) -> dict:
    """Median, plus the highest percentile with at least ten samples beyond it."""
    out = {"median": statistics.median(values), "n": len(values)}
    ordered = sorted(values)
    if len(ordered) >= 20:  # with fewer, that percentile would sit below the median
        out["percentile"] = round(100.0 * (len(ordered) - 10) / len(ordered), 1)
        out["percentile_value"] = ordered[len(ordered) - 11]
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


@dataclass
class Pass:
    traced: bool
    wall: float  # seconds in the pass's operations, at reference speed
    wall_clock: float  # the same, as the clock read them
    ops: list
    layer: dict | None  # per-layer metrics of a traced pass


def _run_passes(hg, workload, scenes, work: Path, seconds: float, trace_on: bool):
    """Passes until the next would overrun ``seconds``; alternates traced ones."""
    recorder = tracing.Recorder() if trace_on else None
    points = tracing.boundaries(hg) if trace_on else None
    quiet = workloads.Env(hg, lambda name: contextlib.nullcontext())
    loud = workloads.Env(hg, recorder.span) if trace_on else None
    passes: list[Pass] = []
    first: dict[str, str] = {}
    bundles: list[tuple[str, int]] = []
    durations: list[float] = []
    start = time.perf_counter()
    cals = [_calibrate()]
    while True:
        traced = trace_on and len(passes) % 2 == 1
        pass_dir = work / "pass"
        shutil.rmtree(pass_dir, ignore_errors=True)
        pass_dir.mkdir(parents=True)
        t_pass = time.perf_counter()
        n0 = len(recorder.spans) if traced else 0
        if traced:
            recorder.install(points)
        ops = []
        try:
            for call in workload.ops(loud if traced else quiet, scenes, pass_dir):
                ops.append(call())
                cals.append(_calibrate())
                ops[-1].ref_seconds = ops[-1].seconds * CAL_REF_S / (0.5 * (cals[-2] + cals[-1]))
        finally:
            if traced:
                recorder.uninstall()
        layer = tracing.layer_metrics(recorder.spans[n0:]) if traced else None
        workload.check(ops, scenes, pass_dir)
        for op in ops:
            op_dir = pass_dir / op.name
            sha, _ = workloads.digest(op.stdout, op_dir if op_dir.is_dir() else None)
            if first.setdefault(op.name, sha) != sha:
                op.problems.append("output differs from the first pass (criterion 10)")
        bundles.append(workloads.digest("", pass_dir))
        passes.append(Pass(traced, sum(op.ref_seconds for op in ops),
                           sum(op.seconds for op in ops), ops, layer))
        durations.append(time.perf_counter() - t_pass)

        elapsed = time.perf_counter() - start
        typical = statistics.median(durations)
        enough = len(passes) >= MIN_PASSES
        if elapsed + typical > HARD_LIMIT_S or (enough and elapsed + typical > seconds):
            break
    return passes, bundles, cals, recorder


def _e2e(workload, scenes, passes, bundles, setup_s) -> tuple[dict, dict]:
    """Every end-to-end metric (None where the workload has no such step)."""
    plain = [p for p in passes if not p.traced]
    all_ops = [op for p in passes for op in p.ops]
    first = {op.name: op for op in passes[0].ops}
    timings = {"wall_s": _timing([p.wall for p in plain]),
               "wall_clock_s": _timing([p.wall_clock for p in plain])}
    for metric in workload.op_metrics:
        timings[metric] = _timing([sum(op.ref_seconds for op in p.ops if op.metric == metric)
                                   for p in plain])

    pairs = [r for op in passes[0].ops for r in op.facts.get("pairs", [])]
    found = [r for r in pairs if r is not None]
    m = {name: None for name in E2E_UNITS}
    m["setup_s"] = setup_s
    m.update({k: v["median"] for k, v in timings.items()})
    m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if "stripe" in first and "accepted" in first["stripe"].facts:
        m["arc_yield"] = first["stripe"].facts["accepted"] / len(scenes[0].spec.stipples)
    if "verify" in first:
        m["verify_violations"] = first["verify"].facts.get("violations")
    m["tri_err_max"] = max(found) if found else None
    m["tri_missing"] = (len(pairs) - len(found)) / len(pairs) if pairs else None
    failed = sum(1 for op in all_ops if op.problems)
    m["failed_ops"] = failed / len(all_ops)
    m["bundle_bytes"] = bundles[0][1]
    return m, timings


def _print_metric(name: str, value, unit: str, note: str = "") -> None:
    shown = "n/a" if value is None else (f"{value:.6g}" if isinstance(value, float) else value)
    print(f"  {name:<44} {shown!s:>14} {unit:<6} {note}".rstrip())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny scenes, for a quick check")
    parser.add_argument("--out", type=Path, default=ROOT / ".bench_out",
                        help="directory for the result JSON, the spans and working files")
    args = parser.parse_args(argv)

    if not (SRC / "hologlint" / "__init__.py").is_file():
        print(f"error: no hologlint sources under {SRC}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    work = args.out / f"work-{tag}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        repeats = 1 if args.smoke else SETUP_REPEATS
        import_raw, import_ref = _at_reference(_child_import_seconds, repeats)
        hg = _import_hologlint()
        made = []

        def make_scenes() -> float:
            t0 = time.perf_counter()
            made.append(_make_scenes(hg, workload, args.seed, args.smoke, work))
            return time.perf_counter() - t0

        scene_raw, scene_ref = _at_reference(make_scenes, repeats)
        scenes = made[-1]
        setup_s = statistics.median(import_ref) + statistics.median(scene_ref)

        passes, bundles, cals, recorder = _run_passes(
            hg, workload, scenes, work, args.seconds, bool(args.trace)
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    all_ops = [op for p in passes for op in p.ops]
    failed = [op for op in all_ops if op.problems]
    e2e, timings = _e2e(workload, scenes, passes, bundles, setup_s)
    bundle_sha = bundles[0][0]
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "machine": _machine(),
        "scenes": {s.name: s.text for s in scenes},
        "passes": len(passes),
        "setup_clock_s": {"import": import_raw, "scenes": scene_raw},
        "calibration_s": cals,
        "end_to_end": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()},
        "timings": timings,
        "bundle_sha256": bundle_sha,
        "bundle_sha256_per_pass": [sha for sha, _ in bundles],
        "problems": [f"{op.name}: {msg}" for op in failed for msg in op.problems],
        "known_problems": [f"{op.name}: {msg}" for op in passes[0].ops
                           for msg in op.facts.get("known", [])],
    }

    print(f"hologlint benchmark: {args.workload}, seed {args.seed}, "
          f"{len(passes)} passes, {len(all_ops)} operations, {len(failed)} failed")
    for name, unit in E2E_UNITS.items():
        t = timings.get(name)
        note = ""
        if t is not None:
            note = f"median of {t['n']}"
            if "percentile" in t:
                note += f", p{t['percentile']:g} {t['percentile_value']:.6g}"
        _print_metric(name, e2e[name], unit, note)
    print(f"  bundle sha256 {bundle_sha}")
    print(f"  times at reference core speed: calibration kernel took "
          f"{statistics.median(cals):.6g} s here, {CAL_REF_S} s at reference")
    for line in result["problems"][:20]:
        print(f"  FAILED {line}")
    for line in result["known_problems"]:
        print(f"  KNOWN {line} (reported, not failed; see bench/spec.json)")

    if args.trace:
        traced = [p.layer for p in passes if p.traced]
        plain = statistics.median(p.wall for p in passes if not p.traced)
        layer = {name: statistics.median(t[name] for t in traced) for name in tracing.LAYER_METRICS}
        # span times are clock readings; the overhead compares reference-speed walls
        layer["trace.overhead_s"] = statistics.median(p.wall for p in passes if p.traced) - plain
        units = dict(tracing.LAYER_METRICS, **{"trace.overhead_s": "s"})
        result["per_layer"] = {k: {"value": v, "unit": units[k]} for k, v in layer.items()}
        print(f"per-layer metrics (median of {len(traced)} traced passes)")
        for name, value in layer.items():
            _print_metric(name, value, units[name])
        recorder.write(args.out / f"{tag}-spans.json")
        metrics = result["per_layer"]
    else:
        metrics = {k: {"value": e2e[k], "unit": E2E_UNITS[k]} for k in GATED}

    with open(args.out / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps({"correct": not failed, "attempted": len(all_ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
