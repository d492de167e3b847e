"""End-to-end benchmark of the BarterCast reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload fig1-fast --seed 3 --seconds 20 --trace 0

Workloads (see ``workloads.py`` for why each exists and what it
bypasses): ``fig1-fast``, ``faults-lie-fast``, ``node-scale``.
``--list`` prints them.

``--trace 0`` measures the end-to-end metrics with no tracing: passes of
the workload's fixed work repeat while ``--seconds`` allows (at least
one); ``wall_s``/``cpu_s`` are the median over passes of the mean per
figure run (or per op stream), ``setup_s`` the median of all set-up
samples, and the latency percentiles pool every timed call.  ``--trace 1``
runs the first unit of work untraced and then traced on the same
inputs, checks that both give the same output digest, and reports the
per-layer metrics (``tracer.py``) plus the tracing overhead; the spans
are also written to ``.perfbench_out/``.

Every run checks its outputs: an exception, a digest that differs from
``reference.json`` (reference seed only) or a violated invariant (any
seed) counts as a failed operation.  Human-readable lines (environment,
workload, digests, every metric with its unit, ``error_rate``) come
first; the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--record-reference`` rewrites the reference digests of one workload at
the reference seed; do that only for a change that is meant to alter
outputs.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

from tracer import PER_LAYER, Tracer, install_layers, layer_metrics, percentile_us
from workloads import REFERENCE_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_FILE = HERE / "reference.json"
OUT_DIR = ROOT / ".perfbench_out"

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "query_p50_us": "us",
    "query_p90_us": "us",
    "ingest_p50_us": "us",
    "ingest_p90_us": "us",
}


def load_reference() -> dict:
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def _environment(reference_seed: int) -> dict:
    import numpy

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "reference_seed": reference_seed,
    }


class Run:
    """Accumulates attempts, failures and per-unit digests of one run."""

    def __init__(self, workload, seed: int, reference: dict) -> None:
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.expected = reference.get(workload.name, {}) if seed == REFERENCE_SEED else None

    def account(self, outcome) -> None:
        """Count one outcome's operations and failures."""
        self.attempted += outcome.attempted
        failed = outcome.failed_ops
        problems = list(outcome.violations)
        if self.expected is not None:
            want = self.expected.get(outcome.key)
            if want != outcome.digest:
                problems.append(
                    f"digest {outcome.digest} != reference {want} for unit {outcome.key}"
                )
        if problems:
            failed += 1
            self.problems.extend(problems)
            for p in problems:
                print(f"FAIL {self.workload.name} seed={self.seed} unit={outcome.key}: {p}")
        self.failed += min(failed, outcome.attempted)
        print(f"digest {self.workload.name} seed={self.seed} unit={outcome.key} {outcome.digest}")

    def fail_unit(self, key) -> None:
        self.attempted += 1
        self.failed += 1
        print(f"FAIL {self.workload.name} seed={self.seed} unit={key}: exception")
        traceback.print_exc()


@contextmanager
def inputs_frozen():
    """Keep the pre-built inputs out of the program's garbage collections.

    ``node-scale`` builds its whole message stream up front; a real caller
    would receive those messages one at a time, so letting every gen-2
    collection inside the timed region traverse them would charge the
    program for the harness's storage.
    """
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def run_untraced(workload, seed: int, seconds: float, reference: dict):
    """End-to-end metrics: repeated passes of the workload's fixed work."""
    run = Run(workload, seed, reference)
    keys = workload.unit_keys(seed)
    inputs = [workload.prepare(key) for key in keys]
    walls, cpus, setups, query_s, ingest_s = [], [], [], [], []
    with inputs_frozen():
        start = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            pass_wall, pass_cpu, units = 0.0, 0.0, 0
            for key, unit in zip(keys, inputs):
                try:
                    outcome = workload.measure(unit, probe=True)
                except Exception:
                    run.fail_unit(key)
                    continue
                run.account(outcome)
                pass_wall += outcome.wall_s
                pass_cpu += outcome.cpu_s
                units += 1
                setups.extend(outcome.setup_s)
                query_s.extend(outcome.query_s)
                ingest_s.extend(outcome.ingest_s)
            if units:
                walls.append(pass_wall / units)
                cpus.append(pass_cpu / units)
            now = time.perf_counter()
            if not units or now - start + (now - pass_start) > seconds:
                break
    if not walls:
        return run, None
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "query_p50_us": percentile_us(query_s, 50),
        "query_p90_us": percentile_us(query_s, 90),
        "ingest_p50_us": percentile_us(ingest_s, 50),
        "ingest_p90_us": percentile_us(ingest_s, 90),
    }
    print(
        f"pass wall_s {[round(w, 4) for w in walls]}; units per pass {len(keys)}; "
        f"setup samples {len(setups)}; query samples {len(query_s)}; "
        f"ingest samples {len(ingest_s)}"
    )
    return run, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}


def run_traced(workload, seed: int, reference: dict, out_dir: Path | None = OUT_DIR):
    """Per-layer metrics: the first unit untraced, then traced, same inputs."""
    run = Run(workload, seed, reference)
    key = workload.unit_keys(seed)[0]
    unit = workload.prepare(key)
    try:
        with inputs_frozen():
            plain = workload.measure(unit, probe=False)
    except Exception:
        run.fail_unit(key)
        return run, None
    run.account(plain)
    tracer = Tracer()
    try:
        with inputs_frozen(), tracer:
            install_layers(tracer)
            traced = workload.measure(unit, probe=False, tracer=tracer)
    except Exception:
        run.fail_unit(key)
        return run, None
    if traced.digest != plain.digest:
        traced.violations.append(
            f"traced digest {traced.digest} != untraced digest {plain.digest}"
        )
    run.account(traced)
    # Counters of layers a workload never builds (the fault channel
    # outside faults-lie-fast, the simulator under node-scale) read 0.
    metrics = dict.fromkeys(PER_LAYER, 0)
    metrics.update(layer_metrics(tracer))
    metrics.update(traced.counters)
    metrics["experiments.assemble.busy_s"] = traced.assemble_s
    metrics["trace.overhead_pct"] = (traced.wall_s / plain.wall_s - 1.0) * 100.0
    extra = set(metrics) - set(PER_LAYER)
    if extra:
        raise RuntimeError(f"per-layer metrics not declared in PER_LAYER: {sorted(extra)}")
    if out_dir is not None:
        out_dir.mkdir(exist_ok=True)
        dump = tracer.to_json()
        dump.update(workload=workload.name, seed=seed, metrics=metrics)
        path = out_dir / f"trace-{workload.name}-seed{seed}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dump, fh, indent=1, sort_keys=True)
        print(f"spans written to {path.relative_to(ROOT)}")
    return run, {k: (v, PER_LAYER[k][0]) for k, v in metrics.items()}


def record_reference(workload) -> dict:
    """Digests of every unit of one pass at the reference seed."""
    digests = {}
    for key in workload.unit_keys(REFERENCE_SEED):
        outcome = workload.measure(workload.prepare(key), probe=False)
        if outcome.violations:
            raise RuntimeError(f"invariants violated, not recording: {outcome.violations}")
        digests[outcome.key] = outcome.digest
    return digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list", action="store_true", help="describe the workloads")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    if args.list:
        for w in WORKLOADS.values():
            print(f"{w.name}\n  why: {w.why}\n  bypasses: {w.bypasses}")
        return 0
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    if args.record_reference:
        ref = load_reference() if REFERENCE_FILE.exists() else {}
        ref[workload.name] = record_reference(workload)
        with open(REFERENCE_FILE, "w", encoding="utf-8") as fh:
            json.dump(ref, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"recorded {ref[workload.name]}")
        return 0

    print("env " + json.dumps(_environment(REFERENCE_SEED), sort_keys=True))
    print(f"workload {workload.name}: {workload.why}; bypasses {workload.bypasses}")
    reference = load_reference()
    if args.trace:
        run, metrics = run_traced(workload, args.seed, reference)
    else:
        run, metrics = run_untraced(workload, args.seed, args.seconds, reference)
    if metrics is None:
        print("no unit of work completed", file=sys.stderr)
        return 1
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    error_rate = run.failed / run.attempted if run.attempted else 1.0
    print(f"error_rate {error_rate!r} ratio ({run.failed} failed of {run.attempted} attempted)")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _bootstrap() -> None:
    """Make ``src/repro`` importable, or stop without a result."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
            file=sys.stderr,
        )
        raise SystemExit(2)
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))


if __name__ == "__main__":
    _bootstrap()
    raise SystemExit(main())
