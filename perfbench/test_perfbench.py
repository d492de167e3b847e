"""Self-tests of the benchmark (not part of the program's test suite).

Run from the repository root::

    python3 -m pytest perfbench -q

They use shrunken copies of the workloads, so they check the harness
(metric sets, failure accounting, wrapper restoration), not performance.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for _p in (str(ROOT / "src"), str(HERE)):
    if _p not in sys.path:
        sys.path.insert(0, _p)

import run as bench  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def tiny(name: str):
    """A seconds-scale copy of one workload."""
    w = bench.WORKLOADS[name]
    if name == "node-scale":
        return replace(w, peers=600, owner_links=30, swarms=6, swarm_size=20,
                       rounds=300, setup_repeats=5)
    horizon = {"fig1-fast": 0.4, "faults-lie-fast": 0.4}[name]
    return replace(w, sims_per_pass=1, horizon_days=horizon, setup_repeats=1,
                   probe_receivers=3, strata=1)


@pytest.fixture(scope="module")
def spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_metric_names_and_units_are_well_formed(spec):
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += list(bench.END_TO_END_UNITS) + list(tr.PER_LAYER)
    names += [w["name"] for w in spec["workloads"]]
    for name in names:
        assert NAME.match(name), name
    units = [m["unit"] for m in spec["end_to_end"] + spec["per_layer"]]
    for unit in units + list(bench.END_TO_END_UNITS.values()):
        assert UNIT.match(unit), unit


def test_spec_matches_the_code(spec):
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tr.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_every_workload_emits_every_metric(name):
    w = tiny(name)
    run, metrics = bench.run_untraced(w, seed=5, seconds=0.0, reference={})
    assert set(metrics) == set(bench.END_TO_END_UNITS)
    for metric, (value, unit) in metrics.items():
        assert value > 0, metric
        assert unit == bench.END_TO_END_UNITS[metric]
    assert run.attempted >= 1
    run, layers = bench.run_traced(w, seed=5, reference={}, out_dir=None)
    assert set(layers) == set(tr.PER_LAYER)
    # Traced and untraced outputs agree (a mismatch would be a failure).
    assert not any("traced digest" in p for p in run.problems)


def test_tampered_digest_counts_as_failure():
    w = tiny("node-scale")
    key = w.unit_keys(wl.REFERENCE_SEED)[0]
    digest = w.measure(w.prepare(key), probe=False).digest
    good = {w.name: {str(key): digest}}
    run, _ = bench.run_untraced(w, wl.REFERENCE_SEED, 0.0, good)
    assert run.failed == 0
    bad = {w.name: {str(key): "0" * 16}}
    run, _ = bench.run_untraced(w, wl.REFERENCE_SEED, 0.0, bad)
    assert run.failed >= 1
    run, _ = bench.run_traced(w, wl.REFERENCE_SEED, bad, out_dir=None)
    assert run.failed >= 1


def test_traced_digest_equals_untraced_digest():
    w = tiny("faults-lie-fast")
    run, _ = bench.run_traced(w, seed=9, reference={}, out_dir=None)
    assert run.failed == 0


def _targets():
    probe = tr.Tracer()
    tr.install_layers(probe)
    patches = list(probe._patches)
    probe.uninstall()
    return patches


def _current(owner, attr):
    return vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_wrappers_are_restored_after_a_traced_run():
    patches = _targets()
    assert patches
    for owner, attr, original in patches:
        assert _current(owner, attr) is original
    import repro.experiments.fig3 as fig3

    build = fig3.build_simulation
    bench.run_traced(tiny("faults-lie-fast"), seed=3, reference={}, out_dir=None)
    for owner, attr, original in patches:
        assert _current(owner, attr) is original, f"{owner}.{attr} still wrapped"
    assert fig3.build_simulation is build


def test_wrappers_are_restored_when_the_traced_run_raises():
    patches = _targets()
    with pytest.raises(RuntimeError):
        with tr.Tracer() as t:
            tr.install_layers(t)
            raise RuntimeError("boom")
    for owner, attr, original in patches:
        assert _current(owner, attr) is original


def test_self_time_excludes_child_spans():
    class Box:
        def outer(self):
            self.inner()
            return 1

        def inner(self):
            sum(range(20000))

    t = tr.Tracer()
    with t:
        t.wrap(Box, "outer", "outer")
        t.wrap(Box, "inner", "inner")
        Box().outer()
    outer, inner = t.spans["outer"], t.spans["inner"]
    assert outer.calls == inner.calls == 1
    assert outer.self_s == pytest.approx(outer.busy_s - inner.busy_s, abs=1e-4)
    assert "outer" not in vars(Box) or not hasattr(vars(Box)["outer"], "__wrapped__")


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "node-scale", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
