"""The benchmark's workloads: whole figure runs and a library-driven node.

Every workload makes its inputs from the benchmark seed and hands the
program only what a user would: a generated
:class:`~repro.experiments.scenario.ScenarioConfig` passed to a public
figure entry point, or messages and candidate lists passed to a
:class:`~repro.core.node.BarterCastNode`.  Each run checks its outputs
(reference digest for the reference seed, invariants for any seed).

A *pass* is the fixed work of one workload for one seed.  Simulation
workloads run ``sims_per_pass`` figure runs on sub-seeds derived from the
seed; ``node-scale`` runs one closed-loop op stream.  The runner repeats
passes while its time budget allows, so every pass of a run sees the
same inputs.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import math
import time
import traceback
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

DAY = 86400.0
MB = 1024.0 * 1024.0

#: Seed whose outputs are pinned in ``reference.json``.
REFERENCE_SEED = 1

_perf = time.perf_counter
_cpu = time.process_time


def sub_seed(seed: int, k: int) -> int:
    """The scenario seed of the ``k``-th figure run of a pass."""
    return int(np.random.SeedSequence([int(seed), int(k)]).generate_state(1)[0])


def _canon(obj: Any) -> Any:
    """A JSON-stable form of an output: floats as exact hex strings."""
    if isinstance(obj, np.ndarray):
        return [_canon(x) for x in obj.tolist()]
    if isinstance(obj, (float, np.floating)):
        return float(obj).hex()
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, dict):
        return {str(k): _canon(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_canon(x) for x in obj]
    return repr(obj)


def digest_of(obj: Any) -> str:
    """Short SHA-256 digest of an output's canonical form."""
    blob = json.dumps(_canon(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def in_codomain(value: float, engine) -> bool:
    """Whether a score lies inside the engine's declared codomain."""
    lo, hi = engine.score_bounds
    if value != value:
        return False
    if engine.bounds_closed:
        return lo <= value <= hi
    return lo < value < hi


@dataclass
class Outcome:
    """What one unit of measured work (a figure run or an op stream)
    produced."""

    key: str
    digest: str = ""
    setup_s: List[float] = field(default_factory=list)
    wall_s: float = 0.0
    cpu_s: float = 0.0
    attempted: int = 1
    failed_ops: int = 0
    violations: List[str] = field(default_factory=list)
    query_s: List[float] = field(default_factory=list)
    ingest_s: List[float] = field(default_factory=list)
    #: Layer counters read from the program's objects after the run.
    counters: Dict[str, float] = field(default_factory=dict)
    #: Seconds between the end of ``sim.run()`` and the entry point's
    #: return (figure assembly); traced runs only.
    assemble_s: float = 0.0


# ----------------------------------------------------------------------
# Simulation workloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SimWorkload:
    """A whole figure run through a public ``repro.experiments`` entry.

    The entry point builds its simulation through its module's
    ``build_simulation``; the benchmark times that call (``setup_s``)
    by rebinding the name for the duration of the call and subtracts it
    from the entry point's duration (``wall_s``).
    """

    name: str
    why: str
    bypasses: str
    entry_module: str
    sims_per_pass: int
    horizon_days: float
    setup_repeats: int = 5
    probe_receivers: int = 16
    strata: int = 5

    # -- to be provided by each workload ----------------------------------
    def scenario(self, seed: int):
        raise NotImplementedError

    def call(self, scenario):
        raise NotImplementedError

    def series(self, result) -> Any:
        raise NotImplementedError

    def check(self, sim, result) -> List[str]:
        return []

    # ---------------------------------------------------------------------
    def unit_keys(self, seed: int) -> List[int]:
        """Scenario seeds of one pass, stratified by offered load.

        A figure run's cost follows how many file requests its trace
        holds, and that count varies widely between traces.  So the pass
        draws ``sims_per_pass * strata`` candidate seeds from ``seed``,
        orders them by request count, and takes the middle candidate of
        each of ``sims_per_pass`` equal strata: a representative spread
        of trace sizes instead of a lucky or unlucky draw.
        """
        n = self.sims_per_pass * self.strata
        candidates = sorted(
            (len(self.scenario(key).make_trace().requests), key)
            for key in (sub_seed(seed, j) for j in range(n))
        )
        mid = self.strata // 2
        return [candidates[i * self.strata + mid][1] for i in range(self.sims_per_pass)]

    def prepare(self, key: int) -> int:
        """A figure run's only input is its scenario seed."""
        return key

    def _cut(self, scenario):
        params = replace(scenario.trace_params, duration=self.horizon_days * DAY)
        return replace(scenario, trace_params=params)

    def measure(
        self,
        key: int,
        *,
        probe: bool,
        tracer=None,
    ) -> Outcome:
        """One figure run on scenario seed ``key``.

        ``probe`` adds the untimed library probe of the final state and
        extra setup timings; ``tracer`` marks a traced run, whose figure
        assembly time is read from the tracer's end-of-``sim.run`` mark.
        """
        module = importlib.import_module(self.entry_module)
        original = module.build_simulation
        captured: Dict[str, Any] = {}

        def timed_build(*args, **kwargs):
            t0, c0 = _perf(), _cpu()
            sim = original(*args, **kwargs)
            captured.update(
                setup_s=_perf() - t0,
                setup_cpu=_cpu() - c0,
                sim=sim,
                args=args,
                kwargs=kwargs,
            )
            return sim

        out = Outcome(key=str(key))
        scenario = self.scenario(key)
        gc.collect()
        module.build_simulation = timed_build
        try:
            t0, c0 = _perf(), _cpu()
            result = self.call(scenario)
            t1, c1 = _perf(), _cpu()
        finally:
            module.build_simulation = original
        sim = captured["sim"]
        out.setup_s.append(captured["setup_s"])
        out.wall_s = (t1 - t0) - captured["setup_s"]
        out.cpu_s = (c1 - c0) - captured["setup_cpu"]
        if tracer is not None and "sim.run_end" in tracer.marks:
            out.assemble_s = t1 - tracer.marks["sim.run_end"]
        out.digest = digest_of({"series": self.series(result), "state": sim_state(sim)})
        out.violations.extend(self.check(sim, result))
        out.counters = sim_counters(sim)
        if probe:
            q, i, bad = probe_final_state(sim, self.probe_receivers)
            out.query_s, out.ingest_s = q, i
            out.violations.extend(bad)
            # Repeat the set-up from a collected heap each time, as the
            # entry point's own build ran, so a collection of the finished
            # run's garbage never lands inside a set-up sample.
            del sim, captured["sim"]
            for _ in range(self.setup_repeats):
                gc.collect()
                t0 = _perf()
                original(*captured["args"], **captured["kwargs"])
                out.setup_s.append(_perf() - t0)
        return out


def sim_state(sim) -> dict:
    """Fingerprint of a finished simulation beyond its figure series."""
    nodes = sim.nodes.values()
    return {
        "events": sim.engine.events_fired,
        "sent": sum(n.messages_sent for n in nodes),
        "received": sum(n.messages_received for n in nodes),
        "applied": sum(n.shared.records_applied for n in nodes),
        "edges": sum(n.graph.num_edges for n in nodes),
        "bytes": sum(n.history.total_uploaded for n in nodes),
    }


def sim_counters(sim) -> Dict[str, float]:
    """Layer counters the program keeps on its own objects."""
    nodes = list(sim.nodes.values())
    hits = sum(n.rep_cache_hits for n in nodes)
    misses = sum(n.rep_cache_misses for n in nodes)
    channel, churn = sim.channel, sim.churn
    return {
        "sim.events": sim.engine.events_fired,
        "pss.exchanges": getattr(sim.pss, "exchanges", 0),
        "core.rep_cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "graph.edges": sum(n.graph.num_edges for n in nodes),
        "faults.delivered": channel.delivered if channel is not None else 0,
        "faults.dropped": channel.dropped if channel is not None else 0,
        "faults.duplicated": channel.duplicated if channel is not None else 0,
        "faults.churn_wipes": churn.wipes if churn is not None else 0,
    }


def probe_final_state(sim, receivers: int) -> Tuple[List[float], List[float], List[str]]:
    """Library calls on a finished simulation's nodes, timed one by one.

    Every subject peer sends the message it would send next to the next
    ``receivers`` subjects in id order.  Each receiver ingests it and
    ranks every other subject, untimed; then the benchmark times a second
    delivery of the same message (``receive_message`` of an unchanged
    re-send, the bulk of figure-run gossip) and a second ranking
    (``rank_by_reputation`` served from the warm cache, as in a choke
    round).  Both paths do the same work on any final state, so their
    latencies compare across seeds.  Afterwards every receiver's scores
    must lie in its engine's codomain.
    """
    subjects = sorted(sim.roles.subjects)
    n = len(subjects)
    nodes = sim.nodes
    now = sim.engine.now + 1.0
    candidates = {j: [p for p in subjects if p != j] for j in subjects}
    query_s: List[float] = []
    ingest_s: List[float] = []
    bad: List[str] = []
    for idx, i in enumerate(subjects):
        msg = nodes[i].create_message(now)
        if msg is None:
            continue
        for step in range(1, min(receivers, n - 1) + 1):
            j = subjects[(idx + step) % n]
            node = nodes[j]
            node.receive_message(msg, now=now)
            node.rank_by_reputation(candidates[j])
            t0 = _perf()
            node.receive_message(msg, now=now)
            t1 = _perf()
            ranked = node.rank_by_reputation(candidates[j])
            t2 = _perf()
            ingest_s.append(t1 - t0)
            query_s.append(t2 - t1)
            if len(ranked) != n - 1:
                bad.append(f"rank of {j} returned {len(ranked)} of {n - 1} peers")
    for j in subjects:
        node = nodes[j]
        engine = node.active_engine()
        for p, v in node.reputations_of(candidates[j]).items():
            if not in_codomain(v, engine):
                bad.append(f"R_{j}({p}) = {v!r} outside {engine.score_bounds}")
                break
    return query_s, ingest_s, bad


class _LiarEnvelope:
    """A selfish liar's ledger as the auditor's envelope sees it.

    The auditor bounds every third-party edge by the larger claim its two
    parties could honestly make.  A liar claims ``lie_upload_bytes`` to
    each counterparty it names, so its upload side of the envelope is
    raised to that declared size; everything else stays the real ledger.
    """

    def __init__(self, history, lie_bytes: float) -> None:
        self._history = history
        self._lie = lie_bytes

    def get(self, peer):
        totals = self._history.get(peer)
        totals.uploaded = max(totals.uploaded, self._lie)
        return totals


def _audit(sim, rep_targets: int = 5) -> List[str]:
    """``audit_simulation`` (same rep-target sampling), with each selfish
    liar's envelope widened to its declared lie size.

    In an all-honest run this is exactly ``audit_simulation(sim, 5)``;
    with liars the unwidened envelope would flag the lies themselves,
    which the fault machinery is not meant to prevent.
    """
    from repro.core.adversary import SelfishLiar
    from repro.faults import audit_node

    real = {pid: node.history for pid, node in sim.nodes.items()}
    envelope = dict(real)
    for pid, node in sim.nodes.items():
        if isinstance(node.behavior, SelfishLiar):
            envelope[pid] = _LiarEnvelope(node.history, node.behavior.lie_upload_bytes)
    order = sorted(real, key=repr)
    bad: List[str] = []
    for pid in sorted(sim.nodes):
        view = dict(envelope)
        view[pid] = real[pid]  # owner-incident edges: the owner's own ledger
        targets = [p for p in order if p != pid][:rep_targets]
        bad.extend(f"audit: {v}" for v in audit_node(sim.nodes[pid], view, targets))
    return bad


@dataclass(frozen=True)
class Fig1Fast(SimWorkload):
    def scenario(self, seed: int):
        from repro.experiments.scenario import ScenarioConfig

        return self._cut(ScenarioConfig.fast(seed))

    def call(self, scenario):
        from repro.experiments.fig1 import run_fig1

        return run_fig1(scenario)

    def series(self, result) -> Any:
        return {
            "times_days": result.times_days,
            "sharers": result.sharer_reputation,
            "freeriders": result.freerider_reputation,
            "peers": result.peer_ids,
            "net_gb": result.net_contribution_gb,
            "reputation": result.system_reputation,
            "spearman": result.spearman,
            "pearson": result.pearson,
        }

    def check(self, sim, result) -> List[str]:
        bad = _audit(sim)
        if not result.final_separation > 0.0:
            bad.append(
                f"sharers do not rank above freeriders: separation {result.final_separation!r}"
            )
        values = np.concatenate(
            [result.system_reputation, result.sharer_reputation, result.freerider_reputation]
        )
        if not np.all(np.isfinite(values)) or np.any(np.abs(values) >= 1.0):
            bad.append("system reputation outside (-1, 1)")
        return bad


@dataclass(frozen=True)
class FaultsLieFast(SimWorkload):
    liar_pct: float = 30.0
    delta: float = -0.5

    def scenario(self, seed: int):
        from repro.experiments.scenario import ScenarioConfig
        from repro.faults import FaultConfig

        faults = FaultConfig(loss=0.1, duplicate=0.2, delay_max=600.0, churn_rate=2.0)
        return self._cut(ScenarioConfig.fast(seed)).with_faults(faults)

    def call(self, scenario):
        from repro.experiments.fig3 import run_fig3_point

        return run_fig3_point(scenario, "lie", self.liar_pct, self.delta)

    def series(self, result) -> Any:
        return list(result)

    def check(self, sim, result) -> List[str]:
        bad = _audit(sim)
        if not all(math.isfinite(v) and v >= 0.0 for v in result):
            bad.append(f"speeds not finite and non-negative: {result!r}")
        return bad


# ----------------------------------------------------------------------
# Library workload
# ----------------------------------------------------------------------
@dataclass
class NodeInputs:
    key: int
    owner: int
    transfers: List[Tuple[int, float, float]]
    growth: list
    stream: List[Tuple[Any, List[int]]]
    swarms: List[List[int]]


@dataclass(frozen=True)
class NodeScale:
    """One :class:`BarterCastNode` driven as a library, closed loop.

    The op stream first grows the node's subjective view from one
    message per peer (``records`` counterparties each, so about
    ``2 * records`` neighbours per peer), then alternates a fresh message
    (every total grown, so no record is an unchanged re-send) with a
    choke-sized ``rank_by_reputation`` over one swarm's members.
    """

    name: str
    why: str
    bypasses: str
    peers: int = 20000
    records: int = 5
    owner_links: int = 100
    swarms: int = 40
    swarm_size: int = 40
    rounds: int = 12000
    setup_repeats: int = 200

    def unit_keys(self, seed: int) -> List[int]:
        return [sub_seed(seed, 0)]

    def prepare(self, key: int) -> NodeInputs:
        from repro.core.messages import BarterCastMessage, HistoryRecord

        rng = np.random.default_rng(key)
        owner = 0
        others = np.arange(1, self.peers)
        links = rng.choice(others, size=self.owner_links, replace=False)
        vol = rng.uniform(10.0, 500.0, size=(self.owner_links, 2)) * MB
        transfers = [
            (int(p), float(u), float(d)) for p, (u, d) in zip(links.tolist(), vol.tolist())
        ]
        k = self.records
        partners = rng.integers(0, self.peers - 1, size=(self.peers, k))
        # Shift draws at or above the reporter's own id so no peer reports
        # itself; the owner (id 0) stays a possible counterparty.
        partners += partners >= np.arange(self.peers)[:, None]
        totals = rng.uniform(1.0, 200.0, size=(self.peers, k, 2)) * MB
        t = 1.0
        growth = []
        for r in rng.permutation(others).tolist():
            recs = tuple(
                HistoryRecord(cp, up, down)
                for cp, (up, down) in zip(partners[r].tolist(), totals[r].tolist())
            )
            growth.append(BarterCastMessage(sender=r, created_at=t, records=recs))
            t += 1.0
        swarms = []
        for _ in range(self.swarms):
            local = rng.choice(links, size=min(10, self.owner_links), replace=False)
            remote = rng.choice(others, size=self.swarm_size - len(local), replace=False)
            members = list(dict.fromkeys(local.tolist() + remote.tolist()))
            swarms.append(members)
        reporters = rng.integers(0, self.swarms, size=self.rounds)
        picks = rng.random(self.rounds)
        queries = rng.integers(0, self.swarms, size=self.rounds)
        grow = rng.uniform(0.5, 20.0, size=(self.rounds, k, 2)) * MB
        stream = []
        for n in range(self.rounds):
            members = swarms[int(reporters[n])]
            r = members[int(picks[n] * len(members))]
            totals[r] += grow[n]
            recs = tuple(
                HistoryRecord(cp, up, down)
                for cp, (up, down) in zip(partners[r].tolist(), totals[r].tolist())
            )
            msg = BarterCastMessage(sender=r, created_at=t, records=recs)
            t += 1.0
            stream.append((msg, swarms[int(queries[n])]))
        return NodeInputs(key, owner, transfers, growth, stream, swarms)

    def make_node(self, owner: int):
        from repro.core.node import BarterCastNode

        return BarterCastNode(owner)

    def measure(self, inputs: NodeInputs, *, probe: bool, tracer=None) -> Outcome:
        """One closed-loop op stream on a fresh node (``probe`` keeps the
        latency samples and times node construction)."""
        out = Outcome(key=str(inputs.key))
        if probe:
            for _ in range(self.setup_repeats):
                t0 = _perf()
                self.make_node(inputs.owner)
                out.setup_s.append(_perf() - t0)
        node = self.make_node(inputs.owner)
        ingest_s = out.ingest_s
        query_s = out.query_s
        ranked_all: List[Optional[list]] = []
        failed = 0
        gc.collect()
        t_start, c_start = _perf(), _cpu()
        for peer, up, down in inputs.transfers:
            node.record_upload(peer, up, 0.0)
            node.record_download(peer, down, 0.0)
        for msg in inputs.growth:
            t0 = _perf()
            try:
                node.receive_message(msg, now=msg.created_at)
            except Exception:
                failed += 1
                traceback.print_exc()
            ingest_s.append(_perf() - t0)
        for msg, candidates in inputs.stream:
            t0 = _perf()
            try:
                node.receive_message(msg, now=msg.created_at)
            except Exception:
                failed += 1
                traceback.print_exc()
            t1 = _perf()
            try:
                ranked = node.rank_by_reputation(candidates)
            except Exception:
                failed += 1
                ranked = None
                traceback.print_exc()
            query_s.append(_perf() - t1)
            ingest_s.append(t1 - t0)
            ranked_all.append(ranked)
        out.wall_s = _perf() - t_start
        out.cpu_s = _cpu() - c_start
        out.attempted = 2 * len(inputs.transfers) + len(inputs.growth) + 2 * len(inputs.stream)
        out.failed_ops = failed
        if not probe:
            query_s.clear()
            ingest_s.clear()
        out.digest = digest_of(
            {
                # repr of nested int lists is exact and far cheaper than
                # canonicalising 12k rankings element by element.
                "ranks": hashlib.sha256(repr(ranked_all).encode()).hexdigest(),
                "edges": node.graph.num_edges,
                "bytes": node.graph.total_bytes,
                "applied": node.shared.records_applied,
                "dropped": node.shared.records_dropped,
            }
        )
        out.violations.extend(self.check(node, inputs, ranked_all))
        hits, misses = node.rep_cache_hits, node.rep_cache_misses
        out.counters = {
            "core.rep_cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "graph.edges": node.graph.num_edges,
        }
        return out

    def check(self, node, inputs: NodeInputs, ranked_all) -> List[str]:
        """Invariants: every ranking is a permutation of its candidates,
        every score lies in the engine's codomain, and cached scores equal
        a cold recomputation."""
        bad: List[str] = []
        for (_, candidates), ranked in zip(inputs.stream, ranked_all):
            if ranked is None or sorted(ranked) != sorted(set(candidates) - {node.peer_id}):
                bad.append("rank_by_reputation is not a permutation of its candidates")
                break
        engine = node.active_engine()
        probe = sorted({p for members in inputs.swarms for p in members})
        cached = node.reputations_of(probe)
        for p, v in cached.items():
            if not in_codomain(v, engine):
                bad.append(f"R({p}) = {v!r} outside {engine.score_bounds}")
                break
        node.invalidate_cache()
        cold = node.reputations_of(probe)
        if cold != cached:
            stale = sum(1 for p in probe if cold[p] != cached[p])
            bad.append(f"{stale} cached reputations differ from a cold recomputation")
        return bad


# ----------------------------------------------------------------------
WORKLOADS: Dict[str, Any] = {
    w.name: w
    for w in (
        Fig1Fast(
            name="fig1-fast",
            why=(
                "the canonical Figure 1 run (fast profile: 40 peers, 5 swarms, 3 days, "
                "NoPolicy): gossip-bound, dominated by message selection and ingest"
            ),
            bypasses="reputation (scalar queries only at samples) and the fault channel",
            entry_module="repro.experiments.fig1",
            sims_per_pass=2,
            horizon_days=3.0,
            probe_receivers=39,
        ),
        FaultsLieFast(
            name="faults-lie-fast",
            why=(
                "fast profile cut at 0.75 days, BanPolicy(-0.5), 30% selfish liars, loss "
                "0.1, duplication 0.2, delay <= 600 s, churn 2/day: delayed, duplicated, "
                "reordered copies and churn wipes"
            ),
            bypasses="nothing: the only workload where the fault layer runs",
            entry_module="repro.experiments.fig3",
            sims_per_pass=6,
            horizon_days=0.75,
        ),
        NodeScale(
            name="node-scale",
            why=(
                "one BarterCastNode as a library over a 20k-peer degree-10 view: "
                "choke-sized rankings interleaved with fresh messages"
            ),
            bypasses="the simulator, BuddyCast, BitTorrent and the fault channel",
        ),
    )
}
