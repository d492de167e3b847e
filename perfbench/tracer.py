"""In-process span tracer for the benchmark's traced runs.

The tracer never edits the program.  It replaces public functions of the
``repro`` modules with timing wrappers *where the caller looks them up*
(a module global such as ``repro.bittorrent.simulator.select_unchokes``,
or a method in its class ``__dict__``), aggregates every call into an
in-memory :class:`Span`, and puts the original objects back on
:meth:`Tracer.uninstall`.

Spans nest through one shared stack of child-time accumulators, so each
span knows its *self time*: its duration minus the part covered by
wrapped calls made inside it.  Optional ``before``/``after`` hooks read
inputs and results to keep named counters; their own cost is charged to
no span's self time (it is added to the caller's child time), so counter
bookkeeping does not pollute layer attribution.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

_perf = time.perf_counter


def percentile_us(samples: Optional[List[float]], q: float) -> float:
    """The ``q``-th percentile of durations in seconds, in microseconds
    (0 for no samples)."""
    if not samples:
        return 0.0
    return float(np.percentile(np.asarray(samples), q)) * 1e6


class Span:
    """Aggregate of every call into one wrapped layer boundary."""

    __slots__ = ("name", "calls", "busy_s", "self_s", "durations")

    def __init__(self, name: str, keep_durations: bool) -> None:
        self.name = name
        self.calls = 0
        self.busy_s = 0.0
        self.self_s = 0.0
        self.durations: Optional[List[float]] = [] if keep_durations else None

    def percentile_us(self, q: float) -> float:
        """The ``q``-th percentile call duration in microseconds."""
        return percentile_us(self.durations, q)

    def to_json(self) -> dict:
        out = {
            "calls": self.calls,
            "busy_s": self.busy_s,
            "self_s": self.self_s,
        }
        if self.durations:
            out["p50_us"] = self.percentile_us(50)
            out["p99_us"] = self.percentile_us(99)
        return out


class Tracer:
    """Wraps functions, aggregates spans and counters, restores on exit.

    Use as a context manager: wrappers are installed by the caller (see
    :func:`install_layers`) and always removed on exit, also when the
    traced run raises.
    """

    def __init__(self) -> None:
        self.spans: Dict[str, Span] = {}
        self.counters: Dict[str, float] = defaultdict(float)
        self.marks: Dict[str, float] = {}
        # Child-time accumulators, one per open span; the bottom entry
        # collects time of top-level spans and is never read.
        self._stack: List[float] = [0.0]
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def span(self, name: str, keep_durations: bool = False) -> Span:
        span = self.spans.get(name)
        if span is None:
            span = self.spans[name] = Span(name, keep_durations)
        elif keep_durations and span.durations is None:
            span.durations = []
        return span

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        keep_durations: bool = False,
        before: Optional[Callable[..., Any]] = None,
        after: Optional[Callable[..., None]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a timing wrapper recording into span
        ``name``.

        ``owner`` is a module or a class; for a class the attribute must
        be defined on that class itself (wrapping an inherited method on
        a subclass would leave sibling classes untraced).  ``before(*args,
        **kwargs)`` runs ahead of the timed call and its return value is
        handed to ``after(token, result, *args, **kwargs)``.
        """
        if isinstance(owner, type):
            if attr not in vars(owner):
                raise AttributeError(f"{owner.__name__}.{attr} is not defined there")
            original = vars(owner)[attr]
        else:
            original = getattr(owner, attr)
        if not callable(original):
            raise TypeError(f"{owner!r}.{attr} is not a plain function")
        span = self.span(name, keep_durations)
        stack = self._stack
        fn = original

        if before is None and after is None:

            def wrapper(*args, **kwargs):
                stack.append(0.0)
                t0 = _perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    d = _perf() - t0
                    child = stack.pop()
                    stack[-1] += d
                    span.calls += 1
                    span.busy_s += d
                    span.self_s += d - child
                    if span.durations is not None:
                        span.durations.append(d)

        else:

            def wrapper(*args, **kwargs):
                h0 = _perf()
                token = before(*args, **kwargs) if before is not None else None
                stack.append(0.0)
                t0 = _perf()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = _perf()
                    d = t1 - t0
                    child = stack.pop()
                    span.calls += 1
                    span.busy_s += d
                    span.self_s += d - child
                    if span.durations is not None:
                        span.durations.append(d)
                    # Hook time counts as child time of the caller, so the
                    # caller's self time stays free of tracer bookkeeping.
                    stack[-1] += t1 - h0
                if after is not None:
                    a0 = _perf()
                    after(token, result, *args, **kwargs)
                    stack[-1] += _perf() - a0
                return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", attr)
        wrapper.__qualname__ = getattr(fn, "__qualname__", attr)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every original function back (reverse install order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        return {
            "spans": {n: s.to_json() for n, s in sorted(self.spans.items())},
            "counters": dict(sorted(self.counters.items())),
            "marks": dict(self.marks),
        }


# ----------------------------------------------------------------------
# Layer boundaries of the reproduction
# ----------------------------------------------------------------------
def install_layers(tracer: Tracer) -> None:
    """Wrap the public entry points of every traced ``repro`` layer.

    Each wrapper sits where its caller resolves the name at call time, so
    the program's own call sites hit it without any edit to ``src/``.
    """
    from repro.bittorrent import simulator as bt_simulator
    from repro.bittorrent.simulator import CommunitySimulator
    from repro.bittorrent.swarm import SwarmState
    from repro.core import adversary, messages
    from repro.core import reputation as reputation_mod
    from repro.core.history import PrivateHistory
    from repro.core.node import BarterCastNode
    from repro.core.policies import ReputationPolicy
    from repro.core.sharedhistory import SubjectiveSharedHistory
    from repro.faults.channel import ChannelModel
    from repro.graph.transfer_graph import TransferGraph
    from repro.pss.buddycast import BuddyCastPSS
    from repro.sim.engine import Simulator
    from repro.traces.synthetic import SyntheticTraceGenerator

    c = tracer.counters
    w = tracer.wrap

    # traces.synthetic / sim.engine
    w(SyntheticTraceGenerator, "generate", "traces.generate")
    w(Simulator, "run_until", "sim.loop")

    def _run_done(token, result, *args, **kwargs):
        tracer.marks["sim.run_end"] = _perf()

    w(CommunitySimulator, "run", "sim.run", after=_run_done)

    # pss.buddycast
    w(BuddyCastPSS, "tick", "pss.tick", keep_durations=True)
    w(BuddyCastPSS, "sample", "pss.sample")

    # core.messages + core.history (selection)
    def _message_made(token, msg, node, *args, **kwargs):
        c["core.history_len.sum"] += len(node.history)
        if msg is not None:
            c["core.messages"] += 1
            c["core.message_records"] += msg.num_records

    w(BarterCastNode, "create_message", "core.create_message", after=_message_made)
    w(adversary, "select_records", "core.select_records")
    w(messages, "select_records", "core.select_records")
    w(PrivateHistory, "top_uploaders", "core.top_uploaders")
    w(PrivateHistory, "most_recent", "core.most_recent")

    # core.sharedhistory (ingest)
    def _ingest_pre(shared, message, *args, **kwargs):
        reporter = message.sender
        owner = shared.owner
        claim_of = shared.claim_of
        unchanged = 0
        for rec in message.records:
            cp = getattr(rec, "counterparty", None)
            if cp is None or cp == owner or cp == reporter:
                continue
            if (
                claim_of(reporter, reporter, cp) == rec.uploaded
                and claim_of(reporter, cp, reporter) == rec.downloaded
            ):
                unchanged += 1
        return unchanged

    def _ingested(unchanged, applied, shared, message, *args, **kwargs):
        n = message.num_records
        c["core.ingest.records"] += n
        c["core.ingest.applied"] += applied
        c["core.ingest.dropped"] += n - applied
        c["core.ingest.unchanged"] += unchanged

    w(
        SubjectiveSharedHistory,
        "ingest",
        "core.ingest",
        keep_durations=True,
        before=_ingest_pre,
        after=_ingested,
    )

    # core.node + core.policies (reputation)
    for attr in ("reputation_of", "reputations_of", "rank_by_reputation"):
        w(BarterCastNode, attr, "core.reputation", keep_durations=True)
    w(ReputationPolicy, "prewarm", "core.policy.prewarm")

    # graph.transfer_graph + graph.maxflow / graph.batch (as the metric
    # module imported them)
    w(TransferGraph, "set_transfer", "graph.set_transfer")

    def _scalar_kernel(token, result, *args, **kwargs):
        c["graph.kernel.two_hop.calls"] += 1

    def _batch_targets(graph, owner, targets, *args, **kwargs):
        if hasattr(targets, "__len__"):
            c["graph.kernel.batch_targets"] += len(targets)

    w(reputation_mod, "maxflow_two_hop", "graph.kernel", after=_scalar_kernel)
    w(reputation_mod, "maxflow_two_hop_batch", "graph.kernel", before=_batch_targets)

    # bittorrent (choker / piece as the simulator imported them, swarm)
    w(bt_simulator, "select_unchokes", "bittorrent.select_unchokes", keep_durations=True)
    w(bt_simulator, "pick_rarest", "bittorrent.pick_rarest")
    w(SwarmState, "grant_pieces", "bittorrent.grant_pieces")

    # faults (channel, churn wipes through the shared history)
    w(ChannelModel, "plan_delivery", "faults.plan_delivery")
    w(SubjectiveSharedHistory, "forget_reporter", "faults.forget_reporter")


#: Every per-layer metric: name -> (unit, which direction is better).
#: Work counts are "lower" (less work for the same output); hit and
#: applied ratios are "higher".
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "traces.generate.busy_s": ("s", "lower"),
    "sim.events": ("count", "lower"),
    "sim.loop.self_s": ("s", "lower"),
    "pss.tick.calls": ("count", "lower"),
    "pss.tick.busy_s": ("s", "lower"),
    "pss.tick.p99_us": ("us", "lower"),
    "pss.sample.calls": ("count", "lower"),
    "pss.sample.busy_s": ("s", "lower"),
    "pss.exchanges": ("count", "lower"),
    "core.create_message.calls": ("count", "lower"),
    "core.create_message.busy_s": ("s", "lower"),
    "core.create_message.self_s": ("s", "lower"),
    "core.select_records.busy_s": ("s", "lower"),
    "core.top_uploaders.busy_s": ("s", "lower"),
    "core.most_recent.busy_s": ("s", "lower"),
    "core.records_per_message": ("records", "lower"),
    "core.history_len_mean": ("peers", "lower"),
    "core.ingest.calls": ("count", "lower"),
    "core.ingest.busy_s": ("s", "lower"),
    "core.ingest.p99_us": ("us", "lower"),
    "core.ingest.records": ("count", "lower"),
    "core.ingest.applied_ratio": ("ratio", "higher"),
    "core.ingest.unchanged_share": ("ratio", "lower"),
    "core.ingest.dropped": ("count", "lower"),
    "core.reputation.calls": ("count", "lower"),
    "core.reputation.busy_s": ("s", "lower"),
    "core.reputation.p99_us": ("us", "lower"),
    "core.rep_cache.hit_ratio": ("ratio", "higher"),
    "core.policy.prewarm.busy_s": ("s", "lower"),
    "graph.set_transfer.calls": ("count", "lower"),
    "graph.set_transfer.busy_s": ("s", "lower"),
    "graph.kernel.busy_s": ("s", "lower"),
    "graph.kernel.two_hop.calls": ("count", "lower"),
    "graph.kernel.batch_targets": ("count", "lower"),
    "graph.edges": ("count", "lower"),
    "bittorrent.select_unchokes.calls": ("count", "lower"),
    "bittorrent.select_unchokes.busy_s": ("s", "lower"),
    "bittorrent.select_unchokes.p99_us": ("us", "lower"),
    "bittorrent.pick_rarest.calls": ("count", "lower"),
    "bittorrent.pick_rarest.busy_s": ("s", "lower"),
    "bittorrent.grant_pieces.busy_s": ("s", "lower"),
    "faults.plan_delivery.calls": ("count", "lower"),
    "faults.plan_delivery.busy_s": ("s", "lower"),
    "faults.delivered": ("count", "lower"),
    "faults.dropped": ("count", "lower"),
    "faults.duplicated": ("count", "lower"),
    "faults.churn_wipes": ("count", "lower"),
    "faults.forget_reporter.busy_s": ("s", "lower"),
    "experiments.assemble.busy_s": ("s", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer metrics derived from the tracer's spans and counters.

    Every name is reported; a layer that did no work reads 0.
    """
    spans = tracer.spans
    c = tracer.counters

    def sp(name: str) -> Span:
        return spans.get(name) or Span(name, False)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: Dict[str, float] = {}

    def calls_busy(name: str, fields=("calls", "busy_s")) -> None:
        s = sp(name)
        for f in fields:
            if f == "calls":
                out[f"{name}.calls"] = s.calls
            elif f == "busy_s":
                out[f"{name}.busy_s"] = s.busy_s
            elif f == "self_s":
                out[f"{name}.self_s"] = s.self_s
            elif f == "p99_us":
                out[f"{name}.p99_us"] = s.percentile_us(99)

    calls_busy("traces.generate", ("busy_s",))
    out["sim.loop.self_s"] = sp("sim.loop").self_s
    calls_busy("pss.tick", ("calls", "busy_s", "p99_us"))
    calls_busy("pss.sample")
    calls_busy("core.create_message", ("calls", "busy_s", "self_s"))
    for name in ("core.select_records", "core.top_uploaders", "core.most_recent"):
        calls_busy(name, ("busy_s",))
    creates = sp("core.create_message").calls
    out["core.records_per_message"] = ratio(c["core.message_records"], c["core.messages"])
    out["core.history_len_mean"] = ratio(c["core.history_len.sum"], creates)
    calls_busy("core.ingest", ("calls", "busy_s", "p99_us"))
    records = c["core.ingest.records"]
    out["core.ingest.records"] = records
    out["core.ingest.applied_ratio"] = ratio(c["core.ingest.applied"], records)
    out["core.ingest.unchanged_share"] = ratio(c["core.ingest.unchanged"], records)
    out["core.ingest.dropped"] = c["core.ingest.dropped"]
    calls_busy("core.reputation", ("calls", "busy_s", "p99_us"))
    calls_busy("core.policy.prewarm", ("busy_s",))
    calls_busy("graph.set_transfer")
    calls_busy("graph.kernel", ("busy_s",))
    out["graph.kernel.two_hop.calls"] = c["graph.kernel.two_hop.calls"]
    out["graph.kernel.batch_targets"] = c["graph.kernel.batch_targets"]
    calls_busy("bittorrent.select_unchokes", ("calls", "busy_s", "p99_us"))
    calls_busy("bittorrent.pick_rarest")
    calls_busy("bittorrent.grant_pieces", ("busy_s",))
    calls_busy("faults.plan_delivery")
    calls_busy("faults.forget_reporter", ("busy_s",))
    return out
