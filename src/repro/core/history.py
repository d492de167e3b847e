"""The private history ledger.

Each peer records, per counterparty, the total bytes it has uploaded to and
downloaded from that counterparty, plus the last time the counterparty was
seen.  The paper's security argument rests on this ledger being local and
unforgeable-by-others: the maxflow toward the evaluating peer *i* is always
constrained by *i*'s incoming edges, and those come exclusively from *i*'s
own private history.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Dict, Hashable, Iterator, List, Tuple

__all__ = ["TransferTotals", "PrivateHistory"]

PeerId = Hashable


@dataclass
class TransferTotals:
    """Aggregated transfer totals with one counterparty.

    Attributes
    ----------
    uploaded:
        Total bytes the ledger owner uploaded *to* the counterparty.
    downloaded:
        Total bytes the ledger owner downloaded *from* the counterparty.
    last_seen:
        Simulated time (seconds) of the most recent interaction.
    """

    uploaded: float = 0.0
    downloaded: float = 0.0
    last_seen: float = 0.0

    @property
    def net(self) -> float:
        """Uploaded minus downloaded (positive: owner gave more)."""
        return self.uploaded - self.downloaded


class PrivateHistory:
    """A peer's own record of its data exchanges.

    Mutations go through :meth:`record_upload` / :meth:`record_download` /
    :meth:`touch`; reads expose per-peer totals and the two selections the
    BarterCast message protocol needs (top uploaders to the owner, most
    recently seen peers).

    Both selections are kept sorted on write, so a message reads them as
    slices.  Each order holds one ``(-value, repr(peer), seq, peer)`` entry
    per peer.  ``seq``, the peer's creation index, breaks ties on
    ``(-value, repr(peer))`` in creation order, the order a stable sort of
    the ledger would give, and keeps comparisons from reaching ``peer``
    (ids of mixed types need not be orderable).  An entry moves only when
    its value changes.

    Parameters
    ----------
    owner:
        Identifier of the peer this ledger belongs to.
    """

    def __init__(self, owner: PeerId) -> None:
        self.owner = owner
        self._records: Dict[PeerId, TransferTotals] = {}
        # peer -> (repr(peer), creation seq, peer): the sort-key tail.
        self._tie: Dict[PeerId, Tuple[str, int, PeerId]] = {}
        self._by_download: List[tuple] = []
        self._by_recency: List[tuple] = []
        self._total_up = 0.0
        self._total_down = 0.0

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def record_upload(self, peer: PeerId, nbytes: float, now: float) -> None:
        """Record that the owner uploaded ``nbytes`` to ``peer`` at ``now``."""
        self._validate(peer, nbytes)
        rec = self._get_or_create(peer)
        rec.uploaded += float(nbytes)
        self._see(peer, rec, float(now))
        self._total_up += float(nbytes)

    def record_download(self, peer: PeerId, nbytes: float, now: float) -> None:
        """Record that the owner downloaded ``nbytes`` from ``peer`` at ``now``."""
        self._validate(peer, nbytes)
        rec = self._get_or_create(peer)
        old = rec.downloaded
        rec.downloaded = old + float(nbytes)
        if rec.downloaded != old:
            _move(self._by_download, self._tie[peer], -old, -rec.downloaded)
        self._see(peer, rec, float(now))
        self._total_down += float(nbytes)

    def touch(self, peer: PeerId, now: float) -> None:
        """Record an interaction with ``peer`` (e.g. a gossip exchange)
        without any transfer, so it counts as "recently seen"."""
        if peer == self.owner:
            raise ValueError("a peer cannot interact with itself")
        self._see(peer, self._get_or_create(peer), float(now))

    def _see(self, peer: PeerId, rec: TransferTotals, now: float) -> None:
        old = rec.last_seen
        if now > old:
            rec.last_seen = now
            _move(self._by_recency, self._tie[peer], -old, -now)

    def _validate(self, peer: PeerId, nbytes: float) -> None:
        if peer == self.owner:
            raise ValueError("a peer cannot transfer data with itself")
        if nbytes < 0:
            raise ValueError(f"transfer size must be non-negative, got {nbytes}")

    def _get_or_create(self, peer: PeerId) -> TransferTotals:
        rec = self._records.get(peer)
        if rec is None:
            rec = TransferTotals()
            self._records[peer] = rec
            tie = (repr(peer), len(self._tie), peer)
            self._tie[peer] = tie
            insort(self._by_download, (-0.0,) + tie)
            insort(self._by_recency, (-0.0,) + tie)
        return rec

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def get(self, peer: PeerId) -> TransferTotals:
        """Totals with ``peer`` (zeros if never interacted).

        The returned object is a copy; mutating it does not affect the
        ledger.
        """
        rec = self._records.get(peer)
        if rec is None:
            return TransferTotals()
        return TransferTotals(rec.uploaded, rec.downloaded, rec.last_seen)

    def __getitem__(self, peer: PeerId) -> TransferTotals:
        """Live totals with a known ``peer`` (do not mutate; raises
        ``KeyError`` for a stranger).  Use :meth:`get` for a copy."""
        return self._records[peer]

    def __contains__(self, peer: PeerId) -> bool:
        return peer in self._records

    def __len__(self) -> int:
        return len(self._records)

    def peers(self) -> Iterator[PeerId]:
        """Iterate over all counterparties."""
        return iter(self._records)

    def items(self) -> Iterator[Tuple[PeerId, TransferTotals]]:
        """Iterate over ``(peer, totals)`` pairs (live objects, do not mutate)."""
        return iter(self._records.items())

    @property
    def total_uploaded(self) -> float:
        """Total bytes uploaded to all counterparties."""
        return self._total_up

    @property
    def total_downloaded(self) -> float:
        """Total bytes downloaded from all counterparties."""
        return self._total_down

    @property
    def net_contribution(self) -> float:
        """Total uploaded minus total downloaded (the paper's x-axis in
        Figure 1(b), there measured on *real* behaviour)."""
        return self._total_up - self._total_down

    # ------------------------------------------------------------------
    # Message-protocol selections
    # ------------------------------------------------------------------
    def top_uploaders(self, n: int) -> List[PeerId]:
        """The ``n`` peers with the highest upload *to the owner*.

        Ties are broken deterministically by peer id representation (then
        creation order) so the protocol is reproducible across runs.
        """
        if n <= 0:
            return []
        return [e[3] for e in self._by_download[:n] if e[0] < 0.0]

    def most_recent(self, n: int) -> List[PeerId]:
        """The ``n`` most recently seen peers (newest first)."""
        if n <= 0:
            return []
        return [e[3] for e in self._by_recency[:n]]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PrivateHistory owner={self.owner!r} peers={len(self._records)} "
            f"up={self._total_up:.0f} down={self._total_down:.0f}>"
        )


def _move(order: List[tuple], tie: Tuple[str, int, PeerId], old: float, new: float) -> None:
    """Re-key one peer's entry in a sorted selection order."""
    del order[bisect_left(order, (old,) + tie)]
    insort(order, (new,) + tie)
