"""Stateful equivalence test of the incrementally sorted selections.

:class:`PrivateHistory` keeps its top-uploader and most-recent orders
sorted on write.  This drives it through random interleavings of its
mutation API beside a naive dict oracle that re-sorts the whole history
with the original ``sorted(..., key=(-value, repr(peer)))`` rule after
every step, and checks that ``top_uploaders``, ``most_recent`` and
``select_records`` agree for every selection size.

The op pool covers the cases where an incremental order could drift from
the full sort: zero-byte transfers, timestamps equal to or earlier than
``last_seen``, many peers touched at one timestamp (one gossip round),
ids whose ``repr`` order differs from their value order (``2`` vs
``10``, mixed ``str``/``int``), and distinct ids with the same ``repr``.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.history import PrivateHistory
from repro.core.messages import HistoryRecord, select_records


class Twin:
    """Distinct ids sharing one ``repr``: only creation order splits them.
    They compare by identity, so list equality checks which twin it is."""

    def __repr__(self) -> str:
        return "Twin()"


PEERS = [2, 10, "2", "10", 1, "a", "B", Twin(), Twin()]
TIMES = [-1.0, 0.0, 1.0, 2.0, 2.0, 3.0, 7.5]
SIZES = [0, 0.0, 1, 2.0, 10.0, 1e9, 0.5]

peers = st.sampled_from(PEERS)
times = st.sampled_from(TIMES)
sizes = st.sampled_from(SIZES) | st.floats(min_value=0.0, max_value=1e6)


class Oracle:
    """The original ledger: a dict in creation order, sorted per query."""

    def __init__(self) -> None:
        self.rows = {}  # peer -> [uploaded, downloaded, last_seen]

    def _row(self, peer):
        return self.rows.setdefault(peer, [0.0, 0.0, 0.0])

    def upload(self, peer, nbytes, now):
        row = self._row(peer)
        row[0] += float(nbytes)
        row[2] = max(row[2], float(now))

    def download(self, peer, nbytes, now):
        row = self._row(peer)
        row[1] += float(nbytes)
        row[2] = max(row[2], float(now))

    def touch(self, peer, now):
        row = self._row(peer)
        row[2] = max(row[2], float(now))

    def top_uploaders(self, n):
        if n <= 0:
            return []
        ranked = sorted(self.rows.items(), key=lambda kv: (-kv[1][1], repr(kv[0])))
        return [peer for peer, row in ranked[:n] if row[1] > 0]

    def most_recent(self, n):
        if n <= 0:
            return []
        ranked = sorted(self.rows.items(), key=lambda kv: (-kv[1][2], repr(kv[0])))
        return [peer for peer, _ in ranked[:n]]

    def select_records(self, n_highest, n_recent):
        chosen = []
        for peer in self.top_uploaders(n_highest) + self.most_recent(n_recent):
            if peer not in chosen:
                chosen.append(peer)
        return [HistoryRecord(p, self.rows[p][0], self.rows[p][1]) for p in chosen]


class SelectionMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.history = PrivateHistory("me")
        self.oracle = Oracle()

    @rule(peer=peers, nbytes=sizes, now=times)
    def record_upload(self, peer, nbytes, now):
        self.history.record_upload(peer, nbytes, now)
        self.oracle.upload(peer, nbytes, now)

    @rule(peer=peers, nbytes=sizes, now=times)
    def record_download(self, peer, nbytes, now):
        self.history.record_download(peer, nbytes, now)
        self.oracle.download(peer, nbytes, now)

    @rule(peer=peers, now=times)
    def touch(self, peer, now):
        self.history.touch(peer, now)
        self.oracle.touch(peer, now)

    @rule(group=st.lists(peers, min_size=2, max_size=len(PEERS)), now=times)
    def gossip_round(self, group, now):
        for peer in group:
            self.history.touch(peer, now)
            self.oracle.touch(peer, now)

    def _sizes(self):
        return (0, 1, 3, 10, len(self.oracle.rows) + 2)

    @invariant()
    def selections_match_full_sort(self):
        h, o = self.history, self.oracle
        for n in self._sizes():
            assert h.top_uploaders(n) == o.top_uploaders(n)
            assert h.most_recent(n) == o.most_recent(n)

    @invariant()
    def messages_match_full_sort(self):
        for nh in self._sizes():
            for nr in self._sizes():
                want = self.oracle.select_records(nh, nr)
                assert select_records(self.history, nh, nr) == want

    @invariant()
    def totals_match(self):
        assert len(self.history) == len(self.oracle.rows)
        for peer, (up, down, seen) in self.oracle.rows.items():
            t = self.history.get(peer)
            assert (t.uploaded, t.downloaded, t.last_seen) == (up, down, seen)


TestSelectionStateful = SelectionMachine.TestCase
TestSelectionStateful.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)


def test_repr_order_breaks_value_ties():
    h = PrivateHistory("me")
    for peer in (2, 10, "2", "10"):
        h.record_download(peer, 5.0, now=1.0)
    # repr: "'10'" < "'2'" < "10" < "2"
    assert h.top_uploaders(4) == ["10", "2", 10, 2]
    assert h.most_recent(4) == ["10", "2", 10, 2]


def test_equal_repr_ties_keep_creation_order():
    first, second = Twin(), Twin()
    h = PrivateHistory("me")
    h.touch(second, 3.0)
    h.touch(first, 3.0)
    assert h.most_recent(2)[0] is second
    # Re-touching at the same time moves nothing.
    h.touch(first, 3.0)
    assert h.most_recent(2)[0] is second


def test_stale_and_zero_updates_do_not_reorder():
    h = PrivateHistory("me")
    h.record_download("a", 1.0, now=5.0)
    h.record_download("b", 2.0, now=4.0)
    h.record_download("a", 0.0, now=1.0)  # zero bytes, earlier time
    h.record_upload("b", 7.0, now=4.0)  # equal time
    assert h.top_uploaders(2) == ["b", "a"]
    assert h.most_recent(2) == ["a", "b"]
    assert h.get("a").last_seen == 5.0
