"""Substrate-level batch support and the ready-heap compaction fix.

* ``Mailbox.put_many`` — bulk enqueue, one listener fire, identical
  delivery order to per-message puts.
* ``Scheduler.post_many`` — bulk injection, identical semantics to
  sequential posts.
* Ready-heap compaction — lazy invalidation only pops tombstones at the
  heap top, so repeated reindexing of rarely-picked threads used to grow
  the heap without bound; the scheduler now compacts once tombstones
  outnumber live entries 2:1.
"""

from repro.mbt import Scheduler, VirtualClock
from repro.mbt.mailbox import Mailbox
from repro.mbt.message import Message
from repro.mbt.constraints import Constraint

from tests.mbt.test_scheduler_invariants import pick_ready_linear


def make_message(target="t", kind="data", priority=0):
    return Message(
        kind=kind,
        payload=None,
        sender="test",
        target=target,
        constraint=Constraint(priority=priority) if priority else None,
    )


class TestMailboxPutMany:
    def test_order_matches_sequential_puts(self):
        sequential, bulk = Mailbox(), Mailbox()
        messages = [
            make_message(kind=f"m{i}", priority=p)
            for i, p in enumerate([0, 5, 0, 2, 5, 0])
        ]
        for message in messages:
            sequential.put(message)
        bulk.put_many(list(messages))
        drained_a = [sequential.get().kind for _ in range(len(messages))]
        drained_b = [bulk.get().kind for _ in range(len(messages))]
        assert drained_a == drained_b
        # Urgent constraints overtake, arrival order breaks ties.
        assert drained_a[:2] == ["m1", "m4"]

    def test_single_listener_fire(self):
        mailbox = Mailbox()
        fires = []
        mailbox._listener = lambda: fires.append(1)
        mailbox.put_many([make_message(kind=f"m{i}") for i in range(5)])
        assert len(fires) == 1
        assert len(mailbox) == 5

    def test_empty_run_does_not_fire(self):
        mailbox = Mailbox()
        fires = []
        mailbox._listener = lambda: fires.append(1)
        mailbox.put_many([])
        assert fires == []


class TestPostMany:
    def test_delivers_like_sequential_posts(self):
        sched = Scheduler(clock=VirtualClock())
        received = []

        def code(thread, message):
            received.append(message.kind)

        sched.spawn("worker", code)
        sched.post_many([make_message("worker", f"m{i}") for i in range(4)])
        sched.run()
        assert received == ["m0", "m1", "m2", "m3"]

    def test_unknown_targets_become_dead_letters(self):
        sched = Scheduler(clock=VirtualClock())
        sched.post_many([make_message("ghost", "m")])
        assert len(sched.dead_letters) == 1


class TestReadyHeapCompaction:
    def churn(self, sched, threads, rounds):
        for _ in range(rounds):
            for thread in threads:
                sched._reindex(thread)

    def test_heap_stays_bounded_under_reindex_churn(self):
        sched = Scheduler(clock=VirtualClock())
        threads = []
        for i in range(8):
            thread = sched.spawn(f"t{i}", lambda th, m: None)
            sched.post(make_message(f"t{i}"))
            threads.append(thread)
        self.churn(sched, threads, 500)
        # 8 live entries + at most the compaction slack; without
        # compaction the heap would hold ~4000 entries here.
        assert len(sched._ready_heap) < 300
        assert sched._ready_stale <= len(sched._ready_heap)

    def test_pick_matches_linear_oracle_after_churn(self):
        sched = Scheduler(clock=VirtualClock())
        threads = []
        for i in range(6):
            thread = sched.spawn(
                f"t{i}", lambda th, m: None, priority=i % 3
            )
            sched.post(make_message(f"t{i}", priority=i % 3))
            threads.append(thread)
        self.churn(sched, threads, 200)
        assert sched._pick_ready() is pick_ready_linear(sched)

    def test_compaction_preserves_live_entries(self):
        sched = Scheduler(clock=VirtualClock())
        threads = []
        for i in range(4):
            thread = sched.spawn(f"t{i}", lambda th, m: None)
            sched.post(make_message(f"t{i}"))
            threads.append(thread)
        self.churn(sched, threads, 100)
        sched._compact_ready_heap()
        assert sched._ready_stale == 0
        live = [entry[6] for entry in sched._ready_heap]
        assert sorted(t.name for t in live) == [t.name for t in threads]
        for thread in threads:
            assert thread._heap_entry in sched._ready_heap
        # The scheduler still runs everything to completion afterwards.
        sched.run()
        assert all(not t.mailbox for t in threads)
