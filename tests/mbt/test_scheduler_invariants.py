"""Model-based invariants of the indexed ready queue.

The scheduler keeps a lazily-invalidated heap of ready threads; the
original O(n) linear scan survives here as :func:`pick_ready_linear` /
:func:`exists_more_urgent_ready_linear` precisely so this test can hold
the two implementations against each other: under randomized workloads mixing
constrained messages, synchronous calls (priority donations), timed
receives and preemptible simulated work, every dispatch decision and every
preemption check must agree with the reference scan.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mbt import Constraint, Message, Scheduler, VirtualClock
from repro.mbt.syscalls import CONTINUE, Call, Receive, Reply, Send, Work

N_WORKERS = 3


def pick_ready_linear(sched):
    """The original O(n) scan; must pick exactly what the heap picks."""
    if sched.choice_hook is not None:
        return sched._pick_ready_hooked()
    best = None
    best_key = None
    for thread in sched.threads.values():
        if not thread.is_ready():
            continue
        sort_key = thread.effective_sort_key()
        tenant = thread._tenant
        key = (
            sort_key[0],
            tenant.vtime if tenant is not None else 0.0,
            sort_key[1],
            thread._last_ran,
            thread._index,
        )
        if best_key is None or key < best_key:
            best, best_key = thread, key
    return best


def _fair_key_linear(thread):
    sort_key = thread.effective_sort_key()
    tenant = thread._tenant
    return (
        sort_key[0],
        tenant.vtime if tenant is not None else 0.0,
        sort_key[1],
    )


def exists_more_urgent_ready_linear(sched, current):
    current_key = _fair_key_linear(current)
    for thread in sched.threads.values():
        if thread is current or not thread.is_ready():
            continue
        if _fair_key_linear(thread) < current_key:
            return True
    return False


class CheckedScheduler(Scheduler):
    """Asserts heap/linear agreement at every scheduling decision."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.pick_checks = 0
        self.preempt_checks = 0

    def _run_thread(self, thread):
        assert self._pick_ready() is pick_ready_linear(self), (
            "indexed ready queue and linear scan disagree on the next thread"
        )
        self.pick_checks += 1
        super()._run_thread(thread)

    def _preempt_if_needed(self, thread):
        fast = self._exists_more_urgent_ready(thread)
        slow = exists_more_urgent_ready_linear(self, thread)
        assert fast == slow, (
            "indexed ready queue and linear scan disagree on preemption"
        )
        self.preempt_checks += 1
        return super()._preempt_if_needed(thread)


def _constraint(priority):
    return None if priority is None else Constraint(priority=priority)


def _worker(index):
    """A code function whose behaviour is scripted by the message payload."""

    def code(thread, message):
        if message.kind == "rpc":
            yield Reply(message, "ok")
            return CONTINUE
        for action in message.payload or ():
            op = action[0]
            if op == "work":
                yield Work(action[1])
            elif op == "send":
                target = f"w{action[1]}"
                yield Send(
                    Message(
                        kind="job",
                        target=target,
                        payload=[],
                        constraint=_constraint(action[2]),
                    )
                )
            elif op == "recv":
                # Nothing ever matches: exercises the timed-wakeup path.
                yield Receive(
                    match=lambda m: m.kind == "never-sent",
                    timeout=action[1],
                )
            elif op == "call":
                target = action[1]
                if target != index:  # calling yourself would deadlock
                    yield Call(target=f"w{target}", kind="rpc")
        return CONTINUE

    return code


_actions = st.lists(
    st.one_of(
        st.tuples(
            st.just("work"),
            st.floats(min_value=0.001, max_value=0.05, allow_nan=False),
        ),
        st.tuples(
            st.just("send"),
            st.integers(min_value=0, max_value=N_WORKERS - 1),
            st.one_of(st.none(), st.integers(min_value=0, max_value=9)),
        ),
        st.tuples(
            st.just("recv"),
            st.floats(min_value=0.001, max_value=0.05, allow_nan=False),
        ),
        st.tuples(
            st.just("call"),
            st.integers(min_value=0, max_value=N_WORKERS - 1),
        ),
    ),
    max_size=4,
)

_jobs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=N_WORKERS - 1),  # target worker
        st.one_of(st.none(), st.integers(min_value=0, max_value=9)),
        _actions,
    ),
    min_size=1,
    max_size=8,
)

_priorities = st.tuples(
    *[st.integers(min_value=0, max_value=9) for _ in range(N_WORKERS)]
)


@settings(max_examples=60, deadline=None)
@given(priorities=_priorities, jobs=_jobs)
def test_heap_matches_linear_scan_under_random_workloads(priorities, jobs):
    sched = CheckedScheduler(clock=VirtualClock())
    for i in range(N_WORKERS):
        sched.spawn(f"w{i}", _worker(i), priority=priorities[i])
    for target, priority, actions in jobs:
        sched.post(
            Message(
                kind="job",
                target=f"w{target}",
                payload=actions,
                constraint=_constraint(priority),
            )
        )
    # Mutually-blocked Calls can leave threads parked forever; the step
    # bound keeps pathological examples finite, the invariant assertions
    # inside CheckedScheduler are the actual test.
    sched.run_until_idle(max_steps=2000)
    assert sched.pick_checks > 0


@settings(max_examples=30, deadline=None)
@given(jobs=_jobs)
def test_donations_and_timeouts_keep_index_consistent(jobs):
    """Same invariant with all workers at equal priority, where ordering
    is decided purely by constraints, donations and arrival order."""
    sched = CheckedScheduler(clock=VirtualClock())
    for i in range(N_WORKERS):
        sched.spawn(f"w{i}", _worker(i), priority=0)
    for target, priority, actions in jobs:
        sched.post(
            Message(
                kind="job",
                target=f"w{target}",
                payload=[("call", (target + 1) % N_WORKERS), *actions],
                constraint=_constraint(priority),
            )
        )
    sched.run_until_idle(max_steps=2000)
    assert sched.pick_checks > 0
