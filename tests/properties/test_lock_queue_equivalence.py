"""Differential test: the resource-indexed wait queues of
``repro.db.locks.LockManager`` against the flat-list manager they replaced
(``flat_lock_manager.py``, the executable specification).

Both managers are driven with the same generated operation sequence and
must agree, after every operation, on the grant *sequence*, the counters
(``conflicts``, ``max_waiting``, one ``wait_times`` entry per grant that
had to wait), the holders, and the waiters and their blockers.
That pins what the index must not change: simultaneously eligible waiters
are granted in enqueue order (not ticket order: ``inherit_ticket`` makes
the two differ), fairness stays on the ticket, and a grant handler that
requests, releases or cancels sees the same nested pump.
"""

import hypothesis.strategies as st
from hypothesis import example, given, settings

from repro.db import locks as indexed

from tests.properties import flat_lock_manager as flat

OBJECTS = ["a", "b", "c", "d"]
RESOURCES = OBJECTS + [indexed.DB_RESOURCE]
TXNS = ["T1", "T2", "T3", "T4", "T5"]


class Driver:
    """One lock manager plus everything observable about it."""

    def __init__(self, module):
        self.module = module
        self.now = 0.0
        self.locks = module.LockManager(clock=lambda: self.now)
        self.requests = []
        self.granted = []

    def apply(self, op):
        kind = op[0]
        if kind == "request":
            _, txn, resource, exclusive, inherit, on_grant_ops = op
            mode = self.module.LockMode.EXCLUSIVE if exclusive else self.module.LockMode.SHARED
            ticket = None
            if inherit is not None and self.requests:
                ticket = self.requests[inherit % len(self.requests)].ticket

            def on_grant(request):
                self.granted.append(_describe(request))
                for nested in on_grant_ops:
                    self.apply(nested)

            self.requests.append(
                self.locks.request(txn, resource, mode, on_grant, inherit_ticket=ticket)
            )
        elif kind == "release":
            self.locks.release(op[1], op[2])
        else:
            self.locks.cancel(op[1])

    def step(self, op):
        self.now += 0.25
        self.apply(op)
        locks = self.locks
        return {
            "granted": list(self.granted),
            "counters": (locks.grants, locks.conflicts, locks.max_waiting),
            "holders": {
                r: {txn: mode.value for txn, mode in locks.holders(r).items()}
                for r in RESOURCES
            },
            "waiting": [
                (_describe(r), sorted(locks.waiting_for(r))) for r in locks.waiting_requests()
            ],
            "request_flags": [(r.granted, r.cancelled) for r in self.requests],
            "wait_times": list(locks.wait_times),
        }


def _describe(request):
    return (request.txn_id, request.resource, request.mode.value, request.ticket)


def _ops(on_grant_ops):
    return st.one_of(
        st.tuples(
            st.just("request"),
            st.sampled_from(TXNS),
            st.sampled_from(RESOURCES),
            st.booleans(),
            st.one_of(st.none(), st.none(), st.integers(min_value=0, max_value=50)),
            on_grant_ops,
        ),
        st.tuples(
            st.just("release"),
            st.sampled_from(TXNS),
            st.one_of(st.none(), st.sampled_from(RESOURCES)),
        ),
        st.tuples(st.just("cancel"), st.sampled_from(TXNS)),
    )


# Grant handlers run up to three operations, whose own handlers may run
# up to two more: nested pumps two levels deep.
_leaf_ops = _ops(st.just(()))
_handler_ops = _ops(st.lists(_leaf_ops, max_size=2).map(tuple))
operations = st.lists(_ops(st.lists(_handler_ops, max_size=3).map(tuple)), min_size=1, max_size=40)

# T1 frees "a" and "b" in one release; T3 queued on "a" first with a fresh
# ticket, T5 queued on "b" second with the inherited ticket 0.  Enqueue
# order grants T3 then T5; merging the two queues on ticket would grant T5
# first.
ENQUEUE_ORDER_IS_NOT_TICKET_ORDER = [
    ("request", "T5", "d", False, None, ()),
    ("request", "T1", "a", True, None, ()),
    ("request", "T1", "b", True, None, ()),
    ("request", "T3", "a", True, None, ()),
    ("request", "T5", "b", False, 0, ()),
    ("release", "T1", None),
]

# T1's release makes T2 and T3 eligible on "a"; T2's grant handler frees
# "b" for T5.  The nested pump must still grant T3 (queued earlier, made
# eligible by the *outer* release) before T5.
NESTED_PUMP_SEES_OUTER_RELEASE = [
    ("request", "T1", "a", True, None, ()),
    ("request", "T4", "b", True, None, ()),
    ("request", "T2", "a", False, None, (("release", "T4", "b"),)),
    ("request", "T3", "a", False, None, ()),
    ("request", "T5", "b", True, None, ()),
    ("release", "T1", None),
]

@given(operations)
@example(ENQUEUE_ORDER_IS_NOT_TICKET_ORDER)
@example(NESTED_PUMP_SEES_OUTER_RELEASE)
@settings(max_examples=400, deadline=None)
def test_indexed_queues_match_flat_list(ops):
    reference = Driver(flat)
    subject = Driver(indexed)
    for position, op in enumerate(ops):
        assert subject.step(op) == reference.step(op), f"diverged at op {position}: {op}"


def test_pinned_examples_exercise_what_they_claim():
    driver = Driver(flat)
    for op in ENQUEUE_ORDER_IS_NOT_TICKET_ORDER:
        state = driver.step(op)
    tail = state["granted"][-2:]
    assert [g[0] for g in tail] == ["T3", "T5"]
    assert tail[0][3] > tail[1][3], "the later grant must carry the lower ticket"

    driver = Driver(flat)
    for op in NESTED_PUMP_SEES_OUTER_RELEASE:
        state = driver.step(op)
    assert [g[0] for g in state["granted"][-3:]] == ["T2", "T3", "T5"]
