"""Property-based tests for the lock manager."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.db.locks import DB_RESOURCE, LockManager, LockMode, _conflicting

RESOURCES = ["a", "b", "c", DB_RESOURCE]
TXNS = ["T1", "T2", "T3", "T4"]

operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("request"),
            st.sampled_from(TXNS),
            st.sampled_from(RESOURCES),
            st.sampled_from([LockMode.SHARED, LockMode.EXCLUSIVE]),
        ),
        st.tuples(st.just("release"), st.sampled_from(TXNS)),
        st.tuples(st.just("cancel"), st.sampled_from(TXNS)),
    ),
    min_size=1,
    max_size=40,
)


def overlap(a: str, b: str) -> bool:
    return a == b or DB_RESOURCE in (a, b)


def assert_invariants(lm: LockManager) -> None:
    # 1. No two conflicting holders on overlapping resources.
    holders = [
        (resource, txn, mode)
        for resource, holder_map in lm._holders.items()
        for txn, mode in holder_map.items()
    ]
    for i, (r1, t1, m1) in enumerate(holders):
        for r2, t2, m2 in holders[i + 1:]:
            if t1 != t2 and overlap(r1, r2):
                assert not _conflicting(m1, m2), f"conflicting grant: {t1}/{r1} vs {t2}/{r2}"
    # 2. Every waiting request is genuinely blocked.
    for request in lm.waiting_requests():
        assert lm.waiting_for(request), f"{request} waits but nothing blocks it"


@given(operations)
@settings(max_examples=200, deadline=None)
def test_never_conflicting_holders(ops):
    lm = LockManager()
    for op in ops:
        if op[0] == "request":
            _, txn, resource, mode = op
            lm.request(txn, resource, mode)
        elif op[0] == "release":
            lm.release(op[1])
        else:
            lm.cancel(op[1])
        assert_invariants(lm)


@given(operations)
@settings(max_examples=200, deadline=None)
def test_shared_grantable_is_what_a_fresh_shared_request_gets(ops):
    """The predicate a full transfer capture uses to skip a lock agrees,
    after any history, with the grant a new transaction's shared request
    on each object would get."""
    lm = LockManager()
    for op in ops:
        if op[0] == "request":
            lm.request(*op[1:])
        else:
            getattr(lm, op[0])(op[1])
    for resource in RESOURCES[:-1]:
        predicted = lm.shared_grantable(resource)
        probe = lm.request("fresh", resource, LockMode.SHARED)
        assert predicted == probe.granted, (resource, lm._holders, lm.waiting_requests())
        lm.cancel("fresh")


@given(operations)
@settings(max_examples=100, deadline=None)
def test_release_all_drains_everything(ops):
    lm = LockManager()
    for op in ops:
        if op[0] == "request":
            _, txn, resource, mode = op
            lm.request(txn, resource, mode)
        elif op[0] == "release":
            lm.release(op[1])
        else:
            lm.cancel(op[1])
    for txn in TXNS:
        lm.cancel(txn)
    assert not lm._holders
    assert not lm.waiting_requests()


@given(st.integers(min_value=1, max_value=12))
@settings(max_examples=30, deadline=None)
def test_fifo_writers_granted_in_order(n):
    """n exclusive requests on one object are granted in request order."""
    lm = LockManager()
    grant_order = []
    for i in range(n):
        lm.request(f"T{i}", "x", LockMode.EXCLUSIVE,
                   lambda req: grant_order.append(req.txn_id))
    for i in range(n):
        lm.release(f"T{i}")
    assert grant_order == [f"T{i}" for i in range(n)]
