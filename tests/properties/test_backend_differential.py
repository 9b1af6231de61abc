"""Property-based cross-backend differential: random small schedules of
faults and writes, replayed on every reconfiguration backend, must end
in the *same* committed store — and each run must satisfy the full
invariant battery plus the exactly-once ledger.

Where ``repro chaos --mode evs,logless`` compares invariant *verdicts*
under the chaos engine (whose armed-crash strike timing makes commit counts
backend-sensitive), this suite is constructed to be timing-insensitive
so strict state equality is a fair claim:

* all faults hit S4/S5 only — the majority {S1, S2, S3} never loses
  quorum, so every submitted write eventually commits on any backend;
* writes go to distinct keys from the stable site S1, so the final
  store is the set of committed writes, independent of interleaving
  with backend-specific reconfiguration traffic (membership log
  entries under vs/evs, ConfigChange messages under logless).  The
  *values* must agree exactly; commit gids legitimately differ because
  each backend's coordination traffic consumes different gseq slots;
* every write carries a durable RequestId, and one request is
  deterministically resubmitted, so the dedup/outcome table is
  exercised on every backend too.
"""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro import ClusterBuilder
from repro.checkers import check_exactly_once
from repro.replication.messages import RequestId

FAULT_SITES = ("S4", "S5")

#: One schedule step.  Guards in ``apply_schedule`` make any generated
#: sequence legal (no double-crash, no partition while a site is down),
#: so shrinking stays simple.
_STEP = st.one_of(
    st.just(("write",)),
    st.tuples(st.just("crash"), st.sampled_from(FAULT_SITES)),
    st.tuples(st.just("recover"), st.sampled_from(FAULT_SITES)),
    st.just(("partition",)),
    st.just(("heal",)),
)

SCHEDULES = st.lists(_STEP, min_size=2, max_size=8)


def apply_schedule(backend, steps):
    """Run one schedule on one backend; return the converged store digest."""
    cluster = ClusterBuilder(n_sites=5, db_size=30, seed=7,
                             strategy="rectable", mode=backend).build()
    cluster.start()
    assert cluster.await_all_active(timeout=15), f"{backend}: bootstrap failed"

    down = {site: False for site in FAULT_SITES}
    partitioned = False
    seq = 0
    source = cluster.nodes["S1"]
    for step in steps:
        kind = step[0]
        if kind == "crash":
            site = step[1]
            if not down[site] and not partitioned:
                cluster.crash(site)
                down[site] = True
        elif kind == "recover":
            site = step[1]
            if down[site]:
                cluster.recover(site)
                down[site] = False
        elif kind == "partition":
            if not partitioned and not any(down.values()):
                cluster.partition([["S1", "S2", "S3"], list(FAULT_SITES)])
                partitioned = True
        elif kind == "heal":
            if partitioned:
                cluster.heal()
                partitioned = False
        else:  # write
            seq += 1
            source.submit([], {f"k{seq}": f"v{seq}"},
                          request=RequestId("CH", seq, 1))
        cluster.run_for(0.25)

    if seq:
        # Deterministic failover resubmission of the last request: the
        # replicated outcome table must answer it from the original
        # commit, never apply the divergent write-set.
        cluster.settle(0.5)
        source.submit([], {f"k{seq}": "duplicate"},
                      request=RequestId("CH", seq, 2))

    if partitioned:
        cluster.heal()
    for site, is_down in down.items():
        if is_down:
            cluster.recover(site)
    assert cluster.await_all_active(timeout=60), f"{backend}: never re-converged"
    cluster.settle(1.5)

    cluster.check()  # the full invariant battery
    check_exactly_once(cluster.history, [])

    digests = {site: cluster.nodes[site].db.store.content_digest()
               for site in cluster.universe}
    assert len(set(digests.values())) == 1, f"{backend}: replicas diverged"
    # Every surviving write must be the original attempt's value.
    for i in range(1, seq + 1):
        assert cluster.nodes["S1"].db.store.value(f"k{i}") == f"v{i}"
    # The cross-backend claim is about committed *values*: commit gids
    # are backend-relative (coordination traffic consumes gseq slots).
    return tuple((obj, value) for obj, value, _ in digests["S1"])


@given(steps=SCHEDULES)
@settings(max_examples=8, deadline=None,
          suppress_health_check=list(HealthCheck))
def test_backends_reach_identical_state(steps):
    digests = {backend: apply_schedule(backend, steps)
               for backend in ("evs", "logless")}
    assert len(set(digests.values())) == 1, (
        f"backends disagree on the final committed store: {digests}")


@given(steps=SCHEDULES)
@settings(max_examples=4, deadline=None,
          suppress_health_check=list(HealthCheck))
def test_logless_matches_plain_vs(steps):
    """The logless backend runs the same vs-mode GCS layer underneath;
    its committed state must match plain vs exactly as well."""
    assert apply_schedule("vs", steps) == apply_schedule("logless", steps)
