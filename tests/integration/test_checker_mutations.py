"""One killing mutation per checker (and per monitor).

A checker that cannot fail verifies nothing.  For each of the nine
checkers :func:`repro.checkers.run_all_checks` runs there is a row in
``KILLS``: a mutation of a real run — one monkeypatched method at one
site (``tests/mutations.py``) or one crash-time storage fault installed
through the production seam ``cluster.install_storage_faults`` — after
which that checker, called directly on the run's history and nodes,
raises.  The same run without the mutation passes the whole battery, so
it is the mutation that kills.  ``test_every_checker_has_a_killing_mutation``
fails when ``run_all_checks`` gains a checker without a row.  A protocol
rule with no checker of its own gets a row too, under its own name: the
majority-ack delivery quorum, one too small, is killed by gid
consistency.

The run-level proofs ride elsewhere, on full campaigns: *no dedup* on a
client-mode chaos storm (``test_client_failover``), *one site skips the
outcome merge* on an endurance run and under the schedule search
(``test_endurance``, ``test_search``), *second run re-seeded* on the
determinism audit (``test_parallel_and_audit``).
"""

import inspect
import re
from dataclasses import replace

import pytest

from repro import LoadGenerator, WorkloadConfig, checkers
from repro.checkers import ConsistencyViolation, run_all_checks
from repro.db.database import Database
from repro.db.wal import WriteRecord
from repro.gcs.member import GroupMember
from repro.gcs.messages import OrderedBatch
from repro.gcs.view import View
from repro.replication.messages import RequestId
from repro.replication.node import ReplicatedDatabaseNode, SiteStatus
from tests import mutations
from tests.conftest import DropMessages, quick_cluster
from tests.integration.test_creation_protocol import total_failure_under_load


# ----------------------------------------------------------------------
# The runs: a loaded 3-site cluster whose S3 crashes and rejoins
# ----------------------------------------------------------------------
def crash_and_rejoin(cluster, load_through_the_crash=True):
    """0.4 s of load, S3 down for 0.6 s (long enough for the survivors
    to install a view without it), back, 1.5 s to rejoin.  A
    mutated cluster may never quiesce, so nothing here waits on a
    condition: the script is fixed virtual durations."""
    load = LoadGenerator(cluster, WorkloadConfig(
        arrival_rate=300.0, reads_per_txn=2, writes_per_txn=2))
    load.start()
    cluster.run_for(0.4)
    if not load_through_the_crash:
        load.stop()
        cluster.settle(0.3)
    cluster.crash("S3")
    cluster.run_for(0.6)
    cluster.recover("S3")
    cluster.run_for(1.5)
    load.stop()
    cluster.settle(0.5)


def crash_the_sequencer_at_its_commit(cluster):
    """Under load, S3 restarts (so the view it rejoins is built after a
    mutation applied at boot); then S1's batches stop reaching S2 and S3
    (its retransmission push still does), S1 submits m and crashes the
    moment m commits there, and rejoins.  With the right quorum S1
    commits m only once S2 acked it, so S2 carries m into the next view."""
    load = LoadGenerator(cluster, WorkloadConfig(
        arrival_rate=300.0, reads_per_txn=2, writes_per_txn=2))
    load.start()
    cluster.run_for(0.2)
    cluster.crash("S3")
    cluster.run_for(0.4)
    cluster.recover("S3")
    assert cluster.await_all_active(timeout=5)
    cut = cluster.add_injector(DropMessages(
        {("S1", "S2"): (OrderedBatch,), ("S1", "S3"): (OrderedBatch,)}))
    m = cluster.submit_via("S1", [], {"obj0": "m"})
    cluster.await_condition(lambda: m.done, timeout=1.0, step=0.0001)
    cluster.crash("S1")
    cluster.remove_injector(cut)
    cluster.run_for(0.6)
    cluster.recover("S1")
    cluster.run_for(1.5)
    load.stop()
    cluster.settle(0.5)


def resubmit_one_request(cluster):
    """A client request and its failover resubmission, both through S1."""
    node = cluster.nodes["S1"]
    for attempt in (1, 2):
        node.submit(["obj0"], {"obj1": attempt},
                    request=RequestId("CX", 1, attempt))
        cluster.settle(0.5)


# ----------------------------------------------------------------------
# The mutations: ``mutate(monkeypatch, cluster)``, applied after boot
# ----------------------------------------------------------------------
def db_of(cluster, site):
    """Identity predicate for ``site``'s current Database (``recover()``
    builds a new one, hence the lookup per call)."""
    return lambda db: db is cluster.nodes[site].db


def delivers_another_message(monkeypatch, cluster):
    """Delivery: S2 processes each gid with a write-set of its own."""
    def deliver(real, node, gid, message):
        forged = tuple((obj, "forged") for obj, _value in message.write_set)
        real(node, gid, replace(message, write_set=forged))

    mutations.patch_where(monkeypatch, ReplicatedDatabaseNode,
                          "process_delivered", mutations.at_site("S2"), deliver)


def emits_every_commit_twice(monkeypatch, cluster):
    """Commit emission: S2 reports each termination twice."""
    def emit(real, node, kind, gid, message):
        real(node, kind, gid, message)
        real(node, kind, gid, message)

    mutations.patch_where(monkeypatch, ReplicatedDatabaseNode, "_emit",
                          mutations.at_site("S2"), emit)


def version_check_answers(verdict):
    """Certification: S2's version check says ``verdict`` to everything."""
    def mutate(monkeypatch, cluster):
        mutations.patch_where(monkeypatch, Database, "version_check",
                              db_of(cluster, "S2"),
                              lambda real, db, reads: verdict)
    return mutate


def installs_a_view_with_the_dead_member(monkeypatch, cluster):
    """View installation: S2 keeps S3 in the view that excludes it."""
    def install(real, member, view, *args, **kwargs):
        if "S3" not in view.members:
            view = View(view.view_id, view.members + ("S3",))
        real(member, view, *args, **kwargs)

    mutations.patch_where(monkeypatch, GroupMember, "install_view",
                          lambda member: member.node_id == "S2", install)


def applies_another_value(monkeypatch, cluster):
    """Apply: S2 installs every write at the right version, wrong value."""
    mutations.patch_where(
        monkeypatch, Database, "apply_write", db_of(cluster, "S2"),
        lambda real, db, gid, obj, value: real(db, gid, obj, ("bitrot", value)))


class LosesADurableWrite:
    """Crash-time WAL: the crash eats the newest durable write record
    but keeps its commit record — a hole *inside* the flushed prefix,
    which the torn-tail model never makes.  Recovery redoes a commit
    with a write missing, computes a cover that includes it, and the
    transfer (objects changed *after* the cover) never resends it."""

    def on_crash(self, storage, rng) -> int:
        for index in reversed(range(storage.durable_length)):
            if isinstance(storage.log[index], WriteRecord):
                del storage.log[index], storage._crcs[index:index + 1]
                storage.durable_length -= 1
                return 1
        return 0


def loses_a_durable_write_at_the_crash(monkeypatch, cluster):
    cluster.install_storage_faults(LosesADurableWrite(), sites=["S3"])


def no_dedup(monkeypatch, cluster):
    mutations.no_dedup(monkeypatch)


def call_checker(name, cluster):
    """Call one checker of the battery by name, with the arguments its
    signature asks for."""
    checker = getattr(checkers, name)
    available = {"history": cluster.history, "sessions": (),
                 "nodes": list(cluster.nodes.values())}
    checker(*(available[parameter]
              for parameter in inspect.signature(checker).parameters))


def delivery_quorum_one_too_small(monkeypatch, cluster):
    mutations.delivery_quorum_one_too_small(monkeypatch)


def captures_at_transmit(monkeypatch, cluster):
    mutations.capture_at_transmit(monkeypatch)


#: row -> (checker, run, mutation, what the violation says); a row per
#: checker is named after it.
KILLS = {
    "check_gid_consistency": (
        "check_gid_consistency", crash_and_rejoin, delivers_another_message,
        "bound to two different transactions"),
    "check_processing_order": (
        "check_processing_order", crash_and_rejoin, emits_every_commit_twice,
        r"S2 terminated gid \d+ twice"),
    "check_decision_agreement": (
        "check_decision_agreement", crash_and_rejoin, version_check_answers(False),
        r"commit at one site but abort at S2|abort at one site but commit"),
    "check_one_copy_serializability": (
        "check_one_copy_serializability", crash_and_rejoin, version_check_answers(True),
        "but the serial execution has version"),
    "check_view_synchrony": (
        "check_view_synchrony", crash_and_rejoin, installs_a_view_with_the_dead_member,
        r"installed with members \('S1', 'S2'\) at S1 but "
        r"\('S1', 'S2', 'S3'\) at S2"),
    "check_convergence": (
        "check_convergence", crash_and_rejoin, applies_another_value,
        "replica divergence among up-to-date sites"),
    "check_atomicity_durability": (
        "check_atomicity_durability",
        lambda cluster: crash_and_rejoin(cluster, load_through_the_crash=False),
        loses_a_durable_write_at_the_crash,
        r"S3 has obj\d+ at version -?\d+ < committed writer"),
    "check_installed_state": (
        "check_installed_state", crash_and_rejoin, captures_at_transmit,
        r"S3 installed obj\d+=.* at version \d+ from a transfer bounded at gid \d+"),
    "check_exactly_once": (
        "check_exactly_once", resubmit_one_request, no_dedup,
        "request CX:1 committed under 2 distinct gids"),
    "delivery_quorum_one_too_small": (
        "check_gid_consistency", crash_the_sequencer_at_its_commit,
        delivery_quorum_one_too_small, "bound to two different transactions"),
}


def test_every_checker_has_a_killing_mutation():
    battery = re.findall(r"\b(check_\w+)\(", inspect.getsource(run_all_checks))
    assert len(battery) == 9
    assert {row[0] for row in KILLS.values()} == set(battery)
    assert all(KILLS[name][0] == name for name in battery)


@pytest.mark.parametrize("name", sorted(KILLS))
def test_mutation_kills_its_checker(monkeypatch, name):
    checker, run, mutate, says = KILLS[name]
    # Contended on purpose (12 objects): version-check aborts must occur
    # for a certification mutation to have something to get wrong.
    clean = quick_cluster(db_size=12)
    run(clean)
    run_all_checks(clean.history, list(clean.nodes.values()), sessions=())

    mutated = quick_cluster(db_size=12)
    mutate(monkeypatch, mutated)
    run(mutated)
    with pytest.raises(ConsistencyViolation, match=says):
        call_checker(checker, mutated)


# ----------------------------------------------------------------------
# The activation monitor (tests/monitors.py)
# ----------------------------------------------------------------------
@pytest.mark.usefixtures("activation_monitor")
def test_skipped_replay_step_is_caught_at_the_activation(monkeypatch):
    """*One joiner skips its first replayed gid*: the monitor raises out
    of S3's activation — the clock still on it, the rest of the run not
    yet simulated — instead of leaving it to a final-quiesce checker."""
    # 400 objects: nobody overwrites the skipped write before S3 activates.
    cluster = quick_cluster(db_size=400)
    skipped = mutations.skip_first_replayed_gid(monkeypatch, "S3")
    with pytest.raises(ConsistencyViolation) as caught:
        crash_and_rejoin(cluster)
    node = cluster.nodes["S3"]
    assert skipped and f"committed writer {skipped[0]}" in str(caught.value)
    assert f"S3 activated at t={cluster.sim.now:.4f}" in str(caught.value)
    assert node.status is SiteStatus.ACTIVE and cluster.sim.now < 2.0


@pytest.mark.usefixtures("activation_monitor")
def test_discarding_past_the_marker_is_caught_at_the_activation(monkeypatch):
    """*One site discards past its synchronization point*, on ``vs``:
    S3 drops what is delivered between the creation source's
    announcement and its transfer offer, accepts a baseline older than
    the dropped writes, and the monitor raises out of its activation.
    Unmutated, the run is ``test_total_failure_under_continuous_load[vs-3]``.
    (S2 at seed 3 lost this schedule when the membership decision
    stopped waiting for the maintenance tick; S3 at seed 10, pinned
    then, lost it when a join stopped waiting the 60 ms debounce.  Of
    seeds 0..29, 12 reach it at S3 now.)"""
    cluster = quick_cluster(db_size=50, seed=3)
    markers = mutations.discard_until_the_offer(monkeypatch, "S3")
    with pytest.raises(ConsistencyViolation) as caught:
        total_failure_under_load(cluster)
    holds, writer = map(int, re.search(
        r"version (-?\d+) < committed writer (\d+)", str(caught.value)).groups())
    assert len(markers) == 1 and holds <= markers[0] < writer
    assert f"S3 activated at t={cluster.sim.now:.4f}" in str(caught.value)
