"""Integration: uniform delivery vs plain reliable delivery (section 2.3).

"With weaker forms of message delivery (e.g., reliable delivery),
transaction atomicity can be violated: a failed site might have
committed a transaction shortly before the failure even though the
message was not delivered at the sites that continue in a primary view."

These tests construct exactly that interleaving and show that uniform
(safe) delivery prevents it — the basis of ablation benchmark E9c.
"""

import pytest

from repro import ClusterBuilder, LoadGenerator, NodeConfig, WorkloadConfig
from repro.gcs.config import GCSConfig
from repro.gcs.messages import Ack, Ordered, OrderedBatch
from repro.replication.node import SiteStatus
from tests.conftest import DropMessages


def build(uniform: bool, seed=3):
    gcs = GCSConfig(uniform=uniform)
    # Instant writes so the origin can commit before others hear anything.
    node_config = NodeConfig(write_op_time=0.0)
    cluster = ClusterBuilder(n_sites=3, db_size=10, seed=seed, strategy="version_check",
                             gcs_config=gcs, node_config=node_config).build()
    cluster.start()
    assert cluster.await_all_active(timeout=10)
    return cluster


def run_interleaving(cluster):
    """Submit at the sequencer (S1) and immediately isolate it, so the
    ORDERED message never reaches S2/S3."""
    txn = cluster.submit_via("S1", [], {"obj0": "phantom"})
    # Give S1 (origin = sequencer) a moment shorter than one network hop:
    # it can self-deliver instantly; nobody else can have received it.
    cluster.partition([["S1"], ["S2", "S3"]])
    cluster.run_for(0.0005)
    cluster.run_for(3.0)
    return txn


class TestUniformDelivery:
    def test_uniform_prevents_premature_commit(self):
        cluster = build(uniform=True)
        txn = run_interleaving(cluster)
        # Under safe delivery S1 cannot deliver without S2/S3's acks, so
        # the transaction never commits at the isolated site.
        assert not txn.committed
        s1_commits = set(cluster.history.commits_of("S1"))
        majority_commits = set(cluster.history.commits_of("S2"))
        assert s1_commits <= majority_commits

    def test_non_uniform_allows_atomicity_violation(self):
        cluster = build(uniform=False)
        txn = run_interleaving(cluster)
        # Plain reliable delivery: the sequencer delivered to itself and
        # committed, but the surviving primary never saw the message.
        assert txn.committed
        assert "obj0" in [o for o, _ in txn.writes.items()]
        assert cluster.nodes["S1"].db.store.value("obj0") == "phantom"
        assert cluster.nodes["S2"].db.store.value("obj0") == 0  # never heard of it

    def test_violation_counted_by_checker_inputs(self):
        """The anomaly is visible as a commit event present only at the
        isolated site — the measurement E9c reports."""
        cluster = build(uniform=False)
        txn = run_interleaving(cluster)
        assert txn.gid is not None
        committed_at = {e.site for e in cluster.history.events
                        if e.kind == "commit" and e.gid == txn.gid}
        assert committed_at == {"S1"}

    def test_uniform_is_the_default(self):
        assert GCSConfig().uniform is True


def commit_on_a_quorum_then_crash(cluster):
    """Under load, S2 commits m on the quorum {S1, S2} while S3 is cut
    off from S1's total-order traffic and S2's acks never reach S1: S1
    (the sequencer) holds m undelivered, S3 never hears of it.  Then S1
    and S2 crash.  Returns m."""
    load = LoadGenerator(cluster, WorkloadConfig(arrival_rate=100.0, reads_per_txn=1,
                                                 writes_per_txn=2))
    load.start()
    cluster.run_for(0.3)
    cut = cluster.add_injector(DropMessages({
        ("S1", "S3"): (OrderedBatch, Ordered, Ack), ("S2", "S1"): (Ack,)}))
    m = cluster.submit_via("S2", [], {"obj0": "m"})
    assert cluster.await_condition(lambda: m.committed, timeout=1, step=0.001)
    assert cluster.nodes["S1"].last_processed_gid < m.gid
    assert all(held.gseq != m.gid
               for held in cluster.nodes["S3"].member.to.received.values())
    cluster.crash("S1")
    cluster.crash("S2")
    cluster.remove_injector(cut)
    return m


class TestQuorumAcrossViews:
    """A primary view delivers on a majority of acks, so the next
    primary view is trusted only if it holds a member of every such
    majority: |V| − q + 1 members flushing straight out of V (the
    direct-member rule).  {S1, S3} after the crash of {S1, S2} holds
    none — S1 restarted, S3 was cut off — so nobody in it is up to date
    and the view waits for the logs instead of reusing m's gid."""

    @pytest.mark.parametrize("first_back", ["S1", "S2"])
    def test_two_crashes_leave_no_up_to_date_member(self, first_back):
        """``S1`` back first: its log stops below m, S3 never saw m, so
        only the direct-member rule keeps {S1, S3} from continuing at
        m's gid (``chaos --seed 30 --mode logless`` bound one gid to two
        transactions that way).  ``S2`` back first: its log holds m, so
        S3 is stale by the gid gap anyway, and {S2, S3} stays suspended
        even with creation_majority on — S2 restarted, so nothing proves
        the two logs hold every commit.  Either way the third site's
        return runs the creation round, which elects S2, m's one log."""
        cluster = ClusterBuilder(n_sites=3, db_size=40, seed=42, strategy="rectable",
                                 node_config=NodeConfig(creation_majority=True)).build()
        cluster.start()
        assert cluster.await_all_active(timeout=10)
        m = commit_on_a_quorum_then_crash(cluster)
        cluster.run_for(0.05)
        cluster.recover(first_back)
        cluster.run_for(1.0)
        pair = cluster.nodes[first_back].member.view.members
        assert pair == tuple(sorted((first_back, "S3")))
        assert [e.site for e in cluster.history.events if e.gid == m.gid] == ["S2"]
        assert all(cluster.nodes[s].status is SiteStatus.SUSPENDED for s in pair)
        assert "S3" in cluster.nodes["S3"].member.stale_members
        cluster.recover("S1" if first_back == "S2" else "S2")
        assert cluster.await_all_active(timeout=30)
        cluster.settle(0.5)
        cluster.check()
        assert all(node.db.store.read("obj0")[1] >= m.gid
                   for node in cluster.nodes.values())
