"""The churn concurrency limit: how many sites a schedule may take out
of service at once.  Every backend serves from a majority, so the limit
is ``n - (n // 2 + 1)``, floored at one so a gene always has a victim."""

import pytest

from repro.reconfig.backends import ALL_BACKEND_NAMES
from repro.search.genome import SearchSpace, concurrency_limit


class TestBackendQuorum:
    def test_majority_for_all_registered_backends(self):
        # Sites that must stay connected = n - limit: a strict majority.
        for n_sites in range(3, 10):
            assert n_sites - concurrency_limit(n_sites) == n_sites // 2 + 1


class TestConcurrencyLimit:
    def test_five_site_majority_allows_two_down(self):
        assert concurrency_limit(5) == 2

    def test_even_cluster_is_tighter_than_odd(self):
        # 4 sites: majority is 3, so only one may churn — the boundary
        # the storm composers historically hard-coded.
        assert concurrency_limit(4) == 1

    def test_quorum_boundary_small_clusters(self):
        # Below three sites no site may go without losing the majority,
        # but a gene still names one victim.
        assert concurrency_limit(1) == 1
        assert concurrency_limit(2) == 1
        assert concurrency_limit(3) == 1

    def test_per_backend_limits_agree_today(self):
        # The limit does not depend on the backend; a future
        # non-majority backend must come with its own rule and tests.
        for mode in ALL_BACKEND_NAMES:
            assert SearchSpace(n_sites=5, mode=mode).concurrency_limit() == 2

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            concurrency_limit(0)
