"""End-to-end client sessions with exactly-once failover semantics.

The paper's reconfiguration is *online* — sites crash, recover and merge
while transaction processing continues — but that guarantee only reaches
the end user if clients actually survive the loss of their contact site.
This package provides that client side: durable request ids, response
timeouts with exponential backoff, fail-over to another ACTIVE site, and
resolution of the in-doubt crash window through the replicated outcome
table (see ``docs/CLIENTS.md``).
"""

from repro.client.session import (
    ClientFleet,
    ClientSession,
    RequestRecord,
    RequestState,
)

__all__ = [
    "ClientFleet",
    "ClientSession",
    "RequestRecord",
    "RequestState",
]
