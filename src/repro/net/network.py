"""The simulated network: endpoints, unicast, partitions, crashes.

Semantics (matching the paper's system model, section 2.1):

* asynchronous: per-message delay drawn from a latency model;
* unreliable: messages may be lost (`loss_rate`), and messages in flight
  to a crashed or partitioned-away endpoint are dropped at delivery time;
* partitionable: the network is divided into components; messages cross
  component boundaries only after the partition heals;
* crash/recovery: endpoints can be taken down and brought back up.  No
  Byzantine behaviour.

All higher layers (group communication, state transfer) send plain
unicast messages through :meth:`Network.send`; multicast is built above.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.sim.core import Simulator
from repro.net.latency import LatencyModel, UniformLatency

Handler = Callable[[str, Any], None]


def validate_loss_rate(loss_rate: float) -> float:
    """Validate a message loss probability: a finite float in [0, 1).

    1.0 is rejected on purpose — a link that loses *every* message is a
    partition, and should be modelled as one (or as a one-way fault
    injector), not as a loss rate; NaN silently disables loss because
    every comparison against it is False, so it is rejected explicitly.
    """
    if isinstance(loss_rate, bool) or not isinstance(loss_rate, (int, float)):
        raise ValueError(f"loss_rate must be a number, got {loss_rate!r}")
    loss_rate = float(loss_rate)
    if math.isnan(loss_rate):
        raise ValueError("loss_rate must not be NaN")
    if not 0.0 <= loss_rate < 1.0:
        raise ValueError(f"loss_rate must be in [0, 1), got {loss_rate}")
    return loss_rate


class Endpoint:
    """A network attachment point for one node.

    The owning node registers a handler; the endpoint delivers messages to
    it only while `up` is True.  Bytes counters support the benchmarks.
    """

    def __init__(self, network: "Network", node_id: str, index: int) -> None:
        self.network = network
        self.node_id = node_id
        #: Dense creation-order index into the network's flat per-endpoint
        #: arrays (component membership); hot paths use it instead of
        #: hashing the node-id string.
        self.index = index
        #: Precomputed schedule label for coalesced delivery events, so
        #: the send fast path never formats a string.
        self.batch_label = f"net batch ->{node_id}"
        self.up = False
        #: Reliable endpoints model a TCP-like transport (the paper's data
        #: transfer channel): messages between two reliable endpoints are
        #: never randomly lost — though partitions and crashes still
        #: sever them.
        self.reliable = False
        self._handler: Optional[Handler] = None
        self.messages_sent = 0
        self.messages_received = 0

    def attach(self, handler: Handler) -> None:
        self._handler = handler

    def send(self, dst: str, payload: Any) -> None:
        self.network.send(self.node_id, dst, payload)

    def send_many(self, dsts: Iterable[str], payload: Any) -> None:
        self.network.send_multi(self.node_id, dsts, payload)

    def _deliver(self, src: str, payload: Any) -> None:
        if self.up and self._handler is not None:
            self.messages_received += 1
            self._handler(src, payload)


class Network:
    """Central switch connecting all endpoints of a simulation.

    Partitions are modelled as a mapping node -> component id.  Two nodes
    can communicate iff they are in the same component.  ``heal()`` puts
    every node back into one component.
    """

    def __init__(
        self,
        sim: Simulator,
        latency: Optional[LatencyModel] = None,
        loss_rate: float = 0.0,
        coalesce: bool = True,
    ) -> None:
        self.sim = sim
        self.latency = latency or UniformLatency()
        self.loss_rate = validate_loss_rate(loss_rate)
        #: Same-tick delivery coalescing: all messages arriving at one
        #: destination at the same virtual time are delivered by a single
        #: scheduled event (in send order) instead of one event each.
        #: Loss, injector transforms and reachability stay per-message, so
        #: the fault model is unchanged; only the event count drops.
        self.coalesce = coalesce
        self._endpoints: Dict[str, Endpoint] = {}
        #: Endpoints in creation order; ``_eps[ep.index] is ep``.
        self._eps: List[Endpoint] = []
        #: Component id per endpoint index (flat array, not a dict).
        self._component: List[int] = []
        #: Pending coalesced deliveries keyed by (dst index, arrival
        #: time).  Batches are flat interleaved lists
        #: ``[src_ep, payload, src_ep, payload, ...]`` — no per-message
        #: tuple allocation on the send path.
        self._pending_batches: Dict[Tuple[int, float], List[Any]] = {}
        #: Memoized fan-out resolution: destination tuple -> endpoint
        #: tuple.  Safe because endpoints are never removed and liveness/
        #: partition state is read from the endpoints at send time.
        self._fanout: Dict[Tuple[str, ...], Tuple[Endpoint, ...]] = {}
        self.messages_in_flight = 0
        self.messages_dropped = 0
        self.messages_delivered = 0
        self.messages_duplicated = 0
        self.messages_injector_dropped = 0
        self.delivery_batches = 0  # coalesced events that carried > 1 message
        self._taps: List[Callable[[str, str, Any], None]] = []
        #: Pluggable fault injectors (see :mod:`repro.faults.injectors`):
        #: each transforms the planned delivery schedule of a message.
        self._injectors: List[Any] = []

    def set_loss_rate(self, loss_rate: float) -> None:
        """Change the i.i.d. loss probability at runtime (fault injection)."""
        self.loss_rate = validate_loss_rate(loss_rate)

    # ------------------------------------------------------------------
    # Fault injectors
    # ------------------------------------------------------------------
    def add_injector(self, injector: Any) -> Any:
        """Install a fault injector; returns it for later removal."""
        self._injectors.append(injector)
        return injector

    def remove_injector(self, injector: Any) -> None:
        try:
            self._injectors.remove(injector)
        except ValueError:
            pass

    def clear_injectors(self) -> None:
        self._injectors.clear()

    @property
    def injectors(self) -> List[Any]:
        return list(self._injectors)

    # ------------------------------------------------------------------
    # Topology management
    # ------------------------------------------------------------------
    def endpoint(self, node_id: str) -> Endpoint:
        """Create (or return) the endpoint for ``node_id``."""
        ep = self._endpoints.get(node_id)
        if ep is None:
            ep = Endpoint(self, node_id, len(self._eps))
            self._endpoints[node_id] = ep
            self._eps.append(ep)
            self._component.append(0)
        return ep

    def bring_up(self, node_id: str) -> None:
        self.endpoint(node_id).up = True

    def take_down(self, node_id: str) -> None:
        """Crash a node's network presence; in-flight messages to it are lost."""
        self.endpoint(node_id).up = False

    def set_partitions(self, groups: Iterable[Iterable[str]]) -> None:
        """Split the network into the given components.

        Every listed node is assigned the component of its group; nodes not
        listed keep component -1 and become unreachable from everyone (a
        safe default that makes omissions loud in tests).
        """
        assignment: Dict[str, int] = {}
        for index, group in enumerate(groups):
            for node in group:
                if node in assignment:
                    raise ValueError(f"node {node} listed in two partition groups")
                assignment[node] = index
        # Unlisted nodes each get their own singleton component.
        fresh = len(assignment)
        for ep in self._eps:
            if ep.node_id in assignment:
                self._component[ep.index] = assignment[ep.node_id]
            else:
                fresh += 1
                self._component[ep.index] = fresh

    def heal(self) -> None:
        """Merge all components back into one connected network."""
        component = self._component
        for index in range(len(component)):
            component[index] = 0

    def _component_of(self, node_id: str) -> Optional[int]:
        ep = self._endpoints.get(node_id)
        return None if ep is None else self._component[ep.index]

    def reachable(self, a: str, b: str) -> bool:
        if a == b:
            return True
        return self._component_of(a) == self._component_of(b)

    # ------------------------------------------------------------------
    # Message transport
    # ------------------------------------------------------------------
    def send(self, src: str, dst: str, payload: Any) -> None:
        """Unicast ``payload`` from ``src`` to ``dst``.

        Reachability is checked both at send time and at delivery time, so
        a partition or crash occurring while the message is in flight drops
        it — the standard fair-lossy-link model.
        """
        source = self._endpoints.get(src)
        if source is None or not source.up:
            return
        source.messages_sent += 1
        dest = self._endpoints.get(dst)
        component = self._component
        if dest is None or (
            dest is not source and component[source.index] != component[dest.index]
        ):
            self.messages_dropped += 1
            return
        if (
            self.loss_rate > 0.0
            and not (source.reliable and dest.reliable)
            and self.sim.rng.random() < self.loss_rate
        ):
            self.messages_dropped += 1
            return
        delay = self.latency.sample(self.sim.rng)
        if not self._injectors:
            # Hot path: no fault injectors — exactly one delivery.
            self.messages_in_flight += 1
            if delay < 0.0:
                delay = 0.0
            if self.coalesce:
                self._enqueue_delivery(source, dest, delay, payload)
            else:
                self.sim.schedule(delay, self._arrive, src, dst, payload,
                                  label=f"net {src}->{dst}")
            return
        deliveries = [delay]
        for injector in self._injectors:
            deliveries = injector.transform(src, dst, payload, deliveries,
                                            self.sim.rng, self.sim.now)
            if not deliveries:
                break
        if not deliveries:
            self.messages_dropped += 1
            self.messages_injector_dropped += 1
            return
        if len(deliveries) > 1:
            self.messages_duplicated += len(deliveries) - 1
        for this_delay in deliveries:
            self.messages_in_flight += 1
            this_delay = max(this_delay, 0.0)
            if self.coalesce:
                self._enqueue_delivery(source, dest, this_delay, payload)
            else:
                self.sim.schedule(this_delay, self._arrive, src, dst, payload,
                                  label=f"net {src}->{dst}")

    def send_multi(self, src: str, dsts: Iterable[str], payload: Any) -> None:
        """Unicast ``payload`` from ``src`` to each of ``dsts``, in order.

        Semantically identical to calling :meth:`send` once per
        destination — including one latency draw per reachable
        destination, so the rng stream is untouched — but the
        source-side checks and hot-path dispatch run once per call.
        """
        source = self._endpoints.get(src)
        if source is None or not source.up:
            return
        if self._injectors or self.loss_rate > 0.0 or not self.coalesce:
            for dst in dsts:
                self.send(src, dst, payload)
            return
        dests = self._fanout.get(dsts) if type(dsts) is tuple else None
        if dests is None:
            resolved = tuple(self._endpoints.get(d) for d in dsts)
            if None in resolved:
                # Unknown destination: take the generic per-destination
                # path so drop accounting matches plain send().
                for dst in dsts:
                    self.send(src, dst, payload)
                return
            dests = resolved
            if type(dsts) is tuple:
                self._fanout[dsts] = dests
        component = self._component
        src_component = component[source.index]
        sample = self.latency.sample
        rng = self.sim.rng
        now = self.sim.now
        pending = self._pending_batches
        schedule = self.sim.schedule
        arrive_batch = self._arrive_batch
        source.messages_sent += len(dests)
        for dest in dests:
            if dest is not source and component[dest.index] != src_component:
                self.messages_dropped += 1
                continue
            delay = sample(rng)
            self.messages_in_flight += 1
            if delay < 0.0:
                delay = 0.0
            key = (dest.index, now + delay)
            batch = pending.get(key)
            if batch is None:
                pending[key] = [source, payload]
                schedule(delay, arrive_batch, key, label=dest.batch_label)
            else:
                batch.append(source)
                batch.append(payload)

    def _enqueue_delivery(self, source: Endpoint, dest: Endpoint,
                          delay: float, payload: Any) -> None:
        """Append to the (dst, arrival-time) batch, creating its single
        delivery event on first use.  Per-destination send order is
        preserved: batches deliver their messages in append order, and a
        batch fires at the heap position of its first message."""
        arrival = self.sim.now + delay
        key = (dest.index, arrival)
        batch = self._pending_batches.get(key)
        if batch is None:
            self._pending_batches[key] = [source, payload]
            self.sim.schedule(delay, self._arrive_batch, key,
                              label=dest.batch_label)
        else:
            batch.append(source)
            batch.append(payload)

    def _arrive_batch(self, key: Tuple[int, float]) -> None:
        batch = self._pending_batches.pop(key)
        count = len(batch) >> 1
        if count > 1:
            self.delivery_batches += 1
        self.messages_in_flight -= count
        endpoint = self._eps[key[0]]
        dst = endpoint.node_id
        # Destination-side state is hoisted out of the loop; partitions
        # and crashes only change between simulator events, never within
        # this one.  Per-message source reachability still applies, and
        # ``endpoint.up`` is re-read per message: delivering an earlier
        # message in the batch may crash the destination.
        component = self._component
        dst_component = component[endpoint.index]
        taps = self._taps
        delivered = 0
        dropped = 0
        index = 0
        end = len(batch)
        while index < end:
            source = batch[index]
            payload = batch[index + 1]
            index += 2
            if not endpoint.up or (
                source is not endpoint
                and component[source.index] != dst_component
            ):
                dropped += 1
                continue
            delivered += 1
            if taps:
                for tap in taps:
                    tap(source.node_id, dst, payload)
            handler = endpoint._handler
            if handler is not None:
                endpoint.messages_received += 1
                handler(source.node_id, payload)
        self.messages_delivered += delivered
        self.messages_dropped += dropped

    def _arrive(self, src: str, dst: str, payload: Any) -> None:
        self._deliver_one(src, dst, payload)

    def _deliver_one(self, src: str, dst: str, payload: Any) -> None:
        self.messages_in_flight -= 1
        endpoint = self._endpoints.get(dst)
        if endpoint is None or not endpoint.up or (
            src != dst and self._component_of(src) != self._component[endpoint.index]
        ):
            self.messages_dropped += 1
            return
        self.messages_delivered += 1
        if self._taps:
            for tap in self._taps:
                tap(src, dst, payload)
        endpoint._deliver(src, payload)

    def add_tap(self, tap: Callable[[str, str, Any], None]) -> None:
        """Register an observer called for every delivered message."""
        self._taps.append(tap)

    # ------------------------------------------------------------------
    def components(self) -> List[Set[str]]:
        """Current partition components (only nodes with endpoints)."""
        by_component: Dict[int, Set[str]] = {}
        for ep in self._eps:
            by_component.setdefault(self._component[ep.index], set()).add(ep.node_id)
        return [members for _, members in sorted(by_component.items())]
