"""Property test: the ordering contract any event kernel must meet.

Every layer above ``repro.sim`` depends on one thing about the ready
queue: events fire in ``(time, seq)`` lexicographic order — strictly by
virtual time, FIFO among events sharing an exact timestamp — cancelled
events are skipped, and nested scheduling (events scheduling more
events, including zero-delay ones) composes the same way.  The audit
digests pin that order on 26 scenarios; this suite pins it on random
ones, so a future kernel (bucketed time, a tie-break fuzz axis with the
fuzz switched off) has the contract to meet before it touches a digest.

Hypothesis drives the real :class:`repro.sim.core.Simulator` and the
minimal list-entry ``HeapOracle`` below through the same randomized
schedule program and requires identical firing order and identical
clocks.  Delay generation covers zero delays, sub-millisecond delays,
exact multiples of a binary fraction (timestamps that collide exactly),
same-timestamp bursts, and delays of seconds next to delays of
microseconds.
"""

import heapq

from hypothesis import given, settings, strategies as st

from repro.sim.core import Simulator

#: A binary fraction of a second near the network latencies (~0.98 ms):
#: multiples of it are exact floats, so they collide on exact timestamps.
TICK = 1.0 / 1024.0
#: Seconds ahead, far beyond anything else in a program.
FAR = 4096 * TICK


class HeapOracle:
    """The kernel reduced to its ordering semantics: the reference."""

    def __init__(self) -> None:
        self.now = 0.0
        self._heap = []
        self._seq = 0

    def schedule(self, delay, fn):
        entry = [self.now + delay, self._seq, fn, False]
        self._seq += 1
        heapq.heappush(self._heap, entry)
        return entry

    def run(self):
        while self._heap:
            entry = heapq.heappop(self._heap)
            if entry[3]:  # cancelled
                continue
            self.now = entry[0]
            entry[2]()


delays = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=4 * TICK, allow_nan=False,
              allow_infinity=False),
    st.integers(min_value=0, max_value=6000).map(lambda k: k * TICK),
    st.sampled_from([0.5, 1.0, 2.5, FAR, FAR + 1.0, 9.75]),
    st.floats(min_value=0.0, max_value=12.0, allow_nan=False,
              allow_infinity=False),
)

nodes = st.lists(
    st.tuples(
        delays,
        # Parent slot: scheduled by an earlier node when it fires, or up
        # front (None).  Modulo-mapped onto the actual index range below.
        st.one_of(st.none(), st.integers(min_value=0, max_value=63)),
        # Optional node whose pending event this node cancels on firing.
        st.one_of(st.none(), st.integers(min_value=0, max_value=63)),
    ),
    min_size=1,
    max_size=40,
)


def run_program(sim, program):
    """Execute a schedule program on ``sim`` (Simulator or HeapOracle);
    returns the firing order of node indices."""
    fired = []
    handles = {}

    def make_callback(index):
        delay, _parent, cancels = program[index]

        def fire():
            fired.append(index)
            if cancels is not None:
                target = handles.get(cancels % len(program))
                if target is not None:
                    if isinstance(target, list):  # oracle entry
                        target[3] = True
                    else:
                        target.cancel()
            for child in child_map.get(index, ()):
                child_delay = program[child][0]
                handles[child] = sim.schedule(child_delay,
                                              make_callback(child))

        return fire

    child_map = {}
    roots = []
    for index, (_delay, parent, _cancels) in enumerate(program):
        if parent is None or index == 0:
            roots.append(index)
        else:
            child_map.setdefault(parent % index, []).append(index)
    for index in roots:
        handles[index] = sim.schedule(program[index][0], make_callback(index))
    sim.run()
    return fired


@settings(max_examples=200, deadline=None)
@given(program=nodes)
def test_pop_order_matches_heapq_oracle(program):
    sim = Simulator(seed=0)
    oracle = HeapOracle()
    assert run_program(sim, program) == run_program(oracle, program)
    assert sim.now == oracle.now


@settings(max_examples=100, deadline=None)
@given(
    burst=st.lists(st.integers(min_value=0, max_value=9), min_size=2,
                   max_size=64),
    base=delays,
)
def test_same_timestamp_bursts_fire_fifo(burst, base):
    """Events at one exact timestamp fire in insertion order, even when
    interleaved with other timestamps — the stable-FIFO half of the
    contract, isolated from the rest."""
    sim = Simulator(seed=0)
    fired = []
    times = sorted(set(burst))
    for order, slot in enumerate(burst):
        sim.schedule(base + slot * 0.125, lambda o=order: fired.append(o))
    sim.run()
    expected = [order for time in times
                for order, slot in enumerate(burst) if slot == time]
    assert fired == expected


@settings(max_examples=100, deadline=None)
@given(delay=delays, extra=delays)
def test_cancellation_skips_without_disturbing_order(delay, extra):
    sim = Simulator(seed=0)
    oracle = HeapOracle()
    results = []
    for engine in (sim, oracle):
        fired = []
        engine.schedule(delay, lambda: fired.append("keep"))
        doomed = engine.schedule(delay, lambda: fired.append("doomed"))
        engine.schedule(extra, lambda: fired.append("extra"))
        if isinstance(doomed, list):
            doomed[3] = True
        else:
            doomed.cancel()
        engine.run()
        results.append(fired)
    assert results[0] == results[1]
    assert "doomed" not in results[0]
