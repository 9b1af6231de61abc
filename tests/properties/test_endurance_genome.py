"""Property tests for :func:`repro.endurance.derive_genome`: an
endurance config is one exact, well-formed schedule genome."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.endurance import FAMILIES, EnduranceConfig, derive_genome
from repro.search.genome import (
    CorruptGene,
    CrashGene,
    PartitionGene,
    RestartGene,
    ScheduleGenome,
    SweepGene,
    concurrency_limit,
)

#: Upper bound on one family's gene time: a four-cycle storm spans at
#: most 4 × (0.40 + 0.24) s; a rolling restart over 7 sites 7 × 0.30 s.
MAX_FAMILY_SPAN = 2.6

configs = st.builds(
    EnduranceConfig,
    seed=st.integers(0, 10_000),
    segments=st.lists(st.sampled_from(FAMILIES), min_size=1,
                      unique=True).map(tuple),
    duration=st.floats(0.5, 30.0),
    n_sites=st.integers(3, 7),
    sweep_interval=st.sampled_from([1.0, 2.5, 4.0]),
)


@given(config=configs)
@settings(deadline=None, max_examples=200)
def test_derivation_is_a_pure_well_formed_genome(config):
    genome = derive_genome(config)
    assert derive_genome(config).digest() == genome.digest()
    assert ScheduleGenome.loads(genome.dumps()) == genome
    assert (genome.seed, genome.n_sites, genome.mode, genome.db_size) == (
        config.seed, config.n_sites, config.mode, config.db_size)

    limit = concurrency_limit(config.n_sites)
    for gene in genome.segments:
        if isinstance(gene, (CrashGene, PartitionGene)):
            victims = (gene.victims if isinstance(gene, CrashGene)
                       else gene.minority)
            assert len(victims) <= limit
            assert max(victims) < config.n_sites
        elif isinstance(gene, RestartGene):  # one site down at a time
            assert gene.victims == tuple(range(config.n_sites))
        elif isinstance(gene, CorruptGene):
            assert gene.victim < config.n_sites

    # Sweeps at the configured cadence of gene time.
    since_sweep = 0.0
    for gene in genome.segments:
        if isinstance(gene, SweepGene):
            assert since_sweep >= config.sweep_interval - 1e-9
            since_sweep = 0.0
        else:
            since_sweep += gene.duration()
            assert since_sweep < config.sweep_interval + MAX_FAMILY_SPAN

    # Reaches the duration, and stops at the first family that does.
    total = genome.total_duration()
    assert config.duration <= total < config.duration + MAX_FAMILY_SPAN
