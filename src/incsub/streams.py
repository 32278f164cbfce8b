"""Counter-based random streams for replayable simulations.

Every random quantity in a run is addressed by (replication seed, domain,
block index), realized with the Philox counter-based generator.  Draws for
iteration ``k`` live at a fixed offset inside block ``(k - 1) // BLOCK``,
so a run is bit-reproducible regardless of how iterations are chunked or
whether replications execute serially, batched, or in parallel processes.

Blocks are spaced on the third counter word, so consecutive blocks can
never overlap no matter how many values each one consumes.
"""

from __future__ import annotations

import numpy as np

# Iterations covered by one pre-generated block of draws.  This constant is
# part of the reproducibility contract: changing it changes every stream.
BLOCK = 1024

DOMAIN_NOISE = 0
DOMAIN_CHAIN = 1
DOMAIN_INIT = 2
DOMAIN_TOPOLOGY = 3


def check_seed(seed):
    """Validate and normalize a stream seed to a plain int."""
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2^64), got {seed}")
    return seed


def block_generator(seed, domain, block):
    """Fresh generator for one (seed, domain, block) cell; its key is a uint64
    array, as numpy reads a list [seed, 0] as float64 from seed 2^63 on."""
    bg = np.random.Philox(counter=[0, 0, int(block), int(domain)],
                          key=np.array([check_seed(seed), 0], dtype=np.uint64))
    return np.random.Generator(bg)


def init_generator(seed):
    """Generator for one-off draws at run start (initial agent, etc.)."""
    return block_generator(seed, DOMAIN_INIT, 0)


def chain_uniform_block(seed, block):
    """Uniform draws in [0, 1) driving agent-chain transitions for a block."""
    return block_generator(seed, DOMAIN_CHAIN, block).random(BLOCK)
