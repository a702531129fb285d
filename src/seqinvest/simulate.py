"""Monte Carlo simulation of the investment chain.

Each episode walks the chain: agent ``j`` succeeds with probability
``p(x_j)``, the first failure at ``k`` ends the episode, total value
``k + 1`` is split by the rule's row ``k``, and every reached agent has
sunk their investment.  Because the profile and rule are deterministic,
every per-episode statistic is a function of the terminal index alone,
so the engine samples only the terminal-index histogram and aggregates
exactly from it.

The histogram is sampled by binomial thinning: of the ``n`` episodes
still running at agent ``j``, ``Binomial(n, p(x_j))`` succeed and the
rest stop at ``j``.  That is the law of ``n`` independent walks, at the
cost of one draw per step whatever the episode count.  Thinning runs for
``max(max_chain_length, prefix length)`` steps at most.  Every survivor
is then inside the constant tail, where its remaining length is an
independent geometric variable with success probability ``p_tail``, so
one geometric draw per survivor closes the histogram exactly: no episode
is discarded or truncated, so :func:`terminal_histogram` returns the
histogram alone and the summary's ``discarded`` is always 0.  Only a tail
that never fails (``p_tail == 1``) or chains too long to tabulate raise
:class:`ChainCapError`.

Aggregation is a few weighted sums over the histogram, cast once to
float64 weights (exact below 2**53 episodes a bin, and the cast ``dot``
makes on an int64 histogram anyway).  The number of episodes reaching
agent ``i`` is the suffix sum of the histogram from ``i``, all taken
from one reverse cumulative sum.  Agent ``i``'s net payoff row is
``rule.value(i, k) - x_i`` for ``k >= i``; from ``rule.stationary_from``
on every column has the same rewards by offset, so that row is built
once and, while the investment stays the same, each later agent takes a
prefix view of it (a drifting rule builds every column, and an agent
with a new investment subtracts it afresh).  Each statistic is two dot
products over its own suffix of the weights, the same values in the same
order as the per-agent definition, so summaries equal it exactly.

Randomness comes from counter-based Philox streams.  Shards draw from
generators spawned off one seed sequence (``SeedSequence(seed).spawn``),
so they are independent by construction without communication, and the
merge -- summing histograms -- is associative and deterministic given
the shard plan: ``min(shards, episodes)`` shards, none empty, whose
indexed children do not depend on the excess.  Identical seed and
configuration reproduce summaries bit for bit with one numpy build on
one machine: ``dot`` runs on the BLAS kernel chosen for the CPU, which
fixes how its sums are blocked, and NEP 19 does not fix ``Generator``
streams across numpy versions.

numpy is imported on first use, inside the functions that draw or
aggregate, so importing this module, as the first use of the package
and the CLI's ``simulate`` command do, does not load numpy.

Every record here is a ``typing.NamedTuple``: it unpacks and indexes like
a tuple and is copied with ``._replace``.  :class:`SimulationConfig`
validates its fields on construction, like a rule's ``Column``: a subclass
of its field tuple whose ``__new__`` checks every field, and whose
``_replace`` builds through that check too.  The summaries
(:class:`Stat`, :class:`PayoffStat`, :class:`SimulationSummary`) are
computed, so they are the plain records.
"""

from __future__ import annotations

import math
from itertools import chain, repeat
from typing import TYPE_CHECKING, NamedTuple

from .errors import ChainCapError, _check_count
from .profiles import ConstantTailProfile
from .rates import SuccessRate
from .rules import StationaryColumnRule

if TYPE_CHECKING:
    import numpy as np

# Longest terminal index the histogram may hold (a dense int64 array).
_HISTOGRAM_LIMIT = 1 << 22


class _SimulationConfigFields(NamedTuple):
    episodes: int = 1_000_000
    seed: int = 0
    max_chain_length: int = 10_000
    shards: int = 1
    payoff_horizon: int = 8


class SimulationConfig(_SimulationConfigFields):
    """Engine parameters; the profile and rule are passed alongside.

    ``max_chain_length`` is the number of binomial thinning steps before
    the exact geometric closure takes over (raised to the profile's
    prefix length when shorter); it bounds the work per shard, not the
    simulated chains.  ``payoff_horizon`` is the last agent whose payoff
    is reported.  Every field is an integer, anything ``operator.index``
    accepts (a numpy integer too); any other value, ``1000.7`` or ``2.0``
    included, or one out of range raises :class:`DomainError` naming the
    field.  A config is an immutable tuple record, so it also equals a
    plain tuple of the same five values.
    """

    __slots__ = ()

    def __new__(
        cls,
        episodes: int = 1_000_000,
        seed: int = 0,
        max_chain_length: int = 10_000,
        shards: int = 1,
        payoff_horizon: int = 8,
    ) -> SimulationConfig:
        _check_count("episodes", episodes, 1)
        _check_count("seed", seed, 0)
        _check_count("max_chain_length", max_chain_length, 1)
        _check_count("shards", shards, 1)
        _check_count("payoff_horizon", payoff_horizon, 0)
        return tuple.__new__(cls, (episodes, seed, max_chain_length, shards, payoff_horizon))

    @classmethod
    def _make(cls, iterable) -> SimulationConfig:
        # ``_replace`` builds through ``_make``, so copies are checked too
        return cls(*iterable)


class Stat(NamedTuple):
    mean: float
    se: float


class PayoffStat(NamedTuple):
    agent: int
    reached: int
    mean: float
    se: float


class SimulationSummary(NamedTuple):
    """Means and standard errors of the per-episode statistics.

    Per-agent payoffs are conditional on the agent being reached, which
    is the interim expectation the payoff functional describes.  The
    histogram counts episodes by terminal index.  ``discarded`` is always
    0, kept for the CLI's ``discarded`` line.
    """

    discarded: int
    terminal_index: Stat
    total_investment: Stat
    welfare: Stat
    payoffs: tuple[PayoffStat, ...]
    histogram: tuple[int, ...]

    @property
    def episodes(self) -> int:
        return sum(self.histogram)

    @property
    def total_value(self) -> Stat:
        # value k + 1 at terminal index k: the same spread, shifted by 1
        return Stat(self.terminal_index.mean + 1.0, self.terminal_index.se)


def _shard_histogram(
    sr: SuccessRate,
    profile: ConstantTailProfile,
    episodes: int,
    rng: np.random.Generator,
    max_chain_length: int,
) -> tuple[np.ndarray, int]:
    """Counts of episodes by terminal index, and 0: the pair is kept while
    the benchmark reads it, as perfbench's tracer hook unpacks it."""
    import numpy as np

    p_tail = sr.probability(profile.tail)
    steps = max(max_chain_length, profile.prefix_len)
    counts: list[int] = []
    remaining = episodes
    # the prefix probabilities, each evaluated only once an episode reaches
    # its agent, then the tail's; the loop stops with the last episode
    for p in chain(map(sr.probability, profile.prefix), repeat(p_tail, steps - profile.prefix_len)):
        successes = int(rng.binomial(remaining, p))
        counts.append(remaining - successes)
        remaining = successes
        if remaining == 0:
            break
    hist = np.asarray(counts, dtype=np.int64)
    if remaining == 0:
        return hist, 0
    if p_tail == 1.0:
        raise ChainCapError(
            f"{remaining} chains outlive {steps} steps and the tail never fails"
        )
    # agents tried until the first failure, the failing one included
    tries = rng.geometric(1.0 - p_tail, remaining)
    longest = steps - 1 + int(tries.max())
    if longest >= _HISTOGRAM_LIMIT:
        raise ChainCapError(
            f"a chain ends at agent {longest}, past the histogram limit "
            f"{_HISTOGRAM_LIMIT} (tail success probability {p_tail!r})"
        )
    return np.concatenate([hist, np.bincount(tries - 1)]), 0


def _rngs(config: SimulationConfig) -> list[np.random.Generator]:
    # one generator per planned shard: the root sequence for one shard,
    # else its first min(shards, episodes) children, spawned by index
    import numpy as np

    root = np.random.SeedSequence(config.seed)
    children = root.spawn(min(config.shards, config.episodes)) if config.shards > 1 else [root]
    return [np.random.Generator(np.random.Philox(child)) for child in children]


def _shard_sizes(episodes: int, shards: int) -> list[int]:
    # episodes split over min(shards, episodes) shards, none of them empty
    shards = min(shards, episodes)
    base, extra = divmod(episodes, shards)
    return [base + (1 if s < extra else 0) for s in range(shards)]


def terminal_histogram(
    sr: SuccessRate, profile: ConstantTailProfile, config: SimulationConfig
) -> np.ndarray:
    """Merged terminal-index histogram over all shards."""
    import numpy as np

    sizes = _shard_sizes(config.episodes, config.shards)
    merged = np.zeros(0, dtype=np.int64)
    for rng, size in zip(_rngs(config), sizes):
        counts, _ = _shard_histogram(sr, profile, size, rng, config.max_chain_length)
        if counts.size > merged.size:
            counts[: merged.size] += merged
            merged = counts
        else:
            merged[: counts.size] += counts
    return merged


def _stat(weights: np.ndarray, values: np.ndarray, n: int) -> Stat:
    """Mean and standard error of ``values`` weighted by ``weights``, whose
    total is ``n``; ``values`` is left as it is."""
    # n is at least 1, so no empty-histogram case: a config has at least one
    # episode, every histogram ends at a non-empty bin (thinning stops with
    # the last episode, the closure's bincount at the longest chain, a merge
    # keeps the longer histogram's last bin), and summarize asks for agents
    # only up to that bin.
    # Moments about values[-1], whose bin every histogram reaches (it ends
    # at its longest chain): equal values then give their own value as the
    # mean and a standard error of exactly 0, not rounding noise
    anchor = values[-1]
    dev = values - anchor
    shift = float(weights.dot(dev)) / n
    mean = float(anchor) + shift
    if n == 1:
        return Stat(mean, math.nan)
    dev -= shift
    dev *= dev
    var = float(weights.dot(dev)) / (n - 1)
    return Stat(mean, math.sqrt(var / n))


def summarize(
    sr: SuccessRate,
    profile: ConstantTailProfile,
    rule: StationaryColumnRule,
    config: SimulationConfig,
) -> SimulationSummary:
    """Simulate and aggregate; deterministic given the configuration."""
    import numpy as np

    hist = terminal_histogram(sr, profile, config)
    # reached[i]: episodes ending at agent i or later
    reached = np.cumsum(hist[::-1])[::-1]
    episodes = int(reached[0])
    kmax = hist.size - 1
    # exact while every count is below 2**53; dot casts int64 the same way
    weights = hist.astype(np.float64)
    ks = np.arange(hist.size, dtype=np.float64)
    head = profile.prefix[: hist.size]
    investments = np.cumsum(
        np.concatenate([head, np.full(hist.size - len(head), profile.tail)])
    )

    terminal = _stat(weights, ks, episodes)
    investment = _stat(weights, investments, episodes)
    welfare = _stat(weights, ks + 1.0 - investments, episodes)

    start = rule.stationary_from
    payoffs = []
    for i in range(min(config.payoff_horizon, kmax) + 1):
        size = hist.size - i
        x = profile.at(i)
        if start is None or i <= start:
            # rule.value(i, k) for k >= i: the column's entries, then its tail
            col = rule.column(i)
            entries = col.entries[:size]
            extra = np.arange(size - len(entries), dtype=np.float64)
            rewards = np.concatenate([entries, col.tail + col.slope * extra])
            net = rewards - x
        elif x != net_x:
            # a shifted copy of column i - 1, the same rewards by offset, at
            # a new investment
            net = rewards[:size] - x
        else:
            # the same rewards and investment: a prefix of agent i - 1's row
            net = net[:size]
        net_x = x
        n = int(reached[i])
        stat = _stat(weights[i:], net, n)
        payoffs.append(PayoffStat(i, n, stat.mean, stat.se))

    return SimulationSummary(
        discarded=0,
        terminal_index=terminal,
        total_investment=investment,
        welfare=welfare,
        payoffs=tuple(payoffs),
        histogram=tuple(hist.tolist()),
    )
