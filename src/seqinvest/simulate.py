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
is discarded or truncated, and ``discarded`` is always 0.  Only a tail
that never fails (``p_tail == 1``) or chains too long to tabulate raise
:class:`ChainCapError`.

Aggregation is a few weighted sums over the histogram.  The number of
episodes reaching agent ``i`` is the suffix sum of the histogram from
``i``, all taken from one reverse cumulative sum.  Agent ``i``'s payoff
row is ``rule.value(i, k)`` for ``k >= i``; from ``rule.stationary_from``
on every column has the same rewards by offset, so that row is built
once and each later agent uses a prefix of it (a drifting rule builds
every column).  Each sum is the same dot product over the same values
as the per-agent definition, so summaries equal it exactly.

Randomness comes from counter-based Philox streams.  Shards draw from
generators spawned off one seed sequence (``SeedSequence(seed).spawn``),
so they are independent by construction without communication, and the
merge -- summing histograms -- is associative and deterministic given
the shard plan.  Identical seed and configuration reproduce summaries
bit for bit.

numpy is imported on first use, inside the functions that draw or
aggregate, so importing this module, as the first use of the package
and the CLI's ``simulate`` command do, does not load numpy.

:class:`SimulationConfig` is a frozen dataclass because construction
validates its fields; the summaries (:class:`Stat`, :class:`PayoffStat`,
:class:`SimulationSummary`) are computed, so they are ``typing.NamedTuple``
classes: they unpack and index like tuples and are copied with ``._replace``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from .errors import ChainCapError, DomainError
from .profiles import ConstantTailProfile
from .rates import SuccessRate
from .rules import StationaryColumnRule

if TYPE_CHECKING:
    import numpy as np

# Longest terminal index the histogram may hold (a dense int64 array).
_HISTOGRAM_LIMIT = 1 << 22


@dataclass(frozen=True)
class SimulationConfig:
    """Engine parameters; the profile and rule are passed alongside.

    ``max_chain_length`` is the number of binomial thinning steps before
    the exact geometric closure takes over (raised to the profile's
    prefix length when shorter); it bounds the work per shard, not the
    simulated chains.  ``payoff_horizon`` is the last agent whose payoff
    is reported.
    """

    episodes: int = 1_000_000
    seed: int = 0
    max_chain_length: int = 10_000
    shards: int = 1
    payoff_horizon: int = 8

    def __post_init__(self) -> None:
        if self.episodes < 1:
            raise DomainError(f"episodes must be >= 1, got {self.episodes}")
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")
        if self.max_chain_length < 1:
            raise DomainError(
                f"max_chain_length must be >= 1, got {self.max_chain_length}"
            )
        if self.shards < 1:
            raise DomainError(f"shards must be >= 1, got {self.shards}")
        if self.payoff_horizon < 0:
            raise DomainError(
                f"payoff_horizon must be >= 0, got {self.payoff_horizon}"
            )


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
    histogram counts episodes by terminal index.
    """

    episodes: int
    discarded: int
    terminal_index: Stat
    total_value: Stat
    total_investment: Stat
    welfare: Stat
    payoffs: tuple[PayoffStat, ...]
    histogram: tuple[int, ...]


def _probability(sr: SuccessRate, x: float) -> float:
    p = sr.probability(x)
    if not 0.0 <= p <= 1.0:  # also rejects NaN
        raise DomainError(f"{sr.name}: p({x:g}) = {p!r} is not a probability")
    return p


def _shard_histogram(
    sr: SuccessRate,
    profile: ConstantTailProfile,
    episodes: int,
    rng: np.random.Generator,
    max_chain_length: int,
) -> tuple[np.ndarray, int]:
    """Counts of episodes by terminal index, plus the discard count (0)."""
    import numpy as np

    p_tail = _probability(sr, profile.tail)
    steps = max(max_chain_length, profile.prefix_len)
    counts: list[int] = []
    remaining = episodes
    for x in profile.prefix:
        if remaining == 0:
            break
        successes = int(rng.binomial(remaining, _probability(sr, x)))
        counts.append(remaining - successes)
        remaining = successes
    for _ in range(steps - len(counts)):
        if remaining == 0:
            break
        successes = int(rng.binomial(remaining, p_tail))
        counts.append(remaining - successes)
        remaining = successes
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
    import numpy as np

    root = np.random.SeedSequence(config.seed)
    children = root.spawn(config.shards) if config.shards > 1 else [root]
    return [np.random.Generator(np.random.Philox(child)) for child in children]


def _shard_sizes(episodes: int, shards: int) -> list[int]:
    base, extra = divmod(episodes, shards)
    return [base + (1 if s < extra else 0) for s in range(shards)]


def terminal_histogram(
    sr: SuccessRate, profile: ConstantTailProfile, config: SimulationConfig
) -> tuple[np.ndarray, int]:
    """Merged terminal-index histogram over all shards, plus discards (0)."""
    import numpy as np

    sizes = _shard_sizes(config.episodes, config.shards)
    merged = np.zeros(0, dtype=np.int64)
    discarded = 0
    for rng, size in zip(_rngs(config), sizes):
        if size == 0:
            continue
        counts, dropped = _shard_histogram(
            sr, profile, size, rng, config.max_chain_length
        )
        if counts.size > merged.size:
            counts[: merged.size] += merged
            merged = counts
        else:
            merged[: counts.size] += counts
        discarded += dropped
    return merged, discarded


def terminal_samples(
    sr: SuccessRate, profile: ConstantTailProfile, config: SimulationConfig
) -> np.ndarray:
    """Terminal indices of all episodes, expanded from the histogram."""
    import numpy as np

    hist, _ = terminal_histogram(sr, profile, config)
    return np.repeat(np.arange(hist.size), hist)


def _stat(hist: np.ndarray, values: np.ndarray, n: int) -> Stat:
    """Mean and standard error of ``values`` weighted by ``hist``, whose
    total is ``n``."""
    if n == 0:
        return Stat(math.nan, math.nan)
    # moments about values[-1], whose bin every histogram reaches (it ends
    # at its longest chain): equal values then give their own value as the
    # mean and a standard error of exactly 0, not rounding noise
    anchor = values[-1]
    dev = values - anchor
    shift = float(hist @ dev) / n
    mean = float(anchor) + shift
    if n == 1:
        return Stat(mean, math.nan)
    var = float(hist @ (dev - shift) ** 2) / (n - 1)
    return Stat(mean, math.sqrt(var / n))


def summarize(
    sr: SuccessRate,
    profile: ConstantTailProfile,
    rule: StationaryColumnRule,
    config: SimulationConfig,
) -> SimulationSummary:
    """Simulate and aggregate; deterministic given the configuration."""
    import numpy as np

    hist, discarded = terminal_histogram(sr, profile, config)
    # reached[i]: episodes ending at agent i or later
    reached = np.cumsum(hist[::-1])[::-1]
    episodes = int(reached[0])
    kmax = hist.size - 1
    ks = np.arange(hist.size, dtype=np.float64)
    head = profile.prefix[: hist.size]
    investments = np.cumsum(
        np.concatenate([head, np.full(hist.size - len(head), profile.tail)])
    )

    terminal = _stat(hist, ks, episodes)
    value = Stat(terminal.mean + 1.0, terminal.se)
    investment = _stat(hist, investments, episodes)
    welfare = _stat(hist, ks + 1.0 - investments, episodes)

    start = rule.stationary_from
    payoffs = []
    for i in range(min(config.payoff_horizon, kmax) + 1):
        sub = hist[i:]
        if start is None or i <= start:
            # rule.value(i, k) for k >= i: the column's entries, then its tail
            col = rule.column(i)
            entries = col.entries[: sub.size]
            extra = np.arange(sub.size - len(entries), dtype=np.float64)
            rewards = np.concatenate([entries, col.tail + col.slope * extra])
        else:
            # a shifted copy of column i - 1: the same rewards by offset
            rewards = rewards[: sub.size]
        n = int(reached[i])
        stat = _stat(sub, rewards - profile.at(i), n)
        payoffs.append(PayoffStat(i, n, stat.mean, stat.se))

    return SimulationSummary(
        episodes=episodes,
        discarded=discarded,
        terminal_index=terminal,
        total_value=value,
        total_investment=investment,
        welfare=welfare,
        payoffs=tuple(payoffs),
        histogram=tuple(hist.tolist()),
    )
