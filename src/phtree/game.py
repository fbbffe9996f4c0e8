"""Monte Carlo tug-of-war plays on the tree.

Each step of a play flips a biased coin: with probability alpha a fair
coin hands the move to Player I or Player II (whose strategy picks a
successor), and with probability beta the token moves to a uniformly
random successor.  The infinite game is truncated at a configurable depth
N and paid off with ``F(psi(x_N))``; every branch extension of ``x_N``
stays within tree distance ``m**-N``, so :func:`truncation_error` turns
the boundary modulus at that scale into a rigorous payoff uncertainty.

:func:`simulate_batch` is the one engine.  It advances all plays in
lockstep; at each step it lists the plays each player moves as one
ascending index array (``np.flatnonzero``), asks that player's strategy for
their moves (all at once, or play by play: see :class:`Strategy`), and puts
the picks back by the same indices.  Greedy moves compare children column by column.

Randomness contract: the coin, turn and random-move variates are three
``(plays, depth)`` row-major blocks of the ``default_rng(master_seed)``
stream, at offsets 0, ``plays*depth`` and ``2*plays*depth``; play p reads
row p of each, so estimates are reproducible bit-for-bit.  Copies of the
master's bit generator, placed with ``advance``, draw them in chunks of
``CHUNK_PLAYS`` rows: the engine's memory is one chunk plus the payoffs,
and a passed-in generator is not consumed.  Means and standard errors
use numpy's pairwise summation, so merging is order-independent at the
1e-12 level.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .boundary import BoundarySpec, eval_F, modulus_bound
from .capacity import exceeded, size_cap
from .dpp import GameParams
from .errors import ValidationError
from .solver import LevelField
from .tree import Vertex, _is_integer, vertex_from_index


class Strategy:
    """A deterministic rule picking successor indices, by one of two protocols.

    ``choose_batch(level, indices)`` picks the moves of many plays at once
    from their level and vertex indices.  Without it (None), the engine calls
    ``choose(step, v)`` play by play: ``v`` is the vertex the mover stands on
    and ``step`` the number of moves since the play's start vertex ``x0``.
    """

    def choose(self, step: int, v: Vertex) -> int:
        raise NotImplementedError

    choose_batch = None  # type: ignore[assignment]


class _GreedyStrategy(Strategy):
    """Step to the successor with the extreme advice value.

    `choose_batch` gathers child d as ``indices * m + d``, one column at a
    time, and picks it only if it `_beats` the running `_extreme` strictly,
    so ties break to the lowest index (fixed for reproducibility).  Advice
    must be finite (`build_un` and `field_from_csv` ensure it).
    """

    _beats = _extreme = None

    def __init__(self, advice: LevelField):
        self.advice = advice

    def choose_batch(self, level: int, indices: np.ndarray) -> np.ndarray:
        m = self.advice.params.m
        picks = np.zeros(indices.shape, dtype=np.int64)
        if level + 1 > self.advice.n:
            # advice is constant on subtrees below its depth: every move
            # ties, and ties break to index 0
            return picks
        children = self.advice.levels[level + 1]
        first = indices * m
        best = children[first]
        for d in range(1, m):
            values = children[first + d]
            picks = np.where(self._beats(values, best), d, picks)
            self._extreme(best, values, out=best)
        return picks


class GreedyMaxStrategy(_GreedyStrategy):
    """Step to an argmax of the advice field (lowest index on ties)."""

    _beats, _extreme = np.greater, np.maximum


class GreedyMinStrategy(_GreedyStrategy):
    """Step to an argmin of the advice field (lowest index on ties)."""

    _beats, _extreme = np.less, np.minimum


class FixedDigitStrategy(Strategy):
    """Always extend by the same digit."""

    def __init__(self, digit: int, m: int):
        if not _is_integer(digit):
            raise ValidationError(f"strategy digit must be an integer, got {digit!r}")
        if not 0 <= digit < m:
            raise ValidationError(f"digit {digit} out of range for branching {m}")
        self.digit = int(digit)

    def choose_batch(self, level: int, indices: np.ndarray) -> np.ndarray:
        return np.full(indices.shape, self.digit, dtype=np.int64)


class UniformRandomStrategy(Strategy):
    """Seeded uniform moves from ``default_rng((seed, step) + v.digits)``.

    Stateless derivation keeps the strategy a pure function of (step, v),
    so shared instances stay safe under concurrent plays.
    """

    def __init__(self, seed: int, m: int):
        if not _is_integer(seed):
            raise ValidationError(f"random strategy seed must be an integer, got {seed!r}")
        self.seed = int(seed)
        if self.seed < 0:
            raise ValidationError(f"random strategy seed must be >= 0, got {seed}")
        self.m = m

    def choose(self, step: int, v: Vertex) -> int:
        rng = np.random.default_rng((self.seed, step) + v.digits)
        return int(rng.integers(self.m))


def strategy_from_name(name: str, m: int, advice: LevelField | None) -> Strategy:
    """Build a strategy from a CLI descriptor."""
    name = name.strip()
    if name == "greedy-max" or name == "greedy-min":
        if advice is None:
            raise ValidationError(f"strategy {name!r} needs an advice field")
        return GreedyMaxStrategy(advice) if name == "greedy-max" else GreedyMinStrategy(advice)
    kind, colon, arg = name.partition(":")
    if colon and kind in ("fixed", "random"):
        try:
            value = int(arg)
        except ValueError as exc:
            raise ValidationError(f"strategy {name!r} needs an integer after {kind}:") from exc
        if kind == "fixed":
            return FixedDigitStrategy(value, m)
        return UniformRandomStrategy(value, m)
    raise ValidationError(
        f"unknown strategy {name!r}: expected greedy-max, greedy-min, "
        f"fixed:<digit>, or random:<seed>"
    )


#: plays advanced together; the engine holds 3 * CHUNK_PLAYS * depth variates plus the payoffs
CHUNK_PLAYS = 1 << 14


def _streams(master_seed, stride: int) -> list[np.random.Generator]:
    """Copies of the master generator at offsets 0, `stride` and 2 * `stride`."""
    try:
        bits = np.random.default_rng(master_seed).bit_generator
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"invalid master seed {master_seed!r}: {exc}") from exc
    if not isinstance(bits, (np.random.PCG64, np.random.PCG64DXSM)):
        raise ValidationError(
            f"master seed {master_seed!r} cannot advance its {type(bits).__name__} stream; "
            f"pass an integer, a SeedSequence, or a PCG64 or PCG64DXSM generator"
        )
    clones = [copy.deepcopy(bits).advance(offset) for offset in (0, stride, 2 * stride)]
    # advance() drops the master's buffered 32-bit half, which the digits read first
    buffered = {key: bits.state[key] for key in ("has_uint32", "uinteger")}
    clones[2].state = {**clones[2].state, **buffered}
    return [np.random.Generator(clone) for clone in clones]


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    plays: int
    truncation_depth: int


@dataclass(frozen=True)
class SimulationBatch:
    payoffs: np.ndarray
    moves_player_i: int
    moves_player_ii: int
    moves_random: int


def simulate_batch(
    x0: Vertex,
    strategy_i: Strategy,
    strategy_ii: Strategy,
    spec: BoundarySpec,
    params: GameParams,
    depth: int,
    plays: int,
    master_seed,
) -> SimulationBatch:
    """Advance `plays` independent plays in lockstep and collect payoffs."""
    if depth < 1:
        raise ValidationError(f"depth must be >= 1, got {depth}")
    if plays < 1:
        raise ValidationError(f"plays must be >= 1, got {plays}")
    if x0.m != params.m:
        raise ValidationError("starting vertex and params disagree on branching")
    m = params.m
    final_level = x0.level + depth
    if final_level * math.log2(m) >= 62:
        raise ValidationError(
            f"depth {depth} from level {x0.level} overflows exact 64-bit indices "
            f"at branching {m}; reduce the truncation depth"
        )
    cells = 3 * plays * depth
    cap = size_cap()
    if cells > cap:
        raise exceeded(f"{plays} plays of depth {depth} draw {cells} random values", cap)
    coins, turns, moves = _streams(master_seed, plays * depth)

    payoffs = np.empty(plays)
    n_i = n_ii = n_rand = 0
    for start in range(0, plays, CHUNK_PLAYS):
        rows = min(CHUNK_PLAYS, plays - start)
        competitive = coins.random((rows, depth)) < params.alpha
        to_i = competitive & (turns.random((rows, depth)) < 0.5)
        to_ii = competitive & ~to_i
        n_i += int(np.count_nonzero(to_i))
        n_ii += int(np.count_nonzero(to_ii))
        n_rand += competitive.size - int(np.count_nonzero(competitive))
        # transposed once, so each step reads one contiguous row
        to_i, to_ii = to_i.T.copy(), to_ii.T.copy()
        random_digits = moves.integers(0, m, size=(rows, depth), dtype=np.int64).T.copy()
        indices = np.full(rows, x0.index, dtype=np.int64)
        for step in range(depth):
            level = x0.level + step
            digits = random_digits[step]
            for mask, strat in ((to_i[step], strategy_i), (to_ii[step], strategy_ii)):
                movers = np.flatnonzero(mask)
                if not movers.size:
                    continue
                if strat.choose_batch is not None:
                    digits[movers] = strat.choose_batch(level, indices[movers])
                else:
                    for p in movers:
                        digits[p] = strat.choose(step, vertex_from_index(m, level, int(indices[p])))
            indices *= m
            indices += digits
        payoffs[start : start + rows] = eval_F(spec, indices / float(m**final_level))
    return SimulationBatch(payoffs, moves_player_i=n_i, moves_player_ii=n_ii, moves_random=n_rand)


def estimate_value(
    x0: Vertex,
    strategy_i: Strategy,
    strategy_ii: Strategy,
    spec: BoundarySpec,
    params: GameParams,
    depth: int,
    plays: int,
    master_seed,
) -> McEstimate:
    """Estimate the expected payoff from `plays` independent seeded plays."""
    if plays < 2:
        raise ValidationError(f"plays must be >= 2 for a standard error, got {plays}")
    batch = simulate_batch(x0, strategy_i, strategy_ii, spec, params, depth, plays, master_seed)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(np.mean(batch.payoffs))
        std_error = float(np.std(batch.payoffs, ddof=1) / math.sqrt(plays))
    if not (math.isfinite(mean) and math.isfinite(std_error)):
        raise ValidationError(
            f"the estimate is not finite (mean {mean}, standard error {std_error}); "
            f"the payoffs overflow float64"
        )
    return McEstimate(mean, std_error, plays=plays, truncation_depth=depth)


def truncation_error(spec: BoundarySpec, params: GameParams, depth: int) -> float:
    """Payoff uncertainty from stopping at `depth` instead of playing forever."""
    if depth < 1:
        raise ValidationError(f"depth must be >= 1, got {depth}")
    return modulus_bound(spec, params.m ** (-depth))
