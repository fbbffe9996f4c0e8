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

Randomness contract: the engine draws two ``(plays, depth)`` row-major
blocks of the ``default_rng(master_seed)`` stream, uniforms at offset 0
and digits ``integers(0, m)`` at offset ``plays*depth``; play p reads row
p of each, so estimates are reproducible bit-for-bit.  A move whose
uniform is below alpha/2 is Player I's, one below alpha is Player II's,
and any other takes the random digit.  Copies of the master's bit generator,
placed with ``advance``, draw them in chunks of ``CHUNK_PLAYS`` rows, the
digits one ``capacity.BLOCK`` of values at a time: the engine's memory is
one chunk of move masks and digits, one block and the payoffs, and a
passed-in generator is not consumed.  `UniformRandomStrategy` draws from
no stream: its move is a counter-based Philox4x64-10 function of its
seed, the step and the vertex.  Means and standard errors use numpy's
pairwise summation, the latter in place on the payoffs, so merging is
order-independent at the 1e-12 level.
"""

from __future__ import annotations

import copy
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .boundary import BoundarySpec, eval_F, modulus_bound
from .capacity import blocks, exceeded, size_cap
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


#: Philox4x64-10's multipliers and key increments (Salmon et al., SC'11)
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_WORD = (1 << 64) - 1


def _philox(key: int, counter: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    """The four 64-bit words of Philox4x64-10 for a 128-bit `key` and four
    64-bit `counter` words, low word first: numpy's
    ``Philox(key=key, counter=c - 1).random_raw(4)``, since numpy increments
    its counter before each block."""
    k0, k1 = key & _WORD, key >> 64
    c0, c1, c2, c3 = counter
    for _ in range(10):
        p0, p1 = _PHILOX_M[0] * c0, _PHILOX_M[1] * c2
        c0, c1, c2, c3 = (p1 >> 64) ^ c1 ^ k0, p1 & _WORD, (p0 >> 64) ^ c3 ^ k1, p0 & _WORD
        k0, k1 = (k0 + _PHILOX_W[0]) & _WORD, (k1 + _PHILOX_W[1]) & _WORD
    return c0, c1, c2, c3


class UniformRandomStrategy(Strategy):
    """Uniform moves from the Philox4x64-10 block keyed by the seed at
    counter ``(step, v.level, v.index, attempt)``.

    A word is reduced mod m.  Words at or above the largest multiple of m
    up to ``2**64`` are rejected, so the digit is exactly uniform, and the
    next ``attempt`` gives four fresh words.  The move is a pure function
    of (seed, step, v), so shared instances stay safe.
    """

    def __init__(self, seed: int, m: int):
        if not _is_integer(seed):
            raise ValidationError(f"random strategy seed must be an integer, got {seed!r}")
        self.seed = int(seed)
        if not 0 <= self.seed < 2**128:
            raise ValidationError(f"random strategy seed must lie in [0, 2**128), got {seed}")
        if m > 2**64:
            raise ValidationError(f"random strategy needs branching m <= 2**64, got {m}")
        self.m = m
        self._limit = 2**64 - 2**64 % m

    def choose(self, step: int, v: Vertex) -> int:
        index = v.index
        if index >> 64:
            raise ValidationError(f"random strategy needs a vertex index below 2**64, got level {v.level}")
        for attempt in itertools.count():
            for word in _philox(self.seed, (step, v.level, index, attempt)):
                if word < self._limit:
                    return word % self.m


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


#: plays advanced together; the engine holds their move masks and digits, one block of draws and the payoffs
CHUNK_PLAYS = 1 << 14


def _streams(master_seed, stride: int) -> list[np.random.Generator]:
    """Copies of the master generator at offsets 0 and `stride`."""
    try:
        bits = np.random.default_rng(master_seed).bit_generator
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"invalid master seed {master_seed!r}: {exc}") from exc
    if not isinstance(bits, (np.random.PCG64, np.random.PCG64DXSM)):
        raise ValidationError(
            f"master seed {master_seed!r} cannot advance its {type(bits).__name__} stream; "
            f"pass an integer, a SeedSequence, or a PCG64 or PCG64DXSM generator"
        )
    clones = [copy.deepcopy(bits).advance(offset) for offset in (0, stride)]
    # advance() drops the master's buffered 32-bit half, which the digits read first
    buffered = {key: bits.state[key] for key in ("has_uint32", "uinteger")}
    clones[1].state = {**clones[1].state, **buffered}
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
    cells = 2 * plays * depth
    cap = size_cap()
    if cells > cap:
        raise exceeded(f"{plays} plays of depth {depth} draw {cells} random values", cap)
    turns, moves = _streams(master_seed, plays * depth)

    payoffs = np.empty(plays)
    n_i = n_ii = 0
    for start in range(0, plays, CHUNK_PLAYS):
        rows = min(CHUNK_PLAYS, plays - start)
        # one uniform per move: below alpha/2 Player I moves, below alpha Player II
        u = turns.random((rows, depth))
        to_i = u < params.alpha / 2
        to_ii = u < params.alpha
        del u
        to_ii &= ~to_i
        # transposed, so each step reads one contiguous row; the digits a block at a time
        to_i, to_ii = to_i.T.copy(), to_ii.T.copy()
        n_i += int(np.count_nonzero(to_i))
        n_ii += int(np.count_nonzero(to_ii))
        random_digits = np.empty((depth, rows), dtype=np.int64)
        for block in blocks(rows, depth):
            size = (block.stop - block.start, depth)
            random_digits[:, block] = moves.integers(0, m, size=size, dtype=np.int64).T
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
        # this chunk's draws go before the next chunk's are made
        del to_i, to_ii, random_digits, digits
        payoffs[start : start + rows] = eval_F(spec, indices / float(m**final_level))
    n_rand = plays * depth - n_i - n_ii
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
    payoffs = simulate_batch(x0, strategy_i, strategy_ii, spec, params, depth, plays, master_seed).payoffs
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(np.mean(payoffs))
        # np.std(payoffs, ddof=1) step for step, but in place: no second array of payoffs
        payoffs -= mean
        np.square(payoffs, out=payoffs)
        std_error = math.sqrt(float(np.sum(payoffs)) / (plays - 1)) / math.sqrt(plays)
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
