"""Monte Carlo tug-of-war: strategies, the engine, and estimator contracts."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phtree import game
from phtree import (
    BoundarySpec,
    FixedDigitStrategy,
    GameParams,
    GreedyMaxStrategy,
    GreedyMinStrategy,
    Strategy,
    UniformRandomStrategy,
    ValidationError,
    Vertex,
    build_un,
    estimate_value,
    psi,
    root,
    simulate_batch,
    truncation_error,
)

P = GameParams(3, 0.5, 0.5)
LINEAR = BoundarySpec.linear()


class TestPlayOnce:
    """What each play of a `simulate_batch` run does, for pure coins."""

    def test_pure_random_tags(self):
        # alpha = 0: every move of every play is a random one
        walk = simulate_batch(
            root(3), FixedDigitStrategy(0, 3), FixedDigitStrategy(0, 3),
            LINEAR, GameParams(3, 0.0, 1.0), depth=12, plays=100, master_seed=5,
        )
        assert walk.moves_random == 12 * 100
        assert walk.moves_player_i == walk.moves_player_ii == 0

    def test_pure_competitive_forced_moves(self):
        # alpha = 1: only the players move, so fixed strategies force every
        # play from x0 to the same x_N, paid exactly F(psi(x_N))
        x0 = Vertex(3, (1,))
        forced = simulate_batch(
            x0, FixedDigitStrategy(2, 3), FixedDigitStrategy(2, 3),
            LINEAR, GameParams(3, 1.0, 0.0), depth=9, plays=100, master_seed=11,
        )
        assert forced.moves_random == 0
        assert forced.moves_player_i + forced.moves_player_ii == 9 * 100
        x_n = Vertex(3, (1,) + (2,) * 9)
        assert set(forced.payoffs.tolist()) == {float(psi(x_n))}


class TestStrategies:
    def test_greedy_ties_break_to_lowest_index(self):
        flat = build_un(BoundarySpec.constant(1.0), P, 3)
        at_root = np.array([0])
        assert GreedyMaxStrategy(flat).choose_batch(0, at_root).tolist() == [0]
        assert GreedyMinStrategy(flat).choose_batch(0, at_root).tolist() == [0]

    def test_greedy_picks_extremes(self):
        field = build_un(LINEAR, P, 4)
        at_root = np.array([0])
        assert GreedyMaxStrategy(field).choose_batch(0, at_root).tolist() == [2]
        assert GreedyMinStrategy(field).choose_batch(0, at_root).tolist() == [0]

    def test_scale_invariance_of_greedy_choices(self):
        field = build_un(LINEAR, P, 4)
        scaled_levels = tuple(3.7 * arr for arr in field.levels)
        scaled = type(field)(
            params=field.params, n=field.n, levels=scaled_levels,
        )
        for digits in [(), (0,), (2, 1), (1, 0, 2)]:
            v = Vertex(3, digits)
            at_v = np.array([v.index])
            for greedy in (GreedyMaxStrategy, GreedyMinStrategy):
                np.testing.assert_array_equal(
                    greedy(field).choose_batch(v.level, at_v), greedy(scaled).choose_batch(v.level, at_v)
                )
        indices = np.array([0, 1, 2, 5])
        np.testing.assert_array_equal(
            GreedyMaxStrategy(field).choose_batch(2, indices),
            GreedyMaxStrategy(scaled).choose_batch(2, indices),
        )

    @settings(max_examples=80, deadline=None)
    @given(
        m=st.integers(2, 9), n=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_batch_matches_argmax_over_gathered_children(self, m, n, seed, data):
        # integer-valued levels make tied children common; levels up to n + 1
        # cover moves both inside and at the advice depth
        rng = np.random.default_rng(seed)
        field = build_un(LINEAR, GameParams(m, 0.5, 0.5), n)
        levels = tuple(rng.integers(-2, 3, size=m**k).astype(float) for k in range(n + 1))
        field = type(field)(params=field.params, n=n, levels=levels)
        level = data.draw(st.integers(0, n + 1))
        indices = np.array(
            data.draw(st.lists(st.integers(0, m**level - 1), min_size=1, max_size=30)),
            dtype=np.int64,
        )
        # a child below the advice depth takes its depth-n ancestor's value
        shift = m ** max(0, level + 1 - n)
        children = levels[min(level + 1, n)][(indices[:, None] * m + np.arange(m)) // shift]
        for strat, pick in ((GreedyMaxStrategy(field), np.argmax), (GreedyMinStrategy(field), np.argmin)):
            np.testing.assert_array_equal(
                strat.choose_batch(level, indices), pick(children, axis=1)
            )

    @pytest.mark.parametrize("value", [1.5, 2.0, True, "1", None])
    def test_non_integer_strategy_arguments_refused(self, value):
        with pytest.raises(ValidationError, match="must be an integer"):
            FixedDigitStrategy(value, 3)
        with pytest.raises(ValidationError, match="must be an integer"):
            UniformRandomStrategy(value, 3)

    def test_numpy_integer_strategy_arguments_accepted(self):
        assert type(FixedDigitStrategy(np.int64(2), 3).digit) is int
        assert FixedDigitStrategy(np.uint8(1), 3).digit == 1
        assert UniformRandomStrategy(np.int32(7), 3).seed == 7

    def test_uniform_random_in_range_and_deterministic(self):
        # one shared instance asked in two orders, and fresh instances, agree
        shared = UniformRandomStrategy(9, 3)
        calls = [(step, Vertex(3, digits)) for step in (0, 1, 5) for digits in [(), (1,), (2, 0, 1)]]
        first = [shared.choose(step, v) for step, v in calls]
        again = [shared.choose(step, v) for step, v in reversed(calls)][::-1]
        fresh = [UniformRandomStrategy(9, 3).choose(step, v) for step, v in calls]
        assert first == again == fresh
        # at m = 3 a word is rejected with probability 2**-64: the move is the first word mod 3
        assert first == [game._philox(9, (step, v.level, v.index, 0))[0] % 3 for step, v in calls]

    @pytest.mark.parametrize("key, counter", [
        (0, (1, 0, 0, 0)),
        (9, (3, 1, 81, 2)),
        (2**128 - 1, (2**64 - 1,) * 4),
        # a first word of 0: numpy's counter c - 1 borrows from the second word
        (12345, (0, 7, 5, 0)),
        (2**64 + 3, (0, 0, 0, 1)),
    ])
    def test_philox_is_numpys(self, key, counter):
        c = sum(word << 64 * i for i, word in enumerate(counter))
        expected = np.random.Philox(key=key, counter=c - 1).random_raw(4)
        assert game._philox(key, counter) == tuple(int(word) for word in expected)

    def test_uniform_random_rejects_words_past_the_last_multiple_of_m(self):
        # at m = 2**63 + 1 the largest multiple of m up to 2**64 is m itself,
        # so about half the words are rejected, and some steps reject all four
        # words of their first block and read the next attempt's
        m = 2**63 + 1
        strat = UniformRandomStrategy(4, m)
        attempts = []
        for step in range(40):
            v = Vertex(m, (step,))
            words = [word for attempt in range(8) for word in game._philox(4, (step, 1, step, attempt))]
            first = next(i for i, word in enumerate(words) if word < m)
            attempts.append(first // 4)
            assert strat.choose(step, v) == words[first]
        assert 0 in attempts and max(attempts) >= 1


class _PythonFixedDigit(Strategy):
    """Same decisions as FixedDigitStrategy but without batch support."""

    def __init__(self, digit):
        self.digit = digit

    def choose(self, step, v):
        return self.digit


class _StepReading(Strategy):
    """Digit ``(step + 1) % m``, read from the step the engine passes; checks
    that the step counts the moves since x0 and that v descends from x0."""

    def __init__(self, x0):
        self.x0 = x0

    def choose(self, step, v):
        assert v.level == self.x0.level + step
        assert self.x0.is_prefix_of(v)
        return (step + 1) % self.x0.m


class _StepDigit(Strategy):
    """The batched form of _StepReading: step is level - x0.level."""

    def __init__(self, x0):
        self.x0 = x0

    def choose_batch(self, level, indices):
        return np.full(indices.shape, (level - self.x0.level + 1) % self.x0.m, dtype=np.int64)


class _Recording(Strategy):
    """A batched strategy that keeps every index array it is asked about."""

    def __init__(self, inner):
        self.inner = inner
        self.received = []

    def choose_batch(self, level, indices):
        self.received.append(indices.copy())
        return self.inner.choose_batch(level, indices)


class TestEstimator:
    def test_each_strategy_is_asked_about_its_own_moves(self, monkeypatch):
        # over several chunks, each player's strategy is asked about exactly
        # as many plays as that player moves, and gives the same payoffs
        monkeypatch.setattr(game, "CHUNK_PLAYS", 128)
        field = build_un(LINEAR, P, 4)
        plain = (GreedyMaxStrategy(field), GreedyMinStrategy(field))
        recording = tuple(_Recording(strat) for strat in plain)
        runs = [
            simulate_batch(Vertex(3, (2,)), *strats, LINEAR, P, depth=10, plays=500, master_seed=8)
            for strats in (plain, recording)
        ]
        np.testing.assert_array_equal(runs[0].payoffs, runs[1].payoffs)
        first, second = recording
        assert all(len(indices) for indices in first.received + second.received)
        assert sum(map(len, first.received)) == runs[1].moves_player_i
        assert sum(map(len, second.received)) == runs[1].moves_player_ii

    def test_batched_strategies_are_never_asked_play_by_play(self, monkeypatch):
        def refuse(self, step, v):
            raise AssertionError(f"{type(self).__name__}.choose called")

        monkeypatch.setattr(Strategy, "choose", refuse)
        field = build_un(LINEAR, P, 4)
        for strats in (
            (GreedyMaxStrategy(field), GreedyMinStrategy(field)),
            (FixedDigitStrategy(2, 3), FixedDigitStrategy(0, 3)),
        ):
            assert all(type(strat).choose is refuse for strat in strats)
            batch = simulate_batch(Vertex(3, (1,)), *strats, LINEAR, P, depth=8, plays=200, master_seed=3)
            assert batch.moves_player_i and batch.moves_player_ii

    def test_constant_boundary_zero_variance(self):
        est = estimate_value(
            root(3), FixedDigitStrategy(0, 3), FixedDigitStrategy(1, 3),
            BoundarySpec.constant(0.75), P, depth=8, plays=64, master_seed=1,
        )
        assert est.mean == 0.75
        assert est.std_error == 0.0

    @pytest.mark.parametrize("spec", [LINEAR, BoundarySpec.quadratic_centered(),
                                      BoundarySpec.tabulated([0.0, 0.4, 1.0], [1e150, -3.0, 0.5])])
    def test_estimate_is_numpys_mean_and_std(self, spec):
        # the standard error is computed in place on the payoffs, bit for bit as np.std
        args = (Vertex(3, (1,)), FixedDigitStrategy(2, 3), FixedDigitStrategy(0, 3), spec, P, 9, 1001, 4)
        payoffs = simulate_batch(*args).payoffs
        est = estimate_value(*args)
        assert est.mean == float(np.mean(payoffs))
        assert est.std_error == float(np.std(payoffs, ddof=1) / math.sqrt(1001))

    def test_bitwise_reproducibility(self):
        field = build_un(LINEAR, P, 5)
        args = (root(3), GreedyMaxStrategy(field), GreedyMinStrategy(field),
                LINEAR, P, 15, 5000, 42)
        a = estimate_value(*args)
        b = estimate_value(*args)
        assert a.mean == b.mean and a.std_error == b.std_error

    def test_slow_path_matches_batched_path(self):
        # the variates do not depend on the strategy, so one without batch support
        # must reproduce the batched payoffs decision for decision; the
        # step-reading pair also checks that a non-root play counts its
        # steps from x0
        x0 = Vertex(3, (0, 2))
        cases = [
            (root(3), FixedDigitStrategy(2, 3), _PythonFixedDigit(2)),
            (x0, _StepDigit(x0), _StepReading(x0)),
        ]
        for start, batched, per_play in cases:
            fast = simulate_batch(
                start, batched, FixedDigitStrategy(0, 3),
                LINEAR, P, depth=10, plays=300, master_seed=9,
            )
            slow = simulate_batch(
                start, per_play, _PythonFixedDigit(0),
                LINEAR, P, depth=10, plays=300, master_seed=9,
            )
            np.testing.assert_array_equal(fast.payoffs, slow.payoffs)

    @pytest.mark.parametrize(
        "seed",
        [5, np.int64(5), np.random.SeedSequence(5), np.random.default_rng(5)],
        ids=["int", "int64", "SeedSequence", "Generator"],
    )
    def test_master_seed_forms_give_pinned_payoffs(self, seed):
        field = build_un(LINEAR, P, 4)
        batch = simulate_batch(
            Vertex(3, (1,)), GreedyMaxStrategy(field), GreedyMinStrategy(field),
            LINEAR, P, depth=7, plays=500, master_seed=seed,
        )
        assert hashlib.sha256(batch.payoffs.tobytes()).hexdigest() == (
            "9744a15c40b81de9f901753c5ecda45748aa3a79673d8f60422cee92e4726641"
        )
        assert (batch.moves_player_i, batch.moves_player_ii, batch.moves_random) == (
            910, 872, 1718,
        )

    def test_chunks_match_one_chunk(self, monkeypatch):
        # 100 plays in chunks of 7 rows (14 full chunks and a remainder of
        # 2) must give the payoffs and move counts of one chunk
        field = build_un(LINEAR, P, 4)
        x0 = Vertex(3, (0, 2))
        cases = [
            (root(3), GreedyMaxStrategy(field), GreedyMinStrategy(field)),
            (root(3), FixedDigitStrategy(2, 3), FixedDigitStrategy(0, 3)),
            (x0, _StepReading(x0), GreedyMinStrategy(field)),
        ]
        for start, strat_i, strat_ii in cases:
            runs = []
            for chunk in (game.CHUNK_PLAYS, 7):
                monkeypatch.setattr(game, "CHUNK_PLAYS", chunk)
                runs.append(simulate_batch(
                    start, strat_i, strat_ii, LINEAR, P, depth=10, plays=100, master_seed=9,
                ))
            one, chunked = runs
            np.testing.assert_array_equal(one.payoffs, chunked.payoffs)
            assert (one.moves_player_i, one.moves_player_ii, one.moves_random) == (
                chunked.moves_player_i, chunked.moves_player_ii, chunked.moves_random,
            )

    def test_master_generator_is_not_consumed(self):
        # a generator holding a buffered 32-bit half: the random moves of a
        # pure-average run are the second block of its stream, after the
        # uniforms that pick the movers, and the buffered half comes first
        master = np.random.default_rng(6)
        master.integers(0, 3)
        state = master.bit_generator.state
        assert state["has_uint32"] == 1
        params = GameParams(3, 0.0, 1.0)
        walk = simulate_batch(
            root(3), FixedDigitStrategy(0, 3), FixedDigitStrategy(0, 3),
            LINEAR, params, depth=6, plays=50, master_seed=master,
        )
        assert master.bit_generator.state == state
        reference = np.random.default_rng(6)
        reference.integers(0, 3)
        reference.random((50, 6))
        digits = reference.integers(0, 3, size=(50, 6), dtype=np.int64)
        indices = digits @ 3 ** np.arange(5, -1, -1)
        np.testing.assert_array_equal(walk.payoffs, indices / 3.0**6)

    @pytest.mark.parametrize(
        "seed",
        [np.random.Generator(np.random.MT19937(5)), np.random.SFC64(5),
         np.random.Generator(np.random.Philox(5))],
        ids=["MT19937", "SFC64", "Philox"],
    )
    def test_master_seed_that_cannot_advance(self, seed):
        with pytest.raises(ValidationError, match="PCG64 or PCG64DXSM generator"):
            simulate_batch(root(3), FixedDigitStrategy(0, 3), FixedDigitStrategy(0, 3),
                           LINEAR, P, depth=4, plays=4, master_seed=seed)

    def test_pure_random_walk_mean(self):
        params = GameParams(3, 0.0, 1.0)
        est = estimate_value(
            root(3), FixedDigitStrategy(0, 3), FixedDigitStrategy(0, 3),
            LINEAR, params, depth=20, plays=50_000, master_seed=7,
        )
        assert abs(est.mean - 0.5) <= 3 * est.std_error

    def test_coin_statistics(self):
        batch = simulate_batch(
            root(3), FixedDigitStrategy(0, 3), FixedDigitStrategy(0, 3),
            LINEAR, P, depth=5, plays=100_000, master_seed=3,
        )
        total = 5 * 100_000
        fraction = batch.moves_random / total
        sigma = math.sqrt(0.25 / total)
        assert abs(fraction - 0.5) <= 4 * sigma
        # the two players split competitive moves evenly
        competitive = batch.moves_player_i + batch.moves_player_ii
        assert abs(batch.moves_player_i / competitive - 0.5) <= 4 * math.sqrt(
            0.25 / competitive
        )

    def test_pure_average_estimate_matches_field(self):
        # with alpha = 0 the field is an exact subtree average, and the
        # random walk's payoff mean approaches it as depth and plays grow
        params = GameParams(3, 0.0, 1.0)
        field = build_un(LINEAR, params, 6)
        x0 = Vertex(3, (2,))
        est = estimate_value(
            x0, FixedDigitStrategy(0, 3), FixedDigitStrategy(0, 3),
            LINEAR, params, depth=16, plays=50_000, master_seed=21,
        )
        allowance = 3 * est.std_error + 0.5 * 3.0**-6 + 3.0**-16
        assert abs(est.mean - field.value(x0)) <= allowance

    def test_plays_validation(self):
        with pytest.raises(ValidationError):
            estimate_value(root(3), FixedDigitStrategy(0, 3), FixedDigitStrategy(0, 3),
                           LINEAR, P, depth=4, plays=1, master_seed=0)

    def test_depth_overflow_guard(self):
        # depth must be positive, and small enough for exact 64-bit indices
        for depth in (0, 45):
            with pytest.raises(ValidationError):
                simulate_batch(root(3), FixedDigitStrategy(0, 3), FixedDigitStrategy(0, 3),
                               LINEAR, P, depth=depth, plays=4, master_seed=0)


class TestTruncationError:
    def test_linear(self):
        assert truncation_error(LINEAR, P, 10) == pytest.approx(3.0**-10)

    def test_constant(self):
        assert truncation_error(BoundarySpec.constant(2), P, 4) == 0.0

    def test_tabulated(self):
        spec = BoundarySpec.tabulated([0.0, 0.5, 1.0], [0.0, 1.0, 0.0])
        assert truncation_error(spec, P, 5) <= 2 / 243 + 1e-15

    def test_depth_validation(self):
        with pytest.raises(ValidationError):
            truncation_error(LINEAR, P, 0)


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: game.strategy_from_name("greedy-max", 3, None), ValidationError,
                 "strategy 'greedy-max' needs an advice field", id="greedy-without-advice"),
    pytest.param(lambda: simulate_batch(root(3), FixedDigitStrategy(0, 3), FixedDigitStrategy(0, 3),
                                        LINEAR, P, depth=4, plays=0, master_seed=0),
                 ValidationError, "plays must be >= 1, got 0", id="no-plays"),
    pytest.param(lambda: simulate_batch(root(2), FixedDigitStrategy(0, 3), FixedDigitStrategy(0, 3),
                                        LINEAR, P, depth=4, plays=4, master_seed=0),
                 ValidationError, "starting vertex and params disagree on branching",
                 id="branching-mismatch"),
    pytest.param(lambda: UniformRandomStrategy(2**128, 3), ValidationError,
                 f"random strategy seed must lie in [0, 2**128), got {2**128}", id="seed-past-philox-key"),
    pytest.param(lambda: UniformRandomStrategy(1, 2**64 + 1), ValidationError,
                 f"random strategy needs branching m <= 2**64, got {2**64 + 1}", id="random-branching"),
    pytest.param(lambda: UniformRandomStrategy(1, 3).choose(0, Vertex(3, (2,) * 41)), ValidationError,
                 "random strategy needs a vertex index below 2**64, got level 41", id="random-deep-vertex"),
])
def test_refusals(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert (info.type, str(info.value)) == (error, message)
