"""Blockwise sampling, sweep and payoffs: the bits of whole-array runs,
in the memory of the result plus one block."""

import random
import tracemalloc

import numpy as np
import pytest

from phtree import (
    BoundarySpec, FixedDigitStrategy, GameParams, GreedyMaxStrategy, GreedyMinStrategy, SubsetSpec, Vertex,
    build_un,
)
from phtree import capacity, game
from phtree.boundary import eval_F, sample_Fn
from phtree.cli import canonical_json
from phtree.dpp import operator_average
from phtree.solver import field_to_csv, field_to_json_obj

TABULATED = BoundarySpec.tabulated([0.0, 0.3, 0.7, 1.0], [0.0, 0.9, 0.2, 1.0])
#: knots on the level grids (1/3 for m = 3 and 9; 1/8, 1/2 and 3/4 for m = 2
#: and 8) and -0.0 values: a sample on a knot keeps its -0.0, one between two
#: knots of value -0.0 reads +0.0; at m = 2 the knot 1/2 is the last sample of
#: a block
ON_GRID = BoundarySpec.tabulated(
    [0.0, 0.125, 1 / 3, 0.5, 0.75, 1.0], [-0.0, -0.0, 0.25, -0.0, -0.5, -0.0]
)
SPECS = [
    BoundarySpec.linear(),
    BoundarySpec.quadratic_centered(),
    BoundarySpec.constant(-0.375),
    TABULATED,
    ON_GRID,
]
SPEC_IDS = [spec.kind for spec in SPECS[:-1]] + ["tabulated-on-grid"]
#: per branching, a depth whose deepest level (and the level above it) spans
#: several blocks of 5 plus a remainder
DEPTHS = {2: 7, 3: 4, 8: 2, 9: 2}
MiB = 1 << 20


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
@pytest.mark.parametrize("m", sorted(DEPTHS))
def test_blocks_give_the_bits_of_whole_levels(monkeypatch, m, spec):
    monkeypatch.setattr(capacity, "BLOCK", 5)
    n = DEPTHS[m]
    params = GameParams(m, 0.6, 0.4)
    whole = eval_F(spec, np.arange(m**n, dtype=float) / float(m**n))
    assert sample_Fn(spec, m, n).values.tobytes() == whole.tobytes()
    field = build_un(spec, params, n)
    for k in range(n):
        expected = operator_average(params, field.levels[k + 1].reshape(m**k, m))
        assert field.levels[k].tobytes() == expected.tobytes()


def test_every_block_holding_a_knot_samples_to_the_bits_of_eval_F(monkeypatch):
    # knots 1/200 apart and blocks of 5 samples 1/128 apart: every block holds
    # several knots, and the knots at multiples of 1/8 are samples
    monkeypatch.setattr(capacity, "BLOCK", 5)
    values = np.random.default_rng(34).uniform(-1.0, 1.0, 201)
    values[::5] = -0.0
    spec = BoundarySpec.tabulated(np.arange(201) / 200, values)
    whole = eval_F(spec, np.arange(128, dtype=float) / 128.0)
    assert sample_Fn(spec, 2, 7).values.tobytes() == whole.tobytes()
    for knots in spec.knots:
        assert knots.dtype == np.float64 and not knots.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            knots[0] = 1.0


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
@pytest.mark.parametrize("m", sorted(DEPTHS))
def test_chunks_give_the_payoffs_of_one_chunk(monkeypatch, m, spec):
    params = GameParams(m, 0.6, 0.4)
    advice = build_un(spec, params, 3)
    args = (Vertex(m, (1,)), GreedyMaxStrategy(advice), GreedyMinStrategy(advice), spec, params, 6, 53, 11)
    runs = []
    for chunk in (10**6, 7):
        monkeypatch.setattr(game, "CHUNK_PLAYS", chunk)
        runs.append(game.simulate_batch(*args))
    one, chunked = runs
    assert chunked.payoffs.tobytes() == one.payoffs.tobytes()
    assert (chunked.moves_player_i, chunked.moves_player_ii, chunked.moves_random) == (
        one.moves_player_i, one.moves_player_ii, one.moves_random
    )


@pytest.mark.parametrize("block", [5, 13, 10**6])
def test_digit_blocks_give_the_digits_of_one_draw(monkeypatch, block):
    # a pure-average run moves by the random digits alone, which are the
    # (plays, depth) block after the uniforms, however many rows a block holds
    monkeypatch.setattr(capacity, "BLOCK", block)
    fixed = FixedDigitStrategy(0, 3)
    walk = game.simulate_batch(Vertex(3, ()), fixed, fixed, SPECS[0], GameParams(3, 0.0), 6, 50, 6)
    reference = np.random.default_rng(6)
    reference.random((50, 6))
    digits = reference.integers(0, 3, size=(50, 6), dtype=np.int64)
    assert walk.payoffs.tobytes() == (digits @ 3 ** np.arange(5, -1, -1) / 3.0**6).tobytes()


class TestWorkingSet:
    P = GameParams(3, 0.5, 0.5)
    #: one block of float64 values
    BLOCK_BYTES = 8 * capacity.BLOCK
    #: a block of CSV rows is formatted in about 41 such blocks at once: its
    #: 19-word row matrix, the kernel's int64 arrays and the block's text
    FEW_BLOCKS = 48

    @staticmethod
    def discard(chunk) -> None:
        pass

    def test_build_holds_the_field_plus_one_block(self, traced_peak):
        field, peak = traced_peak(build_un, TABULATED, self.P, 12)
        assert peak <= sum(a.nbytes for a in field.levels) + MiB

    def test_engine_holds_the_payoffs_plus_one_chunk(self, monkeypatch, traced_peak):
        monkeypatch.setattr(game, "CHUNK_PLAYS", 1 << 12)
        advice = build_un(TABULATED, self.P, 8)
        plays, depth = 200_000, 10
        strategies = (GreedyMaxStrategy(advice), GreedyMinStrategy(advice))
        _, peak = traced_peak(
            game.simulate_batch, Vertex(3, ()), *strategies, TABULATED, self.P, depth, plays, 3
        )
        chunk_draws = 2 * 8 * game.CHUNK_PLAYS * depth
        assert peak <= 2 * 8 * plays + chunk_draws

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_report_holds_a_few_blocks_whatever_its_length(self, fmt, traced_peak):
        """A report goes to its sink a block at a time, so formatting one into
        a sink that drops its bytes peaks at a few blocks, not at its text
        (about 200 blocks of CSV and 110 of JSON at n=11)."""
        report = {
            "csv": lambda field: field_to_csv(field, self.discard),
            "json": lambda field: canonical_json(field_to_json_obj(field), self.discard),
        }[fmt]
        peaks = {}
        for n in (10, 11, 12):
            field = build_un(TABULATED, self.P, n)
            _, peaks[n] = traced_peak(report, field)
        assert peaks[11] <= self.FEW_BLOCKS * self.BLOCK_BYTES
        assert peaks[12] <= peaks[10] + self.BLOCK_BYTES

    @staticmethod
    def json_length(obj) -> int:
        """Stream `obj`'s canonical JSON into a sink that keeps only its byte
        count, and return that count."""
        length = [0]

        def count(chunk) -> None:
            length[0] += len(chunk)

        canonical_json(obj, count)
        return length[0]

    def test_json_report_holds_its_text_twice(self, traced_peak):
        field = build_un(TABULATED, self.P, 10)
        obj = field_to_json_obj(field)
        obj["root_value"] = field.root_value
        obj["n_used"] = 10
        length, peak = traced_peak(self.json_length, obj)
        assert peak <= 2.25 * length

    def test_json_report_holds_its_text_once(self, traced_peak):
        field = build_un(TABULATED, self.P, 11)
        length, peak = traced_peak(lambda: self.json_length(field_to_json_obj(field)))
        assert peak <= 1.5 * length

    def test_set_file_holds_its_trie_only(self, tmp_path, traced_peak):
        """A 20,000-member set file is held as its trie table, with no member
        tuples: 1 to 2.5 MB here, against 7 MB with a frozenset of the
        tuples beside the table."""
        rng = random.Random(1)
        members = set()
        while len(members) < 20_000:
            members.add(".".join(str(rng.randrange(3)) for _ in range(rng.randint(6, 14))))
        path = tmp_path / "set.txt"
        path.write_text("\n".join(members) + "\n", encoding="utf-8")

        def held():
            base = tracemalloc.get_traced_memory()[0]
            U = SubsetSpec.from_file(path, 3)
            U.machine
            return tracemalloc.get_traced_memory()[0] - base

        assert traced_peak(held)[0] <= 4 * MiB

    def test_json_levels_are_the_field_arrays(self):
        field = build_un(TABULATED, self.P, 3)
        levels = field_to_json_obj(field)["levels"]
        assert all(np.shares_memory(a, b) for a, b in zip(levels, field.levels))
