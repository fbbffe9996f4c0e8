"""Golden SHA-256 digests of CLI report bytes.

Each case pins the exact bytes of one report, both on stdout and written
with ``--output`` (so the trailing newline is pinned too).  Any change to
report formatting that alters a single byte fails here.
"""

import hashlib
import itertools

import numpy as np
import pytest
from click.testing import CliRunner

from phtree import (
    BoundarySpec, CounterexampleField, GameParams, PHTreeError, RhoPattern, SubsetSpec,
    Vertex, analyze, build_counterexample, build_un, compute_rho, density_check, pa_check,
)
from phtree.cli import main

#: a small tabulated boundary; "{tabulated}" in a case's arguments is its path
TABULATED_CSV = "t,value\n0,0.5\n0.25,-1\n0.625,0.75\n1,0.125\n"
#: a tabulated boundary that vanishes on the grid 1/64 of [0, 1/2] but zigzags
#: between its points, so that advice of depth 3 at m=4 ties there while tied
#: children lead to different payoffs; "{ties}" in a case's arguments is its path
TIES_CSV = (
    "t,value\n"
    + "".join(f"{k / 128},{k % 2 * (-1) ** (k // 2)}\n" for k in range(65))
    + "0.75,1\n1,-0.5\n"
)
#: a tabulated boundary whose field spans every %.17g regime: exact zeros,
#: exponent notation below 1e-4, fixed notation from 1e-4 up to 1e15, exponent
#: notation from 1e15 up, both signs; knots at 1/9, 1/3 and 2/3 are sample
#: points at m=3, so 1e-4, 1e15 and -1e-4 appear exactly; "{wide}" in a
#: case's arguments is its path
WIDE_CSV = (
    "t,value\n0,0\n0.1,0\n0.1111111111111111,1e-4\n0.2,-3.5e-7\n0.3,2.5e-5\n"
    "0.3333333333333333,1e15\n0.4,-9.75e16\n0.5,0.1\n0.6,-123.456\n"
    "0.6666666666666666,-1e-4\n0.8,4.5e20\n0.9,-0.75\n1,1e-8\n"
)
#: a small explicit subset for m=3; "{set_file}" in a case's arguments is its path
SET_FILE = "1\n0.2\n2.1.0\n2.2.2.1\n"

CASES = {
    "solve-m2-n6-linear-json": (
        ["solve", "--m", "2", "--alpha", "0.5", "--boundary", "linear", "--n", "6"],
        "9b395372fa10f3afd35bb757cd8def32e02846f4c4d98b70bf238806ffeb15c4",
    ),
    "solve-m2-n6-linear-csv": (
        ["solve", "--m", "2", "--alpha", "0.5", "--boundary", "linear", "--n", "6",
         "--format", "csv"],
        "8d4fa2efda37ee96b01b8cd8dde40235633d2093c3422ad93fd4864dcf5afe99",
    ),
    "solve-m3-n4-quadratic-json": (
        ["solve", "--m", "3", "--alpha", "0.3", "--boundary", "quadratic-centered",
         "--n", "4"],
        "4a41b000d835a0b2abe88ba948d986b5238abb99bc50f56e6d255f288007d0c9",
    ),
    "solve-m3-n4-quadratic-csv": (
        ["solve", "--m", "3", "--alpha", "0.3", "--boundary", "quadratic-centered",
         "--n", "4", "--format", "csv"],
        "8f9e21c74bcd2d56111f36626ee725e76d5cbfa40ad64de1a59837ac7463a093",
    ),
    "solve-m5-n3-constant-json": (
        ["solve", "--m", "5", "--alpha", "0.8", "--boundary", "constant:0.25", "--n", "3"],
        "aed4e71e00853c5730491063c5fb6eaa3f34f4bc267bdc31d16f959ef7a1d97d",
    ),
    "solve-m5-n3-constant-csv": (
        ["solve", "--m", "5", "--alpha", "0.8", "--boundary", "constant:0.25", "--n", "3",
         "--format", "csv"],
        "878a3310454d289666b03db22a4098ca13aa9273c79d0e95c2175e037ee2657a",
    ),
    "solve-m3-n3-tabulated-json": (
        ["solve", "--m", "3", "--alpha", "0.5", "--boundary", "{tabulated}", "--n", "3"],
        "b08b8dd18b3073925514b3f9ae08b1dc8f2af9dc13c3d7f923c9d47b9c3bbba1",
    ),
    "solve-m3-n3-tabulated-csv": (
        ["solve", "--m", "3", "--alpha", "0.5", "--boundary", "{tabulated}", "--n", "3",
         "--format", "csv"],
        "93083c0e6ba4604164870cc125f46d206a2f1a36e22aa751e8d82cf62f7f63b6",
    ),
    # 88,573 rows: the CSV spans several blocks, and every block mixes the
    # formatting regimes of WIDE_CSV
    "solve-m3-n10-wide-json": (
        ["solve", "--m", "3", "--alpha", "0.5", "--boundary", "{wide}", "--n", "10"],
        "06e79bc0817d5bd1a2045a303d1059429c4c910a92921d8a2c67b00e799689a5",
    ),
    "solve-m3-n10-wide-csv": (
        ["solve", "--m", "3", "--alpha", "0.5", "--boundary", "{wide}", "--n", "10",
         "--format", "csv"],
        "3d6cabe32099f5112ff231063d266375d3eabdd24edd5d361d8c6b486a7cb53a",
    ),
    "solve-m3-tol-linear-json": (
        ["solve", "--m", "3", "--alpha", "0.5", "--boundary", "linear", "--tol", "0.02"],
        "3ab208a9ebac9f1f40c3ba72b8cd984594dfa7a68c4a8a0d39b123e95ce7a168",
    ),
    "simulate-greedy": (
        ["simulate", "--m", "3", "--alpha", "0.5", "--boundary", "linear", "--plays", "2000",
         "--depth", "10", "--seed", "5", "--advice-n", "4"],
        "b9708860752e96c134d99ed6fe3fd67632a0e81992c6dc4a5ce0797ce2b406f2",
    ),
    "simulate-random": (
        ["simulate", "--m", "3", "--alpha", "0.5", "--boundary", "{tabulated}",
         "--plays", "200", "--depth", "8", "--seed", "3",
         "--strategy-i", "random:7", "--strategy-ii", "random:8"],
        "4b81e4a75a82b3252e7fcab870426f41c7c89f9adad760c5fee7b7b1134e05c9",
    ),
    # a history-reading strategy from a non-root start: the per-play path
    # must hand it the history from x0, not from the root
    "simulate-random-x0": (
        ["simulate", "--m", "3", "--alpha", "0.5", "--boundary", "linear", "--x0", "0.2",
         "--strategy-i", "random:7", "--strategy-ii", "greedy-min", "--advice-n", "4",
         "--plays", "300", "--depth", "7", "--seed", "4"],
        "9b2ba982b3762d50c4b6308577c6dce66c8b4328d777421bf6d2f62222d86946",
    ),
    # 70,001 plays span more than one chunk of the engine, plus a remainder
    "simulate-chunks": (
        ["simulate", "--m", "2", "--alpha", "0.7", "--boundary", "linear", "--advice-n", "6",
         "--plays", "70001", "--depth", "9", "--seed", "13"],
        "2979a998411698e968c2ea4f258fa14331a205993e95febeba858b38d8f5230b",
    ),
    # greedy moves inside the advice depth with tied children: ties break
    # to the lowest successor index
    "simulate-greedy-ties": (
        ["simulate", "--m", "4", "--alpha", "0.7", "--boundary", "{ties}", "--advice-n", "3",
         "--plays", "3000", "--depth", "8", "--seed", "19"],
        "3925c9c00b42158f045b8b36b44b5a8ba8f4c2cee6717a842c95df0a2a249dd9",
    ),
    "ucp-rho": (
        ["ucp", "--m", "3", "--alpha", "0.5", "--set", "rho:1,4,1,8,1,16", "--kmax", "6"],
        "5555b0c12d8b20a9d65a255932ec46a8732c16efe3f3722acf92a6b2935cb212",
    ),
    # one ucp report per scan path: density refuted by the interior scan,
    # uniform hitting, the full-levels closed form, a long probe ladder with
    # P2 counts, a ladder that runs out of trusted depth, and an explicit set
    "ucp-digit-avoiding": (
        ["ucp", "--m", "3", "--alpha", "0.5", "--set", "digit-avoiding:1"],
        "0c7576cf70e63b82dcf8976e5410558ffa875cc1a383c91eebc26f85218dc003",
    ),
    "ucp-last-digit": (
        ["ucp", "--m", "3", "--alpha", "0.5", "--set", "last-digit:2"],
        "2b9dfaa86e88f0a466de4e7fc48ec98099dc5e54d69ef313825a909b3d160329",
    ),
    "ucp-full-levels-doubling": (
        ["ucp", "--m", "3", "--alpha", "0.5", "--set", "full-levels:1,3;doubling"],
        "e98c7572efcaa4b956e0134bbbb7c29b2ada4b96c022f621a4b1a8866f3c4c3e",
    ),
    "ucp-rho-arith": (
        ["ucp", "--m", "3", "--alpha", "0.5", "--set", "rho:1,2;arith=1", "--kmax", "40"],
        "236f527129f6ee066aa243a53d9467a3db0dcfc40ac85e4ec4f26cc899e909e0",
    ),
    "ucp-rho-finite": (
        ["ucp", "--m", "3", "--alpha", "0.5", "--set", "rho:1,2,3;finite"],
        "8fa71b95b867dabdc7867daa6ffcd1fd9a272e0d18dab1a5286d7c74eedc25b5",
    ),
    "ucp-set-file": (
        ["ucp", "--m", "3", "--alpha", "0.5", "--set-file", "{set_file}"],
        "a891b77315695c5951e665084566bc3d94014596f4731cb3a17382b670336256",
    ),
    "dim": (
        ["dim", "--m", "3", "--alpha", "0.5"],
        "f8394175f9563c543d5e66075b15dee8e33205428c49d427993c5cd978ddc238",
    ),
}


@pytest.fixture()
def tabulated(tmp_path):
    path = tmp_path / "boundary.csv"
    path.write_text(TABULATED_CSV, encoding="utf-8")
    return path


@pytest.fixture()
def ties(tmp_path):
    path = tmp_path / "ties.csv"
    path.write_text(TIES_CSV, encoding="utf-8")
    return path


@pytest.fixture()
def wide(tmp_path):
    path = tmp_path / "wide.csv"
    path.write_text(WIDE_CSV, encoding="utf-8")
    return path


@pytest.fixture()
def set_file(tmp_path):
    path = tmp_path / "set.txt"
    path.write_text(SET_FILE, encoding="utf-8")
    return path


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes(name, tabulated, ties, wide, set_file, tmp_path):
    template, digest = CASES[name]
    paths = {"{tabulated}": tabulated, "{ties}": ties, "{wide}": wide, "{set_file}": set_file}
    args = [str(paths.get(a, a)) for a in template]
    runner = CliRunner()

    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == digest

    out = tmp_path / "report.out"
    result = runner.invoke(main, args + ["--output", str(out)])
    assert result.exit_code == 0, result.output
    assert result.stdout_bytes == b""
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_greedy_ties_advice_has_tied_children(ties):
    """The advice of "simulate-greedy-ties" ties both its largest and its
    smallest child values at vertices above its depth."""
    spec = BoundarySpec.from_csv(ties)
    field = build_un(spec, GameParams(4, 0.7, 0.3), 3)
    for k in range(1, field.n):
        children = field.levels[k + 1].reshape(-1, 4)
        for extreme in (children.max(axis=1), children.min(axis=1)):
            assert ((children == extreme[:, None]).sum(axis=1) > 1).any()


#: one descriptor per ucp scan path and continuation, valid for every m >= 2
UCP_DESCRIPTORS = (
    "last-digit:0", "last-digit:1", "digit-avoiding:0", "digit-avoiding:1",
    "full-levels:2", "full-levels:2,5", "full-levels:1,3;doubling",
    "rho:1,4,1,8,1,16", "rho:1,2;arith=1", "rho:1,2,3;finite", "rho:2;geom=2",
    "rho:1,3;digit=1", "rho:2,1;finite;digit=1", "rho:3;arith=0", "rho:1;cycle",
)
UCP_MATRIX_DIGEST = "4d0e2ab72a62a00d4f7c1ae9d3b8e0551344e955c3cc9e5fb2b488d148f853c1"


def _ucp_subsets(m):
    for text in UCP_DESCRIPTORS:
        yield text, SubsetSpec.parse(text, m)
    top = m - 1
    yield "explicit", SubsetSpec.explicit(m, [(1,), (0, top), (top, 1, 0), (top, top, top, 1)])
    yield "explicit-root", SubsetSpec.explicit(m, [(), (0, 0), (1,)])
    yield "explicit-divergence", SubsetSpec.explicit(m, [(0,), (1, 0), (top, 1), (0, 1, 0)])
    rng = np.random.default_rng(m)
    yield "explicit-random", SubsetSpec.explicit(
        m, [tuple(int(d) for d in rng.integers(0, m, size=rng.integers(1, 7))) for _ in range(30)]
    )
    if m < 4:  # a predicate scan keeps one state per vertex, m**level of them
        yield "predicate-suffix", SubsetSpec.predicate(
            m, lambda v: v.digits[-2:] == (0, 1), depth_bound=7
        )
        yield "predicate-sum", SubsetSpec.predicate(
            m, lambda v: v.level % 2 == 1 and sum(v.digits) % m == 0, depth_bound=7
        )


def _outcome(call) -> str:
    try:
        return repr(call())
    except PHTreeError as exc:
        return f"{type(exc).__name__}: {exc}"


def test_ucp_matrix(monkeypatch):
    """Every ucp result, witness and cap message over a matrix of subsets,
    coin weights, analysis flags and size caps, pinned as one digest."""
    lines = []
    for m in (2, 3, 4):
        for name, U in _ucp_subsets(m):
            for alpha in (0.0, 0.5, 1.0):
                params = GameParams(m, alpha, 1.0 - alpha)
                for flags in ((6, 3, 6), (9, 5, 2)):
                    result = _outcome(lambda: analyze(U, params, *flags))
                    lines.append(f"{m} {name} {alpha} {flags} {result}")
            params = GameParams(m, 0.5, 0.5)
            for cap in (5, 20, 60):
                monkeypatch.setenv("PHTREE_SIZE_CAP", str(cap))
                for call in (
                    lambda: compute_rho(U, params, 6),
                    lambda: density_check(U, 3),
                    lambda: pa_check(U, 3),
                ):
                    lines.append(f"{m} {name} cap={cap} {_outcome(call)}")
            monkeypatch.delenv("PHTREE_SIZE_CAP")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == UCP_MATRIX_DIGEST


#: (constructor, gap pattern, depth): the convergent patterns through
#: build_counterexample, and cycle, constant-tail and finite fields built directly
COUNTEREXAMPLE_FIELDS = (
    (build_counterexample, "1;arith=1", 8),
    (build_counterexample, "1,3;arith=2", 8),
    (build_counterexample, "2;geom=2", 8),
    (CounterexampleField, "1,2;cycle", 8),
    (CounterexampleField, "3;arith=0", 8),
    (CounterexampleField, "1,2,3;finite", 6),
)
COUNTEREXAMPLE_DIGEST = "0ac06ef6b476a8fd0a8b05fd17b9d21ee7b49d1a78fb092ba6c5f904b9080727"


def test_counterexample_fields():
    """Every value to level 5, two values just below the built depth (an
    error past a finite pattern), the class representatives to level 10, the
    residual certificate, eta and the stage maxima of a matrix of
    counterexample fields, pinned as one digest."""
    lines = []
    for m in (2, 3, 4):
        for alpha in (0.0, 0.5, 1.0):
            params = GameParams(m, alpha, 1.0 - alpha)
            for build, text, depth in COUNTEREXAMPLE_FIELDS:
                for digit in (0, 1):
                    field = build(RhoPattern.parse(text), params, depth, digit)
                    values = [
                        field.value(Vertex(m, digits))
                        for level in range(6)
                        for digits in itertools.product(range(m), repeat=level)
                    ]
                    below = [
                        _outcome(lambda: field.value(Vertex(m, (d,) * (depth + 1))))
                        for d in (digit, m - 1 - digit)
                    ]
                    reps = _outcome(lambda: [
                        (level, list(reps.values()))
                        for level, reps in field.class_representatives(10)
                    ])
                    lines.append(
                        f"{m} {alpha} {text} {digit} {values!r} {below} {reps} "
                        f"{_outcome(field.residual_certificate)} {field.eta!r} "
                        f"{field.stage_maxima!r}"
                    )
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == COUNTEREXAMPLE_DIGEST
