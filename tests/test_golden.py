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
#: an explicit subset for m=3 with one member at depth 31, so that its density
#: resolution lies 32 levels down; "{deep_set_file}" in a case's arguments is its path
DEEP_SET_FILE = "1\n0.2\n" + ".".join("120" * 10 + "1") + "\n"

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
        "bbea7e6bd0e7b3ca8a60f7d64042166d30220d5284d7469df0f93c6d772024d5",
    ),
    "simulate-random": (
        ["simulate", "--m", "3", "--alpha", "0.5", "--boundary", "{tabulated}",
         "--plays", "200", "--depth", "8", "--seed", "3",
         "--strategy-i", "random:7", "--strategy-ii", "random:8"],
        "d1b7c451e25ddd85a16e0ae123642edd73830ba0741d6fb2c73f62b272d26382",
    ),
    # a per-play strategy from a non-root start: the per-play path must
    # count its steps from x0, not from the root
    "simulate-random-x0": (
        ["simulate", "--m", "3", "--alpha", "0.5", "--boundary", "linear", "--x0", "0.2",
         "--strategy-i", "random:7", "--strategy-ii", "greedy-min", "--advice-n", "4",
         "--plays", "300", "--depth", "7", "--seed", "4"],
        "68cc3fc9a65b0344cf79df73e38ea532ba9d23544f870fdab2aa5e4245dfa33a",
    ),
    # 70,001 plays span more than one chunk of the engine, plus a remainder
    "simulate-chunks": (
        ["simulate", "--m", "2", "--alpha", "0.7", "--boundary", "linear", "--advice-n", "6",
         "--plays", "70001", "--depth", "9", "--seed", "13"],
        "1e45887b06b8ad28065483da1afcfe777086d55a57ae06ad84ff63d37b78c615",
    ),
    # greedy moves inside the advice depth with tied children: ties break
    # to the lowest successor index
    "simulate-greedy-ties": (
        ["simulate", "--m", "4", "--alpha", "0.7", "--boundary", "{ties}", "--advice-n", "3",
         "--plays", "3000", "--depth", "8", "--seed", "19"],
        "f1da452e92abdc36a6185623559a70a0506128777efc9505332f40a30af323eb",
    ),
    "ucp-rho": (
        ["ucp", "--m", "3", "--alpha", "0.5", "--set", "rho:1,4,1,8,1,16", "--kmax", "6"],
        "3bf3bf25bf6c3bf64d57fe9a37c19a8e6e6898cedcbe19f7cfbdbebba2e1b887",
    ),
    # one ucp report per scan path: density refuted by the interior scan,
    # uniform hitting, the full-levels closed form, a long probe ladder with
    # P2 counts, a ladder that runs out of trusted depth, and an explicit set
    "ucp-digit-avoiding": (
        ["ucp", "--m", "3", "--alpha", "0.5", "--set", "digit-avoiding:1"],
        "fb43aecc16f9ac1ee6a63a1616e105fcfe7d3d137155a2e198ad3db40d81a23f",
    ),
    "ucp-last-digit": (
        ["ucp", "--m", "3", "--alpha", "0.5", "--set", "last-digit:2"],
        "0308e907cfc01909a38d841e2b7dfb4691699b516b597e19ce68cd732fd1e21e",
    ),
    "ucp-full-levels-doubling": (
        ["ucp", "--m", "3", "--alpha", "0.5", "--set", "full-levels:1,3;doubling"],
        "289668eac3c26d5432df8171212c149b442adbf1a56c9e99ae4677a39e1df868",
    ),
    "ucp-rho-arith": (
        ["ucp", "--m", "3", "--alpha", "0.5", "--set", "rho:1,2;arith=1", "--kmax", "40"],
        "c23b03c582293d1625abe0088b7fa484035e66f878611b59d017e03d2cf8b2c3",
    ),
    # 17 geometric stages to the probe limit, 196,607 levels in all
    "ucp-rho-geom": (
        ["ucp", "--m", "3", "--alpha", "0.5", "--set", "rho:1,2;geom=2", "--kmax", "30"],
        "54bd9a7bfa63d92aeb96c30cbf39d1bfd5a7d4c3e2771cd5a268a0039d1626b4",
    ),
    "ucp-rho-finite": (
        ["ucp", "--m", "3", "--alpha", "0.5", "--set", "rho:1,2,3;finite"],
        "49b42f38feae9941627eb961eefac3902c2b7437e47b2be8af3b51ce29c457d6",
    ),
    # one member, 0^6: hitting holds within 6 levels, but a +1/-1 field on
    # the subtrees of 1.0 and 1.1 vanishes on it, so the verdict stays open
    "ucp-rho-finite-single": (
        ["ucp", "--m", "3", "--alpha", "0.5", "--set", "rho:6;finite"],
        "ea8c6175af239bc7f7e07dabc3838ed901309e4780f94c26e429ffdbba6be54b",
    ),
    "ucp-set-file": (
        ["ucp", "--m", "3", "--alpha", "0.5", "--set-file", "{set_file}"],
        "2914a00bf7ef8e665216cfcf65619ec17db714fab0e3df9397d81ca299941cce",
    ),
    "ucp-set-file-deep": (
        ["ucp", "--m", "3", "--alpha", "0.5", "--set-file", "{deep_set_file}"],
        "9e76c417eac60f9253625c09fbb5e3bb40658069d17c26ad10b98101a82acada",
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


@pytest.fixture()
def deep_set_file(tmp_path):
    path = tmp_path / "deep-set.txt"
    path.write_text(DEEP_SET_FILE, encoding="utf-8")
    return path


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes(name, tabulated, ties, wide, set_file, deep_set_file, tmp_path):
    template, digest = CASES[name]
    paths = {
        "{tabulated}": tabulated, "{ties}": ties, "{wide}": wide, "{set_file}": set_file,
        "{deep_set_file}": deep_set_file,
    }
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
UCP_MATRIX_DIGEST = "ca39d219a88eaf64141a461015b800b1e240f1172d3769b87d4d7680694907cb"


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
COUNTEREXAMPLE_DIGEST = "d6e1b502ca6c6b11d1651eb3299495e51d9a4d44eefe2e7b1274847dc3359240"


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
