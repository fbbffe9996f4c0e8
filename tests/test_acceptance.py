"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the line report.
"""

import math
import time

import numpy as np
import pytest

from phtree import (
    BoundarySpec,
    GameParams,
    GreedyMaxStrategy,
    GreedyMinStrategy,
    RhoPattern,
    SubsetSpec,
    Vertex,
    analyze,
    build_counterexample,
    build_un,
    compare_fields,
    compute_rho,
    density_check,
    estimate_value,
    fatou_dimension,
    kl_minimization_oracle,
    pa_check,
    root,
    truncation_error,
)
from phtree.ucp import VERDICT_UCP

LINEAR = BoundarySpec.linear()
QUADRATIC = BoundarySpec.quadratic_centered()

#: fields built while running the suite, re-checked by criterion 10
_FIELD_STASH: list = []


def _report(tag: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {tag}: {status}{suffix}")


def _stash(field) -> None:
    _FIELD_STASH.append(field)


def test_criterion_01_pure_average_exactness():
    """alpha=0 fields equal descendant leaf means to 1e-12, m=3, n<=8, <5s."""
    params = GameParams(3, 0.0, 1.0)
    started = time.monotonic()
    worst = 0.0
    for spec in (LINEAR, QUADRATIC):
        for n in range(1, 9):
            field = build_un(spec, params, n)
            leaves = field.levels[n]
            for k in range(n):
                means = leaves.reshape(3**k, -1).mean(axis=1)
                worst = max(worst, float(np.abs(field.levels[k] - means).max()))
            if n == 8:
                _stash(field)
    elapsed = time.monotonic() - started
    ok = worst <= 1e-12 and elapsed < 5.0
    _report("1", ok, f"max deviation {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-12
    assert elapsed < 5.0


def test_criterion_02_depth_error_bound():
    """|u_n(root) - u_{n+5}(root)| <= 3^-n for n = 2..8 at alpha=beta=1/2."""
    params = GameParams(3, 0.5, 0.5)
    fields = {n: build_un(LINEAR, params, n) for n in range(2, 14)}
    _stash(fields[8])
    gaps = {
        n: abs(fields[n].root_value - fields[n + 5].root_value) for n in range(2, 9)
    }
    ok = all(gaps[n] <= 3.0**-n for n in gaps)
    _report("2", ok, "max slack " + f"{max(gaps[n] * 3.0**n for n in gaps):.3f} of bound")
    for n, gap in gaps.items():
        assert gap <= 3.0**-n, f"n={n}: {gap} > {3.0 ** -n}"


def test_criterion_03_pure_average_worked_example():
    """alpha=0, beta=1, centred square: u_8(root) within 1e-3 of 1/12."""
    params = GameParams(3, 0.0, 1.0)
    field = build_un(QUADRATIC, params, 8)
    _stash(field)
    gap = abs(field.root_value - 1 / 12)
    _report("3", gap <= 1e-3, f"|root - 1/12| = {gap:.2e}")
    assert gap <= 1e-3


def test_criterion_04_pure_tug_worked_example():
    """alpha=1, beta=0, F(t)=t: root near 1/2 and exact mirror symmetry."""
    params = GameParams(3, 1.0, 0.0)
    n = 10
    field = build_un(LINEAR, params, n)
    _stash(field)
    root_gap = abs(field.root_value - 0.5)
    # digit reflection d -> 2-d reverses each level array; left-endpoint
    # sampling shifts the mirror identity by exactly 3^-n
    mirror_constant = 1.0 - 3.0**-n
    mirror_gap = max(
        float(np.abs(arr + arr[::-1] - mirror_constant).max()) for arr in field.levels
    )
    ok = root_gap <= 1e-3 and mirror_gap <= 1e-12
    _report("4", ok, f"|root - 1/2| = {root_gap:.2e}, mirror defect {mirror_gap:.2e}")
    assert root_gap <= 1e-3
    assert mirror_gap <= 1e-12


def test_criterion_05a_dimension_pure_average_exact():
    worst = max(
        abs(fatou_dimension(GameParams(m, 0.0, 1.0)).dimension - 1.0)
        for m in (3, 5, 10)
    )
    _report("5a", worst <= 1e-12, f"max |dim - 1| = {worst:.2e}")
    assert worst <= 1e-12


def test_criterion_05b_dimension_pure_tug_exact():
    expected = math.log(2 * math.sqrt(2)) / math.log(3)
    gap = abs(fatou_dimension(GameParams(3, 1.0, 0.0)).dimension - expected)
    _report("5b", gap <= 1e-12, f"|dim - log(2*sqrt(2))/log 3| = {gap:.2e}")
    assert gap <= 1e-12


def test_criterion_05c_dimension_matches_minimization_oracle():
    worst = 0.0
    for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
        for m in (3, 5, 10):
            params = GameParams(m, alpha, 1.0 - alpha)
            closed = fatou_dimension(params).objective
            oracle = kl_minimization_oracle(params, restarts=2, seed=17)
            worst = max(worst, abs(closed - oracle.min_value))
    _report("5c", worst <= 1e-6, f"max |closed form - oracle| = {worst:.2e}")
    assert worst <= 1e-6


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the dimension approaches (1+beta)/2 only at rate O(1/log m); at "
        "m = 10^4 the gap is 0.04-0.08 for every alpha > 0 on the grid, so "
        "the demanded 1e-2 tolerance is unattainable at this m (see the "
        "honest trend test in tests/test_analysis.py)"
    ),
)
def test_criterion_05d_dimension_large_m_within_tolerance():
    worst = 0.0
    for alpha in (0.25, 0.5, 0.75, 1.0):
        beta = 1.0 - alpha
        gap = abs(
            fatou_dimension(GameParams(10**4, alpha, beta)).dimension
            - (1.0 + beta) / 2.0
        )
        worst = max(worst, gap)
    _report("5d", worst <= 1e-2, f"max gap at m=1e4 is {worst:.3f}")
    assert worst <= 1e-2


def test_criterion_06_gap_ladder_round_trip():
    """rho = (1,4,1,8,1,16) recovered exactly; certified by the repeated
    rho=1 divergence rule; under 10 s."""
    params = GameParams(3, 0.5, 0.5)
    started = time.monotonic()
    U = SubsetSpec.parse("rho:1,4,1,8,1,16", 3)
    ladder = compute_rho(U, params, 6)
    report = analyze(U, params, k_max=6)
    elapsed = time.monotonic() - started
    ok = (
        ladder.rho == (1, 4, 1, 8, 1, 16)
        and ladder.p1_ok
        and ladder.p2_ok
        and report.verdict == VERDICT_UCP
        and "1" in report.verdict_reason
        and elapsed < 10.0
    )
    _report("6", ok, f"rho={ladder.rho}, verdict={report.verdict}, {elapsed:.2f}s")
    assert ladder.rho == (1, 4, 1, 8, 1, 16)
    assert ladder.p1_ok and ladder.p2_ok
    assert report.verdict == VERDICT_UCP
    assert "diverges" in report.verdict_reason
    assert elapsed < 10.0


def test_criterion_07_counterexample_soundness():
    """rho_k = k at alpha=beta=1/2: zero on U, residual <= 1e-10 to depth 21,
    bounded by the stage-maxima product."""
    params = GameParams(3, 0.5, 0.5)
    delta = params.delta
    pattern = RhoPattern((1,), "arithmetic", 1)
    field = build_counterexample(pattern, params, depth=21)
    assert field.eta[-1] == 21

    cert = field.residual_certificate(21)
    residual_ok = cert.max_abs_residual <= 1e-10

    # exact products, checked against a direct multiplication oracle
    direct = []
    product = 1.0
    for k in range(1, 7):
        product *= 1.0 / (1.0 - delta**k)
        direct.append(product)
    products_ok = all(
        abs(a - b) <= 1e-12 for a, b in zip(field.stage_maxima, direct)
    )
    bound_ok = field.max_built_value <= direct[-1] + 1e-9
    # the stage maxima rise toward the convergent infinite product
    increasing_ok = all(a < b for a, b in zip(field.stage_maxima, field.stage_maxima[1:]))
    infinite_product = 1.0
    for k in range(1, 200):
        infinite_product /= 1.0 - delta**k
    bounded_ok = field.max_built_value < infinite_product

    U = field.subset()
    member_samples = [
        Vertex(3, (0,)),
        Vertex(3, (1, 0, 0)),  # stage 2 below the untouched frontier
        Vertex(3, (2, 1, 2, 0, 0, 0)),  # stage 3
        Vertex(3, (0, 1, 1, 0, 0, 0)),  # stage 3 below the first member
    ]
    for v in member_samples:
        assert U.contains(v), v
    zero_ok = all(field.value(v) == 0.0 for v in member_samples)

    ok = residual_ok and products_ok and bound_ok and zero_ok and increasing_ok and bounded_ok
    _report(
        "7",
        ok,
        f"max residual {cert.max_abs_residual:.2e} over {cert.classes_checked} "
        f"vertex classes, sup {field.max_built_value:.6f}",
    )
    assert residual_ok and products_ok and bound_ok and zero_ok
    assert increasing_ok and bounded_ok


def test_criterion_08_game_solver_agreement():
    """Greedy tug-of-war advised by u_8 reproduces u_8(root) within noise
    plus truncation allowances; deterministic under the fixed seed."""
    params = GameParams(3, 0.5, 0.5)
    advice = build_un(LINEAR, params, 8)
    _stash(advice)
    seed = 12345
    args = (
        root(3),
        GreedyMaxStrategy(advice),
        GreedyMinStrategy(advice),
        LINEAR,
        params,
        20,
        100_000,
        seed,
    )
    estimate = estimate_value(*args)
    again = estimate_value(*args)
    deterministic = (estimate.mean, estimate.std_error) == (again.mean, again.std_error)
    allowance = (
        3 * estimate.std_error + truncation_error(LINEAR, params, 20) + 3.0**-8
    )
    gap = abs(estimate.mean - advice.root_value)
    ok = gap <= allowance and deterministic
    _report("8", ok, f"|MC - field| = {gap:.2e} <= {allowance:.2e}")
    assert deterministic
    assert gap <= allowance


def test_criterion_09_comparison_principle_suite():
    """100 random ordered boundary pairs keep their order at every vertex."""
    params = GameParams(3, 0.5, 0.5)
    rng = np.random.default_rng(2024)
    knots = np.arange(3**6 + 1) / 3**6
    violations = 0
    for trial in range(100):
        low = rng.uniform(-1.0, 1.0, knots.size)
        high = low + rng.uniform(0.0, 1.0, knots.size)
        field_low = build_un(BoundarySpec.tabulated(knots, low), params, 6)
        field_high = build_un(BoundarySpec.tabulated(knots, high), params, 6)
        if not compare_fields(field_low, field_high):
            violations += 1
        if trial == 0:
            _stash(field_low)
            _stash(field_high)
    _report("9", violations == 0, f"{violations} violations in 100 trials")
    assert violations == 0


def test_criterion_10_maximum_principle_everywhere():
    """Every interior value of every field built in this suite lies between
    the min and max of its children."""
    fields = list(_FIELD_STASH)
    params = GameParams(3, 0.5, 0.5)
    if len(fields) < 3:  # the stash is empty when this test runs alone
        fields += [
            build_un(LINEAR, params, 6),
            build_un(QUADRATIC, GameParams(3, 1.0, 0.0), 6),
        ]
    violations = 0
    checked = 0
    for field in fields:
        m = field.params.m
        for k in range(field.n):
            children = field.levels[k + 1].reshape(-1, m)
            lo = children.min(axis=1) - 1e-12
            hi = children.max(axis=1) + 1e-12
            checked += field.levels[k].size
            violations += int(np.sum((field.levels[k] < lo) | (field.levels[k] > hi)))
    _report("10", violations == 0, f"{violations} violations over {checked} vertices")
    assert violations == 0


def test_criterion_11_structural_examples():
    """Cantor-type set fails density with the middle-interval witness; the
    last-digit set has uniform hitting with n=1; recurring full levels are
    certified by zero propagation."""
    params = GameParams(3, 0.5, 0.5)
    density = density_check(SubsetSpec.digit_avoiding(3, 1), 1)
    density_ok = (
        not density.dense_up_to
        and float(density.witness_gap.left) == pytest.approx(1 / 3)
        and float(density.witness_gap.right) == pytest.approx(2 / 3)
    )
    hitting = pa_check(SubsetSpec.last_digit(3, 0), n_max=4)
    hitting_ok = hitting.holds and hitting.n == 1
    full = analyze(SubsetSpec.full_levels(3, [2, 4, 8, 16], rule="doubling"), params)
    full_ok = full.verdict == VERDICT_UCP and "propagates" in full.verdict_reason
    ok = density_ok and hitting_ok and full_ok
    _report("11", ok, f"witness {density.witness_gap}, hitting n={hitting.n}")
    assert density_ok
    assert hitting_ok
    assert full_ok
