"""Acceptance gate: every criterion exact, one pass line per criterion.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
summary lines).  The sweep covers all 2401 parameter points with
c, d, d1, d2 in [-3, 3].
"""

import time
from fractions import Fraction

import pytest

import rascal.identities as identities
from helpers import sweep_params, u_style_grid, v_style_grid
from rascal import (
    VERDICT_ADDITION_ONLY,
    VERDICT_MULTIPLICATION_ONLY,
    Diamond,
    GrtParams,
    ashley_check,
    ashley_mod_check,
    boundary_from_params,
    classify,
    closed_form_entry,
    column_diff_check,
    detect_addition_rule,
    detect_multiplication_rule,
    embed_in_rascal,
    even_diamond_check,
    fit_grt,
    generate_by_addition,
    generate_by_multiplication,
    generate_closed_form,
    major_diagonal,
    minor_diagonal,
    mult_constant,
    multiple_of_rascal,
    odd_diamond_check,
    row_sum_formula,
    t_meg_check,
)
from rascal.cli import main

SWEEP = sweep_params(-3, 3)

RASCAL = GrtParams(1, 1, 0, 0)
W = GrtParams(1, 5, 2, 3)


def passed(number, description):
    print(f"PASS criterion {number:2d}: {description}")


def test_criterion_01_rascal_rows_via_cli(capsys):
    expected = "1\n1 1\n1 2 1\n1 3 3 1\n1 4 5 4 1\n1 5 7 7 5 1\n"
    start = time.perf_counter()
    for rule in ("closed", "add", "mul"):
        code = main(
            ["generate", "--c", "1", "--d", "1", "--d1", "0", "--d2", "0",
             "--rows", "6", "--rule", rule]
        )
        out = capsys.readouterr().out
        assert code == 0, rule
        assert out == expected, rule
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    with capsys.disabled():
        passed(1, f"six rows 1 / 1 1 / ... / 1 5 7 7 5 1 under all three rules ({elapsed:.3f}s)")


def test_criterion_02_three_way_generator_equivalence():
    start = time.perf_counter()
    multiplication_points = 0
    for params in SWEEP:
        closed = generate_closed_form(params, 12)
        boundary = boundary_from_params(params, 12)
        assert generate_by_addition(boundary, params.d) == closed, params
        if all(v != 0 for row in closed.rows for v in row):
            constant = mult_constant(params)
            assert generate_by_multiplication(boundary, constant) == closed, params
            multiplication_points += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    passed(
        2,
        "2401-point sweep, 12 rows: closed form == addition == multiplication "
        f"({multiplication_points} zero-free multiplication grids, {elapsed:.1f}s)",
    )


def test_criterion_03_product_identity_exact():
    for params in SWEEP:
        constant = mult_constant(params)
        for r in range(1, 9):
            for k in range(1, 9):
                east = closed_form_entry(params, r, k - 1)
                west = closed_form_entry(params, r - 1, k)
                south = closed_form_entry(params, r, k)
                north = closed_form_entry(params, r - 1, k - 1)
                assert east * west + constant == south * north, (params, r, k)
    passed(3, "east*west + (c*d - d1*d2) == south*north exactly, sweep x r,k <= 8")


def test_criterion_04_fit_round_trip_and_detectors():
    for params in SWEEP:
        grid = generate_closed_form(params, 8)
        assert fit_grt(grid) == params, params
        assert detect_addition_rule(grid).constant == params.d, params
        assert detect_multiplication_rule(grid).constant == mult_constant(params), params
    passed(4, "fit recovers every sweep point; detectors return d and c*d - d1*d2")


def test_criterion_05_worked_instances():
    two_one = generate_closed_form(GrtParams(2, 2, 3, 1), 6)
    assert detect_addition_rule(two_one).constant == 2
    assert detect_multiplication_rule(two_one).constant == 1

    w_grid = generate_closed_form(W, 6)
    assert detect_addition_rule(w_grid).constant == 5
    assert detect_multiplication_rule(w_grid).constant == -1
    assert major_diagonal(W, 0, 5) == [1, 3, 5, 7, 9]
    assert minor_diagonal(W, 0, 5) == [1, 4, 7, 10, 13]
    assert major_diagonal(W, 1, 4) == [4, 11, 18, 25]
    assert minor_diagonal(W, 1, 4) == [3, 11, 19, 27]
    assert major_diagonal(W, 2, 4) == [7, 19, 31, 43]
    assert minor_diagonal(W, 2, 4) == [5, 18, 31, 44]

    tm = GrtParams(3, 1, 0, 0)
    assert closed_form_entry(tm, 3, 3) == 12
    assert closed_form_entry(tm, 2, 2) == 7
    assert closed_form_entry(tm, 0, 4) == 3
    assert closed_form_entry(tm, 1, 3) == 6
    assert 7 + 3 + 6 + 2 * (tm.d - tm.c) == 12
    assert t_meg_check(tm, 3, 3).holds
    passed(5, "constants +2/+1 and +5/-1, six diagonal prefixes, 12 = 7 + 3 + 6 - 4")


def test_criterion_06_row_sum_formula():
    start = time.perf_counter()
    for params in SWEEP:
        grid = generate_closed_form(params, 41)
        for n in range(41):
            assert row_sum_formula(params, n) == sum(grid.rows[n]), (params, n)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    passed(6, f"formula == direct row summation for n <= 40, always integral ({elapsed:.1f}s)")


def test_criterion_07_diamond_patterns():
    rim = Diamond(6, 6, 3).boundary_cells()
    total = sum(1 + r * k for r, k in rim)
    assert total == 400
    assert Fraction(total, len(rim)) == 50
    assert closed_form_entry(RASCAL, 7, 7) == 50
    assert odd_diamond_check(RASCAL, 6, 6, 1).holds

    for params in SWEEP:
        for size in (1, 2, 3):
            assert odd_diamond_check(params, 0, 0, size).holds, params
            assert odd_diamond_check(params, 2, 5, size).holds, params
            assert even_diamond_check(params, 2, 2, size).holds, params
            assert even_diamond_check(params, 5, 3, size).holds, params
    passed(7, "odd rim means equal centers (incl. the 50 instance); even rim means equal inner means")


def test_criterion_08_local_rules_sweep_and_mutation():
    for params in SWEEP:
        for r in range(2, 9):
            for k in range(1, 9):
                assert ashley_check(params, r, k).holds, (params, r, k)
                assert column_diff_check(params, r, k).holds, (params, r, k)
        for r in range(3, 9):
            for k in range(2, 9):
                assert ashley_mod_check(params, 1, r, k).holds, (params, r, k)
            for k in range(3, 9):
                assert ashley_mod_check(params, 2, r, k).holds, (params, r, k)
                assert ashley_mod_check(params, 3, r, k).holds, (params, r, k)

    # single-entry mutation must break the matching check; the checks read their
    # entries through identities.closed_form_entry, so a +1 is planted there
    cases = [
        (ashley_check, [(0, 0), (-1, 0), (0, -1), (-2, -1)]),
        (lambda p, r, k: ashley_mod_check(p, 1, r, k),
         [(0, 0), (-1, 0), (0, -1), (-2, -1), (-2, -2), (-3, -2)]),
        (lambda p, r, k: ashley_mod_check(p, 2, r, k),
         [(0, 0), (0, -1), (-1, -1), (-2, -2), (-2, -3), (-3, -3)]),
        (lambda p, r, k: ashley_mod_check(p, 3, r, k),
         [(0, 0), (-1, 0), (-1, -1), (-2, -2), (-3, -2), (-3, -3)]),
        (column_diff_check, [(0, 0), (-1, 1), (-1, -1), (-2, 0)]),
    ]
    r, k = 5, 4
    for params in (W, GrtParams(2, 2, 3, 1)):
        for check_fn, offsets in cases:
            assert check_fn(params, r, k).holds
            for dr, dk in offsets:
                cell = (r + dr, k + dk)

                def entry(p, rr, kk, _cell=cell):
                    value = closed_form_entry(p, rr, kk)
                    return value + 1 if (rr, kk) == _cell else value

                with pytest.MonkeyPatch.context() as monkeypatch:
                    monkeypatch.setattr(identities, "closed_form_entry", entry)
                    assert not check_fn(params, r, k).holds, (params, cell)
    passed(8, "4-term, 5-term, and column rules hold for indices <= 8; every mutation is caught")


def test_criterion_09_negative_classification():
    u = classify(u_style_grid(6))
    assert u.verdict == VERDICT_ADDITION_ONLY
    assert u.addition.constant == 1
    first, second = u.multiplication.witnesses
    assert first.implied_constant != second.implied_constant

    v = classify(v_style_grid(6))
    assert v.verdict == VERDICT_MULTIPLICATION_ONLY
    assert v.multiplication.constant == 0
    first, second = v.addition.witnesses
    assert first.implied_constant != second.implied_constant
    passed(
        9,
        "addition-only and multiplication-only verdicts, each with two conflicting witness diamonds",
    )


def test_criterion_10_embedding_and_multiple():
    params = GrtParams(7, 1, 2, 3)
    assert embed_in_rascal(params) == (2, 3)
    for r in range(10):
        for k in range(10):
            assert closed_form_entry(params, r, k) == 1 + (2 + r) * (3 + k)

    scaled = GrtParams(5, 5, 0, 0)
    assert multiple_of_rascal(scaled) == 5
    for r in range(10):
        for k in range(10):
            assert closed_form_entry(scaled, r, k) == 5 * (1 + r * k)
    passed(10, "(7,1,2,3) embeds at (2, 3); (5,5,0,0) is the 5-fold multiple; 10x10 windows exact")
