"""Row sums, diamond means, local relation rules, embeddings, multiples."""

import weakref
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import oracle_embed, oracle_row_sums, oracle_sweep, walk_rim
from rascal import (
    IDENTITY_SWEEPS,
    GrtParams,
    InapplicableCheckError,
    ashley_check,
    ashley_mod_check,
    ashley_mod_sweep,
    closed_form_entry,
    column_diff_check,
    embed_in_rascal,
    even_diamond_check,
    generate_closed_form,
    major_diagonal,
    multiple_of_rascal,
    odd_diamond_check,
    row_sum_formula,
    row_sum_sweep,
    t_meg_check,
    t_meg_sweep,
)

RASCAL = GrtParams(1, 1, 0, 0)
W = GrtParams(1, 5, 2, 3)

# Reconstructed so the four 5-term rules all read 99 at (r, k) = (3, 3):
# neighbors 82, 76, 63, 50, 35, 26, 20, 15 and diagonal factor -9.
NINETY_NINE = GrtParams(15, 4, 11, 5)

# Reconstructed so the adjacent-column chain at (4, 3) reads
# 82 - 76 = 50 - 44 = 26 - 20 = 10 - 4 = 6.
CHAIN_OF_SIX = GrtParams(3, 4, 1, 7)

params_st = st.builds(GrtParams, *[st.integers(-10, 10)] * 4)


def bump(params, cell):
    """Entry source equal to the closed form except +1 at one cell."""

    def entry(r, k):
        value = closed_form_entry(params, r, k)
        return value + 1 if (r, k) == cell else value

    return entry


def diagonal_of(entry):
    """Diagonal source T(r, 0..count-1) read from an (r, k) entry source."""
    return lambda r, count: [entry(r, k) for k in range(count)]


class TestRowSums:
    def test_rascal_row_four(self):
        assert row_sum_formula(RASCAL, 4) == 15

    def test_row_zero_is_apex(self):
        assert row_sum_formula(GrtParams(-7, 3, 2, 5), 0) == -7

    def test_w_row_two(self):
        assert row_sum_formula(W, 2) == 23

    def test_rejects_negative_row(self):
        with pytest.raises(ValueError):
            row_sum_formula(RASCAL, -1)

    @given(params=params_st, n=st.integers(0, 30))
    def test_matches_direct_summation(self, params, n):
        grid = generate_closed_form(params, n + 1)
        assert row_sum_formula(params, n) == sum(grid.rows[n])


class TestOddDiamond:
    def test_rascal_rim_mean_is_fifty(self):
        assert odd_diamond_check(RASCAL, 6, 6, 1).holds
        rim = walk_rim(6, 6, 3)
        total = sum(1 + r * k for r, k in rim)
        assert total == 400
        assert Fraction(total, len(rim)) == 50
        assert closed_form_entry(RASCAL, 7, 7) == 50

    def test_constant_triangle_trivial(self):
        assert odd_diamond_check(GrtParams(4, 0, 0, 0), 3, 5, 2).holds

    def test_w_at_apex(self):
        assert odd_diamond_check(W, 0, 0, 2).holds

    def test_half_must_be_positive(self):
        with pytest.raises(ValueError):
            odd_diamond_check(W, 0, 0, 0)

    @given(
        params=params_st,
        top_r=st.integers(0, 6),
        top_k=st.integers(0, 6),
        half=st.integers(1, 3),
    )
    def test_rim_mean_equals_center(self, params, top_r, top_k, half):
        assert odd_diamond_check(params, top_r, top_k, half).holds
        rim = walk_rim(top_r, top_k, 2 * half + 1)
        assert len(rim) == 8 * half
        mean = Fraction(sum(closed_form_entry(params, r, k) for r, k in rim), len(rim))
        assert mean == closed_form_entry(params, top_r + half, top_k + half)


class TestEvenDiamond:
    def test_n_one_compares_diamond_with_itself(self):
        assert even_diamond_check(W, 2, 3, 1).holds
        assert even_diamond_check(W, 0, 0, 1).holds

    def test_rascal_inner_top_two_three(self):
        assert even_diamond_check(RASCAL, 2, 3, 2).holds

    def test_inner_top_three_three(self):
        assert even_diamond_check(GrtParams(2, 2, 3, 1), 3, 3, 3).holds

    def test_rejects_tops_too_close_to_the_edges(self):
        with pytest.raises(ValueError):
            even_diamond_check(RASCAL, 1, 5, 3)

    @given(params=params_st, n=st.integers(1, 3), data=st.data())
    def test_outer_rim_mean_equals_inner_mean(self, params, n, data):
        top_r = data.draw(st.integers(n - 1, n + 5))
        top_k = data.draw(st.integers(n - 1, n + 5))
        assert even_diamond_check(params, top_r, top_k, n).holds
        rim = walk_rim(top_r - (n - 1), top_k - (n - 1), 2 * n)
        assert len(rim) == 8 * n - 4
        outer = Fraction(sum(closed_form_entry(params, r, k) for r, k in rim), len(rim))
        inner_cells = [
            (top_r, top_k),
            (top_r + 1, top_k),
            (top_r, top_k + 1),
            (top_r + 1, top_k + 1),
        ]
        inner = Fraction(sum(closed_form_entry(params, r, k) for r, k in inner_cells), 4)
        assert outer == inner


class TestAshley:
    def test_ninety_nine_instance(self):
        t = lambda r, k: closed_form_entry(NINETY_NINE, r, k)
        assert (t(3, 3), t(2, 3), t(3, 2), t(1, 2)) == (99, 82, 76, 50)
        assert (2 - 3) * NINETY_NINE.d - NINETY_NINE.d2 == -9
        assert 82 + 76 - 50 - 9 == 99
        assert ashley_check(NINETY_NINE, 3, 3).holds

    def test_constant_triangle_reduces_to_tautology(self):
        assert ashley_check(GrtParams(6, 0, 0, 0), 2, 1).holds

    def test_w_instance(self):
        assert ashley_check(W, 3, 2).holds

    def test_index_guards(self):
        with pytest.raises(ValueError):
            ashley_check(W, 1, 1)
        with pytest.raises(ValueError):
            ashley_check(W, 2, 0)

    @given(params=params_st, r=st.integers(2, 8), k=st.integers(1, 8))
    def test_holds_everywhere(self, params, r, k):
        assert ashley_check(params, r, k).holds


class TestAshleyMods:
    def test_ninety_nine_instances(self):
        t = lambda r, k: closed_form_entry(NINETY_NINE, r, k)
        assert (t(1, 1), t(2, 2), t(1, 0), t(0, 1), t(0, 0)) == (35, 63, 20, 26, 15)
        assert 82 + 76 - 50 - 35 + 26 == 99
        assert 76 + 63 - 35 - 20 + 15 == 99
        assert 82 + 63 - 35 - 26 + 15 == 99
        for variant in (1, 2, 3):
            assert ashley_mod_check(NINETY_NINE, variant, 3, 3).holds

    def test_index_guards(self):
        with pytest.raises(ValueError):
            ashley_mod_check(W, 1, 2, 1)
        with pytest.raises(ValueError):
            ashley_mod_check(W, 2, 3, 2)
        with pytest.raises(ValueError):
            ashley_mod_check(W, 3, 2, 3)
        with pytest.raises(ValueError):
            ashley_mod_check(W, 4, 3, 3)

    @given(params=params_st, r=st.integers(3, 8), k=st.integers(3, 8))
    def test_hold_everywhere(self, params, r, k):
        assert ashley_mod_check(params, 1, r, k).holds
        assert ashley_mod_check(params, 2, r, k).holds
        assert ashley_mod_check(params, 3, r, k).holds


class TestColumnDiff:
    def test_chain_of_six(self):
        t = lambda r, k: closed_form_entry(CHAIN_OF_SIX, r, k)
        pairs = [((4, 3), (3, 4)), ((3, 2), (2, 3)), ((2, 1), (1, 2)), ((1, 0), (0, 1))]
        values = [(82, 76), (50, 44), (26, 20), (10, 4)]
        for ((ra, ka), (rb, kb)), (va, vb) in zip(pairs, values):
            assert (t(ra, ka), t(rb, kb)) == (va, vb)
            assert va - vb == 6
        for r, k in ((4, 3), (3, 2), (2, 1)):
            assert column_diff_check(CHAIN_OF_SIX, r, k).holds

    def test_rascal_difference_is_one(self):
        # 5 - 4 along row 4; equals k - r + 1 at (2, 2)
        assert closed_form_entry(RASCAL, 2, 2) - closed_form_entry(RASCAL, 1, 3) == 1
        assert column_diff_check(RASCAL, 2, 2).holds

    def test_symmetric_triangle_difference_zero(self):
        params = GrtParams(9, 0, 4, 4)
        for r in range(2, 6):
            for k in range(1, 6):
                assert closed_form_entry(params, r, k) - closed_form_entry(params, r - 1, k + 1) == 0
                assert column_diff_check(params, r, k).holds

    @given(params=params_st, r=st.integers(2, 8), k=st.integers(1, 8))
    def test_holds_everywhere(self, params, r, k):
        assert column_diff_check(params, r, k).holds

    @given(params=params_st, k=st.integers(1, 6), shift=st.integers(0, 4))
    def test_constant_along_the_anti_column(self, params, k, shift):
        # moving (r, k) -> (r+1, k+1) keeps k - r + 1 fixed, hence the difference
        r = 2 + shift
        base = closed_form_entry(params, r, k) - closed_form_entry(params, r - 1, k + 1)
        stepped = closed_form_entry(params, r + 1, k + 1) - closed_form_entry(params, r, k + 2)
        assert base == stepped
        assert base == params.d2 - params.d1 + (k - r + 1) * params.d


class TestTMeg:
    def test_twelve_equals_seven_plus_three_plus_six_minus_four(self):
        params = GrtParams(3, 1, 0, 0)
        t = lambda r, k: closed_form_entry(params, r, k)
        assert (t(3, 3), t(2, 2), t(0, 4), t(1, 3)) == (12, 7, 3, 6)
        assert 2 * (params.d - params.c) == -4
        assert 7 + 3 + 6 - 4 == 12
        assert t_meg_check(params, 3, 3).holds

    def test_multiple_of_base_triangle(self):
        params = GrtParams(5, 5, 0, 0)  # entries 5*(1 + r*k)
        for r in range(1, 7):
            for k in range(2, 7):
                assert t_meg_check(params, r, k).holds

    def test_all_zero(self):
        assert t_meg_check(GrtParams(0, 0, 0, 0), 2, 3).holds

    def test_rejects_nonzero_edge_differences(self):
        with pytest.raises(InapplicableCheckError):
            t_meg_check(W, 2, 3)

    def test_index_guards(self):
        with pytest.raises(ValueError):
            t_meg_check(GrtParams(3, 1, 0, 0), 0, 2)
        with pytest.raises(ValueError):
            t_meg_check(GrtParams(3, 1, 0, 0), 1, 1)

    @given(c=st.integers(-5, 5), d=st.integers(-5, 5), r=st.integers(1, 8), k=st.integers(2, 8))
    def test_holds_everywhere(self, c, d, r, k):
        assert t_meg_check(GrtParams(c, d, 0, 0), r, k).holds


class TestMutationSensitivity:
    CASES = [
        (ashley_check, [(0, 0), (-1, 0), (0, -1), (-2, -1)]),
        (
            lambda p, r, k, entry=None: ashley_mod_check(p, 1, r, k, entry),
            [(0, 0), (-1, 0), (0, -1), (-2, -1), (-2, -2), (-3, -2)],
        ),
        (
            lambda p, r, k, entry=None: ashley_mod_check(p, 2, r, k, entry),
            [(0, 0), (0, -1), (-1, -1), (-2, -2), (-2, -3), (-3, -3)],
        ),
        (
            lambda p, r, k, entry=None: ashley_mod_check(p, 3, r, k, entry),
            [(0, 0), (-1, 0), (-1, -1), (-2, -2), (-3, -2), (-3, -3)],
        ),
        (column_diff_check, [(0, 0), (-1, 1), (-1, -1), (-2, 0)]),
    ]

    @pytest.mark.parametrize("check_fn, offsets", CASES)
    def test_single_entry_bump_breaks_check(self, check_fn, offsets):
        r, k = 5, 4
        for params in (W, GrtParams(2, 2, 3, 1), NINETY_NINE):
            assert check_fn(params, r, k).holds
            for dr, dk in offsets:
                entry = bump(params, (r + dr, k + dk))
                assert not check_fn(params, r, k, entry=entry).holds

    def test_bump_breaks_tmeg(self):
        params = GrtParams(3, 1, 0, 0)
        r, k = 5, 4
        assert t_meg_check(params, r, k).holds
        for cell in [(r, k), (r - 1, k - 1), (0, r + k - 2), (1, r + k - 3)]:
            assert not t_meg_check(params, r, k, entry=bump(params, cell)).holds


class TestEmbedding:
    def test_base_triangle_embeds_at_apex(self):
        assert embed_in_rascal(RASCAL) == (0, 0)

    def test_offset_embedding(self):
        params = GrtParams(7, 1, 2, 3)
        assert embed_in_rascal(params) == (2, 3)
        assert closed_form_entry(params, 0, 0) == 1 + 2 * 3
        for r in range(10):
            for k in range(10):
                assert closed_form_entry(params, r, k) == 1 + (2 + r) * (3 + k)

    def test_no_embedding_when_apex_condition_fails(self):
        assert embed_in_rascal(GrtParams(2, 1, 2, 3)) is None

    def test_no_embedding_when_d_is_not_one(self):
        assert embed_in_rascal(GrtParams(7, 2, 2, 3)) is None

    def test_algebraic_match_at_negative_offset_is_rejected(self):
        assert embed_in_rascal(GrtParams(-1, 1, -1, 2)) is None

    @given(d1=st.integers(0, 6), d2=st.integers(0, 6))
    def test_every_valid_offset_pair_embeds(self, d1, d2):
        params = GrtParams(1 + d1 * d2, 1, d1, d2)
        assert embed_in_rascal(params) == (d1, d2)

    @given(
        d=st.integers(0, 2),
        d1=st.integers(-2, 6),
        d2=st.integers(-2, 6),
        apex_shift=st.integers(-1, 1),
        window=st.integers(-1, 12),
    )
    def test_agrees_with_cell_by_cell_window(self, d, d1, d2, apex_shift, window):
        params = GrtParams(1 + d1 * d2 + apex_shift, d, d1, d2)
        assert embed_in_rascal(params, window) == oracle_embed(params, window)


class TestMultiple:
    def test_five_fold(self):
        assert multiple_of_rascal(GrtParams(5, 5, 0, 0)) == 5

    def test_base_triangle_is_one_fold(self):
        assert multiple_of_rascal(RASCAL) == 1

    def test_mismatched_c_and_d(self):
        assert multiple_of_rascal(GrtParams(2, 3, 0, 0)) is None
        assert closed_form_entry(GrtParams(2, 3, 0, 0), 1, 1) == 5  # not 2 * R(1,1) = 4

    def test_nonzero_edges_never_multiples(self):
        assert multiple_of_rascal(GrtParams(5, 5, 1, 0)) is None

    def test_scaling_window(self):
        params = GrtParams(5, 5, 0, 0)
        for r in range(10):
            for k in range(10):
                assert closed_form_entry(params, r, k) == 5 * (1 + r * k)


# zero-heavy, with negative values and the d1 = d2 = 0 family
_component = st.integers(-10, 10) | st.just(0)
sweep_params_st = st.builds(GrtParams, *[_component] * 4) | st.builds(
    lambda c, d: GrtParams(c, d, 0, 0), _component, _component
)


def _sweep_params(name, params):
    return GrtParams(params.c, params.d, 0, 0) if name == "tmeg" else params


class TestSweepsAgreeWithReference:
    """Each sweep evaluates the instances of the per-instance reference, in its order."""

    @pytest.mark.parametrize("name", list(IDENTITY_SWEEPS))
    @settings(deadline=None, max_examples=30)
    @given(params=sweep_params_st, depth=st.integers(1, 20), data=st.data())
    def test_count_and_first_failure(self, name, params, depth, data):
        params = _sweep_params(name, params)
        cell = data.draw(
            st.none() | st.tuples(st.integers(0, depth + 6), st.integers(0, 2 * depth)), label="bump"
        )
        if cell is None:
            sweep = IDENTITY_SWEEPS[name](params, depth)
            expected = oracle_sweep(name, params, depth)
        else:
            entry = bump(params, cell)
            sweep = IDENTITY_SWEEPS[name](params, depth, diagonal=diagonal_of(entry))
            expected = oracle_sweep(name, params, depth, entry)
        assert (sweep.name, sweep.instances, sweep.failure) == (name, *expected)

    @pytest.mark.parametrize("name", list(IDENTITY_SWEEPS))
    def test_every_single_bump(self, name):
        # every cell a sweep can read at depth 5, one at a time
        params = _sweep_params(name, GrtParams(2, 3, -1, 4))
        depth = 5
        failing = 0
        for cell in product(range(depth + 7), range(2 * depth + 1)):
            entry = bump(params, cell)
            sweep = IDENTITY_SWEEPS[name](params, depth, diagonal=diagonal_of(entry))
            assert (sweep.instances, sweep.failure) == oracle_sweep(name, params, depth, entry), cell
            failing += sweep.failure is not None
        assert failing > 0

    @settings(deadline=None)
    @given(params=sweep_params_st, depth=st.integers(0, 20))
    def test_row_sums(self, params, depth):
        sweep = row_sum_sweep(params, depth)
        count, failure, sums = oracle_row_sums(params, depth)
        assert (sweep.instances, sweep.failure, list(sweep.values)) == (count, failure, sums)

    @pytest.mark.parametrize("name", list(IDENTITY_SWEEPS))
    def test_keeps_a_bounded_window_of_diagonals(self, name):
        # memory grows with depth: at most 7 diagonals (the largest odd diamond) are alive at once
        params = _sweep_params(name, W)
        live, peak = set(), 0

        class Line(list):
            pass

        def diagonal(r, count):
            nonlocal peak
            line = Line(major_diagonal(params, r, count))
            live.add(id(line))
            weakref.finalize(line, live.discard, id(line))
            peak = max(peak, len(live))
            return line

        assert IDENTITY_SWEEPS[name](params, 40, diagonal=diagonal).failure is None
        assert peak <= 7

    def test_depth_zero_and_empty_domains(self):
        for name, sweep in IDENTITY_SWEEPS.items():
            params = _sweep_params(name, W)
            for depth in (0, 1, 2):
                assert sweep(params, depth).instances == oracle_sweep(name, params, depth)[0]

    def test_argument_errors(self):
        with pytest.raises(InapplicableCheckError, match="needs d1 = d2 = 0"):
            t_meg_sweep(W, 4)
        with pytest.raises(ValueError):
            ashley_mod_sweep(W, 4, 4)
        with pytest.raises(ValueError):
            IDENTITY_SWEEPS["odd-diamond"](W, -1)
        with pytest.raises(ValueError):
            row_sum_sweep(W, -1)
