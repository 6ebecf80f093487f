"""Row sums, diamond means, local relation rules, embeddings, multiples."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rascal.identities as identities
from helpers import oracle_embed, oracle_proof, oracle_row_sums, oracle_sweep, walk_rim
from rascal import (
    GrtParams,
    InapplicableCheckError,
    ashley_check,
    ashley_mod_check,
    closed_form_entry,
    column_diff_check,
    embed_in_rascal,
    even_diamond_check,
    generate_closed_form,
    multiple_of_rascal,
    odd_diamond_check,
    prove_identity,
    row_sum_formula,
    t_meg_check,
)
from rascal.identities import PROOF_GRIDS

RASCAL = GrtParams(1, 1, 0, 0)
W = GrtParams(1, 5, 2, 3)

# Reconstructed so the four 5-term rules all read 99 at (r, k) = (3, 3):
# neighbors 82, 76, 63, 50, 35, 26, 20, 15 and diagonal factor -9.
NINETY_NINE = GrtParams(15, 4, 11, 5)

# Reconstructed so the adjacent-column chain at (4, 3) reads
# 82 - 76 = 50 - 44 = 26 - 20 = 10 - 4 = 6.
CHAIN_OF_SIX = GrtParams(3, 4, 1, 7)

params_st = st.builds(GrtParams, *[st.integers(-10, 10)] * 4)


def _planted(monkeypatch, cell):
    """Make the checks read the closed form plus 1 at ``cell``."""
    monkeypatch.setattr(identities, "closed_form_entry", lambda p, r, k: closed_form_entry(p, r, k) + ((r, k) == cell))


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

    def test_numerator_always_a_multiple_of_six(self):
        # the numerator is linear in (c, d, d1, d2) with integer coefficients in n, so its value
        # mod 6 repeats with period 6 in n: six rows at the four unit vectors cover every case
        for n in range(6):
            for c, d, d1, d2 in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)):
                numerator = d * (n - 1) * n * (n + 1) + 3 * (d1 + d2) * n * (n + 1) + 6 * c * (n + 1)
                assert numerator % 6 == 0, (n, c, d, d1, d2)
                params = GrtParams(c, d, d1, d2)
                direct = sum(generate_closed_form(params, n + 1).rows[n])
                assert 6 * row_sum_formula(params, n) == numerator == 6 * direct

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
    """A +1 planted at any one cell an instance reads, through ``identities.closed_form_entry``, breaks it."""

    CASES = [
        (ashley_check, [(0, 0), (-1, 0), (0, -1), (-2, -1)]),
        (
            lambda p, r, k: ashley_mod_check(p, 1, r, k),
            [(0, 0), (-1, 0), (0, -1), (-2, -1), (-2, -2), (-3, -2)],
        ),
        (
            lambda p, r, k: ashley_mod_check(p, 2, r, k),
            [(0, 0), (0, -1), (-1, -1), (-2, -2), (-2, -3), (-3, -3)],
        ),
        (
            lambda p, r, k: ashley_mod_check(p, 3, r, k),
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
                with pytest.MonkeyPatch.context() as monkeypatch:
                    _planted(monkeypatch, (r + dr, k + dk))
                    assert not check_fn(params, r, k).holds

    def test_bump_breaks_tmeg(self):
        params = GrtParams(3, 1, 0, 0)
        r, k = 5, 4
        assert t_meg_check(params, r, k).holds
        for cell in [(r, k), (r - 1, k - 1), (0, r + k - 2), (1, r + k - 3)]:
            with pytest.MonkeyPatch.context() as monkeypatch:
                _planted(monkeypatch, cell)
                assert not t_meg_check(params, r, k).holds


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
        assert embed_in_rascal(params) == oracle_embed(params, window)


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


# zero-heavy, with negative values, values of 10^6 and more, and the d = 0 and d1 = d2 = 0 families
_component = st.integers(-10, 10) | st.just(0) | st.integers(10**6, 10**40) | st.integers(-(10**40), -(10**6))
proof_params_st = (
    st.builds(GrtParams, *[_component] * 4)
    | st.builds(lambda c, d1, d2: GrtParams(c, 0, d1, d2), _component, _component, _component)
    | st.builds(lambda c, d: GrtParams(c, d, 0, 0), _component, _component)
)


def _proof_params(name, params):
    return GrtParams(params.c, params.d, 0, 0) if name == "tmeg" else params


def _grid(name):
    """The points of ``name``'s proof grid, in the prover's order: degree bound + 1 values per variable."""
    return list(product(*(range(first, first + degree + 1) for first, degree in PROOF_GRIDS[name][1])))


class TestSweepsAgreeWithReference:
    """The proofs agree with the reference walks of ``helpers``: over each proof grid and up to a depth."""

    @pytest.mark.parametrize("name", list(PROOF_GRIDS))
    @settings(deadline=None, max_examples=40)
    @given(params=proof_params_st, data=st.data())
    def test_count_and_first_failure(self, name, params, data):
        params = _proof_params(name, params)
        proof = prove_identity(name, params)
        assert proof == oracle_proof(name, params) == (len(_grid(name)), None)
        assert oracle_sweep(name, params, 10)[1] is None
        cell = data.draw(st.tuples(st.integers(0, 9), st.integers(0, 9)), label="bump")
        with pytest.MonkeyPatch.context() as monkeypatch:
            _planted(monkeypatch, cell)
            assert prove_identity(name, params) == oracle_proof(name, params)

    @pytest.mark.parametrize("name", list(PROOF_GRIDS))
    def test_every_single_bump(self, name):
        # a bump that only one grid point's evaluation sees fails the proof at that point
        params = _proof_params(name, GrtParams(2, 3, -1, 4))
        check, axes = PROOF_GRIDS[name]
        for index, point in enumerate(_grid(name)):
            read = []
            with pytest.MonkeyPatch.context() as monkeypatch:
                monkeypatch.setattr(
                    identities, "closed_form_entry", lambda p, r, k: read.append((r, k)) or closed_form_entry(p, r, k)
                )
                assert check(params, *point).holds
            for cell in read:
                with pytest.MonkeyPatch.context() as monkeypatch:
                    _planted(monkeypatch, cell)
                    expected = check(params, *point)
                if not expected.holds:
                    break
            else:  # n = 1 compares the inner 2-diamond with itself, whatever its entries
                assert (name, point[2]) == ("even-diamond", 1)
                continue
            assert expected.first_failure[0] == point

            def planted_at_point(params, *at, point=point, cell=cell):
                with pytest.MonkeyPatch.context() as monkeypatch:
                    if at == point:
                        _planted(monkeypatch, cell)
                    return check(params, *at)

            with pytest.MonkeyPatch.context() as monkeypatch:
                monkeypatch.setitem(PROOF_GRIDS, name, (planted_at_point, axes))
                assert prove_identity(name, params) == (index + 1, expected), point

    @settings(deadline=None)
    @given(params=proof_params_st, depth=st.integers(0, 20))
    def test_row_sums(self, params, depth):
        # the formula, as props lists it, against the rows generated and summed up to the depth
        count, failure, sums = oracle_row_sums(params, depth)
        assert (count, failure) == (depth + 1, None)
        assert oracle_sweep("rowsums", params, depth) == (depth + 1, None)
        assert [row_sum_formula(params, n) for n in range(depth + 1)] == sums

    def test_argument_errors(self):
        with pytest.raises(InapplicableCheckError, match="needs d1 = d2 = 0"):
            prove_identity("tmeg", W)
        with pytest.raises(KeyError):
            prove_identity("embed", W)

    @pytest.mark.parametrize("name", list(PROOF_GRIDS))
    def test_unit_parameters(self, name):
        # both sides of every identity are linear forms in (c, d, d1, d2) (TestProofGrids'
        # test_homogeneous_in_the_parameters), so a proof at each unit vector proves it for all
        fields = ("c", "d") if name == "tmeg" else GrtParams._fields
        for field in fields:
            unit = GrtParams(**{other: int(other == field) for other in GrtParams._fields})
            assert prove_identity(name, unit) == (len(_grid(name)), None), unit


class TestProofGrids:
    """Each grid is large enough: both sides of every identity have at most its degree bounds."""

    @staticmethod
    def sides(sympy, name):
        """(index symbols, [(lhs, rhs), ...]) of ``name`` over the closed form, means' denominators cleared."""
        c, d, d1, d2 = sympy.symbols("c d d1 d2")
        if name == "tmeg":
            d1 = d2 = 0
        i = sympy.Dummy("i")

        def t(r, k):
            return c + k * d1 + r * d2 + r * k * d

        def rim(top_r, top_k, side):
            s = side - 1  # rim cells have an offset 0 or s in r or in k
            corners_and_sides = sympy.summation(t(top_r + i, top_k) + t(top_r + i, top_k + s), (i, 0, s))
            return corners_and_sides + sympy.summation(t(top_r, top_k + i) + t(top_r + s, top_k + i), (i, 1, s - 1))

        if name in ("odd-diamond", "even-diamond"):
            if name == "odd-diamond":
                a, b, half = variables = sympy.symbols("top_r top_k half", integer=True, positive=True)
                return variables, [(rim(a, b, 2 * half + 1), 8 * half * t(a + half, b + half))]
            a, b, n = variables = sympy.symbols("top_r top_k n", integer=True, positive=True)
            inner = t(a, b) + t(a + 1, b) + t(a, b + 1) + t(a + 1, b + 1)
            return variables, [(4 * rim(a - (n - 1), b - (n - 1), 2 * n), (8 * n - 4) * inner)]
        if name == "rowsums":
            n = sympy.Symbol("n", integer=True, nonnegative=True)
            formula = d * n**3 / 6 + (d1 + d2) * n**2 / 2 + (c + (d1 + d2) / 2 - d / 6) * n + c
            return (n,), [(formula, sympy.summation(t(i, n - i), (i, 0, n)))]
        r, k = variables = sympy.symbols("r k", integer=True, positive=True)
        pairs = {
            "ashley": [(t(r, k), t(r - 1, k) + t(r, k - 1) - t(r - 2, k - 1) + (2 - k) * d - d2)],
            "ashley-mod1": [(t(r, k), t(r - 1, k) + t(r, k - 1) - t(r - 2, k - 1) - t(r - 2, k - 2) + t(r - 3, k - 2))],
            "ashley-mod2": [(t(r, k), t(r, k - 1) + t(r - 1, k - 1) - t(r - 2, k - 2) - t(r - 2, k - 3) + t(r - 3, k - 3))],
            "ashley-mod3": [(t(r, k), t(r - 1, k) + t(r - 1, k - 1) - t(r - 2, k - 2) - t(r - 3, k - 2) + t(r - 3, k - 3))],
            "column-diff": [
                (t(r, k) - t(r - 1, k + 1), d2 - d1 + (k - r + 1) * d),
                (t(r - 1, k - 1) - t(r - 2, k), d2 - d1 + (k - r + 1) * d),
            ],
            "tmeg": [(t(r, k), t(r - 1, k - 1) + t(0, r + k - 2) + t(1, r + k - 3) + 2 * (d - c))],
        }
        return variables, pairs[name]

    @pytest.mark.parametrize("name", list(PROOF_GRIDS))
    def test_degree_bounds(self, name):
        sympy = pytest.importorskip("sympy")
        variables, pairs = self.sides(sympy, name)
        bounds = [degree for _, degree in PROOF_GRIDS[name][1]]
        assert len(variables) == len(bounds)
        for lhs, rhs in pairs:
            assert sympy.expand(lhs - rhs) == 0
            for side in (lhs, rhs):
                poly = sympy.Poly(sympy.expand(side), *variables)
                assert all(poly.degree(v) <= bound for v, bound in zip(variables, bounds)), (name, side)

    @pytest.mark.parametrize("name", list(PROOF_GRIDS))
    def test_homogeneous_in_the_parameters(self, name):
        # each side is a linear form in the parameters, whose coefficients are polynomials in the indices
        sympy = pytest.importorskip("sympy")
        _, pairs = self.sides(sympy, name)
        parameters = sympy.symbols("c d d1 d2")
        for side in (side for pair in pairs for side in pair):
            poly = sympy.Poly(sympy.expand(side), *parameters)
            assert poly.is_homogeneous and poly.total_degree() == 1, (name, side)


class TestClosedFormShortcuts:
    """The algebra the closed-form shortcuts rest on, expanded to zero for every index and parameter."""

    def test_identities_expand_to_zero(self):
        sympy = pytest.importorskip("sympy")
        c, d, d1, d2, r, k, n = sympy.symbols("c d d1 d2 r k n")

        def t(r, k, c=c, d=d):
            return c + k * d1 + r * d2 + r * k * d

        north, east, west, south = t(r - 1, k - 1), t(r, k - 1), t(r - 1, k), t(r, k)
        identities = {
            # closed_form_rows: row n is row n - 1 with major diagonal r stepped by its common
            # difference, between the edge entries T(0, n) and T(n, 0)
            "major step": (t(r, k + 1) - t(r, k), d1 + r * d),
            "major edge": (t(0, n), c + n * d1),
            "minor edge": (t(n, 0), c + n * d2),
            # the classify fold's closed-form prefix and predict_multiplication_failure: every
            # diamond of the closed form obeys both rules, and a major diagonal is linear in k
            "addition rule": (south, east + west + d - north),
            "multiplication rule": (south * north, east * west + (c * d - d1 * d2)),
            "major diagonal": (t(r, k), (c + r * d2) + k * (d1 + r * d)),
            # embed_in_rascal: the Rascal triangle 1 + r*k shifted to offset (d1, d2)
            "embedding": (1 + (d1 + r) * (d2 + k), t(r, k, c=1 + d1 * d2, d=1)),
        }
        for name, (lhs, rhs) in identities.items():
            assert sympy.expand(lhs - rhs) == 0, name
