import hashlib
import re

import numpy as np
import pytest

from gdstbc.codebook import Codebook
from gdstbc.design import (
    Grouping,
    _herm_products,
    abba,
    c1_design,
    canonical_grouping,
    construct_design,
    doubling,
    evaluate,
    render,
    render_text,
    scalar_design,
    verify_doubling_blocks,
    verify_group_decodable,
)
from gdstbc.signalset import construct_signal_set

from oracles import int_anticommutes, int_group_witness, int_herm_product

ALAMOUTI = [["x1", "-x2*"], ["x2", "x1*"]]

FOUR_ANTENNA = [
    ["x1", "x2", "-x3*", "-x4*"],
    ["x2", "x1", "-x4*", "-x3*"],
    ["x3", "x4", "x1*", "x2*"],
    ["x4", "x3", "x2*", "x1*"],
]


#: SHA-256 of construct_design(lam).weight_stack.tobytes(): every codeword,
#: coordinate table and verdict is built from these bytes.
WEIGHT_SHA256 = {
    1: "647b8e1dd4d91546c9679a56b1fb3bed1ba0240322515632b39a0078b1b30364",
    2: "cea125d9fdf1c4e45e036b98a851e8757d49ba8c2ebd458c5b3ce599808e3714",
    3: "bae0cd7614ac2ee221ad235fd2bff75f5655694751785e33ac025a576eede800",
    4: "d8168105989d5fdfbb46e2ad44586c392b3a288720d698914baeb58e77a14989",
    5: "43a7ad26f4a0981c567e23b933c6ce99fefbd93f36d6cceceb8525443aaf1cbf",
    6: "7fa729a0ba7d18dcfcfe4602c9918da7dca3d3fc9b33dcf51624a4747c747a41",
}


def symbolic_value(entry: str, z: np.ndarray) -> complex:
    """Value of a rendered entry such as '-x3*' at the complex vector z."""
    if entry == "0":
        return 0
    minus, m, star = re.fullmatch(r"(-?)x(\d+)(\*?)", entry).groups()
    v = z[int(m) - 1]
    return (-1 if minus else 1) * (np.conj(v) if star else v)


class TestBlockConstructions:
    def test_abba_of_c1(self):
        d = abba(c1_design())
        assert render(d) == [
            ["x1", "x2", "x3", "x4"],
            ["x2", "x1", "x4", "x3"],
            ["x3", "x4", "x1", "x2"],
            ["x4", "x3", "x2", "x1"],
        ]

    def test_abba_of_scalar_is_c1(self):
        assert render(abba(scalar_design())) == render(c1_design())

    def test_abba_weight_blocks(self):
        # weights of the doubled design are block-diagonal copies for the
        # original variables and block-antidiagonal for the fresh ones
        base = c1_design()
        d = abba(base)
        n = base.n
        zero = np.zeros((n, n))
        for i in range(base.K):
            a_i = base.weight_stack[i]
            expect_old = np.block([[a_i, zero], [zero, a_i]])
            expect_new = np.block([[zero, a_i], [a_i, zero]])
            assert np.array_equal(evaluate(d, np.eye(d.K)[i]), expect_old)
            assert np.array_equal(evaluate(d, np.eye(d.K)[base.K + i]), expect_new)

    def test_doubling_of_scalar_is_alamouti(self):
        assert render(doubling(scalar_design())) == ALAMOUTI

    def test_doubling_of_c1(self):
        assert render(doubling(c1_design())) == FOUR_ANTENNA

    def test_doubling_doubles_size_and_variables(self):
        base = c1_design()
        d = doubling(base)
        assert d.n == 2 * base.n
        assert d.K == 2 * base.K


class TestConstructDesign:
    def test_lambda_one_is_alamouti(self):
        assert render(construct_design(1)) == ALAMOUTI

    def test_lambda_two_matches_display(self):
        assert render(construct_design(2)) == FOUR_ANTENNA

    def test_lambda_three_shape(self):
        d = construct_design(3)
        assert d.n == 8 and d.num_complex == 8 and d.K == 16

    @pytest.mark.parametrize("lam", [1, 2, 3, 4, 5])
    def test_size_formulas(self, lam):
        d = construct_design(lam)
        assert d.n == 2 ** lam
        assert d.K == 2 ** (lam + 1)

    def test_rejects_bad_lambda(self):
        for bad in (0, -1, 7):
            with pytest.raises(ValueError):
                construct_design(bad)

    def test_weight_entries_are_small_gaussian_integers(self):
        # the exactness argument of the float64 checks rests on this
        for lam in (1, 2, 3, 4, 5, 6):
            w = construct_design(lam).weight_stack
            assert w.dtype == np.complex128
            assert set(np.unique(w).tolist()) <= {0, 1, -1, 1j, -1j}

    @pytest.mark.parametrize("lam", [1, 2, 3, 4, 5, 6])
    def test_weight_bytes_are_frozen(self, lam):
        w = construct_design(lam).weight_stack
        assert hashlib.sha256(w.tobytes()).hexdigest() == WEIGHT_SHA256[lam]

    @pytest.mark.parametrize("lam", [1, 2, 3, 4, 5, 6])
    def test_render_evaluates_like_the_weights(self, lam):
        d = construct_design(lam)
        rng = np.random.default_rng(lam)
        z = rng.standard_normal(d.num_complex) + 1j * rng.standard_normal(d.num_complex)
        x = np.column_stack([z.real, z.imag]).ravel()  # [x1I, x1Q, x2I, ...]
        sym = np.array([[symbolic_value(e, z) for e in row] for row in render(d)])
        assert np.array_equal(sym, evaluate(d, x))

    def test_render_text_shape(self):
        text = render_text(construct_design(2))
        assert len(text.splitlines()) == 4


class TestEvaluate:
    def test_zero_vector(self):
        d = construct_design(2)
        assert np.array_equal(evaluate(d, np.zeros(d.K)), np.zeros((4, 4)))

    @pytest.mark.parametrize("lam", [1, 2, 3, 4])
    def test_unit_vectors_reproduce_weights(self, lam):
        d = construct_design(lam)
        for i in range(d.K):
            assert np.array_equal(evaluate(d, np.eye(d.K)[i]), d.weight_stack[i])

    def test_x1_real_one_is_identity(self):
        # x1 = 1 sits on the diagonal of both diagonal blocks
        d = construct_design(2)
        x = np.zeros(d.K)
        x[0] = 1.0
        assert np.array_equal(evaluate(d, x), np.eye(4))

    def test_alamouti_weights(self):
        d = construct_design(1)
        expected = [
            np.eye(2),
            np.array([[1j, 0], [0, -1j]]),
            np.array([[0, -1], [1, 0]]),
            np.array([[0, 1j], [1j, 0]]),
        ]
        for i, e in enumerate(expected):
            assert np.array_equal(d.weight_stack[i], e)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            evaluate(construct_design(2), np.zeros(7))


class TestGrouping:
    def test_lambda_two_groups(self):
        grp = canonical_grouping(construct_design(2))
        # {x1I, x2I}, {x1Q, x2Q}, {x3I, x4I}, {x3Q, x4Q} in 0-based real slots
        assert grp.groups == ((0, 2), (1, 3), (4, 6), (5, 7))

    def test_lambda_one_singletons(self):
        grp = canonical_grouping(construct_design(1))
        assert grp.groups == ((0,), (1,), (2,), (3,))

    def test_lambda_three_group_size(self):
        grp = canonical_grouping(construct_design(3))
        assert all(len(g) == 4 for g in grp.groups)
        assert grp.covers(16)

    def test_permutation_covers_all_indices(self):
        grp = canonical_grouping(construct_design(3))
        assert sorted(grp.permutation().tolist()) == list(range(16))

    def test_rejects_overlapping_groups(self):
        with pytest.raises(ValueError):
            Grouping(groups=((0, 1), (1, 2)))

    def test_rejects_wrong_count(self):
        # g is the number of groups; codebooks take four-group partitions only
        grp = Grouping(groups=((0, 1, 2, 3), (4, 5, 6, 7)))
        assert grp.g == 2 and canonical_grouping(construct_design(2)).g == 4
        with pytest.raises(ValueError, match="four-group partitions"):
            Codebook(construct_design(2), construct_signal_set(2, 16), grp)


class TestGroupDecodability:
    @pytest.mark.parametrize("lam", [1, 2, 3, 4, 5, 6])
    def test_canonical_grouping_verifies(self, lam):
        d = construct_design(lam)
        assert verify_group_decodable(d, canonical_grouping(d)) is True

    def test_alamouti_two_group_reading(self):
        # coarser split {x1I, x1Q} vs {x2I, x2Q} also decodes
        d = construct_design(1)
        grp = Grouping(groups=((0, 1), (2, 3)))
        assert verify_group_decodable(d, grp) is True

    def test_scrambled_grouping_fails(self):
        # putting x1I with x2Q and x1Q with x2I breaks anticommutation
        d = construct_design(2)
        grp = Grouping(groups=((0, 3), (1, 2), (4, 6), (5, 7)))
        assert verify_group_decodable(d, grp, return_witness=True) == (False, (0, 2))

    def test_same_group_pairs_need_not_anticommute(self):
        d = construct_design(2)
        grp = canonical_grouping(d)
        i, j = grp.groups[0][0], grp.groups[0][1]  # x1I and x2I
        assert not int_anticommutes(d.weight_stack[i], d.weight_stack[j])

    @pytest.mark.parametrize("lam", [1, 2, 3, 4])
    def test_float_products_equal_int64_oracle(self, lam):
        # entries are tiny Gaussian integers, so the BLAS products are exact
        w = construct_design(lam).weight_stack
        for i in range(len(w)):
            p = _herm_products(w[i], w)
            for j in range(len(w)):
                re, im = int_herm_product(w[i], w[j])
                assert np.array_equal(p[j].real, re) and np.array_equal(p[j].imag, im)

    @pytest.mark.parametrize("lam", [2, 3, 4])
    def test_verdict_and_witness_match_oracle_on_random_partitions(self, lam):
        d = construct_design(lam)
        canon = canonical_grouping(d).groups
        rng = np.random.default_rng(lam)
        for t in range(40):
            if t % 4 == 0:
                # the canonical partition, groups and members reordered: passes
                groups = tuple(tuple(rng.permutation(canon[k]).tolist())
                               for k in rng.permutation(4))
            else:
                perm = rng.permutation(d.K).tolist()
                cuts = sorted(rng.choice(np.arange(1, d.K), 3, replace=False).tolist())
                groups = tuple(tuple(perm[a:b]) for a, b in zip([0, *cuts], [*cuts, d.K]))
            witness = int_group_witness(d.weight_stack, groups)
            got = verify_group_decodable(d, Grouping(groups=groups), return_witness=True)
            assert got == (witness is None, witness)

    def test_rejects_non_partition(self):
        d = construct_design(1)
        grp = Grouping(groups=((0, 1), (2,)))
        with pytest.raises(ValueError):
            verify_group_decodable(d, grp)


class TestDoublingBlocks:
    @pytest.mark.parametrize("lam", [1, 2, 3, 4, 5, 6])
    def test_constructed_designs_pass(self, lam):
        assert verify_doubling_blocks(construct_design(lam)) is True

    def test_non_doubling_designs_fail(self):
        # abba layout [[A, B], [B, A]] is not [[A, -B^H], [B, A^H]]
        assert verify_doubling_blocks(abba(c1_design())) is False
        assert verify_doubling_blocks(c1_design()) is False
        assert verify_doubling_blocks(scalar_design()) is False

    def test_non_commuting_blocks_fail(self):
        # doubling the Alamouti design keeps the layout, but its blocks
        # (the Alamouti weights) anticommute instead of commuting
        assert verify_doubling_blocks(doubling(doubling(scalar_design()))) is False

    def test_determinant_identity_on_random_differences(self):
        d = construct_design(3)
        h = d.n // 2
        rng = np.random.default_rng(8)
        for _ in range(20):
            ds = evaluate(d, rng.standard_normal(d.K))
            da, db = ds[:h, :h], ds[h:, :h]
            det_s = np.linalg.det(ds)
            assert det_s == pytest.approx(np.linalg.det(da @ da.conj().T + db.conj().T @ db),
                                          rel=1e-9)
            bound = max(abs(np.linalg.det(da)) ** 2, abs(np.linalg.det(db)) ** 2) ** 2
            assert abs(det_s) ** 2 >= bound * (1 - 1e-9)
