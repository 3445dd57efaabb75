"""Numerical conventions the package relies on.

Floating work runs on NumPy directly (``@``, ``.conj().T``,
``np.linalg.det``, ``np.linalg.svd``); these tests pin the behaviour the
verifiers use against the naive oracles, plus the ``RANK_RTOL`` full-rank
rule.  The exact weight algebra is checked against the int64 oracle in
``test_design``.
"""

import numpy as np
import pytest

from gdstbc.codebook import RANK_RTOL

from oracles import cofactor_det, random_givens_unitary


def herm(a):
    return np.asarray(a).conj().T


def min_singular_value(a):
    return float(np.linalg.svd(a, compute_uv=False)[-1])


def is_full_rank(a):
    """The package's full-rank rule, as documented on RANK_RTOL."""
    s = np.linalg.svd(a, compute_uv=False)
    return bool(s[-1] > RANK_RTOL * max(1.0, float(s[0])))


class TestMatmul:
    def test_identity(self):
        m = np.array([[1 + 2j, 3], [0, 4 - 1j]])
        assert np.array_equal(np.eye(2) @ m, m)

    def test_permutation_involution(self):
        p = np.array([[0, 1], [1, 0]], dtype=complex)
        assert np.array_equal(p @ p, np.eye(2))

    def test_alamouti_gram(self):
        # S = [[x1, -x2*], [x2, x1*]] at x1 = 1+j, x2 = 1-j:
        # S^H S = (|x1|^2 + |x2|^2) I = 4 I
        x1, x2 = 1 + 1j, 1 - 1j
        s = np.array([[x1, -np.conj(x2)], [x2, np.conj(x1)]])
        assert np.allclose(herm(s) @ s, 4 * np.eye(2), atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            np.eye(2) @ np.eye(3)


class TestHerm:
    def test_scalar_conjugate(self):
        assert np.array_equal(herm(np.array([[1j]])), np.array([[-1j]]))

    def test_involution(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        assert np.array_equal(herm(herm(m)), m)

    def test_product_rule(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            assert np.allclose(herm(a @ b), herm(b) @ herm(a), atol=1e-12)


class TestFroNormSq:
    def test_zero(self):
        assert np.vdot(np.zeros((3, 5)), np.zeros((3, 5))).real == 0.0

    def test_identity(self):
        for n in (1, 2, 7):
            assert np.vdot(np.eye(n), np.eye(n)).real == pytest.approx(n, abs=1e-12)

    def test_single_entry(self):
        assert np.vdot(3 + 4j, 3 + 4j).real == pytest.approx(25.0, abs=1e-12)

    def test_trace_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            assert np.vdot(a, a).real == pytest.approx(np.trace(herm(a) @ a).real, abs=1e-12)


class TestDet:
    def test_identity(self):
        assert np.linalg.det(np.eye(5)) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal(self):
        assert np.linalg.det(np.diag([2.0, 3.0])) == pytest.approx(6.0, abs=1e-12)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            np.linalg.det(np.ones((2, 3)))

    def test_against_cofactor_expansion(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            assert np.linalg.det(a) == pytest.approx(cofactor_det(a), abs=1e-10)

    def test_codeword_difference_gram_positive(self):
        # two distinct 4x4 codewords from the constructed design: the
        # difference Gram determinant is a positive real, cross-checked
        # with the cofactor oracle
        from gdstbc import Codebook, construct_design, construct_signal_set

        cb = Codebook(construct_design(2), construct_signal_set(2, 16))
        d = cb.codeword_at((0, 0, 0, 0)).matrix - cb.codeword_at((1, 0, 1, 0)).matrix
        gram = herm(d) @ d
        val = np.linalg.det(gram)
        assert val.real > 0 and abs(val.imag) < 1e-9
        assert val == pytest.approx(cofactor_det(gram), abs=1e-8)


class TestMinSingularValue:
    def test_identity(self):
        assert min_singular_value(np.eye(4)) == pytest.approx(1.0, abs=1e-12)

    def test_zero_row(self):
        m = np.array([[1.0, 2.0], [0.0, 0.0]])
        assert min_singular_value(m) == pytest.approx(0.0, abs=1e-12)

    def test_known_spectrum(self):
        rng = np.random.default_rng(5)
        sig = np.array([3.0, 1.5, 0.7, 0.01])
        u = random_givens_unitary(4, rng)
        v = random_givens_unitary(4, rng)
        a = u @ np.diag(sig) @ herm(v)
        assert min_singular_value(a) == pytest.approx(sig[-1], abs=1e-10)

    def test_givens_unitary_has_unit_det(self):
        rng = np.random.default_rng(6)
        for n in (2, 4, 8):
            u = random_givens_unitary(n, rng)
            assert abs(np.linalg.det(u)) == pytest.approx(1.0, abs=1e-10)

    def test_full_rank_rule(self):
        assert is_full_rank(np.eye(3))
        assert not is_full_rank(np.array([[1.0, 1.0], [1.0, 1.0]]))

