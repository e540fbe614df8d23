import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate

from purifylab import linalg
from purifylab.errors import DomainError, InvalidDims, NotHermitian, NotNormalized, NotPSD


def random_complex(rng, n, m=None):
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def random_hermitian(rng, n):
    a = random_complex(rng, n)
    return (a + a.conj().T) / 2


def random_psd(rng, n):
    a = random_complex(rng, n)
    return a @ a.conj().T


def random_density(rng, n):
    p = random_psd(rng, n)
    return p / np.trace(p).real


def random_unitary(rng, n):
    q, r = np.linalg.qr(random_complex(rng, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestPartialTrace:
    def test_product_state(self):
        v = np.zeros(4)
        v[0] = 1.0  # |00>
        rho = np.outer(v, v)
        out = linalg.partial_trace(rho, (2, 2), keep=(0,))
        assert_allclose(out, np.diag([1.0, 0.0]))

    def test_maximally_entangled_marginal(self):
        phi = np.zeros(4)
        phi[0] = phi[3] = 1.0  # sum_i |ii>
        rho = np.outer(phi, phi)
        assert_allclose(linalg.partial_trace(rho, (2, 2), keep=(0,)), np.eye(2))

    def test_trace_preserved(self):
        rng = np.random.default_rng(5)
        m = random_psd(rng, 12)
        for keep in [(0,), (1,), (0, 1), (1, 2), (0, 2)]:
            red = linalg.partial_trace(m, (2, 2, 3), keep=keep)
            assert abs(np.trace(red) - np.trace(m)) <= 1e-12 * abs(np.trace(m))

    def test_keep_order_consistency(self):
        # Tracing the middle factor of A x B x C leaves A x C.
        rng = np.random.default_rng(6)
        a, b, c = random_psd(rng, 2), random_density(rng, 3), random_psd(rng, 2)
        m = np.kron(a, np.kron(b, c))
        red = linalg.partial_trace(m, (2, 3, 2), keep=(0, 2))
        assert_allclose(red, np.kron(a, c), atol=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(InvalidDims):
            linalg.partial_trace(np.eye(6), (2, 2), keep=(0,))
        with pytest.raises(InvalidDims):
            linalg.partial_trace(np.eye(4), (2, 2), keep=(3,))

    @pytest.mark.parametrize("dims, keep", [((2.9, 2), (0,)), ((2.0, 2), (0,)),
                                            ((2, 2), (0.5,)), (("2", 2), (0,))],
                             ids=["float-dim", "integral-float-dim", "float-keep", "str-dim"])
    def test_dims_and_keep_must_be_integers(self, dims, keep):
        # once truncated by int(): (2.9, 2) traced a 4x4 matrix to 2x2
        with pytest.raises(InvalidDims, match="must be integers"):
            linalg.partial_trace(np.eye(4), dims, keep=keep)

    def test_numpy_integers_accepted(self):
        m = np.kron(np.diag([1.0, 2.0]), np.eye(3))
        red = linalg.partial_trace(m, np.array([2, 3]), keep=[np.int64(0)])
        assert_allclose(red, np.diag([3.0, 6.0]))


class TestHermEig:
    def test_diagonal_ordering(self):
        vals, vecs = linalg.herm_eig(np.diag([1.0, 3.0, 2.0]))
        assert_allclose(vals, [3.0, 2.0, 1.0])
        recon = (vecs * vals) @ vecs.conj().T
        assert_allclose(recon, np.diag([1.0, 3.0, 2.0]), atol=1e-12)

    def test_identity(self):
        vals, _ = linalg.herm_eig(np.eye(5))
        assert_allclose(vals, np.ones(5))

    def test_reconstruction(self):
        rng = np.random.default_rng(7)
        h = random_hermitian(rng, 8)
        vals, vecs = linalg.herm_eig(h)
        recon = (vecs * vals) @ vecs.conj().T
        scale = np.linalg.norm(h, 2)
        assert np.linalg.norm(h - recon, 2) <= 1e-10 * scale
        assert_allclose(vecs.conj().T @ vecs, np.eye(8), atol=1e-10)
        assert np.all(np.diff(vals) <= 1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            linalg.herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestPsdSqrt:
    def test_diagonal(self):
        assert_allclose(linalg.psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_projector_fixed_point(self):
        v = np.array([1.0, 1j]) / math.sqrt(2)
        p = np.outer(v, v.conj())
        assert_allclose(linalg.psd_sqrt(p), p, atol=1e-12)

    def test_square_roundtrip(self):
        rng = np.random.default_rng(8)
        m = random_psd(rng, 6)
        s = linalg.psd_sqrt(m)
        scale = np.linalg.norm(m, 2)
        assert np.linalg.norm(s @ s - m, 2) <= 1e-9 * scale
        assert np.min(np.linalg.eigvalsh(s)) >= -1e-12

    def test_isometric_choi_trace(self):
        # A rank-one operator of trace d has sqrt-trace sqrt(d).
        rng = np.random.default_rng(9)
        v = random_complex(rng, 6, 1).reshape(-1)
        v = v / np.linalg.norm(v) * math.sqrt(3.0)
        p = np.outer(v, v.conj())
        assert abs(np.trace(linalg.psd_sqrt(p)).real - math.sqrt(3.0)) < 1e-10

    def test_rejects_negative(self):
        with pytest.raises(NotPSD):
            linalg.psd_sqrt(np.diag([1.0, -0.5]))


class TestTraceNormFidelity:
    def test_trace_norm_diag(self):
        assert linalg.trace_norm(np.diag([1.0, -2.0])) == pytest.approx(3.0)

    def test_trace_norm_unitary(self):
        rng = np.random.default_rng(10)
        u = random_unitary(rng, 5)
        assert linalg.trace_norm(u) == pytest.approx(5.0, abs=1e-10)

    def test_trace_norm_dominates_trace(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            m = random_complex(rng, 4)
            assert linalg.trace_norm(m) >= abs(np.trace(m)) - 1e-12

    def test_fidelity_self(self):
        rng = np.random.default_rng(13)
        rho = random_density(rng, 4)
        assert linalg.fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)

    def test_fidelity_orthogonal(self):
        rho = np.diag([1.0, 0.0])
        sigma = np.diag([0.0, 1.0])
        assert linalg.fidelity(rho, sigma) == pytest.approx(0.0, abs=1e-12)

    def test_fidelity_pure_vs_mixed(self):
        rho = np.diag([1.0, 0.0])
        assert linalg.fidelity(rho, np.eye(2) / 2) == pytest.approx(0.5, abs=1e-12)

    def test_fidelity_symmetric(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            rho, sigma = random_density(rng, 3), random_density(rng, 3)
            assert linalg.fidelity(rho, sigma) == pytest.approx(
                linalg.fidelity(sigma, rho), abs=1e-10
            )

    def test_fidelity_unitary_invariance(self):
        rng = np.random.default_rng(15)
        rho, sigma = random_density(rng, 4), random_density(rng, 4)
        u = random_unitary(rng, 4)
        f1 = linalg.fidelity(rho, sigma)
        f2 = linalg.fidelity(u @ rho @ u.conj().T, u @ sigma @ u.conj().T)
        assert f1 == pytest.approx(f2, abs=1e-10)

    def test_fidelity_lower_bound(self):
        # ||sqrt(X) sqrt(Z)||_1^2 >= tr(XZ) on PSD pairs.
        rng = np.random.default_rng(16)
        for _ in range(10):
            x, z = random_psd(rng, 4), random_psd(rng, 4)
            lhs = linalg.trace_norm(linalg.psd_sqrt(x) @ linalg.psd_sqrt(z)) ** 2
            assert lhs >= np.trace(x @ z).real - 1e-9

    def test_fidelity_rejects_unnormalized(self):
        with pytest.raises(NotNormalized):
            linalg.fidelity(np.eye(2), np.eye(2) / 2)


class TestFlip:
    def test_trivial_dim(self):
        assert_allclose(linalg.flip_operator(1), [[1.0]])

    def test_swap_trick(self):
        rng = np.random.default_rng(17)
        f = linalg.flip_operator(2)
        for _ in range(5):
            x, y = random_complex(rng, 2), random_complex(rng, 2)
            lhs = np.trace(np.kron(x, y) @ f)
            assert abs(lhs - np.trace(x @ y)) < 1e-12

    def test_involution_hermitian_trace(self):
        for d in (1, 2, 3):
            f = linalg.flip_operator(d)
            assert_allclose(f @ f, np.eye(d * d), atol=1e-14)
            assert_allclose(f, f.conj().T)
            assert np.trace(f) == pytest.approx(d)

    @pytest.mark.parametrize("d", [2.5, 2.0, 0])
    def test_dimension_must_be_an_integer_of_at_least_one(self, d):
        # 2.5 once returned the 4x4 swap of d = 2
        with pytest.raises(InvalidDims):
            linalg.flip_operator(d)

    def test_matches_swap_factors(self):
        assert_allclose(linalg.flip_operator(3), linalg.swap_factors((3, 3), 0, 1))

    def test_swap_factors_middle(self):
        # Swapping factors 0 and 2 of a 2x3x2 product permutes basis kets.
        s = linalg.swap_factors((2, 3, 2), 0, 2)
        rng = np.random.default_rng(18)
        a = random_complex(rng, 2, 1).ravel()
        b = random_complex(rng, 3, 1).ravel()
        c = random_complex(rng, 2, 1).ravel()
        lhs = s @ np.kron(a, np.kron(b, c))
        assert_allclose(lhs, np.kron(c, np.kron(b, a)), atol=1e-12)


class TestPermuteFactors:
    @pytest.mark.parametrize("d_i,d_o,d_e", [(1, 2, 2), (2, 2, 2), (2, 3, 1)])
    def test_products_of_swaps(self, d_i, d_o, d_e):
        dims = (d_i, d_o, d_e, d_i, d_o, d_e)
        f_i = linalg.swap_factors(dims, 0, 3)
        f_oe = linalg.swap_factors(dims, 1, 4) @ linalg.swap_factors(dims, 2, 5)
        side = d_i * d_o * d_e
        assert np.array_equal(linalg.permute_factors(dims, (0, 4, 5, 3, 1, 2)), f_oe)
        assert np.array_equal(linalg.flip_operator(side), f_i @ f_oe)
        pair = (d_i, d_o, d_i, d_o)
        f_io = linalg.swap_factors(pair, 0, 2) @ linalg.swap_factors(pair, 1, 3)
        assert np.array_equal(linalg.flip_operator(d_i * d_o), f_io)

    def test_cyclic_shift_moves_kets(self):
        rng = np.random.default_rng(19)
        a, b, c = (random_complex(rng, 2, 1).ravel() for _ in range(3))
        p = linalg.permute_factors((2, 2, 2), (1, 2, 0))
        assert_allclose(p @ np.kron(a, np.kron(b, c)), np.kron(b, np.kron(c, a)))

    def test_rejects_bad_permutations(self):
        with pytest.raises(InvalidDims):
            linalg.permute_factors((2, 3), (1, 0))
        with pytest.raises(InvalidDims):
            linalg.permute_factors((2, 2), (0, 0))
        with pytest.raises(InvalidDims):
            linalg.permute_factors((2, 2, 2), (1, 0))

    @pytest.mark.parametrize("call", [
        lambda: linalg.permute_factors((2.5, 2.5), (1, 0)),
        lambda: linalg.permute_factors((2, 2), (1.0, 0)),
        lambda: linalg.swap_factors((2.0, 2.0), 0, 1),
        lambda: linalg.swap_factors((2, 2), 0, 1.0),
    ], ids=["permute-float-dim", "permute-float-index", "swap-float-dim", "swap-float-index"])
    def test_rejects_non_integers(self, call):
        with pytest.raises(InvalidDims, match="must be integers"):
            call()

    def test_numpy_integers_accepted(self):
        dims = np.array([2, 3, 2])
        assert np.array_equal(linalg.swap_factors(dims, np.int64(0), np.int64(2)),
                              linalg.swap_factors((2, 3, 2), 0, 2))


class TestCompleteElliptic:
    def test_zero_parameter(self):
        k, e = linalg.complete_elliptic(0.0)
        assert k == pytest.approx(math.pi / 2, abs=1e-14)
        assert e == pytest.approx(math.pi / 2, abs=1e-14)

    def test_unit_parameter(self):
        k, e = linalg.complete_elliptic(1.0)
        assert math.isinf(k)
        assert e == pytest.approx(1.0, abs=1e-14)

    def test_against_quadrature(self):
        # Adaptive quadrature of the defining integrals at m = 1/2.
        m = 0.5
        k_ref, _ = integrate.quad(
            lambda t: 1.0 / math.sqrt(1 - m * math.sin(t) ** 2), 0, math.pi / 2
        )
        e_ref, _ = integrate.quad(
            lambda t: math.sqrt(1 - m * math.sin(t) ** 2), 0, math.pi / 2
        )
        k, e = linalg.complete_elliptic(m)
        assert k == pytest.approx(k_ref, abs=1e-8)
        assert e == pytest.approx(e_ref, abs=1e-8)

    def test_high_accuracy_sweep(self):
        from scipy import special

        for m in (0.01, 0.2, 0.5, 0.8, 0.99):
            k, e = linalg.complete_elliptic(m)
            assert k == pytest.approx(special.ellipk(m), rel=1e-10)
            assert e == pytest.approx(special.ellipe(m), rel=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            linalg.complete_elliptic(-0.1)
        with pytest.raises(DomainError):
            linalg.complete_elliptic(1.1)
