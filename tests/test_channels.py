import numpy as np
import pytest
from numpy.testing import assert_allclose

from purifylab import ensembles, linalg
from purifylab.channels import (
    ChoiOperator,
    KrausSet,
    PurificationVector,
    apply_env_unitary,
    choi_from_kraus,
    choi_vector,
    depolarizing_choi,
    embed_env,
    identity_isometry_purification,
    kraus_from_choi,
    max_entangled_purification,
    separable_purification,
    stinespring_from_choi,
)
from purifylab.ensembles import EnsembleSpec, RandomStream
from purifylab.errors import (
    EnvironmentTooSmall,
    InvalidDims,
    NotPSD,
    NotTracePreserving,
    NotUnitary,
)
from purifylab.strategies import PureOutput


def sampled(d_i, d_o, d_e, seed=0, i=0):
    spec = EnsembleSpec(d_i, d_o, d_e, seed=seed)
    return ensembles.sample_choi(spec, spec.stream(i))


class TestChoiFromKraus:
    def test_identity_channel(self):
        c = choi_from_kraus(KrausSet(2, 2, (np.eye(2),)))
        phi = np.zeros(4)
        phi[0] = phi[3] = 1.0
        assert_allclose(c.matrix, np.outer(phi, phi))
        assert np.trace(c.matrix).real == pytest.approx(2.0)

    def test_discard_and_reset(self):
        k0 = np.array([[1.0, 0.0], [0.0, 0.0]])  # |0><0|
        k1 = np.array([[0.0, 1.0], [0.0, 0.0]])  # |0><1|
        c = choi_from_kraus(KrausSet(2, 2, (k0, k1)))
        expect = np.kron(np.eye(2), np.diag([1.0, 0.0]))
        assert_allclose(c.matrix, expect)

    def test_pauli_twirl_gives_depolarizing(self):
        paulis = [
            np.eye(2),
            np.array([[0, 1], [1, 0]]),
            np.array([[0, -1j], [1j, 0]]),
            np.array([[1, 0], [0, -1]]),
        ]
        ks = KrausSet(2, 2, tuple(p / 2 for p in paulis))
        c = choi_from_kraus(ks)
        assert_allclose(c.matrix, np.eye(4) / 2, atol=1e-14)

    def test_rejects_incomplete(self):
        with pytest.raises(NotTracePreserving):
            choi_from_kraus(KrausSet(2, 2, (np.eye(2) / 2,)))


class TestChoiVector:
    def test_layout_and_stack(self):
        # |K> = sum_i |i> x K|i>; a stack gives one such vector per operator
        rng = np.random.default_rng(3)
        ks = rng.standard_normal((5, 6, 2)) + 1j * rng.standard_normal((5, 6, 2))
        stacked = choi_vector(ks)
        assert stacked.shape == (5, 12)
        for k, row in zip(ks, stacked):
            assert np.array_equal(row, np.concatenate([k[:, 0], k[:, 1]]))
            assert np.array_equal(choi_vector(k), row)


class TestKrausFromChoi:
    def test_reset_channel_roundtrip(self):
        c = ChoiOperator(2, 2, np.kron(np.eye(2), np.diag([1.0, 0.0])))
        ks = kraus_from_choi(c)
        back = choi_from_kraus(ks)
        assert np.max(np.abs(back.matrix - c.matrix)) < 1e-8

    def test_isometric_rank_one(self):
        c, _ = sampled(2, 3, 1, seed=3)
        ks = kraus_from_choi(c)
        assert len(ks.operators) == 1
        k = ks.operators[0]
        assert_allclose(k.conj().T @ k, np.eye(2), atol=1e-9)

    def test_roundtrip_random(self):
        for i in range(100):
            c, _ = sampled(2, 2, 4, seed=4, i=i)
            back = choi_from_kraus(kraus_from_choi(c))
            assert np.linalg.norm(back.matrix - c.matrix, 2) <= 1e-8


class TestStinespring:
    def test_rank_one_isometric(self):
        # A rank-one Choi (isometric channel) purifies on a trivial environment.
        c, _ = sampled(2, 2, 1, seed=2)
        v = stinespring_from_choi(c, 1)
        assert v.d_e == 1
        assert_allclose(v.marginal_choi().matrix, c.matrix, atol=1e-10)

    def test_reset_channel_needs_rank_sized_environment(self):
        # I x |0><0| has rank two, so d_e = 1 is rejected and d_e = 2 works.
        c = ChoiOperator(2, 2, np.kron(np.eye(2), np.diag([1.0, 0.0])))
        with pytest.raises(EnvironmentTooSmall):
            stinespring_from_choi(c, 1)
        v = stinespring_from_choi(c, 2)
        assert_allclose(v.marginal_choi().matrix, c.matrix, atol=1e-10)

    def test_depolarizing_is_maximally_entangled(self):
        c = depolarizing_choi(2, 2)
        v = stinespring_from_choi(c, 4)
        sigma = linalg.partial_trace(v.projector(), (4, 4), keep=(1,))
        # Environment marginal of a maximally entangled vector is flat.
        assert_allclose(sigma, np.eye(4) / 2, atol=1e-10)

    def test_marginal_roundtrip_random(self):
        for i in range(100):
            c, _ = sampled(2, 2, 2, seed=5, i=i)
            v = stinespring_from_choi(c, 2)
            assert np.max(np.abs(v.marginal_choi().matrix - c.matrix)) < 1e-8

    def test_environment_too_small(self):
        c, _ = sampled(2, 2, 4, seed=6)
        with pytest.raises(EnvironmentTooSmall):
            stinespring_from_choi(c, 2)

    def test_canonical_is_deterministic(self):
        c, _ = sampled(2, 2, 3, seed=7)
        v1 = stinespring_from_choi(c, 3)
        v2 = stinespring_from_choi(c, 3)
        assert np.array_equal(v1.vector, v2.vector)


FACTOR_DIMS = [(2, 2, 1), (2, 2, 4), (1, 2, 2), (2, 3, 5), (2, 4, 3), (4, 4, 16)]


class TestOneFactor:
    """Rank, Kraus set, dilation and pure-output support read one psd_factor."""

    @pytest.mark.parametrize("dims", FACTOR_DIMS, ids=str)
    def test_every_route_is_the_factor(self, dims):
        spec = EnsembleSpec(*dims, seed=18)
        for i in range(20):
            c, v = ensembles.sample_choi(spec, spec.stream(i))
            s = linalg.psd_factor(c.matrix)
            r = s.shape[1]
            assert c.rank() == r
            assert np.array_equal(stinespring_from_choi(c, r).as_matrix(), s)
            assert np.array_equal(stinespring_from_choi(c, r + 1).as_matrix()[:, :r], s)
            assert np.array_equal(PureOutput(v).support, s)
            ops = kraus_from_choi(c).operators
            assert np.array_equal(choi_vector(np.stack(ops)).T, s)

    def test_one_tolerance(self):
        # eigenvalue ratio 1e-11: above the floor, so rank 2 on every route
        lam = np.array([1.0, 1e-11]) / (1.0 + 1e-11)
        v = PurificationVector(1, 2, 2, np.diag(np.sqrt(lam)).reshape(-1))
        c = v.marginal_choi()
        assert c.rank() == 2
        assert len(kraus_from_choi(c).operators) == 2
        assert PureOutput(v).support.shape[1] == 2

    def test_negative_eigenvalue_rejected(self):
        c = ChoiOperator(1, 2, np.diag([1.0, -0.5]))
        with pytest.raises(NotPSD):
            c.rank()
        with pytest.raises(NotPSD):
            kraus_from_choi(c)
        with pytest.raises(NotPSD):
            stinespring_from_choi(c, 2)


class TestEnvUnitary:
    def test_identity_noop(self):
        _, v = sampled(2, 2, 3, seed=8)
        w = apply_env_unitary(v, np.eye(3))
        assert_allclose(w.vector, v.vector)

    def test_marginal_invariant(self):
        _, v = sampled(2, 2, 3, seed=9)
        u = ensembles.sample_haar_unitary(3, RandomStream(10, 0))
        w = apply_env_unitary(v, u)
        assert np.max(np.abs(w.marginal_choi().matrix - v.marginal_choi().matrix)) < 1e-10
        assert abs(np.vdot(w.vector, w.vector).real - 2.0) < 1e-10

    def test_phase_only_when_trivial(self):
        _, v = sampled(2, 2, 1, seed=11)
        w = apply_env_unitary(v, np.array([[np.exp(1j * 0.7)]]))
        assert_allclose(w.projector(), v.projector(), atol=1e-12)

    def test_rejects_non_unitary(self):
        _, v = sampled(2, 2, 2, seed=12)
        with pytest.raises(NotUnitary):
            apply_env_unitary(v, np.ones((2, 2)))


class TestFixedObjects:
    def test_depolarizing_choi(self):
        c = depolarizing_choi(2, 2)
        assert_allclose(c.matrix, np.eye(4) / 2)
        assert np.trace(c.matrix).real == pytest.approx(2.0)
        c.validate()

    def test_depolarizing_state_case(self):
        c = depolarizing_choi(1, 5)
        assert_allclose(c.matrix, np.eye(5) / 5)

    def test_depolarizing_tp_exact(self):
        c = depolarizing_choi(3, 2)
        marg = linalg.partial_trace(c.matrix, (3, 2), keep=(0,))
        assert np.array_equal(marg, np.eye(3))

    def test_omega_qubit_state(self):
        v = max_entangled_purification(1, 2)
        assert_allclose(v.marginal_choi().matrix, np.eye(2) / 2, atol=1e-12)

    def test_omega_qubit_channel(self):
        v = max_entangled_purification(2, 2)
        assert np.vdot(v.vector, v.vector).real == pytest.approx(2.0)
        assert_allclose(v.marginal_choi().matrix, np.eye(4) / 2, atol=1e-12)

    def test_omega_marginal_32(self):
        v = max_entangled_purification(3, 2)
        assert_allclose(v.marginal_choi().matrix, np.eye(6) / 2, atol=1e-12)

    def test_separable_purification(self):
        ups = identity_isometry_purification(2, 2)
        psi = np.array([1.0, 0.0, 0.0])
        v = separable_purification(ups, psi)
        phi = np.zeros(4)
        phi[0] = phi[3] = 1.0
        assert_allclose(v.marginal_choi().matrix, np.outer(phi, phi), atol=1e-12)
        assert np.vdot(v.vector, v.vector).real == pytest.approx(2.0)

    def test_separable_marginal_independent_of_psi(self):
        ups = identity_isometry_purification(2, 3)
        rng = np.random.default_rng(0)
        z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi2 = z / np.linalg.norm(z)
        m1 = separable_purification(ups, np.eye(4)[0]).marginal_choi().matrix
        m2 = separable_purification(ups, psi2).marginal_choi().matrix
        assert_allclose(m1, m2, atol=1e-12)


class TestEmbedAndJson:
    def test_embed_preserves_marginal(self):
        _, v = sampled(2, 2, 2, seed=13)
        w = embed_env(v, 5)
        assert w.d_e == 5
        assert_allclose(w.marginal_choi().matrix, v.marginal_choi().matrix, atol=1e-12)
        with pytest.raises(EnvironmentTooSmall):
            embed_env(v, 1)

    def test_choi_json_roundtrip(self):
        c, _ = sampled(2, 2, 2, seed=14)
        back = ChoiOperator.from_json_dict(c.to_json_dict())
        assert np.array_equal(back.matrix, c.matrix)

    def test_purification_json_roundtrip(self):
        _, v = sampled(2, 2, 3, seed=15)
        back = PurificationVector.from_json_dict(v.to_json_dict())
        assert np.array_equal(back.vector, v.vector)

    @pytest.mark.parametrize("dims, pairs", [((1, 2, 2.5), 4), ((1, 2, 2), 3)],
                             ids=["d_e-float", "short-list"])
    def test_purification_json_rejects(self, dims, pairs):
        # d_e 2.5 was once truncated to 2, and the record accepted
        data = {"d_i": dims[0], "d_o": dims[1], "d_e": dims[2], "re_im": [[0.5, 0.0]] * pairs}
        with pytest.raises(InvalidDims, match="re_im"):
            PurificationVector.from_json_dict(data)

    def test_rank_detection(self):
        c, _ = sampled(2, 2, 2, seed=16)
        assert c.rank() == 2
        assert depolarizing_choi(2, 2).rank() == 4

    @pytest.mark.parametrize("d_e", [1, 2, 4, 6])
    def test_generic_rank_over_draws(self, d_e):
        # Sampled channels have rank min(d_e, d_i * d_o) almost surely.
        spec = EnsembleSpec(2, 2, d_e, seed=17)
        for i in range(100):
            c, _ = ensembles.sample_choi(spec, spec.stream(i))
            assert c.rank() == min(d_e, 4)

    def test_shape_validation(self):
        with pytest.raises(InvalidDims):
            ChoiOperator(2, 2, np.eye(3))
        with pytest.raises(InvalidDims):
            PurificationVector(2, 2, 2, np.zeros(5))


class TestValueEquality:
    # the generated dataclass __eq__ asked the array for a bool and raised
    def test_equal_values_compare_equal(self):
        assert ChoiOperator(1, 2, np.eye(2)) == ChoiOperator(1, 2, np.eye(2))
        c, v = sampled(2, 2, 3, seed=18)
        assert ChoiOperator.from_json_dict(c.to_json_dict()) == c
        assert PurificationVector.from_json_dict(v.to_json_dict()) == v
        assert PureOutput(v) == PureOutput(PurificationVector(2, 2, 3, v.vector.copy()))

    def test_values_tell_records_apart(self):
        c, v = sampled(2, 2, 3, seed=18)
        other_c, other_v = sampled(2, 2, 3, seed=19)
        assert c != other_c and v != other_v and PureOutput(v) != PureOutput(other_v)
        assert c != c.matrix and v != v.vector

    def test_dims_tell_records_apart(self):
        # the same entries under other dims are another record
        assert ChoiOperator(1, 4, np.eye(4)) != ChoiOperator(2, 2, np.eye(4))
        vec = np.full(4, 0.5)
        assert PurificationVector(1, 2, 2, vec) != PurificationVector(1, 4, 1, vec)
        assert PureOutput(PurificationVector(1, 2, 2, vec)) != PureOutput(
            PurificationVector(1, 4, 1, vec)
        )
