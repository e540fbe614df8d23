import re
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from purifylab import ensembles, linalg, metrics, strategies, theory
from purifylab.channels import (
    depolarizing_choi,
    embed_env,
    identity_isometry_purification,
    max_entangled_purification,
    separable_purification,
    stinespring_from_choi,
)
from purifylab.ensembles import EnsembleSpec, RandomStream
from purifylab.errors import InvalidDims, InvalidWeights
from purifylab.metrics import STRATEGY_GRAMMAR, parse_strategy
from purifylab.strategies import (
    Append,
    Estimation,
    MapToDepolarizing,
    PureOutput,
    optimal_append_spectrum,
    tomography_estimate,
)


def sampled(spec, i=0):
    return ensembles.sample_choi(spec, spec.stream(i))


def uhlmann_oracle(w, d_i, chois):
    """The former PureOutput.errors: eigh of C, sqrt(C) sqrt(W), then an SVD."""
    sqrt_w = linalg.psd_sqrt(w.marginal_choi().matrix)
    vals, vecs = np.linalg.eigh(chois)
    root = np.sqrt(linalg.floor_eigenvalues(vals))
    sqrt_c = np.einsum("bij,bj,bkj->bik", vecs, root, vecs.conj())
    overlap = np.linalg.svd(sqrt_c @ sqrt_w, compute_uv=False).sum(axis=1) ** 2
    return np.clip(2.0 * d_i**2 - 2.0 * overlap, 0.0, 2.0 * d_i**2)


def pairing_oracle(lam, d_i, chois):
    """Append.errors for every spectrum: the descending pairing on floored
    eigenvalues."""
    cvals = linalg.floor_eigenvalues(np.linalg.eigvalsh(chois))[:, ::-1]
    k = min(cvals.shape[1], lam.size)
    purity = np.sum(cvals**2, axis=1)
    pair = (cvals[:, :k] ** 2) @ lam[:k]
    err = d_i**2 + purity * float(np.sum(lam**2)) - 2.0 * pair
    return np.clip(err, 0.0, 2.0 * d_i**2)


ALL_TEXTS = [
    "pure:omega",
    "pure:separable",
    "pure:random",
    "append:maxmixed",
    "append:pure",
    "dep",
    "avg-ue",
    "tomo:k=3",
]


class TestApply:
    @pytest.mark.parametrize("text", ALL_TEXTS)
    def test_output_is_psd_trace_di(self, text):
        spec = EnsembleSpec(2, 2, 2, seed=31)
        strat = parse_strategy(text, spec)
        c, _ = sampled(spec)
        out = strat.output(c, spec.stream(0))
        assert np.max(np.abs(out - out.conj().T)) < 1e-10
        vals = np.linalg.eigvalsh(linalg.hermitianize(out))
        assert vals.min() >= -1e-10
        assert np.trace(out).real == pytest.approx(2.0, abs=1e-9)

    def test_map_to_depolarizing_value(self):
        spec = EnsembleSpec(2, 2, 2, seed=32)
        c, _ = sampled(spec)
        out = MapToDepolarizing(2).output(c)
        assert_allclose(out, np.eye(8) / 4)
        assert np.trace(out).real == pytest.approx(2.0)

    def test_append_maxmixed_form(self):
        spec = EnsembleSpec(2, 2, 3, seed=33)
        c, _ = sampled(spec)
        out = Append(np.full(3, 1 / 3)).output(c)
        assert_allclose(out, np.kron(c.matrix, np.eye(3) / 3), atol=1e-14)

    def test_append_marginal_is_input(self):
        spec = EnsembleSpec(2, 2, 2, seed=34)
        c, _ = sampled(spec)
        out = Append([0.6, 0.4]).output(c)
        marg = linalg.partial_trace(out, (4, 2), keep=(0,))
        assert_allclose(marg, c.matrix, atol=1e-14)

    def test_constant_maps_ignore_input(self):
        spec = EnsembleSpec(2, 2, 2, seed=35)
        c1, _ = sampled(spec, 0)
        c2, _ = sampled(spec, 1)
        om = parse_strategy("pure:omega", spec)
        assert np.array_equal(om.output(c1), om.output(c2))
        dep = MapToDepolarizing(2)
        assert np.array_equal(dep.output(c1), dep.output(c2))

    def test_dim_mismatch(self):
        spec = EnsembleSpec(2, 2, 2, seed=36)
        c, _ = sampled(spec)
        w = max_entangled_purification(1, 2)
        with pytest.raises(InvalidDims):
            PureOutput(w).output(c)


class TestOptimalAppendSpectrum:
    def test_rank_one_degenerate(self):
        lam = optimal_append_spectrum([4.0, 0.0, 0.0])
        assert_allclose(lam, [1.0, 0.0, 0.0])

    def test_uniform(self):
        lam = optimal_append_spectrum([0.5, 0.5, 0.5, 0.5])
        assert_allclose(lam, [0.25] * 4)

    def test_two_weights(self):
        assert_allclose(optimal_append_spectrum([1.8, 0.6]), [0.75, 0.25])

    def test_monte_carlo_weights(self):
        from purifylab import metrics, theory

        spec = EnsembleSpec(2, 2, 2, seed=2024)
        w = metrics.estimate_ordered_weights(spec, 10_000)
        lam = optimal_append_spectrum(w)
        assert abs(w.sum() / theory.avg_purity(2, 2, 2) - 1.0) < 1e-3
        assert np.all(np.diff(lam) <= 1e-12)

    def test_rejects_negative(self):
        with pytest.raises(InvalidWeights):
            optimal_append_spectrum([1.0, -0.1])

    def test_rejects_increasing(self):
        with pytest.raises(InvalidWeights):
            optimal_append_spectrum([0.2, 0.8])

    def test_rejects_zero_sum(self):
        with pytest.raises(InvalidWeights):
            optimal_append_spectrum([0.0, 0.0])

    def test_rejects_infinite(self):
        with pytest.raises(InvalidWeights):
            optimal_append_spectrum([np.inf, 1.0])


class TestTomographyEstimate:
    def test_single_shot_is_valid_vector(self):
        spec = EnsembleSpec(2, 2, 2, seed=41)
        c, _ = sampled(spec)
        est = tomography_estimate(c, 1, RandomStream(41, 0))
        assert est.d_e == 2
        assert np.vdot(est.vector, est.vector).real == pytest.approx(2.0, abs=1e-10)

    def test_environment_is_rank(self):
        spec = EnsembleSpec(2, 2, 6, seed=42)
        c, _ = sampled(spec)
        est = tomography_estimate(c, 8, RandomStream(42, 0))
        assert est.d_e == 4  # rank saturates at d_i * d_o

    def test_large_k_converges(self):
        # Rank-one input: the purification is unique up to phase, so the
        # squared overlap with the estimate approaches one.
        spec = EnsembleSpec(1, 2, 1, seed=43)
        c, v = sampled(spec)
        est = tomography_estimate(c, 1_000_000, RandomStream(43, 0))
        overlap = abs(np.vdot(v.vector, est.vector)) ** 2
        assert overlap > 0.99

    def test_exact_path(self):
        from purifylab import metrics

        spec = EnsembleSpec(2, 2, 2, seed=44)
        c, _ = sampled(spec)
        est = tomography_estimate(c, None, RandomStream(44, 0))
        assert metrics.error_pure_output(c, est) < 1e-6

    def test_exact_path_is_canonical_dilation(self):
        spec = EnsembleSpec(2, 2, 3, seed=46)
        c, _ = sampled(spec)
        est = tomography_estimate(c, None, RandomStream(46, 0))
        assert np.array_equal(est.vector, stinespring_from_choi(c, c.rank()).vector)

    def test_ill_conditioned_basis_draw_scores(self):
        # sample 37065's shots once drew a basis whose U†U missed 1 by 2e-10
        spec = EnsembleSpec(2, 2, 4, seed=0)
        err = Estimation(64).chunk_errors(spec, 37065, 37066)
        assert 0.0 <= err[0] <= 2 * spec.d_i**2

    def test_chunk_rekeys_one_generator(self, monkeypatch):
        # one generator per chunk, re-keyed per sample, draws the bits a
        # fresh generator per sample does
        spec = EnsembleSpec(2, 2, 3, seed=48)
        lo, hi, k = 5, 12, 16
        want = []
        for i in range(lo, hi):
            gen = spec.stream(i).generator()
            c, _ = ensembles.sample_choi(spec, gen)
            est = tomography_estimate(c, k, gen)
            want.append(PureOutput(est).errors(spec.d_i, c.matrix[None])[0])
        made = []
        generator = RandomStream.generator

        def counted(self, *args, **kwargs):
            made.append(generator(self, *args, **kwargs))
            return made[-1]

        monkeypatch.setattr(RandomStream, "generator", counted)
        got = Estimation(k).chunk_errors(spec, lo, hi)
        assert len(made) == hi - lo
        assert all(g is made[0] for g in made)
        assert got.tobytes() == np.array(want).tobytes()

    def test_single_shot_outcome_law(self):
        # A Haar-basis measurement of the pure |s> returns |b> with
        # x = |<s|b>|^2 ~ Beta(2, D-1) (the Born rule size-biases the uniform
        # Beta(1, D-1)), however the bases are drawn.
        from scipy import stats

        spec = EnsembleSpec(1, 4, 1, seed=47)
        c, _ = sampled(spec)
        s = linalg.psd_factor(c.matrix)[:, 0]
        dim = s.size
        n = 4000
        x = np.array(
            [abs(np.vdot(s, tomography_estimate(c, 1, RandomStream(47, i)).vector)) ** 2
             for i in range(n)]
        )
        assert stats.kstest(x, stats.beta(2, dim - 1).cdf).pvalue > 0.01
        assert abs(x.mean() - 2 / (dim + 1)) < 4 * x.std() / np.sqrt(n)

    @staticmethod
    def batch_counts(monkeypatch, draw=ensembles.haar_unitaries_batch):
        """Record the count of every basis stack tomography asks for."""
        counts = []

        def counted(d, count, rng):
            counts.append(count)
            return draw(d, count, rng)

        monkeypatch.setattr(strategies, "haar_unitaries_batch", counted)
        return counts

    def test_shot_batches_bounded_by_bytes(self, monkeypatch):
        # D = 16 bases take 4 KiB each: a 64 KiB budget holds 16 of them
        spec = EnsembleSpec(2, 2, 4, seed=49)
        c, _ = sampled(spec)
        monkeypatch.setattr(strategies, "_TOMO_BYTES", 64 << 10)
        counts = self.batch_counts(monkeypatch)
        est = tomography_estimate(c, 100, RandomStream(49, 0).generator())
        assert est.vector.size == 16
        assert counts == [16] * 6 + [4]
        assert np.vdot(est.vector, est.vector).real == pytest.approx(spec.d_i, abs=1e-10)

    @pytest.mark.parametrize("shape, k, want", [
        ((2, 4, 4), 4097, [2048, 2048, 1]),  # D = 32: the 2048-shot schedule
        ((2, 4, 8), 1025, [512, 512, 1]),  # D = 64: 32 MiB holds 512 bases
    ])
    def test_default_batch_schedule(self, monkeypatch, shape, k, want):
        # only the schedule is under test, so the stacks are identities
        spec = EnsembleSpec(*shape, seed=50)
        c, _ = sampled(spec)

        def identities(d, count, rng):
            return np.broadcast_to(np.eye(d, dtype=complex), (count, d, d))

        counts = self.batch_counts(monkeypatch, identities)
        tomography_estimate(c, k, RandomStream(50, 0))
        assert counts == want

    def test_traced_peak_bounded(self):
        # (2,4,6) has D = 48: one 1024-shot batch with its conjugated copy
        # peaked at 108.8 MiB; 910-shot batches of one stack each stay below
        spec = EnsembleSpec(2, 4, 6, seed=1)
        c, _ = sampled(spec)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            tomography_estimate(c, 1024, RandomStream(2, 0))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < 80 << 20

    def test_determinism(self):
        spec = EnsembleSpec(1, 2, 2, seed=45)
        c, _ = sampled(spec)
        e1 = tomography_estimate(c, 64, RandomStream(7, 3))
        e2 = tomography_estimate(c, 64, RandomStream(7, 3))
        assert np.array_equal(e1.vector, e2.vector)


class TestParse:
    def test_pure_omega(self):
        spec = EnsembleSpec(2, 2, 4, seed=51)
        s = parse_strategy("pure:omega", spec)
        assert isinstance(s, PureOutput)
        assert_allclose(
            s.w.marginal_choi().matrix, depolarizing_choi(2, 2).matrix, atol=1e-12
        )

    def test_pure_separable_marginal(self):
        spec = EnsembleSpec(2, 2, 3, seed=52)
        s = parse_strategy("pure:separable", spec)
        assert s.w.d_e == 3
        assert s.w.marginal_choi().rank() == 1

    def test_pure_random_is_reproducible(self):
        spec = EnsembleSpec(2, 2, 3, seed=53)
        s1 = parse_strategy("pure:random", spec)
        s2 = parse_strategy("pure:random", spec)
        assert np.array_equal(s1.w.vector, s2.w.vector)

    def test_tomo_variants(self):
        spec = EnsembleSpec(2, 2, 2, seed=54)
        assert parse_strategy("tomo:k=128", spec).k == 128
        assert parse_strategy("tomo:k=inf", spec).k is None
        with pytest.raises(InvalidDims):
            parse_strategy("tomo:k=0", spec)

    @pytest.mark.parametrize("text", ["tomo:k=abc", "tomo:k=", "tomo:k=none", "tomo:k=-3", "tomo:k=1.5"])
    def test_tomo_bad_budget_names_the_grammar(self, text):
        with pytest.raises(InvalidDims, match=re.escape(STRATEGY_GRAMMAR)):
            parse_strategy(text, EnsembleSpec(2, 2, 2, seed=54))

    def test_append_optimal_goes_through_optimal_spectrum(self):
        # d_E <= d_I d_O fits every weight; d_E > d_I d_O pads with zeros
        for dims, size in (((2, 2, 3), 3), ((1, 2, 3), 2)):
            spec = EnsembleSpec(*dims, seed=55)
            w = metrics.estimate_ordered_weights(spec, 300)
            assert w.size == size
            s = parse_strategy("append:optimal", spec, n_weights=300)
            padded = np.zeros(spec.d_e)
            padded[:size] = w
            assert s == Append(optimal_append_spectrum(padded))
            assert np.array_equal(s.spectrum, padded / padded.sum())

    def test_unknown_rejected(self):
        spec = EnsembleSpec(2, 2, 2, seed=56)
        with pytest.raises(InvalidDims):
            parse_strategy("banana", spec)

    @pytest.mark.parametrize("d_e", [1, 3])
    def test_avg_ue_is_append_maxmixed(self, d_e):
        spec = EnsembleSpec(2, 2, d_e, seed=57)
        assert parse_strategy("avg-ue", spec) == parse_strategy("append:maxmixed", spec)

    def test_append_machines_differ_by_spectrum(self):
        spec = EnsembleSpec(2, 2, 3, seed=57)
        assert parse_strategy("append:pure", spec) != parse_strategy("avg-ue", spec)
        assert parse_strategy("avg-ue", spec) != MapToDepolarizing(3)

    @pytest.mark.parametrize("text", ["pure:omega", "pure:separable", "pure:random"])
    def test_pure_output_parses_equal(self, text):
        # compared through the purification's dims and vector
        spec = EnsembleSpec(2, 2, 2, seed=57)
        assert parse_strategy(text, spec) == parse_strategy(text, spec)

    def test_pure_machines_differ_by_purification(self):
        spec = EnsembleSpec(2, 2, 2, seed=57)
        assert parse_strategy("pure:omega", spec) != parse_strategy("pure:separable", spec)
        assert parse_strategy("pure:omega", spec) != parse_strategy("avg-ue", spec)


class TestPureClosedForm:
    def test_rank_one_marginal_whatever_the_label(self):
        spec = EnsembleSpec(2, 3, 4, seed=58)
        ups = identity_isometry_purification(2, 3)
        s = PureOutput(separable_purification(ups, np.eye(4)[1]))
        assert s.closed_form(spec) == theory.eps_separable_pure_output(2, 3)

    @pytest.mark.parametrize("text", ["pure:omega", "pure:random"])
    def test_higher_rank_marginal_only_on_isometric_inputs(self, text):
        spec = EnsembleSpec(2, 2, 3, seed=59)
        s = parse_strategy(text, spec)
        assert s.closed_form(spec) is None
        iso = EnsembleSpec(2, 2, 1, seed=59)
        assert s.closed_form(iso) == theory.eps_separable_pure_output(2, 2)


ORACLE_DIMS = [(2, 2, 1), (2, 2, 4), (1, 2, 2), (2, 3, 5), (2, 4, 3), (4, 4, 16)]


class TestSupportRoute:
    """PureOutput.errors works on the support of W against the old SVD route."""

    @pytest.mark.parametrize("dims", ORACLE_DIMS, ids=str)
    @pytest.mark.parametrize("text", ["pure:omega", "pure:random", "pure:separable"])
    def test_matches_svd_oracle(self, dims, text):
        spec = EnsembleSpec(*dims, seed=60)
        chois = ensembles._choi_bank(spec, 0, 512, ensembles.PURPOSE_SAMPLE)
        s = parse_strategy(text, spec)
        got = s.errors(spec.d_i, chois)
        assert np.max(np.abs(got - uhlmann_oracle(s.w, spec.d_i, chois))) <= 1e-12

    @pytest.mark.parametrize("dims", ORACLE_DIMS, ids=str)
    def test_custom_output_other_environment(self, dims):
        # W from a wider environment than the channel's; its rank sets r.
        spec = EnsembleSpec(*dims, seed=61)
        w_spec = EnsembleSpec(spec.d_i, spec.d_o, spec.d_e + 2, seed=61)
        _, w = ensembles.sample_choi(w_spec, w_spec.stream(0, ensembles.PURPOSE_FIXED))
        s = PureOutput(w)
        assert s.support.shape == (spec.d_i * spec.d_o, w.marginal_choi().rank())
        chois = ensembles._choi_bank(spec, 0, 512, ensembles.PURPOSE_SAMPLE)
        got = s.errors(spec.d_i, chois)
        assert np.max(np.abs(got - uhlmann_oracle(w, spec.d_i, chois))) <= 1e-12

    @pytest.mark.parametrize("dims", ORACLE_DIMS, ids=str)
    def test_support_rank(self, dims):
        spec = EnsembleSpec(*dims, seed=62)
        side = spec.d_i * spec.d_o
        assert parse_strategy("pure:separable", spec).support.shape == (side, 1)
        omega = parse_strategy("pure:omega", spec).support
        assert omega.shape == (side, side)
        assert_allclose(omega @ omega.conj().T, np.eye(side) / spec.d_o, atol=1e-15)


FLAT_DIMS = [(2, 2, 1), (2, 2, 2), (2, 2, 3), (2, 2, 4), (2, 2, 6), (1, 2, 3), (2, 3, 5)]


class TestFlatAppendRoute:
    """Append.errors on a flat spectrum (Frobenius kernel) against the pairing.

    The dims cover d_E below, at and above d_I d_O."""

    @pytest.mark.parametrize("dims", FLAT_DIMS, ids=str)
    @pytest.mark.parametrize("text", ["append:maxmixed", "avg-ue"])
    def test_matches_pairing_oracle(self, dims, text):
        spec = EnsembleSpec(*dims, seed=64)
        chois = ensembles._choi_bank(spec, 0, 512, ensembles.PURPOSE_SAMPLE)
        s = parse_strategy(text, spec)
        assert isinstance(s, Append)
        assert s.closed_form(spec) == theory.eps_avg_ue(*dims)
        got = s.errors(spec.d_i, chois)
        oracle = pairing_oracle(s.spectrum, spec.d_i, chois)
        assert np.max(np.abs(got - oracle)) <= 1e-12

    def test_optimal_at_trivial_environment_is_flat(self):
        spec = EnsembleSpec(2, 2, 1, seed=65)
        s = parse_strategy("append:optimal", spec, n_weights=100)
        assert np.array_equal(s.spectrum, [1.0])
        chois = ensembles._choi_bank(spec, 0, 512, ensembles.PURPOSE_SAMPLE)
        oracle = pairing_oracle(s.spectrum, spec.d_i, chois)
        assert np.max(np.abs(s.errors(spec.d_i, chois) - oracle)) <= 1e-12


class TestAppendFloorsSpectrum:
    """Append.errors pairs the spectrum of C after ``floor_eigenvalues``, so
    the zero eigenvalues of a rank-deficient C (d_E < d_I d_O) are exact."""

    @pytest.mark.parametrize("dims", [(2, 2, 1), (1, 2, 1)], ids=str)
    def test_pairs_floored_eigenvalues(self, dims):
        spec = EnsembleSpec(*dims, seed=20245)
        chois = ensembles._choi_bank(spec, 0, 512, ensembles.PURPOSE_SAMPLE)
        s = Append(np.array([0.75, 0.25]))
        oracle = pairing_oracle(s.spectrum, spec.d_i, chois)
        assert np.array_equal(s.errors(spec.d_i, chois), oracle)


SCORED_TEXTS = [
    "pure:omega",
    "pure:random",
    "pure:separable",
    "append:maxmixed",
    "append:optimal",
    "append:pure",
    "dep",
    "avg-ue",
]


class TestOutputScoresAsChunkErrors:
    """The orbit ascent on Strategy.output reproduces the reported errors."""

    @pytest.mark.parametrize("dims", [(2, 2, 2), (1, 2, 3)], ids=str)
    @pytest.mark.parametrize("text", SCORED_TEXTS)
    def test_output_error_is_chunk_error(self, dims, text):
        spec = EnsembleSpec(*dims, seed=63)
        s = parse_strategy(text, spec, n_weights=200)
        for i in range(3):
            c, v = sampled(spec, i)
            q = s.output(c)
            # pure:omega lives on d_i d_o environment dimensions, not d_e
            d_e = max(v.d_e, q.shape[0] // (spec.d_i * spec.d_o))
            if isinstance(s, PureOutput):
                q = embed_env(s.w, d_e).projector()
            got = metrics.error_orbit_numeric(q, embed_env(v, d_e), RandomStream(630, i)).error
            assert abs(got - s.chunk_errors(spec, i, i + 1)[0]) <= 1e-6
