import numpy as np
import pytest
from numpy.testing import assert_allclose

from purifylab import linalg, theory
from purifylab import metrics as metrics_module
from purifylab.channels import (
    embed_env,
    identity_isometry_purification,
    max_entangled_purification,
    separable_purification,
)
from purifylab.ensembles import (
    PURPOSE_SAMPLE,
    EnsembleSpec,
    RandomStream,
    _vmat_bank,
    sample_choi,
)
from purifylab.errors import InvalidDims, TooLarge
from purifylab.metrics import (
    ErrorReport,
    error_append,
    error_orbit_numeric,
    error_pure_output,
    estimate_average_error,
    estimate_moments,
    estimate_ordered_weights,
    make_strategy,
    orbit_bruteforce,
    per_sample_errors,
    second_moment_closed_form,
    second_moment_operator,
    channel_pair_moment_closed_form,
)
from purifylab.strategies import (
    Append,
    Estimation,
    MapToDepolarizing,
    parse_strategy,
)


ALL_STRATEGY_TEXTS = [
    "pure:omega",
    "pure:separable",
    "pure:random",
    "append:maxmixed",
    "append:optimal",
    "append:pure",
    "dep",
    "avg-ue",
    "tomo:k=3",
]


def sampled(spec, i=0):
    return sample_choi(spec, spec.stream(i))


def random_density(rng, n):
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = x @ x.conj().T
    return rho / np.trace(rho).real


class TestErrorPureOutput:
    def test_exact_purification_gives_zero(self):
        spec = EnsembleSpec(2, 2, 2, seed=61)
        c, v = sampled(spec)
        assert error_pure_output(c, v) == pytest.approx(0.0, abs=1e-9)

    def test_omega_on_isometric_input(self):
        spec = EnsembleSpec(2, 2, 1, seed=62)
        c, _ = sampled(spec)
        om = max_entangled_purification(2, 2)
        assert error_pure_output(c, om) == pytest.approx(6.0, abs=1e-9)

    def test_separable_per_sample_form(self):
        # For w = Y x psi the error reduces to 2 d^2 - 2 <Y|C|Y>.
        spec = EnsembleSpec(2, 2, 3, seed=63)
        ups = identity_isometry_purification(2, 2)
        w = separable_purification(ups, np.eye(3)[0])
        for i in range(10):
            c, _ = sampled(spec, i)
            direct = 8 - 2 * np.vdot(ups.vector, c.matrix @ ups.vector).real
            assert error_pure_output(c, w) == pytest.approx(direct, abs=1e-8)

    def test_separable_mean_matches_closed_form(self):
        spec = EnsembleSpec(2, 2, 3, seed=64)
        rep = estimate_average_error(parse_strategy("pure:separable", spec), spec, 3000)
        assert rep.closed_form == pytest.approx(6.0)
        assert abs(rep.mean - 6.0) < 4 * rep.stderr


class TestSingleSampleRoutes:
    """Each error_* route is a batch of one through its machine's kernel."""

    DIMS = [(2, 2, 1), (2, 2, 3), (1, 2, 2), (2, 3, 5)]

    @pytest.mark.parametrize("dims", DIMS)
    @pytest.mark.parametrize("text", ["pure:omega", "pure:random", "pure:separable", "avg-ue"])
    def test_rows_bit_identical(self, dims, text):
        spec = EnsembleSpec(*dims, seed=33)
        strat = parse_strategy(text, spec)
        rows = strat.chunk_errors(spec, 0, 100)
        for i in range(0, 100, 2):
            c, _ = sampled(spec, i)
            if text == "avg-ue":
                single = strat.errors(spec.d_i, c.matrix[None])[0]
            else:
                single = error_pure_output(c, strat.w)
            assert np.array_equal(single, rows[i])

    @pytest.mark.parametrize("dims", DIMS)
    @pytest.mark.parametrize("text", ["append:maxmixed", "append:optimal", "append:pure"])
    def test_append_rows(self, dims, text):
        # error_append sums rows by matrix-vector product, the chunk by
        # matrix-matrix product, so the last bits may differ
        spec = EnsembleSpec(*dims, seed=34)
        strat = make_strategy(text, spec, n_weights=500)
        rows = strat.chunk_errors(spec, 0, 100)
        single = [error_append(sampled(spec, i)[0], np.diag(strat.spectrum))
                  for i in range(0, 100, 2)]
        assert_allclose(single, rows[::2], rtol=1e-14, atol=1e-14)


class TestErrorAppend:
    def test_trivial_environment_isometric(self):
        spec = EnsembleSpec(2, 2, 1, seed=65)
        c, _ = sampled(spec)
        assert error_append(c, np.array([[1.0]])) == pytest.approx(0.0, abs=1e-9)

    def test_maxmixed_value(self):
        spec = EnsembleSpec(2, 2, 3, seed=66)
        c, _ = sampled(spec)
        expect = 4 - c.purity() / 3
        assert error_append(c, np.eye(3) / 3) == pytest.approx(expect, abs=1e-10)

    def test_against_bruteforce_grid(self):
        spec = EnsembleSpec(2, 2, 2, seed=67)
        rng = np.random.default_rng(67)
        for i in range(5):
            c, v = sampled(spec, i)
            rho = random_density(rng, 2)
            exact = error_append(c, rho)
            grid = orbit_bruteforce(np.kron(c.matrix, rho), v, resolution=48)
            assert grid == pytest.approx(exact, abs=1e-4)
            assert grid >= exact - 1e-12  # grid upper-bounds the minimum


class TestConstantRoutes:
    def test_map_to_depolarizing(self):
        assert theory.eps_dep(2, 2, 1) == pytest.approx(3.0)
        assert theory.eps_dep(1, 2, 2) == pytest.approx(0.75)
        rows = MapToDepolarizing(2).chunk_errors(EnsembleSpec(1, 2, 2), 0, 3)
        assert_allclose(rows, [0.75] * 3)

    def test_avg_env_unitary_per_sample(self):
        spec = EnsembleSpec(2, 2, 2, seed=68)
        c, _ = sampled(spec)
        err = parse_strategy("avg-ue", spec).errors(c.d_i, c.matrix[None])[0]
        assert err == pytest.approx(4 - c.purity() / 2)


class TestOrbitNumeric:
    def test_self_purification(self):
        spec = EnsembleSpec(2, 2, 2, seed=71)
        _, v = sampled(spec)
        res = error_orbit_numeric(v.projector(), v, rs=RandomStream(71, 0))
        assert res.error == pytest.approx(0.0, abs=1e-8)
        assert res.converged

    def test_matches_append_closed_form(self):
        spec = EnsembleSpec(2, 2, 2, seed=72)
        rng = np.random.default_rng(72)
        for i in range(10):
            c, v = sampled(spec, i)
            rho = random_density(rng, 2)
            res = error_orbit_numeric(np.kron(c.matrix, rho), v, rs=RandomStream(72, i))
            assert res.error == pytest.approx(error_append(c, rho), abs=1e-6)

    def test_matches_pure_closed_form_embedded(self):
        spec = EnsembleSpec(2, 2, 2, seed=73)
        om = max_entangled_purification(2, 2)
        for i in range(5):
            c, v = sampled(spec, i)
            res = error_orbit_numeric(
                om.projector(), embed_env(v, 4), rs=RandomStream(73, i)
            )
            assert res.error == pytest.approx(error_pure_output(c, om), abs=1e-6)

    def test_matches_closed_forms_state_case(self):
        # Same oracle agreement in the state case (trivial input system).
        spec = EnsembleSpec(1, 2, 2, seed=79)
        rng = np.random.default_rng(79)
        om = max_entangled_purification(1, 2)
        for i in range(10):
            c, v = sampled(spec, i)
            rho = random_density(rng, 2)
            res = error_orbit_numeric(np.kron(c.matrix, rho), v, rs=RandomStream(79, i))
            assert res.error == pytest.approx(error_append(c, rho), abs=1e-6)
            res = error_orbit_numeric(om.projector(), v, rs=RandomStream(80, i))
            assert res.error == pytest.approx(error_pure_output(c, om), abs=1e-6)

    @pytest.mark.parametrize("d_e", [2, 4])
    def test_flat_ridge(self, d_e):
        # An appended spectrum within 1e-7 of flat leaves the overlap a nearly
        # flat ridge over the orbit, the case the Barzilai-Borwein step is for.
        spec = EnsembleSpec(2, 2, d_e, seed=83)
        rng = np.random.default_rng(83)
        for i in range(10):
            c, v = sampled(spec, i)
            lam = 1 / d_e + 1e-7 * rng.standard_normal(d_e)
            rho = np.diag(lam / lam.sum())
            res = error_orbit_numeric(np.kron(c.matrix, rho), v, rs=RandomStream(83, i))
            assert abs(res.error - error_append(c, rho)) <= 1e-9
            assert res.converged

    def test_stopped_start_leaves_the_stack(self, monkeypatch):
        # For Q = |V><V| the identity start is already the maximum, so it
        # stops at the stationarity rule and only the 19 Haar starts climb.
        spec = EnsembleSpec(2, 2, 2, seed=84)
        _, v = sampled(spec)
        sizes = []
        overlap = metrics_module._overlap

        def counted(q, vmat, u):
            sizes.append(len(u))
            return overlap(q, vmat, u)

        monkeypatch.setattr(metrics_module, "_overlap", counted)
        res = error_orbit_numeric(v.projector(), v, rs=RandomStream(84, 0))
        assert sizes[0] == 20 and max(sizes[1:]) <= 19
        assert res.error == pytest.approx(0.0, abs=1e-12)
        assert res.converged

    def test_never_worse_than_identity_start(self):
        spec = EnsembleSpec(2, 2, 3, seed=74)
        rng = np.random.default_rng(74)
        c, v = sampled(spec)
        rho = random_density(rng, 3)
        q = np.kron(c.matrix, rho)
        res = error_orbit_numeric(q, v, rs=RandomStream(74, 0))
        ident = float(np.vdot(q, q).real) + 4 - 2 * np.vdot(v.vector, q @ v.vector).real
        assert res.error <= ident + 1e-12


class TestBruteForce:
    def test_trivial_environment_phase_free(self):
        spec = EnsembleSpec(2, 2, 1, seed=75)
        c, v = sampled(spec)
        q = np.kron(c.matrix, np.array([[1.0]]))
        direct = float(np.linalg.norm(q - v.projector()) ** 2)
        assert orbit_bruteforce(q, v, resolution=5) == pytest.approx(direct, abs=1e-10)

    def test_grid_refinement(self):
        spec = EnsembleSpec(2, 2, 2, seed=76)
        rng = np.random.default_rng(76)
        c, v = sampled(spec)
        q = np.kron(c.matrix, random_density(rng, 2))
        coarse = orbit_bruteforce(q, v, resolution=24)
        fine = orbit_bruteforce(q, v, resolution=48)
        assert abs(coarse - fine) < 1e-3
        assert fine <= coarse + 1e-12

    def test_dominates_numeric(self):
        spec = EnsembleSpec(2, 2, 2, seed=77)
        rng = np.random.default_rng(77)
        for i in range(5):
            c, v = sampled(spec, i)
            q = np.kron(c.matrix, random_density(rng, 2))
            grid = orbit_bruteforce(q, v, resolution=24)
            res = error_orbit_numeric(q, v, rs=RandomStream(77, i))
            assert res.error <= grid + 1e-9

    def test_too_large(self):
        spec = EnsembleSpec(2, 2, 3, seed=78)
        c, v = sampled(spec)
        with pytest.raises(TooLarge):
            orbit_bruteforce(np.kron(c.matrix, np.eye(3) / 3), v)


class TestEstimateAverageError:
    def test_dep_zero_variance(self):
        spec = EnsembleSpec(2, 2, 3, seed=81)
        rep = estimate_average_error(MapToDepolarizing(3), spec, 100, keep_per_sample=True)
        assert np.all(np.abs(rep.per_sample - (4 - 1 / 3)) < 1e-9)
        assert rep.stderr == 0.0
        assert np.ptp(rep.per_sample) == 0.0  # no spread at all
        assert rep.consistent_with_closed_form()

    def test_append_maxmixed_trivial_env(self):
        spec = EnsembleSpec(2, 2, 1, seed=82)
        rep = estimate_average_error(Append([1.0]), spec, 100)
        assert rep.mean <= 1e-10
        assert rep.closed_form == pytest.approx(0.0, abs=1e-12)

    def test_pure_omega_trivial_env(self):
        spec = EnsembleSpec(2, 2, 1, seed=83)
        rep = estimate_average_error(parse_strategy("pure:omega", spec), spec, 100)
        assert rep.mean == pytest.approx(6.0, abs=1e-12)
        assert rep.stderr == 0.0

    def test_avg_ue_matches_closed_form(self):
        spec = EnsembleSpec(2, 2, 2, seed=84)
        rep = estimate_average_error(parse_strategy("avg-ue", spec), spec, 5000)
        assert rep.closed_form == pytest.approx(2.8)
        assert rep.consistent_with_closed_form(3)

    def test_per_sample_errors_bounded(self):
        spec = EnsembleSpec(2, 2, 4, seed=85)
        for text in ("pure:omega", "append:maxmixed", "dep", "avg-ue", "append:pure"):
            per = per_sample_errors(parse_strategy(text, spec), spec, 50)
            assert np.all(per >= 0.0)
            assert np.all(per <= 2 * 4 + 1e-9)

    @pytest.mark.parametrize("text", ALL_STRATEGY_TEXTS)
    def test_worker_count_invariance(self, text):
        # n = 1200 spans three 512-sample chunks, so the pool path runs.
        spec = EnsembleSpec(2, 2, 2, seed=86)
        strat = make_strategy(text, spec, n_weights=1200)
        a = per_sample_errors(strat, spec, 1200, workers=1)
        b = per_sample_errors(strat, spec, 1200, workers=4)
        assert np.array_equal(a, b)

    def test_estimation_strategy_report(self):
        spec = EnsembleSpec(1, 2, 2, seed=87)
        rep = estimate_average_error(Estimation(256), spec, 40)
        assert 0 < rep.mean < 0.2
        assert rep.closed_form is None

    def test_needs_two_samples(self):
        spec = EnsembleSpec(2, 2, 2, seed=88)
        with pytest.raises(InvalidDims):
            estimate_average_error(MapToDepolarizing(2), spec, 1)

    def test_closed_form_check_defaults_to_three_sigma(self):
        rep = ErrorReport("dep", 2, 2, 2, 100, 0, mean=1.35, stderr=0.1, closed_form=1.0)
        assert rep.consistent_with_closed_form() is False
        assert rep.consistent_with_closed_form(4.0) is True

    def test_report_json_schema(self):
        spec = EnsembleSpec(2, 2, 2, seed=89)
        rep = estimate_average_error(MapToDepolarizing(2), spec, 10)
        data = rep.to_json_dict()
        assert set(data) == {
            "strategy", "d_i", "d_o", "d_e", "n", "seed", "mean", "stderr",
            "closed_form",
        }
        assert data["strategy"] == "dep"


class TestMoments:
    def test_purity_vs_closed_form(self):
        spec = EnsembleSpec(2, 2, 4, seed=91)
        rep = estimate_moments(spec, 20_000, "purity")
        assert abs(rep.value - 12 / 7) < 3 * rep.stderr[0]

    def test_sqrt_trace_constant_at_trivial_env(self):
        spec = EnsembleSpec(2, 2, 1, seed=92)
        rep = estimate_moments(spec, 200, "sqrt_trace_sq")
        assert rep.value == pytest.approx(2.0, abs=1e-10)
        assert rep.stderr[0] < 1e-10

    def test_ordered_sum_equals_purity(self):
        spec = EnsembleSpec(2, 2, 2, seed=93)
        ordered = estimate_moments(spec, 2000, "ordered_eig_sq")
        purity = estimate_moments(spec, 2000, "purity")
        assert ordered.values.shape == (2,)
        assert ordered.values.sum() == pytest.approx(purity.value, abs=1e-10)

    def test_cmax_moment_bounds(self):
        spec = EnsembleSpec(2, 2, 2, seed=94)
        rep = estimate_moments(spec, 2000, "cmax_sq")
        assert 1 / 4 <= rep.value <= 4.0

    def test_unknown_moment_rejected_before_drawing(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew a sample bank for an unknown moment")

        monkeypatch.setattr(metrics_module, "_choi_bank", no_draw)
        spec = EnsembleSpec(2, 2, 2, seed=97)
        for workers in (1, 2):
            with pytest.raises(InvalidDims, match="unknown moment"):
                estimate_moments(spec, 2000, "bogus", workers=workers)

    def test_ordered_weights_are_descending(self):
        spec = EnsembleSpec(2, 2, 4, seed=95)
        w = estimate_ordered_weights(spec, 2000)
        assert w.shape == (4,)
        assert np.all(np.diff(w) <= 0)

    def test_make_strategy_append_optimal(self):
        spec = EnsembleSpec(2, 2, 2, seed=96)
        s = make_strategy("append:optimal", spec, n_weights=2000)
        lam = s.spectrum
        assert lam.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(lam) <= 0)


def full_column_second_moment(spec, n):
    """Reference accumulator: (v x v)(v x v)† over all side^2 columns.

    Chunks of ``metrics._CHUNK`` draws summed in index order, then divided
    by n: the arithmetic the Sym^2 accumulator must reproduce bit for bit.
    """
    acc = None
    for lo in range(0, n, metrics_module._CHUNK):
        hi = min(lo + metrics_module._CHUNK, n)
        vecs = _vmat_bank(spec, lo, hi, PURPOSE_SAMPLE).reshape(hi - lo, -1)
        pairs = np.einsum("bi,bj->bij", vecs, vecs).reshape(hi - lo, -1)
        part = np.einsum("bi,bj->ij", pairs, pairs.conj())
        acc = part if acc is None else acc + part
    return acc / n


class TestSecondMoment:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "dims, n", [((2, 2, 2), 1300), ((1, 2, 3), 700), ((2, 3, 2), 600), ((2, 2, 4), 1100)]
    )
    def test_matches_full_column_oracle(self, dims, n, workers):
        spec = EnsembleSpec(*dims, seed=110)
        got = second_moment_operator(spec, n, workers=workers)
        assert np.array_equal(got, full_column_second_moment(spec, n))

    def test_symmetric_pairs_index_maps(self):
        kept, full = metrics_module._symmetric_pairs(3)
        assert kept.tolist() == [0, 1, 2, 4, 5, 8]  # (i, j) with i <= j
        assert full.tolist() == [0, 1, 2, 1, 3, 4, 2, 4, 5]
        i, j = np.indices((3, 3)).reshape(2, -1)
        assert np.array_equal(kept[full], np.minimum(i, j) * 3 + np.maximum(i, j))

    def test_pure_state_two_design(self):
        # At (1, 2, 1) the exact two-copy average is the symmetric projector
        # scaled by 2 / (D^2 + D) with D = 2.
        spec = EnsembleSpec(1, 2, 1, seed=101)
        got = second_moment_closed_form(spec)
        f = linalg.flip_operator(2)
        sym_projector = (np.eye(4) + f) / 2
        assert_allclose(got, sym_projector * 2 / (4 + 2), atol=1e-12)

    @pytest.mark.parametrize("dims", [(1, 2, 2), (2, 2, 2), (2, 3, 1)])
    def test_closed_forms_match_swap_products(self, dims):
        # The two-moment identity written with matmul products of factor swaps.
        d_i, d_o, d_e = dims
        spec = EnsembleSpec(d_i, d_o, d_e)
        big = d_o * d_e
        six = (d_i, d_o, d_e, d_i, d_o, d_e)
        f_i = linalg.swap_factors(six, 0, 3)
        f_oe = linalg.swap_factors(six, 1, 4) @ linalg.swap_factors(six, 2, 5)
        eye = np.eye(len(f_i))
        want = (eye + f_i @ f_oe) / (big**2 - 1) - (f_i + f_oe) / (big * (big**2 - 1))
        assert np.array_equal(second_moment_closed_form(spec), want)
        four = (d_i, d_o, d_i, d_o)
        f_i = linalg.swap_factors(four, 0, 2)
        f_o = linalg.swap_factors(four, 1, 3)
        eye = np.eye(len(f_i))
        lead = (d_e**2 * eye + d_e * f_i @ f_o) / (big**2 - 1)
        sub = (d_e**2 * f_i + d_e * f_o) / (big * (big**2 - 1))
        assert np.array_equal(channel_pair_moment_closed_form(spec), lead - sub)

    def test_closed_form_trace(self):
        spec = EnsembleSpec(2, 2, 2, seed=102)
        cf = second_moment_closed_form(spec)
        assert np.trace(cf).real == pytest.approx(4.0, abs=1e-10)

    def test_partial_trace_pipeline(self):
        # Tracing both environments of the two-copy average reproduces the
        # exact E[C x C], whose flip contraction is the average purity.
        spec = EnsembleSpec(2, 2, 2, seed=103)
        cf = second_moment_closed_form(spec)
        dims = (2, 2, 2, 2, 2, 2)
        traced = linalg.partial_trace(cf, dims, keep=(0, 1, 3, 4))
        pair = channel_pair_moment_closed_form(spec)
        assert_allclose(traced, pair, atol=1e-12)
        f_pair = linalg.swap_factors((2, 2, 2, 2), 0, 2) @ linalg.swap_factors(
            (2, 2, 2, 2), 1, 3
        )
        purity = np.trace(f_pair @ pair).real
        assert purity == pytest.approx(theory.avg_purity(2, 2, 2), abs=1e-12)

    def test_single_copy_mean(self):
        # Tracing one full copy and the environment leaves E[C] = 1 / d_o.
        spec = EnsembleSpec(2, 2, 2, seed=104)
        cf = second_moment_closed_form(spec)
        dims = (2, 2, 2, 2, 2, 2)
        one_copy = linalg.partial_trace(cf, dims, keep=(0, 1)) / 2
        assert_allclose(one_copy, np.eye(4) / 2, atol=1e-12)

    def test_monte_carlo_agreement_light(self):
        spec = EnsembleSpec(2, 2, 2, seed=105)
        mc = second_moment_operator(spec, 10_000)
        cf = second_moment_closed_form(spec)
        rel = np.linalg.norm(mc - cf) / np.linalg.norm(cf)
        assert rel < 0.10

    def test_worker_invariance(self):
        spec = EnsembleSpec(2, 2, 1, seed=106)
        a = second_moment_operator(spec, 1500, workers=1)
        b = second_moment_operator(spec, 1500, workers=3)
        assert np.array_equal(a, b)

    def test_two_worker_invariance(self):
        # Three chunks at (2, 2, 2), summed in index order by both paths.
        spec = EnsembleSpec(2, 2, 2, seed=108)
        a = second_moment_operator(spec, 1300, workers=1)
        b = second_moment_operator(spec, 1300, workers=2)
        assert np.array_equal(a, b)

    def test_too_large(self):
        spec = EnsembleSpec(4, 4, 8, seed=107)
        with pytest.raises(TooLarge):
            second_moment_operator(spec, 10)

    def test_needs_a_sample(self):
        with pytest.raises(InvalidDims):
            second_moment_operator(EnsembleSpec(1, 2, 1, seed=109), 0)
