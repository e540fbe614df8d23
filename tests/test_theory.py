import math

import numpy as np
import pytest

from purifylab import theory
from purifylab.errors import DomainError


class TestAvgPurity:
    def test_isometric_limit(self):
        for d_i, d_o in [(1, 2), (2, 2), (3, 4)]:
            assert theory.avg_purity(d_i, d_o, 1) == pytest.approx(d_i**2)

    def test_exact_value_224(self):
        # (2*2*15 + 4*4*3) / 63 = 108/63 = 12/7
        assert theory.avg_purity(2, 2, 4) == pytest.approx(12 / 7, abs=1e-15)

    def test_exact_value_222(self):
        assert theory.avg_purity(2, 2, 2) == pytest.approx(2.4, abs=1e-15)

    def test_large_environment_limit(self):
        val = theory.avg_purity(2, 2, 10**6)
        assert val == pytest.approx(2 / 2, rel=1e-5)

    def test_monotone_decreasing(self):
        vals = [theory.avg_purity(2, 2, d_e) for d_e in range(1, 65)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_range(self):
        for d_e in (1, 2, 5, 50):
            p = theory.avg_purity(3, 2, d_e)
            assert 3 / 2 - 1e-12 <= p <= 9 + 1e-12


class TestEnsembleShapes:
    @pytest.mark.parametrize("dims", [(1, 1, 1), (2, 1, 4), (1, 0, 2), (1, 2, 0), (0, 2, 2),
                                      (2, 2, float("nan"))],
                             ids=["d_o-d_e-1", "d_o-1", "d_o-0", "d_e-0", "d_i-0", "d_e-nan"])
    @pytest.mark.parametrize("fn", [theory.avg_purity, theory.eps_dep, theory.eps_avg_ue,
                                    theory.eps_app_bounds],
                             ids=["avg_purity", "eps_dep", "eps_avg_ue", "eps_app_bounds"])
    def test_outside_ensemble_spec_raises(self, fn, dims):
        # d_o = d_e = 1 and d_o d_e = 0 once raised ZeroDivisionError
        with pytest.raises(DomainError, match="d_o >= 2"):
            fn(*dims)


class TestEpsDep:
    def test_values(self):
        assert theory.eps_dep(2, 2, 1) == pytest.approx(3.0)
        assert theory.eps_dep(2, 2, 4) == pytest.approx(3.75)
        assert theory.eps_dep(1, 2, 2) == pytest.approx(0.75)

    def test_balanced_matches_square_form(self):
        # At d_e = d_i d_o the value is d_i^2 - 1/d_o^2.
        assert theory.eps_dep(2, 2, 4) == pytest.approx(4 - 1 / 4)
        assert theory.eps_dep(3, 2, 6) == pytest.approx(9 - 1 / 4)

    def test_large_environment(self):
        assert theory.eps_dep(2, 2, 10**6) == pytest.approx(4.0, rel=1e-5)


class TestEpsAvgUe:
    def test_trivial_environment(self):
        assert theory.eps_avg_ue(2, 2, 1) == pytest.approx(0.0, abs=1e-12)
        assert theory.eps_avg_ue(3, 5, 1) == pytest.approx(0.0, abs=1e-12)

    def test_value_222(self):
        # 4 - (36/15)/2 = 2.8
        assert theory.eps_avg_ue(2, 2, 2) == pytest.approx(2.8, abs=1e-12)

    def test_large_environment(self):
        assert theory.eps_avg_ue(2, 2, 10**6) == pytest.approx(4.0, rel=1e-5)

    def test_identity_with_purity(self):
        for d_e in range(1, 9):
            direct = theory.eps_avg_ue(2, 3, d_e)
            composed = 4 - theory.avg_purity(2, 3, d_e) / d_e
            assert direct == pytest.approx(composed, abs=1e-14)


class TestEpsPure:
    def test_isometric_inputs(self):
        assert theory.eps_separable_pure_output(2, 2) == pytest.approx(6.0)
        # Same value through the moment form: moment = d_i at d_e = 1.
        assert theory.eps_pure(2, 2, 2.0) == pytest.approx(6.0)

    def test_depolarizing_limit(self):
        # moment -> tr(sqrt(1/d_o))^2 = d_i^2 d_o kills the error.
        assert theory.eps_pure(2, 2, 8.0) == pytest.approx(0.0)

    def test_separable_value(self):
        assert theory.eps_separable_pure_output(2, 2) == pytest.approx(6.0)


class TestEpsApp:
    def test_isometric_case(self):
        # Single weight d_i^4 with avg_purity d_i^2 gives zero.
        assert theory.eps_app(2, 2, 1, [4.0]) == pytest.approx(0.0, abs=1e-12)

    def test_depolarizing_limit_weights(self):
        # All d_i d_o eigenvalues concentrate at 1/d_o.
        d_i = d_o = 2
        weights = [1 / d_o**2] * (d_i * d_o)
        big = theory.eps_app(d_i, d_o, 10**9, weights)
        assert big == pytest.approx(d_i**2 - 1 / d_o**2, rel=1e-6)

    def test_bounds_222(self):
        lo, hi = theory.eps_app_bounds(2, 2, 2)
        assert lo == pytest.approx(1.6, abs=1e-12)
        assert hi == pytest.approx(2.8, abs=1e-12)

    def test_bounds_ordering(self):
        for d_e in range(1, 9):
            lo, hi = theory.eps_app_bounds(2, 2, d_e)
            assert lo <= hi + 1e-12


class TestEpsAppMonteCarloSandwich:
    @pytest.mark.parametrize("d_e", range(1, 9))
    def test_bounds_hold_with_estimated_weights(self, d_e):
        from purifylab.ensembles import EnsembleSpec
        from purifylab.metrics import estimate_moments

        spec = EnsembleSpec(2, 2, d_e, seed=500 + d_e)
        rep = estimate_moments(spec, 4000, "ordered_eig_sq")
        val = theory.eps_app(2, 2, d_e, rep.values)
        lo, hi = theory.eps_app_bounds(2, 2, d_e)
        # Propagate weight noise: d(val) = -2 w_i dw_i / purity.
        p = theory.avg_purity(2, 2, d_e)
        sigma = 2 * np.sqrt(np.sum((rep.values * rep.stderr) ** 2)) / p
        assert lo - 3 * sigma - 1e-9 <= val <= hi + 3 * sigma + 1e-9

    def test_pure_ancilla_never_beats_optimal_spectrum(self):
        from purifylab.ensembles import EnsembleSpec
        from purifylab.metrics import estimate_moments

        spec = EnsembleSpec(2, 2, 2, seed=321)
        weights = estimate_moments(spec, 10_000, "ordered_eig_sq")
        cmax = estimate_moments(spec, 10_000, "cmax_sq")
        optimal = theory.eps_app(2, 2, 2, weights.values)
        pure = theory.eps_app_pure_ancilla(2, 2, 2, cmax.value)
        slack = 3 * (np.linalg.norm(weights.stderr) + cmax.stderr[0])
        assert pure >= optimal - slack


class TestEpsAppPureAncilla:
    def test_isometric_case(self):
        # c_max = d_i and purity d_i^2: value collapses to zero.
        assert theory.eps_app_pure_ancilla(2, 2, 1, 4.0) == pytest.approx(0.0)

    def test_moment_bounds_plugged(self):
        # With the extreme admissible moments, value stays in a sane band.
        v_hi = theory.eps_app_pure_ancilla(2, 2, 2, 1 / 4)
        v_lo = theory.eps_app_pure_ancilla(2, 2, 2, 4.0)
        assert v_lo <= v_hi


class TestEpsTomoBound:
    def test_large_k(self):
        val = theory.eps_tomo_bound(2, 2, 2, 10**12, 1e-6, 1.0)
        assert val == pytest.approx(8e-6, rel=1e-3)

    def test_small_k_clamp(self):
        val = theory.eps_tomo_bound(2, 2, 2, 1, 0.1, 1.0)
        assert val == pytest.approx(2 * 4 * (1 + 0.1))

    def test_rank_saturation(self):
        # min(d_e, d_i d_o) = 4 for both d_e = 4 and d_e = 9.
        a = theory.eps_tomo_bound(2, 2, 4, 100, 0.01, 1.0)
        b = theory.eps_tomo_bound(2, 2, 9, 100, 0.01, 1.0)
        assert a == b

    def test_domain(self):
        with pytest.raises(DomainError):
            theory.eps_tomo_bound(2, 2, 2, 10, delta=0.0, kappa=1.0)
        with pytest.raises(DomainError):
            theory.eps_tomo_bound(2, 2, 2, 10, delta=0.5, kappa=0.0)
        with pytest.raises(DomainError):
            theory.eps_tomo_bound(2, 2, 2, 0, delta=0.5, kappa=1.0)

    @pytest.mark.parametrize(
        "k, kappa", [(64, math.nan), (math.nan, 1.0)], ids=["kappa", "k"]
    )
    def test_nan_raises(self, k, kappa):
        # each check is a failed positive test, so NaN fails it
        with pytest.raises(DomainError):
            theory.eps_tomo_bound(2, 2, 2, k, 0.1, kappa)


class TestTable2:
    def test_balanced_purity_qubits(self):
        # (4*15 + 8*2*3) / 63 = 12/7
        val = theory.table2_regime_values(2, 2)["balanced_purity"]
        assert val == pytest.approx(12 / 7, abs=1e-15)
        assert val == pytest.approx(theory.avg_purity(2, 2, 4), abs=1e-15)

    def test_regime_table(self):
        t = theory.table2_regime_values(2, 2)
        assert t["append"]["d_e=1"] == 0.0
        assert t["avg_ue"]["d_e=d_i*d_o"] == pytest.approx(4 - (12 / 7) / 4)
        assert t["avg_ue"]["d_e=d_i*d_o"] == pytest.approx(25 / 7)
        assert t["pure"]["d_e=d_i*d_o"] is None
        assert t["pure"]["d_e=inf"] == 0.0
        assert t["dep"]["d_e=inf"] == 4.0

        lo, hi = t["append"]["d_e=d_i*d_o"]
        assert lo == pytest.approx(4 - 12 / 7)
        assert hi == pytest.approx(4 - (12 / 7) / 4)

    def test_closed_forms_stated_once(self):
        # the table and the upper append bound call the closed forms; each
        # entry equals both the function and the written-out expression
        for d_i in range(1, 6):
            for d_o in range(2, 6):
                for d_e in range(1, 30):
                    p = theory.avg_purity(d_i, d_o, d_e)
                    hi = theory.eps_app_bounds(d_i, d_o, d_e)[1]
                    assert hi == theory.eps_avg_ue(d_i, d_o, d_e) == d_i**2 - p / d_e
                t = theory.table2_regime_values(d_i, d_o)
                bal = d_i * d_o
                e_bal = theory.avg_purity(d_i, d_o, bal)
                assert t["balanced_purity"] == e_bal
                assert t["pure"]["d_e=1"] == theory.eps_separable_pure_output(d_i, d_o)
                assert t["append"]["d_e=d_i*d_o"] == theory.eps_app_bounds(d_i, d_o, bal)
                assert t["append"]["d_e=d_i*d_o"] == (d_i**2 - e_bal, d_i**2 - e_bal / bal)
                assert t["dep"]["d_e=1"] == theory.eps_dep(d_i, d_o, 1) == d_i**2 - d_i / d_o
                assert (t["dep"]["d_e=d_i*d_o"] == theory.eps_dep(d_i, d_o, bal)
                        == d_i**2 - 1.0 / d_o**2)
                assert t["avg_ue"]["d_e=1"] == theory.eps_avg_ue(d_i, d_o, 1) == 0.0
                assert (t["avg_ue"]["d_e=d_i*d_o"] == theory.eps_avg_ue(d_i, d_o, bal)
                        == d_i**2 - e_bal / bal)


class TestSqrtMomentAsymptote:
    def test_balanced_reference(self):
        ref = theory.sqrt_moment_asymptote(2, 2, 4)
        assert ref == pytest.approx(8 * (8 / (3 * math.pi)) ** 2, abs=1e-10)

    def test_large_environment_tends_to_full(self):
        # c -> 0 means mu -> 1 and the reference approaches d_i^2 d_o.
        ref = theory.sqrt_moment_asymptote(2, 2, 10**6)
        assert ref == pytest.approx(8.0, rel=1e-4)

    def test_empty_environment_raises(self):
        with pytest.raises(DomainError):
            theory.sqrt_moment_asymptote(2, 2, 0)
