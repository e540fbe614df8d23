"""Input checks: every site applies the one rule ``linalg`` owns for its
property.  For each site an input just inside the rule passes and one just
outside raises the rule's exception type."""

import numpy as np
import pytest

from purifylab import channels, linalg
from purifylab.channels import (
    ChoiOperator,
    KrausSet,
    apply_env_unitary,
    choi_from_kraus,
    identity_isometry_purification,
    max_entangled_purification,
    separable_purification,
)
from purifylab.cli import main
from purifylab.ensembles import EnsembleSpec, RandomStream, sample_choi
from purifylab.errors import (
    EnvironmentTooSmall,
    InvalidDims,
    NotHermitian,
    NotNormalized,
    NotPSD,
    NotTracePreserving,
    NotUnitary,
)
from purifylab.metrics import (
    ErrorReport,
    error_append,
    error_orbit_numeric,
    error_pure_output,
    orbit_bruteforce,
)
from purifylab.strategies import Append

# multiples of a rule's tolerance: just inside, just outside
INSIDE, OUTSIDE = 0.5, 2.0
SIDES = pytest.mark.parametrize("f", [INSIDE, OUTSIDE], ids=["inside", "outside"])


def check(f, exc, fn):
    """Run fn; it must pass inside the rule and raise exc outside it."""
    if f == INSIDE:
        fn()
    else:
        with pytest.raises(exc):
            fn()


def sampled_choi(d_i=2, d_o=2, d_e=2, seed=0):
    spec = EnsembleSpec(d_i, d_o, d_e, seed=seed)
    return sample_choi(spec, spec.stream(0))[0]


def skewed(m, delta):
    """m with delta added above the diagonal only: |m - m†| = delta."""
    out = np.array(m, dtype=complex)
    out[0, 1] += delta
    return out


# A trace-one matrix far from Hermitian, valid in every other respect.
NON_HERMITIAN = np.array([[0.5, 0.3], [0.0, 0.5]])


class TestChoiValidate:
    @SIDES
    def test_hermiticity(self, f):
        # depolarizing (2, 2): max|m| = 1/2; the skew leaves trace and tr_O C
        m = skewed(np.eye(4) / 2, f * linalg.HERM_TOL * 0.5)
        check(f, NotHermitian, ChoiOperator(2, 2, m).validate)

    @SIDES
    def test_negativity(self, f):
        delta = f * linalg.PSD_TOL
        m = np.kron(np.eye(2), np.diag([1.0 + delta, -delta]))
        check(f, NotPSD, ChoiOperator(2, 2, m).validate)

    @SIDES
    def test_trace(self, f):
        m = (1.0 + f * linalg.NORM_TOL) * np.eye(4) / 2
        check(f, NotNormalized, ChoiOperator(2, 2, m).validate)

    @SIDES
    def test_trace_preservation(self, f):
        t = f * linalg.ISO_TOL
        m = np.kron(np.diag([1.0 + t, 1.0 - t]), np.eye(2) / 2)
        check(f, NotTracePreserving, ChoiOperator(2, 2, m).validate)


def orbit_numeric(q, v):
    """``error_orbit_numeric`` with a restart stream no channel here is drawn from."""
    return error_orbit_numeric(q, v, RandomStream(97, 0))


class TestOrbitInput:
    @SIDES
    def test_hermiticity(self, f):
        q = skewed(np.diag([1.0, 0.0]), f * linalg.HERM_TOL)
        v = identity_isometry_purification(1, 2)
        check(f, NotHermitian, lambda: orbit_numeric(q, v))

    @SIDES
    def test_negativity(self, f):
        # trace 1 = d_i, so only the negativity rule is at its boundary
        delta = f * linalg.PSD_TOL
        q = np.diag([1.0 + delta, -delta])
        v = identity_isometry_purification(1, 2)
        check(f, NotPSD, lambda: orbit_numeric(q, v))

    @SIDES
    def test_trace(self, f):
        # Q = 5 |v><v| used to score the 2 d_i^2 clip
        v = identity_isometry_purification(1, 2)
        q = (1.0 + f * linalg.NORM_TOL) * v.projector()
        check(f, NotNormalized, lambda: orbit_numeric(q, v))

    @SIDES
    def test_purification_norm(self, f):
        # a purification scaled by 2 used to score a clipped 0.0
        v = identity_isometry_purification(1, 2)
        scaled = channels.PurificationVector(
            1, 2, 1, np.sqrt(1.0 + f * linalg.NORM_TOL) * v.vector
        )
        check(f, NotNormalized, lambda: orbit_numeric(v.projector(), scaled))

    def test_bruteforce_resolution(self):
        # used to stop in numpy's reshape of an empty grid
        v = max_entangled_purification(1, 2)
        with pytest.raises(InvalidDims):
            orbit_bruteforce(v.projector(), v, resolution=0)

    @pytest.mark.parametrize(
        "route", [pytest.param(orbit_numeric, id="error_orbit_numeric"), orbit_bruteforce]
    )
    @pytest.mark.parametrize("bad, exc", [
        ("shape", InvalidDims), ("negative", NotPSD), ("nan", NotHermitian),
        ("norm", NotNormalized),
    ])
    def test_both_routes_reject(self, route, bad, exc):
        # the brute-force oracle used to broadcast-fail on a 3 x 3 Q and to
        # score -Q 7.37, a NaN Q nan and a purification of norm 4 d_i 0.0
        spec = EnsembleSpec(2, 2, 2, seed=0)
        c, v = sample_choi(spec, spec.stream(0))
        q = np.kron(c.matrix, np.eye(2) / 2)
        route(q, v)
        if bad == "shape":
            q = np.eye(3)
        elif bad == "negative":
            q = -q
        elif bad == "nan":
            q[0, 0] = np.nan
        else:
            v = channels.PurificationVector(2, 2, 2, 2.0 * v.vector)
        with pytest.raises(exc):
            route(q, v)


class TestNormalisation:
    @SIDES
    def test_purification_norm(self, f):
        v = identity_isometry_purification(2, 2)
        scaled = channels.PurificationVector(
            2, 2, 1, np.sqrt(1.0 + f * linalg.NORM_TOL) * v.vector
        )
        check(f, NotNormalized, scaled.validate)

    @SIDES
    def test_separable_psi(self, f):
        ups = identity_isometry_purification(2, 2)
        psi = np.sqrt(1.0 + f * linalg.NORM_TOL) * np.eye(3)[0]
        check(f, NotNormalized, lambda: separable_purification(ups, psi))

    @SIDES
    def test_fidelity_trace(self, f):
        rho = (1.0 + f * linalg.NORM_TOL) * np.eye(2) / 2
        check(f, NotNormalized, lambda: linalg.fidelity(rho, np.diag([1.0, 0.0])))


class TestIsometry:
    @SIDES
    def test_env_unitary(self, f):
        v = max_entangled_purification(1, 2)
        u = np.sqrt(1.0 + f * linalg.ISO_TOL) * np.eye(2)
        check(f, NotUnitary, lambda: apply_env_unitary(v, u))

    @SIDES
    def test_kraus_completeness(self, f):
        ks = KrausSet(2, 2, (np.sqrt(1.0 + f * linalg.ISO_TOL) * np.eye(2),))
        check(f, NotTracePreserving, lambda: choi_from_kraus(ks))


class TestErrorAppendState:
    def test_negative_spectrum(self):
        with pytest.raises(NotPSD):
            error_append(sampled_choi(), np.diag([2.0, -1.0]))

    def test_wrong_trace(self):
        with pytest.raises(NotNormalized):
            error_append(sampled_choi(), np.diag([2.0, 1.0]))

    def test_non_hermitian(self):
        with pytest.raises(NotHermitian):
            error_append(sampled_choi(), NON_HERMITIAN)

    @SIDES
    def test_negativity_boundary(self, f):
        delta = f * linalg.PSD_TOL
        rho = np.diag([1.0 + delta, -delta])
        check(f, NotPSD, lambda: error_append(sampled_choi(), rho))

    @SIDES
    def test_trace_boundary(self, f):
        rho = (1.0 + f * linalg.NORM_TOL) * np.eye(2) / 2
        check(f, NotNormalized, lambda: error_append(sampled_choi(), rho))


class TestAppendSpectrum:
    @SIDES
    def test_negativity(self, f):
        delta = f * linalg.PSD_TOL
        check(f, NotPSD, lambda: Append([1.0 + delta, -delta]))

    @SIDES
    def test_sum(self, f):
        lam = (1.0 + f * linalg.NORM_TOL) * np.array([0.5, 0.3, 0.2])
        check(f, NotNormalized, lambda: Append(lam))


# Trace d_i and trace-preserving, but not PSD / not Hermitian.
NOT_PSD_CHOI = ChoiOperator(2, 2, np.diag([2.0, -1.0, 1.0, 0.0]).astype(complex))
NOT_HERMITIAN_CHOI = ChoiOperator(2, 2, skewed(np.eye(4) / 2, 0.4))


class TestSingleSampleChannel:
    """The single-sample routes check the channel they score."""

    @pytest.mark.parametrize(
        "c, exc", [(NOT_PSD_CHOI, NotPSD), (NOT_HERMITIAN_CHOI, NotHermitian)],
        ids=["not-psd", "not-hermitian"],
    )
    def test_error_append_and_pure_output(self, c, exc):
        with pytest.raises(exc):
            error_append(c, np.array([[1.0]]))
        with pytest.raises(exc):
            error_pure_output(c, max_entangled_purification(2, 2))

    @SIDES
    def test_pure_output_norm(self, f):
        # a pure output of squared norm 9 d_i used to score 0.0
        w = max_entangled_purification(2, 2)
        scaled = channels.PurificationVector(
            w.d_i, w.d_o, w.d_e, np.sqrt(1.0 + f * linalg.NORM_TOL) * w.vector
        )
        check(f, NotNormalized, lambda: error_pure_output(sampled_choi(), scaled))

    def test_rank_above_environment(self):
        # rank 3 at (2, 2, 3) has no purification on a 2-dim environment
        c = sampled_choi(d_e=3)
        error_append(c, np.eye(3) / 3)
        with pytest.raises(EnvironmentTooSmall):
            error_append(c, np.eye(2) / 2)
        with pytest.raises(EnvironmentTooSmall):
            error_append(ChoiOperator(2, 2, np.eye(4) / 2), np.array([[1.0]]))


NAN = float("nan")


class TestNaNFailsEveryRule:
    """Each rule raises unless its `<=` test holds, and NaN compares False."""

    def test_hermiticity(self):
        with pytest.raises(NotHermitian):
            ChoiOperator(1, 2, np.array([[NAN, 0.0], [0.0, 1.0]])).validate()

    def test_negativity(self):
        with pytest.raises(NotPSD):
            Append([NAN])

    def test_norm(self):
        ups = identity_isometry_purification(2, 2)
        with pytest.raises(NotNormalized):
            separable_purification(ups, np.array([NAN, 0.0, 0.0]))

    def test_identity(self):
        v = max_entangled_purification(1, 2)
        with pytest.raises(NotUnitary):
            apply_env_unitary(v, np.diag([NAN, 1.0]))

    def test_orbit_input(self):
        # used to pass the input check and stop in numpy's SVD
        v = max_entangled_purification(1, 2)
        with pytest.raises(NotHermitian):
            orbit_numeric(np.diag([NAN, 0.0, 0.0, 1.0]), v)


class TestRelativeRules:
    @SIDES
    def test_hermiticity_has_no_unit_floor(self, f):
        # max|m| = 1e-3: the rule scales with the matrix, not with max(., 1)
        m = skewed(np.diag([1e-3, 0.0]), f * linalg.HERM_TOL * 1e-3)
        check(f, NotHermitian, lambda: linalg.herm_eig(m))

    @SIDES
    def test_negativity_of_psd_factor(self, f):
        m = np.diag([1.0, -f * linalg.PSD_TOL])
        check(f, NotPSD, lambda: linalg.psd_factor(m))


NON_HERMITIAN_SITES = {
    "herm_eig": linalg.herm_eig,
    "psd_sqrt": linalg.psd_sqrt,
    "psd_factor": linalg.psd_factor,
    "fidelity-rho": lambda m: linalg.fidelity(m, np.eye(2) / 2),
    "fidelity-sigma": lambda m: linalg.fidelity(np.eye(2) / 2, m),
    "ChoiOperator.validate": lambda m: ChoiOperator(1, 2, m).validate(),
    "ChoiOperator.rank": lambda m: ChoiOperator(1, 2, m).rank(),
    "error_orbit_numeric": lambda m: orbit_numeric(m, identity_isometry_purification(1, 2)),
    "error_append": lambda m: error_append(sampled_choi(), m),
}


@pytest.mark.parametrize("site", list(NON_HERMITIAN_SITES))
def test_non_hermitian_raises_not_hermitian_everywhere(site):
    with pytest.raises(NotHermitian):
        NON_HERMITIAN_SITES[site](NON_HERMITIAN)


def test_channels_defines_no_tolerance():
    assert not [k for k in vars(channels) if k.endswith(("_TOL", "_ATOL"))]


class TestFidelityUhlmannRoute:
    def test_matches_sqrt_svd_route(self):
        # every rank, both argument orders
        rng = np.random.default_rng(41)
        for _ in range(60):
            d = int(rng.integers(1, 7))
            pair = []
            for _ in range(2):
                a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                a = a[:, : int(rng.integers(1, d + 1))]
                p = a @ a.conj().T
                pair.append(p / np.trace(p).real)
            for rho, sigma in (pair, pair[::-1]):
                old = linalg.trace_norm(linalg.psd_sqrt(rho) @ linalg.psd_sqrt(sigma)) ** 2
                assert abs(linalg.fidelity(rho, sigma) - min(old, 1.0)) <= 1e-13


class TestClosedFormAgreement:
    def test_slack_is_1e_12(self):
        rep = ErrorReport(mean=1.0 + 1e-10, stderr=0.0, closed_form=1.0,
                          per_sample=np.full(100, 1.0 + 1e-10))
        assert rep.consistent_with_closed_form() is False
        rep.mean = 1.0 + 1e-13
        assert rep.consistent_with_closed_form() is True

    def test_cli_pass_bit_is_the_report_method(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ErrorReport, "consistent_with_closed_form",
                            lambda self, n_sigma=3.0: False)
        out = tmp_path / "avg.csv"
        argv = ["validate", "--check", "avg-ue", "--n", "50", "--out", str(out)]
        assert main(argv) == 1
        assert out.read_text().rstrip().endswith(",FAIL")
