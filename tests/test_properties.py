"""Property tests of the per-sample error routes over small random dimensions."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from purifylab.channels import apply_env_unitary
from purifylab.ensembles import PURPOSE_FIXED, EnsembleSpec, sample_choi
from purifylab.metrics import error_pure_output, make_strategy, per_sample_errors

SPECTRAL_TEXTS = (
    "pure:omega",
    "pure:separable",
    "pure:random",
    "append:maxmixed",
    "append:optimal",
    "append:pure",
    "dep",
    "avg-ue",
)

PROPERTY_SETTINGS = settings(max_examples=12, deadline=None, database=None)


@st.composite
def specs(draw):
    d_i = draw(st.integers(1, 3))
    d_o = draw(st.integers(2, 3))
    d_e = draw(st.integers(1, 4))
    assume(d_o * d_e >= d_i)
    return EnsembleSpec(d_i, d_o, d_e, seed=draw(st.integers(0, 2**31 - 1)))


@PROPERTY_SETTINGS
@given(spec=specs(), text=st.sampled_from(SPECTRAL_TEXTS))
def test_per_sample_error_in_range(spec, text):
    # pure:separable embeds the input isometrically, so it needs d_o >= d_i.
    assume(text != "pure:separable" or spec.d_o >= spec.d_i)
    strat = make_strategy(text, spec, n_weights=20)
    per = per_sample_errors(strat, spec, 20)
    assert per.shape == (20,)
    assert np.all((per >= 0.0) & (per <= 2 * spec.d_i**2))


@PROPERTY_SETTINGS
@given(spec=specs())
def test_avg_ue_equals_append_maxmixed(spec):
    # C x 1/d_e commutes with every environment unitary, so the orbit
    # minimum of the append machine is the environment average.
    avg = per_sample_errors(make_strategy("avg-ue", spec), spec, 20)
    app = per_sample_errors(make_strategy("append:maxmixed", spec), spec, 20)
    assert np.max(np.abs(avg - app)) <= 1e-12


@st.composite
def unitaries(draw, d):
    """Haar unitary by QR with phase fixing (Mezzadri), unitary to ~1e-15.

    Drawn apart from the package's polar sampler, whose G†G route leaves
    U†U - 1 as large as 1e-8 on rare ill-conditioned draws.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@PROPERTY_SETTINGS
@given(spec=specs(), index=st.integers(0, 2**20), data=st.data())
def test_env_unitary_keeps_marginal(spec, index, data):
    _, v = sample_choi(spec, spec.stream(index))
    u = data.draw(unitaries(spec.d_e))
    rotated = apply_env_unitary(v, u).marginal_choi().matrix
    assert np.max(np.abs(rotated - v.marginal_choi().matrix)) <= 1e-12


@PROPERTY_SETTINGS
@given(spec=specs(), index=st.integers(0, 2**20), d_e_w=st.integers(1, 4), data=st.data())
def test_pure_output_error_ignores_env_unitary(spec, index, d_e_w, data):
    # The error depends on the pure output only through its marginal.
    assume(spec.d_o * d_e_w >= spec.d_i)
    c, _ = sample_choi(spec, spec.stream(index))
    w_spec = EnsembleSpec(spec.d_i, spec.d_o, d_e_w, seed=spec.seed)
    _, w = sample_choi(w_spec, w_spec.stream(index, PURPOSE_FIXED))
    u = data.draw(unitaries(d_e_w))
    got = error_pure_output(c, apply_env_unitary(w, u))
    assert abs(got - error_pure_output(c, w)) <= 1e-12
