"""Property tests of the per-sample error routes over small random dimensions."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from purifylab.ensembles import EnsembleSpec
from purifylab.metrics import make_strategy, per_sample_errors

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
