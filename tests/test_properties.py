"""Property tests of the estimators and the CLI over small random dimensions."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from purifylab.channels import apply_env_unitary
from purifylab.cli import main
from purifylab.ensembles import (
    PURPOSE_FIXED,
    PURPOSE_SAMPLE,
    EnsembleSpec,
    _choi_bank,
    haar_unitaries_batch,
    sample_choi,
)
from purifylab.linalg import dagger, floor_eigenvalues
from purifylab.metrics import (
    _moment_chunk,
    _overlap,
    _polar_unitary,
    error_pure_output,
    estimate_average_error,
    parse_strategy,
    second_moment_operator,
)
from purifylab.strategies import PureOutput
from test_strategies import uhlmann_oracle

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
    strat = parse_strategy(text, spec, n_weights=20)
    per = estimate_average_error(strat, spec, 20).per_sample
    assert per.shape == (20,)
    assert np.all((per >= 0.0) & (per <= 2 * spec.d_i**2))


@PROPERTY_SETTINGS
@given(spec=specs())
def test_avg_ue_equals_append_maxmixed(spec):
    # C x 1/d_e commutes with every environment unitary, so the orbit
    # minimum of the append machine is the environment average.
    avg = estimate_average_error(parse_strategy("avg-ue", spec), spec, 20).per_sample
    app = estimate_average_error(parse_strategy("append:maxmixed", spec), spec, 20).per_sample
    assert np.array_equal(avg, app)


@st.composite
def unitaries(draw, d):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return haar_unitaries_batch(d, 1, rng)[0]


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


@PROPERTY_SETTINGS
@given(spec=specs(), index=st.integers(0, 2**20), data=st.data())
def test_polar_gradient_step_never_lowers_overlap(spec, index, data):
    # f(U) = <V_U|Q|V_U> is a convex quadratic in U for PSD Q, so
    # f(U') >= f(U) + Re tr G†(U' - U), and U' = polar(G) maximizes the bound.
    side = spec.d_i * spec.d_o * spec.d_e
    rank = data.draw(st.integers(1, side))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((side, rank)) + 1j * rng.standard_normal((side, rank))
    q = x @ dagger(x)
    vmat = sample_choi(spec, spec.stream(index))[1].as_matrix()
    u = data.draw(unitaries(spec.d_e))[None]
    f, grad = _overlap(q, vmat, u)
    f_polar, _ = _overlap(q, vmat, _polar_unitary(grad))
    assert f_polar[0] >= f[0] - 1e-12 * max(1.0, f[0])


@PROPERTY_SETTINGS
@given(
    shape=st.tuples(st.integers(0, 4), st.integers(1, 4), st.integers(1, 4)),
    seed=st.integers(0, 2**32 - 1),
)
def test_dagger_of_stack_is_dagger_of_each(shape, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    each = np.array([m.conj().T for m in a]).reshape(shape[0], shape[2], shape[1])
    assert np.array_equal(dagger(a), each)


@PROPERTY_SETTINGS
@given(spec=specs(), index=st.integers(0, 2**20), data=st.data())
def test_support_route_matches_svd_oracle(spec, index, data):
    # A purification with d_E = rank <= side has a marginal of that rank.
    side = spec.d_i * spec.d_o
    rank = data.draw(st.integers(1, side))
    assume(spec.d_o * rank >= spec.d_i)
    w_spec = EnsembleSpec(spec.d_i, spec.d_o, rank, seed=spec.seed)
    _, w = sample_choi(w_spec, w_spec.stream(index, PURPOSE_FIXED))
    strat = PureOutput(w)
    assert strat.support.shape == (side, rank)
    chois = _choi_bank(spec, index, index + 64, PURPOSE_SAMPLE)
    got = strat.errors(spec.d_i, chois)
    assert np.max(np.abs(got - uhlmann_oracle(w, spec.d_i, chois))) <= 1e-11
    assert np.all((got >= 0.0) & (got <= 2 * spec.d_i**2))


@PROPERTY_SETTINGS
@given(spec=specs(), lo=st.integers(0, 2**20))
def test_frobenius_purity_is_spectral(spec, lo):
    chois = _choi_bank(spec, lo, lo + 64, PURPOSE_SAMPLE)
    spectral = np.sum(floor_eigenvalues(np.linalg.eigvalsh(chois)) ** 2, axis=1)
    frobenius = _moment_chunk(spec, "purity", PURPOSE_SAMPLE, lo, lo + 64)[:, 0]
    assert np.max(np.abs(frobenius - spectral)) <= 1e-12


@PROPERTY_SETTINGS
@given(spec=specs(), n=st.integers(1, 1100))
def test_second_moment_symmetries(spec, n):
    # v x v lies in Sym^2: swapping the two copies on either side leaves the
    # average unchanged, exactly, which is what lets the accumulator keep
    # only the i <= j columns.
    side = spec.d_i * spec.d_o * spec.d_e
    assume(side <= 12)
    op = second_moment_operator(spec, n)
    t = op.reshape(side, side, side, side)
    assert np.array_equal(t.transpose(1, 0, 2, 3), t)
    assert np.array_equal(t.transpose(0, 1, 3, 2), t)
    assert np.array_equal(op, op.conj().T)
    # tr(|V><V| x |V><V|) = <V|V>^2 = d_i^2
    assert abs(np.trace(op) - spec.d_i**2) <= 1e-12


def _csv_body(argv, workers):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.csv"
        code = main(argv + ["--workers", str(workers), "--out", str(out)])
        lines = out.read_text(encoding="utf-8").splitlines(keepends=True)
    return code, "".join(ln for ln in lines if not ln.startswith("#"))


@settings(max_examples=5, deadline=None, database=None)
@given(
    spec=specs(),
    n=st.integers(513, 1100),
    texts=st.lists(st.sampled_from(SPECTRAL_TEXTS), min_size=2, max_size=2, unique=True),
)
def test_csv_body_identical_across_workers(spec, n, texts):
    # n > 512 gives at least two chunks, so --workers 2 runs the pool path.
    assume(spec.d_o >= spec.d_i or "pure:separable" not in texts)
    dims = ["--di", str(spec.d_i), "--do", str(spec.d_o), "--n", str(n),
            "--seed", str(spec.seed)]
    validate = ["validate", "--de", str(spec.d_e), "--check", "second-moment"] + dims
    sweep = ["sweep", "--de", f"{spec.d_e}..{spec.d_e + 1}",
             "--strategies", ",".join(texts)] + dims
    for argv in (validate, sweep):
        code, body = _csv_body(argv, 1)
        assert code in (0, 1)
        assert _csv_body(argv, 2) == (code, body)
