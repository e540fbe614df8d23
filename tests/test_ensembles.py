import math
import operator
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate

from purifylab import channels, ensembles, linalg
from purifylab.ensembles import EnsembleSpec, RandomStream
from purifylab.errors import DomainError, InvalidDims, SingularNormalizer

M64 = (1 << 64) - 1


def lapack_haar(g):
    """Reference Haar factor: LAPACK QR, phases of R's diagonal moved into Q."""
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def polar_haar_isometry(d_in, d_out, rng):
    """Independent oracle sampler: the polar factor G (G†G)^(-1/2) of Ginibre G."""
    z = (rng.standard_normal((d_out, d_in)) + 1j * rng.standard_normal((d_out, d_in)))
    z /= math.sqrt(2.0)
    vals, vecs = np.linalg.eigh(z.conj().T @ z)
    return z @ (vecs / np.sqrt(vals)) @ vecs.conj().T


class TestSpecAndStream:
    def test_spec_validation(self):
        with pytest.raises(InvalidDims):
            EnsembleSpec(2, 1, 2)
        with pytest.raises(InvalidDims):
            EnsembleSpec(0, 2, 1)
        with pytest.raises(InvalidDims):
            EnsembleSpec(4, 2, 1)  # d_o * d_e < d_i

    @pytest.mark.parametrize(
        "field, value",
        [("seed", 1.5), ("seed", "7"), ("d_i", 2.0), ("d_e", np.float64(2)), ("d_o", None)],
    )
    def test_spec_rejects_non_integers(self, field, value):
        # each would otherwise fail with a bare TypeError at the first draw
        dims = {"d_i": 2, "d_o": 2, "d_e": 2, field: value}
        with pytest.raises(InvalidDims, match=field):
            EnsembleSpec(**dims)

    def test_spec_takes_numpy_integers(self):
        spec = EnsembleSpec(np.int32(2), np.uint8(2), np.int64(3), seed=np.uint64(M64))
        assert spec == EnsembleSpec(2, 2, 3, seed=M64)
        assert all(type(v) is int for v in (*spec.dims, spec.seed))

    def test_stream_determinism(self):
        a = ensembles.sample_ginibre(3, 4, RandomStream(123, 7))
        b = ensembles.sample_ginibre(3, 4, RandomStream(123, 7))
        assert np.array_equal(a, b)

    def test_stream_independence(self):
        a = ensembles.sample_ginibre(3, 4, RandomStream(123, 7))
        b = ensembles.sample_ginibre(3, 4, RandomStream(123, 8))
        assert not np.allclose(a, b)

    def test_streams_are_lone_streams(self):
        spec = EnsembleSpec(2, 2, 2, seed=99)
        for purpose in (ensembles.PURPOSE_SAMPLE, ensembles.PURPOSE_FIXED):
            got = list(spec.streams(5, 9, purpose))
            assert got == [spec.stream(i, purpose) for i in range(5, 9)]
        assert list(spec.streams(np.int64(7), np.int64(7))) == []
        with pytest.raises(InvalidDims):
            spec.streams(4, 3)

    def test_purpose_partition(self):
        spec = EnsembleSpec(2, 2, 2, seed=99)
        s0 = spec.stream(0, ensembles.PURPOSE_SAMPLE)
        s1 = spec.stream(0, ensembles.PURPOSE_WEIGHTS)
        assert s0.index != s1.index

    def test_stream_index_range(self):
        # (purpose << 48) + index: an index past 2^48 or below 0 would land
        # in the neighbouring purpose's streams, and sample_choi would hand
        # back that purpose's channel
        spec = EnsembleSpec(2, 2, 2, seed=99)
        weights = spec.stream(0, ensembles.PURPOSE_WEIGHTS)
        assert RandomStream(99, 1 << 48) == weights
        assert RandomStream(99, (ensembles.PURPOSE_WEIGHTS << 48) - 1) == spec.stream(
            (1 << 48) - 1
        )
        for index, purpose in [
            (1 << 48, ensembles.PURPOSE_SAMPLE),
            (-1, ensembles.PURPOSE_WEIGHTS),
            (0, 1 << 16),
            (0, -1),
        ]:
            with pytest.raises(InvalidDims):
                spec.stream(index, purpose)
        top = spec.stream((1 << 48) - 1, (1 << 16) - 1)
        assert top.index == M64


def philox_reference(seed, index):
    """The documented stream: Philox keyed [seed mod 2^64, index mod 2^64].

    The key goes in as a uint64 array: numpy casts a list holding a word
    of 2^63 or more to zero.
    """
    key = np.array([seed & M64, index & M64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


SEEDS = [0, 1, -1, 2**64 + 5, 20245, 2**63, M64]
INDICES = [0, 123, (1 << 48) + 7, ensembles.PURPOSE_FIXED << 48, 2**63, M64]


def numpy_seed_forms(seeds):
    """Each seed in every one of np.int64, np.int32 and np.uint64 that holds it."""
    return [
        pytest.param(t(seed), id=f"{t.__name__}({seed})")
        for t in (np.int64, np.int32, np.uint64)
        for seed in seeds
        if np.iinfo(t).min <= seed <= np.iinfo(t).max
    ]


def assert_same_draws(got, ref):
    for size in (1, 7, (4, 2, 2), 33):
        assert np.array_equal(got.standard_normal(size), ref.standard_normal(size))
        assert np.array_equal(got.random(size), ref.random(size))
    # a 32-bit draw leaves half a word behind (has_uint32) for the next one
    for _ in range(3):
        assert got.integers(0, 7, dtype=np.uint32) == ref.integers(0, 7, dtype=np.uint32)
    assert np.array_equal(got.standard_normal(9), ref.standard_normal(9))


# what a generator has drawn before it is re-keyed: a leftover output word,
# a leftover half word, and a ziggurat draw
MID_BUFFER = {
    "random": lambda g: g.random(3),
    "uint32": lambda g: g.integers(0, 7, dtype=np.uint32),
    "normal": lambda g: g.standard_normal(5),
}


class TestStreamContract:
    @pytest.mark.parametrize("seed", SEEDS + numpy_seed_forms(SEEDS))
    @pytest.mark.parametrize("index", INDICES)
    def test_matches_keyed_philox(self, seed, index):
        # NumPy integer seeds key the stream their Python int does
        got = RandomStream(seed, index).generator()
        assert_same_draws(got, philox_reference(operator.index(seed), index))

    def test_numpy_integer_stream_keys(self):
        # (purpose << 48) + index is formed in Python ints: in int64 a purpose
        # of 2^15 or more would wrap
        spec = EnsembleSpec(2, 2, 2, seed=np.int64(5))
        stream = spec.stream(np.int64(4), np.int64(1 << 15))
        assert stream.index == (1 << 63) + 4
        assert RandomStream(5, np.uint64(M64)).generator().random() == (
            philox_reference(5, M64).random()
        )
        bank = ensembles._vmat_bank(spec, 0, 8, ensembles.PURPOSE_WEIGHTS)
        want = ensembles._vmat_bank(EnsembleSpec(2, 2, 2, seed=5), 0, 8, 1)
        assert np.array_equal(bank, want)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("index", INDICES)
    def test_rekey_matches_fresh_generator(self, seed, index):
        stream = RandomStream(seed, index)
        for name, draw in MID_BUFFER.items():
            g = RandomStream(99, 1).generator()
            draw(g)
            assert stream.generator(into=g) is g, name
            assert_same_draws(g, stream.generator())

    @pytest.mark.parametrize("name", sorted(MID_BUFFER))
    def test_rekey_scratch_left_mid_buffer(self, name):
        # a keyed draw re-keys this thread's scratch generator whatever it
        # was left holding
        stream = RandomStream(20245, 17)
        want = ensembles.sample_ginibre(6, 3, stream)
        MID_BUFFER[name](ensembles._SCRATCH.rng)
        got = ensembles.sample_ginibre(6, 3, stream)
        ref = stream.generator().standard_normal((6, 3, 2))
        assert np.array_equal(got, want)
        assert np.array_equal(got, ref[..., 0] + 1j * ref[..., 1])

    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 5)])
    def test_rekey_threaded_banks_equal_serial(self, dims):
        # each thread re-keys its own scratch generator; a generator shared
        # across threads would be re-keyed between another thread's key and draw
        spec = EnsembleSpec(*dims, seed=31)
        n_threads, rows = 8, 96
        serial = ensembles._vmat_bank(spec, 0, n_threads * rows, ensembles.PURPOSE_SAMPLE)
        start = threading.Barrier(n_threads, timeout=60)
        banks = [None] * n_threads

        def build(t):
            start.wait()
            banks[t] = np.concatenate([
                ensembles._vmat_bank(spec, lo, lo + 16, ensembles.PURPOSE_SAMPLE)
                for lo in range(t * rows, (t + 1) * rows, 16)
            ])

        threads = [threading.Thread(target=build, args=(t,)) for t in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert np.array_equal(np.concatenate(banks), serial)

    def test_rekey_bank_counts_one_stream_and_draw_per_row(self, monkeypatch):
        # the benchmark's streams and ginibre_draws counts read these calls
        calls = {"generator": 0, "ginibre": 0}
        generator, ginibre = RandomStream.generator, ensembles.sample_ginibre

        def counted_generator(self, *args, **kwargs):
            calls["generator"] += 1
            return generator(self, *args, **kwargs)

        def counted_ginibre(*args, **kwargs):
            calls["ginibre"] += 1
            return ginibre(*args, **kwargs)

        spec = EnsembleSpec(2, 3, 5, seed=8)
        want = ensembles._vmat_bank(spec, 3, 40, ensembles.PURPOSE_FIXED)
        monkeypatch.setattr(RandomStream, "generator", counted_generator)
        monkeypatch.setattr(ensembles, "sample_ginibre", counted_ginibre)
        got = ensembles._vmat_bank(spec, 3, 40, ensembles.PURPOSE_FIXED)
        assert calls == {"generator": 37, "ginibre": 37}
        assert np.array_equal(got, want)

    def test_bank_key_range_checked_before_drawing(self, monkeypatch):
        # a range that runs past 2^48, or a purpose past 2^16, is rejected
        # whole: no row of it is drawn
        calls = []
        ginibre = ensembles.sample_ginibre

        def counted_ginibre(*args, **kwargs):
            calls.append(args[2])
            return ginibre(*args, **kwargs)

        spec = EnsembleSpec(2, 3, 2, seed=8)
        monkeypatch.setattr(ensembles, "sample_ginibre", counted_ginibre)
        for lo, hi, purpose in [
            (2**48 - 2, 2**48 + 1, ensembles.PURPOSE_SAMPLE),
            (0, 4, 1 << 16),
        ]:
            with pytest.raises(InvalidDims):
                ensembles._vmat_bank(spec, lo, hi, purpose)
        assert calls == []
        # the last rows below 2^48 are drawn, one call each, and are the
        # lone streams' channels
        top = range(2**48 - 3, 2**48)
        for purpose in (ensembles.PURPOSE_SAMPLE, ensembles.PURPOSE_WEIGHTS, 3):
            bank = ensembles._vmat_bank(spec, top.start, top.stop, purpose)
            assert calls == [spec.stream(i, purpose) for i in top]
            calls.clear()
            for row, i in zip(bank, top):
                _, pur = ensembles.sample_choi(spec, spec.stream(i, purpose))
                assert np.array_equal(row, pur.as_matrix())
            calls.clear()

    def test_generator_reads_no_os_entropy(self, monkeypatch):
        # numpy seeds a SeedSequence from OS entropy through
        # bit_generator.randbits; Philox(key=...) builds one, Philox(0) does not
        from numpy.random import bit_generator

        def no_entropy(*args):
            raise AssertionError("read OS entropy")

        spec = EnsembleSpec(2, 3, 2, seed=5)
        want = ensembles._vmat_bank(spec, 0, 8, ensembles.PURPOSE_SAMPLE)
        ref = philox_reference(20245, 14)
        monkeypatch.setattr(bit_generator, "randbits", no_entropy)
        with pytest.raises(AssertionError, match="OS entropy"):
            philox_reference(20245, 14)
        assert_same_draws(RandomStream(20245, 14).generator(), ref)
        # the bank builds a new scratch generator, as on a thread's first draw
        monkeypatch.delattr(ensembles._SCRATCH, "rng")
        got = ensembles._vmat_bank(spec, 0, 8, ensembles.PURPOSE_SAMPLE)
        assert np.array_equal(got, want)

    def test_value_type_replay_interleaved(self):
        stream = RandomStream(20245, (1 << 48) + 3)
        a, b = stream.generator(), stream.generator()
        other = RandomStream(20245, (1 << 48) + 4).generator()
        first = [a.standard_normal(5), other.standard_normal(5), a.random(3)]
        other.random(11)
        second = [b.standard_normal(5), b.random(3)]
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[2], second[1])
        assert not np.array_equal(first[0], first[1])

    def test_spec_stream_key(self):
        spec = EnsembleSpec(2, 2, 2, seed=7)
        got = spec.stream(5, ensembles.PURPOSE_WEIGHTS).generator()
        ref = philox_reference(7, (ensembles.PURPOSE_WEIGHTS << 48) + 5)
        assert np.array_equal(got.standard_normal(16), ref.standard_normal(16))

    def test_import_leaves_numpy_random_unloaded(self):
        code = (
            "import sys, purifylab, purifylab.cli; "
            "sys.exit('numpy.random' in sys.modules)"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = dict(os.environ, PYTHONPATH=src)
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    @pytest.mark.parametrize("shape", [(1, 1), (4, 2), (64, 4)])
    def test_ginibre_matches_split_formula(self, shape):
        stream = RandomStream(20245, 11)
        z = stream.generator().standard_normal((*shape, 2))
        want = z[..., 0] + 1j * z[..., 1]
        got = ensembles.sample_ginibre(*shape, stream)
        assert np.array_equal(got, want)
        buf = np.full(shape, np.nan, dtype=complex)
        assert ensembles.sample_ginibre(*shape, stream, out=buf) is buf
        assert buf.tobytes() == got.tobytes()

    @pytest.mark.parametrize(
        "buf",
        [
            np.empty((2, 4), dtype=complex),  # wrong shape
            np.empty((4, 2), dtype=np.complex64),  # would take float32 normals
            np.empty((4, 4), dtype=complex)[:, ::2],  # not contiguous
            np.empty((4, 2, 2)),  # the float pairs, not their complex view
            np.empty((4, 2), dtype=">c16"),  # complex128, but byte-swapped
            np.empty((0, 2), dtype=complex),  # asked for as zero rows
        ],
    )
    def test_ginibre_out_rejects_bad_buffer(self, buf):
        rows = 4 if len(buf) else 0
        with pytest.raises(InvalidDims):
            ensembles.sample_ginibre(rows, 2, RandomStream(20245, 11), out=buf)

    @pytest.mark.parametrize("d, count", [(1, 1), (2, 4), (4, 64)])
    def test_haar_batch_matches_split_formula(self, d, count):
        stream = RandomStream(20245, 12)
        z = stream.generator().standard_normal((count, d, d, 2))
        want = ensembles._qr_haar_batch(z[..., 0] + 1j * z[..., 1])
        got = ensembles.haar_unitaries_batch(d, count, stream.generator())
        assert np.array_equal(got, want)

    def test_haar_batch_is_one_ginibre_draw(self, monkeypatch):
        # every Ginibre draw goes through sample_ginibre, the stack as one
        # call with the caller's generator
        calls = []
        ginibre = ensembles.sample_ginibre

        def counted_ginibre(rows, cols, rs, *args, **kwargs):
            calls.append((rows, cols, rs))
            return ginibre(rows, cols, rs, *args, **kwargs)

        rng = RandomStream(20245, 12).generator()
        want = ensembles.haar_unitaries_batch(4, 64, RandomStream(20245, 12).generator())
        monkeypatch.setattr(ensembles, "sample_ginibre", counted_ginibre)
        got = ensembles.haar_unitaries_batch(4, 64, rng)
        assert calls == [(256, 4, rng)]
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("count", [0, -1])
    def test_haar_batch_needs_a_unitary(self, count):
        # as every other Ginibre shape below one row
        with pytest.raises(InvalidDims):
            ensembles.haar_unitaries_batch(4, count, RandomStream(20245, 12).generator())

    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_haar_unitary_is_batch_of_one(self, d):
        stream = RandomStream(20245, 13)
        z = stream.generator().standard_normal((1, d, d, 2))
        want = ensembles._qr_haar_batch(z[..., 0] + 1j * z[..., 1])
        assert np.array_equal(ensembles.sample_haar_unitary(d, stream), want[0])

    def test_haar_batch_holds_two_stacks(self):
        # the kernel drops G once its work array exists and returns a view
        # of that array: 2 stacks at the peak, where G, the work array and a
        # contiguous copy made 3.25
        rng = RandomStream(20245, 14).generator()
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            ensembles.haar_unitaries_batch(4, 2048, rng)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak <= 2.1 * 2048 * 4 * 4 * 16
        # the lone draws copy the view to a C-contiguous matrix, same bits
        for draw, args, (rows, cols) in (
            (ensembles.sample_haar_isometry, (2, 6), (6, 2)),
            (ensembles.sample_haar_unitary, (4,), (4, 4)),
        ):
            stream = RandomStream(20245, 15)
            one = ensembles._qr_haar_batch(ensembles.sample_ginibre(rows, cols, stream)[None])
            got = draw(*args, stream)
            assert got.flags.c_contiguous
            assert np.array_equal(got, one[0])


class TestQRHaarBatch:
    N = 20_000

    @staticmethod
    def defect(u):
        eye = np.eye(u.shape[-1])
        return np.max(np.abs(u.conj().transpose(0, 2, 1) @ u - eye))

    def test_batch_unitary_to_rounding(self):
        u = ensembles.haar_unitaries_batch(4, self.N, RandomStream(31, 0).generator())
        assert self.defect(u) < 1e-13

    def test_single_draws_unitary_to_rounding(self):
        rng = RandomStream(31, 1).generator()
        u = np.array([ensembles.sample_haar_unitary(4, rng) for _ in range(self.N)])
        assert self.defect(u) < 1e-13

    @pytest.mark.parametrize("d", [2, 4])
    def test_haar_moments(self, d):
        # E|U_11|^2 = 1/d, E|U_11|^4 = 2/(d(d+1)), E|tr U|^2 = 1; the last
        # fails without the phase fix, whose Q is not Haar.
        u = ensembles.haar_unitaries_batch(d, self.N, RandomStream(32, d).generator())
        a = np.abs(u[:, 0, 0]) ** 2
        t = np.abs(np.trace(u, axis1=1, axis2=2)) ** 2
        for x, want in ((a, 1 / d), (a**2, 2 / (d * (d + 1))), (t, 1.0)):
            assert abs(x.mean() - want) < 4 * x.std() / math.sqrt(self.N)

    @pytest.mark.parametrize("scale", [1 / math.sqrt(2.0), 3.0])
    @pytest.mark.parametrize("shape", [(16, 4, 4), (16, 6, 2), (16, 64, 4)])
    def test_scale_free(self, shape, scale):
        # the phase-fixed Q of cG is that of G for any c > 0, so a Ginibre
        # draw needs no scale; the singularity rule is relative as well
        count, rows, cols = shape
        g = ensembles.sample_ginibre(count * rows, cols, RandomStream(34, rows).generator())
        g = g.reshape(shape)
        want = ensembles._qr_haar_batch(g)
        assert_allclose(ensembles._qr_haar_batch(scale * g), want, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("col", [0, 2])
    def test_zero_column_raises(self, col):
        rng = RandomStream(33, 0).generator()
        g = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
        g[1, :, col] = 0.0
        with pytest.raises(SingularNormalizer):
            ensembles._qr_haar_batch(g)

    @pytest.mark.parametrize(
        "rows, cols",
        [pytest.param(d, d, id=str(d)) for d in (1, 2, 3, 4, 8, 16)]
        + [pytest.param(r, c, id=f"{r}x{c}") for r, c in ((4, 2), (8, 2), (64, 4))],
    )
    def test_matches_lapack_reference(self, rows, cols):
        g = ensembles.sample_ginibre(500 * rows, cols, RandomStream(34, rows))
        g = g.reshape(500, rows, cols)
        got = ensembles._qr_haar_batch(g)
        assert np.max(np.abs(got - lapack_haar(g))) < 1e-12

    @pytest.mark.parametrize("rows, cols", [(4, 4), (16, 16), (6, 2), (64, 4)])
    def test_lone_matrix_is_stack_row(self, rows, cols):
        # a matrix gets the same bits alone as in a stack: numpy sums the
        # rows of a lone matrix pairwise unless the kernel prevents it
        g = ensembles.sample_ginibre(73 * rows, cols, RandomStream(37, rows))
        g = g.reshape(73, rows, cols)
        stack = ensembles._qr_haar_batch(g)
        for i in range(len(g)):
            assert np.array_equal(ensembles._qr_haar_batch(g[i : i + 1])[0], stack[i])

    def test_tall_isometries(self):
        rng = RandomStream(3, 0).generator()
        g = (rng.standard_normal((6, 5, 3)) + 1j * rng.standard_normal((6, 5, 3)))
        v = ensembles._qr_haar_batch(g)
        eye = np.broadcast_to(np.eye(3), (6, 3, 3))
        assert_allclose(v.conj().transpose(0, 2, 1) @ v, eye, atol=1e-12)

    def test_tall_rank_deficient_stack_raises(self):
        rng = RandomStream(4, 0).generator()
        g = rng.standard_normal((3, 4, 2)) + 1j * rng.standard_normal((3, 4, 2))
        g[1, :, 1] = 2.0 * g[1, :, 0]  # second column parallel to the first
        with pytest.raises(SingularNormalizer):
            ensembles._qr_haar_batch(g)
        g[1] = 0.0
        with pytest.raises(SingularNormalizer):
            ensembles._qr_haar_batch(g)

    def test_square_bank_isometric_to_rounding(self):
        # the d_E = 1 bank of the qubit sweep draws square 2x2 G, where any
        # route through G†G squares cond(G); QR keeps V†V = 1 to rounding
        spec = EnsembleSpec(2, 2, 1, seed=0)
        worst = 0.0
        for lo in range(0, 40 * 512, 512):
            vm = ensembles._vmat_bank(spec, lo, lo + 512, ensembles.PURPOSE_SAMPLE)
            m = vm.reshape(512, 2, 2)  # rows: V^T, as choi_vector lays it out
            gram = m @ m.conj().transpose(0, 2, 1)
            worst = max(worst, np.max(np.abs(gram - np.eye(2))))
        assert worst <= 1e-13

    def test_parallel_column_raises(self):
        rng = RandomStream(35, 0).generator()
        g = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
        g[1, :, 3] = (0.6 - 0.8j) * g[1, :, 1]
        with pytest.raises(SingularNormalizer):
            ensembles._qr_haar_batch(g)

    def test_near_parallel_draws_unitary_or_rejected(self):
        # column 2 tends to a multiple of column 0: every accepted draw stays
        # unitary to rounding, and the rule rejects only the last few steps
        rng = RandomStream(36, 0).generator()
        g = rng.standard_normal((200, 4, 4)) + 1j * rng.standard_normal((200, 4, 4))
        noise = rng.standard_normal((200, 4)) + 1j * rng.standard_normal((200, 4))
        for eps in [10.0**-p for p in range(8, 17)] + [0.0]:
            h = g.copy()
            h[:, :, 2] = (0.6 - 0.8j) * h[:, :, 0] + eps * noise
            accepted = []
            for one in h:
                try:
                    accepted.append(ensembles._qr_haar_batch(one[None])[0])
                except SingularNormalizer:
                    pass
            if eps >= 1e-12:
                assert len(accepted) == len(h)
            if eps == 0.0:
                assert not accepted
            if accepted:
                assert self.defect(np.array(accepted)) < 1e-13


class TestGinibre:
    def test_moments(self):
        rng = RandomStream(2024, 0).generator()
        g = ensembles.sample_ginibre(200, 500, rng)  # 1e5 entries
        n = g.size
        # Entry mean ~ CN(0, 2/n); 4 sigma on each real part.
        assert abs(g.mean().real) < 4 / math.sqrt(n)
        assert abs(g.mean().imag) < 4 / math.sqrt(n)
        # Re, Im ~ N(0, 1): |G|^2 is chi-squared with 2 degrees of freedom,
        # E|G|^2 = 2, Var(|G|^2) = 4.
        second = np.mean(np.abs(g) ** 2)
        assert abs(second - 2.0) < 4 * 2 / math.sqrt(n)


class TestHaarIsometry:
    def test_isometry_property(self):
        v = ensembles.sample_haar_isometry(2, 8, RandomStream(1, 0))
        assert_allclose(v.conj().T @ v, np.eye(2), atol=1e-10)

    def test_unitary_case(self):
        u = ensembles.sample_haar_unitary(4, RandomStream(2, 0))
        assert abs(abs(np.linalg.det(u)) - 1.0) < 1e-10
        assert_allclose(u.conj().T @ u, np.eye(4), atol=1e-10)

    def test_rejects_short_output(self):
        with pytest.raises(InvalidDims):
            ensembles.sample_haar_isometry(4, 2, RandomStream(0, 0))

    def test_projector_mean(self):
        # E[V V†] = (d_in / d_out) I by Haar symmetry.
        n, d_in, d_out = 10_000, 2, 4
        acc = np.zeros((d_out, d_out), dtype=complex)
        for i in range(n):
            v = ensembles.sample_haar_isometry(d_in, d_out, RandomStream(3, i))
            acc += v @ v.conj().T
        acc /= n
        # Diagonal entries are means of [0,1]-bounded quantities.
        tol = 4 / math.sqrt(n)
        assert np.max(np.abs(acc - np.eye(d_out) * d_in / d_out)) < tol

    def test_polar_vs_qr_oracle(self):
        # Two independent Haar constructions agree on low moments: the
        # package's QR draw and the test-only polar oracle.
        n = 4000
        rng = np.random.default_rng(44)
        spec = EnsembleSpec(2, 2, 2, seed=17)
        purity_qr = np.empty(n)
        purity_polar = np.empty(n)
        for i in range(n):
            c1, _ = ensembles.sample_choi(spec, spec.stream(i))
            purity_qr[i] = c1.purity()
            viso = polar_haar_isometry(2, 4, rng)
            vec = channels.choi_vector(viso)
            mat = vec.reshape(4, 2)
            purity_polar[i] = np.vdot(mat @ mat.conj().T, mat @ mat.conj().T).real
        gap = abs(purity_qr.mean() - purity_polar.mean())
        sigma = math.hypot(purity_qr.std() / math.sqrt(n), purity_polar.std() / math.sqrt(n))
        assert gap < 4 * sigma


class TestSampleChoi:
    @pytest.mark.parametrize(
        "dims", [(2, 2, 1), (2, 2, 3), (1, 2, 2), (2, 3, 5), (4, 4, 16)]
    )
    def test_single_draw_is_bank_row(self, dims):
        # sample i is one channel, bit for bit, drawn alone or in a chunk
        spec = EnsembleSpec(*dims, seed=21)
        chois = ensembles._choi_bank(spec, 0, 512, ensembles.PURPOSE_SAMPLE)
        vmats = ensembles._vmat_bank(spec, 0, 512, ensembles.PURPOSE_SAMPLE)
        for i in range(0, 500, 10):
            c, v = ensembles.sample_choi(spec, spec.stream(i))
            assert np.array_equal(c.matrix, chois[i])
            assert np.array_equal(v.as_matrix(), vmats[i])

    def test_isometric_case_rank_one(self):
        spec = EnsembleSpec(2, 3, 1, seed=5)
        c, v = ensembles.sample_choi(spec, spec.stream(0))
        vals = linalg.herm_eig(c.matrix)[0]
        assert vals[0] == pytest.approx(2.0, abs=1e-10)
        assert np.max(np.abs(vals[1:])) < 1e-10

    def test_state_case(self):
        spec = EnsembleSpec(1, 3, 2, seed=6)
        c, _ = ensembles.sample_choi(spec, spec.stream(0))
        assert np.trace(c.matrix).real == pytest.approx(1.0, abs=1e-10)
        assert np.min(np.linalg.eigvalsh(c.matrix)) > -1e-12

    def test_choi_invariants(self):
        spec = EnsembleSpec(2, 2, 4, seed=7)
        for i in range(20):
            c, v = ensembles.sample_choi(spec, spec.stream(i))
            c.validate()
            v.validate()
            assert spec.d_i / spec.d_o - 1e-9 <= c.purity() <= spec.d_i**2 + 1e-9

    def test_marginal_roundtrip(self):
        spec = EnsembleSpec(2, 2, 3, seed=8)
        c, v = ensembles.sample_choi(spec, spec.stream(1))
        marg = linalg.partial_trace(v.projector(), (2, 2, 3), keep=(0, 1))
        assert np.max(np.abs(marg - c.matrix)) < 1e-10

    def test_generic_rank(self):
        for d_e, want in ((2, 2), (4, 4), (6, 4)):
            spec = EnsembleSpec(2, 2, d_e, seed=9)
            c, _ = ensembles.sample_choi(spec, spec.stream(0))
            assert c.rank() == min(d_e, 4) == want if d_e != 6 else c.rank() == 4

    def test_mean_choi(self):
        spec = EnsembleSpec(2, 2, 4, seed=10)
        n = 10_000
        acc = np.zeros((4, 4), dtype=complex)
        for i in range(n):
            c, _ = ensembles.sample_choi(spec, spec.stream(i))
            acc += c.matrix
        acc /= n
        assert np.max(np.abs(acc - np.eye(4) / 2)) < 4 / math.sqrt(n)

    def test_haar_invariance_under_fixed_unitary(self):
        # Rotating the joint output by a fixed unitary leaves moments alone.
        spec = EnsembleSpec(2, 2, 2, seed=11)
        u = ensembles.sample_haar_unitary(4, RandomStream(123, 456))
        n = 4000
        p_plain = np.empty(n)
        p_rot = np.empty(n)
        for i in range(n):
            viso = ensembles.sample_haar_isometry(2, 4, spec.stream(i))
            for tag, w in (("plain", viso), ("rot", u @ viso)):
                vec = channels.choi_vector(w)
                mat = vec.reshape(4, 2)
                c = mat @ mat.conj().T
                if tag == "plain":
                    p_plain[i] = np.vdot(c, c).real
                else:
                    p_rot[i] = np.vdot(c, c).real
        gap = abs(p_plain.mean() - p_rot.mean())
        sigma = math.hypot(p_plain.std() / math.sqrt(n), p_rot.std() / math.sqrt(n))
        assert gap < 4 * sigma


class TestWishartRoute:
    def test_trace_and_tp(self):
        spec = EnsembleSpec(2, 2, 2, seed=12)
        c = ensembles.sample_wishart_choi(spec, spec.stream(0))
        c.validate()
        assert np.trace(c.matrix).real == pytest.approx(2.0, abs=1e-10)

    def test_two_route_purity_agreement(self):
        spec = EnsembleSpec(2, 2, 2, seed=13)
        n = 10_000
        p1 = np.empty(n)
        p2 = np.empty(n)
        for i in range(n):
            c1, _ = ensembles.sample_choi(spec, spec.stream(i))
            c2 = ensembles.sample_wishart_choi(spec, spec.stream(i, purpose=3))
            p1[i] = c1.purity()
            p2[i] = c2.purity()
        gap = abs(p1.mean() - p2.mean())
        sigma = math.hypot(p1.std() / math.sqrt(n), p2.std() / math.sqrt(n))
        assert gap < 3 * sigma

    @pytest.mark.parametrize("scale", [1 / math.sqrt(2.0), 3.0])
    def test_scale_free(self, monkeypatch, scale):
        # W is normalised by its own partial trace, so cG gives the C of G
        spec = EnsembleSpec(2, 2, 3, seed=15)
        want = [ensembles.sample_wishart_choi(spec, spec.stream(i)).matrix for i in range(8)]
        ginibre = ensembles.sample_ginibre
        monkeypatch.setattr(
            ensembles, "sample_ginibre", lambda *args: scale * ginibre(*args)
        )
        for i, w in enumerate(want):
            got = ensembles.sample_wishart_choi(spec, spec.stream(i)).matrix
            assert_allclose(got, w, rtol=0, atol=1e-13)

    def test_full_rank_when_environment_large(self):
        spec = EnsembleSpec(2, 2, 5, seed=14)
        for i in range(100):
            c = ensembles.sample_wishart_choi(spec, spec.stream(i))
            vals = np.linalg.eigvalsh(c.matrix)
            assert vals.min() > 1e-10 * vals.max()


class TestMarchenkoPastur:
    def test_support_indicator(self):
        lo, hi = ensembles.mp_support(0.5)
        assert ensembles.mp_density(0.5, lo - 0.01) == 0.0
        assert ensembles.mp_density(0.5, hi + 0.01) == 0.0
        assert ensembles.mp_density(0.5, 1.0) > 0.0

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    def test_total_mass(self, c):
        lo, hi = ensembles.mp_support(c)
        mass, _ = integrate.quad(
            lambda x: ensembles.mp_density(c, x), lo, hi, limit=200
        )
        assert mass + ensembles.mp_atom(c) == pytest.approx(1.0, abs=1e-6)

    def test_square_case_density(self):
        xs = np.linspace(0.1, 3.9, 50)
        expect = np.sqrt((4 - xs) / xs) / (2 * math.pi)
        assert_allclose(ensembles.mp_density(1.0, xs), expect, atol=1e-12)

    def test_mu_at_one(self):
        assert ensembles.mp_mu(1.0) == pytest.approx(8 / (3 * math.pi), abs=1e-10)

    def test_mu_small_c_expansion(self):
        c = 0.05
        assert ensembles.mp_mu(c) == pytest.approx(1 - c / 8, abs=1e-3)

    @pytest.mark.parametrize("c", [0.25, 0.5, 0.9])
    def test_mu_matches_quadrature(self, c):
        lo, hi = ensembles.mp_support(c)
        ref, _ = integrate.quad(
            lambda x: math.sqrt(x) * ensembles.mp_density(c, x), lo, hi, limit=400
        )
        assert ensembles.mp_mu(c) == pytest.approx(ref, abs=1e-8)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: ensembles.mp_support(math.nan),
            lambda: ensembles.mp_density(math.nan, 0.5),
            lambda: ensembles.mp_atom(math.nan),
        ],
        ids=["support", "density", "atom"],
    )
    def test_nan_aspect_ratio_raises(self, call):
        # each check is a failed positive test, so NaN fails it
        with pytest.raises(DomainError):
            call()

    def test_mu_domain(self):
        with pytest.raises(DomainError):
            ensembles.mp_mu(0.0)
        with pytest.raises(DomainError):
            ensembles.mp_mu(1.5)
