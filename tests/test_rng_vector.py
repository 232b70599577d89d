"""Bit-exactness contracts of the batched RNG fills.

:func:`repro.sim.rng_vector.lognormal_fill` and
:func:`~repro.sim.rng_vector.beta_fill` promise the *identical* floats
— and the identical final Mersenne Twister state — as the equivalent
stdlib ``random.Random`` loop. The fluid model's determinism (and the
fluid differential suite) rests on that promise, so it is pinned here
directly against the stdlib across the distribution parameters the
workload table actually uses, plus the fallback and
unsupported-parameter edges.
"""

from __future__ import annotations

import random
import sys
import threading
import tracemalloc

import pytest

from repro.sim import rng_vector
from repro.sim.rng import _VECTOR_MIN_N, RngStreams

#: Every (alpha, beta) pair that appears as a non-idempotent-point
#: distribution in the Table 2 kernel specs, plus the symmetric (1, 1).
NONIDEM_BETA_PAIRS = (
    (8.0, 2.0), (2.0, 1.5), (200.0, 1.0), (5000.0, 1.0), (60.0, 1.0),
    (20.0, 1.0), (1.0, 1.0), (1.0, 5.0), (1.5, 1.0), (2.5, 3.5),
)

N = 700  # above the _VECTOR_MIN_N gate, small enough to stay fast

#: Fill sizes on both sides of the ``_VECTOR_MIN_N`` gate, down to one
#: draw: the fills must be exact at any size, not only where the gate
#: sends them.
SIZES = (1, 2, 7, _VECTOR_MIN_N - 1, _VECTOR_MIN_N)


def _sized(cases, ids):
    """``cases`` at size ``N`` under their usual ids, then at every
    size in ``SIZES`` with the size added to the id."""
    return ([pytest.param(*case, N, id=name)
             for case, name in zip(cases, ids)]
            + [pytest.param(*case, n, id=f"{name}-n{n}")
               for case, name in zip(cases, ids) for n in SIZES])


def _stdlib_lognormals(seed, mu, sigma, n):
    ref = random.Random(seed)
    return [ref.lognormvariate(mu, sigma) for _ in range(n)], ref.getstate()


def _stdlib_betas(seed, alpha, beta, n):
    ref = random.Random(seed)
    return [ref.betavariate(alpha, beta) for _ in range(n)], ref.getstate()


def _stream_with_zero_uniforms(seed, indices):
    """``random.Random(seed)`` one draw in, with the uniforms its next
    draws read at ``indices`` set to exactly 0.0. Each uniform is a pair
    of words at the state's read position onward, and MT19937's
    tempering maps a zero word to zero, so zeroing both words of a pair
    makes that ``random()`` return 0.0. Every index stays inside the
    current 624-word block, so the next twist sees the same state on
    both sides of a comparison."""
    stream = random.Random(seed)
    stream.random()
    version, internal, gauss = stream.getstate()
    words = list(internal)
    pos = words[-1]
    for k in indices:
        assert pos + 2 * k + 1 < 624
        words[pos + 2 * k] = words[pos + 2 * k + 1] = 0
    stream.setstate((version, tuple(words), gauss))
    return stream


class TestLognormalFill:
    @pytest.mark.parametrize("seed,n", _sized(
        [(0,), (1,), (12345,), (987654321,)],
        ["0", "1", "12345", "987654321"]))
    @pytest.mark.parametrize("mu,sigma", [
        (0.0, 1.0), (2.3, 0.4), (-1.0, 2.0)])
    def test_bit_exact_vs_stdlib(self, seed, n, mu, sigma):
        want, want_state = _stdlib_lognormals(seed, mu, sigma, n)
        stream = random.Random(seed)
        got = rng_vector.lognormal_fill(stream, mu, sigma, n)
        assert got == want
        assert stream.getstate() == want_state

    def test_stream_continues_identically_after_fill(self):
        ref = random.Random(42)
        [ref.lognormvariate(0.0, 1.0) for _ in range(N)]
        stream = random.Random(42)
        rng_vector.lognormal_fill(stream, 0.0, 1.0, N)
        assert [stream.random() for _ in range(16)] == \
            [ref.random() for _ in range(16)]

    def test_empty_fill_leaves_stream_untouched(self):
        stream = random.Random(3)
        before = stream.getstate()
        assert rng_vector.lognormal_fill(stream, 0.0, 1.0, 0) == []
        assert stream.getstate() == before


class TestBetaFill:
    @pytest.mark.parametrize("alpha,beta,n", _sized(
        NONIDEM_BETA_PAIRS, [f"{a}-{b}" for a, b in NONIDEM_BETA_PAIRS]))
    def test_bit_exact_vs_stdlib(self, alpha, beta, n):
        want, want_state = _stdlib_betas(7, alpha, beta, n)
        stream = random.Random(7)
        got = rng_vector.beta_fill(stream, alpha, beta, n)
        assert got == want
        assert stream.getstate() == want_state

    @pytest.mark.parametrize("alpha,beta", [(8.0, 2.0), (1.0, 1.0)])
    def test_stream_continues_identically_after_fill(self, alpha, beta):
        ref = random.Random(99)
        [ref.betavariate(alpha, beta) for _ in range(N)]
        stream = random.Random(99)
        rng_vector.beta_fill(stream, alpha, beta, N)
        assert [stream.random() for _ in range(16)] == \
            [ref.random() for _ in range(16)]

    @pytest.mark.parametrize("alpha,beta", [
        (8.0, 2.0), (2.5, 3.5), (2.0, 1.5), (200.0, 1.0)])
    @pytest.mark.parametrize("zeros", [
        (0,), (40, 41, 42, 43), (0, 1, 2, 3, 4, 5, 6, 7, 101)])
    def test_cheng_attempt_reading_out_of_range_u1(self, alpha, beta,
                                                   zeros):
        """A Cheng attempt whose u1 is <= 1e-7 reads that one uniform
        and tries again, which flips the parity of every later attempt
        start. Uniform 0 is the first attempt's u1. Of four zeros in a
        row, one is a u1: a u2 follows an in-range u1, and after the
        exponential draw of Beta(alpha, 1) the next draw's first
        attempt reads a u1."""
        for n in (3, N):
            ref = _stream_with_zero_uniforms(5, zeros)
            want = [ref.betavariate(alpha, beta) for _ in range(n)]
            stream = _stream_with_zero_uniforms(5, zeros)
            assert rng_vector.beta_fill(stream, alpha, beta, n) == want
            assert stream.getstate() == ref.getstate()

    @pytest.mark.parametrize("alpha,beta", [
        (1.0, 1.0), (1.0, 5.0), (1.0, 1.5)])
    def test_exponential_branch_reading_zero(self, alpha, beta):
        """``gammavariate(1.0)`` returns ``-log(1 - random())``, which is
        ``-0.0`` when ``random()`` is 0.0: betavariate then returns 0.0
        without drawing the second gamma. Uniform 0 is the first draw's
        exponential read."""
        for zeros in [(0,), (0, 30, 31)]:
            ref = _stream_with_zero_uniforms(9, zeros)
            want = [ref.betavariate(alpha, beta) for _ in range(N)]
            assert want[0] == 0.0
            stream = _stream_with_zero_uniforms(9, zeros)
            assert rng_vector.beta_fill(stream, alpha, beta, N) == want
            assert stream.getstate() == ref.getstate()

    @pytest.mark.parametrize("alpha,beta", [
        (8.0, 2.0), (200.0, 1.0), (1.0, 1.0)])
    def test_undersized_block_grows(self, alpha, beta, monkeypatch):
        """A block sized from a consumption estimate far too low runs
        out mid-walk: the fill doubles it and walks again, to the same
        draws and final state."""
        monkeypatch.setattr(rng_vector, "_consumed",
                            {(alpha, beta): (1, 10**9)})
        want, want_state = _stdlib_betas(3, alpha, beta, N)
        stream = random.Random(3)
        assert rng_vector.beta_fill(stream, alpha, beta, N) == want
        assert stream.getstate() == want_state

    def test_large_fill_peak_memory(self, monkeypatch):
        """One 21,600-draw Beta(8, 2) fill (a BP grid, a 0.7 MB result)
        peaks under 8 MB of traced memory. The consumption estimate is
        emptied so the fill sizes its block for the worst case, as a
        process's first fill does."""
        monkeypatch.setattr(rng_vector, "_consumed", {})
        stream = random.Random(12345)
        tracemalloc.start()
        try:
            got = rng_vector.beta_fill(stream, 8.0, 2.0, 21_600)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(got) == 21_600
        assert peak < 8_000_000, f"peak {peak / 1e6:.1f} MB"

    def test_alpha_below_one_is_unsupported(self):
        with pytest.raises(rng_vector.VectorUnsupported):
            rng_vector.beta_fill(random.Random(1), 0.5, 2.0, 16)

    def test_nonpositive_parameters_are_unsupported(self):
        with pytest.raises(rng_vector.VectorUnsupported):
            rng_vector.beta_fill(random.Random(1), 0.0, 2.0, 16)


class TestInterleavedStreams:
    def test_interleaved_streams_keep_exactness(self):
        """Alternating fills from two distinct streams: every fill must
        be bit-exact and leave its own stream correctly advanced, with
        nothing carried from one fill to the next."""
        ref_a, ref_b = random.Random(1), random.Random(2)
        sa, sb = random.Random(1), random.Random(2)
        for _ in range(3):
            want_a = [ref_a.lognormvariate(0.0, 1.0) for _ in range(N)]
            want_b = [ref_b.betavariate(8.0, 2.0) for _ in range(N)]
            assert rng_vector.lognormal_fill(sa, 0.0, 1.0, N) == want_a
            assert rng_vector.beta_fill(sb, 8.0, 2.0, N) == want_b
        assert sa.getstate() == ref_a.getstate()
        assert sb.getstate() == ref_b.getstate()


class TestRngStreamsGate:
    """The batch APIs in :class:`RngStreams` route through the numpy
    fills from ``_VECTOR_MIN_N`` blocks up, and give exactly what a
    stdlib loop on the same named stream gives."""

    def _boom(self, *args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("vector fill called below the size gate")

    def test_small_batches_stay_scalar(self, monkeypatch):
        monkeypatch.setattr(rng_vector, "lognormal_fill", self._boom)
        monkeypatch.setattr(rng_vector, "beta_fill", self._boom)
        streams = RngStreams(5)
        streams.lognormal_batch("a", 10.0, 0.3, _VECTOR_MIN_N - 1)
        streams.beta_batch("b", 8.0, 2.0, _VECTOR_MIN_N - 1)

    @pytest.mark.parametrize("n", sorted({_VECTOR_MIN_N, 512, 2000}))
    def test_vector_and_scalar_batches_identical(self, n, monkeypatch):
        filled = []

        def spy(fill):
            def wrapper(*args):
                filled.append(fill.__name__)
                return fill(*args)
            return wrapper

        for fill in (rng_vector.lognormal_fill, rng_vector.beta_fill):
            monkeypatch.setattr(rng_vector, fill.__name__, spy(fill))
        streams = RngStreams(77)
        lognormals = streams.lognormal_batch("k", 10.0, 0.3, n)
        betas = streams.beta_batch("k", 8.0, 2.0, n)
        assert filled == ["lognormal_fill", "beta_fill"]
        ref = RngStreams(77)
        assert lognormals == [ref.lognormal("k", 10.0, 0.3)
                              for _ in range(n)]
        assert betas == [ref.beta("k", 8.0, 2.0) for _ in range(n)]

    def test_unsupported_alpha_falls_back_to_scalar(self):
        got = RngStreams(9).beta_batch("k", 0.5, 2.0, 600)
        ref = RngStreams(9)
        assert got == [ref.beta("k", 0.5, 2.0) for _ in range(600)]


class TestThreadedFills:
    def test_concurrent_batches_match_serial(self):
        """Simulations in threads of one process (the daemon's inline
        slots) draw exactly what they draw alone: a fill keeps its state
        in locals and its own stream, so no fill disturbs another's."""
        n = 600
        seeds = (11, 12, 13, 14)

        def draw(seed):
            streams = RngStreams(seed)
            return (streams.beta_batch("nonidem", 8.0, 2.0, n),
                    streams.lognormal_batch("size", 10.0, 0.3, n),
                    streams.beta_batch("nonidem", 2.0, 1.5, n))

        rounds = 25
        want = {seed: draw(seed) for seed in seeds}
        matched = []
        start = threading.Barrier(len(seeds))

        def worker(seed):
            start.wait(timeout=30.0)
            matched.append(sum(draw(seed) == want[seed]
                               for _ in range(rounds)))

        threads = [threading.Thread(target=worker, args=(seed,))
                   for seed in seeds]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert matched == [rounds] * len(seeds)
