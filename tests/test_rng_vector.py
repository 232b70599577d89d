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


def _stdlib_lognormals(seed, mu, sigma, n):
    ref = random.Random(seed)
    return [ref.lognormvariate(mu, sigma) for _ in range(n)], ref.getstate()


def _stdlib_betas(seed, alpha, beta, n):
    ref = random.Random(seed)
    return [ref.betavariate(alpha, beta) for _ in range(n)], ref.getstate()


class TestLognormalFill:
    @pytest.mark.parametrize("seed", [0, 1, 12345, 987654321])
    @pytest.mark.parametrize("mu,sigma", [
        (0.0, 1.0), (2.3, 0.4), (-1.0, 2.0)])
    def test_bit_exact_vs_stdlib(self, seed, mu, sigma):
        want, want_state = _stdlib_lognormals(seed, mu, sigma, N)
        stream = random.Random(seed)
        got = rng_vector.lognormal_fill(stream, mu, sigma, N)
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
    @pytest.mark.parametrize("alpha,beta", NONIDEM_BETA_PAIRS)
    def test_bit_exact_vs_stdlib(self, alpha, beta):
        want, want_state = _stdlib_betas(7, alpha, beta, N)
        stream = random.Random(7)
        got = rng_vector.beta_fill(stream, alpha, beta, N)
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

    def test_irregular_block_falls_back_to_code_walk(self, monkeypatch):
        """Force ``regular=False`` so beta_fill takes the per-code
        ``_beta_walk`` instead of the jump-table fast walk — the
        fallback must be just as bit-exact."""
        walked = []
        original = rng_vector._beta_walk

        def spy(ga, gb, u_list, n):
            walked.append(n)
            return original(ga, gb, u_list, n)

        def irregular(self, u):
            # Screen every position scalarly and report the block as
            # irregular; production only populates ``codes`` on this
            # branch, so build them here too.
            u_list = u.tolist()
            codes = []
            for i in range(len(u_list) - 1):
                u1, u2 = u_list[i], 1.0 - u_list[i + 1]
                if 1e-7 < u1 < 0.9999999:
                    codes.append(rng_vector._ACCEPT
                                 if self._accept_scalar(u1, u2)
                                 else rng_vector._REJECT)
                else:
                    codes.append(rng_vector._SKIP)
            self.codes = codes
            self.regular = False

        monkeypatch.setattr(rng_vector._ChengGamma, "precompute", irregular)
        monkeypatch.setattr(rng_vector, "_beta_walk", spy)
        want, want_state = _stdlib_betas(11, 8.0, 2.0, N)
        stream = random.Random(11)
        assert rng_vector.beta_fill(stream, 8.0, 2.0, N) == want
        assert stream.getstate() == want_state
        assert walked  # the fallback actually ran

    def test_alpha_below_one_is_unsupported(self):
        with pytest.raises(rng_vector.VectorUnsupported):
            rng_vector.beta_fill(random.Random(1), 0.5, 2.0, 16)

    def test_nonpositive_parameters_are_unsupported(self):
        with pytest.raises(rng_vector.VectorUnsupported):
            rng_vector.beta_fill(random.Random(1), 0.0, 2.0, 16)


class TestSharedBitgenInterleaving:
    def test_interleaved_streams_keep_exactness(self):
        """Alternating fills from two distinct streams churn the shared
        numpy bit generator's block ownership; every fill must still be
        bit-exact and leave its own stream correctly advanced."""
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

    @pytest.mark.parametrize("n", [_VECTOR_MIN_N, 2000])
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
        slots) draw exactly what they draw alone: each thread seats its
        own bit generator, so no fill re-seats another's mid-draw."""
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
