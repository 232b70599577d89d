"""Bit-exact numpy fills of the stdlib batch draws.

:class:`~repro.sim.rng.RngStreams` draws a kernel's whole grid per
stream (``lognormal_batch`` / ``beta_batch``). This module reproduces
those ``lognormvariate`` / ``betavariate`` loops with array math and no
Python loop per draw, while keeping every float and the stream's final
Mersenne Twister state **bit-identical** to the stdlib loop, so traces
and cached results are byte-for-byte the same whichever path ran.

How bit-identity is achieved:

* The uniforms come from the Python stream's own words:
  ``getrandbits(64 * m)`` yields, least significant first, exactly the
  ``2 * m`` words that ``m`` calls of ``random()`` read, and
  ``random()`` is ``((a >> 5) * 2**26 + (b >> 6)) * 2**-53`` of each
  word pair. The state is saved after the uniforms the draws are
  certain to read; once a fill knows how many it used, it restores that
  state and replays the rest, so later scalar draws continue the
  sequence unchanged.

* Elementwise ``+ - * /`` on float64 arrays are IEEE-754-exact, hence
  identical to the scalar arithmetic. ``np.log`` / ``np.exp`` are *not*
  bit-identical to ``math.log`` / ``math.exp`` (~1 ulp differences on a
  fraction of inputs), so they only screen rejection-sampling
  decisions: a sample within a wide margin of the acceptance boundary
  is re-decided with the scalar libm call, and every returned value
  that passes through a transcendental is computed by mapping
  ``math.log`` / ``math.exp`` over the accepted inputs.

* The rejection loops (Kinderman-Monahan for ``normalvariate``, Cheng's
  GB for ``gammavariate(alpha > 1)``) consume a data-dependent number of
  uniforms. Kinderman-Monahan always reads (u1, u2) pairs, so its draws
  are the first ``n`` accepting pairs. A Beta draw reads two gamma
  draws; each Cheng attempt reads two uniforms, except one whose u1
  falls outside (1e-7, 1 - 1e-7), which reads one. The fill screens
  every possible attempt start once per gamma sampler, turns the
  decisions into a table mapping each start to where the Beta draw
  from it ends, and finds all ``n`` draw starts by pointer doubling
  (``ceil(log2 n)`` gathers). Values are computed only at the accepted
  positions.

Anything this module cannot reproduce exactly (``gammavariate`` with
``alpha < 1``, non-positive parameters) raises
:class:`VectorUnsupported` and the caller falls back to the scalar
loop. The exactness tests live in ``tests/test_rng_vector.py``.
"""

from __future__ import annotations

import math
import random as _random_mod
from typing import List, Optional

import numpy as np

# Constants from the stdlib sampler implementations (random.py).
NV_MAGICCONST = _random_mod.NV_MAGICCONST
SG_MAGICCONST = _random_mod.SG_MAGICCONST
LOG4 = _random_mod.LOG4

#: random() = ((genrand() >> 5) * 67108864.0 + (genrand() >> 6)) * _INV53
_INV53 = 1.0 / 9007199254740992.0

#: Relative margin under which an accept/reject comparison involving a
#: numpy transcendental is re-decided with the scalar libm call. np.log
#: and np.exp stay within a couple of ulps (~1e-16 relative) of libm;
#: 1e-9 leaves six orders of magnitude of safety while keeping the
#: scalar-recheck rate negligible.
_RECHECK_MARGIN = 1e-9


class VectorUnsupported(Exception):
    """Raised when a draw cannot be vectorized bit-exactly."""


class _Uniforms:
    """Doubles bit-identical to consecutive ``stream.random()`` calls,
    read from the stream's own words, and the commit that leaves the
    stream exactly ``consumed`` uniforms past where the fill began.

    The first ``sure`` uniforms, which the fill's draws are certain to
    read, are taken before the stream's state is saved, so a commit
    replays only the words read after them."""

    __slots__ = ("_stream", "_sure", "_state", "_u")

    def __init__(self, stream: "_random_mod.Random", sure: int):
        self._stream = stream
        self._sure = sure
        self._u = self._read(sure)
        self._state = stream.getstate()

    def _read(self, k: int) -> np.ndarray:
        words = np.frombuffer(
            self._stream.getrandbits(64 * k).to_bytes(8 * k, "little"),
            "<u4")
        return ((words[0::2] >> 5) * 67108864.0
                + (words[1::2] >> 6)) * _INV53

    def first(self, m: int) -> np.ndarray:
        """The first ``m`` uniforms from the fill's start."""
        have = self._u.size
        if have < m:
            self._u = np.concatenate((self._u, self._read(m - have)))
        return self._u[:m]

    def commit(self, consumed: int) -> None:
        self._u = None
        self._stream.setstate(self._state)
        self._stream.getrandbits(64 * (consumed - self._sure))


def _libm(fn, values: np.ndarray) -> np.ndarray:
    """``fn`` (``math.log`` or ``math.exp``) mapped over ``values``."""
    return np.fromiter(map(fn, values.tolist()), np.float64, values.size)


# ----------------------------------------------------------------------
# lognormal: exp(normalvariate(mu, sigma)), Kinderman-Monahan rejection
# ----------------------------------------------------------------------


def lognormal_fill(stream: "_random_mod.Random", mu: float, sigma: float,
                   n: int) -> List[float]:
    """``[stream.lognormvariate(mu, sigma) for _ in range(n)]``,
    bit-exactly, leaving ``stream`` in the identical final state."""
    if n <= 0:
        return []
    uniforms = _Uniforms(stream, 2 * n)  # every draw reads a pair
    # Kinderman-Monahan accepts ~73.7% of (u1, u2) pairs, so n draws
    # read 1.356 n pairs, with a standard deviation of 0.7 sqrt(n); a
    # shortfall just doubles and retries.
    npairs = int(1.36 * n + 3.0 * math.sqrt(n)) + 32
    while True:
        u = uniforms.first(2 * npairs)
        u1 = u[0::2]
        u2 = 1.0 - u[1::2]
        z = NV_MAGICCONST * (u1 - 0.5) / u2
        zz = z * z / 4.0
        neg_log_u2 = -np.log(u2)
        accept = zz <= neg_log_u2
        # Re-decide borderline pairs with libm (np.log is ~1 ulp off).
        near = np.abs(neg_log_u2 - zz) <= _RECHECK_MARGIN * (1.0 + zz)
        for i in np.flatnonzero(near).tolist():
            accept[i] = zz[i] <= -math.log(u2[i])
        idx = np.flatnonzero(accept)
        if idx.size >= n:
            break
        npairs *= 2
    taken = idx[:n]
    uniforms.commit(2 * (int(taken[-1]) + 1))
    # mu + z*sigma is elementwise IEEE-exact; the final exp goes through
    # libm so the produced floats match lognormvariate bit-for-bit.
    return list(map(math.exp, (mu + z[taken] * sigma).tolist()))


# ----------------------------------------------------------------------
# beta: betavariate via two gammavariate(alpha, 1.0) draws
# ----------------------------------------------------------------------


class _ChengGamma:
    """Screen and values of ``gammavariate(alpha > 1, 1.0)`` (Cheng
    1977, algorithm GB)."""

    __slots__ = ("alpha", "ainv", "bbb", "ccc")

    #: Uniforms an accepted attempt reads (u1, u2), and a bound on the
    #: mean a draw reads (< 1.6 attempts).
    width = 2
    mean_uniforms = 3.2

    def __init__(self, alpha: float):
        self.alpha = alpha
        self.ainv = math.sqrt(2.0 * alpha - 1.0)
        self.bbb = alpha - LOG4
        self.ccc = alpha + self.ainv

    def screen(self, u1: np.ndarray, u2: np.ndarray):
        """``(accept, in_range)`` of the attempts reading ``u1`` and
        ``u2 = 1.0 - random()``. ``accept`` is False where u1 is out of
        range: that attempt reads u1 alone and goes on."""
        # The arithmetic runs in place where it can: these arrays span
        # the whole block, and a fill's peak memory is set here.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            in_range = (1e-7 < u1) & (u1 < 0.9999999)
            r = 1.0 - u1
            np.divide(u1, r, out=r)
            np.log(r, out=r)
            r /= self.ainv  # v
            x = np.exp(r)
            x *= self.alpha
            r *= self.ccc  # ccc * v
            # Both tests lean on np.log/np.exp; re-decide anything near
            # either boundary with the scalar sampler's arithmetic
            # (0 <= zed <= 1 and x > 0 bound the terms' magnitudes).
            scale = np.abs(r)
            scale += 5.5
            scale += x
            scale *= _RECHECK_MARGIN
            r += self.bbb
            r -= x  # bbb + ccc * v - x
            del x
            zed = u1 * u1
            zed *= u2
            c1 = r + SG_MAGICCONST
            c1 -= 4.5 * zed
            accept = c1 >= 0.0
            near = np.abs(c1, out=c1) <= scale
            near &= in_range
            del c1
            # The second (log) test only matters where the squeeze
            # failed or was borderline, so np.log runs on that subset.
            todo = np.flatnonzero(near | ~accept)
            rt = r[todo]
            logzt = np.log(zed[todo])
            accept[todo] |= rt >= logzt
            near[todo] |= in_range[todo] & (
                np.abs(rt - logzt)
                <= scale[todo] + _RECHECK_MARGIN * np.abs(logzt))
        for i in np.flatnonzero(near).tolist():
            accept[i] = self._accept_scalar(float(u1[i]), float(u2[i]))
        return accept & in_range, in_range

    def _accept_scalar(self, u1: float, u2: float) -> bool:
        v = math.log(u1 / (1.0 - u1)) / self.ainv
        x = self.alpha * math.exp(v)
        zed = u1 * u1 * u2
        r = self.bbb + self.ccc * v - x
        return (r + SG_MAGICCONST - 4.5 * zed >= 0.0
                or r >= math.log(zed))

    def values(self, u1: np.ndarray) -> np.ndarray:
        """``alpha * exp(log(u1 / (1 - u1)) / ainv)`` through libm."""
        v = _libm(math.log, u1 / (1.0 - u1)) / self.ainv
        return self.alpha * _libm(math.exp, v)


class _ExpGamma:
    """``gammavariate(1.0, 1.0)`` — the stdlib's expovariate branch,
    which reads one uniform."""

    __slots__ = ()

    width = mean_uniforms = 1

    @staticmethod
    def values(u: np.ndarray) -> np.ndarray:
        """``-log(1 - u)``; ``u == 0.0`` gives ``-0.0``, which is false."""
        return -_libm(math.log, 1.0 - u)


def _gamma_sampler(alpha: float):
    if alpha == 1.0:
        return _ExpGamma()
    if alpha > 1.0:
        return _ChengGamma(alpha)
    # alpha < 1 uses ALGORITHM GS (Ahrens-Dieter) — not vectorized.
    raise VectorUnsupported(f"gammavariate alpha={alpha} not vectorized")


def _cheng_ends(g: _ChengGamma, u: np.ndarray, stride: int,
                size: int) -> np.ndarray:
    """Where a Cheng gamma draw ends, for every start on the domain.

    The domain's indices ``0 .. size - 2`` are start points (``stride``
    1: every position; 2: even positions only, in half units), and
    ``size - 1`` is a sentinel for a draw that runs past the block. A
    rejected attempt moves ``step`` domain units; an accepted one ends
    ``step`` past its start; an out-of-range u1 moves one position, off
    the start's parity, so it only arises with ``stride`` 1.
    """
    step = 2 // stride
    past = size - 1
    accept, in_range = g.screen(u[0:-1:stride], 1.0 - u[1::stride])
    starts = accept.size
    stop = accept if stride == 2 else accept | ~in_range
    # nxt[q]: the first stop (accept or skip) at or after q on q's parity.
    nxt = np.full(size, past)
    positions = np.arange(starts)
    for parity in range(step):
        cand = np.where(stop[parity::step], positions[parity::step],
                        past)
        nxt[parity:starts:step] = np.minimum.accumulate(cand[::-1])[::-1]
    ends = np.minimum(nxt + step, past)
    if stride == 1 and not in_range.all():
        # A skip at k continues the draw from k + 1: resolve skips from
        # the last one back (a later skip is resolved before an earlier
        # one reads it), then send every start whose stop is a skip on.
        skip = np.zeros(size, bool)
        skip[:starts] = ~in_range
        for k in np.flatnonzero(skip)[::-1].tolist():
            ends[k] = ends[nxt[k + 1]] if skip[nxt[k + 1]] else ends[k + 1]
        via = skip[nxt]
        ends[via] = ends[nxt[via]]
    return ends


def _draw_starts(step: np.ndarray, n: int) -> np.ndarray:
    """``s_0 .. s_n`` of the walk ``s_{i+1} = step[s_i]``, ``s_0 = 0``:
    pointer doubling, so ``ceil(log2(n + 1))`` gathers instead of ``n``
    steps. Squaring the jump table ``step^(2^k)`` extends the known
    starts ``s_0 .. s_{2^k - 1}`` to ``s_0 .. s_{2^{k+1} - 1}``."""
    starts = np.zeros(1, step.dtype)
    jump = step
    while True:
        starts = np.concatenate((starts, jump[starts]))
        if starts.size > n:
            return starts[:n + 1]
        jump = jump[jump]


def _beta_from_block(ga, gb, u: np.ndarray, n: int) -> Optional[tuple]:
    """``(values, consumed)`` of ``n`` Beta draws over the uniforms
    ``u``, or None when the draws need more uniforms than ``u`` holds."""
    m = u.size
    cheng_pair = ga.width == 2 and gb.width == 2
    # A Cheng-Cheng draw starts every attempt at an even position until
    # an attempt at an even position reads an out-of-range u1.
    even = u[0:m - 1:2]
    stride = 2 if cheng_pair and bool(
        ((1e-7 < even) & (even < 0.9999999)).all()) else 1
    size = m // stride + 2  # start points 0 .. m // stride, sentinel
    past = size - 1
    if ga.width == 2:
        a_ends = _cheng_ends(ga, u, stride, size)
    else:
        a_ends = np.minimum(np.arange(1, size + 1), past)
    if gb.width == 2:
        b_ends = a_ends if ga is gb else _cheng_ends(gb, u, stride, size)
        step = b_ends[a_ends]
    else:
        step = np.minimum(a_ends + 1, past)
    if ga.width == 1:
        # random() == 0.0 makes y == -0.0: betavariate skips gamma(beta).
        zero = np.zeros(size, bool)
        zero[:m] = u == 0.0
        step[zero] = a_ends[zero]
    starts = _draw_starts(step, n)
    if starts[n] == past:
        return None
    ends = a_ends[starts[:-1]] * stride
    starts *= stride
    y = ga.values(u[ends - ga.width])
    out = np.zeros(n)
    drawn = y != 0.0
    y = y[drawn]
    y2 = gb.values(u[starts[1:][drawn] - gb.width])
    out[drawn] = y / (y + y2)
    return out.tolist(), int(starts[n])


def beta_fill(stream: "_random_mod.Random", alpha: float, beta: float,
              n: int) -> List[float]:
    """``[stream.betavariate(alpha, beta) for _ in range(n)]``,
    bit-exactly, leaving ``stream`` in the identical final state."""
    if n <= 0:
        return []
    if alpha <= 0.0 or beta <= 0.0:
        raise VectorUnsupported("non-positive beta parameters")
    ga = _gamma_sampler(alpha)
    gb = ga if beta == alpha else _gamma_sampler(beta)
    # The screens and gathers cost O(block), so size the block from the
    # mean uniforms a draw read in earlier fills with these parameters
    # (the fluid model redraws the same few (alpha, beta) pairs all
    # run), plus about four standard deviations of the n draws' total
    # and of that mean's error (a draw's reads vary by under 2.2
    # uniforms). A shortfall doubles the block and walks again. The
    # first fill assumes the worst case.
    used, drawn = _consumed.get((alpha, beta), (0, 0))
    if drawn:
        m = int(n * used / drawn + 9.0 * math.sqrt(n + n * n / drawn)) + 64
    else:
        m = int(n * (ga.mean_uniforms + gb.mean_uniforms)) + 64
    # Every draw reads at least the first gamma's accepted attempt and,
    # unless that gamma is exponential (which may return 0.0), the
    # second's.
    sure = n * (ga.width + gb.width if ga.width == 2 else 1)
    uniforms = _Uniforms(stream, sure)
    while True:
        walk = _beta_from_block(ga, gb, uniforms.first(m), n)
        if walk is not None:
            break
        m *= 2
    out, consumed = walk
    _consumed[(alpha, beta)] = (used + consumed, drawn + n)
    uniforms.commit(consumed)
    return out


#: (uniforms, draws) over the Beta fills so far, keyed by (alpha, beta):
#: a sizing estimate only; block sizing never affects the values.
_consumed: dict = {}


__all__ = ["VectorUnsupported", "beta_fill", "lognormal_fill"]
