"""Bit-exact numpy vectorization of the stdlib batch draws.

:class:`~repro.sim.rng.RngStreams` batches the whole grid's randomness
per kernel (``lognormal_batch`` / ``beta_batch``), but until this module
each batch still made ``n`` Python-level ``lognormvariate`` /
``betavariate`` calls — ~37% of a periodic fluid run's wall clock. This
module reproduces those draws with numpy array math while keeping every
float and every Mersenne-Twister state transition **bit-identical** to
the scalar path, so traces and cached results are byte-for-byte the
same whichever path ran.

How bit-identity is achieved:

* CPython's ``random.Random`` and numpy's ``MT19937`` bit generator are
  the same Mersenne Twister. We copy the Python stream's 624-word state
  into an ``MT19937``, pull raw 32-bit words with ``random_raw``, and
  rebuild ``random()``'s exact 53-bit doubles:
  ``((a >> 5) * 2**26 + (b >> 6)) / 2**53``. After a batch the Python
  stream is resynced by replaying exactly the consumed words and
  ``setstate``-ing the result back, so interleaved scalar draws continue
  the sequence unchanged.

* Elementwise ``+ - * /`` on float64 arrays are IEEE-754-exact, hence
  identical to the scalar arithmetic. ``np.log`` / ``np.exp`` are *not*
  bit-identical to ``math.log`` / ``math.exp`` (~1 ulp differences on a
  fraction of inputs), so they are used only to pre-screen
  rejection-sampling accept/reject decisions: any sample within a wide
  margin of the acceptance boundary is re-decided with the scalar libm
  call, and every *accepted* value that passes through a transcendental
  is recomputed scalar-exactly before it is returned.

* The rejection loops (Kinderman-Monahan for ``normalvariate``, Cheng's
  GB for ``gammavariate(alpha>1)``) consume a data-dependent number of
  uniforms. The vector path reproduces the exact consumption sequence:
  lognormal partitions the uniform block into strict (u1, u2) pairs;
  beta walks per-position precomputed decision codes through the same
  control flow as the scalar sampler.

Anything this module cannot reproduce exactly (``gammavariate`` with
``alpha < 1``, non-positive parameters) raises
:class:`VectorUnsupported` and the caller falls back to the scalar
loop. The exactness tests live in ``tests/test_rng_vector.py``.
"""

from __future__ import annotations

import itertools
import math
import random as _random_mod
import threading
from typing import List, Optional, Tuple

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


class _Seat(threading.local):
    """One MT19937 per thread, shared by that thread's _UniformBlocks:
    the bare constructor burns ~175us seeding a SeedSequence we
    immediately overwrite, so blocks reuse this object and re-seat its
    state instead. ``(owner, words)`` records whose stream the generator
    currently holds and how many raw words past that block's initial
    state it sits — a block serial, not id(), since ids get recycled.
    Per thread, because simulations running in threads of one process
    would otherwise re-seat each other's generator mid-draw."""

    bitgen = None
    owner = -1
    words = -1


_SEAT = _Seat()

#: Block serials; ``next()`` on a count is atomic under the GIL.
_SERIALS = itertools.count()


def _shared_bitgen():
    bg = _SEAT.bitgen
    if bg is None:
        bg = _SEAT.bitgen = np.random.MT19937()
    return bg


class _UniformBlock:
    """A growable block of doubles bit-identical to consecutive
    ``stream.random()`` calls from a captured state, plus the machinery
    to resync the Python stream after ``consumed`` of them were used."""

    __slots__ = ("_version", "_gauss", "_key0", "_pos0", "_u", "_serial")

    def __init__(self, state: tuple):
        version, internal, gauss = state
        if version != 3 or len(internal) != 625:
            raise VectorUnsupported(f"unknown Random state version {version}")
        self._version = version
        self._gauss = gauss
        self._key0 = np.array(internal[:-1], dtype=np.uint32)
        self._pos0 = internal[-1]
        self._u = np.empty(0, dtype=np.float64)
        self._serial = next(_SERIALS)

    def _seat(self, words_consumed: int):
        """Point this thread's bit generator at this block's stream,
        fast-forwarded ``words_consumed`` raw words past the initial
        state."""
        bg = _shared_bitgen()
        bg.state = {
            "bit_generator": "MT19937",
            "state": {"key": self._key0, "pos": self._pos0},
        }
        if words_consumed:
            bg.random_raw(words_consumed)
        _SEAT.owner = self._serial
        _SEAT.words = words_consumed
        return bg

    def uniforms(self, n: int) -> "np.ndarray":
        """The first ``n`` uniforms of the stream (growing the block)."""
        have = self._u.size
        if have < n:
            if _SEAT.owner == self._serial and _SEAT.words == 2 * have:
                bg = _SEAT.bitgen
            else:
                bg = self._seat(2 * have)
            grow = max(n - have, 512)
            raw = bg.random_raw(2 * grow)
            _SEAT.words = 2 * have + 2 * grow
            a = raw[0::2] >> np.uint64(5)
            b = raw[1::2] >> np.uint64(6)
            fresh = (a * 67108864.0 + b) * _INV53
            self._u = np.concatenate((self._u, fresh)) if have else fresh
        return self._u[:n]

    def state_after(self, consumed: int) -> tuple:
        """The Python ``getstate()`` tuple after ``consumed`` uniforms."""
        bg = self._seat(2 * consumed)
        st = bg.state["state"]
        key = tuple(st["key"].tolist()) + (int(st["pos"]),)
        return (self._version, key, self._gauss)


# ----------------------------------------------------------------------
# lognormal: exp(normalvariate(mu, sigma)), Kinderman-Monahan rejection
# ----------------------------------------------------------------------


def lognormal_fill(stream: "_random_mod.Random", mu: float, sigma: float,
                   n: int) -> List[float]:
    """``[stream.lognormvariate(mu, sigma) for _ in range(n)]``,
    bit-exactly, leaving ``stream`` in the identical final state."""
    if n <= 0:
        return []
    block = _UniformBlock(stream.getstate())
    # Kinderman-Monahan accepts ~73.7% of (u1, u2) pairs; 1.5x + slack
    # covers n w.h.p., and a shortfall just doubles and retries.
    npairs = n + (n >> 1) + 32
    while True:
        u = block.uniforms(2 * npairs)
        u1 = u[0::2]
        u2 = 1.0 - u[1::2]
        z = NV_MAGICCONST * (u1 - 0.5) / u2
        zz = z * z / 4.0
        neg_log_u2 = -np.log(u2)
        accept = zz <= neg_log_u2
        # Re-decide borderline pairs with libm (np.log is ~1 ulp off).
        near = np.abs(neg_log_u2 - zz) <= _RECHECK_MARGIN * (1.0 + zz)
        if near.any():
            for i in np.nonzero(near)[0].tolist():
                accept[i] = zz[i] <= -math.log(u2[i])
        idx = np.nonzero(accept)[0]
        if idx.size >= n:
            break
        npairs *= 2
    taken = idx[:n]
    consumed = 2 * (int(taken[-1]) + 1)
    # mu + z*sigma is elementwise IEEE-exact; the final exp goes through
    # libm so the produced floats match lognormvariate bit-for-bit.
    exponents = (mu + z[taken] * sigma).tolist()
    exp = math.exp
    out = [exp(v) for v in exponents]
    stream.setstate(block.state_after(consumed))
    return out


# ----------------------------------------------------------------------
# beta: betavariate via two gammavariate(alpha, 1.0) draws
# ----------------------------------------------------------------------


class _NeedMore(Exception):
    """Internal: the uniform block ran out mid-walk; grow and restart."""


#: Per-position walk codes for the Cheng sampler.
_SKIP, _REJECT, _ACCEPT = 0, 1, 2


class _ChengGamma:
    """Vectorized decision codes for ``gammavariate(alpha > 1, 1.0)``
    (Cheng 1977, algorithm GB) over one uniform block."""

    __slots__ = ("alpha", "ainv", "bbb", "ccc", "codes", "regular",
                 "next_even", "next_odd")

    def __init__(self, alpha: float):
        self.alpha = alpha
        self.ainv = math.sqrt(2.0 * alpha - 1.0)
        self.bbb = alpha - LOG4
        self.ccc = alpha + self.ainv
        self.codes: List[int] = []
        #: True when no position in the screened block is out of range
        #: (``_SKIP``). Every attempt then consumes exactly two
        #: uniforms, so attempt starts stay on one parity and the walk
        #: can jump straight to the next accepting position.
        self.regular = False
        #: Per-parity next-accepting-position tables (index ``p >> 1``),
        #: sentinel = block size. Only built when ``regular``.
        self.next_even: List[int] = []
        self.next_odd: List[int] = []

    def precompute(self, u: "np.ndarray") -> None:
        """Screen every block position as a candidate (u1, u2) start."""
        m = u.size
        if m < 2:
            self.codes = [_SKIP] * m
            self.regular = False
            return
        u1 = u[:-1]
        u2 = 1.0 - u[1:]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            in_range = (1e-7 < u1) & (u1 < 0.9999999)
            v = np.log(u1 / (1.0 - u1)) / self.ainv
            x = self.alpha * np.exp(v)
            zed = u1 * u1 * u2
            r = self.bbb + self.ccc * v - x
            c1 = r + SG_MAGICCONST - 4.5 * zed
            accept = c1 >= 0.0
            # Both tests lean on np.log/np.exp; re-decide anything near
            # either boundary with the scalar sampler's arithmetic. The
            # second (log) test only matters where the squeeze failed or
            # was borderline, so np.log runs on that subset only.
            scale = 1.0 + np.abs(self.ccc * v) + np.abs(x)
            near = in_range & (
                np.abs(c1) <= _RECHECK_MARGIN * (scale + 4.5 * np.abs(zed)))
            todo = np.nonzero(near | ~accept)[0]
            if todo.size:
                rt = r[todo]
                logzt = np.log(zed[todo])
                accept[todo] |= rt >= logzt
                near_log = (np.abs(rt - logzt)
                            <= _RECHECK_MARGIN * (scale[todo] + np.abs(logzt)))
                near[todo] |= in_range[todo] & near_log
        if near.any():
            for i in np.nonzero(near)[0].tolist():
                accept[i] = self._accept_scalar(float(u1[i]), float(u2[i]))
        if bool(in_range.all()):
            # Common case (u1 lands outside (1e-7, 1 - 1e-7) with
            # probability ~2e-7 per position): build the jump tables
            # the no-skip walk uses and keep the codes list empty.
            self.regular = True
            self.codes = []
            nxt = np.where(accept, np.arange(m - 1), m)
            self.next_even = np.minimum.accumulate(
                nxt[0::2][::-1])[::-1].tolist()
            self.next_odd = np.minimum.accumulate(
                nxt[1::2][::-1])[::-1].tolist()
        else:
            self.regular = False
            codes = np.where(
                in_range,
                np.where(accept, np.int8(_ACCEPT), np.int8(_REJECT)),
                np.int8(_SKIP))
            self.codes = codes.tolist()

    def _accept_scalar(self, u1: float, u2: float) -> bool:
        v = math.log(u1 / (1.0 - u1)) / self.ainv
        x = self.alpha * math.exp(v)
        zed = u1 * u1 * u2
        r = self.bbb + self.ccc * v - x
        return (r + SG_MAGICCONST - 4.5 * zed >= 0.0
                or r >= math.log(zed))


class _ExpGamma:
    """``gammavariate(1.0, 1.0)`` — the stdlib's expovariate branch."""

    __slots__ = ()


def _gamma_sampler(alpha: float):
    if alpha == 1.0:
        return _ExpGamma()
    if alpha > 1.0:
        return _ChengGamma(alpha)
    # alpha < 1 uses ALGORITHM GS (Ahrens-Dieter) — not vectorized.
    raise VectorUnsupported(f"gammavariate alpha={alpha} not vectorized")


def beta_fill(stream: "_random_mod.Random", alpha: float, beta: float,
              n: int) -> List[float]:
    """``[stream.betavariate(alpha, beta) for _ in range(n)]``,
    bit-exactly, leaving ``stream`` in the identical final state."""
    if n <= 0:
        return []
    if alpha <= 0.0 or beta <= 0.0:
        raise VectorUnsupported("non-positive beta parameters")
    ga = _gamma_sampler(alpha)
    gb = _gamma_sampler(beta)
    block = _UniformBlock(stream.getstate())

    def estimate(g) -> float:
        # Cheng's GB needs < 1.5 attempts/draw on average (2 uniforms
        # each); the expovariate branch needs exactly one uniform.
        return 1.0 if isinstance(g, _ExpGamma) else 3.2

    # The screening passes cost O(block), so size the block from the
    # observed uniforms-per-draw of earlier fills with these parameters
    # (the fluid model redraws the same few (alpha, beta) pairs all
    # run). The 1.2x headroom makes a shortfall — which doubles the
    # block and rescreens — vanishingly rare for the batch sizes the
    # vector path handles. First call falls back to the worst case.
    rate = _consumption_rate.get((alpha, beta))
    if rate is None:
        m = int(n * (estimate(ga) + estimate(gb))) + 64
    else:
        m = int(n * rate * 1.2) + 64
    while True:
        u = block.uniforms(m)
        u_list = u.tolist()
        regular = True
        for g in (ga, gb):
            if isinstance(g, _ChengGamma):
                g.precompute(u)
                regular = regular and g.regular
        try:
            if regular:
                out, consumed = _beta_walk_fast(ga, gb, u_list, n)
            else:
                out, consumed = _beta_walk(ga, gb, u_list, n)
        except _NeedMore:
            m *= 2
            continue
        break
    if n >= 64:  # small batches give too noisy an estimate
        _consumption_rate[(alpha, beta)] = consumed / n
    stream.setstate(block.state_after(consumed))
    return out


#: Observed uniforms consumed per beta draw, keyed by (alpha, beta) —
#: a performance cache only; block sizing never affects the values.
_consumption_rate: dict = {}


def _beta_walk_fast(ga, gb, u_list: List[float],
                    n: int) -> Tuple[List[float], int]:
    """No-skip beta walk: jump straight to each accepting attempt.

    Valid only when every Cheng position in the block is in range
    (``regular``), so rejected attempts always consume two uniforms and
    a gamma draw starting at position ``p`` accepts at the first
    same-parity position the precomputed tables point to. Produces the
    identical value/consumption sequence as :func:`_beta_walk`.
    """
    m = len(u_list)
    limit = m - 1
    pos = 0
    out: List[float] = []
    append = out.append
    log = math.log
    exp = math.exp
    a_exp = isinstance(ga, _ExpGamma)
    b_exp = isinstance(gb, _ExpGamma)
    if not a_exp:
        a_even, a_odd = ga.next_even, ga.next_odd
        a_alpha, a_ainv = ga.alpha, ga.ainv
    if not b_exp:
        b_even, b_odd = gb.next_even, gb.next_odd
        b_alpha, b_ainv = gb.alpha, gb.ainv
    for _ in range(n):
        if a_exp:
            if pos >= m:
                raise _NeedMore
            y = -log(1.0 - u_list[pos]) * 1.0
            pos += 1
        else:
            if pos >= limit:
                raise _NeedMore
            j = a_odd[pos >> 1] if pos & 1 else a_even[pos >> 1]
            if j >= limit:
                raise _NeedMore
            uu = u_list[j]
            y = (a_alpha * exp(log(uu / (1.0 - uu)) / a_ainv)) * 1.0
            pos = j + 2
        if y:
            if b_exp:
                if pos >= m:
                    raise _NeedMore
                y2 = -log(1.0 - u_list[pos]) * 1.0
                pos += 1
            else:
                if pos >= limit:
                    raise _NeedMore
                j = b_odd[pos >> 1] if pos & 1 else b_even[pos >> 1]
                if j >= limit:
                    raise _NeedMore
                uu = u_list[j]
                y2 = (b_alpha * exp(log(uu / (1.0 - uu)) / b_ainv)) * 1.0
                pos = j + 2
            append(y / (y + y2))
        else:
            append(0.0)
    return out, pos


def _beta_walk(ga, gb, u_list: List[float],
               n: int) -> Tuple[List[float], int]:
    """Replay betavariate's control flow over the precomputed codes.

    The two gamma draws are inlined (no per-draw calls): this loop runs
    twice per output value on the fluid model's hottest RNG stream.
    """
    m = len(u_list)
    pos = 0
    out: List[float] = []
    append = out.append
    log = math.log
    exp = math.exp
    a_exp = isinstance(ga, _ExpGamma)
    b_exp = isinstance(gb, _ExpGamma)
    a_codes = None if a_exp else ga.codes
    b_codes = None if b_exp else gb.codes
    for _ in range(n):
        if a_exp:
            if pos >= m:
                raise _NeedMore
            y = -log(1.0 - u_list[pos]) * 1.0
            pos += 1
        else:
            while True:
                if pos + 1 >= m:
                    raise _NeedMore
                code = a_codes[pos]
                if code == _SKIP:
                    pos += 1
                    continue
                if code == _ACCEPT:
                    uu = u_list[pos]
                    y = (ga.alpha * exp(log(uu / (1.0 - uu)) / ga.ainv)) * 1.0
                    pos += 2
                    break
                pos += 2
        if y:
            if b_exp:
                if pos >= m:
                    raise _NeedMore
                y2 = -log(1.0 - u_list[pos]) * 1.0
                pos += 1
            else:
                while True:
                    if pos + 1 >= m:
                        raise _NeedMore
                    code = b_codes[pos]
                    if code == _SKIP:
                        pos += 1
                        continue
                    if code == _ACCEPT:
                        uu = u_list[pos]
                        y2 = (gb.alpha
                              * exp(log(uu / (1.0 - uu)) / gb.ainv)) * 1.0
                        pos += 2
                        break
                    pos += 2
            append(y / (y + y2))
        else:
            append(0.0)
    return out, pos


__all__ = ["VectorUnsupported", "beta_fill", "lognormal_fill"]
