"""Open-arrival traffic generators: many tenants, timestamped kernels.

The paper evaluates pairwise and periodic scenarios; serving heavy
multi-tenant traffic needs *open* arrivals — kernels arriving on their
own clock, independent of when the GPU finishes the previous one
(Hummingbird, PAPERS.md, frames exactly this SLO-oriented regime).
This module turns a set of :class:`TenantSpec` descriptions into one
merged, time-sorted stream of :class:`Arrival` records that the
scenario driver (:mod:`repro.harness.scenario`) replays either through
a live :class:`~repro.harness.runner.SimSystem` or through the
scheduling daemon.

Three arrival processes are modelled, all seeded and deterministic:

* ``poisson``  — homogeneous Poisson (exponential interarrivals);
* ``diurnal``  — inhomogeneous Poisson with a sinusoidal rate
  ``rate x (1 + amplitude x sin(2 pi t / period))``, generated by
  Lewis thinning, modelling a day/night load curve;
* ``bursty``   — a 2-state Markov-modulated Poisson process (MMPP):
  exponential dwell times alternate between a base state and a burst
  state whose rate is ``burst_factor`` times higher.

Determinism contract: a stream is a pure function of ``(tenants, seed,
horizon_us)``. Per-tenant substreams draw from their own
CRC-32-derived :class:`random.Random` instances (one for arrival
times, one for kernel-mix sampling), so adding a tenant never perturbs
another tenant's stream, and the interarrival stream stays statistically
clean for the KS conformance tests.

A stream is capped at ``DEFAULT_MAX_ARRIVALS`` arrivals unless the
caller passes ``cap``: a runaway rate x horizon combination raises
:class:`~repro.errors.ConfigError` instead of looping forever.
"""

from __future__ import annotations

import json
import math
import random
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.workloads.specs import KernelMix, mix as mix_by_name

__all__ = [
    "Arrival", "ArrivalSpec", "TenantSpec", "ARRIVAL_KINDS",
    "build_stream", "tenant_stream", "merge_streams", "encode_stream",
    "decode_stream", "DEFAULT_MAX_ARRIVALS", "DEFAULT_MIX",
    "DEFAULT_WINDOW_US", "ks_statistic", "ks_threshold",
    "exponential_cdf", "index_of_dispersion",
]

#: Supported arrival-process kinds.
ARRIVAL_KINDS = ("poisson", "diurnal", "bursty")

#: Default safety cap on generated arrivals per stream.
DEFAULT_MAX_ARRIVALS = 200_000

#: Default kernel mix for tenants that do not pin one.
DEFAULT_MIX = "table2-short"

#: Default sliding-window width for windowed SLO metrics, us.
DEFAULT_WINDOW_US = 10_000.0


# ----------------------------------------------------------------------
# specs
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ArrivalSpec:
    """Parameters of one tenant's arrival process."""

    kind: str = "poisson"
    #: Mean arrival rate, arrivals per second (the long-run average for
    #: every kind — diurnal oscillates around it, bursty mixes to it).
    rate_per_s: float = 2000.0
    #: Diurnal: relative swing of the sinusoidal rate, in [0, 1).
    amplitude: float = 0.8
    #: Diurnal: rate-curve period, us (a compressed "day").
    period_us: float = 50_000.0
    #: Bursty: burst-state rate multiplier over the base state.
    burst_factor: float = 8.0
    #: Bursty: stationary fraction of time spent in the burst state.
    burst_fraction: float = 0.1
    #: Bursty: mean dwell time in the burst state, us.
    dwell_us: float = 2_000.0

    def __post_init__(self) -> None:
        if self.kind not in ARRIVAL_KINDS:
            raise ConfigError(
                f"unknown arrival kind {self.kind!r}; known: {ARRIVAL_KINDS}")
        if self.rate_per_s <= 0:
            raise ConfigError("arrival rate must be positive")
        if not 0.0 <= self.amplitude < 1.0:
            raise ConfigError("diurnal amplitude must be in [0, 1)")
        if self.period_us <= 0:
            raise ConfigError("diurnal period must be positive")
        if self.burst_factor < 1.0:
            raise ConfigError("burst_factor must be >= 1")
        if not 0.0 < self.burst_fraction < 1.0:
            raise ConfigError("burst_fraction must be in (0, 1)")
        if self.dwell_us <= 0:
            raise ConfigError("burst dwell time must be positive")

    @property
    def rate_per_us(self) -> float:
        """Mean rate in arrivals per microsecond."""
        return self.rate_per_s / 1e6

    # -- diurnal helpers (shared with the KS conformance tests) -------

    def diurnal_rate_at(self, t_us: float) -> float:
        """Instantaneous diurnal rate at ``t_us``, arrivals/us."""
        return self.rate_per_us * (
            1.0 + self.amplitude * math.sin(2.0 * math.pi * t_us
                                            / self.period_us))

    def diurnal_integrated_rate(self, t_us: float) -> float:
        """Integrated diurnal rate ``Lambda(t)`` — expected arrivals in
        [0, t]. Time-rescaling arrivals through this map turns the
        inhomogeneous process into a unit-rate Poisson process, which
        is how the KS conformance test checks the diurnal generator.
        """
        omega = 2.0 * math.pi / self.period_us
        return self.rate_per_us * (
            t_us + self.amplitude / omega * (1.0 - math.cos(omega * t_us)))

    # -- bursty helpers ------------------------------------------------

    @property
    def base_dwell_us(self) -> float:
        """Mean dwell in the base state implied by ``burst_fraction``."""
        return self.dwell_us * (1.0 - self.burst_fraction) \
            / self.burst_fraction

    @property
    def base_rate_per_us(self) -> float:
        """Base-state rate chosen so the long-run mean is ``rate_per_s``:
        ``(1-f) x base + f x burst_factor x base = mean``."""
        stationary = (1.0 - self.burst_fraction
                      + self.burst_fraction * self.burst_factor)
        return self.rate_per_us / stationary

    @property
    def burst_rate_per_us(self) -> float:
        """Burst-state rate (``burst_factor`` times the base rate)."""
        return self.base_rate_per_us * self.burst_factor


@dataclass(frozen=True)
class TenantSpec:
    """One simulated tenant behind the serving endpoint."""

    name: str
    arrival: ArrivalSpec = field(default_factory=ArrivalSpec)
    #: Kernel-mix catalog name (empty: ``DEFAULT_MIX``).
    mix: str = ""
    #: Admission priority; higher preempts lower in the daemon and gets
    #: a proportionally larger SM share in the simulator.
    priority: int = 0
    #: Per-arrival completion-latency SLO target, us.
    slo_us: float = 2_000.0

    def __post_init__(self) -> None:
        if not self.name or "/" in self.name or ":" in self.name:
            raise ConfigError(f"invalid tenant name {self.name!r}")
        if self.mix:
            mix_by_name(self.mix)  # validate eagerly
        if self.slo_us <= 0:
            raise ConfigError(f"tenant {self.name}: slo_us must be positive")

    def kernel_mix(self) -> KernelMix:
        """The tenant's resolved kernel-mix catalog."""
        return mix_by_name(self.mix or DEFAULT_MIX)


@dataclass(frozen=True)
class Arrival:
    """One timestamped kernel submission in a traffic stream."""

    seq: int            # position in the merged stream (0-based)
    t_us: float         # arrival time since scenario start
    tenant: str
    priority: int
    kernel: str         # Table-2 kernel label, e.g. "SAD.2"
    slo_us: float       # completion-latency target for this arrival

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able form (round-trips via :func:`from_dict`)."""
        return {"seq": self.seq, "t_us": self.t_us, "tenant": self.tenant,
                "priority": self.priority, "kernel": self.kernel,
                "slo_us": self.slo_us}

    @classmethod
    def from_dict(cls, fields: Dict[str, Any]) -> "Arrival":
        """Rebuild an arrival from its :meth:`to_dict` form."""
        try:
            return cls(seq=int(fields["seq"]), t_us=float(fields["t_us"]),
                       tenant=str(fields["tenant"]),
                       priority=int(fields["priority"]),
                       kernel=str(fields["kernel"]),
                       slo_us=float(fields["slo_us"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed arrival record: {exc}") from exc


# ----------------------------------------------------------------------
# arrival-time generation
# ----------------------------------------------------------------------


def _derive_seed(seed: int, tenant: str, stream: str) -> int:
    """Stable per-(tenant, purpose) sub-seed.

    CRC-32 over a canonical string keeps the derivation platform- and
    run-independent (``hash()`` is salted per process, so it must never
    appear here).
    """
    return zlib.crc32(f"{seed}:{tenant}:{stream}".encode())


def _poisson_times(rng: random.Random, rate_per_us: float,
                   horizon_us: float, cap: int) -> List[float]:
    times: List[float] = []
    t = 0.0
    while True:
        t += rng.expovariate(rate_per_us)
        if t >= horizon_us:
            return times
        times.append(t)
        if len(times) > cap:
            raise ConfigError(
                f"traffic stream exceeded the {cap}-arrival safety cap "
                f"(rate x horizon too large)")


def _diurnal_times(rng: random.Random, spec: ArrivalSpec,
                   horizon_us: float, cap: int) -> List[float]:
    """Lewis thinning: candidates at the peak rate, accepted with
    probability ``rate(t) / rate_max``."""
    rate_max = spec.rate_per_us * (1.0 + spec.amplitude)
    times: List[float] = []
    t = 0.0
    while True:
        t += rng.expovariate(rate_max)
        if t >= horizon_us:
            return times
        if rng.random() * rate_max < spec.diurnal_rate_at(t):
            times.append(t)
            if len(times) > cap:
                raise ConfigError(
                    f"traffic stream exceeded the {cap}-arrival safety "
                    f"cap (rate x horizon too large)")


def _bursty_times(rng: random.Random, spec: ArrivalSpec,
                  horizon_us: float, cap: int) -> List[float]:
    """2-state MMPP: exponential dwells alternate base and burst
    states; within a dwell, arrivals are homogeneous Poisson at the
    state's rate. Starts in the base state."""
    times: List[float] = []
    t = 0.0
    in_burst = False
    while t < horizon_us:
        dwell_mean = spec.dwell_us if in_burst else spec.base_dwell_us
        state_end = min(horizon_us, t + rng.expovariate(1.0 / dwell_mean))
        rate = spec.burst_rate_per_us if in_burst else spec.base_rate_per_us
        at = t
        while True:
            at += rng.expovariate(rate)
            if at >= state_end:
                break
            times.append(at)
            if len(times) > cap:
                raise ConfigError(
                    f"traffic stream exceeded the {cap}-arrival safety "
                    f"cap (rate x horizon too large)")
        t = state_end
        in_burst = not in_burst
    return times


def arrival_times(spec: ArrivalSpec, rng: random.Random,
                  horizon_us: float, cap: Optional[int] = None
                  ) -> List[float]:
    """Generate one tenant's raw arrival times in [0, horizon)."""
    if horizon_us <= 0:
        raise ConfigError("traffic horizon must be positive")
    cap = DEFAULT_MAX_ARRIVALS if cap is None else cap
    if spec.kind == "poisson":
        return _poisson_times(rng, spec.rate_per_us, horizon_us, cap)
    if spec.kind == "diurnal":
        return _diurnal_times(rng, spec, horizon_us, cap)
    if spec.kind == "bursty":
        return _bursty_times(rng, spec, horizon_us, cap)
    raise ConfigError(f"unknown arrival kind {spec.kind!r}")


def tenant_stream(tenant: TenantSpec, seed: int, horizon_us: float,
                  cap: Optional[int] = None) -> List[Arrival]:
    """One tenant's arrivals with kernels sampled from its mix.

    Arrival times and kernel choices draw from *separate* derived RNG
    streams, so the interarrival sequence is exactly the pure process
    the KS conformance tests check, regardless of the mix.
    """
    rng_time = random.Random(_derive_seed(seed, tenant.name, "time"))
    rng_mix = random.Random(_derive_seed(seed, tenant.name, "mix"))
    kernel_mix = tenant.kernel_mix()
    out: List[Arrival] = []
    for i, t_us in enumerate(arrival_times(tenant.arrival, rng_time,
                                           horizon_us, cap)):
        out.append(Arrival(seq=i, t_us=t_us, tenant=tenant.name,
                           priority=tenant.priority,
                           kernel=kernel_mix.sample(rng_mix.random()),
                           slo_us=tenant.slo_us))
    return out


def merge_streams(streams: Iterable[Sequence[Arrival]],
                  cap: Optional[int] = None) -> List[Arrival]:
    """Merge per-tenant streams into one time-sorted stream.

    Ties break on (tenant, per-tenant seq) so the merge is a total
    order; global ``seq`` is re-assigned over the merged stream.
    """
    merged = sorted((a for stream in streams for a in stream),
                    key=lambda a: (a.t_us, a.tenant, a.seq))
    cap = DEFAULT_MAX_ARRIVALS if cap is None else cap
    if len(merged) > cap:
        raise ConfigError(
            f"merged traffic stream has {len(merged)} arrivals, above the "
            f"{cap} safety cap")
    return [Arrival(seq=i, t_us=a.t_us, tenant=a.tenant,
                    priority=a.priority, kernel=a.kernel, slo_us=a.slo_us)
            for i, a in enumerate(merged)]


def build_stream(tenants: Sequence[TenantSpec], seed: int,
                 horizon_us: float, cap: Optional[int] = None
                 ) -> List[Arrival]:
    """The full merged stream for a tenant set (the scenario input)."""
    if not tenants:
        raise ConfigError("a traffic scenario needs at least one tenant")
    names = [t.name for t in tenants]
    if len(set(names)) != len(names):
        raise ConfigError(f"duplicate tenant names in {names}")
    return merge_streams(
        (tenant_stream(t, seed, horizon_us, cap) for t in tenants), cap)


# ----------------------------------------------------------------------
# canonical serialization (byte-identity contract)
# ----------------------------------------------------------------------


def encode_stream(arrivals: Sequence[Arrival]) -> str:
    """Canonical JSONL text of a stream (sorted keys, compact).

    The determinism contract is *byte* identity: the same ``(tenants,
    seed, horizon)`` must encode to the same bytes on every run.
    """
    lines = [json.dumps(a.to_dict(), sort_keys=True,
                        separators=(",", ":")) for a in arrivals]
    return "\n".join(lines) + ("\n" if lines else "")


def decode_stream(text: str) -> List[Arrival]:
    """Inverse of :func:`encode_stream`."""
    out: List[Arrival] = []
    for lineno, line in enumerate(filter(None, text.split("\n")), start=1):
        try:
            raw = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"corrupt stream record on line {lineno}: {exc}") from exc
        out.append(Arrival.from_dict(raw))
    return out


# ----------------------------------------------------------------------
# statistical conformance helpers (used by the property tests)
# ----------------------------------------------------------------------


def exponential_cdf(rate: float):
    """CDF of Exp(rate) as a callable (for :func:`ks_statistic`)."""
    if rate <= 0:
        raise ConfigError("exponential rate must be positive")

    def cdf(x: float) -> float:
        return 1.0 - math.exp(-rate * x) if x > 0 else 0.0

    return cdf


def ks_statistic(samples: Sequence[float], cdf) -> float:
    """One-sample Kolmogorov-Smirnov statistic ``D_n`` against ``cdf``."""
    if not samples:
        raise ConfigError("KS statistic needs at least one sample")
    ordered = sorted(samples)
    n = len(ordered)
    d = 0.0
    for i, x in enumerate(ordered):
        f = cdf(x)
        d = max(d, f - i / n, (i + 1) / n - f)
    return d


#: Asymptotic KS critical coefficients c(alpha): reject at level alpha
#: when D_n > c(alpha) / sqrt(n).
_KS_COEFF = {0.10: 1.224, 0.05: 1.358, 0.01: 1.628, 0.001: 1.949}


def ks_threshold(n: int, alpha: float = 0.01) -> float:
    """Critical value of ``D_n`` at significance ``alpha``."""
    if n < 1:
        raise ConfigError("KS threshold needs n >= 1")
    try:
        coeff = _KS_COEFF[alpha]
    except KeyError:
        raise ConfigError(
            f"unsupported KS alpha {alpha}; known: {sorted(_KS_COEFF)}"
        ) from None
    return coeff / math.sqrt(n)


def index_of_dispersion(times: Sequence[float], horizon_us: float,
                        window_us: float) -> float:
    """Variance-to-mean ratio of per-window arrival counts.

    1 for a Poisson process; substantially above 1 for a bursty (MMPP)
    process — the conformance tests use this to tell the two apart at
    fixed seeds.
    """
    if horizon_us <= 0 or window_us <= 0 or window_us > horizon_us:
        raise ConfigError("need 0 < window_us <= horizon_us")
    bins = int(horizon_us // window_us)
    if bins < 2:
        raise ConfigError("need at least two windows")
    counts = [0] * bins
    for t in times:
        index = int(t // window_us)
        if index < bins:
            counts[index] += 1
    mean = sum(counts) / bins
    if mean == 0:
        return 0.0
    var = sum((c - mean) ** 2 for c in counts) / bins
    return var / mean
