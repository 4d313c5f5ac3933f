"""Channel coding on top of the raw covert channels (paper extension).

Section V-B notes the simple threshold encoding "can in future be
replaced with other channel coding methods [20] for possibly faster
transmission".  This module provides three classic codes and a uniform
:class:`CodedChannel` wrapper that applies them to any
:class:`~repro.channels.base.CovertChannel`:

* **repetition** — send each bit ``n`` times, majority-vote at the
  receiver.  Trades rate for error linearly; the workhorse for the noisy
  MT channels.
* **Manchester** — send each bit as a ``01``/``10`` pair and decode the
  *difference* of the two measurements.  Immune to slow baseline drift
  and to any fixed offset between contexts, at half the raw rate.
* **differential** — encode bits in *transitions* (a 1 toggles the
  channel symbol, a 0 repeats it).  Converts the MT channels'
  transition-located slip errors into isolated — rather than doubled —
  bit errors for runs, and makes constant payloads cheap.

All wrappers reuse the underlying channel's Init/Encode/Decode protocol
untouched; only the symbol stream and the decoder change.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Sequence

from repro.analysis.outcome import leak_kbps
from repro.analysis.threshold import ThresholdDecoder
from repro.analysis.wagner_fischer import error_rate
from repro.channels.base import CovertChannel, TransmissionResult
from repro.errors import ChannelError

__all__ = [
    "LineCode",
    "RepetitionCode",
    "ManchesterCode",
    "DifferentialCode",
    "CodedChannel",
]


class LineCode(abc.ABC):
    """Maps payload bits to channel symbols and measurements to bits."""

    name: str = "abstract"

    @abc.abstractmethod
    def encode(self, bits: Sequence[int]) -> list[int]:
        """Payload bits -> channel symbols (each symbol is sent raw)."""

    @abc.abstractmethod
    def decode(
        self, measurements: Sequence[float], decoder: ThresholdDecoder
    ) -> list[int]:
        """Raw symbol measurements -> recovered payload bits."""

    def symbols_per_bit(self) -> float:
        """Average channel symbols consumed per payload bit."""
        return len(self.encode([0, 1, 1, 0])) / 4


class RepetitionCode(LineCode):
    """Each bit sent ``n`` times; the receiver majority-votes."""

    def __init__(self, n: int = 3) -> None:
        if n < 1 or n % 2 == 0:
            raise ChannelError(f"repetition factor must be odd and >= 1, got {n}")
        self.n = n
        self.name = f"repetition-{n}"

    def encode(self, bits: Sequence[int]) -> list[int]:
        return [bit for bit in bits for _ in range(self.n)]

    def decode(
        self, measurements: Sequence[float], decoder: ThresholdDecoder
    ) -> list[int]:
        if len(measurements) % self.n:
            raise ChannelError(
                f"measurement count {len(measurements)} is not a multiple "
                f"of the repetition factor {self.n}"
            )
        bits = []
        for offset in range(0, len(measurements), self.n):
            votes = [
                decoder.decide(m) for m in measurements[offset : offset + self.n]
            ]
            bits.append(int(sum(votes) * 2 > self.n))
        return bits


class ManchesterCode(LineCode):
    """Bit 0 -> symbols (0, 1); bit 1 -> symbols (1, 0); decode by the
    *sign of the difference* between the pair's measurements, which
    cancels any common-mode drift."""

    name = "manchester"

    def encode(self, bits: Sequence[int]) -> list[int]:
        symbols = []
        for bit in bits:
            symbols.extend((1, 0) if bit else (0, 1))
        return symbols

    def decode(
        self, measurements: Sequence[float], decoder: ThresholdDecoder
    ) -> list[int]:
        if len(measurements) % 2:
            raise ChannelError("Manchester decoding needs an even symbol count")
        bits = []
        for offset in range(0, len(measurements), 2):
            first, second = measurements[offset], measurements[offset + 1]
            # one_is_high: a 1-symbol measures higher, so bit=1 (pair
            # 1,0) iff first > second; inverted channels flip the sign.
            bits.append(int((first > second) == decoder.one_is_high))
        return bits


class DifferentialCode(LineCode):
    """Bits carried by symbol *transitions*: 1 toggles, 0 holds.

    The symbol stream starts from 0.  Decoding XORs consecutive decoded
    symbols, so a single mis-measured symbol corrupts at most two
    payload bits but long runs are immune to slow drift.
    """

    name = "differential"

    def encode(self, bits: Sequence[int]) -> list[int]:
        symbols = []
        current = 0
        for bit in bits:
            current ^= int(bit)
            symbols.append(current)
        return symbols

    def decode(
        self, measurements: Sequence[float], decoder: ThresholdDecoder
    ) -> list[int]:
        symbols = [decoder.decide(m) for m in measurements]
        bits = []
        previous = 0
        for symbol in symbols:
            bits.append(symbol ^ previous)
            previous = symbol
        return bits


@dataclass
class CodedTransmissionResult:
    """Outcome of a coded transmission (payload-level accounting)."""

    raw: TransmissionResult
    payload_bits: list[int]
    decoded_bits: list[int]
    kbps: float
    error_rate: float
    code_name: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.code_name} over {self.raw.channel_name}: "
            f"{self.kbps:.2f} Kbps payload, error {self.error_rate * 100:.2f}%"
        )


class CodedChannel:
    """Applies a :class:`LineCode` to any covert channel."""

    def __init__(self, channel: CovertChannel, code: LineCode) -> None:
        self.channel = channel
        self.code = code

    def transmit(
        self, bits: Sequence[int], training_bits: int = 16
    ) -> CodedTransmissionResult:
        """Calibrate, send the coded symbol stream, decode the payload."""
        bits = [int(b) for b in bits]
        if any(b not in (0, 1) for b in bits):
            raise ChannelError("payload bits must be 0 or 1")
        if not bits:
            raise ChannelError("cannot transmit an empty payload")
        self.channel.calibrate(training_bits)
        symbols = self.code.encode(bits)
        samples = [self.channel.send_bit(s) for s in symbols]
        measurements = [s.measurement for s in samples]
        decoded = self.code.decode(measurements, self.channel.decoder)
        total_cycles = sum(s.elapsed_cycles for s in samples)
        frequency_hz = self.channel.machine.spec.frequency_hz
        raw = TransmissionResult(
            sent_bits=symbols,
            received_bits=self.channel.decoder.decide_many(measurements),
            samples=samples,
            decoder=self.channel.decoder,
            total_cycles=total_cycles,
            kbps=leak_kbps(len(symbols), total_cycles, frequency_hz),
            error_rate=error_rate(
                symbols, self.channel.decoder.decide_many(measurements)
            ),
            channel_name=self.channel.name,
            machine_name=self.channel.machine.spec.name,
        )
        return CodedTransmissionResult(
            raw=raw,
            payload_bits=bits,
            decoded_bits=decoded,
            kbps=leak_kbps(len(bits), total_cycles, frequency_hz),
            error_rate=error_rate(bits, decoded),
            code_name=self.code.name,
        )
