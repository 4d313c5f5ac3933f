"""Extension — channel-coding rate/error trade-off (paper footnote [20]).

Section V-B notes the naive threshold encoding could be replaced with
proper channel codes "for possibly faster transmission".  This benchmark
sweeps three line codes over the noisy MT eviction channel and the clean
non-MT eviction channel, quantifying the trade:

* repetition-n cuts error roughly geometrically at a 1/n rate cost —
  the right tool for the slip-dominated MT channel;
* Manchester halves the rate and buys drift immunity;
* differential coding converts transition-located slips into isolated
  errors.
"""

from __future__ import annotations

from _harness import format_table, run_and_report

from repro.analysis.bits import random_bits
from repro.channels.base import ChannelConfig
from repro.channels.coding import (
    CodedChannel,
    DifferentialCode,
    ManchesterCode,
    RepetitionCode,
)
from repro.channels.eviction import MtEvictionChannel, NonMtEvictionChannel
from repro.machine.machine import Machine
from repro.machine.specs import GOLD_6226

PAYLOAD_BITS = 96
SEEDS = (41, 42, 43)


def run_config(channel_kind: str, code_name: str) -> tuple[float, float]:
    """Mean (kbps, error) over seeds for one channel/code combination."""
    codes = {
        "raw": None,
        "repetition-3": RepetitionCode(3),
        "repetition-5": RepetitionCode(5),
        "manchester": ManchesterCode(),
        "differential": DifferentialCode(),
    }
    total_kbps = total_err = 0.0
    for seed in SEEDS:
        machine = Machine(GOLD_6226, seed=seed)
        if channel_kind == "mt":
            channel = MtEvictionChannel(
                machine, ChannelConfig(p=1000, q=100, sync_fail_rate=0.5)
            )
        else:
            channel = NonMtEvictionChannel(machine, variant="stealthy")
        bits = random_bits(PAYLOAD_BITS, machine.rngs.stream("payload"))
        code = codes[code_name]
        if code is None:
            result = channel.transmit(bits)
        else:
            result = CodedChannel(channel, code).transmit(bits)
        total_kbps += result.kbps
        total_err += result.error_rate
    return total_kbps / len(SEEDS), total_err / len(SEEDS)


def experiment() -> dict:
    results: dict[tuple[str, str], tuple[float, float]] = {}
    rows = []
    for channel_kind in ("mt", "non-mt"):
        for code_name in ("raw", "repetition-3", "repetition-5", "manchester", "differential"):
            kbps, err = run_config(channel_kind, code_name)
            results[(channel_kind, code_name)] = (kbps, err)
            rows.append(
                (channel_kind, code_name, f"{kbps:.2f}", f"{err * 100:.2f}%")
            )
    print(
        format_table(
            "Channel coding trade-off (Gold 6226, random payload, "
            "noisy MT config sync_fail=0.5)",
            ["channel", "code", "payload Kbps", "payload error"],
            rows,
        )
    )
    return results


def test_coding_tradeoff():
    results = run_and_report("coding_tradeoff", experiment)
    # Repetition monotonically trades rate for error on the noisy channel.
    raw_kbps, raw_err = results[("mt", "raw")]
    r3_kbps, r3_err = results[("mt", "repetition-3")]
    r5_kbps, r5_err = results[("mt", "repetition-5")]
    assert r3_err <= raw_err
    assert r5_err <= r3_err
    assert raw_kbps > r3_kbps > r5_kbps
    # Manchester costs half the raw rate.
    man_kbps, _ = results[("mt", "manchester")]
    assert man_kbps < 0.7 * raw_kbps
    # On the clean non-MT channel, coding cannot improve what is already
    # near-perfect but must not corrupt it either.
    _, nonmt_raw_err = results[("non-mt", "raw")]
    for code_name in ("repetition-3", "manchester", "differential"):
        _, err = results[("non-mt", code_name)]
        assert err <= nonmt_raw_err + 0.05
