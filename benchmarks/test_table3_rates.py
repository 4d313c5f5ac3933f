"""Table III — transmission rates and error rates of all eviction- and
misalignment-based attacks on the four Table I machines.

Settings follow the paper: d=6 for eviction channels, d=5/M=8 for
misalignment channels, alternating 0/1 message.  The E-2288G has
hyper-threading disabled, so MT attacks are skipped there, exactly as in
the paper's table.

The (machine, attack) matrix runs as one :class:`ParameterSweep` over a
single ``case`` axis (a cartesian product would generate the invalid
MT-attack-on-non-SMT combinations), so ``REPRO_SWEEP_JOBS`` /
``REPRO_SWEEP_CACHE_DIR`` parallelise and memoise it like every other
sweep benchmark.
"""

from __future__ import annotations

from _harness import format_table, run_and_report, run_sweep

from repro.analysis.bits import alternating_bits
from repro.channels.base import ChannelConfig
from repro.channels.eviction import MtEvictionChannel, NonMtEvictionChannel
from repro.channels.misalignment import (
    MtMisalignmentChannel,
    NonMtMisalignmentChannel,
)
from repro.machine.machine import Machine
from repro.machine.specs import ALL_SPECS, spec_by_name
from repro.sweep import ParameterSweep, SweepPoint

MESSAGE_BITS = 64

#: Table seed — every cell transmits on a fresh machine seeded the same
#: way, as the paper measures each attack on an otherwise idle core.
TABLE_SEED = 303

#: Paper's Table III values (Kbps, error %) where legible in the source.
PAPER = {
    ("non-mt-stealthy-eviction", "Gold 6226"): (419.67, 6.48),
    ("non-mt-stealthy-eviction", "Xeon E-2174G"): (851.81, 3.43),
    ("non-mt-stealthy-eviction", "Xeon E-2286G"): (1182.55, 3.45),
    ("non-mt-stealthy-eviction", "Xeon E-2288G"): (1356.43, 0.36),
    ("non-mt-stealthy-misalignment", "Gold 6226"): (713.01, 22.56),
    ("non-mt-stealthy-misalignment", "Xeon E-2174G"): (466.02, 11.34),
    ("non-mt-stealthy-misalignment", "Xeon E-2286G"): (723.15, 16.56),
    ("non-mt-stealthy-misalignment", "Xeon E-2288G"): (1094.39, 10.08),
    ("mt-eviction", "Gold 6226"): (115.97, 15.52),
    ("mt-eviction", "Xeon E-2174G"): (113.02, 14.44),
    ("mt-eviction", "Xeon E-2286G"): (161.63, 13.93),
}

#: Channel name -> constructor, in the table's row order per machine.
CHANNEL_BUILDERS = {
    "non-mt-stealthy-eviction": lambda m: NonMtEvictionChannel(
        m, ChannelConfig(d=6), variant="stealthy"
    ),
    "non-mt-fast-eviction": lambda m: NonMtEvictionChannel(
        m, ChannelConfig(d=6), variant="fast"
    ),
    "non-mt-stealthy-misalignment": lambda m: NonMtMisalignmentChannel(
        m, ChannelConfig(d=5, M=8), variant="stealthy"
    ),
    "non-mt-fast-misalignment": lambda m: NonMtMisalignmentChannel(
        m, ChannelConfig(d=5, M=8), variant="fast"
    ),
    "mt-eviction": lambda m: MtEvictionChannel(m),
    "mt-misalignment": lambda m: MtMisalignmentChannel(m),
}

#: The table's valid (machine, attack) cells, in the paper's row order.
CASES = [
    (spec.name, channel_name)
    for spec in ALL_SPECS
    for channel_name in CHANNEL_BUILDERS
    if spec.smt or not channel_name.startswith("mt-")
]


def case_metrics(point: SweepPoint) -> dict:
    """Transmit one table cell; ``point.seed`` is deliberately unused —
    the paper's table fixes one machine seed per cell."""
    machine_name, channel_name = point["case"]
    machine = Machine(spec_by_name(machine_name), seed=TABLE_SEED)
    channel = CHANNEL_BUILDERS[channel_name](machine)
    result = channel.transmit(alternating_bits(MESSAGE_BITS))
    return {"kbps": result.kbps, "error": result.error_rate}


def experiment() -> dict:
    table = run_sweep(ParameterSweep(case_metrics, {"case": CASES}))
    results: dict[tuple[str, str], tuple[float, float]] = {}
    rows = []
    for row in table.rows():
        machine_name, channel_name = row["case"]
        kbps, error = row["kbps_mean"], row["error_mean"]
        results[(channel_name, machine_name)] = (kbps, error)
        paper = PAPER.get((channel_name, machine_name))
        rows.append(
            (
                channel_name,
                machine_name,
                f"{kbps:.2f}",
                f"{error * 100:.2f}%",
                f"{paper[0]:.2f}" if paper else "-",
                f"{paper[1]:.2f}%" if paper else "-",
            )
        )
    print(
        format_table(
            "Table III: rates/errors of eviction and misalignment attacks "
            "(d=6 / d=5,M=8, alternating message)",
            ["channel", "machine", "Kbps", "error", "paper Kbps", "paper err"],
            rows,
        )
    )
    return results


def test_table3_rates():
    results = run_and_report("table3_rates", experiment)

    def rate(channel, machine):
        return results[(channel, machine)][0]

    def err(channel, machine):
        return results[(channel, machine)][1]

    for spec in ALL_SPECS:
        name = spec.name
        # Non-MT rates land in the paper's hundreds-of-Kbps-to-Mbps band.
        for channel in (
            "non-mt-stealthy-eviction",
            "non-mt-fast-eviction",
            "non-mt-stealthy-misalignment",
            "non-mt-fast-misalignment",
        ):
            assert 200 < rate(channel, name) < 4000, (channel, name)
        # Misalignment beats eviction (8 vs 9 accesses per iteration).
        assert rate("non-mt-fast-misalignment", name) > rate(
            "non-mt-fast-eviction", name
        ), name
        # Non-MT errors stay moderate; stealthy misalignment is the
        # noisiest non-MT channel (smallest margin), as in the paper.
        assert err("non-mt-stealthy-misalignment", name) >= err(
            "non-mt-fast-eviction", name
        ), name
        if spec.smt:
            # MT attacks are an order of magnitude slower than non-MT.
            assert rate("mt-eviction", name) < rate("non-mt-fast-eviction", name) / 3
            # MT error rates are the highest of the table.
            assert err("mt-eviction", name) >= 0.0

    # The paper's fastest attack family: non-MT misalignment.
    fastest = max(results, key=lambda key: results[key][0])
    assert "misalignment" in fastest[0]
