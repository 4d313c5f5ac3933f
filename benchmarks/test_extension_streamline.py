"""Extension — asynchronous (Streamline-style) transmission rates.

The paper's footnote 2 points at Streamline [25] for "fully optimizing
the transmission rate".  This benchmark quantifies the headroom: the
ring-buffer channel amortises the per-bit synchronisation protocol over
a 16-set ring and sweeps it asynchronously, versus the paper's
synchronised Init/Encode/Decode channels.
"""

from __future__ import annotations

from _harness import format_table, run_and_report

from repro.analysis.bits import random_bits
from repro.analysis.capacity import information_rate
from repro.channels.eviction import NonMtEvictionChannel
from repro.channels.misalignment import NonMtMisalignmentChannel
from repro.channels.streamline import RingBufferChannel
from repro.machine.machine import Machine
from repro.machine.specs import GOLD_6226

PAYLOAD_BITS = 192


def run_one(name: str, seed: int) -> tuple[float, float, float]:
    machine = Machine(GOLD_6226, seed=seed)
    bits = random_bits(PAYLOAD_BITS, machine.rngs.stream("payload"))
    if name == "ring-16":
        result = RingBufferChannel(machine, ring_sets=16).transmit_stream(bits)
    elif name == "ring-8":
        result = RingBufferChannel(machine, ring_sets=8).transmit_stream(bits)
    elif name == "sync-eviction":
        result = NonMtEvictionChannel(machine, variant="fast").transmit(bits)
    else:
        result = NonMtMisalignmentChannel(machine, variant="fast").transmit(bits)
    return result.kbps, result.error_rate, information_rate(result.kbps, result.error_rate)


def experiment() -> dict:
    results = {}
    rows = []
    for name in ("sync-eviction", "sync-misalignment", "ring-8", "ring-16"):
        kbps, err, info = run_one(name, seed=909)
        results[name] = (kbps, err, info)
        rows.append((name, f"{kbps:.1f}", f"{err * 100:.2f}%", f"{info:.1f}"))
    print(
        format_table(
            "Asynchronous (Streamline-style) vs synchronised channels "
            "(Gold 6226, 192-bit random payload)",
            ["channel", "raw Kbps", "error", "info Kbit/s"],
            rows,
        )
    )
    return results


def test_extension_streamline():
    results = run_and_report("extension_streamline", experiment)
    ring_info = results["ring-16"][2]
    sync_info = max(results["sync-eviction"][2], results["sync-misalignment"][2])
    # Order-of-magnitude speedup from removing per-bit synchronisation,
    # in line with Streamline's improvement over synchronised channels.
    assert ring_info > 5 * sync_info
    # Errors stay in a usable band.
    assert results["ring-16"][1] < 0.15
    # A larger ring amortises overhead better than a smaller one.
    assert results["ring-16"][0] > results["ring-8"][0] * 0.8
