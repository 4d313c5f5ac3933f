"""Ablation — measurement-noise amplitude vs channel error rate.

Scales the non-MT timing-noise profile from 0x to 8x and transmits the
same alternating message over the stealthy misalignment channel (the
smallest-margin timing channel).  Errors grow monotonically-ish with the
noise amplitude, demonstrating that the calibrated profile — not the
deterministic frontend model — is what produces the paper-band error
rates.

The scale axis runs as a :class:`ParameterSweep` through
:func:`run_sweep`, so ``REPRO_SWEEP_*`` execution options apply.
"""

from __future__ import annotations

from _harness import format_table, run_and_report, run_sweep

from repro.analysis.bits import alternating_bits
from repro.channels.base import ChannelConfig
from repro.channels.misalignment import NonMtMisalignmentChannel
from repro.machine.machine import Machine
from repro.machine.specs import GOLD_6226
from repro.measure.noise import NONMT_PROFILE, QUIET_PROFILE
from repro.sweep import ParameterSweep, SweepPoint

MESSAGE_BITS = 96
SCALES = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)

#: The ablation pins the machine seed so the *only* moving part across
#: grid points is the noise amplitude (``point.seed`` goes unused).
ABLATION_SEED = 1102


def noise_error_metrics(point: SweepPoint) -> dict:
    scale = point["scale"]
    profile = QUIET_PROFILE if scale == 0.0 else NONMT_PROFILE.scaled(scale)
    machine = Machine(GOLD_6226, seed=ABLATION_SEED, timing_noise=profile)
    channel = NonMtMisalignmentChannel(
        machine, ChannelConfig(d=5, M=8, disturb_rate=0.0), variant="stealthy"
    )
    result = channel.transmit(alternating_bits(MESSAGE_BITS))
    return {"error": result.error_rate}


def experiment() -> dict[float, float]:
    table = run_sweep(ParameterSweep(noise_error_metrics, {"scale": SCALES}))
    results = {row["scale"]: row["error_mean"] for row in table.rows()}
    rows = [(f"{scale:.1f}x", f"{err * 100:.2f}%") for scale, err in results.items()]
    print(
        format_table(
            "Ablation: stealthy misalignment error rate vs noise amplitude",
            ["noise scale", "error rate"],
            rows,
        )
    )
    return results


def test_ablation_noise():
    results = run_and_report("ablation_noise", experiment)
    # Noiseless: the channel is perfect (deterministic model).
    assert results[0.0] == 0.0
    # Heavy noise must push errors toward coin-flipping.
    assert results[8.0] > 0.15
    # The trend is broadly monotone: big amplification, big errors.
    assert results[8.0] >= results[1.0] >= results[0.0]
    assert results[4.0] >= results[0.5]
