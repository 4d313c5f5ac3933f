"""Table VI — covert channels attacking SGX enclaves.

Six attack variants (stealthy/fast eviction, stealthy/fast misalignment
as non-MT, plus MT eviction and MT misalignment) on the three
SGX-capable machines.  The E-2288G has hyper-threading disabled, so MT
rows are skipped there, exactly as in the paper.
"""

from __future__ import annotations

from _harness import format_table, run_and_report

from repro.analysis.bits import alternating_bits
from repro.machine.machine import Machine
from repro.machine.specs import SGX_SPECS
from repro.sgx.attacks import SgxMtAttack, SgxNonMtAttack

MESSAGE_BITS = 48

#: Paper values (Kbps, error %), Table VI.
PAPER = {
    ("sgx-non-mt-stealthy-eviction", "Xeon E-2174G"): (18.96, 0.16),
    ("sgx-non-mt-stealthy-eviction", "Xeon E-2286G"): (19.56, 1.33),
    ("sgx-non-mt-stealthy-eviction", "Xeon E-2288G"): (21.20, 2.18),
    ("sgx-non-mt-stealthy-misalignment", "Xeon E-2174G"): (23.93, 0.32),
    ("sgx-non-mt-stealthy-misalignment", "Xeon E-2286G"): (24.70, 0.76),
    ("sgx-non-mt-stealthy-misalignment", "Xeon E-2288G"): (27.10, 0.76),
    ("sgx-non-mt-fast-eviction", "Xeon E-2174G"): (29.35, 0.04),
    ("sgx-non-mt-fast-eviction", "Xeon E-2286G"): (32.01, 1.40),
    ("sgx-non-mt-fast-eviction", "Xeon E-2288G"): (34.48, 0.40),
    ("sgx-non-mt-fast-misalignment", "Xeon E-2174G"): (30.36, 0.08),
    ("sgx-non-mt-fast-misalignment", "Xeon E-2286G"): (31.18, 1.08),
    ("sgx-non-mt-fast-misalignment", "Xeon E-2288G"): (35.20, 0.68),
    ("sgx-mt-eviction", "Xeon E-2174G"): (7.85, 6.74),
    ("sgx-mt-eviction", "Xeon E-2286G"): (14.89, 8.02),
    ("sgx-mt-misalignment", "Xeon E-2174G"): (6.39, 2.56),
    ("sgx-mt-misalignment", "Xeon E-2286G"): (13.62, 12.95),
}


def experiment() -> dict:
    results: dict[tuple[str, str], tuple[float, float]] = {}
    rows = []
    for spec in SGX_SPECS:
        attacks = []
        for mechanism in ("eviction", "misalignment"):
            for variant in ("stealthy", "fast"):
                attacks.append(
                    SgxNonMtAttack(
                        Machine(spec, seed=606),
                        mechanism=mechanism,
                        variant=variant,
                    )
                )
        if spec.smt:
            for mechanism in ("eviction", "misalignment"):
                attacks.append(
                    SgxMtAttack(Machine(spec, seed=606), mechanism=mechanism)
                )
        for attack in attacks:
            result = attack.transmit(alternating_bits(MESSAGE_BITS))
            results[(attack.name, spec.name)] = (result.kbps, result.error_rate)
            paper = PAPER.get((attack.name, spec.name))
            rows.append(
                (
                    attack.name,
                    spec.name,
                    f"{result.kbps:.2f}",
                    f"{result.error_rate * 100:.2f}%",
                    f"{paper[0]:.2f}" if paper else "-",
                    f"{paper[1]:.2f}%" if paper else "-",
                )
            )
    print(
        format_table(
            "Table VI: covert channels attacking SGX enclaves "
            "(d=6 / d=5,M=8, alternating message)",
            ["attack", "machine", "Kbps", "error", "paper Kbps", "paper err"],
            rows,
        )
    )
    return results


def test_table6_sgx():
    results = run_and_report("table6_sgx", experiment)
    for (name, machine_name), (kbps, err) in results.items():
        if name.startswith("sgx-non-mt"):
            # Paper band: roughly 19-35 Kbps for non-MT SGX attacks.
            assert 5 < kbps < 120, (name, machine_name, kbps)
            assert err < 0.10, (name, machine_name, err)
        else:
            # MT SGX attacks: roughly 6-15 Kbps, noisier.
            assert 1 < kbps < 60, (name, machine_name, kbps)
            assert err < 0.30, (name, machine_name, err)
    # MT SGX is slower than non-MT SGX on every SMT machine.
    for spec in SGX_SPECS:
        if not spec.smt:
            continue
        mt = results[("sgx-mt-eviction", spec.name)][0]
        non_mt = results[("sgx-non-mt-fast-eviction", spec.name)][0]
        assert mt < non_mt, spec.name
