"""Table I — specifications of the tested Intel CPU models.

Prints the machine-spec table the rest of the evaluation is parameterised
by and asserts it matches the paper's values.
"""

from __future__ import annotations

from _harness import format_table, run_and_report

from repro.machine.specs import ALL_SPECS


def experiment():
    rows = [
        (
            spec.name,
            spec.microarchitecture,
            spec.cores,
            spec.threads,
            f"{spec.frequency_ghz} GHz",
            spec.lsd_entries if spec.lsd_enabled else "disabled",
            "yes" if spec.smt else "no",
            "yes" if spec.sgx else "no",
        )
        for spec in ALL_SPECS
    ]
    print(
        format_table(
            "Table I: specifications of the tested Intel CPU models",
            ["model", "uarch", "cores", "threads", "freq", "LSD", "SMT", "SGX"],
            rows,
        )
    )
    print()
    print("All machines: DSB 8-way, 32-byte window, 32 sets; "
          "L1 32KB 8-way 64B lines, 64 sets.")
    return ALL_SPECS


def test_table1_specs():
    specs = run_and_report("table1_specs", experiment)
    by_name = {spec.name: spec for spec in specs}
    gold = by_name["Gold 6226"]
    assert (gold.cores, gold.threads, gold.frequency_ghz) == (12, 24, 2.7)
    assert gold.lsd_enabled and not gold.sgx
    e2174 = by_name["Xeon E-2174G"]
    assert (e2174.cores, e2174.threads, e2174.frequency_ghz) == (4, 8, 3.8)
    assert not e2174.lsd_enabled and e2174.sgx
    e2286 = by_name["Xeon E-2286G"]
    assert (e2286.cores, e2286.threads, e2286.frequency_ghz) == (6, 12, 4.0)
    e2288 = by_name["Xeon E-2288G"]
    assert (e2288.cores, e2288.threads, e2288.frequency_ghz) == (8, 8, 3.7)
    assert not e2288.smt  # Azure variant: hyper-threading disabled
