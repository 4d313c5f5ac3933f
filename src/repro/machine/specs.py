"""Machine specifications for the four tested CPUs (Table I).

| Model            | Gold 6226    | E-2174G     | E-2286G     | E-2288G     |
|------------------|--------------|-------------|-------------|-------------|
| Microarchitecture| Cascade Lake | Coffee Lake | Coffee Lake | Coffee Lake |
| Cores            | 12           | 4           | 6           | 8           |
| Threads          | 24           | 8           | 12          | 8 (HT off)  |
| LSD              | 64 entries   | disabled    | disabled    | 64 entries  |
| Frequency        | 2.7 GHz      | 3.8 GHz     | 4.0 GHz     | 3.7 GHz     |
| SGX              | no           | yes         | yes         | yes         |

The E-2288G the paper tested is the Microsoft Azure variant with
hyper-threading disabled, so MT attacks are not possible on it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigurationError

__all__ = [
    "MachineSpec",
    "GOLD_6226",
    "XEON_E2174G",
    "XEON_E2286G",
    "XEON_E2288G",
    "ALL_SPECS",
    "SGX_SPECS",
    "SMT_SPECS",
    "spec_by_name",
]


@dataclass(frozen=True)
class MachineSpec:
    """Static description of a target CPU.

    Attributes
    ----------
    name / microarchitecture:
        Marketing and microarchitecture names.
    cores / threads:
        Physical core count and total hardware threads.
    frequency_ghz:
        Nominal core clock used to convert simulated cycles to seconds
        (and therefore channel bit rates to Kbps).
    lsd_enabled:
        Whether the LSD is present (microcode disables it on two machines).
    smt / sgx / rapl:
        Feature availability (hyper-threading, SGX enclaves, user-level
        RAPL energy reads).

    The DSB, LSD and L1I geometry is the same on every Table I machine,
    so it lives with those structures (:mod:`repro.isa.blocks`,
    :mod:`repro.frontend.lsd`, :mod:`repro.caches.presets`), not here.
    """

    name: str
    microarchitecture: str
    cores: int
    threads: int
    frequency_ghz: float
    lsd_enabled: bool
    smt: bool
    sgx: bool
    rapl: bool = True

    def __post_init__(self) -> None:
        if self.cores < 1 or self.threads < self.cores:
            raise ConfigurationError(
                f"{self.name}: need threads >= cores >= 1 "
                f"(got cores={self.cores}, threads={self.threads})"
            )
        if self.frequency_ghz <= 0:
            raise ConfigurationError(f"{self.name}: frequency must be positive")
        if self.smt and self.threads < 2 * self.cores:
            raise ConfigurationError(
                f"{self.name}: SMT machines expose 2 threads per core"
            )

    @property
    def threads_per_core(self) -> int:
        return 2 if self.smt else 1

    @property
    def frequency_hz(self) -> float:
        return self.frequency_ghz * 1e9

    def cycles_to_seconds(self, cycles: float) -> float:
        return cycles / self.frequency_hz

    def with_lsd(self, enabled: bool) -> "MachineSpec":
        """Copy of this spec with the LSD toggled (microcode patching)."""
        return replace(self, lsd_enabled=enabled)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


GOLD_6226 = MachineSpec(
    name="Gold 6226",
    microarchitecture="Cascade Lake",
    cores=12,
    threads=24,
    frequency_ghz=2.7,
    lsd_enabled=True,
    smt=True,
    sgx=False,
)

XEON_E2174G = MachineSpec(
    name="Xeon E-2174G",
    microarchitecture="Coffee Lake",
    cores=4,
    threads=8,
    frequency_ghz=3.8,
    lsd_enabled=False,  # LSD disabled by microcode on this machine
    smt=True,
    sgx=True,
)

XEON_E2286G = MachineSpec(
    name="Xeon E-2286G",
    microarchitecture="Coffee Lake",
    cores=6,
    threads=12,
    frequency_ghz=4.0,
    lsd_enabled=False,  # LSD disabled by microcode on this machine
    smt=True,
    sgx=True,
)

XEON_E2288G = MachineSpec(
    name="Xeon E-2288G",
    microarchitecture="Coffee Lake",
    cores=8,
    threads=8,  # Azure variant: hyper-threading disabled
    frequency_ghz=3.7,
    lsd_enabled=True,
    smt=False,
    sgx=True,
)

#: The four Table I machines, in the paper's column order.
ALL_SPECS: tuple[MachineSpec, ...] = (
    GOLD_6226,
    XEON_E2174G,
    XEON_E2286G,
    XEON_E2288G,
)

#: Machines with SGX support (Table VI columns).
SGX_SPECS: tuple[MachineSpec, ...] = (XEON_E2174G, XEON_E2286G, XEON_E2288G)

#: Machines where MT attacks are possible.
SMT_SPECS: tuple[MachineSpec, ...] = (GOLD_6226, XEON_E2174G, XEON_E2286G)


def spec_by_name(name: str) -> MachineSpec:
    """Look up a Table I machine by (case-insensitive, partial) name."""
    wanted = name.lower().replace("_", " ").replace("-", " ")
    for spec in ALL_SPECS:
        if wanted in spec.name.lower().replace("-", " "):
            return spec
    raise ConfigurationError(
        f"unknown machine {name!r}; known: {[s.name for s in ALL_SPECS]}"
    )
