"""Microcode patch models.

Applying a patch (which on real hardware requires a reboot) toggles the
LSD on the simulated machine.  The CVE lists mirror the paper's footnote:
patch2 adds protections for CVE-2021-24489 (VT-d privilege escalation)
and three June-2021 CVEs; an attacker who fingerprints patch1 knows those
holes are still open.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.machine.machine import Machine

__all__ = ["MicrocodePatch", "PATCH1", "PATCH2", "apply_patch"]


@dataclass(frozen=True)
class MicrocodePatch:
    """A microcode package version and its frontend-visible effect."""

    name: str
    version: str
    lsd_enabled: bool
    mitigated_cves: tuple[str, ...] = field(default_factory=tuple)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        state = "enabled" if self.lsd_enabled else "disabled"
        return f"{self.name} ({self.version}, LSD {state})"


#: The older Ubuntu 18.04 microcode package: LSD still enabled.
PATCH1 = MicrocodePatch(
    name="patch1",
    version="3.20180312.0ubuntu18.04.1",
    lsd_enabled=True,
)

#: The newer package: disables the LSD, mitigates the 2021 CVEs.
PATCH2 = MicrocodePatch(
    name="patch2",
    version="3.20210608.0ubuntu0.18.04.1",
    lsd_enabled=False,
    mitigated_cves=(
        "CVE-2021-24489",
        "CVE-2020-24511",
        "CVE-2020-24512",
        "CVE-2020-24513",
    ),
)


def apply_patch(machine: Machine, patch: MicrocodePatch) -> None:
    """Install a microcode patch (models the post-reboot CPU state).

    Toggles the LSD and cold-resets the core, as the required reboot
    would.
    """
    machine.set_lsd_enabled(patch.lsd_enabled)
    machine.reset()
