"""Micro-op (uop) model.

Instructions decode into one or more uops.  Each uop carries the set of
backend execution ports that can service it; the backend model uses this to
verify that the paper's instruction mixes avoid port contention (Section
III-A4), keeping the *frontend* the bottleneck.

Port numbering follows Intel Skylake: ports 0, 1, 5, 6 execute ALU uops,
ports 2, 3 handle loads, port 4 stores, port 7 store-address.  Branches go
to ports 0/6.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

__all__ = ["UopKind", "Uop", "SKYLAKE_PORTS"]

#: All execution ports present on a Skylake-family backend.
SKYLAKE_PORTS: frozenset[int] = frozenset(range(8))


class UopKind(enum.Enum):
    """Functional class of a micro-op."""

    ALU = "alu"
    MOV = "mov"  # register move / move-immediate (may be eliminated)
    BRANCH = "branch"
    LOAD = "load"
    STORE_DATA = "store_data"
    STORE_ADDR = "store_addr"
    NOP = "nop"

    @property
    def default_ports(self) -> frozenset[int]:
        """Ports that can execute this kind of uop on Skylake."""
        return _DEFAULT_PORTS[self]

    @property
    def touches_memory(self) -> bool:
        """True if the uop accesses the data-cache hierarchy."""
        return self in (UopKind.LOAD, UopKind.STORE_DATA, UopKind.STORE_ADDR)


_DEFAULT_PORTS: dict[UopKind, frozenset[int]] = {
    UopKind.ALU: frozenset({0, 1, 5, 6}),
    UopKind.MOV: frozenset({0, 1, 5, 6}),
    UopKind.BRANCH: frozenset({0, 6}),
    UopKind.LOAD: frozenset({2, 3}),
    UopKind.STORE_DATA: frozenset({4}),
    UopKind.STORE_ADDR: frozenset({2, 3, 7}),
    UopKind.NOP: frozenset(),  # NOPs retire without executing
}


@dataclass(frozen=True)
class Uop:
    """A single micro-op.

    Parameters
    ----------
    kind:
        Functional class; selects the default port binding.
    ports:
        Ports this uop may issue to.  Defaults to the kind's Skylake
        binding.  A frozenset so uops are hashable and shareable.
    """

    kind: UopKind
    ports: frozenset[int] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.ports is None:
            object.__setattr__(self, "ports", self.kind.default_ports)
        if not self.ports <= SKYLAKE_PORTS:
            raise ValueError(f"unknown ports {self.ports - SKYLAKE_PORTS}")
        object.__setattr__(self, "_hash", hash((self.kind, self.ports)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild through the constructor: the cached hash mixes in
        # ``str`` hashes, which differ between processes.
        return (Uop, (self.kind, self.ports))

    @property
    def is_branch(self) -> bool:
        return self.kind is UopKind.BRANCH

    @property
    def touches_memory(self) -> bool:
        return self.kind.touches_memory

    def __repr__(self) -> str:
        return f"Uop({self.kind.value})"
