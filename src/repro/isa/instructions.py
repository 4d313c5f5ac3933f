"""x86-like instruction objects.

The simulation never interprets instruction *semantics*; what matters for
the frontend channels is each instruction's

* **byte length** — determines 32-byte-window occupancy and therefore DSB
  set mapping and L1I line mapping;
* **uop decomposition** — determines DSB line occupancy (6-uop limit) and
  LSD capacity usage (64-uop limit);
* **decode properties** — whether the instruction carries a Length
  Changing Prefix (LCP, e.g. ``0x66`` operand-size override), whether it is
  a branch (ends a DSB line), and whether it needs the complex decoder.

Factories below construct the handful of instructions the paper's
experiments use.  Byte lengths follow the common x86-64 encodings.  They
are pure and interned (``functools.cache``): instructions are frozen, so
every caller shares one object per distinct encoding, and rebuilt block
bodies compare by identity.

Derived values (``uop_count`` and the hash) are computed once, at
construction, and stored as plain attributes rather than dataclass
fields, so ``fields()``, ``repr`` and ``==`` see only the encoding.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.isa.uops import Uop, UopKind

__all__ = [
    "Instruction",
    "mov_imm32",
    "mov_reg",
    "add_reg",
    "add_imm",
    "add_reg_lcp",
    "nop",
    "jmp_rel32",
    "jmp_rel8",
    "load",
    "store",
]


@dataclass(frozen=True)
class Instruction:
    """A single machine instruction.

    Attributes
    ----------
    mnemonic:
        Human-readable name, e.g. ``"mov r32, imm32"``.
    length:
        Encoded byte length, including prefixes.
    uops:
        Decoded micro-op sequence.
    has_lcp:
        True if the encoding carries a length-changing prefix (``0x66``).
        Predecoding such instructions stalls the MITE length decoder
        (Section III-D) and the DSB will not cache them.
    is_branch:
        Branches terminate a DSB line even if it is not full.

    ``uop_count`` is derived once, at construction (not a dataclass
    field).
    """

    mnemonic: str
    length: int
    uops: tuple[Uop, ...]
    has_lcp: bool = False
    is_branch: bool = False

    def __post_init__(self) -> None:
        if self.length < 1 or self.length > 15:
            raise ValueError(f"x86 instruction length must be 1..15, got {self.length}")
        if not self.uops:
            raise ValueError("instruction must decode to at least one uop")
        object.__setattr__(self, "uop_count", len(self.uops))
        object.__setattr__(
            self,
            "_hash",
            hash((self.mnemonic, self.length, self.uops, self.has_lcp, self.is_branch)),
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild through the constructor: the cached hash mixes in the
        # mnemonic's ``str`` hash, which differs between processes.
        return (
            Instruction,
            (self.mnemonic, self.length, self.uops, self.has_lcp, self.is_branch),
        )

    @property
    def is_complex(self) -> bool:
        """Complex instructions (>1 uop) require MITE's complex decoder."""
        return len(self.uops) > 1

    @property
    def touches_memory(self) -> bool:
        return any(u.touches_memory for u in self.uops)

    def __repr__(self) -> str:
        lcp = " lcp" if self.has_lcp else ""
        return f"Instruction({self.mnemonic!r}, {self.length}B, {len(self.uops)}uop{lcp})"


@functools.cache
def mov_imm32(reg: int = 0) -> Instruction:
    """``mov r32, imm32`` — 5 bytes (opcode B8+r, imm32), 1 uop."""
    return Instruction(
        mnemonic=f"mov r{reg}, imm32",
        length=5,
        uops=(Uop(UopKind.MOV),),
    )


@functools.cache
def mov_reg(dst: int = 0, src: int = 1) -> Instruction:
    """``mov r32, r32`` — 2 bytes, 1 uop."""
    return Instruction(
        mnemonic=f"mov r{dst}, r{src}",
        length=2,
        uops=(Uop(UopKind.MOV),),
    )


@functools.cache
def add_reg(dst: int = 0, src: int = 1) -> Instruction:
    """``add r32, r32`` — 2 bytes, 1 ALU uop."""
    return Instruction(
        mnemonic=f"add r{dst}, r{src}",
        length=2,
        uops=(Uop(UopKind.ALU),),
    )


@functools.cache
def add_imm(reg: int = 0) -> Instruction:
    """``add r32, imm32`` — 6 bytes (81 /0 imm32), 1 ALU uop."""
    return Instruction(
        mnemonic=f"add r{reg}, imm32",
        length=6,
        uops=(Uop(UopKind.ALU),),
    )


@functools.cache
def add_reg_lcp(dst: int = 0, src: int = 1) -> Instruction:
    """``add r16, r16`` with a 0x66 operand-size prefix — 3 bytes, 1 uop.

    The 0x66 prefix is a Length Changing Prefix when combined with an
    immediate form; the paper uses such instructions to trigger LCP
    predecode stalls and forced DSB-to-MITE switches (Section III-D).
    """
    return Instruction(
        mnemonic=f"add{{lcp}} r{dst}w, r{src}w",
        length=3,
        uops=(Uop(UopKind.ALU),),
        has_lcp=True,
    )


@functools.cache
def nop() -> Instruction:
    """``nop`` — 1 byte, 1 uop that retires without executing."""
    return Instruction(mnemonic="nop", length=1, uops=(Uop(UopKind.NOP),))


@functools.cache
def jmp_rel32() -> Instruction:
    """``jmp rel32`` — 5 bytes, 1 branch uop.  Ends a DSB line."""
    return Instruction(
        mnemonic="jmp rel32",
        length=5,
        uops=(Uop(UopKind.BRANCH),),
        is_branch=True,
    )


@functools.cache
def jmp_rel8() -> Instruction:
    """``jmp rel8`` — 2 bytes, 1 branch uop."""
    return Instruction(
        mnemonic="jmp rel8",
        length=2,
        uops=(Uop(UopKind.BRANCH),),
        is_branch=True,
    )


@functools.cache
def load(reg: int = 0) -> Instruction:
    """``mov r64, [mem]`` — 4 bytes, 1 load uop.

    Only used by the Spectre baseline (cache) channels; the frontend
    channels deliberately avoid memory uops (Section III-A4).
    """
    return Instruction(
        mnemonic=f"mov r{reg}, [mem]",
        length=4,
        uops=(Uop(UopKind.LOAD),),
    )


@functools.cache
def store(reg: int = 0) -> Instruction:
    """``mov [mem], r64`` — 4 bytes, store-address + store-data uops."""
    return Instruction(
        mnemonic=f"mov [mem], r{reg}",
        length=4,
        uops=(Uop(UopKind.STORE_ADDR), Uop(UopKind.STORE_DATA)),
    )
