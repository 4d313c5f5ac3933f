"""Geometry and hashes of the ISA objects are fixed at construction.

``Uop``, ``Instruction``, ``MixBlock`` and ``LoopProgram`` compute their
derived values (block and program geometry, ``loop_key``, the hash) once,
in the constructor, and keep them as plain attributes outside the
dataclass fields.  These tests pin the three promises that makes:

* the cached values equal the plain formulas over ``instructions``;
* equality stays field-based and equal objects hash equal, interned or
  not;
* a copy made any other way than the constructor (pickle in a process
  with another hash seed, ``dataclasses.replace``) never carries a
  stale value.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.blocks import WINDOW_BYTES, MixBlock, lcp_block, standard_mix_block
from repro.isa.instructions import (
    Instruction,
    add_imm,
    add_reg,
    add_reg_lcp,
    jmp_rel8,
    jmp_rel32,
    load,
    mov_imm32,
    mov_reg,
    nop,
    store,
)
from repro.isa.layout import BlockChainLayout
from repro.isa.program import LoopProgram
from repro.isa.uops import Uop, UopKind
from tests.test_synth_properties import _candidates

LAYOUT = BlockChainLayout()

#: Every instruction factory, as a function of one register number.
_FACTORIES = (
    mov_imm32,
    lambda r: mov_reg(r, (r + 1) % 4),
    lambda r: add_reg(r, (r + 1) % 4),
    add_imm,
    lambda r: add_reg_lcp(r, (r + 1) % 4),
    lambda r: nop(),
    lambda r: jmp_rel32(),
    lambda r: jmp_rel8(),
    load,
    store,
)


def _uninterned(instruction: Instruction) -> Instruction:
    """A fresh, field-equal copy that bypasses the factory cache."""
    return Instruction(
        instruction.mnemonic,
        instruction.length,
        tuple(Uop(u.kind, u.ports) for u in instruction.uops),
        instruction.has_lcp,
        instruction.is_branch,
    )


@st.composite
def _instructions(draw) -> Instruction:
    made = draw(st.sampled_from(_FACTORIES))(draw(st.integers(0, 3)))
    return _uninterned(made) if draw(st.booleans()) else made


_blocks = st.builds(
    MixBlock,
    base=st.integers(0, 1 << 22),
    instructions=st.lists(_instructions(), min_size=1, max_size=40).map(tuple),
    label=st.sampled_from(["", "a", "probe[3]"]),
)


def _old_block_geometry(block: MixBlock) -> dict:
    """Reference geometry, recomputed from ``instructions`` by plain formulas."""
    size = sum(i.length for i in block.instructions)
    end = block.base + size
    first = block.base - (block.base % WINDOW_BYTES)
    last = (end - 1) - ((end - 1) % WINDOW_BYTES)
    windows = tuple(range(first, last + 1, WINDOW_BYTES))
    return {
        "size": size,
        "end": end,
        "uop_count": sum(len(i.uops) for i in block.instructions),
        "lcp_count": sum(1 for i in block.instructions if i.has_lcp),
        "windows": windows,
        "spans_windows": len(windows) > 1,
    }


def _old_program_geometry(program: LoopProgram) -> dict:
    blocks = [_old_block_geometry(block) for block in program.body]
    seen: dict[int, None] = {}
    for geometry in blocks:
        for window in geometry["windows"]:
            seen.setdefault(window)
    return {
        "uops_per_iteration": sum(g["uop_count"] for g in blocks),
        "windows": tuple(seen),
        "window_events_per_iteration": sum(len(g["windows"]) for g in blocks),
        "misaligned_blocks": sum(1 for g in blocks if g["spans_windows"]),
        "lcp_instructions_per_iteration": sum(g["lcp_count"] for g in blocks),
        "loop_key": tuple(block.base for block in program.body),
    }


def _assert_program_geometry(program: LoopProgram) -> None:
    for name, value in _old_program_geometry(program).items():
        assert getattr(program, name) == value, name
    for block in program.body:
        for name, value in _old_block_geometry(block).items():
            assert getattr(block, name) == value, name


class TestCachedGeometryEquivalence:
    @given(block=_blocks)
    @settings(max_examples=100, deadline=None)
    def test_block_geometry_matches_formulas(self, block):
        for name, value in _old_block_geometry(block).items():
            assert getattr(block, name) == value, name
        for instruction in block.instructions:
            assert instruction.uop_count == len(instruction.uops)

    @given(
        blocks=st.lists(_blocks, min_size=1, max_size=8),
        iterations=st.integers(1, 10_000),
    )
    @settings(max_examples=100, deadline=None)
    def test_program_geometry_matches_formulas(self, blocks, iterations):
        _assert_program_geometry(LoopProgram(blocks, iterations, "p"))

    @given(candidate=_candidates)
    @settings(max_examples=50, deadline=None)
    def test_synth_programs_geometry_matches_formulas(self, candidate):
        for program in candidate.programs(LAYOUT):
            _assert_program_geometry(program)

    @given(block=_blocks)
    @settings(max_examples=100, deadline=None)
    def test_rebuilt_objects_are_equal_and_hash_equal(self, block):
        rebuilt = MixBlock(
            block.base,
            tuple(_uninterned(i) for i in block.instructions),
            block.label,
        )
        assert rebuilt == block and hash(rebuilt) == hash(block)
        for a, b in zip(rebuilt.instructions, block.instructions):
            assert a == b and hash(a) == hash(b)
        program = LoopProgram([block], 7, "x")
        twin = LoopProgram([rebuilt], 7, "x")
        assert twin == program and hash(twin) == hash(program)
        assert LoopProgram([rebuilt], 8, "x") != program


class TestFieldBasedIdentity:
    def test_interned_and_uninterned_instructions_compare_equal(self):
        interned = mov_imm32(2)
        assert mov_imm32(2) is interned
        fresh = _uninterned(interned)
        assert fresh is not interned
        assert fresh == interned and hash(fresh) == hash(interned)
        assert {interned: 1}[fresh] == 1

    def test_derived_values_are_not_fields(self):
        assert [f.name for f in dataclasses.fields(Uop)] == ["kind", "ports"]
        assert [f.name for f in dataclasses.fields(Instruction)] == [
            "mnemonic",
            "length",
            "uops",
            "has_lcp",
            "is_branch",
        ]
        assert [f.name for f in dataclasses.fields(MixBlock)] == [
            "base",
            "instructions",
            "label",
        ]
        assert [f.name for f in dataclasses.fields(LoopProgram)] == [
            "body",
            "iterations",
            "label",
        ]
        block = standard_mix_block(0x400010, "b")
        assert dataclasses.astuple(block)[0] == 0x400010
        assert repr(block) == "MixBlock(0x400010, b 25B/5uops, off+16)"

    def test_hash_matches_field_tuple(self):
        block = lcp_block(0x400000, lcp_sets=2)
        assert hash(block) == hash((block.base, block.instructions, block.label))
        program = LoopProgram([block], 3, "x")
        assert hash(program) == hash((program.body, 3, "x"))
        uop = Uop(UopKind.ALU)
        assert hash(uop) == hash((uop.kind, uop.ports))


class TestCopiesRecompute:
    def test_replace_recomputes_block_geometry(self):
        block = standard_mix_block(0x400000, "b")
        moved = dataclasses.replace(block, base=0x400010)
        assert moved.windows == (0x400000, 0x400020)
        assert moved.spans_windows and not block.spans_windows
        assert moved.end == 0x400010 + 25
        assert moved == block.relocated(0x400010)
        assert hash(moved) == hash(block.relocated(0x400010))

    def test_replace_recomputes_program_geometry(self):
        program = LoopProgram(LAYOUT.chain(3, 4), 10)
        extra = LAYOUT.chain(3, 2, misaligned=True, first_slot=4)
        wider = dataclasses.replace(program, body=program.body + tuple(extra))
        assert wider.misaligned_blocks == 2
        assert wider.uops_per_iteration == 30
        assert len(wider.loop_key) == 6
        _assert_program_geometry(wider)

    def test_pickle_round_trip_in_process(self):
        program = LoopProgram(LAYOUT.mixed_chain(5, 3, 2), 100, "pickled")
        clone = pickle.loads(pickle.dumps(program))
        assert clone == program and hash(clone) == hash(program)
        _assert_program_geometry(clone)


# Runs in a fresh interpreter with another hash seed: the pickled
# program must rehash there, not carry the parent's cached hash.
_UNPICKLE_PROBE = """
import pickle, sys
from repro.isa.blocks import lcp_block
from repro.isa.layout import BlockChainLayout
from repro.isa.program import LoopProgram

def build():
    layout = BlockChainLayout()
    body = layout.mixed_chain(5, 3, 2, label="seeded") + [
        lcp_block(layout.block_address(9, 7), lcp_sets=3, label="lcp")
    ]
    return LoopProgram(body, 1234, "probe")

loaded = pickle.loads(sys.stdin.buffer.read())
fresh = build()
assert hash(loaded) == hash(fresh), "program hash"
assert all(hash(a) == hash(b) for a, b in zip(loaded.body, fresh.body)), "block hash"
assert {fresh: "hit"}.get(loaded) == "hit", "dict lookup by unpickled"
assert {loaded: "hit"}.get(fresh) == "hit", "dict lookup by fresh"
assert {fresh.body: "hit"}.get(loaded.body) == "hit", "body lookup"
print(hash(loaded))
"""


class TestPickleAcrossHashSeeds:
    def test_unpickled_program_rehashes_under_another_seed(self):
        layout = BlockChainLayout()
        program = LoopProgram(
            layout.mixed_chain(5, 3, 2, label="seeded")
            + [lcp_block(layout.block_address(9, 7), lcp_sets=3, label="lcp")],
            1234,
            "probe",
        )
        payload = pickle.dumps(program)
        repo_src = str(Path(__file__).resolve().parent.parent / "src")
        hashes = set()
        for hash_seed in ("1", "4242"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = hash_seed
            env["PYTHONPATH"] = repo_src + (
                os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
            )
            result = subprocess.run(
                [sys.executable, "-c", _UNPICKLE_PROBE],
                input=payload,
                capture_output=True,
                env=env,
            )
            assert result.returncode == 0, result.stderr.decode()
            hashes.add(int(result.stdout))
        # The label hashes differ per seed, so a carried-over cached
        # hash would have shown up as one value here and a failed
        # assertion in at least one subprocess above.
        assert len(hashes) == 2
