"""Tests for microcode-patch fingerprinting (Section IX)."""

from __future__ import annotations

import pytest

from repro.errors import MeasurementError
from repro.fingerprint.detector import LsdFingerprint
from repro.fingerprint.patches import PATCH1, PATCH2, apply_patch
from repro.machine.machine import Machine
from repro.machine.specs import GOLD_6226, XEON_E2174G, XEON_E2288G


class TestPatches:
    def test_patch_metadata(self):
        assert PATCH1.lsd_enabled
        assert not PATCH2.lsd_enabled
        assert "CVE-2021-24489" in PATCH2.mitigated_cves
        assert PATCH1.version.startswith("3.20180312")
        assert PATCH2.version.startswith("3.20210608")

    def test_apply_patch_toggles_lsd(self):
        machine = Machine(GOLD_6226, seed=71)
        apply_patch(machine, PATCH2)
        assert not machine.lsd_enabled
        apply_patch(machine, PATCH1)
        assert machine.lsd_enabled


class TestDetection:
    def test_detects_patch1(self):
        machine = Machine(GOLD_6226, seed=71)
        apply_patch(machine, PATCH1)
        result = LsdFingerprint().detect(machine)
        assert result.lsd_enabled
        assert result.timing_verdict
        assert result.matching_patch((PATCH1, PATCH2)) is PATCH1

    def test_detects_patch2(self):
        machine = Machine(GOLD_6226, seed=71)
        apply_patch(machine, PATCH2)
        result = LsdFingerprint().detect(machine)
        assert not result.lsd_enabled
        assert result.matching_patch((PATCH1, PATCH2)) is PATCH2

    def test_timing_ratios_well_separated(self):
        """Figure 13: the two patch states are clearly distinguishable."""
        machine = Machine(GOLD_6226, seed=71)
        apply_patch(machine, PATCH1)
        with_lsd = LsdFingerprint().read(machine).timing_ratio
        apply_patch(machine, PATCH2)
        without_lsd = LsdFingerprint().read(machine).timing_ratio
        assert with_lsd > without_lsd + 0.2

    def test_power_less_reliable_than_timing(self):
        """The paper's observation: timing separates the patches more
        than the RAPL power ratio does."""
        machine = Machine(GOLD_6226, seed=71)
        apply_patch(machine, PATCH1)
        on = LsdFingerprint().read(machine)
        apply_patch(machine, PATCH2)
        off = LsdFingerprint().read(machine)
        timing_gap = on.timing_ratio - off.timing_ratio
        power_gap = on.power_ratio - off.power_ratio
        assert timing_gap > power_gap

    def test_detects_native_lsd_machines(self):
        """The probe also distinguishes Table I machines as shipped."""
        fp = LsdFingerprint()
        assert not fp.detect(Machine(XEON_E2174G, seed=71)).lsd_enabled
        assert fp.detect(Machine(XEON_E2288G, seed=71)).lsd_enabled

    def test_repeated_detection_stable(self):
        machine = Machine(GOLD_6226, seed=71)
        apply_patch(machine, PATCH1)
        fp = LsdFingerprint()
        verdicts = [fp.detect(machine).lsd_enabled for _ in range(5)]
        assert all(verdicts)

    def test_no_matching_patch_raises(self):
        machine = Machine(GOLD_6226, seed=71)
        apply_patch(machine, PATCH1)
        result = LsdFingerprint().detect(machine)
        with pytest.raises(MeasurementError):
            result.matching_patch((PATCH2,))

    def test_param_validation(self):
        with pytest.raises(MeasurementError):
            LsdFingerprint(iterations=0)
        with pytest.raises(MeasurementError):
            LsdFingerprint(samples=0)
