"""The golden check every paper benchmark runs through: ``save_result``
compares a run's text with the committed result file, writes the new
text and fails with a row-level diff when the two differ."""

from __future__ import annotations

import _harness
import pytest

TABLE = "Table X\nrow a  1.00\nrow b  2.00\nrow c  3.00\n"


@pytest.fixture
def results_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(_harness, "RESULTS_DIR", str(tmp_path))
    return tmp_path


def test_unchanged_text_passes(results_dir):
    (results_dir / "table_x.txt").write_text(TABLE)
    path = _harness.save_result("table_x", TABLE)
    assert path == str(results_dir / "table_x.txt")
    assert (results_dir / "table_x.txt").read_text() == TABLE


def test_changed_row_fails_with_its_diff_and_is_written(results_dir):
    (results_dir / "table_x.txt").write_text(TABLE)
    moved = TABLE.replace("row b  2.00", "row b  2.50")
    with pytest.raises(pytest.fail.Exception) as failure:
        _harness.save_result("table_x", moved)
    message = str(failure.value)
    assert "-row b  2.00\n" in message
    assert "+row b  2.50\n" in message
    assert "-row a" not in message and "+row a" not in message
    assert (results_dir / "table_x.txt").read_text() == moved


def test_missing_file_fails_and_is_written(results_dir):
    with pytest.raises(pytest.fail.Exception) as failure:
        _harness.save_result("table_x", TABLE)
    message = str(failure.value)
    assert "was missing" in message
    assert "+row c  3.00\n" in message
    assert (results_dir / "table_x.txt").read_text() == TABLE
