"""Every configuration's first scan reproduces its committed golden report
byte for byte, evidence lines included (see tests/goldens.py)."""

import pytest

from .goldens import CONFIGS, golden_path, normalised_report


@pytest.mark.parametrize("config", CONFIGS)
def test_golden_report(config, first_scans):
    expected = golden_path(config).read_bytes().decode()
    assert normalised_report(first_scans(config)).decode() == expected
