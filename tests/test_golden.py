"""Byte-for-byte CLI outputs that pin the covering calculus.

Each file under ``tests/golden/`` holds the ``--format records`` output of
one command.  The tree witnesses are words in the unselected critical edges
of the Farley-Sabalka field, so they change whenever that field, the
selection of critical edges, loop realisation or lifting change.
"""
from pathlib import Path

import pytest

from braidbu.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

GOLDEN = {
    "morse_critical_m4": ("morse", "critical", "--m", "4", "--by-type"),
    "morse_critical_m4_quotient": ("morse", "critical", "--m", "4", "--by-type", "--quotient"),
    "pi1_iota_m3": ("pi1", "map", "--which", "iota", "--m", "3", "--oracle-check"),
    "pi1_theta_m4": ("pi1", "map", "--which", "theta", "--m", "4", "--oracle-check"),
    "wedge_m4_k-37": ("decide", "--target", "wedge", "--k", "-37", "--m", "4", "--theta", "3", "--emit-witness"),
    "tree_n2_r2": ("decide", "--target", "tree", "--n", "2", "--r", "2", "--theta", "1,1", "--emit-witness"),
    "tree_n3_r2": ("decide", "--target", "tree", "--n", "3", "--r", "2", "--theta", "1,2", "--emit-witness"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_matches_golden(name, capsys):
    code = main(["--format", "records", *GOLDEN[name]])
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN_DIR / f"{name}.txt").read_text(encoding="utf-8")
