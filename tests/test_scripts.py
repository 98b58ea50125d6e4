import os
import subprocess
import sys

import pytest

from genshift import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def divergence_table(*args):
    src = os.path.dirname(os.path.dirname(cli.__file__))  # import this same genshift
    return subprocess.run([sys.executable, os.path.join(ROOT, "scripts", "divergence_table.py"),
                           *args], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("max_exp", ["-1", "-3"])
def test_divergence_table_refuses_a_negative_max_exp(max_exp):
    result = divergence_table("--max-exp", max_exp)
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr.splitlines()[-1] == (f"divergence_table.py: error: --max-exp must be"
                                              f" at least 0, got {max_exp}")


def test_divergence_table_at_max_exp_0_prints_the_k_1_row():
    result = divergence_table("--max-exp", "0")
    assert result.returncode == 0 and result.stderr == ""
    header, row, limit = result.stdout.splitlines()
    assert header.split()[0] == "K" and row.split()[0] == "1" and limit.split()[0] == "limit"


def test_divergence_table_prints_a_row_for_every_power_up_to_max_exp():
    result = divergence_table("--max-exp", "3")
    assert result.returncode == 0 and result.stderr == ""
    lines = result.stdout.splitlines()
    assert [line.split()[0] for line in lines[1:-1]] == ["1", "2", "4", "8"]
