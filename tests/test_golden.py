"""Byte-for-byte output of every command in the README's "Command line" section.

Each command runs through `cli.main` from inside tests/golden/, so the
`pe2d --basis my_lattice.json` example reads the committed fixture there and
echoes the same relative path in its config line. The expected bytes are the
`<name>.out` files next to it; `python tests/test_golden.py` rewrites them from
the current code, which is only right when an output change is intended.
"""

import contextlib
import io
import os
import shlex
import sys
from pathlib import Path

import pytest

from latbabai.cli import main

GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).parent.parent / "README.md"

COMMANDS = {
    "reduce_bcc": "reduce --lattice bcc",
    "babai_hexagonal": "babai --lattice hexagonal --target 0.3,0.44",
    "pe2d_ab": "pe2d --a -0.5 --b 0.8660254038",
    "pe2d_basis": "pe2d --basis my_lattice.json",
    "pe2d_polar": "pe2d --polar 2.0943951 1.0",
    "levels": "levels --k 0,0.02,0.0833",
    "pe3d_fcc": "pe3d --lattice fcc",
    "table1": "table1",
    "random_scan": "random-scan --trials 1000 --seed 0 --floor 0.4",
    "table2_scan": "table2-scan --trials 3000 --seed 0",
    "protocol_centralized": "protocol-sim --model centralized --lattice hexagonal --alpha 0.00390625",
    "protocol_interactive": "protocol-sim --model interactive --lattice hexagonal --alpha 0.00390625",
    "protocol_interactive_bcc_gauss": (
        "protocol-sim --model interactive --lattice bcc --alpha 0.0625 --source gauss --samples 20000"
    ),
    "protocol_centralized_bcc_gauss": (
        "protocol-sim --model centralized --lattice bcc --alpha 0.0625 --source gauss --samples 20000"
    ),
}


def readme_commands():
    """Argument lists of the `latbabai ...` lines in the README's Command line block."""
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [
        shlex.split(line.split("#", 1)[0])[1:]
        for line in block.splitlines()
        if line.startswith("latbabai ")
    ]


def run_in_golden_dir(command):
    """Exit code and stdout bytes of one CLI command run from tests/golden/."""
    buf = io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with contextlib.redirect_stdout(buf):
            code = main(shlex.split(command))
    finally:
        os.chdir(cwd)
    return code, buf.getvalue().encode()


def test_every_readme_command_has_a_golden_file():
    assert sorted(readme_commands()) == sorted(shlex.split(c) for c in COMMANDS.values())
    for name in COMMANDS:
        assert (GOLDEN / f"{name}.out").is_file(), name


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_readme_command_output_is_byte_identical(name):
    code, out = run_in_golden_dir(COMMANDS[name])
    assert code == 0
    assert out == (GOLDEN / f"{name}.out").read_bytes()


if __name__ == "__main__":
    for name, command in COMMANDS.items():
        code, out = run_in_golden_dir(command)
        if code != 0:
            sys.exit(f"{name}: exit code {code}")
        (GOLDEN / f"{name}.out").write_bytes(out)
