"""README.md's examples run as written: the python blocks in order, in one
namespace, and each ``dynlaw`` command line through ``cli.run``."""

import re
import shlex
from pathlib import Path

from dynlaw.cli import run

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_examples_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), flags=re.S)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("dynlaw ")]
    assert {shlex.split(line)[1] for line in lines} >= {"synth", "compress", "decompress", "sweep"}
    monkeypatch.chdir(tmp_path)
    for line in lines:  # in order: later lines read what earlier ones wrote
        assert run(shlex.split(line)[1:]) == 0, line
        capsys.readouterr()
