"""The README's library quickstart and CLI walkthrough run as written."""

import re
import shlex
from pathlib import Path

import numpy as np

from relgen import main
from relgen.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quickstart_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    n_test = len(namespace["data"].test_cells)
    assert n_test > 0
    for name in ("p_irm", "p_analogy", "p_hybrid"):
        p = namespace[name]
        assert p.shape == (n_test,) and np.all((p > 0) & (p < 1))
    assert 1e-4 <= namespace["tau_star"] <= 1e4


def readme_commands() -> list[list[str]]:
    """Every ``relgen`` command of the README's bash blocks, as argv lists,
    with ``\\`` continuations joined and comments dropped."""
    commands = []
    for block in re.findall(r"```bash\n(.*?)```", README.read_text(), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["relgen"]:
                commands.append(argv[1:])
    return commands


def test_readme_cli_walkthrough_parses_and_runs(tmp_path, monkeypatch):
    commands = readme_commands()
    assert [argv[0] for argv in commands] == [
        "generate", "simulate", "infer", "experiment", "summarize"
    ]
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)  # a flag the parser lacks exits with code 2
    # steps 1-3 in a scratch directory; step 4's grid takes minutes
    monkeypatch.chdir(tmp_path)
    for argv in commands[:3]:
        assert main(argv) == 0, argv
    assert Path("predictions.csv").read_text().startswith("row,col,truth,prob\n")
    assert Path("predictions.csv.report.csv").exists()
