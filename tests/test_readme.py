"""The README's library quickstart runs as written."""

import re
from pathlib import Path

import numpy as np

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
