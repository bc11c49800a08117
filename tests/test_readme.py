"""The README's code runs as written."""

import re
import warnings
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs_without_warnings(capsys):
    """The quick start executes with every warning an error: among others,
    its theta is the configuration's own, so no ThetaMismatchWarning fires."""
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        flags=re.DOTALL | re.MULTILINE)
    assert blocks, "README has no python block"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        namespace = {}
        exec(compile(blocks[0], str(README), "exec"), namespace)
    assert namespace["report"].refined_clipped is not None
    assert str(namespace["report"].decision) in capsys.readouterr().out
