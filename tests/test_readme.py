"""The README's library quick start runs as written."""

import re
from pathlib import Path

_README = Path(__file__).resolve().parent.parent / "README.md"


def _python_block(heading: str) -> str:
    """The first fenced Python block under the ``## heading`` section."""
    section = _README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_quick_start_runs():
    namespace = {}
    exec(compile(_python_block("Library quick start"), str(_README), "exec"), namespace)
    # the block ran to its end: a solve, an estimate and a sampler solve
    assert namespace["report"].placement and namespace["samples"] == namespace["plan"].samples
    assert namespace["saa"].w_estimate is not None
