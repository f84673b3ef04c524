"""The README's library quickstart runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quickstart_source():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_quickstart_runs():
    namespace = {}
    exec(compile(quickstart_source(), str(README), "exec"), namespace)
    ci = namespace["ci"]
    assert ci.lower < namespace["fit"].mu[0] < ci.upper
    assert namespace["res"].distribution.size == 2 ** 8
