"""The library examples of README.md run as written against the package."""

import re
import warnings
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run_in_order():
    # one namespace: a later block may read the names an earlier one bound
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert blocks
    namespace = {}
    with warnings.catch_warnings():
        # the bundled spectrum scenario's sigma exceeds the advisory bound
        warnings.simplefilter("ignore")
        for k, block in enumerate(blocks):
            exec(compile(block, f"README.md python block {k}", "exec"), namespace)
