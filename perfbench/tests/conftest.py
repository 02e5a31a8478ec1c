import os
import sys

import pytest

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO = os.path.dirname(PERFBENCH)
for path in (os.path.join(REPO, "src"), PERFBENCH):
    if path not in sys.path:
        sys.path.insert(0, path)


@pytest.fixture
def bench_root(tmp_path):
    """A checkout-like root: the declared metrics, the sources, a fresh work dir."""
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as src:
        (tmp_path / "BENCHMARK.json").write_text(src.read(), encoding="utf-8")
    os.symlink(os.path.join(REPO, "src"), tmp_path / "src")
    return str(tmp_path)
