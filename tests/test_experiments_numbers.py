"""Every number EXPERIMENTS.md quotes for the simulated service benches is
one its result file holds, as printed."""

import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
NUMBER = re.compile(r"\d+(?:\.\d+)?(?:e[+-]\d+)?")


def _bullet(bench: str) -> str:
    """The EXPERIMENTS.md bullet that names ``bench``."""
    lines = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if f"(`{bench}`)" in line)
    end = start + 1
    while end < len(lines) and lines[end].strip() and not lines[end].startswith("* "):
        end += 1
    return "\n".join(lines[start:end])


@pytest.mark.parametrize(
    "bench, result",
    [
        ("bench_search_latency.py", "test_search_latency.txt"),
        ("bench_service_load.py", "test_service_load.txt"),
    ],
)
def test_every_quoted_number_is_in_the_result_file(bench, result):
    quoted = NUMBER.findall(_bullet(bench))
    recorded = set(
        NUMBER.findall((ROOT / "benchmarks" / "results" / result).read_text(encoding="utf-8"))
    )
    assert len(quoted) >= 5
    assert [n for n in quoted if n not in recorded] == []
