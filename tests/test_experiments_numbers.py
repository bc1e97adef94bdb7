"""Every number EXPERIMENTS.md quotes for the simulated service benches and
the LAN/WAN ablation is one its result file holds, as printed, and its
Fig. 6a / 6c tables are their result files' rows."""

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


def _result(name: str) -> str:
    return (ROOT / "benchmarks" / "results" / name).read_text(encoding="utf-8")


def _table_rows(lines) -> list:
    """The numbers of each table line that holds any."""
    return [row for row in (NUMBER.findall(line) for line in lines) if row]


def _measured_table(heading: str) -> list:
    """The rows of the first code block after ``heading`` in EXPERIMENTS.md."""
    lines = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8").splitlines()
    start = lines.index(next(line for line in lines if line.startswith(heading)))
    fences = [i for i in range(start, len(lines)) if lines[i].startswith("```")]
    return _table_rows(lines[fences[0] + 1 : fences[1]])


@pytest.mark.parametrize(
    "bench, result",
    [
        ("bench_search_latency.py", "test_search_latency.txt"),
        ("bench_service_load.py", "test_service_load.txt"),
        ("bench_ablation_wan.py", "test_ablation_lan_vs_wan.txt"),
    ],
)
def test_every_quoted_number_is_in_the_result_file(bench, result):
    quoted = NUMBER.findall(_bullet(bench))
    recorded = set(NUMBER.findall(_result(result)))
    assert len(quoted) >= 5
    assert [n for n in quoted if n not in recorded] == []


@pytest.mark.parametrize(
    "heading, result",
    [
        ("## Fig. 6a", "test_fig6a_execution_time_vs_parties.txt"),
        ("## Fig. 6c", "test_fig6c_execution_time_vs_identities.txt"),
    ],
)
def test_measured_table_is_the_result_file(heading, result):
    lines = _result(result).splitlines()
    rule = next(i for i, line in enumerate(lines) if line.startswith("---"))
    assert _measured_table(heading) == _table_rows(lines[rule + 1 :])
