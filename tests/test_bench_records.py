"""The BENCH_*.json records from BENCH_25 on, read by one reader.

Each record compares alternating runs of the parent and of the change on the
workloads of BENCHMARK.json.  Per workload and end-to-end metric it keeps both
lists of runs and the figures drawn from them, rounded to 4 decimals; the
checks here recompute those figures from the lists.
"""

import json
import re
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
BETTER = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
HEADER = {"pr": int, "change": str, "parent_sha": str, "python": str, "machine": str,
          "command": str, "quartiles": str, "claim": str, "notes": list, "end_to_end": dict}
FIGURES = {"parent", "change", "parent_median", "change_median", "change_vs_parent_pct",
           "parent_iqr_pct", "pairs_change_better"}
RECORDS = sorted((p for p in ROOT.glob("BENCH_*.json") if int(p.stem[6:]) >= 25),
                 key=lambda p: int(p.stem[6:]))


def read_record(path):
    """The metric blocks of one record, as (section, workload, metric, block),
    after checking the shared layout.  A section other than end_to_end (such
    as BENCH_26's finite_recheck) is one more block of a single workload."""
    record = json.loads(path.read_text())
    for key, kind in HEADER.items():
        assert isinstance(record[key], kind), (path.name, key)
    assert record["pr"] == int(path.stem[6:])
    assert re.fullmatch(r"[0-9a-f]{40}", record["parent_sha"])
    assert all(isinstance(note, str) for note in record["notes"])
    assert set(record["end_to_end"]) == WORKLOADS
    sections = [("end_to_end", w, block) for w, block in record["end_to_end"].items()]
    sections += [(key, key, record[key]) for key in record.keys() - HEADER.keys()]
    blocks = []
    for section, workload, metrics in sections:
        assert metrics.pop("correct_all_runs") is True, (path.name, workload)
        assert set(metrics) == set(BETTER), (path.name, workload)
        for name, block in metrics.items():
            assert set(block) == FIGURES, (path.name, workload, name)
            blocks.append((section, workload, name, block))
    return blocks


def test_the_records_from_bench_25_on_are_all_there():
    assert [int(p.stem[6:]) for p in RECORDS][:6] == list(range(25, 31))


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.stem)
def test_each_figure_is_drawn_from_its_runs(path):
    for section, workload, name, block in read_record(path):
        where = (path.name, section, workload, name)
        parent, change = block["parent"], block["change"]
        assert len(parent) == len(change) >= 3, where
        p50, c50 = statistics.median(parent), statistics.median(change)
        assert abs(block["parent_median"] - p50) <= 1e-4, where
        assert abs(block["change_median"] - c50) <= 1e-4, where
        # The percentages come from unrounded runs, so they may differ by a
        # little more than the rounding of the lists.
        assert abs(block["change_vs_parent_pct"] - 100 * (c50 / p50 - 1)) <= 0.25, where
        q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
        assert abs(block["parent_iqr_pct"] - 100 * (q3 - q1) / p50) <= 0.25, where
        sign = 1 if BETTER[name] == "higher" else -1
        won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        assert block["pairs_change_better"] == f"{won}/{len(parent)}", where
