"""bench/write_bench.py reads perfbench's output; checked on captured runs."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).resolve().parent / "fixtures"


def load_write_bench():
    spec = importlib.util.spec_from_file_location("write_bench", ROOT / "bench" / "write_bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_parses_captured_perfbench_output():
    # perfbench_trace0.txt: `perfbench/run.py --workload all --seed 0
    # --seconds 1 --trace 0`; perfbench_trace1.txt: `--workload crowd-8
    # --seed 0 --trace 1`. Nothing is run here.
    wb = load_write_bench()
    timed = wb.parse_perfbench((FIXTURES / "perfbench_trace0.txt").read_text())
    assert list(timed) == ["induction-static", "induction-noisy-perframe", "crowd-8",
                           "simulate-score"]
    static = timed["induction-static"]
    assert static["header"] == {"seed": 0, "seconds": 1.0, "trace": 0}
    assert static["environment"]["cpu"] == "Intel(R) Xeon(R) Processor"
    assert static["environment"]["nproc"] == "2"
    assert static["environment"]["loadavg"] == "0.84 0.74 0.63"
    assert static["input_sha256"]["detections.jsonl"].startswith("b1809cb5")
    assert len(static["input_sha256"]) == 4
    assert static["table"]["run_fps"] == {"unit": "frames/s", "median": 53.0899,
                                          "spread": 0.011, "n": 2}
    assert static["samples"]["run_fps"] == [52.9037, 53.276]
    assert static["failures"] == []
    result = static["result"]
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["fps"]["value"] == 53.089851349716895
    for block in timed.values():
        assert set(block["result"]["metrics"]) == {"fps", "setup_s", "peak_rss_mb", "idf1"}
    assert "simulate_fps" in timed["simulate-score"]["table"]

    traced = wb.parse_perfbench((FIXTURES / "perfbench_trace1.txt").read_text())
    crowd = traced["crowd-8"]
    assert crowd["header"]["trace"] == 1
    assert crowd["table"]["geometry.hungarian_assign.calls"] == {"unit": "count", "value": 92}
    assert set(crowd["table"]) == set(crowd["result"]["metrics"])
    assert set(wb.UNRELIABLE) <= set(crowd["table"]) | {"peak_rss_mb"}

    counts, wall = wb.parse_pytest_summary("....\n3 failed, 525 passed in 136.32s (0:02:16)\n")
    assert counts == {"failed": 3, "passed": 525} and wall == 136.32
