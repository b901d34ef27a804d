"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

import itertools
import os

import run

run.preflight()

from contacttrack import scenes  # noqa: E402
from contacttrack.config import PipelineConfig  # noqa: E402
from contacttrack.pipeline import run_pipeline  # noqa: E402
from tracer import PER_LAYER, Tracer, tail_percentile  # noqa: E402
from workloads import (  # noqa: E402
    RUN_OUTPUTS, WORKLOADS, Workload, build_dataset, crowd_scene, fingerprint, window,
)

TINY = Workload(
    "tiny-induction", "three frames of induction-lite-noisy",
    lambda seed: window(scenes.induction_lite_noisy(), 75, 3), "run",
)


def test_crowd_generator_is_deterministic(tmp_path):
    assert crowd_scene(7) == crowd_scene(7)
    assert crowd_scene(7) != crowd_scene(8)
    tiny = Workload("tiny-crowd", "", lambda seed: crowd_scene(seed, frames=2), "run")
    a = fingerprint(build_dataset(tiny, 7, str(tmp_path / "a")))
    b = fingerprint(build_dataset(tiny, 7, str(tmp_path / "b")))
    assert a == b and len(a) == 4


def test_self_time_of_nested_calls():
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))

    inner = tracer.wrap(lambda: None, "inner")

    def body():
        inner()  # ticks 1 -> 2
        inner()  # ticks 3 -> 4

    outer = tracer.wrap(body, "outer")
    outer()  # ticks 0 -> 5
    assert tracer.total("outer") == 5.0
    assert tracer.total("inner") == 2.0
    assert tracer.self_total("outer") == 3.0
    assert tracer.self_total("inner") == 2.0
    assert tracer.parents == [None, 0, 0]


def test_tail_percentile_keeps_ten_samples_beyond():
    values = list(range(1, 41))
    value, pct = tail_percentile(values)
    assert value == 30 and pct == 75.0
    assert sum(v > value for v in values) == 10
    assert tail_percentile(range(10)) is None


def test_counts_repeat_across_traced_runs(tmp_path):
    first, tally_a = run.traced_workload(TINY, 3, str(tmp_path / "a"))
    second, tally_b = run.traced_workload(TINY, 3, str(tmp_path / "b"))
    assert tally_a.failed == tally_b.failed == 0
    assert set(first) == set(PER_LAYER)
    assert first["person_tracker.step.calls"] == 3
    assert first["io.read_detections.records"] > 0
    counts = [name for name, (unit, _) in PER_LAYER.items() if unit == "count"]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def test_truncated_output_is_counted_not_raised(tmp_path):
    data = build_dataset(TINY, 3, str(tmp_path / "data"))
    good, bad = str(tmp_path / "good"), str(tmp_path / "bad")
    for out in (good, bad):
        run_pipeline(os.path.join(data, "calibration.json"), data, out, PipelineConfig())
    path = os.path.join(bad, "tracks.jsonl")
    with open(path) as f:
        text = f.read()
    with open(path, "w") as f:
        f.write(text[: len(text) // 2])

    tally = run.Tally()
    check = run.OutputCheck(tally, RUN_OUTPUTS, lambda out: run.score_run(out, data))
    assert check.check(0, good, "good")
    assert not check.check(0, bad, "truncated")
    assert not check.check(3, good, "exit 3")
    assert (tally.attempted, tally.failed) == (3, 2)
    assert check.quality["idf1"] > 0


def test_child_runs_pinned_beside_the_probe(tmp_path):
    host = run.HostSpeed()
    affinity = os.sched_getaffinity(0)
    prog = "import os; [sum(range(10**6)) for _ in range(20)]; print(sorted(os.sched_getaffinity(0)))"
    child = run.run_child(["-c", prog], str(tmp_path / "child.log"), host=host)
    assert child.code == 0
    assert child.stdout.split() == [f"[{host.cpu}]"]
    assert os.sched_getaffinity(0) == affinity
    assert host.batches and child.speed > 0
    assert child.ref_s == child.cpu * child.speed


def test_benchmark_json_lists_the_reported_metrics():
    import json

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        doc = json.load(f)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
