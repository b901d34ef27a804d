"""contacttrack benchmark: one workload per invocation, or all of them.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

With --trace 0 each timed run is a real `contacttrack` CLI command in a
child process, one at a time, repeated for --seconds, beside a probe of
the host's speed (HostSpeed); the outputs are checked and scored untimed
afterwards. With --trace 1 the same commands run in this process, once
untraced and once under the span tracer, and the per-layer metrics are
reported. The last line of standard output is
one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

SETUP_REPS = 3
IMPORT_REPS = 3
MIN_REPS = 2  # timed repetitions per run, so outputs can be compared
SIMULATE_SHARE = 0.6  # of --seconds spent timing simulate in simulate-score
CHILD_TIMEOUT = 150.0
SWEEP_GRID = "0.02:0.40:0.02"
REF_ROUNDS = 5  # rounds of work in one reference batch
REF_S = 0.005  # CPU seconds of one reference batch at the reference host speed
PROBE_NICE = 10  # the probe takes about a tenth of the CPU it shares with a child

# End-to-end metrics in the final JSON line: name -> unit.
END_TO_END = {
    "fps": "frames/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "idf1": "ratio",
}


class MissingSource(Exception):
    pass


def preflight():
    if not os.path.isfile(os.path.join(SRC, "contacttrack", "cli.py")):
        raise MissingSource(f"no contacttrack sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


# -- child processes ------------------------------------------------------

def reference_batch():
    """A fixed batch of work that mixes interpreted Python with small numpy
    calls, as the pipeline does."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.normal(size=(64, 3, 3)) + 3 * np.eye(3)
    b = rng.normal(size=(64, 3))
    acc = 0.0
    for _ in range(REF_ROUNDS):
        for k in range(64):
            x = np.linalg.solve(a[k], b[k])
            acc += float(x @ x)
        acc += sum(i * i % 13 for i in range(3000))
    return acc


class HostSpeed:
    """Runs a probe beside each timed child to measure how fast the host is.

    A shared host runs this process up to twice as fast at one time as at
    another, in phases from seconds to minutes long, so raw times of the
    same code spread by more than a regression bound. While a child runs,
    it and a low-priority probe thread that repeats reference_batch are
    pinned to one CPU. The scheduler interleaves them in slices of a few
    milliseconds, so both run at the same host speed. The child's CPU time
    divided by the probe's mean CPU time per batch, times REF_S, is the
    child's time at the reference speed. The probe is the benchmark's own
    code, so a change to contacttrack moves the scaled time exactly as
    much as the CPU time.
    """

    def __init__(self):
        self.cpu = max(os.sched_getaffinity(0))
        self.batches = []
        self._stop = threading.Event()

    def _probe(self):
        os.sched_setaffinity(0, {self.cpu})
        os.setpriority(os.PRIO_PROCESS, threading.get_native_id(), PROBE_NICE)
        while not self._stop.is_set() or not self.batches:
            t0 = time.thread_time()
            reference_batch()
            self.batches.append(time.thread_time() - t0)

    @contextlib.contextmanager
    def probing(self):
        """Pins this thread, so the children it starts, and the probe to one CPU."""
        self.batches = []
        self._stop.clear()
        affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {self.cpu})
        probe = threading.Thread(target=self._probe, daemon=True)
        probe.start()
        try:
            yield
        finally:
            self._stop.set()
            probe.join()
            os.sched_setaffinity(0, affinity)

    def speed(self):
        """The host's speed relative to the reference over the last probing."""
        return REF_S * len(self.batches) / sum(self.batches)


@dataclass
class Child:
    code: int
    wall: float
    cpu: float  # user + system CPU seconds
    rss_mb: float
    stdout: str
    speed: float = 0.0  # host speed beside the child, when probed

    @property
    def ref_s(self):
        """CPU seconds at the reference host speed."""
        return self.cpu * self.speed


def run_child(args, log_path, timeout=CHILD_TIMEOUT, host=None):
    """Run `python -m contacttrack.cli <args>` (or `python <args>` when
    args starts with "-c"); wall and CPU time, peak RSS and exit code.
    With a HostSpeed, the child runs beside its probe."""
    argv = [sys.executable] + (list(args) if args[0] == "-c" else ["-m", "contacttrack.cli", *args])
    env = dict(os.environ, PYTHONPATH=SRC)
    with open(log_path, "wb") as log, host.probing() if host else contextlib.nullcontext():
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: stop the child before leaving
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(log_path, errors="replace") as f:
        out = f.read()
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0, out, host.speed() if host else 0.0)


# -- result bookkeeping ----------------------------------------------------

@dataclass
class Tally:
    """Invocations attempted and failed; failures are counted, not raised."""

    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def record(self, ok, what=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)
        return ok


def digest(directory, names):
    from workloads import sha256_file

    out = []
    for name in names:
        path = os.path.join(directory, name)
        out.append(sha256_file(path) if os.path.exists(path) else None)
    return tuple(out)


class OutputCheck:
    """Checks each invocation's outputs against the first good one.

    An invocation fails on a non-zero exit, a missing or unparseable
    output, or output bytes that differ from another invocation of the
    same seed and commit. Scoring runs once per distinct output digest.
    """

    def __init__(self, tally, names, score):
        self.tally = tally
        self.names = names
        self.score = score  # out_dir -> dict of quality values; raises on bad output
        self.reference = None
        self.scores = {}

    def check(self, code, out_dir, what):
        if code != 0:
            return self.tally.record(False, f"{what}: exit {code}")
        key = digest(out_dir, self.names)
        if None in key:
            return self.tally.record(False, f"{what}: missing output")
        if key not in self.scores:
            try:
                self.scores[key] = self.score(out_dir)
            except Exception as e:  # any output the scorer cannot read is a failure
                self.scores[key] = None
                self.tally.notes.append(f"{what}: {type(e).__name__}: {e}")
        if self.scores[key] is None:
            return self.tally.record(False, f"{what}: unreadable output")
        if self.reference is None:
            self.reference = key
        if key != self.reference:
            return self.tally.record(False, f"{what}: output differs between runs")
        return self.tally.record(True)

    @property
    def quality(self):
        return self.scores.get(self.reference) or {}


def score_run(out_dir, data_dir):
    """Quality of one run output against the dataset's ground truth."""
    from contacttrack.evaluation import contact_metrics, match_tracks, mot_metrics
    from contacttrack.io import read_episodes
    from contacttrack.pipeline import load_ground_truth, load_track_stream

    with open(os.path.join(out_dir, "run_meta.json")) as f:
        frames = int(json.load(f)["frames"])
    pred = load_track_stream(os.path.join(out_dir, "tracks.jsonl"))
    gt = load_ground_truth(data_dir)
    idf1, switches, id_map = mot_metrics(match_tracks(pred, gt.tracks), pred, gt.tracks)
    out = {"frames": frames, "idf1": idf1, "id_switches": switches}
    if gt.episodes:
        cm = contact_metrics(read_episodes(os.path.join(out_dir, "episodes.csv")), gt, id_map)
        out.update(
            episode_recall=cm["episode_recall"],
            binary_contact_f1=cm["binary_f1"],
            semantic_contact_f1=cm["semantic_f1"],
        )
    return out


SCORE_OUTPUTS = ("report.json", "sweep.csv")


def score_commands(pred, data, out):
    """The evaluate and sweep commands scoring run output `pred`."""
    return [
        ["evaluate", "--pred", pred, "--gt", data, "--out", out],
        ["sweep", "--in", pred, "--gt", data, "--grid", SWEEP_GRID,
         "--out", os.path.join(out, "sweep.csv")],
    ]


def score_report(out):
    with open(os.path.join(out, "report.json")) as f:
        rep = json.load(f)
    with open(os.path.join(out, "sweep.csv")) as f:
        rows = f.read().splitlines()
    if len(rows) < 2:
        raise ValueError("empty sweep")
    return {
        "idf1": rep["idf1"],
        "id_switches": rep["id_switches"],
        "episode_recall": rep["episode_recall"],
        "binary_contact_f1": rep["binary_f1"],
        "semantic_contact_f1": rep["semantic_f1"],
    }


def score_dataset(data_dir):
    from contacttrack.pipeline import load_ground_truth

    load_ground_truth(data_dir)
    return {}


# -- timed runs (--trace 0) ------------------------------------------------

def spread(values):
    """Interquartile range as a share of the median (0 for one sample)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def run_args(data_dir, out_dir, flags=()):
    return ["run", "--calib", os.path.join(data_dir, "calibration.json"),
            "--in", data_dir, "--out", out_dir, *flags]


# The run output that simulate-score evaluates is prepared untimed.
PREPARE_FLAGS = ("--static-map",)


def setup_times(workload, seed, scratch, tally, host):
    """Children that ran the workload's command, each a fresh process, on a
    one-frame copy of its input."""
    from workloads import one_frame_copy, window, write_scene

    children = []
    if workload.command == "run":
        data = os.path.join(scratch, "data")
        tiny = one_frame_copy(data, os.path.join(scratch, "setup_data"))
    else:
        scene_path = os.path.join(scratch, "setup_scene.json")
        write_scene(window(workload.scene(seed), 0, 1), scene_path)
    for i in range(SETUP_REPS):
        out = os.path.join(scratch, f"setup_out{i}")
        if workload.command == "run":
            args = run_args(tiny, out, workload.run_flags)
        else:
            args = ["simulate", "--scene", scene_path, "--out", out, "--seed", str(seed)]
        child = run_child(args, os.path.join(scratch, "setup.log"), host=host)
        if tally.record(child.code == 0, f"setup {i}: exit {child.code}"):
            children.append(child)
        shutil.rmtree(out, ignore_errors=True)
    return children


def timed_loop(seconds, body):
    """Call body(i) until `seconds` have passed and MIN_REPS calls are done."""
    t0 = time.perf_counter()
    i = 0
    while i < MIN_REPS or time.perf_counter() - t0 < seconds:
        body(i)
        i += 1


def new_samples(fps_name, setup):
    samples = {fps_name: [], "cpu_" + fps_name: [], "peak_rss_mb": [], "host_speed": [],
               "setup_s": [c.ref_s for c in setup], "cpu_setup_s": [c.cpu for c in setup]}
    samples["host_speed"] += [c.speed for c in setup]
    return samples


def add_fps(samples, fps_name, frames, child):
    samples[fps_name].append(frames / child.ref_s)
    samples["cpu_" + fps_name].append(frames / child.cpu)
    samples["peak_rss_mb"].append(child.rss_mb)
    samples["host_speed"].append(child.speed)


def measure_run(workload, seed, seconds, scratch, tally, host):
    from workloads import RUN_OUTPUTS

    data = os.path.join(scratch, "data")
    samples = new_samples("run_fps", setup_times(workload, seed, scratch, tally, host))
    checker = OutputCheck(tally, RUN_OUTPUTS, lambda out: score_run(out, data))

    def rep(i):
        out = os.path.join(scratch, f"out{i}")
        child = run_child(run_args(data, out, workload.run_flags),
                          os.path.join(scratch, "run.log"), host=host)
        if checker.check(child.code, out, f"run {i}"):
            add_fps(samples, "run_fps", checker.quality["frames"], child)
        if i > 0:
            shutil.rmtree(out, ignore_errors=True)

    timed_loop(seconds, rep)
    return samples, checker.quality


def measure_simulate_score(workload, seed, seconds, scratch, tally, host):
    from workloads import DATASET_FILES, write_scene

    scene = workload.scene(seed)
    scene_path = os.path.join(scratch, "scene.json")
    write_scene(scene, scene_path)
    samples = new_samples("simulate_fps", setup_times(workload, seed, scratch, tally, host))
    samples["score_s"] = []
    data = os.path.join(scratch, "data")
    sims = OutputCheck(tally, DATASET_FILES, score_dataset)

    def simulate(i):
        out = data if i == 0 else os.path.join(scratch, f"sim{i}")
        child = run_child(["simulate", "--scene", scene_path, "--out", out, "--seed", str(seed)],
                          os.path.join(scratch, "simulate.log"), host=host)
        if sims.check(child.code, out, f"simulate {i}"):
            add_fps(samples, "simulate_fps", scene["frame_count"], child)
        if i > 0:
            shutil.rmtree(out, ignore_errors=True)

    timed_loop(SIMULATE_SHARE * seconds, simulate)

    pred = os.path.join(scratch, "pred")
    child = run_child(run_args(data, pred, PREPARE_FLAGS), os.path.join(scratch, "prepare.log"))
    tally.record(child.code == 0, f"prepare run: exit {child.code}")
    scores = OutputCheck(tally, SCORE_OUTPUTS, score_report)

    def score(i):
        out = os.path.join(scratch, f"eval{i}")
        os.makedirs(out, exist_ok=True)
        evaluate, sweep = (run_child(args, os.path.join(scratch, f"{args[0]}.log"), host=host)
                           for args in score_commands(pred, data, out))
        tally.record(evaluate.code == 0, f"evaluate {i}: exit {evaluate.code}")
        if scores.check(sweep.code, out, f"score {i}"):
            samples["score_s"].append(evaluate.ref_s + sweep.ref_s)

    timed_loop((1 - SIMULATE_SHARE) * seconds, score)
    return samples, scores.quality, data


def timed_workload(workload, seed, seconds, scratch):
    """(samples, quality, tally, dataset dir) of the timed runs."""
    from workloads import build_dataset

    tally = Tally()
    host = HostSpeed()
    if workload.command == "run":
        data = build_dataset(workload, seed, os.path.join(scratch, "data"))
        samples, quality = measure_run(workload, seed, seconds, scratch, tally, host)
    else:
        samples, quality, data = measure_simulate_score(
            workload, seed, seconds, scratch, tally, host)
    return samples, quality, tally, data


# -- traced run (--trace 1) ------------------------------------------------

def cli_in_process(args):
    """Exit code and wall time of contacttrack's CLI entry point, run here."""
    from contacttrack import cli

    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(list(args))
    except Exception as e:  # a traceback from the CLI is a failed invocation
        print(f"# {args[0]} raised {type(e).__name__}: {e}", file=sys.stderr)
        code = 1
    return code, time.perf_counter() - t0


def import_times(scratch, tally):
    prog = ("import time; t = time.perf_counter(); import contacttrack.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for i in range(IMPORT_REPS):
        child = run_child(["-c", prog], os.path.join(scratch, "import.log"))
        if tally.record(child.code == 0, f"import {i}: exit {child.code}"):
            times.append(float(child.stdout.split()[-1]))
    return times


def traced_workload(workload, seed, scratch):
    """Run the workload's commands untraced, then traced; (metrics, tally)."""
    from tracer import Tracer, instrument, layer_metrics, patched
    from workloads import DATASET_FILES, RUN_OUTPUTS, build_dataset, write_scene

    tally = Tally()
    tracer = Tracer()

    def twice(stage, commands, names, score):
        """commands(out_dir) untraced, then traced; the outputs must match.

        Returns (untraced wall, traced wall, untraced output dir)."""
        walls, dirs = [], []
        for phase in ("untraced", "traced"):
            out = os.path.join(scratch, f"{stage}-{phase}")
            os.makedirs(out, exist_ok=True)
            ctx = patched(instrument(tracer)) if phase == "traced" else contextlib.nullcontext()
            wall = 0.0
            with ctx:
                for args in commands(out):
                    code, w = cli_in_process(args)
                    wall += w
                    tally.record(code == 0, f"{phase} {args[0]}: exit {code}")
            walls.append(wall)
            dirs.append(out)
        untraced, traced = (digest(d, names) for d in dirs)
        try:
            if None in untraced or untraced != traced:
                raise ValueError("traced outputs differ from untraced ones")
            score(dirs[1])
        except Exception as e:  # counted as a failed invocation, not raised
            tally.record(False, f"{stage}: {type(e).__name__}: {e}")
        return walls[0], walls[1], dirs[0]

    if workload.command == "run":
        data = build_dataset(workload, seed, os.path.join(scratch, "data"))
        untraced, traced, _ = twice(
            "run", lambda out: [run_args(data, out, workload.run_flags)], RUN_OUTPUTS,
            lambda out: score_run(out, data))
    else:
        scene_path = os.path.join(scratch, "scene.json")
        write_scene(workload.scene(seed), scene_path)
        sim_u, sim_t, data = twice(
            "simulate",
            lambda out: [["simulate", "--scene", scene_path, "--out", out, "--seed", str(seed)]],
            DATASET_FILES, score_dataset)
        pred = os.path.join(scratch, "pred")
        code, _ = cli_in_process(run_args(data, pred, PREPARE_FLAGS))
        tally.record(code == 0, f"prepare run: exit {code}")
        score_u, score_t, _ = twice(
            "score", lambda out: score_commands(pred, data, out),
            SCORE_OUTPUTS, score_report)
        untraced, traced = sim_u + score_u, sim_t + score_t

    metrics = layer_metrics(tracer)
    imports = import_times(scratch, tally)
    metrics["cli.import_s"] = statistics.median(imports) if imports else 0.0
    metrics["pipeline.trace_overhead"] = traced / untraced - 1.0
    return metrics, tally


# -- reporting ---------------------------------------------------------------

def environment():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "loadavg": " ".join(f"{v:.2f}" for v in os.getloadavg()),
    }


def print_header(workload, args, env):
    print(f"# workload {workload.name} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("# environment " + " ".join(f"{k}={v!r}" if k == "cpu" else f"{k}={v}"
                                      for k, v in env.items()))


def print_table(rows):
    print(f"{'metric':<44} {'unit':<9} {'median':>12} {'spread':>8} {'n':>4}")
    for name, unit, values in rows:
        print(f"{name:<44} {unit:<9} {statistics.median(values):>12.6g} "
              f"{spread(values):>8.3f} {len(values):>4}")
    for name, _, values in rows:
        if len(values) > 1:
            print(f"# samples {name} " + " ".join(f"{v:.6g}" for v in values))


def report_timed(workload, args, scratch):
    from workloads import fingerprint

    samples, quality, tally, data = timed_workload(workload, args.seed, args.seconds, scratch)
    for name, sha in fingerprint(data).items():
        print(f"# input sha256 {name} {sha}")
    failed_frac = tally.failed / max(tally.attempted, 1)
    fps_name = "run_fps" if workload.command == "run" else "simulate_fps"
    rows = [(fps_name, "frames/s", samples[fps_name]),
            ("setup_s", "s", samples["setup_s"]),
            ("peak_rss_mb", "MiB", samples["peak_rss_mb"]),
            ("cpu_" + fps_name, "frames/s", samples["cpu_" + fps_name]),
            ("cpu_setup_s", "s", samples["cpu_setup_s"]),
            ("host_speed", "ratio", samples["host_speed"])]
    if "score_s" in samples:
        rows.append(("score_s", "s", samples["score_s"]))
    rows.append(("failed_frac", "ratio", [failed_frac]))
    units = {"id_switches": "count"}
    for name in ("idf1", "id_switches", "episode_recall", "binary_contact_f1",
                 "semantic_contact_f1"):
        if name in quality:
            rows.append((name, units.get(name, "ratio"), [quality[name]]))
    rows = [r for r in rows if r[2]]
    print_table(rows)
    for note in tally.notes:
        print(f"# failure {note}")

    by_name = {name: values for name, _, values in rows}
    by_name["fps"] = by_name.get(fps_name, [])
    metrics = {
        name: {"value": statistics.median(by_name[name]), "unit": unit}
        for name, unit in END_TO_END.items() if by_name.get(name)
    }
    correct = tally.failed == 0 and len(metrics) == len(END_TO_END)
    return correct, tally, metrics


def report_traced(workload, args, scratch):
    from tracer import PER_LAYER

    values, tally = traced_workload(workload, args.seed, scratch)
    print(f"{'metric':<44} {'unit':<9} {'value':>14}")
    for name, (unit, _) in PER_LAYER.items():
        print(f"{name:<44} {unit:<9} {values[name]:>14.6g}")
    print(f"# pipeline.frame_ms.p_tail is p{values['pipeline.frame_ms.tail_pct']:.0f} "
          f"of {values['pipeline.frame_ms.intervals']} frame intervals")
    for note in tally.notes:
        print(f"# failure {note}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, (unit, _) in PER_LAYER.items()}
    return tally.failed == 0, tally, metrics


def bench(workload, args):
    os.makedirs(WORK, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK)
    try:
        env = environment()
        print_header(workload, args, env)
        report = report_traced if args.trace else report_timed
        correct, tally, metrics = report(workload, args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}), flush=True)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        preflight()
    except MissingSource as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        bench(WORKLOADS[name], args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
