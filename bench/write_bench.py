"""Write BENCH_<PR>.json: the benchmark of a parent and a change checkout.

    python3 bench/write_bench.py --pr N --parent DIR --change DIR

Each of PAIRS pairs per seed in SEEDS runs, in both checkouts and one
after the other,

    python3 perfbench/run.py --workload all --seed S --seconds 10 --trace 0

and the side that runs first alternates from pair to pair. Then each
checkout runs `--trace 1` for every workload at the first seed, in
TRACES rounds that also alternate, and the change checkout runs the
tier-1 suite once. BENCH_N.json is written in the change checkout. It
holds every run's end-to-end metrics and samples, the per-layer
tables and their medians over the rounds, the environment and
input-sha256 lines, the tier-1 pass count and wall time, the line counts
of src/contacttrack/*.py, and a per-seed summary of the pairs. Metrics
the benchmark is known to get wrong are listed under "unreliable".
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import shlex
import statistics
import subprocess
import sys
import time

PERFBENCH = ["python3", "perfbench/run.py"]
PAIRS = 10
SEEDS = (0, 1)
TRACES = 5  # traced rounds per checkout
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]

# Metrics perfbench reports that do not measure what their names say.
UNRELIABLE = {
    "contact.episodes": "sums the episodes of every ContactTracker.finalize() in the process, "
                        "and threshold_sweep finalizes one tracker per tau_on",
    "pipeline.trace_overhead": "traced / untraced wall - 1 reads negative on some workloads, so "
                               "it does not measure the tracer's cost",
    "geometry.triangulate_weighted.failed": "counts raising calls, but the batch kernel returns "
                                            "NaN rows and never raises, so it is always 0",
    "geometry.triangulate_weighted.accept_ratio": "accepted joints per kernel call from "
                                                  "update_triangulated, not a ratio of attempts",
    "peak_rss_mb": "ru_maxrss of the child survives exec, so it is max(harness RSS, child RSS)",
}


# -- parsing perfbench's standard output -------------------------------------

def _number(text):
    try:
        return int(text)
    except ValueError:
        return float(text)


def parse_perfbench(text):
    """{workload: block} from the standard output of one perfbench run.

    A block starts at its `# workload <name> ...` header and ends at its
    JSON result line. It holds the header's fields, the environment, the
    input sha256 per file, the table (median, spread and count with
    --trace 0; a value with --trace 1), the samples, the failure notes
    and the parsed result.
    """
    out = {}
    block = None
    for line in text.splitlines():
        if line.startswith("# workload "):
            words = line.split()
            block = {"header": dict(zip(words[3::2], map(_number, words[4::2]))),
                     "environment": {}, "input_sha256": {}, "table": {}, "samples": {},
                     "failures": []}
            out[words[2]] = block
        elif block is None:
            continue
        elif line.startswith("# environment "):
            env = block["environment"]
            key = None
            for token in shlex.split(line[len("# environment "):]):
                if "=" in token:
                    key, _, value = token.partition("=")
                    env[key] = value
                elif key is not None:  # loadavg's three numbers are not quoted
                    env[key] += " " + token
        elif line.startswith("# input sha256 "):
            name, sha = line.split()[3:5]
            block["input_sha256"][name] = sha
        elif line.startswith("# samples "):
            words = line.split()
            block["samples"][words[2]] = [float(v) for v in words[3:]]
        elif line.startswith("# failure "):
            block["failures"].append(line[len("# failure "):])
        elif line.startswith("{"):
            block["result"] = json.loads(line)
            block = None
        elif line and not line.startswith(("#", "metric ")):
            name, unit, *values = line.split()
            keys = ("median", "spread", "n") if len(values) == 3 else ("value",)
            block["table"][name] = {"unit": unit, **dict(zip(keys, map(_number, values)))}
    return out


def parse_pytest_summary(text):
    """(counts by outcome, wall seconds) from pytest's last summary line."""
    for line in reversed(text.splitlines()):
        wall = re.search(r" in ([\d.]+)s", line)
        if wall:
            counts = {k: int(n) for n, k in re.findall(r"(\d+) (\w+)", line[:wall.start()])}
            return counts, float(wall.group(1))
    return {}, None


# -- running ---------------------------------------------------------------

def run_perfbench(checkout, args):
    """Standard output of perfbench run in checkout, and its wall time."""
    t0 = time.perf_counter()
    proc = subprocess.run(PERFBENCH + args, cwd=checkout, capture_output=True, text=True,
                          check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench {' '.join(args)} exited {proc.returncode} in {checkout}")
    return proc.stdout, time.perf_counter() - t0


def source_lines(checkout):
    """`wc -l src/contacttrack/*.py` as {file: lines, "total": lines}."""
    out = {}
    for path in sorted(glob.glob(os.path.join(checkout, "src", "contacttrack", "*.py"))):
        with open(path, "rb") as f:
            out[os.path.basename(path)] = f.read().count(b"\n")
    out["total"] = sum(out.values())
    return out


def tier1(checkout):
    t0 = time.perf_counter()
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    proc = subprocess.run(TIER1, cwd=checkout, env=env, capture_output=True, text=True,
                          check=False)
    counts, wall = parse_pytest_summary(proc.stdout)
    return {"command": "PYTHONPATH=src " + " ".join(["python"] + TIER1[1:]),
            "exit": proc.returncode, "counts": counts, "pytest_s": wall,
            "wall_s": time.perf_counter() - t0}


# -- summary ---------------------------------------------------------------

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarize(runs, end_to_end):
    """Per seed, workload and end-to-end metric: each side's median and
    quartiles over its runs, and the pairs the change won, ties counting
    for neither side."""
    out = {}
    for spec in end_to_end:
        name, sign = spec["name"], 1 if spec["better"] == "higher" else -1
        for seed in sorted({r["seed"] for r in runs}):
            pairs = {}
            for r in runs:
                if r["seed"] != seed:
                    continue
                for workload, block in r["workloads"].items():
                    value = block["result"]["metrics"].get(name, {}).get("value")
                    if value is not None:
                        pairs.setdefault(workload, {}).setdefault(r["pair"], {})[r["side"]] = value
            for workload, by_pair in pairs.items():
                both = [p for p in by_pair.values() if len(p) == 2]
                row = {"better": spec["better"], "bound": spec["bound"], "pairs": len(both),
                       "change_wins": sum(sign * (p["change"] - p["parent"]) > 0 for p in both),
                       "parent_wins": sum(sign * (p["change"] - p["parent"]) < 0 for p in both)}
                for side in ("parent", "change"):
                    q1, med, q3 = quartiles([p[side] for p in both])
                    row[side] = {"median": med, "q1": q1, "q3": q3,
                                 "runs": [p[side] for p in both]}
                parent, change = row["parent"]["median"], row["change"]["median"]
                row["change_vs_parent"] = (change - parent) / parent if parent else 0.0
                parent_iqr = row["parent"]["q3"] - row["parent"]["q1"]
                row["beyond_parent_iqr"] = abs(change - parent) > parent_iqr
                out.setdefault(str(seed), {}).setdefault(workload, {})[name] = row
    return out


def timed_runs(sides, seeds, pairs):
    """Every --trace 0 run of the pairs, the side that runs first
    alternating from pair to pair."""
    runs = []
    for seed in seeds:
        for pair in range(pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for position, side in enumerate(order):
                text, wall = run_perfbench(sides[side], ["--workload", "all", "--seed", str(seed),
                                                         "--seconds", "10", "--trace", "0"])
                runs.append({"seed": seed, "pair": pair, "side": side, "position": position,
                             "wall_s": wall, "workloads": parse_perfbench(text)})
                print(f"seed {seed} pair {pair} {side}: {wall:.0f} s", file=sys.stderr)
    return runs


def traced_runs(sides, workloads, seed, rounds):
    """{side: {workload: [block per round]}} of --trace 1 runs, and each
    per-layer metric's median over the rounds. A single traced run swings
    by tens of percent with the host's speed, so the rounds alternate the
    side that runs first, as the pairs do."""
    traced = {side: {w: [] for w in workloads} for side in sides}
    for r in range(rounds):
        for side in ("parent", "change") if r % 2 == 0 else ("change", "parent"):
            for w in workloads:
                text, _ = run_perfbench(sides[side], ["--workload", w, "--seed", str(seed),
                                                      "--trace", "1"])
                traced[side][w].append(parse_perfbench(text)[w])
    medians = {side: {w: {name: statistics.median(b["table"][name]["value"] for b in blocks)
                          for name in blocks[0]["table"]}
                      for w, blocks in by_workload.items()}
               for side, by_workload in traced.items()}
    return traced, medians


def write_json(path, bench):
    """bench as JSON, sorted and indented, except that each timed run
    takes one line and the traced blocks one line in all, so the file
    stays readable in a diff."""
    parts = []
    for key in sorted(bench):
        value = bench[key]
        if key == "runs":
            body = "[\n" + ",\n".join("  " + json.dumps(r, sort_keys=True) for r in value) + "\n ]"
        elif key == "traced":
            body = json.dumps(value, sort_keys=True)
        else:
            body = json.dumps(value, indent=1, sort_keys=True).replace("\n", "\n ")
        parts.append(f" {json.dumps(key)}: {body}")
    with open(path, "w") as f:
        f.write("{\n" + ",\n".join(parts) + "\n}\n")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--pr", type=int, required=True)
    p.add_argument("--parent", required=True, help="checkout of the parent commit")
    p.add_argument("--change", required=True, help="checkout of the change")
    args = p.parse_args(argv)
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(sides["change"], "BENCHMARK.json")) as f:
        benchmark = json.load(f)

    runs = timed_runs(sides, SEEDS, PAIRS)
    workloads = [spec["name"] for spec in benchmark["workloads"]]
    traced, traced_medians = traced_runs(sides, workloads, SEEDS[0], TRACES)

    bench = {
        "pr": args.pr,
        "perfbench": " ".join(PERFBENCH) + " --workload all --seed S --seconds 10 --trace 0",
        "pairs_per_seed": PAIRS,
        "seeds": list(SEEDS),
        "unreliable": UNRELIABLE,
        "summary": summarize(runs, benchmark["end_to_end"]),
        "traced_median": traced_medians,
        "traced": traced,
        "runs": runs,
        "tier1": tier1(sides["change"]),
        "src_lines": {side: source_lines(checkout) for side, checkout in sides.items()},
    }
    out = os.path.join(sides["change"], f"BENCH_{args.pr}.json")
    write_json(out, bench)
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
