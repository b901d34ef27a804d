"""Command line interface: simulate, run, evaluate, sweep."""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from dataclasses import asdict

from .config import load_pipeline_config
from .errors import ConfigError, ContactTrackError, InputFormatError
from .evaluation import match_tracks, mot_metrics, evaluate, threshold_sweep
from .io import read_episodes, read_json, read_traces, write_json
from .pipeline import load_ground_truth, load_track_stream, run_pipeline
from .scenes import builtin_scene
from .simulator import emit_dataset

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONFIG = 3
# Most points a --grid may hold: 500 times the largest grid in use (20
# points), so a mistyped range or step exits at once instead of building
# a list without end.
MAX_GRID_POINTS = 10_000


def _load_scene(spec):
    if spec.startswith("builtin:"):
        try:
            return builtin_scene(spec[len("builtin:"):])
        except KeyError as e:
            raise InputFormatError(str(e))
    return read_json(spec, "scene file")


def cmd_simulate(args):
    scene = _load_scene(args.scene)
    try:
        sim = emit_dataset(scene, args.out, seed=args.seed)
    except InputFormatError as e:  # from parse_scene, which does not know the file
        raise InputFormatError(str(e), path=args.scene) from None
    print(f"wrote {sim.scene['frame_count']} frames to {args.out}")
    return EXIT_OK


def cmd_run(args):
    cfg = load_pipeline_config(args.config)
    if args.static_map:
        cfg.static_map = True
    summary = run_pipeline(
        args.calib, args.input, args.out, cfg, stitch=not args.no_stitch
    )
    print(
        f"processed {summary['frames']} frames "
        f"({summary['missing_frames']} missing), "
        f"{summary['episodes']} episodes, "
        f"{len(summary['stitch_mapping'])} stitched ids"
    )
    return EXIT_OK


def _parse_grid(spec):
    try:
        lo, hi, step = (float(v) for v in spec.split(":"))
    except ValueError:
        raise InputFormatError(f"grid must be lo:hi:step, got {spec!r}")
    if not all(map(math.isfinite, (lo, hi, step))) or step <= 0 or hi < lo:
        raise InputFormatError(f"bad grid range {spec!r}: want finite lo <= hi and step > 0")
    if lo <= 0:
        raise InputFormatError(
            f"bad grid range {spec!r}: want lo > 0, as no contact starts at tau_on <= 0")
    grid = []
    tau = lo
    while tau <= hi + 1e-9:
        if len(grid) == MAX_GRID_POINTS:  # also ends a step too small to move tau
            raise InputFormatError(f"grid {spec!r} holds more than {MAX_GRID_POINTS} points")
        grid.append(round(tau, 10))
        tau += step
    return grid


def cmd_evaluate(args):
    gt = load_ground_truth(args.gt)
    pred_tracks = load_track_stream(os.path.join(args.pred, "tracks.jsonl"))
    eps_path = os.path.join(args.pred, "episodes.csv")
    if not os.path.exists(eps_path):
        raise InputFormatError("missing predicted episodes.csv", path=eps_path)
    episodes = read_episodes(eps_path)
    report = evaluate(pred_tracks, episodes, gt)

    os.makedirs(args.out, exist_ok=True)
    write_json(os.path.join(args.out, "report.json"), asdict(report), sort_keys=True)
    with open(os.path.join(args.out, "report.csv"), "w", newline="") as f:
        w = csv.writer(f)
        items = sorted(asdict(report).items())
        w.writerow([k for k, _ in items])
        w.writerow([v for _, v in items])

    print("metric                    value")
    print(f"IDF1                      {report.idf1:.4f}")
    print(f"IDSW                      {report.id_switches}")
    print(
        f"Episode recall            {report.episode_recall:.4f} "
        f"({report.detected_episodes}/{report.gt_episodes})"
    )
    print(f"Binary Contact F1         {report.binary_f1:.4f}")
    print(f"Binary Contact IoU        {report.binary_iou:.4f}")
    print(f"Semantic Contact F1       {report.semantic_f1:.4f}")
    print(f"Semantic Contact IoU      {report.semantic_iou:.4f}")
    print(f"Episode ID Acc.           {report.identity_accuracy:.4f}")
    return EXIT_OK


def cmd_sweep(args):
    gt = load_ground_truth(args.gt)
    traces_path = os.path.join(args.input, "distance_traces.jsonl")
    if not os.path.exists(traces_path):
        raise InputFormatError("missing distance_traces.jsonl", path=traces_path)
    traces = list(read_traces(traces_path))
    grid = _parse_grid(args.grid)
    pred_tracks = load_track_stream(os.path.join(args.input, "tracks.jsonl"))
    _, _, id_map = mot_metrics(match_tracks(pred_tracks, gt.tracks), pred_tracks, gt.tracks)
    rows = threshold_sweep(traces, gt, grid, id_map=id_map)
    with open(args.out, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["tau_on", "binary_f1", "binary_iou"])
        for tau, f1, iou in rows:
            w.writerow([f"{tau:.6g}", f"{f1:.6f}", f"{iou:.6f}"])
    print(f"wrote {len(rows)} sweep rows to {args.out}")
    return EXIT_OK


def build_parser():
    p = argparse.ArgumentParser(
        prog="contacttrack",
        description="Identity-resolved hand-surface contact episodes from "
                    "multi-camera detections.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a synthetic dataset")
    sim.add_argument("--scene", required=True,
                     help="scene config file, or builtin:<name>")
    sim.add_argument("--out", required=True)
    sim.add_argument("--seed", type=int, default=0)
    sim.set_defaults(func=cmd_simulate)

    run = sub.add_parser("run", help="run the pipeline on a recording")
    run.add_argument("--calib", required=True)
    run.add_argument("--in", dest="input", required=True)
    run.add_argument("--out", required=True)
    run.add_argument("--config", default=None)
    run.add_argument("--static-map", action="store_true",
                     help="build the semantic map once, at the first frame")
    run.add_argument("--no-stitch", action="store_true",
                     help="skip retroactive identity stitching")
    run.set_defaults(func=cmd_run)

    ev = sub.add_parser("evaluate", help="score predictions against ground truth")
    ev.add_argument("--pred", required=True)
    ev.add_argument("--gt", required=True)
    ev.add_argument("--out", required=True)
    ev.set_defaults(func=cmd_evaluate)

    sw = sub.add_parser("sweep", help="contact threshold sweep on cached traces")
    sw.add_argument("--in", dest="input", required=True)
    sw.add_argument("--gt", required=True)
    sw.add_argument("--grid", required=True, help="lo:hi:step in meters")
    sw.add_argument("--out", required=True)
    sw.set_defaults(func=cmd_sweep)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except InputFormatError as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except ContactTrackError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as e:  # e.g. an --out naming a file where a directory goes
        print(f"error: {e.filename}: {e.strerror}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
