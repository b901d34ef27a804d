"""End-to-end orchestration: detections in, tracks and episodes out.

Each frame flows through semantic map assembly, person tracking, hand
fusion, and contact detection. Tracks, hand tracks and distance traces
are written inside the frame loop; when identity stitching is enabled a
second pass streams each of them through a temporary file to rewrite
fragment person ids. Memory holds one frame's detections and semantic
map and the live person tracks, plus two kinds of state that grow with
the recording: tables keyed by id (hand tracks, contact filters, stitch
votes, coexistence counts), which grow with the number of ids ever
created, and the contact tracker's records of in-contact frames, kept
until finalize() assembles the episodes.
"""

from __future__ import annotations

import json
import os
from itertools import groupby
from operator import itemgetter

from .config import PipelineConfig
from .contact import ContactTracker
from .errors import InputFormatError
from .evaluation import GroundTruth
from .hand_fusion import HandFusion, HandInstance
from .io import (
    GridDepthProvider,
    read_calibration,
    read_detections,
    read_episodes,
    read_hand_tracks,
    read_tracks,
    read_traces,
    read_visibility,
    write_episodes,
    write_hand_track_line,
    write_track_line,
    write_traces,
)
from .person_tracker import Tracker
from .schema import HandSchema, JointSchema
from .semantic_map import backproject_labeled, fuse_clouds, read_label_table
from .simulator import SceneDepthProvider, Simulator


def _depth_source(in_dir, cfg: PipelineConfig):
    """Depth/label provider for an input directory, or None.

    A scene.json reconstructs the analytic provider; otherwise a grids/
    directory supplies DEP1 depth and LBL1 label files.
    """
    scene_path = os.path.join(in_dir, "scene.json")
    if os.path.exists(scene_path):
        try:
            with open(scene_path) as f:
                data = json.load(f)
            sim = Simulator(data["scene"], seed=int(data.get("seed", cfg.seed)))
        except (json.JSONDecodeError, KeyError, TypeError) as e:
            raise InputFormatError(f"bad scene file: {e}", path=scene_path)
        return SceneDepthProvider(sim)
    grids_dir = os.path.join(in_dir, "grids")
    if os.path.isdir(grids_dir):
        return GridDepthProvider(grids_dir)
    return None


def _load_hand_schema(in_dir):
    path = os.path.join(in_dir, "hand_schema.json")
    return HandSchema.from_file(path) if os.path.exists(path) else HandSchema()


def _group_frames(det_path):
    """Yield (frame, {camera_id: persons}, hands list) in frame order.

    Records must be frame-ordered; gaps are tolerated and reported by the
    caller as missing frames.
    """
    current = None
    dets = {}
    hands = []
    for frame, cam_id, persons, hand_dicts in read_detections(det_path):
        if current is not None and frame < current:
            raise InputFormatError(
                f"detections not frame-ordered ({frame} after {current})", path=det_path
            )
        if frame != current:
            if current is not None:
                yield current, dets, hands
            current, dets, hands = frame, {}, []
        if persons:
            dets[cam_id] = persons
        for h in hand_dicts:
            hands.append(
                HandInstance(
                    camera_id=cam_id, side=h["side"],
                    vertices=h["vertices"], sigma_fit=h["sigma_fit"],
                )
            )
    if current is not None:
        yield current, dets, hands


def _build_cloud(provider, cals, frame, cfg, label_table):
    clouds = []
    for cam_id in sorted(cals):
        grids = provider.grids(frame, cam_id, stride=cfg.stride)
        if grids is None:
            continue
        labels, depth = grids
        clouds.append(backproject_labeled(labels, depth, cals[cam_id], cfg.stride))
    return fuse_clouds(clouds, cfg.voxel_size, label_table, frame)


def _rewrite_ids(out_dir, mapping):
    """Second pass: translate fragment person ids in the emitted streams.

    Each stream is read, remapped and written record by record to a
    temporary file in out_dir, which then replaces the original.
    """
    # (file, reader, index of the person id in a record, line writer);
    # traces are written one frame's rows at a time instead. Built per
    # call so the writers are looked up by their module names each time,
    # where perfbench's tracer wraps them.
    streams = (
        ("tracks.jsonl", read_tracks, 1, write_track_line),
        ("hand_tracks.jsonl", read_hand_tracks, 3, write_hand_track_line),
        ("distance_traces.jsonl", read_traces, 3, None),
    )
    for name, read, slot, write_line in streams:
        path = os.path.join(out_dir, name)
        tmp_path = path + ".tmp"
        try:
            with open(tmp_path, "w") as f:
                rows = (
                    row[:slot] + (mapping.get(row[slot], row[slot]),) + row[slot + 1:]
                    for row in read(path)
                )
                if write_line is None:
                    for _, frame_rows in groupby(rows, key=itemgetter(0)):
                        write_traces(f, list(frame_rows))
                else:
                    for row in rows:
                        write_line(f, *row)
            os.replace(tmp_path, path)
        finally:
            if os.path.exists(tmp_path):
                os.remove(tmp_path)


def run_pipeline(calib_path, in_dir, out_dir, cfg: PipelineConfig | None = None,
                 stitch=True):
    """Process one recording directory end to end.

    Returns a summary dict (frame counts, warnings, stitch mapping).
    """
    cfg = (cfg or PipelineConfig()).validate()
    cals = read_calibration(calib_path)
    det_path = os.path.join(in_dir, "detections.jsonl")
    if not os.path.exists(det_path):
        raise InputFormatError("missing detections.jsonl", path=det_path)
    table_path = os.path.join(in_dir, "label_table.txt")
    label_table = read_label_table(table_path) if os.path.exists(table_path) else {}
    depth_provider = _depth_source(in_dir, cfg)
    hand_schema = _load_hand_schema(in_dir)
    joint_schema = JointSchema()

    tracker = Tracker(cals, cfg.tracker, joint_schema)
    fusion = HandFusion(cfg.fusion, hand_schema, joint_schema)
    contact = ContactTracker(cfg.contact)

    os.makedirs(out_dir, exist_ok=True)
    cloud = None
    coexist = {}
    last_e = {}
    frames_seen = 0
    missing_frames = 0
    last_frame = None
    with open(os.path.join(out_dir, "tracks.jsonl"), "w") as tracks_f, \
            open(os.path.join(out_dir, "hand_tracks.jsonl"), "w") as hands_f, \
            open(os.path.join(out_dir, "distance_traces.jsonl"), "w") as traces_f:
        for frame, dets_by_cam, hands in _group_frames(det_path):
            if last_frame is not None and frame > last_frame + 1:
                missing_frames += frame - last_frame - 1
            last_frame = frame
            frames_seen += 1

            if depth_provider is not None and (cloud is None or not cfg.static_map):
                cloud = _build_cloud(depth_provider, cals, frame, cfg, label_table)

            snapshots = tracker.step(frame, dets_by_cam, depth_provider)
            fused = fusion.step(frame, hands, cals, snapshots)

            # Two ids genuinely coexist only on frames where both received
            # detections (existence not decaying); a dying track coasting
            # beside its replacement must not block stitching them.
            active = []
            for s in snapshots:
                if s.existence >= last_e.get(s.id, 0.0):
                    active.append(s.id)
                last_e[s.id] = s.existence
            active.sort()
            for i, a in enumerate(active):
                for b in active[i + 1:]:
                    coexist[(a, b)] = coexist.get((a, b), 0) + 1

            for snap in snapshots:
                write_track_line(
                    tracks_f, frame, snap.id, snap.existence, snap.joints, snap.available
                )
            for fh in fused:
                write_hand_track_line(
                    hands_f, frame, fh.hand_track_id, fh.side, fh.person_id,
                    fh.palm_center, fh.anchors,
                )
                if cloud is not None and len(cloud):
                    write_traces(traces_f, contact.update(frame, fh, cloud))

    episodes = contact.finalize()
    mapping = {}
    if stitch:
        strong = [p for p, n in coexist.items() if n >= 3]
        forbidden = {(a, b) for a, b in strong} | {(b, a) for a, b in strong}
        mapping = fusion.stitch_mapping(forbidden)
    for ep in episodes:
        ep.person_id = mapping.get(ep.person_id, ep.person_id)
    write_episodes(os.path.join(out_dir, "episodes.csv"), episodes)
    if mapping:
        _rewrite_ids(out_dir, mapping)

    summary = {
        "frames": frames_seen,
        "missing_frames": missing_frames,
        "episodes": len(episodes),
        "stitch_mapping": {str(k): v for k, v in sorted(mapping.items())},
        "seed": cfg.seed,
        "config": cfg.to_json(),
    }
    with open(os.path.join(out_dir, "run_meta.json"), "w") as f:
        json.dump(summary, f, indent=1, sort_keys=True)
        f.write("\n")
    return summary


# -- evaluation-side loaders ------------------------------------------------

def load_track_stream(path):
    """tracks.jsonl -> {frame: {id: (joints, available)}}."""
    out = {}
    if not os.path.exists(path):
        return out
    for frame, tid, _e, joints, available in read_tracks(path):
        out.setdefault(frame, {})[tid] = (joints, available)
    return out


def load_ground_truth(gt_dir):
    """Ground-truth bundle from a dataset directory (or its gt/ subdir)."""
    sub = os.path.join(gt_dir, "gt")
    if os.path.isdir(sub):
        gt_dir = sub
    tracks_path = os.path.join(gt_dir, "tracks.jsonl")
    eps_path = os.path.join(gt_dir, "episodes.csv")
    if not os.path.exists(eps_path):
        raise InputFormatError("missing ground-truth episodes.csv", path=eps_path)
    visibility = {}
    vis_path = os.path.join(gt_dir, "visibility.jsonl")
    if os.path.exists(vis_path):
        for frame, pid, side, visible in read_visibility(vis_path):
            if not visible:
                visibility[(frame, pid, side)] = False
    return GroundTruth(
        tracks=load_track_stream(tracks_path),
        episodes=read_episodes(eps_path),
        visibility=visibility,
    )
