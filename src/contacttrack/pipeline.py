"""End-to-end orchestration: detections in, tracks and episodes out.

Each frame flows through semantic map assembly, person tracking, hand
fusion, and contact detection. Association, hand fusion and contact
each make one array pass over the frame, not one per camera or hand.
Tracks, hand tracks and distance traces are queued inside the frame
loop into one io.LineBlock per file, which writes a stream's lines once
they hold BLOCK_NUMBERS numbers and when the loop ends, also by an
error, so a run that stops at an input error keeps the lines of every
frame it processed. When identity stitching merges ids, a second pass
copies each of them line by line through a temporary file,
re-dumping only the lines whose person-id key names a fragment id with
that one key changed. Memory holds one frame's detections and semantic
map and the live person tracks, plus three kinds of state that grow
with the recording: tables keyed by id (hand tracks, contact filters and
open episodes, stitch votes), which grow with the number of ids ever
created; the coexistence table, keyed by pairs of ids, which grows with
the pairs of ids ever detected in one frame together (up to the square
of the ids); and the finished contact episodes. No per-frame record is
kept for in-contact frames, and each episode copies its contact point,
so no frame's semantic map outlives the frame.
"""

from __future__ import annotations

import os
from itertools import groupby
from operator import attrgetter, itemgetter

from .config import PipelineConfig
from .contact import ContactTracker
from .errors import InputFormatError
from .evaluation import GroundTruth
from .hand_fusion import HandFusion
from .io import (
    HAND_TRACK_PERSON_KEY,
    RECORD_ERRORS,
    TRACE_PERSON_KEY,
    TRACK_PERSON_KEY,
    GridDepthProvider,
    LineBlock,
    json_int,
    read_calibration,
    read_detections,
    read_episodes,
    read_hand_schema,
    read_json,
    read_label_table,
    read_tracks,
    read_visibility,
    remap_ids,
    write_episodes,
    write_hand_track_line,
    write_json,
    write_track_line,
    write_traces,
)
from .person_tracker import Tracker
from .schema import HandSchema
from .semantic_map import UnknownLabel, backproject_labeled, fuse_clouds
from .simulator import SceneDepthProvider, Simulator


def _depth_source(in_dir, cals, cfg: PipelineConfig):
    """Depth/label provider for an input directory, or None.

    A scene.json reconstructs the analytic provider, which must know every
    camera of the calibration cals; otherwise a grids/ directory supplies
    DEP1 depth and LBL1 label files of the image sizes of cals. Either
    builds the map of the cameras of cals.
    """
    scene_path = os.path.join(in_dir, "scene.json")
    if os.path.exists(scene_path):
        data = read_json(scene_path, "scene file")
        try:
            sim = Simulator(data["scene"], seed=json_int(data.get("seed", cfg.seed), "seed"))
        except InputFormatError as e:  # from parse_scene, which does not know the file
            raise InputFormatError(str(e), path=scene_path) from None
        except RECORD_ERRORS as e:
            raise InputFormatError(f"bad scene file: {e}", path=scene_path)
        for cam_id in cals:
            if cam_id not in sim.cals:
                raise InputFormatError(
                    f"scene has no camera {cam_id!r} of the calibration", path=scene_path)
        return SceneDepthProvider(sim, cals)
    grids_dir = os.path.join(in_dir, "grids")
    if os.path.isdir(grids_dir):
        return GridDepthProvider(grids_dir, cals)
    return None


def _load_hand_schema(in_dir):
    path = os.path.join(in_dir, "hand_schema.json")
    return read_hand_schema(path) if os.path.exists(path) else HandSchema()


def _group_frames(det_path, cals, hand_schema):
    """Yield (frame, {camera_id: persons}, hands list) in frame order, the
    hands sorted by (camera_id, index) whatever the order of the frame's
    records.

    read_detections checks that records are frame-ordered, name calibrated
    cameras and carry hands of the schema's vertex count; gaps are
    tolerated and reported by the caller as missing frames.
    """
    records = read_detections(det_path, cals, hand_schema.vertex_count)
    for frame, group in groupby(records, key=itemgetter(0)):
        dets = {}
        hands = []
        for _, cam_id, persons, cam_hands in group:
            if persons:
                dets[cam_id] = persons
            hands.extend(cam_hands)
        hands.sort(key=attrgetter("camera_id"))  # stable: a camera keeps its order
        yield frame, dets, hands


def _build_cloud(provider, cals, frame, cfg, label_table, table_path):
    """The frame's semantic map: one grids call for every camera's stride
    lattice, one back-projection of its cells and one fusion. A label
    that label_table, read from table_path, does not name raises
    InputFormatError naming that file."""
    cells = provider.grids(frame, stride=cfg.stride)
    clouds = backproject_labeled(cells, cals) if len(cells) else []
    try:
        return fuse_clouds(clouds, cfg.voxel_size, label_table)
    except UnknownLabel as e:
        raise InputFormatError(f"{e} (frame {frame})", path=table_path)


def _rewrite_ids(out_dir, mapping):
    """Second pass: translate fragment person ids in the emitted streams."""
    for name, key in (("tracks.jsonl", TRACK_PERSON_KEY),
                      ("hand_tracks.jsonl", HAND_TRACK_PERSON_KEY),
                      ("distance_traces.jsonl", TRACE_PERSON_KEY)):
        remap_ids(os.path.join(out_dir, name), key, mapping)


def run_pipeline(calib_path, in_dir, out_dir, cfg: PipelineConfig | None = None,
                 stitch=True):
    """Process one recording directory end to end.

    Writes the output files to out_dir and returns the summary that
    run_meta.json holds: frames seen and missing, the episode count, the
    stitch mapping (as string ids), the seed and the config.
    """
    cfg = (cfg or PipelineConfig()).validate()
    cals = read_calibration(calib_path)
    det_path = os.path.join(in_dir, "detections.jsonl")
    if not os.path.exists(det_path):
        raise InputFormatError("missing detections.jsonl", path=det_path)
    depth_provider = _depth_source(in_dir, cals, cfg)
    table_path = os.path.join(in_dir, "label_table.txt")
    label_table = None
    if depth_provider is not None:
        if not os.path.exists(table_path):
            raise InputFormatError(
                "missing label_table.txt, which names the map's surface labels and is "
                "required with scene.json or grids/", path=table_path)
        label_table = read_label_table(table_path)
    hand_schema = _load_hand_schema(in_dir)

    tracker = Tracker(cals, cfg.tracker)
    fusion = HandFusion(cfg.fusion, hand_schema)
    contact = ContactTracker(cfg.contact)

    os.makedirs(out_dir, exist_ok=True)
    cloud = None
    frames_seen = 0
    missing_frames = 0
    last_frame = None
    with (open(os.path.join(out_dir, "tracks.jsonl"), "wb") as tracks_f,
          open(os.path.join(out_dir, "hand_tracks.jsonl"), "wb") as hands_f,
          open(os.path.join(out_dir, "distance_traces.jsonl"), "wb") as traces_f,
          LineBlock(tracks_f) as tracks, LineBlock(hands_f) as hand_tracks,
          LineBlock(traces_f) as traces):
        for frame, dets_by_cam, hands in _group_frames(det_path, cals, hand_schema):
            if last_frame is not None and frame > last_frame + 1:
                missing_frames += frame - last_frame - 1
            last_frame = frame
            frames_seen += 1

            if depth_provider is not None and (cloud is None or not cfg.static_map):
                cloud = _build_cloud(depth_provider, cals, frame, cfg, label_table, table_path)

            snapshots = tracker.step(frame, dets_by_cam, depth_provider)
            fused = fusion.step(frame, hands, cals, snapshots)

            for snap in snapshots:
                write_track_line(
                    tracks, frame, snap.id, snap.existence, snap.joints, snap.available
                )
            for fh in fused:
                write_hand_track_line(
                    hand_tracks, frame, fh.hand_track_id, fh.side, fh.person_id, fh.anchors
                )
            if fused and cloud is not None and len(cloud):
                write_traces(traces, contact.update(frame, fused, cloud))

    episodes = contact.finalize()
    mapping = {}
    if stitch:
        mapping = fusion.stitch_mapping()
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
    write_json(os.path.join(out_dir, "run_meta.json"), summary, sort_keys=True)
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
