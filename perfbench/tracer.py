"""Span tracer and the per-layer metrics derived from it.

The tracer replaces module attributes with timing wrappers, under the
names the callers look them up by, so the traced run executes the same
unmodified code as the timed run. Spans (name, start, end, parent) are
kept in memory; counts are taken from the wrapped calls' arguments and
return values.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.counts = Counter()
        self._open = []

    def begin(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.starts.append(self.clock())
        self.ends.append(None)
        self.parents.append(self._open[-1] if self._open else None)
        self._open.append(idx)
        return idx

    def end(self, idx):
        self.ends[idx] = self.clock()
        popped = self._open.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.names[idx]} closed out of order")

    def inside(self, *names):
        """True when an open span has one of the names."""
        return any(self.names[i] in names for i in self._open)

    def wrap(self, fn, name, hook=None):
        """fn timed as span `name`; hook(args, result, raised) adds counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.end(idx)
                if hook is not None:
                    hook(args, None, True)
                raise
            self.end(idx)
            if hook is not None:
                hook(args, result, False)
            return result

        return wrapper

    def wrap_iter(self, fn, name, counter=None):
        """Generator function fn with each next() timed as span `name`.

        Only the time spent producing items counts, not the time the
        consumer spends between them.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            while True:
                idx = self.begin(name)
                try:
                    item = next(it)
                except StopIteration:
                    self.end(idx)
                    return
                except Exception:
                    self.end(idx)
                    raise
                self.end(idx)
                if counter is not None:
                    self.counts[counter] += 1
                yield item

        return wrapper

    # -- derived figures ---------------------------------------------------

    def durations(self):
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self):
        """Each span's duration minus the durations of its direct children."""
        dur = self.durations()
        out = list(dur)
        for idx, parent in enumerate(self.parents):
            if parent is not None:
                out[parent] -= dur[idx]
        return out

    def total(self, name):
        return sum(d for n, d in zip(self.names, self.durations()) if n == name)

    def self_total(self, name):
        return sum(d for n, d in zip(self.names, self.self_times()) if n == name)

    def calls(self, name):
        return sum(1 for n in self.names if n == name)

    def spans(self, name):
        return [i for i, n in enumerate(self.names) if n == name]


@contextmanager
def patched(replacements):
    """Temporarily set (owner, attribute, value) triples; restore on exit."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def instrument(tracer):
    """(owner, attribute, wrapper) triples covering every traced layer."""
    from contacttrack import cli, evaluation, pipeline, person_tracker, simulator
    from contacttrack.contact import ContactTracker
    from contacttrack.hand_fusion import HandFusion
    from contacttrack.person_tracker import Tracker
    from contacttrack.semantic_map import SemanticCloud
    from contacttrack.simulator import SceneDepthProvider, Simulator

    t = tracer
    c = t.counts

    def count(key, fn):
        def hook(args, result, raised):
            if not raised:
                c[key] += fn(args, result)
        return hook

    def on_triangulate(args, result, raised):
        if raised:
            c["geometry.triangulate_weighted.failed"] += 1
        if t.inside("person_tracker.update_triangulated"):
            c["geometry.triangulate_weighted.from_update"] += 1

    def rays(caller):
        return count(f"primitives.cast_rays.{caller}.rays",
                     lambda a, r: np.asarray(a[2]).size // 3)

    # One kernel, two callers: split its spans by the caller.
    cast_for = {caller: t.wrap(simulator.cast_rays, f"primitives.cast_rays.{caller}", rays(caller))
                for caller in ("depth", "render")}

    def cast_rays(*args, **kwargs):
        caller = "depth" if t.inside("simulator.depth_patch", "simulator.depth_grids") else "render"
        return cast_for[caller](*args, **kwargs)

    def on_fuse(args, result, raised):
        if not raised:
            c["semantic_map.fuse_clouds.points_in"] += sum(len(cl.positions) for cl in args[0])
            c["semantic_map.fuse_clouds.voxels_out"] += len(result)

    def on_hands(args, result, raised):
        if not raised:
            c["hand_fusion.hands_in"] += len(args[2])
            c["hand_fusion.fused_out"] += len(result)

    step = Tracker.step

    def tracker_step(self, *args, **kwargs):
        before = self.next_id
        try:
            return step(self, *args, **kwargs)
        finally:
            c["person_tracker.births"] += self.next_id - before

    one_line = count("io.write.lines", lambda a, r: 1)
    per_row = count("io.write.lines", lambda a, r: len(a[1]))

    def on_traces(args, result, raised):
        if not raised:
            c["io.write.lines"] += len(args[1])
            c["io.write_traces.rows"] += len(args[1])

    w = t.wrap
    out = [
        (Tracker, "step", w(tracker_step, "person_tracker.step")),
        (person_tracker, "associate_camera",
         w(person_tracker.associate_camera, "person_tracker.associate_camera")),
        (person_tracker, "update_triangulated",
         w(person_tracker.update_triangulated, "person_tracker.update_triangulated",
           count("person_tracker.update_triangulated.joints", lambda a, r: len(r)))),
        (person_tracker, "depth_lift",
         w(person_tracker.depth_lift, "person_tracker.depth_lift",
           count("person_tracker.depth_lift.joints", lambda a, r: len(r)))),
        (person_tracker, "triangulate_weighted",
         w(person_tracker.triangulate_weighted, "geometry.triangulate_weighted", on_triangulate)),
        (person_tracker, "epipolar_distance",
         w(person_tracker.epipolar_distance, "geometry.epipolar_distance")),
        (person_tracker, "hungarian_assign",
         w(person_tracker.hungarian_assign, "geometry.hungarian_assign")),
        (SceneDepthProvider, "patch", w(SceneDepthProvider.patch, "simulator.depth_patch")),
        (SceneDepthProvider, "grids", w(SceneDepthProvider.grids, "simulator.depth_grids")),
        (Simulator, "render_frame", w(Simulator.render_frame, "simulator.render_frame")),
        (Simulator, "gt_visibility", w(Simulator.gt_visibility, "simulator.gt_visibility")),
        (Simulator, "gt_episodes", w(Simulator.gt_episodes, "simulator.gt_episodes")),
        (simulator, "cast_rays", cast_rays),
        (pipeline, "backproject_labeled",
         w(pipeline.backproject_labeled, "semantic_map.backproject_labeled")),
        (pipeline, "fuse_clouds", w(pipeline.fuse_clouds, "semantic_map.fuse_clouds", on_fuse)),
        (SemanticCloud, "nearest_per_label",
         w(SemanticCloud.nearest_per_label, "semantic_map.nearest_per_label")),
        (ContactTracker, "update", w(ContactTracker.update, "contact.update")),
        (ContactTracker, "finalize",
         w(ContactTracker.finalize, "contact.finalize",
           count("contact.episodes", lambda a, r: len(r)))),
        (HandFusion, "step", w(HandFusion.step, "hand_fusion.step", on_hands)),
        (HandFusion, "stitch_mapping",
         w(HandFusion.stitch_mapping, "hand_fusion.stitch_mapping",
           count("hand_fusion.stitch_mapping.ids", lambda a, r: len(r)))),
        (pipeline, "read_detections",
         t.wrap_iter(pipeline.read_detections, "io.read_detections", "io.read_detections.records")),
        (pipeline, "write_track_line", w(pipeline.write_track_line, "io.write", one_line)),
        (pipeline, "write_hand_track_line", w(pipeline.write_hand_track_line, "io.write", one_line)),
        (pipeline, "write_episodes", w(pipeline.write_episodes, "io.write", per_row)),
        (pipeline, "write_traces", w(pipeline.write_traces, "io.write", on_traces)),
        (cli, "run_pipeline", w(cli.run_pipeline, "pipeline.run_pipeline")),
        (cli, "read_traces", t.wrap_iter(cli.read_traces, "io.read_traces")),
        (cli, "threshold_sweep", w(cli.threshold_sweep, "evaluation.threshold_sweep")),
    ]
    for name in ("match_tracks", "mot_metrics"):
        for owner in (cli, evaluation):
            out.append((owner, name, w(getattr(owner, name), f"evaluation.{name}")))
    out.append((evaluation, "contact_metrics",
                w(evaluation.contact_metrics, "evaluation.contact_metrics")))
    return out


# name -> (unit, better); the per-layer metrics every traced run reports.
PER_LAYER = {
    "geometry.triangulate_weighted.calls": ("count", "lower"),
    "geometry.triangulate_weighted.s": ("s", "lower"),
    "geometry.triangulate_weighted.failed": ("count", "lower"),
    "geometry.triangulate_weighted.accept_ratio": ("ratio", "higher"),
    "geometry.epipolar_distance.calls": ("count", "lower"),
    "geometry.epipolar_distance.s": ("s", "lower"),
    "geometry.hungarian_assign.calls": ("count", "lower"),
    "geometry.hungarian_assign.s": ("s", "lower"),
    "person_tracker.step.calls": ("count", "lower"),
    "person_tracker.step.self_s": ("s", "lower"),
    "person_tracker.associate_camera.s": ("s", "lower"),
    "person_tracker.update_triangulated.self_s": ("s", "lower"),
    "person_tracker.update_triangulated.joints": ("count", "higher"),
    "person_tracker.depth_lift.self_s": ("s", "lower"),
    "person_tracker.depth_lift.joints": ("count", "higher"),
    "person_tracker.births": ("count", "lower"),
    "simulator.depth_patch.calls": ("count", "lower"),
    "simulator.depth_patch.s": ("s", "lower"),
    "simulator.depth_grids.calls": ("count", "lower"),
    "simulator.depth_grids.s": ("s", "lower"),
    "simulator.render_frame.calls": ("count", "lower"),
    "simulator.render_frame.s": ("s", "lower"),
    "simulator.gt_visibility.s": ("s", "lower"),
    "simulator.gt_episodes.s": ("s", "lower"),
    "primitives.cast_rays.depth.calls": ("count", "lower"),
    "primitives.cast_rays.depth.rays": ("count", "lower"),
    "primitives.cast_rays.depth.s": ("s", "lower"),
    "primitives.cast_rays.render.calls": ("count", "lower"),
    "primitives.cast_rays.render.rays": ("count", "lower"),
    "primitives.cast_rays.render.s": ("s", "lower"),
    "semantic_map.build.calls": ("count", "lower"),
    "semantic_map.build.s": ("s", "lower"),
    "semantic_map.fuse_clouds.points_in": ("count", "lower"),
    "semantic_map.fuse_clouds.voxels_out": ("count", "lower"),
    "semantic_map.nearest_per_label.calls": ("count", "lower"),
    "semantic_map.nearest_per_label.s": ("s", "lower"),
    "contact.update.calls": ("count", "lower"),
    "contact.update.s": ("s", "lower"),
    "contact.finalize.s": ("s", "lower"),
    "contact.episodes": ("count", "higher"),
    "hand_fusion.step.calls": ("count", "lower"),
    "hand_fusion.step.s": ("s", "lower"),
    "hand_fusion.hands_in": ("count", "lower"),
    "hand_fusion.fused_out": ("count", "lower"),
    "hand_fusion.stitch_mapping.s": ("s", "lower"),
    "hand_fusion.stitch_mapping.ids": ("count", "lower"),
    "io.read_detections.s": ("s", "lower"),
    "io.read_detections.records": ("count", "lower"),
    "io.write.s": ("s", "lower"),
    "io.write.lines": ("count", "lower"),
    "io.write_traces.rows": ("count", "lower"),
    "pipeline.frame_ms.p50": ("ms", "lower"),
    "pipeline.frame_ms.p_tail": ("ms", "lower"),
    "pipeline.frame_ms.tail_pct": ("%", "higher"),
    "pipeline.frame_ms.intervals": ("count", "higher"),
    "pipeline.tail_s": ("s", "lower"),
    "evaluation.match_tracks.s": ("s", "lower"),
    "evaluation.mot_metrics.s": ("s", "lower"),
    "evaluation.contact_metrics.s": ("s", "lower"),
    "evaluation.threshold_sweep.s": ("s", "lower"),
    "io.read_traces.s": ("s", "lower"),
    "cli.import_s": ("s", "lower"),
    "pipeline.trace_overhead": ("ratio", "lower"),
}


def tail_percentile(values, beyond=10):
    """(value, percentile) of the highest order statistic with at least
    `beyond` samples above it; None when there are too few samples."""
    ordered = sorted(values)
    k = len(ordered) - beyond - 1
    if k < 0:
        return None
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def layer_metrics(tracer):
    """Per-layer metric values (without cli.import_s and trace_overhead)."""
    t = tracer
    c = t.counts
    m = {}
    for name in ("geometry.triangulate_weighted", "geometry.epipolar_distance",
                 "geometry.hungarian_assign", "simulator.depth_patch",
                 "simulator.depth_grids", "simulator.render_frame",
                 "semantic_map.nearest_per_label", "contact.update", "hand_fusion.step"):
        m[f"{name}.calls"] = t.calls(name)
        m[f"{name}.s"] = t.total(name)
    from_update = c["geometry.triangulate_weighted.from_update"]
    m["geometry.triangulate_weighted.failed"] = c["geometry.triangulate_weighted.failed"]
    m["geometry.triangulate_weighted.accept_ratio"] = (
        c["person_tracker.update_triangulated.joints"] / from_update if from_update else 0.0
    )
    m["person_tracker.step.calls"] = t.calls("person_tracker.step")
    m["person_tracker.step.self_s"] = t.self_total("person_tracker.step")
    m["person_tracker.associate_camera.s"] = t.total("person_tracker.associate_camera")
    for name in ("update_triangulated", "depth_lift"):
        m[f"person_tracker.{name}.self_s"] = t.self_total(f"person_tracker.{name}")
        m[f"person_tracker.{name}.joints"] = c[f"person_tracker.{name}.joints"]
    m["person_tracker.births"] = c["person_tracker.births"]
    for name in ("gt_visibility", "gt_episodes"):
        m[f"simulator.{name}.s"] = t.total(f"simulator.{name}")
    for caller in ("depth", "render"):
        name = f"primitives.cast_rays.{caller}"
        m[f"{name}.calls"] = t.calls(name)
        m[f"{name}.rays"] = c[f"{name}.rays"]
        m[f"{name}.s"] = t.total(name)
    m["semantic_map.build.calls"] = t.calls("semantic_map.fuse_clouds")
    m["semantic_map.build.s"] = (
        t.total("semantic_map.backproject_labeled") + t.total("semantic_map.fuse_clouds"))
    for name in ("points_in", "voxels_out"):
        m[f"semantic_map.fuse_clouds.{name}"] = c[f"semantic_map.fuse_clouds.{name}"]
    m["contact.finalize.s"] = t.total("contact.finalize")
    m["contact.episodes"] = c["contact.episodes"]
    for name in ("hands_in", "fused_out"):
        m[f"hand_fusion.{name}"] = c[f"hand_fusion.{name}"]
    m["hand_fusion.stitch_mapping.s"] = t.total("hand_fusion.stitch_mapping")
    m["hand_fusion.stitch_mapping.ids"] = c["hand_fusion.stitch_mapping.ids"]
    m["io.read_detections.s"] = t.total("io.read_detections")
    m["io.read_detections.records"] = c["io.read_detections.records"]
    m["io.write.s"] = t.total("io.write")
    m["io.write.lines"] = c["io.write.lines"]
    m["io.write_traces.rows"] = c["io.write_traces.rows"]

    steps = t.spans("person_tracker.step")
    intervals = [1000.0 * (t.starts[b] - t.starts[a]) for a, b in zip(steps, steps[1:])]
    m["pipeline.frame_ms.intervals"] = len(intervals)
    m["pipeline.frame_ms.p50"] = statistics.median(intervals) if intervals else 0.0
    tail = tail_percentile(intervals)
    m["pipeline.frame_ms.p_tail"], m["pipeline.frame_ms.tail_pct"] = (
        tail if tail is not None else (max(intervals, default=0.0), 100.0))
    runs = t.spans("pipeline.run_pipeline")
    m["pipeline.tail_s"] = (
        t.ends[runs[-1]] - t.ends[steps[-1]] if runs and steps else 0.0)

    for name in ("match_tracks", "mot_metrics", "contact_metrics", "threshold_sweep"):
        m[f"evaluation.{name}.s"] = t.total(f"evaluation.{name}")
    m["io.read_traces.s"] = t.total("io.read_traces")
    return m

