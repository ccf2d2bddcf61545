"""In-memory span tracing of surfscan's public functions.

`Tracer.install` replaces each binding in `BINDINGS` (the module or class
attribute a caller looks up) with a wrapper that records a span (name,
start, end, parent) and the binding's extra counts.  Nothing in surfscan
changes; `uninstall` restores the originals.

A span's self time is its duration minus the time its child spans cover.
The benchmark opens a root span `bench.setup` around scenario loading and
`MissionRunner` construction; `MissionRunner.plan`, `MissionRunner.run` and
`MissionLog.to_csv` are roots of their own.  So the self times of all spans
sum to the traced set-up, plan, run and log-write time.
"""

import math
import time
from collections import defaultdict


def _rays(counts, name, args, result):
    counts[f"{name}.rays"] += args[2].shape[0]
    counts[f"{name}.hits"] += int((result >= 0.0).sum())


def _supervision(counts, name, args, result):
    cycle = result[1]
    counts[f"{name}.cycles"] += 1
    counts[f"{name}.replanned"] += int(cycle.mode.value == "replanned" and math.isfinite(cycle.f_d))
    counts[f"{name}.visit"] += int(cycle.visited_index is not None)
    counts[f"{name}.sense_retry"] += int(cycle.event == "sense_retry")
    counts[f"{name}.abort"] += int(cycle.event == "abort")
    counts[f"{name}.short_prediction"] += int(cycle.short_prediction)


def _viewpoints(counts, name, args, result):
    counts[f"{name}.viewpoints"] += len(result.viewpoints)


def _dropped(counts, name, args, result):
    counts[f"{name}.dropped"] += int(args[0].valid.sum() - result.valid.sum())


def _cities(counts, name, args, result):
    counts[f"{name}.cities"] += len(result.order)


def _blocked(counts, name, args, result):
    counts[f"{name}.blocked"] += int(result[1])


def _points(counts, name, args, result):
    counts[f"{name}.points"] += result.shape[0]


# (layer, module, owner attribute path, extra-count hook, extra stats)
# The metric prefix is "<module>.<owner path>".
BINDINGS = (
    ("setup", "scenario", "load_scenario", None, ()),
    ("setup", "mission", "MissionRunner.__init__", None, ()),
    ("setup", "scenario", "load_map", None, ()),
    ("setup", "world", "load_xyz", _points, ("points",)),
    ("setup", "world", "apply_delta", None, ()),
    ("planning", "mission", "MissionRunner.plan", None, ()),
    ("planning", "mission", "generate_grid_viewpoints", _viewpoints, ("viewpoints",)),
    ("planning", "mission", "prioritize_tasks", None, ()),
    ("planning", "global_plan", "plan_route", None, ("failed",)),
    ("planning", "world", "VoxelMap.free_mask", None, ()),
    ("planning", "mission", "filter_viewpoints", _dropped, ("dropped",)),
    ("planning", "mission", "solve_tour_sa_tsp", _cities, ("cities",)),
    ("planning", "mission", "plan_route", None, ("failed",)),
    ("sensing", "kernels", "raycast_batch", _rays, ("rays", "hit_frac")),
    ("sensing", "mission", "render_depth", None, ()),
    ("sensing", "mission", "sample_cloud", None, ()),
    ("sensing", "supervisor", "sample_cloud", None, ()),
    ("sensing", "local_plan", "sample_cloud", None, ()),
    ("step_metrics", "mission", "viewpoint_utility", None, ()),
    ("step_metrics", "metrics", "estimate_normal_map", None, ()),
    ("step_metrics", "kernels", "normals_from_depth", None, ()),
    ("step_metrics", "mission", "viewing_distance", None, ()),
    ("step_metrics", "metrics", "nearest_point", None, ()),
    (
        "supervision",
        "mission",
        "step_mission",
        _supervision,
        ("cycles", "replanned", "visit", "sense_retry", "abort", "short_prediction"),
    ),
    ("supervision", "supervisor", "predict_local_path", None, ()),
    ("supervision", "supervisor", "discrete_frechet", None, ()),
    ("supervision", "supervisor", "kabsch_align", None, ()),
    ("supervision", "local_plan", "nearest_point", None, ()),
    ("control", "mission", "track_step", _blocked, ("blocked",)),
    ("control", "controller", "is_collision_free", None, ()),
    ("control", "kernels", "point_is_free", None, ()),
    ("mission", "mission", "MissionRunner.run", None, ()),
    ("mission", "metrics", "MissionLog.to_csv", None, ()),
)

ROOT_SPAN = ("setup", "bench.setup")
LAYERS = ("setup", "planning", "sensing", "step_metrics", "supervision", "control", "mission")


def metric_names():
    """Every per-layer metric name, in report order."""
    names = []
    for _, name in [ROOT_SPAN] + [(layer, f"{mod}.{path}") for layer, mod, path, _, _ in BINDINGS]:
        names += [f"{name}.calls", f"{name}.s", f"{name}.self_s"]
    for _, mod, path, _, extras in BINDINGS:
        names += [f"{mod}.{path}.{stat}" for stat in extras]
    names += [f"layer.{layer}.self_s" for layer in LAYERS]
    return names


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = defaultdict(int)
        self._stack = []
        self._installed = []

    def open(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, original, name, hook):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            except Exception:
                tracer.counts[f"{name}.failed"] += 1
                raise
            finally:
                tracer.close(idx)
            if hook is not None:
                hook(tracer.counts, name, args, result)
            return result

        return traced

    def install(self, surfscan_modules):
        for _, mod, path, hook, _ in BINDINGS:
            owner = surfscan_modules[mod]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrap(original, f"{mod}.{path}", hook))
            self._installed.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def metrics(self):
        """Per-binding calls, inclusive and self seconds, extra counts and
        per-layer self seconds, keyed as in `metric_names()`."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(int)
        for (name, start, end, _), covered in zip(self.spans, child_time):
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += end - start - covered
        out.update(self.counts)
        rays = out["kernels.raycast_batch.rays"]
        out["kernels.raycast_batch.hit_frac"] = out["kernels.raycast_batch.hits"] / rays if rays else 0.0
        layer_of = {ROOT_SPAN[1]: ROOT_SPAN[0]}
        layer_of.update({f"{mod}.{path}": layer for layer, mod, path, _, _ in BINDINGS})
        for name, layer in layer_of.items():
            out[f"layer.{layer}.self_s"] += out[f"{name}.self_s"]
        return {name: out[name] for name in metric_names()}

    def total_self_s(self):
        return sum(self.metrics()[f"layer.{layer}.self_s"] for layer in LAYERS)

    def root_s(self):
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)
