"""The benchmark's four seeded workloads.

Each workload is split into the phases the benchmark times separately:

* ``make_trace(seed)`` -- the arrival schedule (``setup.trace``);
* ``make_frames(seed)`` -- frame synthesis and fingerprints
  (``setup.frames``);
* ``build(trace, frames)`` -- the topology: simulator, servers, links,
  caches, samplers, or the model weights and their ``WeightPack``
  (``setup.build``);
* ``replay(topo)`` -- the timed region;
* ``check(result)`` -- output checks, a list of failure messages;
* ``digest(result)`` -- simulated statistics that repeat exactly for a
  seed, compared across commits by ``run.py --digest``.

The program under test only ever receives the generated inputs; every
random draw comes from ``seed``.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np

from repro.cache import keys as cache_keys
from repro.cache.store import CacheStore, FrequencySketch
from repro.cache.tiers import CLOUD_TENSOR, EDGE_RESULT, CacheHierarchy, CacheTier
from repro.continuum.network import get_link
from repro.continuum.pipeline import ContinuumReplayer
from repro.continuum.uplink import SharedUplink
from repro.data.datasets import get_dataset
from repro.data.synthetic import synth_crsa_frame, synth_frame_sequence
from repro.engine.latency import LatencyModel
from repro.hardware.platform import get_platform
from repro.models import functional
from repro.models.vit import VIT_CONFIGS
from repro.models.workspace import WeightPack
from repro.models.zoo import get_model
from repro.preprocessing import ops
from repro.preprocessing.frameworks import DALI, DALIWarp
from repro.preprocessing.pipelines import IMAGENET_MEAN, IMAGENET_STD
from repro.serving import exporter
from repro.serving.batcher import BatcherConfig
from repro.serving.events import Simulator
from repro.serving.fluid import HybridReplayer
from repro.serving.observability import MetricsRegistry, TimeSeriesSampler
from repro.serving.request import Request
from repro.serving.server import ModelConfig, TritonLikeServer
from repro.serving.traces import ArrivalTrace, burst_trace


def _nearest_rank(values: list[float], q: float) -> float:
    """Nearest-rank quantile of ``values`` (0.0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, int(np.ceil(q * len(ordered))))
    return ordered[rank - 1]


def _fp_bytes(fp) -> bytes:
    return fp.packed.to_bytes(16, "little")


#: Camera trigger rate, upload size and fingerprint frame size.
FPS = 10.0
IMAGE_KB = 60.0
FRAME_WIDTH, FRAME_HEIGHT = 64, 48
#: Hamming distance under which two fingerprints match in the cache.
MATCH_THRESHOLD = 8
#: Bytes of a classification result (edge entry and downlink payload).
RESULT_BYTES = 1024.0
TRACE_SAMPLE_RATE = 0.25
#: Survey-day arrival rates (per simulated second).
BACKGROUND_RATE = 8.0
BURST_RATE = 60.0
#: Kernel frames (CRSA size) and the classifier.
KERNEL_WIDTH, KERNEL_HEIGHT = 320, 240
KERNEL_MODEL = "vit_tiny"


# ----------------------------------------------------------------------
# Continuum: edge -> shared uplink -> preprocess/infer server -> downlink
# ----------------------------------------------------------------------
@dataclasses.dataclass
class ContinuumWorkload:
    """Co-located field cameras on one farm Wi-Fi uplink (Fig 8 path).

    Arrivals are open loop in simulated time: every ``1 / FPS`` seconds
    all ``endpoints`` cameras fire on a synchronized trigger.  The
    default sizes keep the uplink near half utilization (8 x 10 fps x
    60 KiB on 80 Mbps) and the two preprocess instances near half load.
    """

    name: str
    #: Probability of a random scene cut per frame.
    scene_change_rate: float
    #: A scene cut every this many frames (a vehicle passing on a fixed
    #: cadence); 0 = only random cuts.
    scene_frames: int = 0
    endpoints: int = 8
    frames_per_endpoint: int = 150
    #: Independent copies of the topology replayed per repetition.
    replays: int = 1
    edge_entries: int = 1024
    cloud_entries: int = 512
    unit_label = "sim_requests_per_s"
    host_unit = "python"

    def make_trace(self, seed: int) -> list[tuple[float, int, int]]:
        """(time, endpoint, frame index) per request, in arrival order."""
        interval = 1.0 / FPS
        return [(index * interval, endpoint, index)
                for index in range(self.frames_per_endpoint)
                for endpoint in range(self.endpoints)]

    def make_frames(self, seed: int) -> list[list]:
        """Per-endpoint fingerprint sequences of correlated frames."""
        spec = get_dataset("crsa")
        sequences = []
        span = self.scene_frames or self.frames_per_endpoint
        for endpoint in range(self.endpoints):
            rng = np.random.default_rng([seed, endpoint])
            frames = []
            for start in range(0, self.frames_per_endpoint, span):
                frames += synth_frame_sequence(
                    spec, min(span, self.frames_per_endpoint - start),
                    self.scene_change_rate, rng, width=FRAME_WIDTH,
                    height=FRAME_HEIGHT)
            sequences.append([cache_keys.fingerprint(f) for f in frames])
        return sequences

    def input_bytes(self, seed: int) -> bytes:
        """Every generated input, serialized (determinism tests)."""
        trace = self.make_trace(seed)
        frames = self.make_frames(seed)
        parts = [repr(trace).encode()]
        parts += [_fp_bytes(fp) for seq in frames for fp in seq]
        return b"".join(parts)

    def build(self, trace, frames) -> dict:
        sim = Simulator()
        registry = MetricsRegistry(clock=lambda: sim.now)
        server = TritonLikeServer(sim, registry=registry)
        crsa = get_dataset("crsa")
        cloud, edge = get_platform("a100"), get_platform("jetson")
        graph = get_model("vit_tiny").graph
        out = graph.input_shape[1]
        cloud_prep, edge_prep = DALIWarp(out), DALI(out)
        engine = LatencyModel(graph, cloud)

        def preprocess_time(n: int) -> float:
            return cloud_prep.estimate(crsa, cloud,
                                       batch_size=n).batch_latency_seconds

        def edge_time(n: int) -> float:
            return edge_prep.estimate(crsa, edge,
                                      batch_size=n).batch_latency_seconds

        server.register(ModelConfig(
            "preprocess", preprocess_time, instances=2,
            batcher=BatcherConfig(max_batch_size=8,
                                  max_queue_delay=0.002)))
        server.register(ModelConfig(
            "infer", lambda n: engine.latency(max(1, n)), instances=2,
            batcher=BatcherConfig(max_batch_size=8, max_queue_delay=0.002),
            preprocess_model="preprocess"))
        uplink = SharedUplink(get_link("farm_wifi"), sim, seed=0,
                              registry=registry)
        tensor_bytes = 4.0 * 3 * out * out
        cache = CacheHierarchy(
            edge=CacheTier(EDGE_RESULT, CacheStore(
                capacity_bytes=self.edge_entries * RESULT_BYTES,
                clock=lambda: sim.now,
                match_threshold=MATCH_THRESHOLD,
                admission=FrequencySketch(), name=EDGE_RESULT),
                stage="uplink+serving", registry=registry),
            cloud=CacheTier(CLOUD_TENSOR, CacheStore(
                capacity_bytes=self.cloud_entries * tensor_bytes,
                clock=lambda: sim.now,
                match_threshold=MATCH_THRESHOLD,
                name=CLOUD_TENSOR),
                stage="preprocess", registry=registry))
        server.attach_cache(cache, tensor_bytes=tensor_bytes)
        replayer = ContinuumReplayer(
            server, uplink, edge_preprocess_time=edge_time,
            image_bytes=IMAGE_KB * 1024.0,
            result_bytes=RESULT_BYTES, registry=registry,
            cache=cache, trace_sample_rate=TRACE_SAMPLE_RATE)
        sampler = TimeSeriesSampler(server, interval=0.05)
        for request_id, (at, endpoint, index) in enumerate(trace, 1):
            request = Request("infer", num_images=1, request_id=request_id,
                              cache_key=frames[endpoint][index])
            request.endpoint = endpoint
            sim.schedule_at(at, lambda r=request: replayer.submit(r))
        return {"sim": sim, "server": server, "registry": registry,
                "uplink": uplink, "cache": cache, "replayer": replayer,
                "sampler": sampler, "submitted": len(trace)}

    def replay(self, topo: dict) -> dict:
        topo["sampler"].start()
        topo["server"].run()
        topo["scrape"] = exporter.export_registry(topo["registry"])
        return topo

    @staticmethod
    def finalized(result: dict) -> dict[tuple[str, str], int]:
        """(placement, status) -> requests the continuum finalized."""
        counter = result["registry"].get("continuum_requests_total")
        out = {}
        for key, value in counter.items():
            labels = dict(key)
            out[(labels["placement"], labels["status"])] = int(value)
        return out

    def count(self, result: dict) -> int:
        return sum(self.finalized(result).values())

    def check(self, result: dict) -> list[str]:
        errors = []
        finalized = self.finalized(result)
        total = sum(finalized.values())
        if total != result["submitted"]:
            errors.append(f"conservation: {result['submitted']} submitted, "
                          f"{total} finalized")
        by_place: dict[str, int] = {}
        for (place, _), value in finalized.items():
            by_place[place] = by_place.get(place, 0) + value
        unknown = set(by_place) - {"edge_cache", "cloud"}
        if unknown:
            errors.append(f"unexpected placements {sorted(unknown)}")
        replayer, server = result["replayer"], result["server"]
        cached = len(replayer.cache_responses)
        if by_place.get("edge_cache", 0) != cached:
            errors.append(f"edge_cache finalized {by_place.get('edge_cache', 0)}"
                          f" != {cached} cache responses")
        if result["cache"].edge.store.stats.hits != cached:
            errors.append("edge hits != cache-served requests")
        if by_place.get("cloud", 0) != len(server.responses):
            errors.append(f"cloud finalized {by_place.get('cloud', 0)} != "
                          f"{len(server.responses)} server responses")
        for status in ("ok", "rejected"):
            served = sum(1 for r in server.responses if r.status == status)
            if finalized.get(("cloud", status), 0) != served:
                errors.append(f"cloud {status}: finalized "
                              f"{finalized.get(('cloud', status), 0)} != "
                              f"{served} server responses")
        if not result["scrape"].strip():
            errors.append("empty metrics scrape")
        return errors

    def digest(self, result: dict) -> dict:
        finalized = self.finalized(result)
        latencies = [t.latency for t in result["replayer"].completed_traces()
                     if t.status == "ok"]
        edge = result["cache"].edge.store.stats
        cloud = result["cache"].cloud.store.stats
        return {
            "finalized": {f"{p}/{s}": v
                          for (p, s), v in sorted(finalized.items())},
            "sim_p50_ms": round(_nearest_rank(latencies, 0.5) * 1e3, 6),
            "sim_p99_ms": round(_nearest_rank(latencies, 0.99) * 1e3, 6),
            "edge_hits": edge.hits,
            "edge_insertions": edge.insertions,
            "cloud_hits": cloud.hits,
            "cloud_insertions": cloud.insertions,
            "sim_end_s": round(result["sim"].now, 9),
        }


# ----------------------------------------------------------------------
# Hybrid fluid/DES replay of a survey-upload burst trace
# ----------------------------------------------------------------------
@dataclasses.dataclass
class BurstWorkload:
    """Survey uploads in bursts against a 2-instance server.

    The day is ``segments`` windows of ``segment_seconds``, each holding
    one survey-upload burst at a random offset in its first half
    (``burst_trace`` with one burst) and background traffic only in its
    second half, so bursts never merge and every seed carries the same
    number of saturated stretches.  Background arrivals stay under
    capacity; each burst saturates both instances long enough for the
    regime controller to fast-forward it.
    """

    name: str = "burst_day_hybrid"
    segments: int = 4
    segment_seconds: float = 1800.0
    burst_seconds: float = 300.0
    replays: int = 1
    unit_label = "sim_requests_per_s"
    host_unit = "python"

    def make_trace(self, seed: int) -> ArrivalTrace:
        half = self.segment_seconds / 2
        states = np.random.SeedSequence(seed).generate_state(2 * self.segments)
        times = []
        for k in range(2 * self.segments):
            part = burst_trace(duration=half,
                               background_rate=BACKGROUND_RATE,
                               bursts=1 - k % 2, burst_rate=BURST_RATE,
                               burst_seconds=self.burst_seconds,
                               seed=int(states[k]))
            times.append(np.asarray(part.arrival_times) + k * half)
        return ArrivalTrace("burst-day", tuple(np.concatenate(times)),
                            self.segments * self.segment_seconds)

    def make_frames(self, seed: int):
        return None

    def input_bytes(self, seed: int) -> bytes:
        return np.asarray(self.make_trace(seed).arrival_times).tobytes()

    def build(self, trace, frames) -> dict:
        server = TritonLikeServer()
        server.register(ModelConfig(
            "harvest", service_time=lambda n: 0.01 + 0.05 * n,
            batcher=BatcherConfig(max_batch_size=64, max_queue_delay=0.1),
            instances=2))
        replayer = HybridReplayer(server, "harvest")
        replayer.schedule(trace)
        return {"server": server, "replayer": replayer,
                "sim": server.sim, "arrivals": len(trace)}

    def replay(self, topo: dict) -> dict:
        topo["server"].run()
        return topo

    def count(self, result: dict) -> int:
        return result["replayer"].completed

    def check(self, result: dict) -> list[str]:
        errors = []
        replayer = result["replayer"]
        if replayer.completed != result["arrivals"]:
            errors.append(f"conservation: {result['arrivals']} arrivals, "
                          f"{replayer.completed} completions")
        bad = sum(1 for r in result["server"].responses if not r.ok)
        if bad:
            errors.append(f"{bad} responses not ok")
        return errors

    def digest(self, result: dict) -> dict:
        replayer = result["replayer"]
        summary = replayer.latency_summary()
        return {
            "arrivals": result["arrivals"],
            "des_responses": len(result["server"].responses),
            "fluid_completions": replayer.fluid_completed,
            "fluid_intervals": len(replayer.intervals),
            "sim_p50_ms": round(summary["p50"] * 1e3, 6),
            "sim_p99_ms": round(summary["p99"] * 1e3, 6),
            "sim_end_s": round(result["sim"].now, 9),
        }


# ----------------------------------------------------------------------
# Functional plane: real CRSA preprocessing + batched ViT-Tiny forward
# ----------------------------------------------------------------------
@dataclasses.dataclass
class KernelsWorkload:
    """320x240 CRSA frames through warp/resize/normalize and ViT-Tiny."""

    name: str = "kernels_frames"
    frames: int = 16
    batch: int = 4
    replays: int = 1
    unit_label = "images_per_s"
    host_unit = "numpy"

    def make_trace(self, seed: int):
        return None

    def make_frames(self, seed: int) -> list[np.ndarray]:
        rng = np.random.default_rng(seed)
        return [synth_crsa_frame(KERNEL_WIDTH, KERNEL_HEIGHT,
                                 np.random.default_rng(rng.integers(2 ** 32)),
                                 grid_spacing=40)
                for _ in range(self.frames)]

    def input_bytes(self, seed: int) -> bytes:
        return b"".join(f.tobytes() for f in self.make_frames(seed))

    def build(self, trace, frames) -> dict:
        cfg = VIT_CONFIGS[KERNEL_MODEL]
        weights = functional.init_vit_weights(cfg, seed=0)
        return {"cfg": cfg, "weights": weights, "pack": WeightPack(weights),
                "frames": frames,
                "homography": ops.ground_plane_homography(KERNEL_WIDTH,
                                                          KERNEL_HEIGHT)}

    def replay(self, topo: dict) -> dict:
        """Preprocess and classify the frames one batch at a time."""
        cfg = topo["cfg"]
        size = cfg.img_size
        tally = functional.MacTally()
        logits = []
        frames = topo["frames"]
        for first in range(0, len(frames), self.batch):
            inputs = []
            for frame in frames[first:first + self.batch]:
                warped = ops.warp_perspective(frame, topo["homography"],
                                              KERNEL_HEIGHT, KERNEL_WIDTH)
                small = ops.resize_bilinear(warped, size, size)
                inputs.append(ops.to_chw(
                    ops.normalize(small, IMAGENET_MEAN, IMAGENET_STD)))
            logits.append(functional.vit_forward(
                cfg, topo["weights"], np.stack(inputs), tally,
                pack=topo["pack"]))
        topo["logits"] = np.concatenate(logits)
        topo["macs"] = tally.macs
        return topo

    def analytic_macs(self) -> float:
        return get_model(KERNEL_MODEL).graph.total_macs() * self.frames

    def count(self, result: dict) -> int:
        return len(result["logits"])

    def check(self, result: dict) -> list[str]:
        errors = []
        logits = result["logits"]
        expected = (self.frames, result["cfg"].num_classes)
        if logits.shape != expected:
            errors.append(f"logits shape {logits.shape} != {expected}")
        if not np.all(np.isfinite(logits)):
            errors.append("non-finite logits")
        if result["macs"] != self.analytic_macs():
            errors.append(f"MAC tally {result['macs']:.0f} != analytic "
                          f"{self.analytic_macs():.0f}")
        return errors

    def digest(self, result: dict) -> dict:
        logits = result["logits"].astype(np.float64)
        return {
            "images": int(len(logits)),
            "macs": int(result["macs"]),
            "argmax_sha1": hashlib.sha1(
                np.argmax(logits, axis=1).astype(np.int64).tobytes()
            ).hexdigest()[:16],
            "logits_checksum": round(float(np.abs(logits).sum()), 3),
        }


WORKLOADS = {
    "continuum_churn": ContinuumWorkload("continuum_churn",
                                         scene_change_rate=0.9),
    "continuum_static": ContinuumWorkload("continuum_static",
                                          scene_change_rate=0.0,
                                          scene_frames=75,
                                          replays=16),
    "burst_day_hybrid": BurstWorkload(),
    "kernels_frames": KernelsWorkload(),
}
