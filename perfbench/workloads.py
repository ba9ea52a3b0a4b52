"""The benchmark's three workloads, driven through the public API only.

Each workload splits into four steps so the driver can time them apart:

* ``__init__(seed, smoke)`` is the generator.  It turns the seed into
  plain input data (titles, requests, clip frames and audio, edit
  positions) before anything is timed; the program only ever sees
  those inputs.
* ``setup(clock)`` builds drives and nodes, records the catalog and
  warms caches.  It marks a lap per title recorded or warmed (per clip
  on newsroom); the driver reports the set-up's host time as
  ``setup_s``.
* ``timed(system, clock)`` is the timed phase: serving (vod-disk,
  vod-hot) or the ingest/edit/preview/delete cycles (newsroom).  It
  marks laps on *clock* (a node's serve, one newsroom cycle) and runs
  benchmark-side checks inside ``clock.untimed()``.
* ``summarize(system, raw)`` turns the phase's outputs into an
  :class:`Outcome` and runs the output checks.  It is not timed.

Every simulated number in an :class:`Outcome` is a pure function of the
seed, so two iterations with the same seed must agree byte for byte;
the driver checks that.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api import Media, OpenSessionRequest, SessionState
from repro.cluster import (
    CatalogTitle,
    ClusterNode,
    MediaCluster,
    PlacementPolicy,
    build_cluster,
    build_node,
    cluster_observability,
)
from repro.config import TESTBED_1991
from repro.disk import build_drive
from repro.fs import MultimediaStorageManager
from repro.media import frames_for_duration, generate_talk_spurts
from repro.rope import MultimediaRopeServer
from repro.server import MediaServer
from repro.service import PlaybackSession

__all__ = ["Outcome", "WORKLOADS", "VodDisk", "VodHot", "Newsroom"]


@dataclass
class Outcome:
    """What one iteration's timed phase produced, with its checks.

    ``blocks`` counts simulated media blocks delivered, stored or copied
    in the timed phase.  ``checks`` maps a check name to whether it
    held.  ``edits`` counts edit calls and ``edit_failures`` those that
    raised.
    """

    offered: int
    rejected: int
    continuous: int
    drives: int
    blocks: int
    startups: List[float]
    space_amp: float
    evictions: int = 0
    edits: int = 0
    edit_failures: int = 0
    edit_seconds: List[float] = field(default_factory=list)
    checks: Dict[str, bool] = field(default_factory=dict)
    digest: str = ""

    def sim_metrics(self) -> Dict[str, float]:
        """The simulated-outcome metrics (exact per seed)."""
        return {
            "continuous_ratio": self.continuous / self.offered,
            "sessions_per_drive": self.continuous / self.drives,
            "space_amp": self.space_amp,
            "startup_p50_sim_s": percentile(self.startups, 0.50),
            "startup_p95_sim_s": percentile(self.startups, 0.95),
        }


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (0.0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 1))
    return ordered[int(rank) - 1]


def digest_of(payload) -> str:
    """SHA-256 of *payload*'s canonical JSON (floats at repr precision)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _testbed_msm() -> MultimediaStorageManager:
    profile = TESTBED_1991
    return MultimediaStorageManager(
        build_drive(),
        profile.video,
        profile.audio,
        profile.video_device,
        profile.audio_device,
    )


def admission_capacity(msm: MultimediaStorageManager) -> int:
    """The §3.4 n_max the storage manager's own controller reports for
    video playback sessions."""
    return msm.admission.capacity(msm.descriptor_for_media(True))


def check_sequences(server: MediaServer, result) -> Tuple[bool, int]:
    """Check one MediaServer epoch's delivered blocks against the plan.

    For every completed session, the slot sequence the server reports
    as fetched must equal the ``fetch_sequence`` recomputed from the
    rope, and the count of blocks delivered must equal its length.
    Returns (ok, slots read), where slots read excludes silence holders.
    """
    playback = PlaybackSession(server.mrs)
    ok = True
    slots_read = 0
    for status in result.statuses:
        if status.state is not SessionState.COMPLETED:
            continue
        expected = tuple(
            fetch.slot for fetch in playback.fetch_sequence(status.request_id)
        )
        delivered = result.block_sequences.get(status.session_id)
        if delivered != expected or status.blocks_delivered != len(expected):
            ok = False
        slots_read += sum(1 for slot in expected if slot is not None)
    return ok, slots_read


def referenced_slots(mrs: MultimediaRopeServer) -> int:
    """Distinct media slots inside the intervals of every live rope."""
    slots = set()
    for rope_id in mrs.rope_ids():
        for segment in mrs.get_rope(rope_id).segments:
            for track in (segment.video, segment.audio):
                if track is None:
                    continue
                strand = mrs.msm.get_strand(track.strand_id)
                for number in range(track.first_block, track.last_block + 1):
                    slot = strand.slot_of(number)
                    if slot is not None:
                        slots.add(slot)
    return len(slots)


def space_accounting_ok(msm: MultimediaStorageManager) -> bool:
    """Allocated slots equal the media and index slots of live strands."""
    held = 0
    for strand_id in msm.strand_ids():
        strand = msm.get_strand(strand_id)
        held += len(strand.slots()) + len(strand.index.assigned_slots())
    return held == msm.freemap.used_count


class _ClusterWorkload:
    """Shared summary and checks of the two cluster workloads."""

    def timed(self, system, clock):
        cluster, _before, _checks = system
        with clock.laps_around(ClusterNode, "serve"):
            return cluster.serve(self.requests)

    @staticmethod
    def _counters(cluster: MediaCluster) -> Dict[str, int]:
        totals = {"reads": 0, "hits": 0, "misses": 0, "evictions": 0}
        for node in cluster.nodes:
            totals["reads"] += node.server.mrs.msm.drive.stats.reads
            stats = node.server.cache.stats
            totals["hits"] += stats.hits
            totals["misses"] += stats.misses
            totals["evictions"] += stats.evictions
        return totals

    def summarize(self, system, result) -> Outcome:
        cluster, before, checks = system
        after = self._counters(cluster)
        nodes = {node.node_id: node for node in cluster.nodes}
        sequences_ok = True
        slots_read = 0
        for node_result in result.per_node:
            server = nodes[node_result.node_id].server
            for epoch in node_result.results:
                ok, slots = check_sequences(server, epoch)
                sequences_ok = sequences_ok and ok
                slots_read += slots
        lookups = (after["hits"] - before["hits"]) + (
            after["misses"] - before["misses"]
        )
        reads = after["reads"] - before["reads"]
        admitted = [
            s for s in result.statuses if s.state is not SessionState.REJECTED
        ]
        space_used = sum(
            node.server.mrs.msm.freemap.used_count for node in cluster.nodes
        )
        space_live = sum(
            referenced_slots(node.server.mrs) for node in cluster.nodes
        )
        checks = {
            **checks,
            "admitted_plus_rejected_equals_offered": (
                result.admitted + len(result.rejects) == len(self.requests)
            ),
            "delivered_sequence_equals_fetch_sequence": sequences_ok,
            "cache_lookups_equal_blocks_read": lookups == slots_read,
            "drive_reads_equal_cache_misses": (
                reads == after["misses"] - before["misses"]
            ),
        }
        return Outcome(
            offered=len(self.requests),
            rejected=len(result.rejects),
            continuous=result.continuous_sessions,
            drives=len(cluster.nodes),
            blocks=sum(s.blocks_delivered for s in result.statuses),
            startups=[s.startup_latency for s in admitted],
            space_amp=space_used / space_live,
            evictions=after["evictions"] - before["evictions"],
            checks=checks,
            digest=digest_of(result.to_dict()),
        )


class VodDisk(_ClusterWorkload):
    """Feasible load that binds the disk: every node at its own n_max."""

    name = "vod-disk"

    def __init__(self, seed: int, smoke: bool = False):
        rng = random.Random(seed)
        self.node_ids = [f"node-{i:02d}" for i in range(2 if smoke else 8)]
        self.capacity = admission_capacity(_testbed_msm())
        sessions = len(self.node_ids) * self.capacity
        low, high = (60, 75) if smoke else (100, 140)
        names = rng.sample(range(100_000, 1_000_000), sessions)
        self.catalog = tuple(
            CatalogTitle(
                title_id=f"V{name}",
                seconds=float(rng.randint(low, high)),
                popularity=1.0,
            )
            for name in names
        )
        self.clients = [f"viewer-{i}" for i in range(sessions)]
        order = list(range(sessions))
        rng.shuffle(order)
        self.requests = [
            OpenSessionRequest(
                client_id=self.clients[i],
                rope_id=self.catalog[i].title_id,
                arrival=rng.uniform(0.0, 0.1),
                media=Media.VIDEO,
            )
            for i in order
        ]

    def setup(self, clock):
        # One replica per title: each title's only replica sits on a node
        # that holds exactly n_max titles, so routing never rejects.
        placement = PlacementPolicy(min_replicas=1).plan(
            self.catalog, self.node_ids, self.capacity
        )
        nodes = []
        capacity_ok = True
        with clock.laps_around(ClusterNode, "record_title"):
            for node_id in self.node_ids:
                node = build_node(node_id, capacity=self.capacity)
                capacity_ok = capacity_ok and (
                    admission_capacity(node.server.mrs.msm) == self.capacity
                )
                for title in self.catalog:
                    if node_id in placement.replicas(title.title_id):
                        node.record_title(title, self.clients)
                nodes.append(node)
        cluster = MediaCluster(nodes, placement)
        checks = {"node_capacity_equals_admission_n_max": capacity_ok}
        return cluster, self._counters(cluster), checks


class VodHot(_ClusterWorkload):
    """Zipf catalog on warmed replicas, served from cache with obs on."""

    name = "vod-hot"
    #: 71 blocks per title: the replicas a node holds fit its 512-block
    #: cache together, so after warming every read is a hit.
    TITLE_SECONDS = 9.375

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.nodes = 4 if smoke else 20
        self.titles = 8 if smoke else 40
        sessions = 100 if smoke else 1000
        self.clients = [f"client-{i}" for i in range(sessions)]
        rng = random.Random(seed)
        ranks = range(1, self.titles + 1)
        weights = [1.0 / rank for rank in ranks]
        window = 0.25
        self.requests = [
            OpenSessionRequest(
                client_id=client,
                rope_id=f"T{rng.choices(ranks, weights=weights)[0]:02d}",
                arrival=rng.uniform(0.0, window / 2.0),
                media=Media.VIDEO,
            )
            for client in self.clients
        ]

    def setup(self, clock):
        with clock.laps_around(ClusterNode, "record_title"), \
                clock.laps_around(ClusterNode, "warm"):
            cluster, _catalog = build_cluster(
                nodes=self.nodes,
                titles=self.titles,
                seconds=self.TITLE_SECONDS,
                per_node_streams=75,
                min_replicas=2,
                clients=self.clients,
                obs=cluster_observability(self.seed),
            )
        return cluster, self._counters(cluster), {}


@dataclass(frozen=True)
class _Clip:
    seconds: float
    frames: tuple
    chunks: tuple


@dataclass(frozen=True)
class _Cycle:
    """Edit positions of one newsroom cycle, in seconds."""

    intro_start: float
    insert_at: float
    insert_from: float
    dub_at: float
    dub_from: float
    cutaway_at: float
    cutaway_from: float
    trim_at: float


class Newsroom:
    """Steady-state editing on one drive: ingest, edit, preview, delete."""

    name = "newsroom"
    USER = "editor"
    CYCLES = 300
    #: Clips already on the drive before the first cycle.
    ARCHIVE = 40

    def __init__(self, seed: int, smoke: bool = False):
        # The edit script (clip lengths and edit positions) is the same
        # for every seed; the seed picks the footage: frame content and
        # the talk spurts that silence elimination keeps or drops.
        footage = random.Random(seed)
        script = random.Random(0)
        profile = TESTBED_1991
        cycles = 5 if smoke else self.CYCLES
        archive = 2 if smoke else self.ARCHIVE
        self.clips = []
        for index in range(archive + cycles + 2):
            seconds = round(script.uniform(10.0, 16.0), 3)
            self.clips.append(_Clip(
                seconds=seconds,
                frames=tuple(frames_for_duration(
                    profile.video, seconds, source=f"clip-{seed}-{index}"
                )),
                chunks=tuple(generate_talk_spurts(
                    profile.audio, seconds, 0.3, footage
                )),
            ))
        self.archive = self.clips[:archive]
        self.clips = self.clips[archive:]
        self.cycles = []
        for index in range(cycles):
            a, b, c = self.clips[index:index + 3]
            self.cycles.append(_Cycle(
                intro_start=script.uniform(0.5, a.seconds - 5.5),
                insert_at=script.uniform(1.0, 4.0),
                insert_from=script.uniform(0.0, b.seconds - 4.5),
                dub_at=script.uniform(0.5, 5.0),
                dub_from=script.uniform(0.0, b.seconds - 3.5),
                cutaway_at=script.uniform(6.0, 8.0),
                cutaway_from=script.uniform(0.0, c.seconds - 2.5),
                trim_at=script.uniform(3.0, 6.0),
            ))

    def _ingest(self, mrs: MultimediaRopeServer, clip: _Clip) -> Tuple[str, int]:
        request_id, rope_id = mrs.record(
            self.USER, frames=clip.frames, chunks=clip.chunks,
            play_access=(self.USER,),
        )
        mrs.stop(request_id)
        stored = 0
        for track in (mrs.get_rope(rope_id).segments[0].video,
                      mrs.get_rope(rope_id).segments[0].audio):
            stored += mrs.msm.get_strand(track.strand_id).stored_block_count
        return rope_id, stored

    def setup(self, clock):
        mrs = MultimediaRopeServer(_testbed_msm())
        server = MediaServer(mrs)
        live = []
        for clip in self.archive + self.clips[:2]:
            live.append(self._ingest(mrs, clip)[0])
            clock.lap()
        return server, live[-2:]

    def timed(self, system, clock):
        server, live = system
        mrs = server.mrs
        user = self.USER
        now = time.perf_counter
        edit_seconds: List[float] = []
        previews = []
        repairs = []
        plans_ok = True
        failures = 0
        stored = copied = 0
        media = Media.AUDIO_VISUAL
        for index, cyc in enumerate(self.cycles):
            rope_id, blocks = self._ingest(mrs, self.clips[index + 2])
            stored += blocks
            live.append(rope_id)
            a, b, c = live[-3:]
            bulletin: Optional[str] = None
            edits = (
                lambda: mrs.substring(user, a, media, cyc.intro_start, 5.0),
                lambda: mrs.insert(
                    user, bulletin, cyc.insert_at, media, b,
                    cyc.insert_from, 4.0,
                ),
                lambda: mrs.concate(user, bulletin, c),
                lambda: mrs.replace(
                    user, bulletin, Media.AUDIO, cyc.dub_at, 3.0, b,
                    cyc.dub_from, 3.0,
                ),
                lambda: mrs.insert(
                    user, bulletin, cyc.cutaway_at, Media.VIDEO, c,
                    cyc.cutaway_from, 2.0,
                ),
                lambda: mrs.delete(user, bulletin, media, cyc.trim_at, 1.5),
            )
            for edit in edits:
                started = now()
                try:
                    rope = edit()
                except Exception:
                    failures += 1
                    if failures == 1:
                        traceback.print_exc(file=sys.stderr)
                    continue
                finally:
                    edit_seconds.append(now() - started)
                bulletin = rope.rope_id
                report = mrs.last_repair
                repairs.append(report)
                if report is not None:
                    copied += report.blocks_copied
            if bulletin is None:
                clock.lap()
                continue
            result = server.serve([
                OpenSessionRequest(client_id=user, rope_id=bulletin, media=media)
            ])
            previews.append(result)
            with clock.untimed():
                # The bulletin and its strands are gone after the delete
                # below, so its plan is checked here, off the clock.
                plans_ok = plans_ok and check_sequences(server, result)[0]
            mrs.delete_rope(user, bulletin)
            mrs.delete_rope(user, live.pop(0))
            clock.lap()
        return {
            "previews": previews,
            "repairs": repairs,
            "edit_seconds": edit_seconds,
            "edit_failures": failures,
            "plans_ok": plans_ok,
            "stored": stored,
            "copied": copied,
        }

    def summarize(self, system, raw) -> Outcome:
        server, _live = system
        mrs = server.mrs
        previews = raw["previews"]
        statuses = [s for result in previews for s in result.statuses]
        delivered = sum(
            s.blocks_delivered for s in statuses
            if s.state is SessionState.COMPLETED
        )
        admitted = [s for s in statuses if s.state is not SessionState.REJECTED]
        rejected = sum(len(result.rejects) for result in previews)
        continuous = sum(
            1 for s in statuses
            if s.state is SessionState.COMPLETED and s.misses == 0
            and s.skips == 0
        )
        checks = {
            "admitted_plus_rejected_equals_offered": (
                len(admitted) + rejected == len(self.cycles)
            ),
            "delivered_sequence_equals_fetch_sequence": raw["plans_ok"],
            "allocated_slots_equal_live_strand_slots": space_accounting_ok(
                mrs.msm
            ),
        }
        payload = {
            "previews": [r.to_dict() for r in previews],
            "repairs": [
                None if r is None else [
                    r.seams_checked, r.seams_violating, r.seams_repaired,
                    r.blocks_copied, r.residual_violations,
                ]
                for r in raw["repairs"]
            ],
            "used_slots": mrs.msm.freemap.used_count,
        }
        return Outcome(
            offered=len(self.cycles),
            rejected=rejected,
            continuous=continuous,
            drives=1,
            blocks=raw["stored"] + delivered + raw["copied"],
            startups=[s.startup_latency for s in admitted],
            space_amp=mrs.msm.freemap.used_count / referenced_slots(mrs),
            evictions=server.cache.stats.evictions,
            edits=len(raw["edit_seconds"]),
            edit_failures=raw["edit_failures"],
            edit_seconds=raw["edit_seconds"],
            checks=checks,
            digest=digest_of(payload),
        )


WORKLOADS = {cls.name: cls for cls in (VodDisk, VodHot, Newsroom)}
