"""Pinned constants of the benchmark.

Changing any of these changes what the numbers mean: it is a change to
the benchmark, not to the program, and re-bases every baseline.  The
contract file ``BENCHMARK.json`` may hold only the driver's keys, so
sizes, mixes and rates live here.
"""

from __future__ import annotations

#: Set-ups per run (``setup_s`` is their median) and restarts per run
#: (``recovery_s`` is their median).
SETUP_REPEATS = 3
RECOVERY_REPEATS = 5

#: Seed of everything *structural* in the generated inputs: the read
#: workloads' database, which queries the dashboard shows, how many
#: members each streamed interval has.  The run's ``--seed`` draws what
#: may vary without changing how much work an op is: query constants
#: and time windows, the order of ops, attribute values.  (With the
#: structure drawn from ``--seed`` too, the median query cost differed
#: by 25 % between seeds and the server's garbage-collection pauses —
#: the notify tail — moved with every dataset.)
DATASET_SEED = 1
#: Shape of the database behind the two read workloads
#: (``vidb.workloads.WorkloadConfig``).
READ_DB = {"entities": 50, "intervals": 100, "facts": 100}
LOAD_BATCH = 50

# -- adhoc_cold --------------------------------------------------------------
#: One block of the op list: how many ops of each cost class.  Classes
#: are sized so the median falls inside ``mid`` and the 95th percentile
#: inside ``heavy`` — a percentile sitting on a class boundary would
#: flip between two costs from run to run.
ADHOC_BLOCK = {"cheap": 14, "mid": 20, "heavy": 5, "top": 1}
#: Sub-shapes of each class, cycled in this order.
ADHOC_SHAPES = {
    "cheap": ["membership_e", "membership_g", "attribute", "join_c",
              "membership_g", "attribute", "concat"],
    "mid": ["temporal", "pairwise_c", "temporal", "reach", "temporal",
            "pairwise_c", "temporal", "reach", "temporal", "pairwise_c",
            "temporal", "reach", "temporal", "pairwise_c", "temporal",
            "reach", "temporal", "pairwise_c", "temporal", "temporal"],
    "heavy": ["contains"],
    "top": ["same_object_in"],
}
ADHOC_TEMPORAL_WINDOWS = 300
#: The constructive rule is instantiated on one object pair co-occurring
#: in exactly this many intervals.  The engine keeps every constructive
#: rule relevant to any query over ``interval``, so its closure is paid
#: by nearly every op: 2 intervals cost ~7 ms a query, 3 cost ~28 ms,
#: 4 cost ~90 ms, and two rules multiply.
ADHOC_CONCAT_COOCCURRENCE = 2
ADHOC_CONCAT_WINDOWS = 40
#: Result-cache capacity of ``vidb serve`` (its default), which the
#: query population must exceed at least twofold.
SERVER_CACHE_CAPACITY = 256
#: Distinct queries additionally checked against
#: ``QueryEngine(kernel="reference", mode="naive")``.
REFERENCE_SAMPLE = 32

# -- dashboard_routed ---------------------------------------------------------
DASHBOARD_QUERIES = 24
DASHBOARD_ZIPF = 1.1
DASHBOARD_CONNECTIONS = 2
#: Every Nth op of a connection is a write through the router followed
#: by a session-consistent read that must see it.
DASHBOARD_WRITE_EVERY = 8000
#: Replica poll interval (``vidb replicate --interval``): bounds the
#: token wait of the read after a write.
REPLICA_POLL_S = 0.1
#: Cached reads sent straight to the primary, once plain and once with
#: a sampled trace header, for ``obs.traced_request_overhead_ms``.
DASHBOARD_OVERHEAD_OPS = 750

# -- stream_ingest ------------------------------------------------------------
STREAM_ENTITIES = 10
STREAM_INTERVALS = 14000
STREAM_WARMUP_RECORDS = 100
#: ``--checkpoint-every`` of the stream primary: no checkpoint falls
#: inside a run.  Under the default (1000 WAL records) a full snapshot
#: every ~37 commits stalled the writer for 0.2 s growing to 1.5 s as
#: the database grew, and notify latency measured the snapshot writer,
#: not the stream layer; checkpoints are write_recover's subject.
STREAM_CHECKPOINT_EVERY = 10_000_000
STREAM_INGEST_BATCH = 50        # phase A, closed loop
STREAM_COMMIT_BATCH = 5         # phase B, open loop
#: Share of a section spent in phase A; the rest is phase B.
STREAM_PHASE_A_SHARE = 0.4
#: Phase B commit rates (commits per second of STREAM_COMMIT_BATCH
#: records): the gated one, and the two the traced run adds.  The
#: server's cyclic garbage collector pauses it once per ~1000 ingested
#: records, for 25 ms growing with the heap; at 25-record commits and
#: 40 % of saturation a tenth of all notifications queued behind such a
#: pause and the 95th percentile sat in the middle of them, swinging
#: 2.3-fold between runs.  Small commits at a modest record rate keep
#: the pauses under 2 % of the samples: they show in the ungated p99
#: and in ``stream.notify_p95_ms.rate_hi``, not in the gated tail.
STREAM_RATE = 50.0
STREAM_RATE_LO = 25.0
STREAM_RATE_HI = 150.0
#: Latency limit on notify p95 for ``stream.max_rate_within_limit``.
STREAM_NOTIFY_LIMIT_MS = 25.0

# -- write_recover ------------------------------------------------------------
WRITE_CHECKPOINT_EVERY = 1500
#: Before the crash the last set-up writes on, untimed, to this many
#: acknowledged writes (sixteen checkpoints) and then to the WAL tail
#: below, so what is stored, resident and replayed does not depend on
#: how many writes the timed section happened to fit; a section that
#: reaches the count first ends there.
WRITE_SETTLE_MULTIPLE = 8000
#: ``server_rss_mb`` is the median of this many readings of the
#: primary's resident set, one every WRITE_RSS_EVERY acknowledged writes
#: (two per checkpoint), ending at the pinned state.
WRITE_RSS_EVERY = 250
WRITE_RSS_SAMPLES = 12
#: WAL records outstanding at the SIGKILL.
WRITE_KILL_TAIL_RECORDS = 1000
WRITE_WARMUP_OPS = 30

# -- traced ladder -------------------------------------------------------------
#: Share of ``--seconds`` the traced run spends in its (untraced)
#: counting section; the ladder replays a sample afterwards.
TRACED_SECTION_SHARE = 0.4
LADDER_READ_OPS = 40
LADDER_WRITE_COMMITS = 40
