"""A serving replica for tests: a read-only executor over a follower of
a primary's data directory, answering on an ephemeral port.

Nothing follows in the background unless a test asks for it
(``service.start_following()``); tests step replication by hand with
``server.service.replicate()``.
"""

from vidb.durability import Replica
from vidb.service import ServiceExecutor, VideoServer


def serve_replica(data_dir, **options) -> VideoServer:
    service = ServiceExecutor(Replica.from_data_dir(data_dir), **options)
    return VideoServer(service).start_background()


def close_replica(server: VideoServer) -> None:
    server.shutdown()
    server.service.close()
