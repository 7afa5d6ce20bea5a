"""One JsonlTraceSink shared across worker threads: no torn lines.

Several recorders on several threads may write through one sink.  The
sink's write lock must serialize whole lines: every line of the resulting file parses as one JSON event, the
count is exact, and no two writers' bytes interleave.
"""

import json
import threading

from repro.clock import SimClock
from repro.obs import JsonlTraceSink, Recorder


class TestSharedSink:
    def test_concurrent_recorders_produce_only_whole_lines(self, tmp_path):
        path = tmp_path / "shared.jsonl"
        workers, each = 8, 400
        barrier = threading.Barrier(workers)
        with JsonlTraceSink(path) as sink:
            recorders = [
                Recorder(clock=SimClock(), sink=sink) for _ in range(workers)
            ]

            def emit(worker_id):
                barrier.wait()
                for i in range(each):
                    recorders[worker_id].emit(
                        "page_fetch",
                        url=f"http://site/{worker_id}/{i}",
                        worker=worker_id,
                        # A long payload makes interleaved partial
                        # writes (if the lock were missing) likely to
                        # tear mid-line and fail the JSON parse below.
                        payload="x" * 256,
                    )

            threads = [
                threading.Thread(target=emit, args=(w,)) for w in range(workers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()

        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == workers * each
        seen = set()
        for line in lines:
            event = json.loads(line)  # raises on a torn line
            assert event["kind"] == "page_fetch"
            seen.add(event["url"])
        # Every emitted event appears exactly once, none lost.
        assert len(seen) == workers * each

    def test_write_after_close_still_rejected(self, tmp_path):
        sink = JsonlTraceSink(tmp_path / "t.jsonl")
        recorder = Recorder(clock=SimClock(), sink=sink)
        recorder.emit("page_fetch", url="u")
        sink.close()
        try:
            recorder.emit("page_fetch", url="late")
        except ValueError as error:
            assert "closed" in str(error)
        else:  # pragma: no cover
            raise AssertionError("write on a closed sink must raise")

    def test_wall_clock_recorder_annotates_events(self, tmp_path):
        """wall_clock=True adds a wall_ms field; default leaves it out
        (golden traces must not change)."""
        plain = Recorder(clock=SimClock())
        walled = Recorder(clock=SimClock(), wall_clock=True)
        plain_event = plain.emit("page_fetch", url="u")
        walled_event = walled.emit("page_fetch", url="u")
        assert "wall_ms" not in plain_event.fields
        assert walled_event.fields["wall_ms"] >= 0.0
