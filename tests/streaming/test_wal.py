"""RatingsWAL: durability, torn-tail recovery, rotation, truncation."""

import os

import pytest

from repro.streaming.wal import RatingsWAL, WalError, WalRecord


def append_many(wal, count, start=0):
    for i in range(start, start + count):
        wal.append(user=i % 5, item=i % 7, rating=1.0 + (i % 4))


class TestAppendReplay:
    def test_append_returns_consecutive_seqs(self, tmp_path):
        with RatingsWAL(tmp_path) as wal:
            assert [wal.append(0, 1, 2.0), wal.append(1, 2, 3.0)] == [0, 1]
            assert wal.last_seq == 1

    def test_replay_round_trips_records(self, tmp_path):
        with RatingsWAL(tmp_path) as wal:
            wal.append(3, 4, 2.5)
            wal.append_barrier()
            wal.append(1, 0, 5.0)
            records = wal.replay()
        assert [r.kind for r in records] == ["rating", "barrier", "rating"]
        assert records[0] == WalRecord(seq=0, kind="rating", user=3, item=4, rating=2.5)
        assert records[2].seq == 2 and records[2].rating == 5.0

    def test_reopen_resumes_sequence(self, tmp_path):
        with RatingsWAL(tmp_path) as wal:
            append_many(wal, 3)
        with RatingsWAL(tmp_path) as wal:
            assert wal.last_seq == 2
            assert wal.append(0, 0, 1.0) == 3
            assert len(wal.replay()) == 4


class TestRotation:
    def test_segments_rotate_at_threshold(self, tmp_path):
        with RatingsWAL(tmp_path, segment_records=3) as wal:
            append_many(wal, 8)
        names = sorted(n for n in os.listdir(tmp_path) if n.endswith(".log"))
        assert names == ["wal-000000.log", "wal-000001.log", "wal-000002.log"]
        with RatingsWAL(tmp_path, segment_records=3) as wal:
            assert [r.seq for r in wal.replay()] == list(range(8))

    def test_truncate_through_deletes_covered_segments_only(self, tmp_path):
        wal = RatingsWAL(tmp_path, segment_records=2)
        append_many(wal, 6)  # segments: [0,1] [2,3] [4,5]
        deleted = wal.truncate_through(3)
        assert [os.path.basename(p) for p in deleted] == [
            "wal-000000.log", "wal-000001.log",
        ]
        assert [r.seq for r in wal.replay()] == [4, 5]
        # The active segment is never deleted, even when fully covered.
        assert wal.truncate_through(5) == []
        wal.close()


class TestTornTail:
    def test_reopen_truncates_torn_record(self, tmp_path):
        wal = RatingsWAL(tmp_path)
        append_many(wal, 3)
        wal.append_torn(9, 9, 9.0)
        wal.close()
        recovered = RatingsWAL(tmp_path)
        assert recovered.truncated_bytes > 0
        assert [r.seq for r in recovered.replay()] == [0, 1, 2]
        # The log is append-ready again and the torn record never acked.
        assert recovered.append(0, 0, 1.0) == 3
        recovered.close()

    def test_repair_tail_in_place(self, tmp_path):
        wal = RatingsWAL(tmp_path)
        append_many(wal, 2)
        wal.append_torn(9, 9, 9.0, keep_bytes=5)
        dropped = wal.repair_tail()
        assert dropped == 5
        assert wal.append(7, 7, 4.0) == 2
        assert [r.seq for r in wal.replay()] == [0, 1, 2]
        wal.close()

    def test_repair_tail_on_clean_log_is_noop(self, tmp_path):
        wal = RatingsWAL(tmp_path)
        append_many(wal, 2)
        assert wal.repair_tail() == 0
        wal.close()

    def test_crc_flip_at_tail_is_torn(self, tmp_path):
        wal = RatingsWAL(tmp_path)
        append_many(wal, 3)
        wal.close()
        path = tmp_path / "wal-000000.log"
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF  # corrupt the final record's checksum
        path.write_bytes(bytes(blob))
        recovered = RatingsWAL(tmp_path)
        assert [r.seq for r in recovered.replay()] == [0, 1]
        recovered.close()

    def test_torn_header_rewritten_fresh(self, tmp_path):
        wal = RatingsWAL(tmp_path)
        wal.close()
        path = tmp_path / "wal-000000.log"
        path.write_bytes(path.read_bytes()[:3])  # crash mid-header
        recovered = RatingsWAL(tmp_path)
        assert recovered.replay() == []
        assert recovered.append(1, 1, 1.0) == 0
        recovered.close()


class TestCorruption:
    def test_interior_corruption_raises(self, tmp_path):
        wal = RatingsWAL(tmp_path, segment_records=2)
        append_many(wal, 4)  # two segments; first is non-final
        wal.close()
        path = tmp_path / "wal-000000.log"
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(WalError, match="non-final"):
            RatingsWAL(tmp_path, segment_records=2)

    def test_sequence_gap_raises(self, tmp_path):
        wal = RatingsWAL(tmp_path, segment_records=2)
        append_many(wal, 4)
        wal.close()
        os.unlink(tmp_path / "wal-000000.log")  # drops seqs 0-1
        with pytest.raises(WalError, match="sequence gap"):
            RatingsWAL(tmp_path, segment_records=2)

    def test_closed_wal_refuses_appends(self, tmp_path):
        wal = RatingsWAL(tmp_path)
        wal.close()
        with pytest.raises(WalError, match="closed"):
            wal.append(0, 0, 1.0)

    def test_segment_records_validated(self, tmp_path):
        with pytest.raises(ValueError, match="segment_records"):
            RatingsWAL(tmp_path, segment_records=0)
