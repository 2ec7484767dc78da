import os
import stat
import struct

import numpy as np
import pytest

from sunet import io as sio
from sunet.io import DataError


def test_checkpoint_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    entries = {
        "param/a.w": rng.normal(size=(4, 3, 3, 3)).astype(np.float32),
        "stat/a.running_mean": rng.normal(size=(1, 4, 1, 1)),
        "vel/a.w": np.zeros((4, 3, 3, 3), dtype=np.float32),
    }
    p1 = tmp_path / "c1.sunc"
    sio.write_checkpoint(p1, entries, iteration=17, graph_digest="ab" * 32)
    back, iteration, digest = sio.read_checkpoint(p1)
    assert iteration == 17
    assert digest == "ab" * 32
    assert set(back) == set(entries)
    for k in entries:
        assert np.array_equal(back[k], entries[k])
        assert back[k].dtype == entries[k].dtype
    p2 = tmp_path / "c2.sunc"
    sio.write_checkpoint(p2, back, iteration=iteration, graph_digest=digest)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_bad_magic(tmp_path):
    p = tmp_path / "c.sunc"
    p.write_bytes(b"XXXX" + b"\x00" * 40)
    with pytest.raises(DataError):
        sio.read_checkpoint(p)


def _entries(seed):
    rng = np.random.default_rng(seed)
    return {"param/a.w": rng.normal(size=(4, 3, 3, 3)).astype(np.float32),
            "stat/a.running_mean": rng.normal(size=(1, 4, 1, 1))}


def test_checkpoint_write_crash_keeps_previous(tmp_path, monkeypatch):
    p = tmp_path / "checkpoint.sunc"
    old = _entries(0)
    sio.write_checkpoint(p, old, iteration=3, graph_digest="cd" * 32)

    class Crash(Exception):
        pass

    class CrashingFile:
        """Passes the header through, then dies on the entry table."""
        def __init__(self, fh):
            self.fh, self.calls = fh, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.calls += 1
            if self.calls > 3:
                raise Crash("process died mid-write")
            return self.fh.write(data)

    monkeypatch.setattr(sio, "open", lambda *a, **k: CrashingFile(open(*a, **k)),
                        raising=False)
    with pytest.raises(Crash):
        sio.write_checkpoint(p, _entries(1), iteration=4, graph_digest="cd" * 32)
    monkeypatch.undo()

    back, iteration, _ = sio.read_checkpoint(p)
    assert iteration == 3
    for k in old:
        assert np.array_equal(back[k], old[k])
    assert [f.name for f in tmp_path.iterdir()] == ["checkpoint.sunc"]


def test_checkpoint_synced_before_rename(tmp_path, monkeypatch):
    events, real_fsync, real_replace = [], os.fsync, os.replace

    def fsync(fd):
        st = os.fstat(fd)
        events.append(("fsync dir",) if stat.S_ISDIR(st.st_mode)
                      else ("fsync file", st.st_size))
        real_fsync(fd)

    def replace(src, dst):
        events.append(("replace",))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    p = tmp_path / "checkpoint.sunc"
    sio.write_checkpoint(p, _entries(0), iteration=1, graph_digest="ef" * 32)
    # the file is synced whole, before the rename; its directory after
    assert events == [("fsync file", p.stat().st_size), ("replace",),
                      ("fsync dir",)]


@pytest.mark.parametrize("cut", [6, 17, 40, 80, 100])
def test_checkpoint_truncated_header_is_data_error(tmp_path, cut):
    p = tmp_path / "c.sunc"
    sio.write_checkpoint(p, _entries(0), iteration=1, graph_digest="ef" * 32)
    p.write_bytes(p.read_bytes()[:cut])
    with pytest.raises(DataError, match="c.sunc"):
        sio.read_checkpoint(p)


@pytest.mark.parametrize("field,at", [("graph digest", 18), ("entry 0 name", 18 + 64 + 4 + 2)],
                         ids=["digest", "entry-name"])
def test_checkpoint_non_utf8_header_is_data_error(tmp_path, field, at):
    # byte 18 opens the 64-byte digest; the first entry name follows the
    # 4-byte entry count and its own 2-byte length
    p = tmp_path / "c.sunc"
    sio.write_checkpoint(p, _entries(0), iteration=1, graph_digest="ef" * 32)
    blob = bytearray(p.read_bytes())
    blob[at] = 0xFF
    p.write_bytes(bytes(blob))
    with pytest.raises(DataError, match=f"c.sunc: {field} is not UTF-8"):
        sio.read_checkpoint(p)


# (2**32, 2**32, 1, 1) elements: the product wraps to 0 in int64, so a
# header that claims them with an empty payload must still be refused
HUGE = (2 ** 32, 2 ** 32, 1, 1)


def test_checkpoint_header_shape_overflow_is_data_error(tmp_path):
    p = tmp_path / "c.sunc"
    p.write_bytes(sio.CHECKPOINT_MAGIC + struct.pack("<IQ", sio.FORMAT_VERSION, 1)
                  + struct.pack("<H", 0) + struct.pack("<I", 1)
                  + struct.pack("<H", 1) + b"a" + struct.pack("<B4QQQ", 0, *HUGE, 0, 0))
    with pytest.raises(DataError, match="c.sunc: entry 'a' is truncated or mis-sized"):
        sio.read_checkpoint(p)


def test_ppm_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    img = rng.integers(0, 256, size=(9, 7, 3), dtype=np.uint8)
    p = tmp_path / "img.ppm"
    sio.write_ppm(p, img)
    assert np.array_equal(sio.read_ppm(p), img)


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    mask = rng.integers(0, 256, size=(5, 8), dtype=np.uint8)
    p = tmp_path / "m.pgm"
    sio.write_pgm(p, mask)
    assert np.array_equal(sio.read_pgm(p), mask)


def test_pgm_truncated_payload(tmp_path):
    p = tmp_path / "short.pgm"
    p.write_bytes(b"P5\n4 4\n255\n\x00\x01")
    with pytest.raises(DataError):
        sio.read_pgm(p)


@pytest.mark.parametrize("size", ["0 0", "0 4", "4 0"])
def test_pnm_rejects_empty_raster(tmp_path, size):
    p = tmp_path / "e.pgm"
    p.write_bytes(f"P5\n{size}\n255\n".encode())
    with pytest.raises(DataError, match="e.pgm: empty"):
        sio.read_pgm(p)


def test_ppm_rejects_wrong_magic(tmp_path):
    p = tmp_path / "m.ppm"
    sio.write_pgm(tmp_path / "m.pgm", np.zeros((2, 2), dtype=np.uint8))
    with pytest.raises(DataError):
        sio.read_ppm(tmp_path / "m.pgm")
