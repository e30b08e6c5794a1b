"""``repro storage status|compact`` driven through :func:`repro.cli.main`.

A small durable cluster writes one seat store per seat under a
``wal_dir``; the offline commands must inventory those stores, compact
them (and say so when there is nothing left to compact), honour
``--seat``, and refuse — untouched — a directory still holding the
``*.wal`` files of the removed flat engine. Segment and snapshot files
of format version 1 end the command with a message, not a traceback.
"""

from __future__ import annotations

import re

import pytest

from helpers import make_cluster, make_documents
from repro.cli import main

SEATS = ("pod0-server-0", "pod0-server-1", "pod0-server-2")


@pytest.fixture()
def wal_dir(tmp_path):
    """A closed 1-pod, 3-seat cluster's ``wal_dir`` and its live counts."""
    directory = tmp_path / "wals"
    cluster = make_cluster(
        make_documents(8), num_pods=1, n=3, wal_dir=directory
    )
    counts = {
        slot.server_id: slot.server.num_elements for slot in cluster.pods[0].slots
    }
    cluster.close()
    assert set(counts) == set(SEATS) and all(counts.values())
    return directory, counts


def _listing(directory):
    return {
        str(path.relative_to(directory)): (
            None if path.is_dir() else path.read_bytes()
        )
        for path in sorted(directory.rglob("*"))
    }


def _seat_lines(out):
    """seat name -> its inventory line."""
    return {
        line.split()[0]: line
        for line in out.splitlines()
        if line.startswith("  ")
    }


def test_status_inventories_every_seat(wal_dir, capsys):
    directory, counts = wal_dir
    assert main(["storage", "status", "--dir", str(directory)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == f"3 seat stores under {directory}"
    lines = _seat_lines(out)
    assert sorted(lines) == list(SEATS)
    for seat, line in lines.items():
        assert f"{counts[seat]:7d} live records" in line
        # Never compacted: no snapshot, the whole history in segment 1.
        assert "snapshot -, 1 segments (live seg-00000001)" in line


def test_compact_then_already_compact(wal_dir, capsys):
    directory, counts = wal_dir
    assert main(["storage", "compact", "--dir", str(directory)]) == 0
    lines = _seat_lines(capsys.readouterr().out)
    assert sorted(lines) == list(SEATS)
    for seat, line in lines.items():
        match = re.search(r"snapshot of (\d+) records, (\d+) -> (\d+) B", line)
        assert match, line
        assert int(match.group(1)) == counts[seat]

    assert main(["storage", "status", "--dir", str(directory)]) == 0
    for seat, line in _seat_lines(capsys.readouterr().out).items():
        assert f"{counts[seat]:7d} live records" in line
        assert "snapshot snap-00000002.zsnap, 1 segments" in line

    assert main(["storage", "compact", "--dir", str(directory)]) == 0
    lines = _seat_lines(capsys.readouterr().out)
    assert {seat: line.split()[1:] for seat, line in lines.items()} == {
        seat: ["already", "compact"] for seat in SEATS
    }


def test_seat_filter_selects_one_store(wal_dir, capsys):
    directory, counts = wal_dir
    argv = ["storage", "status", "--dir", str(directory)]
    assert main(argv + ["--seat", "pod0-server-1"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == f"1 seat stores under {directory}"
    assert list(_seat_lines(out)) == ["pod0-server-1"]

    before = _listing(directory)
    assert main(
        ["storage", "compact", "--dir", str(directory), "--seat", "pod0-server-2"]
    ) == 0
    assert list(_seat_lines(capsys.readouterr().out)) == ["pod0-server-2"]
    after = _listing(directory)
    for seat in ("pod0-server-0", "pod0-server-1"):
        assert {k: v for k, v in after.items() if k.startswith(seat)} == {
            k: v for k, v in before.items() if k.startswith(seat)
        }


def test_unknown_seat_exits_with_its_name(wal_dir):
    directory, _counts = wal_dir
    with pytest.raises(SystemExit) as excinfo:
        main(["storage", "status", "--dir", str(directory), "--seat", "ghost"])
    assert excinfo.value.code == (
        f"no seat store named ['ghost'] under {directory}"
    )


def test_empty_directory_exits_with_a_message(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["storage", "status", "--dir", str(tmp_path)])
    assert excinfo.value.code == f"no seat stores found under {tmp_path}"


@pytest.mark.parametrize("command", ["status", "compact"])
def test_flat_era_directory_is_refused_untouched(wal_dir, command):
    directory, _counts = wal_dir
    legacy = ("pod0-server-0.wal", "pod0-server-1.wal")
    for name in legacy:
        (directory / name).write_text("I 0 1 0 42\n")
    before = _listing(directory)
    with pytest.raises(SystemExit) as excinfo:
        main(["storage", command, "--dir", str(directory)])
    message = excinfo.value.code
    assert isinstance(message, str)  # a message: the process exits 1
    assert "flat engine" in message
    for name in legacy:
        assert name in message
    assert _listing(directory) == before


@pytest.mark.parametrize(
    "command, pattern",
    [
        ("status", "seg-*.zseg"),
        ("compact", "seg-*.zseg"),
        ("status", "snap-*.zsnap"),
    ],
)
def test_version_1_files_exit_with_a_message(wal_dir, command, pattern):
    directory, _counts = wal_dir
    assert main(["storage", "compact", "--dir", str(directory)]) == 0
    (path,) = (directory / "pod0-server-1").glob(pattern)
    data = bytearray(path.read_bytes())
    data[4] = 1  # the version byte after the magic
    path.write_bytes(bytes(data))
    with pytest.raises(SystemExit) as excinfo:
        main(["storage", command, "--dir", str(directory)])
    assert f"{path.name}: unsupported" in excinfo.value.code
    assert "version 1" in excinfo.value.code
