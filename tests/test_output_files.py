"""Output files: every CLI writer goes through ``states.write_utf8``, which
encodes first, writes the bytes in place through ``os.write`` and cuts a
regular file to length.  What ``open(path, "w")`` kept stays as it was: the
bytes of a fresh write, the inode, the mode, hard links, symlink following,
the ``error[io]`` line, and no cut of a device.  Input files go through
``states.read_utf8``, which reads bytes and decodes them as strict UTF-8."""

import json
import os
import pathlib
import stat
import threading

import pytest

from lurcert import cli
from lurcert.spin_ops import SpinQuantum
from lurcert.states import (
    _LINES_PER_WRITE,
    bell_mixture,
    read_state,
    read_utf8,
    singlet_state,
    write_state,
    write_utf8,
)

# writer -> (output option, long command, short command); the long command
# writes more bytes than the short one to the same option
WRITERS = {
    "certify --json": (
        "--json",
        ["certify", "--state", "{inputs}/bell.json", "--relation", "s3"],
        ["certify", "--state", "{inputs}/singlet.json", "--relation", "s3"],
    ),
    "family --out": (
        "--out",
        ["family", "--kind", "white", "--two-l", "3", "--relation", "l3", "--grid", "0:1:0.01"],
        ["family", "--kind", "white", "--two-l", "3", "--relation", "l3", "--grid", "0:1:0.25"],
    ),
    "state-gen --out": (
        "--out",
        ["state-gen", "--kind", "singlet", "--two-l", "3"],
        ["state-gen", "--kind", "bell", "--ps", "1", "--p1", "0", "--p2", "0", "--p3", "0"],
    ),
    "search-bound --emit-state": (
        "--emit-state",
        ["search-bound", "--set", "spin:xyz", "--two-l", "4", "--restarts", "4", "--seed", "0"],
        ["search-bound", "--set", "spin:xy", "--two-l", "1", "--restarts", "2", "--seed", "0"],
    ),
    "search-bound --emit-bound": (
        "--emit-bound",
        ["search-bound", "--set", "spin:xyz", "--two-l", "4", "--restarts", "4", "--seed", "0"],
        ["search-bound", "--set", "spin:xy", "--two-l", "1", "--restarts", "2", "--seed", "0"],
    ),
}


@pytest.fixture
def inputs(tmp_path):
    folder = tmp_path / "inputs"
    folder.mkdir()
    write_state(bell_mixture(0.8, 0.1, 0.05, 0.05), folder / "bell.json")
    write_state(singlet_state(SpinQuantum(1)), folder / "singlet.json")
    return folder


def write(writer, size, out, inputs, capsys):
    """Run the ``size`` ("long" or "short") command of ``writer`` into
    ``out``; return its exit code."""
    option, long_argv, short_argv = WRITERS[writer]
    argv = long_argv if size == "long" else short_argv
    code = cli.main([arg.format(inputs=inputs) for arg in argv] + [option, str(out)])
    capsys.readouterr()
    return code


def fresh_bytes(writer, size, tmp_path, inputs, capsys):
    out = tmp_path / f"fresh-{size}"
    assert write(writer, size, out, inputs, capsys) in (0, 3)
    return out.read_bytes()


@pytest.mark.parametrize("writer", WRITERS)
def test_a_short_output_over_a_long_one_equals_a_fresh_write(writer, tmp_path, inputs, capsys):
    long, short = (fresh_bytes(writer, size, tmp_path, inputs, capsys) for size in ("long", "short"))
    assert len(long) > len(short)
    out = tmp_path / "out"
    write(writer, "long", out, inputs, capsys)
    assert out.read_bytes() == long
    write(writer, "short", out, inputs, capsys)
    assert out.read_bytes() == short


@pytest.mark.parametrize("writer", WRITERS)
def test_a_symlinked_output_writes_through_to_its_target(writer, tmp_path, inputs, capsys):
    short = fresh_bytes(writer, "short", tmp_path, inputs, capsys)
    target, link = tmp_path / "target", tmp_path / "link"
    target.write_bytes(b"x" * 10_000)
    link.symlink_to(target)
    write(writer, "short", link, inputs, capsys)
    assert link.is_symlink()
    assert target.read_bytes() == short


@pytest.mark.parametrize("writer", WRITERS)
def test_a_hard_link_sees_the_new_bytes(writer, tmp_path, inputs, capsys):
    short = fresh_bytes(writer, "short", tmp_path, inputs, capsys)
    out, other = tmp_path / "out", tmp_path / "other"
    write(writer, "long", out, inputs, capsys)
    os.link(out, other)
    inode = out.stat().st_ino
    write(writer, "short", out, inputs, capsys)
    assert out.stat().st_ino == inode
    assert other.read_bytes() == short


@pytest.mark.parametrize("writer", WRITERS)
def test_an_existing_file_keeps_its_mode(writer, tmp_path, inputs, capsys):
    out = tmp_path / "out"
    out.write_bytes(b"x" * 10_000)
    out.chmod(0o604)
    write(writer, "short", out, inputs, capsys)
    assert stat.S_IMODE(out.stat().st_mode) == 0o604


@pytest.mark.parametrize("writer", WRITERS)
def test_a_new_file_is_created_under_the_umask(writer, tmp_path, inputs, capsys):
    out = tmp_path / "out"
    previous = os.umask(0o027)
    try:
        write(writer, "short", out, inputs, capsys)
    finally:
        os.umask(previous)
    assert stat.S_IMODE(out.stat().st_mode) == 0o640


def test_no_writer_goes_around_write_utf8(tmp_path, inputs, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("an output file was written with Path.write_text")

    monkeypatch.setattr(pathlib.Path, "write_text", refuse)
    for k, writer in enumerate(WRITERS):
        out = tmp_path / f"out-{k}"
        assert write(writer, "short", out, inputs, capsys) in (0, 3), writer
        assert out.stat().st_size > 0


def unwritable(target, tmp_path):
    """An output path that cannot be opened for writing, and the errno line
    that ``open(path, "w")`` fails with on it."""
    if target == "directory":
        path = tmp_path / "folder"
        path.mkdir()
        return path, f"[Errno 21] Is a directory: '{path}'"
    if target == "missing parent":
        path = tmp_path / "missing" / "out"
        return path, f"[Errno 2] No such file or directory: '{path}'"
    if os.geteuid() == 0:
        pytest.skip("root writes to a read-only file")
    path = tmp_path / "read-only"
    path.write_bytes(b"kept")
    path.chmod(0o444)
    return path, f"[Errno 13] Permission denied: '{path}'"


@pytest.mark.parametrize("target", ["directory", "missing parent", "read-only file"])
@pytest.mark.parametrize("writer", WRITERS)
def test_an_unwritable_output_is_an_io_error(writer, target, tmp_path, inputs, capsys):
    path, message = unwritable(target, tmp_path)
    option, _, short_argv = WRITERS[writer]
    argv = [arg.format(inputs=inputs) for arg in short_argv] + [option, str(path)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error[io]: {message}\n"
    if target == "read-only file":
        assert path.read_bytes() == b"kept"


def test_a_certificate_to_dev_null_is_written_and_not_cut(inputs, capsys):
    argv = ["certify", "--state", str(inputs / "singlet.json"), "--relation", "s3"]
    assert cli.main([*argv, "--json", os.devnull]) == 3
    assert capsys.readouterr().err == ""
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


def test_a_fifo_gets_the_whole_output_and_no_cut(tmp_path, inputs, capsys):
    short = fresh_bytes("certify --json", "short", tmp_path, inputs, capsys)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    try:
        assert write("certify --json", "short", fifo, inputs, capsys) == 3
    finally:
        reader.join(timeout=60)
    assert received == [short]


def test_short_os_writes_still_write_every_byte_and_cut(tmp_path, monkeypatch):
    # 7-byte writes split the two-byte UTF-8 sequences of "é"
    text = "état, " * 50 + "\n"
    data = text.encode("utf-8")
    out = tmp_path / "out"
    out.write_bytes(b"x" * (2 * len(data)))
    write = os.write
    sizes = []

    def short_write(fd, view):
        sizes.append(len(view))
        return write(fd, view[:7])

    monkeypatch.setattr(os, "write", short_write)
    write_utf8(out, text)
    write_utf8(tmp_path / "lines", [text] * 3)
    assert out.read_bytes() == data
    assert (tmp_path / "lines").read_bytes() == data * 3
    # each call is offered what the previous ones left
    expected = list(range(len(data), 0, -7))
    assert sizes[: len(expected)] == expected


@pytest.mark.parametrize("count", [0, 1, _LINES_PER_WRITE, _LINES_PER_WRITE + 1, 3 * _LINES_PER_WRITE + 5])
def test_a_list_of_lines_is_written_as_their_concatenation(count, tmp_path, monkeypatch):
    lines = [f"{k},{'é' * (k % 4)}\n" for k in range(count)]
    data = "".join(lines).encode("utf-8")
    out = tmp_path / "lines.csv"
    out.write_bytes(b"x" * (len(data) + 100))
    write = os.write
    sizes = []

    def recorded_write(fd, view):
        sizes.append(len(view))
        return write(fd, view)

    monkeypatch.setattr(os, "write", recorded_write)
    write_utf8(out, lines)
    assert out.read_bytes() == data
    # one write per slice of lines, never the joined whole of a long list
    slices = range(0, count, _LINES_PER_WRITE)
    assert sizes == [len("".join(lines[k : k + _LINES_PER_WRITE]).encode("utf-8")) for k in slices]


def test_text_that_cannot_be_encoded_leaves_no_file(tmp_path):
    out = tmp_path / "out"
    with pytest.raises(UnicodeEncodeError):
        write_utf8(out, "lone surrogate \udc80\n")
    assert not out.exists()


def test_a_crlf_state_file_reads_to_the_same_state(tmp_path):
    state = bell_mixture(0.8, 0.1, 0.05, 0.05)
    lf, crlf = tmp_path / "lf.json", tmp_path / "crlf.json"
    write_state(state, lf)
    text = json.dumps(json.loads(lf.read_bytes()), indent=1).replace("\n", "\r\n")
    crlf.write_bytes(text.encode("utf-8"))
    # the reader hands the decoder's text on, newlines untranslated
    assert read_utf8(crlf) == text
    assert text.count("\r\n") > 4
    read_lf, read_crlf = read_state(lf), read_state(crlf)
    assert read_crlf.matrix.tobytes() == read_lf.matrix.tobytes() == state.matrix.tobytes()
    assert read_crlf.digest == read_lf.digest == state.digest


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd (Linux)")
def test_failed_writes_and_reads_leave_no_descriptor_open(tmp_path, inputs, monkeypatch, capsys):
    folder = tmp_path / "folder"
    folder.mkdir()
    out = tmp_path / "out.json"
    before = len(os.listdir("/proc/self/fd"))

    def failing_write(fd, view):
        raise OSError(28, "No space left on device")

    with monkeypatch.context() as patch:
        patch.setattr(os, "write", failing_write)
        for _ in range(200):
            assert cli.main(["state-gen", "--kind", "singlet", "--two-l", "1", "--out", str(out)]) == 2
            assert capsys.readouterr().err == "error[io]: [Errno 28] No space left on device\n"
    for _ in range(200):
        assert cli.main(["certify", "--state", str(folder), "--relation", "s3"]) == 2
        assert capsys.readouterr().err == f"error[io]: [Errno 21] Is a directory: '{folder}'\n"
    assert len(os.listdir("/proc/self/fd")) <= before
