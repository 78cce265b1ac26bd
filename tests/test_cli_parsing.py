"""The direct reader of plain ``<sub-command> (--opt value)*`` argv,
``cli._direct_args``, agrees with argparse: ``main`` gives the same exit
code, stdout, stderr and written files whether or not it may use the
reader, and wherever the reader accepts an argv its namespace is
``parse_args``'s.  The plain argv that the benchmark runs build and call
no parser at all."""

import argparse
import contextlib
import io
import os
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from lurcert import cli
from lurcert.lur import RELATION_KINDS
from lurcert.spin_ops import SpinQuantum
from lurcert.states import singlet_state, state_to_json, write_state
from lurcert.uncertainty import CATALOG_KINDS

STATE = state_to_json(singlet_state(SpinQuantum(1))) + "\n"
NUMBERS = ("0", "0.25", "0.5", "1", "1e-1", "nan", "1.5")
# values of each option that its type accepts ...
GOOD = {
    "--state": ("state.json", "missing.json"),
    "--relation": (*RELATION_KINDS, "bogus"),
    "--json": ("cert.json",),
    "--kind": ("white", "xdecoherence", "bell", "singlet", "minuncert3", *CATALOG_KINDS, "bogus"),
    "--grid": ("0:1:0.5", "0:1:0.25", "0:1", "0:1:x", "1:0:0.5"),
    "--out": ("out.file",),
    "--two-l": ("1", "2", "3", "0", "64", " 2", "1_0", "02"),
    "--set": ("spin:xy", "stokes:12", "spin:xyz", "spin:q", "ops.json"),
    "--restarts": ("1", "2", "0"),
    "--seed": ("0", "5"),
    "--emit-state": ("argmin.json",),
    "--emit-bound": ("bound.json",),
    **dict.fromkeys(("--phi", "--p", "--ps", "--p1", "--p2", "--p3"), NUMBERS),
}
# ... and values that the direct reader declines: they start with "-" or
# fail the option's type
BAD = {
    "--state": ("-", "--state"),
    "--relation": ("-l3",),
    "--json": ("-",),
    "--grid": ("-1:0:0.5",),
    "--out": ("-o",),
    "--two-l": ("-1", "x", "1.5", ""),
    "--restarts": ("x", "-3", "1.5"),
    "--seed": ("-1", "x"),
    **dict.fromkeys(("--phi", "--p", "--ps", "--p1", "--p2", "--p3"), ("-0.5", "x", "")),
}
VALUES = {flag: good + BAD.get(flag, ()) for flag, good in GOOD.items()}
ODD_TOKENS = ("--", "-h", "--help", "--version", "extra", "-1", "--bogus", "certify")


@st.composite
def plain_argv(draw):
    """A sub-command, its required options and some others, in any order,
    each with a value that its type and choices accept, or now and then
    one that starts with "-" or fails its type."""
    name = draw(st.sampled_from(sorted(cli._COMMANDS)))
    chosen = [o for o in cli._COMMANDS[name].options if o.required or draw(st.booleans())]
    argv = [name]
    for option in draw(st.permutations(chosen)):
        good = st.sampled_from(option.choices or GOOD[option.flag])
        bad = [st.sampled_from(BAD[option.flag])] if option.flag in BAD else []
        argv += [option.flag, draw(st.one_of(good, good, good, good, good, *bad))]
    return argv


@st.composite
def noisy_argv(draw):
    """Tokens around the plain form: abbreviations, ``--opt=value``,
    ``--``, repeats, lone flags, negative numbers and extra tokens."""
    name = draw(st.sampled_from([*sorted(cli._COMMANDS), "bogus", "cert", "-h", "--version"]))
    flags = [o.flag for o in cli._COMMANDS[name].options] if name in cli._COMMANDS else sorted(VALUES)
    flag = st.sampled_from(flags)
    pair = flag.flatmap(lambda f: st.sampled_from(VALUES[f]).map(lambda v: [f, v]))
    abbreviation = flag.flatmap(lambda f: st.integers(3, len(f)).map(lambda n: [f[:n]]))
    joined = pair.map(lambda p: [f"{p[0]}={p[1]}"])
    piece = st.one_of(pair, pair, pair, abbreviation, joined, flag.map(lambda f: [f]),
                      st.sampled_from(ODD_TOKENS).map(lambda t: [t]))
    return [name] + [token for part in draw(st.lists(piece, max_size=8)) for token in part]


def outcome(argv):
    """``main(argv)`` in a fresh directory that holds ``state.json``: exit
    code, stdout, stderr and every file there afterwards."""
    cwd = os.getcwd()
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            Path("state.json").write_text(STATE)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(list(argv))
                except SystemExit as exc:
                    code = exc.code
            files = {p.name: p.read_bytes() for p in sorted(Path(".").iterdir())}
        finally:
            os.chdir(cwd)
    return code, out.getvalue(), err.getvalue(), files


@settings(max_examples=250, deadline=None)
@given(argv=st.one_of(plain_argv(), noisy_argv()))
@example(argv=["certify", "--state", "state.json", "--relation", "l3", "--json", "cert.json"])
@example(argv=["certify", "--sta", "state.json", "--rel", "l3"])
@example(argv=["certify", "--state=state.json", "--relation", "s3"])
@example(argv=["certify", "--state", "state.json"])
@example(argv=["family", "--kind", "bogus", "--grid", "0:1:0.5", "--relation", "l3", "--out", "out.file"])
@example(argv=["family", "--kind", "white", "--two-l", "2", "--grid", "0:1:0.25", "--relation", "s3", "--out", "w.csv"])
@example(argv=["search-bound", "--set", "spin:xy", "--two-l", "2", "--seed", "7", "--emit-state", "argmin.json"])
@example(argv=["search-bound", "--set", "spin:xy", "--two-l", "2", "--seed", "-1"])
@example(argv=["state-gen", "--kind", "white", "--two-l", "2", "--p", "-0.5", "--out", "out.file"])
@example(argv=["state-gen", "--kind", "bell", "--ps", "0.1", "--p1", "0.2", "--p2", "0.3", "--p3", "0.4", "--out", "b.json"])
@example(argv=["bound", "--kind", "spin3", "--two-l", "2", "--two-l", "3"])
@example(argv=["bound", "--kind", "spin3", "--two-l", "2", "--"])
def test_main_gives_the_same_outcome_with_and_without_the_direct_reader(argv):
    direct = outcome(argv)
    with mock.patch.object(cli, "_direct_args", lambda command, rest: None):
        assert outcome(argv) == direct
    args = cli._direct_args(argv[0], argv[1:])
    if args is not None:
        parsed = vars(cli.build_parser().parse_args(argv))
        # the top-level parser's sub-command name, which nothing reads
        del parsed["command"]
        # NaN, a float that --p nan gives, equals no float, itself included
        assert vars(args).keys() == parsed.keys()
        assert all(v == parsed[k] or v != v and parsed[k] != parsed[k] for k, v in vars(args).items())


def test_the_reader_takes_exactly_the_plain_form():
    plain = ["--kind", "white", "--grid", "0:1:0.5", "--relation", "l3", "--out", "c.csv"]
    args = cli._direct_args("family", plain)
    assert vars(args) == {"kind": "white", "grid": "0:1:0.5", "relation": "l3", "out": "c.csv",
                          "two_l": None, "func": cli.cmd_family}
    assert cli._direct_args("family", [*plain, "--two-l", "3"]).two_l == 3
    for argv in (
        plain[:-1],  # an odd number of tokens
        plain[:-2],  # a required option missing
        [*plain, "--two-l", "3", "--two-l", "3"],  # a repeat
        [*plain, "--two", "3"],  # an abbreviation
        [*plain, "--two-l", "-3"],  # a value that starts with "-"
        [*plain, "--two-l", "x"],  # a failed int
        ["--kind", "bogus", *plain[2:]],  # outside the choices
        [*plain, "--", "x"],
        [*plain, "-h", "x"],
    ):
        assert cli._direct_args("family", argv) is None, argv
    assert cli._direct_args("bogus", []) is None


def test_the_benchmark_argv_shapes_build_and_call_no_parser(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_state(singlet_state(SpinQuantum(1)), "state.json")
    built, parsed = [], []
    build = cli.build_parser
    parse = argparse.ArgumentParser.parse_known_args
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args",
                        lambda self, *a, **k: parsed.append(1) or parse(self, *a, **k))
    for argv, code in [
        (["certify", "--state", "state.json", "--relation", "l3", "--json", "cert.json"], 3),
        (["family", "--kind", "white", "--two-l", "11", "--grid", "0:1:0.25", "--relation", "s3",
          "--out", "white.csv"], 0),
        (["search-bound", "--set", "spin:xy", "--two-l", "2", "--seed", "7", "--emit-state", "argmin.json"], 0),
        (["state-gen", "--kind", "bell", "--ps", "0.1", "--p1", "0.2", "--p2", "0.3", "--p3", "0.4",
          "--out", "bell.json"], 0),
    ]:
        assert cli.main(argv) == code, argv
    assert (built, parsed) == ([], [])
    # a form the reader declines builds a parser on each call, whose
    # top-level and sub-command parsers each parse once
    for _ in range(2):
        assert cli.main(["certify", "--sta", "state.json", "--rel", "l3"]) == 3
    assert (built, parsed) == ([1, 1], [1, 1, 1, 1])
    capsys.readouterr()
