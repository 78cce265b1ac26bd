"""The golden corpus: every line of ``tests/golden/commands.txt``, replayed
through ``cli.main``, gives the exit code, verdict and bytes that
``tests/golden/manifest.json`` records (see ``golden_corpus.py``)."""

import pytest

import golden_corpus


@pytest.fixture(scope="module")
def replayed():
    return golden_corpus.replay(), golden_corpus.load_manifest()


def test_the_manifest_holds_one_record_per_corpus_line(replayed):
    records, manifest = replayed
    assert [r["command"] for r in manifest["commands"]] == golden_corpus.command_lines()
    assert len(records) == len(manifest["commands"])


def test_exit_codes_and_verdicts_match_the_manifest(replayed):
    records, manifest = replayed
    for old, new in zip(manifest["commands"], records):
        assert (new["exit"], new["verdict"]) == (old["exit"], old["verdict"]), new["command"]


def test_outputs_and_written_files_match_the_manifest_bytes(replayed):
    records, manifest = replayed
    here = golden_corpus.platform_key()
    if here != manifest["platform"]:
        pytest.skip(
            f"the manifest's bytes were recorded on {manifest['platform']}, not {here};"
            " only exit codes and verdicts are compared on this platform"
        )
    for old, new in zip(manifest["commands"], records):
        assert new == old, new["command"]
