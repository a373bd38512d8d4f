"""Training outputs pinned by SHA-256 (see tests/digests.py); the digests
hold on the machine record they were made with and the test skips on any
other."""

import pytest

import digests

RECORD = digests.load()


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    difference = digests.record_difference(RECORD["machine"])
    if difference is not None:
        pytest.skip(f"other machine: {difference}")
    return digests.compute(tmp_path_factory.mktemp("digests"))


def test_every_run_is_recorded():
    assert list(RECORD["runs"]) == [name for name, *_ in digests.RUNS]


@pytest.mark.parametrize("run", list(RECORD["runs"]))
def test_outputs_match_digests(run, produced):
    want, got = RECORD["runs"][run], produced[run]
    assert sorted(got) == sorted(want), f"{run}: wrote {sorted(got)}, recorded {sorted(want)}"
    differ = [name for name in want if got[name] != want[name]]
    assert not differ, f"{run}: {', '.join(differ)} differ from the recorded digests"


def test_another_machine_record_is_named():
    other = {**digests.machine_record(), "cpu": "another CPU"}
    assert "cpu is" in digests.record_difference(other)
    assert digests.record_difference(digests.machine_record()) is None
