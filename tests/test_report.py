"""``repro report``: every topic runs on its own and prints its header."""

import pytest

from repro.cli import main
from repro.report import TOPICS


@pytest.mark.parametrize("topic", list(TOPICS))
def test_topic_runs_and_prints_its_header(topic, capsys):
    assert main(["report", topic]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"### {TOPICS[topic][0]}\n```\n")
    assert out.rstrip().endswith("```")


@pytest.mark.parametrize("argv", [["report"], ["report", "codec-fit", "--all"],
                                  ["report", "no-such-topic"]])
def test_one_topic_or_all(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
