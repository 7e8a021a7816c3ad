"""``python -m repro.serve`` flags: the engine group carries one knob."""

import pytest

from repro.serve.__main__ import build_parser


def test_compaction_threshold_is_the_engine_flag():
    args = build_parser().parse_args(["xkg.snapd", "--compaction-threshold", "500"])
    assert args.compaction_threshold == 500


@pytest.mark.parametrize("flag", ["--parallelism", "--merge-batch"])
def test_retired_engine_flags_are_rejected(flag, capsys):
    with pytest.raises(SystemExit) as info:
        build_parser().parse_args(["xkg.snapd", flag, "2"])
    assert info.value.code == 2
    assert flag in capsys.readouterr().err
