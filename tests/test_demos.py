import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_karate_demo_runs(capsys):
    # the demo goes through the public API only, so a renamed or deleted
    # public name fails here
    runpy.run_path(str(DEMOS / "01_karate_pair_tests.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "estimated community count: 0" in out
    assert "example pair (3, 27)" in out
