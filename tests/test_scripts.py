"""Smoke tests: every experiment script under scripts/ runs end to end on a tiny problem."""

import importlib.util
import re
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

TINY_ARGV = {
    "run_convergence":
        ["--keyframes", "3", "--height", "24", "--width", "32", "--max-iters", "2"],
    "run_dynamic_ablation":
        ["--seeds", "1", "--keyframes", "3", "--height", "24", "--width", "32", "--max-iters", "1"],
}

# Report lines a script must print besides its "ATE" header.
REPORT_LINES = {
    "run_dynamic_ablation": [r"^initial +\d+\.\d{5}$"] + [
        rf"^{arm} +\d+\.\d{{5}} +[01]/1$" for arm in ("ark", "l2", "ark-noembed", "l2-noembed")],
}


def load_main(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


@pytest.mark.parametrize("name", sorted(TINY_ARGV))
def test_script_runs(name, capsys):
    assert load_main(name)(TINY_ARGV[name]) == 0
    out = capsys.readouterr().out
    assert "ATE" in out
    for pattern in REPORT_LINES.get(name, []):
        assert re.search(pattern, out, re.MULTILINE), pattern


def test_every_script_is_covered():
    assert sorted(p.stem for p in SCRIPTS.glob("*.py")) == sorted(TINY_ARGV)
