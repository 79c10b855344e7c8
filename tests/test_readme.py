"""The README's examples run as written, so a renamed or deleted API fails here."""
import contextlib
import io
import math
import re
from pathlib import Path

import pytest

from qaction.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(heading: str, lang: str) -> str:
    """The first ``lang`` code block after a README heading."""
    match = re.search(rf"^{re.escape(heading)}\n.*?```{lang}\n(.*?)```", README, re.S | re.M)
    assert match, f"no {lang} block under {heading!r}"
    return match.group(1)


def test_library_quickstart_runs_as_written():
    namespace = {}
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(_block("## Library quickstart", "python"), namespace)
    first = float(printed.getvalue().splitlines()[0])
    assert first == pytest.approx(1.0 / math.sqrt(2.0 * math.pi * math.sinh(1.0)), rel=2e-5)
    assert str(first).startswith("0.36801")
    assert namespace["result"].quantum.potential.coefficient((2,)) == pytest.approx(0.5, abs=1e-3)


# poincare's example points at a fit.json that must hold a 2-D action, so it is not run
@pytest.mark.parametrize("command", ["propagate", "fit", "analytic"])
def test_command_example_runs_as_written(tmp_path, command):
    cfg = tmp_path / f"{command}.json"
    cfg.write_text(_block(f"### {command}", "json"))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
