"""The spec files shipped under examples/specs must stay valid and runnable."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import main

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"
SPECS = EXAMPLES / "specs"


@pytest.mark.contract
@pytest.mark.parametrize(
    "document",
    sorted(EXAMPLES.rglob("*.xml")),
    ids=lambda path: str(path.relative_to(EXAMPLES)),
)
def test_every_shipped_document_validates(document, capsys):
    """A grammar that refuses a document the repository ships fails here."""
    assert main(["validate", str(document)]) == 0, capsys.readouterr().out


@pytest.mark.skipif(not SPECS.exists(), reason="examples/specs not present")
class TestShippedSpecs:
    def test_mosaic_validates(self, capsys):
        assert main(["validate", str(SPECS / "mosaic.xml")]) == 0

    def test_mosaic_lints_clean(self, capsys):
        # ``validate`` reports vocabulary problems with the graph's.
        assert main(["validate", str(SPECS / "mosaic.xml")]) == 0
        assert "unknown" not in capsys.readouterr().out

    def test_mosaic_runs_on_volunteer_grid(self, capsys):
        code = main(
            [
                "run",
                str(SPECS / "mosaic.xml"),
                "--grid",
                str(SPECS / "volunteer_grid.json"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "done" in out

    def test_mosaic_report_shows_timeline(self, capsys):
        code = main(
            [
                "run",
                str(SPECS / "mosaic.xml"),
                "--grid",
                str(SPECS / "volunteer_grid.json"),
                "--report",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "t = [" in out  # the Gantt header
