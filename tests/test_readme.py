"""The README's examples run as written, so the docs cannot drift from the code."""

import json
import re
from pathlib import Path

from lsdfem import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def code_block(heading, language):
    """The first ``language`` code block under the ``## heading`` section."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_examples_run(tmp_path):
    exec(compile(code_block("Library quick start", "python"), "README quick start", "exec"), {})
    spec = tmp_path / "experiment.json"
    spec.write_text(code_block("CLI", "json"), encoding="utf-8")
    out = tmp_path / "results"
    assert cli.main(["--config", str(spec), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    keys = {"config", "config_hash", "dimensions", "contrast", "diagnostics", "face_spectrum",
            "oracle_exact", "oracle_conforming", "timings"}
    assert keys <= set(report)
    assert "j_guidance" not in report
