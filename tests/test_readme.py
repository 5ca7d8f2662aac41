"""The README's examples stay runnable: its config heredocs decode through
the codec into their subcommand's dataclasses, and its Library block runs."""

import json
import re
from pathlib import Path

from fewcache.codec import from_doc
from fewcache.dataset import SynthSpec
from fewcache.encoders import SyntheticSource
from fewcache.harness import ExperimentConfig

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _heredoc(name: str) -> dict:
    match = re.search(rf"cat > {re.escape(name)} <<'EOF'\n(.*?)\nEOF\n", README, re.S)
    assert match, f"README has no {name} heredoc"
    return json.loads(match.group(1))


def test_synth_config_decodes():
    doc = _heredoc("synth.json")
    assert set(doc) <= {"spec", "name"}
    from_doc(SynthSpec, doc["spec"])


def test_experiment_config_decodes():
    doc = _heredoc("experiment.json")
    from_doc(ExperimentConfig, doc)
    assert doc["source"]["kind"] == "synthetic"
    from_doc(SyntheticSource, doc["source"])


def test_library_block_runs(capsys):
    match = re.search(r"## Library\n\n```python\n(.*?)```", README, re.S)
    assert match, "README has no Library block"
    exec(compile(match.group(1), "README.md", "exec"), {})
    assert 0.0 <= float(capsys.readouterr().out) <= 1.0
