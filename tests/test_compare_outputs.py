"""tools/compare_outputs.py: `pe` outputs of two source trees, byte for byte."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "compare_outputs", ROOT / "tools" / "compare_outputs.py")
tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tool)

# the manufactured solution on 8^2x4: five IMEX steps of the forced march
CONFIG = [("manufactured-run", "run", tool.SMALL["manufactured"] + tool.OUTPUTS)]


def test_one_tree_is_byte_identical_to_itself():
    assert tool.compare(ROOT / "src", ROOT / "src", CONFIG) == []


def test_a_perturbed_constant_is_reported(tmp_path):
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    evolution = src / "hydropde" / "evolution.py"
    text = evolution.read_text()
    assert text.count("math.exp(-0.3 * t)") == 1
    evolution.write_text(text.replace("math.exp(-0.3 * t)", "math.exp(-0.31 * t)"))
    lines = tool.compare(ROOT / "src", src, CONFIG)
    assert "manufactured-run: ledger.csv differs" in lines
    assert "manufactured-run: final.ckpt differs" in lines
    moved = [line.split(":")[0].strip() for line in lines if line.startswith("    ")]
    assert "e2" in moved and "t" not in moved
