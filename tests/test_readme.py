"""README's Quick start block runs and prints what its comment says."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_block():
    section = README.read_text().split("## Quick start", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "README's Quick start has no python block"
    return match.group(1)


def test_quick_start_prints_its_comment(capsys):
    block = quick_start_block()
    # the full-line comments of the block are the lines it prints
    want = [line[2:] for line in block.splitlines() if line.startswith("# ")]
    assert want == ["type_two sigma=id, mix=12"]
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == want
