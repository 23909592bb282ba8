"""README examples: the Quick start runs as printed, the scenario files parse."""
from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

import pytest

from steerkit import parse_config
from steerkit.config import _RUN_BLOCKS

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _code_blocks(language: str, text: str = README) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", text, flags=re.M | re.S)


def _ini_sections() -> dict[str, str]:
    """Each ``[section]`` of the README's INI examples, with its body."""
    sections = {}
    for block in _code_blocks("ini"):
        for chunk in re.split(r"^(?=\[)", block, flags=re.M):
            match = re.match(r"\[(\w+)\]", chunk)
            if match:
                sections[match.group(1)] = chunk
    return sections


SECTIONS = _ini_sections()


def test_quick_start_prints_the_documented_steering_line():
    quick_start = README.split("## Quick start", 1)[1].split("\n## ", 1)[0]
    (code,) = _code_blocks("python", quick_start)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        exec(compile(code, "README.md", "exec"), {})
    # the comment under the first print, where each "..." stands for more digits
    documented = re.search(r"^print\(result\.s12.*\n# (.*)$", code, flags=re.M).group(1)
    assert documented.startswith("0.719... 3.907... one-way-2-steers-1")
    pattern = re.escape(documented).replace(re.escape("..."), r"\d*")
    assert re.fullmatch(pattern, stdout.getvalue().splitlines()[0])


def test_scenario_examples_cover_every_run_block():
    assert sorted(SECTIONS) == sorted(("config", "params", *_RUN_BLOCKS))


@pytest.mark.parametrize("run_block", _RUN_BLOCKS)
def test_scenario_example_parses(run_block):
    cfg = parse_config(SECTIONS["config"] + SECTIONS["params"] + SECTIONS[run_block])
    assert cfg.run_block == run_block
