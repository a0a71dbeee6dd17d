"""The README's examples run as printed: its library snippets and its
command-line transcripts on its own data document."""

import contextlib
import io
import json
import re
from pathlib import Path

from facetor import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def fenced_blocks(lang):
    """The bodies of the README's code blocks fenced as ```lang, in order;
    every fence is matched, so each block pairs its own two fences."""
    return [body for fence, body in re.findall(r"^```(\w*)\n(.*?)^```$",
                                               README, re.M | re.S)
            if fence == lang]


def test_python_blocks_print_their_rank_table():
    blocks = fenced_blocks("python")
    assert len(blocks) == 2
    namespace = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for block in blocks:
            exec(compile(block, "README.md", "exec"), namespace)
    expected = re.search(r"^# (\{.*\})$", blocks[0], re.M).group(1)
    assert out.getvalue() == expected + "\n"
    assert not namespace["report"].agree


def test_command_transcripts_match(capsys, tmp_path):
    doc = next(json.loads(block) for block in fenced_blocks("json")
               if "facets" in block)
    path = tmp_path / "cstar2.json"
    path.write_text(json.dumps(doc))
    transcript = next(block for block in fenced_blocks("")
                      if block.startswith("$ facetor "))
    runs = re.split(r"^\$ facetor ", transcript, flags=re.M)[1:]
    assert len(runs) == 2
    for run in runs:
        command, *expected = run.rstrip("\n").split("\n")
        argv = [str(path) if arg == "cstar2.json" else arg
                for arg in command.split()]
        assert cli.main(argv) == 0, command
        out, err = capsys.readouterr()
        assert out.splitlines() == expected, command
        assert err == ""
