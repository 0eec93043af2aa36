"""The README's examples, run as written.

The python block is executed, and each line that ends in a literal
comment (`# 2`, `# Fraction(4, 1)`, `# True: ...`) must evaluate to that
literal.  Each `$ symfrieze ...` line of a console block runs through
`cli.main`, and its output must be the lines that follow it.  A
`| symfrieze ...` stage reads the previous stage's output on stdin, and
`| sed -n 'a,bp'` keeps lines a to b.
"""

import io
import re
import shlex
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

from symfrieze.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
LITERAL = re.compile(r"^(?P<expr>[^#]*\S)\s+#\s+(?P<want>Fraction\([^)]*\)|True|False|-?\d+)(?=[\s:]|$)")
SED = re.compile(r"^(\d+),(\d+)p$")


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, flags=re.M | re.S)


def test_python_block_comments_are_its_values():
    (block,) = _blocks("python")
    namespace = {}
    exec(block, namespace)
    checked = 0
    for line in block.splitlines():
        m = LITERAL.match(line)
        if m:
            got = eval(m["expr"], namespace)
            want = eval(m["want"], {"Fraction": Fraction})
            assert (got, type(got)) == (want, type(want)), line
            checked += 1
    assert checked == 4


def _run(argv, stdin):
    out, old = io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(out):
            rc = main(argv)
    finally:
        sys.stdin = old
    assert rc == 0, argv
    return out.getvalue()


def _pipeline(command):
    text = ""
    words = shlex.split(command)
    while words:
        stage = words[:words.index("|")] if "|" in words else words
        words = words[len(stage) + 1:]
        if stage[0] == "symfrieze":
            text = _run(stage[1:], text)
        else:
            assert stage[:2] == ["sed", "-n"], stage
            first, last = map(int, SED.match(stage[2]).groups())
            text = "".join(text.splitlines(keepends=True)[first - 1:last])
    return text


def _sessions():
    """(command, expected output) for each `$` line of the console blocks."""
    for block in _blocks("console"):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, _, out = chunk.partition("\n")
            yield command, out.rstrip("\n") + "\n"


def test_console_blocks_print_what_they_show():
    sessions = list(_sessions())
    assert len(sessions) == 5
    for command, want in sessions:
        assert _pipeline(command) == want, command
