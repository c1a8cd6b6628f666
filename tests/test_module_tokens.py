"""scripts/module_tokens.py on synthetic modules: the line count, comments
and blank lines left out of the token count, and the "over" and "near"
flags at 4,096 and 3,968 tokens."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "module_tokens.py"
spec = importlib.util.spec_from_file_location("module_tokens", SCRIPT)
module_tokens = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module_tokens)


def source_with(tokens: int) -> str:
    """A module of exactly `tokens` significant tokens, with comments and
    blank lines around them: a line "x" is NAME NEWLINE (2), "f(x)" is
    NAME OP NAME OP NEWLINE (5), and the ENDMARKER is 1."""
    body = ["# a comment line", "", '"""a docstring', 'on two lines"""']   # STRING NEWLINE
    left = tokens - 1 - 2
    if left % 2:
        body.append("f(x)  # a trailing comment")
        left -= 5
    body += ["x"] * (left // 2)
    return "\n".join(body) + "\n"


def report(capsys, tmp_path, sources: dict[str, str]) -> dict[str, list[str]]:
    for name, text in sources.items():
        (tmp_path / name).write_text(text)
    (tmp_path / "notes.txt").write_text("x\n" * 10)    # not a .py file: not counted
    assert module_tokens.main([str(tmp_path)]) == 0
    return {line.split()[0]: line.split()[1:] for line in capsys.readouterr().out.splitlines()}


def test_count_gives_lines_and_leaves_out_comments_and_blank_lines(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("# header\n\nx = 1  # trailing\n\n\ndef f():\n    return x\n")
    # x = 1 NEWLINE (4); def f ( ) : NEWLINE (6); INDENT return x NEWLINE (4);
    # DEDENT ENDMARKER (2)
    assert module_tokens.count(str(path)) == (7, 16)
    for tokens in (3, 8, 11, 100, 101):
        path.write_text(source_with(tokens))
        lines = source_with(tokens).count("\n")
        assert module_tokens.count(str(path)) == (lines, tokens)


@pytest.mark.parametrize("tokens,flag", [(3967, ""), (3968, ""), (3969, "near"),
                                         (4096, "near"), (4097, "over"), (5000, "over")])
def test_flags_over_past_4096_and_near_within_128_below(capsys, tmp_path, tokens, flag):
    text = source_with(tokens)
    rows = report(capsys, tmp_path, {"big.py": text, "small.py": "x\n"})
    lines = text.count("\n")
    assert rows["big.py"] == [str(lines), "lines", str(tokens), "tokens"] + ([flag] if flag else [])
    assert rows["small.py"] == ["1", "lines", "3", "tokens"]
    assert rows["total"] == [str(lines + 1), "lines", str(tokens + 3), "tokens"]
    assert list(rows) == ["big.py", "small.py", "total"]
