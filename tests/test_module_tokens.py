"""scripts/module_tokens.py on synthetic modules: the line count, comments
and blank lines left out of the token count, the "over" and "near" flags at
4,096 and 3,968 tokens, and the change between two directories."""

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


def test_two_directories_print_each_module_change_then_the_totals(capsys, tmp_path):
    """OLD_DIR NEW_DIR: a row per module in either directory, sorted, with
    its lines and tokens in both and the change; a module missing from one
    side counts 0 there; the new count is flagged; totals come last."""
    old, new = tmp_path / "old", tmp_path / "new"
    old.mkdir()
    new.mkdir()
    (old / "kept.py").write_text(source_with(4000))
    (new / "kept.py").write_text(source_with(4100))
    (old / "gone.py").write_text("x\n")
    (new / "added.py").write_text(source_with(11))
    (new / "notes.txt").write_text("x\n" * 10)    # not a .py file: not counted
    assert module_tokens.main([str(old), str(new)]) == 0
    rows = {line.split()[0]: line.split()[1:] for line in capsys.readouterr().out.splitlines()}
    lines = {t: source_with(t).count("\n") for t in (4000, 4100, 11)}
    assert list(rows) == ["added.py", "gone.py", "kept.py", "total"]
    assert rows["added.py"] == ["0", "->", str(lines[11]), "lines", f"+{lines[11]}",
                                "0", "->", "11", "tokens", "+11"]
    assert rows["gone.py"] == ["1", "->", "0", "lines", "-1", "3", "->", "0", "tokens", "-3"]
    assert rows["kept.py"] == [str(lines[4000]), "->", str(lines[4100]), "lines",
                               f"+{lines[4100] - lines[4000]}", "4000", "->", "4100", "tokens",
                               "+100", "over"]
    old_lines, new_lines = lines[4000] + 1, lines[4100] + lines[11]
    assert rows["total"] == [str(old_lines), "->", str(new_lines), "lines",
                             f"{new_lines - old_lines:+d}", "4003", "->", "4111", "tokens", "+108"]
