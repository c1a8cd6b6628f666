#!/usr/bin/env python3
"""Print the lines and significant tokens of each src/ranklab/*.py module,
then their total; given two directories, each module's change from the
first to the second, then the change of the totals.

Significant tokens are those of the tokenize module, leaving out COMMENT, NL
and ENCODING.  A module over 4,096 of them is flagged "over", and one within
128 below is flagged "near": past 4,096 tokens the parser doubles its token
array while compiling the module, which raises the benchmark's peak_rss_mb.
A change row flags the module's new count; a module missing from one
directory counts 0 lines and 0 tokens there.

Usage: python scripts/module_tokens.py [DIR]   (default: src/ranklab)
       python scripts/module_tokens.py OLD_DIR NEW_DIR
"""

from __future__ import annotations

import os
import sys
import tokenize

LIMIT = 4096
MARGIN = 128
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}


def count(path: str) -> tuple[int, int]:
    """(lines, significant tokens) of one source file."""
    with open(path, "rb") as fh:
        toks = list(tokenize.tokenize(fh.readline))
    with open(path, "rb") as fh:
        lines = sum(1 for _ in fh)
    return lines, sum(tok.type not in SKIPPED for tok in toks)


def flag(tokens: int) -> str:
    return "over" if tokens > LIMIT else "near" if tokens > LIMIT - MARGIN else ""


def counts(root: str) -> dict[str, tuple[int, int]]:
    """{module name: (lines, tokens)} over the .py files of root."""
    return {name: count(os.path.join(root, name))
            for name in sorted(os.listdir(root)) if name.endswith(".py")}


def compare(old_root: str, new_root: str) -> None:
    """Print each module's lines and tokens in both directories and their
    change, then the totals."""
    old, new = counts(old_root), counts(new_root)
    rows = [(name, old.get(name, (0, 0)), new.get(name, (0, 0)))
            for name in sorted(old.keys() | new.keys())]
    rows.append(("total", tuple(map(sum, zip(*old.values()))) or (0, 0),
                 tuple(map(sum, zip(*new.values()))) or (0, 0)))
    for name, (ol, ot), (nl, nt) in rows:
        line = (f"{name:18s} {ol:5d} -> {nl:5d} lines {nl - ol:+6d} "
                f"{ot:6d} -> {nt:6d} tokens {nt - ot:+6d}  {flag(nt) if name != 'total' else ''}")
        print(line.rstrip())


def main(argv: list[str]) -> int:
    if len(argv) == 2:
        compare(*argv)
        return 0
    root = argv[0] if argv else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "src", "ranklab")
    total_lines = total_tokens = 0
    for name, (lines, tokens) in counts(root).items():
        total_lines, total_tokens = total_lines + lines, total_tokens + tokens
        print(f"{name:18s} {lines:5d} lines {tokens:6d} tokens  {flag(tokens)}".rstrip())
    print(f"{'total':18s} {total_lines:5d} lines {total_tokens:6d} tokens")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
