#!/usr/bin/env python3
"""Print the lines and significant tokens of each src/ranklab/*.py module,
then their total.

Significant tokens are those of the tokenize module, leaving out COMMENT, NL
and ENCODING.  A module over 4,096 of them is flagged "over", and one within
128 below is flagged "near": past 4,096 tokens the parser doubles its token
array while compiling the module, which raises the benchmark's peak_rss_mb.

Usage: python scripts/module_tokens.py [DIR]   (default: src/ranklab)
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


def main(argv: list[str]) -> int:
    root = argv[0] if argv else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "src", "ranklab")
    total_lines = total_tokens = 0
    for name in sorted(f for f in os.listdir(root) if f.endswith(".py")):
        lines, tokens = count(os.path.join(root, name))
        total_lines, total_tokens = total_lines + lines, total_tokens + tokens
        flag = "over" if tokens > LIMIT else "near" if tokens > LIMIT - MARGIN else ""
        print(f"{name:18s} {lines:5d} lines {tokens:6d} tokens  {flag}".rstrip())
    print(f"{'total':18s} {total_lines:5d} lines {total_tokens:6d} tokens")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
