"""Every module stays below the token count at which CPython's parser steps
up its memory.

A process that finds no bytecode cache compiles each module it imports,
and the parser's memory grows in a step once a module holds about 4096
tokens.  Compiling synthetic modules of ``aN = N`` lines on x86-64 CPython
3.11.7, counted as ``parser_tokens`` counts, raised peak RSS by 1440-1580
KiB at 4085-4089 tokens and by 1660-1900 KiB from 4090 tokens on (three
runs each).  When ``nn.py`` crossed the step, train-small ``peak_rss_mib``
rose by a median 0.10 MiB.  A module that reaches the bound should move or
shed code; the bound is the parser's and stays where it was measured.
"""

import io
import tokenize
from pathlib import Path

PARSER_STEP = 4090
MODULES = sorted((Path(__file__).resolve().parents[1] / "src" / "metadapt").glob("*.py"))


def parser_tokens(text: str) -> int:
    """Tokens as ``tokenize`` yields them, comments and blank lines excluded."""
    return sum(tok.type not in (tokenize.COMMENT, tokenize.NL)
               for tok in tokenize.generate_tokens(io.StringIO(text).readline))


def test_counts_tokens_not_comments():
    # NAME OP NUMBER NEWLINE ENDMARKER
    assert parser_tokens("x = 1  # one\n\n# two\n") == parser_tokens("x = 1\n") == 5


def test_every_module_below_parser_step():
    counts = {p.name: parser_tokens(p.read_text(encoding="utf-8")) for p in MODULES}
    assert "harness.py" in counts
    assert {name: n for name, n in counts.items() if n >= PARSER_STEP} == {}
