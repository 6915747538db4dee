"""Mutation fuzzing of the problem-file parser.

Each mutant of a valid conformance file (lines deleted, duplicated or
truncated; tokens swapped for non-finite numbers, stray braces or an
out-of-range variable) must either parse, and then survive a canonical
round-trip, or raise ``ProblemFileError``. Any other exception is a parser
defect that would surface as an unexpected-error exit.
"""
from __future__ import annotations

from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

from noc.errors import ProblemFileError
from noc.problemfile import parse_problem_file, serialize_problem_file

VALID = sorted((Path(__file__).resolve().parent.parent
                / "docs" / "conformance" / "valid").glob("*.noc"))
TEXTS = [path.read_text() for path in VALID]
TOKENS = ("nan", "1e400", "{", "}", "y9")

mutation = st.tuples(st.sampled_from(("delete", "duplicate", "truncate", "swap")),
                     st.integers(0, 10_000), st.integers(0, 10_000),
                     st.sampled_from(TOKENS))


def _mutate(text: str, mutations) -> str:
    lines = text.splitlines()
    for kind, at, pos, token in mutations:
        if not lines:
            break
        i = at % len(lines)
        if kind == "delete":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "truncate":
            lines[i] = lines[i][:pos % (len(lines[i]) + 1)]
        else:
            words = lines[i].split()
            if words:
                words[pos % len(words)] = token
                lines[i] = " ".join(words)
    return "\n".join(lines) + "\n"


@given(st.sampled_from(range(len(TEXTS))), st.lists(mutation, min_size=1, max_size=3))
def test_mutants_parse_or_raise_problem_file_error(index, mutations):
    text = _mutate(TEXTS[index], mutations)
    try:
        pf = parse_problem_file(text)
    except ProblemFileError:
        return
    canonical = serialize_problem_file(pf)
    assert parse_problem_file(canonical) == pf

