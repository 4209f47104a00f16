"""Fuzzing the input contract: whatever a `.dgl`, `.sullivan` or `.lietable`
file holds, `lietower validate` exits 0, 2, 3 or 4 and never ends in a
traceback.

Inputs are arbitrary text, arbitrary bytes, and shipped files with a few
short spans replaced by text over the input syntax's own characters, which
reach past the header into the section parsers and the validators.
"""

import glob
import io
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from lietower import cli  # noqa: E402

FILES = os.path.join(os.path.dirname(__file__), "..", "demos", "files")
SUFFIXES = (".dgl", ".sullivan", ".lietable")
SHIPPED = {
    suffix: [Path(path).read_text(encoding="utf-8") for path in sorted(glob.glob(f"{FILES}/*{suffix}"))]
    for suffix in SUFFIXES
}
SYNTAX = "[](),:=*+-/^ \n#0123456789abcdxyzuvwdVkind"
TEXT = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=200)


@st.composite
def inputs(draw) -> tuple[str, bytes]:
    suffix = draw(st.sampled_from(SUFFIXES))
    kind = draw(st.sampled_from(("text", "bytes", "mutant")))
    if kind == "text":
        return suffix, draw(TEXT).encode()
    if kind == "bytes":
        return suffix, draw(st.binary(max_size=200))
    text = draw(st.sampled_from(SHIPPED[suffix]))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 8)))
        text = text[:i] + draw(st.text(alphabet=SYNTAX, max_size=8)) + text[j:]
    return suffix, text.encode()


def test_every_suffix_has_a_shipped_file():
    assert all(SHIPPED.values())


@settings(max_examples=300, deadline=None)
@given(inputs())
def test_validate_exits_with_a_documented_code(case):
    suffix, data = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input" + suffix)
        with open(path, "wb") as fh:
            fh.write(data)
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = cli.main(["validate", path])
    assert code in (0, 2, 3, 4)
